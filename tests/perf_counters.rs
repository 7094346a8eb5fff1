//! Perf-counter regression gates for propagated support counting.
//!
//! The bench harness (`cargo run --release -p tnet-bench --bin
//! bench_miners`) reports wall-clock, but wall-clock is too noisy to
//! gate CI on. These tests pin the *deterministic* counters on the bench
//! suite's default workload instead: if a change reintroduces scratch
//! VF2 searches where propagation should serve, `iso_tests` jumps well
//! past the gate and this fails long before anyone reads a timing chart.
//!
//! The same workload is also checked for exactness: propagated FSG and
//! gSpan must report the brute-force oracle's classes and TIDs
//! (`tests/oracle/reference.rs`, which counts every support from scratch
//! with none of the miners' code), while hub lists spill and the scratch
//! settle path runs.

#[allow(dead_code)] // this suite uses a subset of the shared reference
#[path = "oracle/reference.rs"]
mod reference;

use reference::{default_workload, TxnCase};
use std::sync::OnceLock;
use tnet_fsg::{mine, FsgConfig, Support};

/// Matches `FSG_DEFAULT_ISO_GATE` in the bench_miners binary: the
/// scratch-VF2 count on this workload is 579, propagation measures 20,
/// and the gate sits at the 5x-drop mark the optimization promises.
const ISO_GATE: usize = 116;

fn fsg_cfg() -> FsgConfig {
    FsgConfig::default()
        .with_support(Support::Count(4))
        .with_max_edges(4)
}

#[test]
fn fsg_iso_tests_stay_under_gate() {
    let txns = default_workload();
    let out = mine(&txns, &fsg_cfg()).unwrap();
    assert_eq!(
        out.patterns.len(),
        62,
        "workload drifted — re-derive the gate"
    );
    assert!(
        out.stats.iso_tests <= ISO_GATE,
        "iso_tests regressed: {} > {} (scratch counts ~579 here)",
        out.stats.iso_tests,
        ISO_GATE
    );
    assert!(
        out.stats.embeddings_extended > 0,
        "propagation did no work — support counting fell back to scratch"
    );
}

/// The oracle's answer on the default workload (support 4, up to 4
/// edges), computed once for both miners' checks.
fn default_case() -> &'static TxnCase {
    static CASE: OnceLock<TxnCase> = OnceLock::new();
    CASE.get_or_init(|| TxnCase::new(default_workload(), 4, 4))
}

#[test]
fn fsg_propagated_matches_scratch() {
    // Hub lists spill, and some spilled seed prefixes miss a pattern
    // that does occur — only the scratch settle (an iso test) finds it.
    let stats = default_case().check_fsg("fsg default workload");
    assert_eq!(stats.total_frequent(), 62);
    assert!(stats.embeddings_spilled > 0, "fsg: no list spilled");
    assert!(stats.iso_tests > 0, "fsg: no unverified miss was settled");
}

#[test]
fn gspan_propagated_matches_scratch() {
    let case = default_case();
    let stats = case.check_gspan("gspan default workload");
    // Both miners agree on the workload's pattern count.
    assert_eq!(case.class_count(), 62);
    assert!(stats.embeddings_spilled > 0, "gspan: no list spilled");
    assert!(stats.iso_tests > 0, "gspan: no unverified miss was settled");
}
