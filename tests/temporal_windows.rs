//! Window-mining suite (DESIGN.md §16).
//!
//! `run_windows` freezes every unit once and mines each window as a
//! zero-copy slice of that one `TxnSet`, with TIDs re-based to the
//! window. The check here is independent of both: every window's output
//! must equal `mine_with` over that window's graphs frozen afresh — same
//! patterns, same supports, same window-local TID lists, same order —
//! at every granularity, tumbling and sliding, and at any thread count.

use tnet_data::binning::BinScheme;
use tnet_data::{generate, SynthConfig};
use tnet_exec::Exec;
use tnet_fsg::{mine_with, FsgConfig, FsgOutput, Support};
use tnet_graph::canon::invariant_hash;
use tnet_partition::{unit_partition, Granularity, TemporalOptions, WindowSpec};
use tnet_temporal::{run_windows, TemporalConfig, TemporalRun};

fn dataset() -> Vec<tnet_data::Transaction> {
    generate(&SynthConfig::scaled(0.01)).transactions
}

fn fsg_cfg() -> FsgConfig {
    FsgConfig::default()
        .with_support(Support::Count(3))
        .with_max_edges(2)
}

/// Deterministic render of one window's pattern output: iso invariant
/// hash, vertex/edge counts, support, and the exact TID list, in mined
/// order.
fn render_output(out: &FsgOutput) -> String {
    let mut s = String::new();
    for p in &out.patterns {
        s.push_str(&format!(
            "  {:016x} v{} e{} support {} tids {:?}\n",
            invariant_hash(&p.graph),
            p.graph.vertex_count(),
            p.graph.edge_count(),
            p.support,
            p.tids
        ));
    }
    s
}

/// Every window of a run, with its unit and transaction ranges.
fn render(run: &TemporalRun) -> String {
    let mut out = String::new();
    for w in &run.windows {
        out.push_str(&format!(
            "window [{}, {}) txns [{}, {})\n",
            w.unit_lo, w.unit_hi, w.txn_lo, w.txn_hi
        ));
        out.push_str(&render_output(&w.output));
    }
    out
}

fn run(txns: &[tnet_data::Transaction], spec: WindowSpec, exec: &Exec) -> TemporalRun {
    let cfg = TemporalConfig::new(spec).with_fsg(fsg_cfg());
    run_windows(
        txns,
        &BinScheme::paper_defaults(),
        &TemporalOptions::default(),
        &cfg,
        exec,
    )
    .unwrap()
}

fn specs() -> Vec<(&'static str, WindowSpec)> {
    vec![
        (
            "tumbling hour",
            WindowSpec::tumbling(Granularity::Hour, 24).unwrap(),
        ),
        (
            "sliding hour",
            WindowSpec::new(Granularity::Hour, 48, 24).unwrap(),
        ),
        (
            "tumbling day",
            WindowSpec::tumbling(Granularity::Day, 7).unwrap(),
        ),
        (
            "sliding day",
            WindowSpec::new(Granularity::Day, 7, 2).unwrap(),
        ),
        (
            "tumbling week",
            WindowSpec::tumbling(Granularity::Week, 2).unwrap(),
        ),
        (
            "sliding week",
            WindowSpec::new(Granularity::Week, 2, 1).unwrap(),
        ),
    ]
}

#[test]
fn every_window_matches_fresh_mining_at_every_granularity() {
    let txns = dataset();
    let exec = Exec::new(2);
    let mut mined = 0usize;
    for (name, spec) in specs() {
        let r = run(&txns, spec, &exec);
        assert!(!r.windows.is_empty(), "{name}: no windows");
        assert_eq!(r.session.windows, r.windows.len(), "{name}");
        let up = unit_partition(
            &txns,
            &BinScheme::paper_defaults(),
            spec.granularity,
            &TemporalOptions::default(),
        )
        .unwrap();
        for w in &r.windows {
            assert_eq!(
                up.txn_range(w.unit_lo, w.unit_hi),
                (w.txn_lo, w.txn_hi),
                "{name}: window [{}, {}) backs the wrong transactions",
                w.unit_lo,
                w.unit_hi
            );
            let fresh =
                mine_with(up.window_graphs(w.unit_lo, w.unit_hi), &fsg_cfg(), &exec).unwrap();
            assert_eq!(
                render_output(&w.output),
                render_output(&fresh),
                "{name}: window [{}, {}) diverged from mining its graphs alone",
                w.unit_lo,
                w.unit_hi
            );
            mined += w.output.patterns.len();
        }
    }
    // Guard against a vacuous pass: the windows do find patterns.
    assert!(mined > 0, "no window at any granularity found a pattern");
}

#[test]
fn window_output_is_thread_invariant() {
    let txns = dataset();
    let spec = WindowSpec::new(Granularity::Day, 7, 2).unwrap();
    let baseline = render(&run(&txns, spec, &Exec::new(1)));
    for threads in [2usize, 8] {
        assert_eq!(
            render(&run(&txns, spec, &Exec::new(threads))),
            baseline,
            "window output diverged at {threads} threads"
        );
    }
}
