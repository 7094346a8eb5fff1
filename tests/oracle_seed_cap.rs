//! The brute-force oracle (`tests/oracle.rs`) again, with the spill seed
//! budget forced down from `SEED_CAP` = 256 to 2.
//!
//! A spilled embedding list keeps only a seed prefix, so a tiny budget
//! makes nearly every growth from a spilled list come back empty. Each
//! such unverified miss must then be settled by an alternate closure
//! parent or a scratch search that re-harvests seeds — paths the default
//! budget reaches only a few times. The miners must still produce the
//! reference's exact classes and TID / center lists.
//!
//! The override is process-global, so this suite is its own test binary
//! with a single test, and the override is cleared before any failure
//! propagates.

#[allow(dead_code)] // this suite uses a subset of the shared reference
#[path = "oracle/reference.rs"]
mod reference;

use reference::*;
use tnet_fsg::embed::set_seed_cap_for_tests;

#[test]
fn forced_seed_cap_matches_oracle() {
    set_seed_cap_for_tests(2);
    let result = std::panic::catch_unwind(|| {
        let case = TxnCase::new(default_workload(), 4, 4);
        let fsg = case.check_fsg("fsg default workload");
        let gspan = case.check_gspan("gspan default workload");
        assert!(fsg.embeddings_spilled > 0 && gspan.embeddings_spilled > 0);
        assert!(fsg.iso_tests > 0 && gspan.iso_tests > 0);
        let hub = TxnCase::new(hub_fixture(4, 30), 2, 3);
        hub.check_fsg("fsg hub");
        hub.check_gspan("gspan hub");
        check_windows("hub", &hub.txns, 3, 2, 3);
        for seed in 0..4 {
            let case = TxnCase::new(txn_fixture(seed), 2, 4);
            case.check_fsg(&format!("fsg seed {seed}"));
            case.check_gspan(&format!("gspan seed {seed}"));
            let g = graph_fixture(300 + seed);
            check_nbhd(&format!("nbhd r1 seed {seed}"), &g, 1, 2, 4);
            check_nbhd(&format!("nbhd r2 seed {seed}"), &g, 2, 2, 3);
        }
    });
    set_seed_cap_for_tests(0);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
