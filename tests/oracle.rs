//! Brute-force oracle for every graph miner (DESIGN.md §7).
//!
//! The miners share one support-counting stack: iso-class identity
//! (`graph::canon`), VF2 (`graph::iso`), fingerprint pre-filters
//! (`graph::fingerprint`), candidate generation (`fsg::extend`) and
//! embedding propagation (`fsg::embed`). A differential test between two
//! miners built on that stack cannot see a bug in it. The reference here
//! (`tests/oracle/reference.rs`) uses none of it and is deliberately
//! naive:
//!
//! * **Patterns.** Every connected edge subset of at most `k` edges of
//!   every transaction (or neighborhood) is enumerated level by level.
//! * **Identity.** A pattern's canonical form is the minimum, over all
//!   permutations of its vertices, of (permuted vertex labels, sorted
//!   labeled edge list).
//! * **Support.** A pattern occurs in a host graph when some injective,
//!   label-preserving vertex map sends every pattern edge onto a host
//!   edge; the search tries every such map. Transaction support counts
//!   transactions, as Algorithm 1's FSG does. Neighborhood support counts
//!   distinct centers whose induced r-hop neighborhood admits a map (Han
//!   & Wen, arXiv 1305.3082).
//!
//! The miners must produce exactly the reference's pattern classes,
//! supports and TID / center lists: FSG `mine`, `mine_source` over
//! `TxnSet::slice` windows (the path `tnet_temporal::run_windows`
//! takes), gSpan `mine_dfs`, and `mine_neighborhoods` at radius 1 and 2.
//!
//! A deterministic seed sweep runs in tier-1; a wider sweep runs with
//! `cargo test --release -p tnet-core --test oracle -- --ignored`.

#[allow(dead_code)] // the bench default workload is checked in perf_counters.rs
#[path = "oracle/reference.rs"]
mod reference;

use reference::*;

const SEEDS: std::ops::Range<u64> = 0..6;
const WIDE_SEEDS: std::ops::Range<u64> = 6..150;

#[test]
fn reference_canonical_form_and_mapping_are_sound() {
    // Two numberings of one labeled path a -7-> b -8-> c share a form.
    let a = Plain {
        vlabels: vec![0, 1, 2],
        edges: vec![(0, 1, 7), (1, 2, 8)],
    };
    let b = Plain {
        vlabels: vec![2, 0, 1],
        edges: vec![(2, 0, 8), (1, 2, 7)],
    };
    assert_eq!(a.canonical_form(), b.canonical_form());
    // Reversing one edge's direction is a different class.
    let c = Plain {
        vlabels: vec![0, 1, 2],
        edges: vec![(0, 1, 7), (2, 1, 8)],
    };
    assert_ne!(a.canonical_form(), c.canonical_form());
    // A triangle has three connected 1-edge subsets (one class), three
    // 2-edge paths (one class) and itself.
    let tri = Plain {
        vlabels: vec![0, 0, 0],
        edges: vec![(0, 1, 5), (1, 2, 5), (2, 0, 5)],
    };
    assert_eq!(tri.connected_forms(3).len(), 3);
    // The 2-path maps into the triangle; the triangle does not map into
    // the 2-path (too few edges), nor into a reversed triangle.
    let path = form_graph(&a.canonical_form());
    assert!(!path.maps_into(&tri), "labels differ");
    let tri_path = tri.edge_subset(&[0, 1]);
    assert!(tri_path.maps_into(&tri));
    assert!(!tri.maps_into(&tri_path));
    let rev = Plain {
        vlabels: vec![0, 0, 0],
        edges: vec![(1, 0, 5), (2, 1, 5), (2, 0, 5)],
    };
    assert!(!tri.maps_into(&rev), "a directed 3-cycle is not a DAG");
    // Neighborhoods are induced: in a -> b -> c -> a at radius 1 around
    // a, all three vertices are members, so all three edges are in.
    assert_eq!(tri.neighborhood(0, 1).edges.len(), 3);
    let chain = Plain {
        vlabels: vec![0; 4],
        edges: vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
    };
    assert_eq!(chain.neighborhood(0, 1).edges.len(), 1);
    assert_eq!(chain.neighborhood(0, 2).edges.len(), 2);
}

#[test]
fn fsg_mine_matches_oracle() {
    for seed in SEEDS {
        let case = TxnCase::new(txn_fixture(seed), 2, 4);
        let stats = case.check_fsg(&format!("fsg seed {seed}"));
        assert!(stats.total_frequent() > 0);
    }
}

#[test]
fn windowed_mine_source_matches_oracle() {
    for seed in SEEDS {
        let txns = txn_fixture(100 + seed);
        check_windows(&format!("windows seed {seed}"), &txns, 3, 2, 3);
    }
}

#[test]
fn gspan_mine_dfs_matches_oracle() {
    for seed in SEEDS {
        let case = TxnCase::new(txn_fixture(200 + seed), 2, 4);
        case.check_gspan(&format!("gspan seed {seed}"));
    }
}

#[test]
fn neighborhoods_match_oracle_at_radius_1() {
    for seed in SEEDS {
        let g = graph_fixture(300 + seed);
        check_nbhd(&format!("nbhd r1 seed {seed}"), &g, 1, 2, 4);
    }
}

#[test]
fn neighborhoods_match_oracle_at_radius_2() {
    for seed in SEEDS {
        let g = graph_fixture(400 + seed);
        check_nbhd(&format!("nbhd r2 seed {seed}"), &g, 2, 2, 3);
    }
}

#[test]
fn hub_fixtures_spill_and_match_oracle() {
    // Fans overflow the embedding cap, so their lists spill to inexact
    // seed prefixes in every miner.
    let case = TxnCase::new(hub_fixture(4, 30), 2, 3);
    let fsg = case.check_fsg("fsg hub");
    let gspan = case.check_gspan("gspan hub");
    assert!(fsg.embeddings_spilled > 0, "{fsg:?}");
    assert!(gspan.embeddings_spilled > 0, "{gspan:?}");
    check_windows("hub", &case.txns, 3, 2, 3);
    // The neighborhood miner on one graph holding two such hubs.
    let mut hubs = Plain {
        vlabels: Vec::new(),
        edges: Vec::new(),
    };
    for t in hub_fixture(2, 24) {
        let p = Plain::from_graph(&t);
        let base = hubs.vlabels.len();
        hubs.vlabels.extend(&p.vlabels);
        hubs.edges
            .extend(p.edges.iter().map(|&(s, d, l)| (s + base, d + base, l)));
    }
    let g = hubs.to_graph();
    let nbhd = check_nbhd("nbhd hub r1", &g, 1, 2, 3);
    assert!(nbhd.embeddings_spilled > 0, "{nbhd:?}");
    check_nbhd("nbhd hub r2", &g, 2, 2, 3);
}

#[test]
#[ignore = "wide sweep; run with --release -- --ignored"]
fn wide_seed_sweep_matches_oracle() {
    for seed in WIDE_SEEDS {
        let case = TxnCase::new(txn_fixture(1000 + seed), 2, 4);
        case.check_fsg(&format!("fsg seed {seed}"));
        case.check_gspan(&format!("gspan seed {seed}"));
        check_windows(&format!("windows seed {seed}"), &case.txns, 3, 2, 4);
        let g = graph_fixture(2000 + seed);
        check_nbhd(&format!("nbhd r1 seed {seed}"), &g, 1, 2, 4);
        check_nbhd(&format!("nbhd r2 seed {seed}"), &g, 2, 2, 4);
    }
}
