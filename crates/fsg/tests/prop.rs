//! Property tests for the FSG miner: mined supports must be exact (a
//! recount via independent isomorphism checks agrees), patterns must be
//! connected, and support must be antitone under pattern extension.

// Gated: needs the external `proptest` crate (see the `prop` feature
// note in Cargo.toml). Off by default so the workspace builds offline.
#![cfg(feature = "prop")]
use proptest::prelude::*;
use tnet_fsg::{mine, FsgConfig, Support};
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
use tnet_graph::iso::has_embedding;
use tnet_graph::traverse::is_connected;

type RawEdge = (usize, usize, u32);

fn raw_txn(max_v: usize, max_e: usize) -> impl Strategy<Value = (Vec<u32>, Vec<RawEdge>)> {
    (2..=max_v).prop_flat_map(move |nv| {
        let vlabels = proptest::collection::vec(0u32..2, nv);
        let edges = proptest::collection::vec((0..nv, 0..nv, 0u32..3), 1..=max_e);
        (vlabels, edges)
    })
}

fn build(vlabels: &[u32], edges: &[RawEdge]) -> Graph {
    let mut g = Graph::new();
    let vs: Vec<VertexId> = vlabels.iter().map(|&l| g.add_vertex(VLabel(l))).collect();
    for &(s, d, l) in edges {
        g.add_edge(vs[s], vs[d], ELabel(l));
    }
    // FSG inputs are simple graphs.
    g.dedup_edges();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Supports reported by the miner equal an independent recount, and
    /// every pattern is connected and meets the threshold.
    #[test]
    fn supports_are_exact(
        txns_raw in proptest::collection::vec(raw_txn(5, 7), 2..6),
        min_support in 1usize..3,
    ) {
        let txns: Vec<Graph> = txns_raw.iter().map(|(vl, es)| build(vl, es)).collect();
        let cfg = FsgConfig::default()
            .with_support(Support::Count(min_support))
            .with_max_edges(3);
        let out = mine(&txns, &cfg).unwrap();
        for p in &out.patterns {
            prop_assert!(is_connected(&p.graph));
            prop_assert!(p.support >= min_support);
            let recount = txns.iter().filter(|t| has_embedding(&p.graph, t)).count();
            prop_assert_eq!(
                recount, p.support,
                "support mismatch for {:?}", p.graph
            );
            // TID list agrees with support and is sorted unique.
            prop_assert_eq!(p.tids.len(), p.support);
            prop_assert!(p.tids.windows(2).all(|w| w[0] < w[1]));
            for &tid in &p.tids {
                prop_assert!(has_embedding(&p.graph, &txns[tid as usize]));
            }
        }
    }

    /// Mining is complete at level 1: every frequent single-edge class
    /// appears in the output.
    #[test]
    fn level1_complete(
        txns_raw in proptest::collection::vec(raw_txn(4, 5), 2..5),
    ) {
        let txns: Vec<Graph> = txns_raw.iter().map(|(vl, es)| build(vl, es)).collect();
        let cfg = FsgConfig::default()
            .with_support(Support::Count(1))
            .with_max_edges(1);
        let out = mine(&txns, &cfg).unwrap();
        // Every single edge of every transaction is covered by some
        // mined 1-edge pattern.
        for t in &txns {
            for e in t.edges() {
                let (sub, _) = t.edge_subgraph(&[e]);
                prop_assert!(
                    out.patterns.iter().any(|p| has_embedding(&p.graph, &sub)
                        && has_embedding(&sub, &p.graph)),
                    "missing 1-edge pattern"
                );
            }
        }
    }

    /// Raising the support threshold can only shrink the result set.
    #[test]
    fn support_threshold_monotone(
        txns_raw in proptest::collection::vec(raw_txn(4, 6), 3..6),
    ) {
        let txns: Vec<Graph> = txns_raw.iter().map(|(vl, es)| build(vl, es)).collect();
        let lo = mine(
            &txns,
            &FsgConfig::default().with_support(Support::Count(1)).with_max_edges(3),
        )
        .unwrap();
        let hi = mine(
            &txns,
            &FsgConfig::default().with_support(Support::Count(2)).with_max_edges(3),
        )
        .unwrap();
        prop_assert!(hi.patterns.len() <= lo.patterns.len());
        // Every high-support pattern is also found at the lower threshold.
        for p in &hi.patterns {
            prop_assert!(lo
                .patterns
                .iter()
                .any(|q| tnet_graph::iso::are_isomorphic(&p.graph, &q.graph)));
        }
    }
}
