//! Property tests for the DFS miner: it must agree with FSG on the same
//! inputs. Exactness of both against an independent reference is the
//! brute-force oracle suite's job (`tests/oracle.rs` at the repo root).

// Gated: needs the external `proptest` crate (see the `prop` feature
// note in Cargo.toml). Off by default so the workspace builds offline.
#![cfg(feature = "prop")]
use proptest::prelude::*;
use tnet_fsg::{mine, FsgConfig, Support};
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
use tnet_graph::iso::are_isomorphic;
use tnet_gspan::{mine_dfs, GspanConfig};

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
    g.dedup_edges();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The DFS miner with propagation agrees with FSG (which propagates
    /// through level-wise joins) on pattern count and supports.
    #[test]
    fn agrees_with_fsg(
        txns_raw in proptest::collection::vec(raw_txn(4, 6), 2..5),
        min_support in 1usize..3,
    ) {
        let txns: Vec<Graph> = txns_raw.iter().map(|(vl, es)| build(vl, es)).collect();
        let g_out = mine_dfs(&txns, &GspanConfig {
            min_support: Support::Count(min_support),
            max_edges: 3,
            ..Default::default()
        }).unwrap();
        let f_out = mine(&txns, &FsgConfig::default()
            .with_support(Support::Count(min_support))
            .with_max_edges(3)).unwrap();
        prop_assert_eq!(g_out.patterns.len(), f_out.patterns.len());
        for g_p in &g_out.patterns {
            prop_assert!(f_out.patterns.iter().any(|f_p| {
                f_p.tids == g_p.tids && are_isomorphic(&f_p.graph, &g_p.graph)
            }));
        }
    }
}
