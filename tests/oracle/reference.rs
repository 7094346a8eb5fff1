//! The brute-force reference behind the oracle suites (`tests/oracle.rs`
//! and `tests/oracle_seed_cap.rs`); see the former for what it checks and
//! why. It shares no code with the miners' support-counting stack: no
//! `graph::canon`, `graph::iso`, `graph::fingerprint`, `fsg::embed` or
//! `fsg::extend`. Only the `Graph` builder (to hand fixtures to the
//! miners and read their patterns back) and the miners' public entry
//! points are used.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use tnet_core::pipeline::Pipeline;
use tnet_data::od_graph::{EdgeLabeling, VertexLabeling};
use tnet_exec::Exec;
use tnet_fsg::{mine, mine_neighborhoods, mine_source, FsgConfig, NbhdConfig, Support};
use tnet_graph::frozen::TxnSet;
use tnet_graph::graph::{ELabel, Graph, VLabel, VertexId};
use tnet_graph::rng::{Rng, StdRng};
use tnet_gspan::{mine_dfs, GspanConfig};
use tnet_partition::split::{split_graph, Strategy};

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

/// A labeled directed graph in the oracle's own plain form: vertex `i`
/// has label `vlabels[i]`; edges are `(src, dst, label)` triples, unique
/// (the miners' inputs are simple graphs).
#[derive(Clone, Debug)]
pub struct Plain {
    pub vlabels: Vec<u32>,
    pub edges: Vec<(usize, usize, u32)>,
}

/// Canonical form: (vertex labels, sorted edge triples) under the
/// lexicographically least vertex numbering.
pub type Form = (Vec<u32>, Vec<(usize, usize, u32)>);

/// Reference result: canonical form → ascending TIDs (or centers).
pub type Classes = BTreeMap<Form, Vec<u32>>;

impl Plain {
    pub fn from_graph(g: &Graph) -> Plain {
        let ids: Vec<VertexId> = g.vertices().collect();
        let slot = |v: VertexId| ids.iter().position(|&x| x == v).unwrap();
        Plain {
            vlabels: ids.iter().map(|&v| g.vertex_label(v).0).collect(),
            edges: g
                .edges()
                .map(|e| {
                    let (s, d, l) = g.edge(e);
                    (slot(s), slot(d), l.0)
                })
                .collect(),
        }
    }

    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new();
        let vs: Vec<VertexId> = self
            .vlabels
            .iter()
            .map(|&l| g.add_vertex(VLabel(l)))
            .collect();
        for &(s, d, l) in &self.edges {
            g.add_edge(vs[s], vs[d], ELabel(l));
        }
        g
    }

    /// The subgraph spanned by the edges at `idx`, with its vertices
    /// renumbered densely.
    pub fn edge_subset(&self, idx: &[usize]) -> Plain {
        let mut map: BTreeMap<usize, usize> = BTreeMap::new();
        let mut vlabels = Vec::new();
        let mut slot = |v: usize, vlabels: &mut Vec<u32>| {
            *map.entry(v).or_insert_with(|| {
                vlabels.push(self.vlabels[v]);
                vlabels.len() - 1
            })
        };
        let mut edges = Vec::new();
        for &i in idx {
            let (s, d, l) = self.edges[i];
            let s = slot(s, &mut vlabels);
            let d = slot(d, &mut vlabels);
            edges.push((s, d, l));
        }
        Plain { vlabels, edges }
    }

    /// The subgraph induced by the vertices within `radius` undirected
    /// hops of `center`.
    pub fn neighborhood(&self, center: usize, radius: usize) -> Plain {
        let mut dist = vec![usize::MAX; self.vlabels.len()];
        dist[center] = 0;
        let mut frontier = vec![center];
        for hop in 1..=radius {
            let mut next = Vec::new();
            for &v in &frontier {
                for &(s, d, _) in &self.edges {
                    let w = if s == v {
                        d
                    } else if d == v {
                        s
                    } else {
                        continue;
                    };
                    if dist[w] == usize::MAX {
                        dist[w] = hop;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        let inside: Vec<usize> = (0..self.edges.len())
            .filter(|&i| {
                let (s, d, _) = self.edges[i];
                dist[s] <= radius && dist[d] <= radius
            })
            .collect();
        // Members without an induced edge are isolated; they cannot host
        // any pattern edge, so dropping them changes no embedding.
        self.edge_subset(&inside)
    }

    /// Least (vertex labels, sorted edges) over every vertex permutation.
    pub fn canonical_form(&self) -> Form {
        let n = self.vlabels.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best: Option<Form> = None;
        permute(&mut perm, 0, &mut |p| {
            let mut vl = vec![0u32; n];
            for (v, &to) in p.iter().enumerate() {
                vl[to] = self.vlabels[v];
            }
            let mut es: Vec<(usize, usize, u32)> = self
                .edges
                .iter()
                .map(|&(s, d, l)| (p[s], p[d], l))
                .collect();
            es.sort_unstable();
            let form = (vl, es);
            if best.as_ref().is_none_or(|b| form < *b) {
                best = Some(form);
            }
        });
        best.expect("a pattern has at least one vertex")
    }

    /// Canonical forms of every connected edge subset with `1..=k` edges.
    pub fn connected_forms(&self, k: usize) -> BTreeSet<Form> {
        let mut forms = BTreeSet::new();
        let mut level: BTreeSet<Vec<usize>> = (0..self.edges.len()).map(|i| vec![i]).collect();
        for size in 1..=k {
            for subset in &level {
                forms.insert(self.edge_subset(subset).canonical_form());
            }
            if size == k {
                break;
            }
            // Every connected edge set of size s+1 contains a connected
            // one of size s (drop a leaf edge of a spanning tree), so
            // growing by one touching edge reaches all of them.
            let mut next = BTreeSet::new();
            for subset in &level {
                let touched: BTreeSet<usize> = subset
                    .iter()
                    .flat_map(|&i| [self.edges[i].0, self.edges[i].1])
                    .collect();
                for (j, &(s, d, _)) in self.edges.iter().enumerate() {
                    if subset.contains(&j) || !(touched.contains(&s) || touched.contains(&d)) {
                        continue;
                    }
                    let mut grown = subset.clone();
                    grown.push(j);
                    grown.sort_unstable();
                    next.insert(grown);
                }
            }
            level = next;
        }
        forms
    }

    /// Whether some injective, label-preserving vertex map sends every
    /// edge of `self` onto an edge of `host`. Tries every map (pruned
    /// only by labels and edges already decided).
    pub fn maps_into(&self, host: &Plain) -> bool {
        let host_edges: HashSet<(usize, usize, u32)> = host.edges.iter().copied().collect();
        let mut image = vec![usize::MAX; self.vlabels.len()];
        let mut used = vec![false; host.vlabels.len()];
        self.extend_map(0, host, &host_edges, &mut image, &mut used)
    }

    fn extend_map(
        &self,
        v: usize,
        host: &Plain,
        host_edges: &HashSet<(usize, usize, u32)>,
        image: &mut [usize],
        used: &mut [bool],
    ) -> bool {
        if v == self.vlabels.len() {
            return true;
        }
        for x in 0..host.vlabels.len() {
            if used[x] || host.vlabels[x] != self.vlabels[v] {
                continue;
            }
            image[v] = x;
            // Edges whose endpoints are both mapped now must exist.
            let ok = self.edges.iter().all(|&(s, d, l)| {
                let decided = (s == v || d == v) && s <= v && d <= v;
                !decided || host_edges.contains(&(image[s], image[d], l))
            });
            if ok {
                used[x] = true;
                if self.extend_map(v + 1, host, host_edges, image, used) {
                    return true;
                }
                used[x] = false;
            }
        }
        image[v] = usize::MAX;
        false
    }
}

/// Calls `f` with every permutation of `p[i..]` (prefix fixed).
fn permute(p: &mut Vec<usize>, i: usize, f: &mut dyn FnMut(&[usize])) {
    if i == p.len() {
        f(p);
        return;
    }
    for j in i..p.len() {
        p.swap(i, j);
        permute(p, i + 1, f);
        p.swap(i, j);
    }
}

pub fn form_graph(form: &Form) -> Plain {
    Plain {
        vlabels: form.0.clone(),
        edges: form.1.clone(),
    }
}

/// Frequent patterns of `hosts` by the reference: every connected class
/// of at most `k` edges found in at least `min_support` hosts, with the
/// ascending list of hosts it maps into. Enumeration and mapping are two
/// independent witnesses of occurrence; they must agree host by host.
fn reference(hosts: &[Plain], k: usize, min_support: usize) -> Classes {
    let per_host: Vec<BTreeSet<Form>> = hosts.iter().map(|h| h.connected_forms(k)).collect();
    let classes: BTreeSet<&Form> = per_host.iter().flatten().collect();
    let mut out = Classes::new();
    for form in classes {
        let pattern = form_graph(form);
        let mut ids = Vec::new();
        for (i, host) in hosts.iter().enumerate() {
            let mapped = pattern.maps_into(host);
            assert_eq!(
                mapped,
                per_host[i].contains(form),
                "oracle self-check: mapping and enumeration disagree on {form:?} in host {i}"
            );
            if mapped {
                ids.push(i as u32);
            }
        }
        if ids.len() >= min_support {
            out.insert(form.clone(), ids);
        }
    }
    out
}

/// Transaction support over `txns` (Algorithm 1's FSG definition).
fn txn_reference(txns: &[Graph], k: usize, min_support: usize) -> Classes {
    let hosts: Vec<Plain> = txns.iter().map(Plain::from_graph).collect();
    reference(&hosts, k, min_support)
}

/// Distinct-center support over the induced `radius`-hop neighborhoods
/// of every vertex of `g`.
fn center_reference(g: &Graph, radius: usize, k: usize, min_support: usize) -> Classes {
    let whole = Plain::from_graph(g);
    let hosts: Vec<Plain> = (0..whole.vlabels.len())
        .map(|c| whole.neighborhood(c, radius))
        .collect();
    reference(&hosts, k, min_support)
}

/// Re-keys a miner's output by the reference's canonical form, checking
/// that no class is reported twice and that support equals the list
/// length.
fn by_form<'a>(patterns: impl Iterator<Item = (&'a Graph, usize, &'a [u32])>) -> Classes {
    let mut out = Classes::new();
    for (graph, support, ids) in patterns {
        assert_eq!(
            support,
            ids.len(),
            "support must equal the TID/center count"
        );
        let form = Plain::from_graph(graph).canonical_form();
        assert!(
            out.insert(form.clone(), ids.to_vec()).is_none(),
            "class {form:?} reported twice"
        );
    }
    out
}

/// Asserts the miner found exactly the reference's classes and lists,
/// naming the first difference.
fn assert_same(label: &str, mined: &Classes, expected: &Classes) {
    for (form, ids) in expected {
        assert_eq!(
            mined.get(form),
            Some(ids),
            "{label}: class {form:?} should be supported by {ids:?}"
        );
    }
    for form in mined.keys() {
        assert!(
            expected.contains_key(form),
            "{label}: mined class {form:?} is not frequent in the reference"
        );
    }
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// A seeded random simple graph: `n` vertices over `vlabels` labels, up
/// to `m` distinct labeled edges over `elabels` labels, self-loops
/// allowed.
fn random_plain(rng: &mut StdRng, n: usize, m: usize, vlabels: u32, elabels: u32) -> Plain {
    let mut p = Plain {
        vlabels: (0..n).map(|_| rng.gen_range(0..vlabels)).collect(),
        edges: Vec::new(),
    };
    for _ in 0..m {
        let e = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..elabels),
        );
        if !p.edges.contains(&e) {
            p.edges.push(e);
        }
    }
    p
}

/// A transaction set sharing a planted motif, so patterns of several
/// edges are frequent: each transaction is the motif plus random noise
/// edges over a few extra vertices (at most 12 edges in all).
pub fn txn_fixture(seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let motif = random_plain(&mut rng, 4, 4, 2, 2);
    let count = rng.gen_range(4usize..8);
    (0..count)
        .map(|_| {
            let mut t = motif.clone();
            let extra = rng.gen_range(0usize..3);
            let n = t.vlabels.len() + extra;
            while t.vlabels.len() < n {
                t.vlabels.push(rng.gen_range(0u32..2));
            }
            let noise = rng.gen_range(3usize..9);
            for _ in 0..noise {
                let e = (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0u32..3),
                );
                if !t.edges.contains(&e) && t.edges.len() < 12 {
                    t.edges.push(e);
                }
            }
            t.to_graph()
        })
        .collect()
}

/// One seeded graph of at most 12 edges for the neighborhood miner.
pub fn graph_fixture(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(6usize..10);
    random_plain(&mut rng, n, 12, 2, 2).to_graph()
}

/// Hub transactions whose fan patterns overflow the 256-entry embedding
/// cap: a label-0 hub with `spokes` label-7 out-edges to label-1 leaves
/// has `spokes · (spokes − 1)` ordered embeddings of the two-edge fan.
/// The last `t + 2` leaves of transaction `t` get a label-8 pendant edge
/// to a label-2 vertex, so fan-plus-pendant classes have support below
/// the transaction count.
pub fn hub_fixture(txns: usize, spokes: usize) -> Vec<Graph> {
    (0..txns)
        .map(|t| {
            let mut p = Plain {
                vlabels: vec![0],
                edges: Vec::new(),
            };
            for i in 1..=spokes {
                p.vlabels.push(1);
                let leaf = p.vlabels.len() - 1;
                p.edges.push((0, leaf, 7));
                if i + t + 2 > spokes {
                    p.vlabels.push(2);
                    p.edges.push((leaf, p.vlabels.len() - 1, 8));
                }
            }
            p.to_graph()
        })
        .collect()
}

/// The bench suite's default workload (`bench_miners`, and the
/// `perf_counters` gate): the scale-0.015 synthetic OD graph, deduped and
/// split into 10 breadth-first transactions of at most 33 edges. Its
/// hubs overflow the embedding cap, and some spilled lists miss patterns
/// that occur, so the scratch settle path runs too.
pub fn default_workload() -> Vec<Graph> {
    let p = Pipeline::synthetic(0.015, 42);
    let od = p.od_graph(EdgeLabeling::GrossWeight, VertexLabeling::Uniform);
    let mut g = od.graph;
    g.dedup_edges();
    let mut rng = StdRng::seed_from_u64(4);
    split_graph(&g, 10, Strategy::BreadthFirst, &mut rng)
}

// ---------------------------------------------------------------------
// Miner runners
// ---------------------------------------------------------------------

fn fsg_cfg(min_support: usize, k: usize) -> FsgConfig {
    FsgConfig::default()
        .with_support(Support::Count(min_support))
        .with_max_edges(k)
}

fn gspan_cfg(min_support: usize, k: usize) -> GspanConfig {
    GspanConfig {
        min_support: Support::Count(min_support),
        max_edges: k,
        ..Default::default()
    }
}

fn nbhd_cfg(radius: usize, min_support: usize, k: usize) -> NbhdConfig {
    NbhdConfig::default()
        .with_radius(radius)
        .with_support(Support::Count(min_support))
        .with_max_edges(k)
}

/// Re-keys transaction-miner output by canonical form.
fn mined_txn_classes(patterns: &[tnet_fsg::FrequentPattern]) -> Classes {
    by_form(patterns.iter().map(|p| (&p.graph, p.support, &p.tids[..])))
}

/// A transaction set with its reference answer, computed once and
/// checked against each transaction miner.
pub struct TxnCase {
    pub txns: Vec<Graph>,
    min_support: usize,
    k: usize,
    expected: Classes,
}

impl TxnCase {
    pub fn new(txns: Vec<Graph>, min_support: usize, k: usize) -> TxnCase {
        let expected = txn_reference(&txns, k, min_support);
        TxnCase {
            txns,
            min_support,
            k,
            expected,
        }
    }

    /// Number of frequent classes in the reference answer.
    pub fn class_count(&self) -> usize {
        self.expected.len()
    }

    /// FSG `mine` (frozen `TxnSet` path) against the reference.
    pub fn check_fsg(&self, label: &str) -> tnet_fsg::MiningStats {
        let out = mine(&self.txns, &fsg_cfg(self.min_support, self.k)).unwrap();
        assert_same(label, &mined_txn_classes(&out.patterns), &self.expected);
        out.stats
    }

    /// gSpan `mine_dfs` against the reference.
    pub fn check_gspan(&self, label: &str) -> tnet_gspan::GspanStats {
        let out = mine_dfs(&self.txns, &gspan_cfg(self.min_support, self.k)).unwrap();
        assert_same(label, &mined_txn_classes(&out.patterns), &self.expected);
        out.stats
    }
}

/// Mines every window `[lo, hi)` of one frozen set through
/// `mine_source(&set.slice(lo, hi), …)`, as `run_windows` does; TIDs are
/// window-local.
pub fn check_windows(label: &str, txns: &[Graph], width: usize, min_support: usize, k: usize) {
    let set = TxnSet::freeze(txns);
    let exec = Exec::sequential();
    for lo in 0..txns.len().saturating_sub(width - 1) {
        let hi = lo + width;
        let out = mine_source(&set.slice(lo, hi), &fsg_cfg(min_support, k), &exec).unwrap();
        let expected = txn_reference(&txns[lo..hi], k, min_support);
        assert_same(
            &format!("{label} window [{lo}, {hi})"),
            &mined_txn_classes(&out.patterns),
            &expected,
        );
    }
}

pub fn check_nbhd(
    label: &str,
    g: &Graph,
    radius: usize,
    min_support: usize,
    k: usize,
) -> tnet_fsg::NbhdStats {
    let out =
        mine_neighborhoods(g, &nbhd_cfg(radius, min_support, k), &Exec::sequential()).unwrap();
    // Fixture graphs are built fresh, so frozen center ids are the
    // builder's vertex indices.
    let mined = by_form(
        out.patterns
            .iter()
            .map(|p| (&p.graph, p.support, &p.centers[..])),
    );
    assert_same(label, &mined, &center_reference(g, radius, k, min_support));
    out.stats
}
