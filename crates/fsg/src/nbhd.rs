//! Frequent-neighborhood-pattern mining over one large frozen graph.
//!
//! The paper's Algorithm 1/2 partitions the OD graph only because FSG
//! needs a transaction set; this module follows Han & Wen's "Mining
//! Frequent Neighborhood Patterns in Large Labeled Graphs" instead and
//! mines the single graph in place. The "transactions" are the r-hop
//! neighborhoods of every vertex: the **support of a pattern is the
//! number of distinct center vertices whose induced r-hop neighborhood
//! embeds it**. Support is anti-monotone under one-edge extension (a
//! neighborhood embedding a child embeds the parent), so the level-wise
//! growth, embedding propagation, and pre-filters of the FSG path all
//! transfer.
//!
//! What is *not* shared with [`crate::miner`]:
//!
//! * no partitioning and no per-transaction graph materialization — the
//!   only replicated state is the [`NbhdIndex`]: per-center sorted id
//!   lists over one shared [`FrozenGraph`] CSR. A [`NbhdView`] adapts a
//!   `(members, edges)` pair to [`GraphView`] by filtering the frozen
//!   label-sorted adjacency through a membership binary search, so
//!   pattern growth binary-searches the shared CSR instead of walking
//!   per-copy adjacency lists;
//! * candidate generation is **rightmost-first** one-edge extension
//!   ([`extend_rightmost`]): extensions are proposed from the
//!   highest-numbered (most recently appended) pattern vertex down,
//!   against the frequent single-edge vocabulary, and deduplicated by
//!   isomorphism class. Each surviving class keeps the first (parent,
//!   [`Extension`]) that produced it, which is what lets support
//!   counting grow the parent's per-center embedding store instead of
//!   searching from scratch.
//!
//! What *is* reused, per the shared support-counting machinery:
//! [`may_embed`] fingerprint rejection before every scratch VF2 decider
//! ([`Matcher`]), and the structure-of-arrays [`EmbStore`] per-center
//! embedding cache grown via [`grow_store`] — identical semantics to the
//! transaction path, with "center" in place of "TID".
//!
//! Determinism: centers are enumerated in ascending frozen-id order,
//! level-1 keys are sorted, candidate evaluation fans out over
//! [`Exec::try_par_map`] (ordered), and all folding walks candidates in
//! generation order — output is byte-identical at any thread count.

use crate::embed::{grow_store, seed_cap, txn_cap, EmbStore, Grown, EMBEDDING_CAP};
use crate::types::Support;
use tnet_exec::Exec;
use tnet_graph::canon::IsoClassMap;
use tnet_graph::fingerprint::{graph_fingerprints, may_embed};
use tnet_graph::frozen::FrozenGraph;
use tnet_graph::graph::{ELabel, EdgeId, Graph, VLabel, VertexId};
use tnet_graph::hash::{FxHashMap, FxHashSet};
use tnet_graph::iso::{Extension, Find, Matcher};
use tnet_graph::view::GraphView;

/// Neighborhood-miner configuration.
#[derive(Clone, Debug)]
pub struct NbhdConfig {
    /// Neighborhood radius in (undirected) hops from the center; must be
    /// at least 1. Radius 1 is the interesting transportation regime —
    /// "what surrounds a terminal" — and keeps the index near the size
    /// of the edge set; larger radii trade index size for context.
    pub radius: usize,
    /// Minimum support, resolved against the number of centers (= vertex
    /// count of the mined graph).
    pub min_support: Support,
    /// Stop after patterns of this many edges.
    pub max_edges: usize,
}

impl Default for NbhdConfig {
    fn default() -> Self {
        NbhdConfig {
            radius: 1,
            min_support: Support::Fraction(0.05),
            max_edges: 10,
        }
    }
}

impl NbhdConfig {
    /// Sets the neighborhood radius.
    pub fn with_radius(mut self, r: usize) -> Self {
        self.radius = r;
        self
    }

    /// Sets the minimum support (in centers).
    pub fn with_support(mut self, s: Support) -> Self {
        self.min_support = s;
        self
    }

    /// Sets the maximum pattern size in edges.
    pub fn with_max_edges(mut self, n: usize) -> Self {
        self.max_edges = n;
        self
    }
}

/// A mined frequent neighborhood pattern.
#[derive(Clone, Debug)]
pub struct NbhdPattern {
    /// Representative graph of the isomorphism class.
    pub graph: Graph,
    /// Number of supporting centers.
    pub support: usize,
    /// Frozen-graph ids of the supporting centers (ascending).
    pub centers: Vec<u32>,
}

impl NbhdPattern {
    pub fn edges(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Per-run instrumentation, folded into the unified metrics namespace
/// under `nbhd.*` (see [`NbhdStats::record_into`]).
#[derive(Clone, Debug, Default)]
pub struct NbhdStats {
    /// Neighborhoods enumerated (= vertex count of the mined graph).
    pub centers: usize,
    /// Total member slots across all neighborhoods — the index's
    /// replication factor is `index_members / centers`.
    pub index_members: usize,
    /// Total edge slots across all neighborhoods.
    pub index_edges: usize,
    /// Candidates generated at each level (level 1 = single edges).
    pub candidates_per_level: Vec<usize>,
    /// Frequent patterns surviving at each level.
    pub frequent_per_level: Vec<usize>,
    /// Scratch VF2 deciders skipped because [`may_embed`] said no.
    pub fingerprint_rejects: usize,
    /// Scratch VF2 deciders executed.
    pub iso_tests: usize,
    /// Parent embeddings extended by one edge in place of scratch VF2.
    pub embeddings_extended: usize,
    /// (pattern, center) embedding lists that spilled to inexact seeds.
    pub embeddings_spilled: usize,
    /// Peak bytes held by one level's SoA embedding stores.
    pub soa_bytes: usize,
}

impl NbhdStats {
    pub fn total_candidates(&self) -> usize {
        self.candidates_per_level.iter().sum()
    }

    pub fn total_frequent(&self) -> usize {
        self.frequent_per_level.iter().sum()
    }

    /// Folds this run's counters into a [`tnet_obs::MetricsRegistry`]
    /// under `nbhd.*` names. Totals add; peaks keep their high-water
    /// mark.
    pub fn record_into(&self, metrics: &tnet_obs::MetricsRegistry) {
        metrics.add("nbhd.centers", self.centers as u64);
        metrics.add("nbhd.index_members", self.index_members as u64);
        metrics.add("nbhd.index_edges", self.index_edges as u64);
        metrics.add("nbhd.levels", self.candidates_per_level.len() as u64);
        metrics.add("nbhd.candidates", self.total_candidates() as u64);
        metrics.add("nbhd.frequent", self.total_frequent() as u64);
        metrics.add("nbhd.fingerprint_rejects", self.fingerprint_rejects as u64);
        metrics.add("nbhd.iso_tests", self.iso_tests as u64);
        metrics.add("nbhd.embeddings_extended", self.embeddings_extended as u64);
        metrics.add("nbhd.embeddings_spilled", self.embeddings_spilled as u64);
        metrics.record_max("nbhd.soa_bytes", self.soa_bytes as u64);
    }
}

/// Successful mining output.
#[derive(Clone, Debug)]
pub struct NbhdOutput {
    /// All frequent connected patterns, largest-support first.
    pub patterns: Vec<NbhdPattern>,
    pub stats: NbhdStats,
}

/// Mining failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NbhdError {
    /// `radius` was 0 — a zero-hop neighborhood is just the center
    /// vertex and can never embed an edge pattern.
    InvalidRadius,
    /// The execution handle was cancelled mid-run.
    Cancelled,
}

impl std::fmt::Display for NbhdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NbhdError::InvalidRadius => write!(f, "neighborhood radius must be at least 1"),
            NbhdError::Cancelled => write!(f, "neighborhood mining run was cancelled"),
        }
    }
}

impl std::error::Error for NbhdError {}

/// Per-center neighborhood index over one shared [`FrozenGraph`]: two
/// flat id buffers with offsets (structure of arrays). Members and edge
/// ids per center are sorted ascending, which is what lets [`NbhdView`]
/// answer membership with a binary search and keep the [`GraphView`]
/// ascending-order contract for free.
pub struct NbhdIndex {
    member_off: Vec<u32>,
    members: Vec<VertexId>,
    edge_off: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl NbhdIndex {
    /// Builds the induced r-hop neighborhood of every vertex: BFS over
    /// undirected hops collects the member set, then every frozen edge
    /// with both endpoints inside is an edge of the neighborhood (the
    /// *induced* definition — what makes delegating edge-existence
    /// queries to the shared CSR sound). Centers fan out over `exec` and
    /// are concatenated in ascending-center order.
    pub fn build(fg: &FrozenGraph, radius: usize, exec: &Exec) -> NbhdIndex {
        let centers: Vec<u32> = (0..GraphView::vertex_count(fg) as u32).collect();
        let per_center: Vec<(Vec<VertexId>, Vec<EdgeId>)> =
            exec.par_map(&centers, |&c| build_one(fg, VertexId(c), radius));
        let mut index = NbhdIndex {
            member_off: Vec::with_capacity(centers.len() + 1),
            members: Vec::new(),
            edge_off: Vec::with_capacity(centers.len() + 1),
            edges: Vec::new(),
        };
        index.member_off.push(0);
        index.edge_off.push(0);
        for (members, edges) in per_center {
            index.members.extend_from_slice(&members);
            index.edges.extend_from_slice(&edges);
            index.member_off.push(index.members.len() as u32);
            index.edge_off.push(index.edges.len() as u32);
        }
        index
    }

    /// Number of centers (= vertices of the frozen graph).
    pub fn centers(&self) -> usize {
        self.member_off.len() - 1
    }

    /// Total member slots across all neighborhoods.
    pub fn member_slots(&self) -> usize {
        self.members.len()
    }

    /// Total edge slots across all neighborhoods.
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Read view of center `c`'s neighborhood.
    pub fn view<'a>(&'a self, fg: &'a FrozenGraph, c: usize) -> NbhdView<'a> {
        NbhdView {
            fg,
            members: &self.members[self.member_off[c] as usize..self.member_off[c + 1] as usize],
            edges: &self.edges[self.edge_off[c] as usize..self.edge_off[c + 1] as usize],
        }
    }
}

/// One center's induced r-hop neighborhood: sorted members, and every
/// frozen edge with both endpoints among them (ascending).
fn build_one(fg: &FrozenGraph, center: VertexId, radius: usize) -> (Vec<VertexId>, Vec<EdgeId>) {
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    seen.insert(center);
    let mut members = vec![center];
    let mut frontier = vec![center];
    for _ in 0..radius {
        let mut next = Vec::new();
        for &v in &frontier {
            for e in fg.incident_edges(v) {
                let (s, d, _) = GraphView::edge(fg, e);
                let w = if s == v { d } else { s };
                if seen.insert(w) {
                    members.push(w);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    members.sort_unstable();
    let mut edges = Vec::new();
    for &v in &members {
        for e in fg.out_edges(v) {
            if members.binary_search(&GraphView::edge_dst(fg, e)).is_ok() {
                edges.push(e);
            }
        }
    }
    edges.sort_unstable();
    (members, edges)
}

/// [`GraphView`] over one neighborhood: frozen ids, adjacency delegated
/// to the shared CSR and filtered by a membership binary search. Because
/// the neighborhood is *induced*, any frozen edge between two members
/// belongs to it — `has_edge_labeled` (the VF2 back-edge check) can
/// delegate to the CSR's binary search unfiltered.
#[derive(Clone, Copy)]
pub struct NbhdView<'a> {
    fg: &'a FrozenGraph,
    members: &'a [VertexId],
    edges: &'a [EdgeId],
}

impl NbhdView<'_> {
    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        self.members.binary_search(&v).is_ok()
    }
}

impl GraphView for NbhdView<'_> {
    fn vertex_count(&self) -> usize {
        self.members.len()
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.members.iter().copied()
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().copied()
    }

    fn vertex_label(&self, v: VertexId) -> VLabel {
        GraphView::vertex_label(self.fg, v)
    }

    fn edge(&self, e: EdgeId) -> (VertexId, VertexId, ELabel) {
        GraphView::edge(self.fg, e)
    }

    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.fg
            .out_edges(v)
            .filter(|&e| self.contains(GraphView::edge_dst(self.fg, e)))
    }

    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.fg
            .in_edges(v)
            .filter(|&e| self.contains(GraphView::edge_src(self.fg, e)))
    }

    fn visit_out_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        // The frozen override binary-searches its label-sorted slice;
        // only the membership filter is added on top.
        self.fg.visit_out_matching(v, el, vl, &mut |e, d| {
            if self.contains(d) {
                f(e, d);
            }
        });
    }

    fn visit_in_matching(
        &self,
        v: VertexId,
        el: ELabel,
        vl: VLabel,
        f: &mut dyn FnMut(EdgeId, VertexId),
    ) {
        self.fg.visit_in_matching(v, el, vl, &mut |e, s| {
            if self.contains(s) {
                f(e, s);
            }
        });
    }

    fn has_edge_labeled(&self, s: VertexId, d: VertexId, el: ELabel) -> bool {
        // Induced neighborhood: an edge between members is always in.
        // Callers only pass member vertices (VF2 images).
        debug_assert!(self.contains(s) && self.contains(d));
        self.fg.has_edge_labeled(s, d, el)
    }

    fn vertex_fp(&self, v: VertexId) -> u64 {
        // Full-graph fingerprint (frozen array load): a neighborhood
        // vertex's true fingerprint is a bitwise subset of its full-graph
        // one, so subsumption against the superset can only weaken the
        // pre-VF2 filter, never unsoundly reject.
        self.fg.vertex_fp(v)
    }
}

/// A frequent single-edge vocabulary entry (`is_loop` marks self-loop
/// classes, whose `src == dst`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct VocabEntry {
    src: VLabel,
    label: ELabel,
    dst: VLabel,
    is_loop: bool,
}

/// Generates all one-edge extensions of `pattern` against the frequent
/// single-edge vocabulary, proposing from the **rightmost** (highest
/// slot, most recently appended) pattern vertex first, and deduplicates
/// by isomorphism class. Each class keeps the first `(parent, growth
/// step)` that produced it, so the kept representative graph is exactly
/// that parent's clone plus one appended edge — the invariant the
/// embedding-store growth relies on.
fn extend_rightmost(
    pattern: &Graph,
    vocab: &[VocabEntry],
    parent: usize,
    acc: &mut IsoClassMap<(usize, Extension)>,
) {
    let vertices: Vec<VertexId> = pattern.vertices().collect();
    let exists = |s: VertexId, d: VertexId, l: ELabel| {
        pattern.out_edges(s).any(|e| {
            let (_, dd, ll) = pattern.edge(e);
            dd == d && ll == l
        })
    };
    for &v in vertices.iter().rev() {
        let vl = pattern.vertex_label(v);
        for ev in vocab {
            if ev.is_loop {
                // Self-loop on an existing vertex.
                if ev.src == vl && !exists(v, v, ev.label) {
                    let mut g = pattern.clone();
                    g.add_edge(v, v, ev.label);
                    acc.entry_or_insert_with(&g, || {
                        (
                            parent,
                            Extension::Close {
                                src: v,
                                dst: v,
                                elabel: ev.label,
                            },
                        )
                    });
                }
                continue;
            }
            if ev.src == vl {
                // v --(label)--> new vertex.
                let mut g = pattern.clone();
                let nv = g.add_vertex(ev.dst);
                g.add_edge(v, nv, ev.label);
                acc.entry_or_insert_with(&g, || {
                    (
                        parent,
                        Extension::NewDst {
                            src: v,
                            elabel: ev.label,
                            vlabel: ev.dst,
                        },
                    )
                });
                // v --(label)--> existing vertex (cycle-closing), also
                // rightmost-first. Patterns are simple graphs, so an
                // already-present (src, dst, label) triple is skipped.
                for &u in vertices.iter().rev() {
                    if u == v || pattern.vertex_label(u) != ev.dst || exists(v, u, ev.label) {
                        continue;
                    }
                    let mut g = pattern.clone();
                    g.add_edge(v, u, ev.label);
                    acc.entry_or_insert_with(&g, || {
                        (
                            parent,
                            Extension::Close {
                                src: v,
                                dst: u,
                                elabel: ev.label,
                            },
                        )
                    });
                }
            }
            // new vertex --(label)--> v (mirror).
            if ev.dst == vl {
                let mut g = pattern.clone();
                let nv = g.add_vertex(ev.src);
                g.add_edge(nv, v, ev.label);
                acc.entry_or_insert_with(&g, || {
                    (
                        parent,
                        Extension::NewSrc {
                            dst: v,
                            elabel: ev.label,
                            vlabel: ev.src,
                        },
                    )
                });
            }
        }
    }
}

/// Per-candidate counter deltas and verdict from the parallel stage.
/// Folding in candidate order keeps output byte-identical to sequential.
struct Verdict {
    centers: Vec<u32>,
    stores: Vec<EmbStore>,
    fingerprint_rejects: usize,
    iso_tests: usize,
    embeddings_extended: usize,
    embeddings_spilled: usize,
}

/// Mines frequent neighborhood patterns of `g`: freezes a CSR snapshot
/// and delegates to [`mine_frozen`].
///
/// `g` must be a simple graph (no parallel `(src, dst, label)` triples) —
/// run [`Graph::dedup_edges`] first, exactly as for the FSG path.
pub fn mine_neighborhoods(
    g: &Graph,
    cfg: &NbhdConfig,
    exec: &Exec,
) -> Result<NbhdOutput, NbhdError> {
    mine_frozen(&g.freeze(), cfg, exec)
}

/// Mines all frequent connected neighborhood patterns of `fg` directly
/// on the frozen CSR — no partitioning, no per-transaction graphs.
///
/// # Errors
/// - [`NbhdError::InvalidRadius`] when `cfg.radius == 0`.
/// - [`NbhdError::Cancelled`] when `exec` is cancelled mid-run.
pub fn mine_frozen(
    fg: &FrozenGraph,
    cfg: &NbhdConfig,
    exec: &Exec,
) -> Result<NbhdOutput, NbhdError> {
    if cfg.radius == 0 {
        return Err(NbhdError::InvalidRadius);
    }
    if exec.is_cancelled() {
        return Err(NbhdError::Cancelled);
    }
    // One candidate per chunk, as in the FSG path: per-candidate cost is
    // wildly uneven, the finest grain balances best.
    let exec = &exec.with_chunk_items(1);
    let span_total = exec.span().time("nbhd");
    let span = span_total.span().clone();
    let mut stats = NbhdStats::default();
    let n = GraphView::vertex_count(fg);
    stats.centers = n;
    let min_support = cfg.min_support.resolve(n);

    // ---- Neighborhood index -------------------------------------------
    let index_timer = span.time("neighborhoods");
    let index = NbhdIndex::build(fg, cfg.radius, exec);
    stats.index_members = index.member_slots();
    stats.index_edges = index.edge_slots();
    drop(index_timer);

    // ---- Level 1: single-edge patterns --------------------------------
    // Keyed by (src label, edge label, dst label, is_loop); sorted for a
    // hash-order-independent enumeration.
    type EdgeKey = (u32, u32, u32, bool);
    let level1_timer = span.time("level1");
    let mut level1: FxHashMap<EdgeKey, Vec<u32>> = FxHashMap::default();
    let mut seen: FxHashSet<EdgeKey> = FxHashSet::default();
    for c in 0..n {
        let view = index.view(fg, c);
        seen.clear();
        for e in GraphView::edges(&view) {
            let (s, d, l) = GraphView::edge(fg, e);
            let key = (
                GraphView::vertex_label(fg, s).0,
                l.0,
                GraphView::vertex_label(fg, d).0,
                s == d,
            );
            if seen.insert(key) {
                level1.entry(key).or_default().push(c as u32);
            }
        }
    }
    let mut entries: Vec<(EdgeKey, Vec<u32>)> = level1.into_iter().collect();
    entries.sort_unstable_by_key(|(k, _)| *k);
    stats.candidates_per_level.push(entries.len());
    let mut frequent: Vec<NbhdPattern> = Vec::new();
    let mut vocab: Vec<VocabEntry> = Vec::new();
    for ((sl, el, dl, is_loop), centers) in entries {
        if centers.len() < min_support {
            continue;
        }
        let mut g = Graph::new();
        let s = g.add_vertex(VLabel(sl));
        if is_loop {
            g.add_edge(s, s, ELabel(el));
        } else {
            let d = g.add_vertex(VLabel(dl));
            g.add_edge(s, d, ELabel(el));
        }
        vocab.push(VocabEntry {
            src: VLabel(sl),
            label: ELabel(el),
            dst: VLabel(dl),
            is_loop,
        });
        frequent.push(NbhdPattern {
            graph: g,
            support: centers.len(),
            centers,
        });
    }
    stats.frequent_per_level.push(frequent.len());

    // Embedding stores for the frontier level, `stores[i][k]` covering
    // `frequent[i].centers[k]`.
    let mut stores: Vec<Vec<EmbStore>> = if cfg.max_edges > 1 {
        frequent
            .iter()
            .map(|p| level1_stores(p, fg, &index, &mut stats.embeddings_spilled))
            .collect()
    } else {
        Vec::new()
    };
    stats.soa_bytes = stores.iter().flatten().map(|s| s.byte_len()).sum();
    drop(level1_timer);
    // Pre-register the per-level phases for scheduling-independent
    // `--trace` order.
    span.child("extend");
    span.child("support_count");

    // ---- Levels 2..max ------------------------------------------------
    let mut all_frequent: Vec<NbhdPattern> = Vec::new();
    let mut level = 1usize;
    while !frequent.is_empty() && level < cfg.max_edges {
        level += 1;
        if exec.is_cancelled() {
            return Err(NbhdError::Cancelled);
        }
        let gen_timer = span.time("extend");
        let mut candidates: IsoClassMap<(usize, Extension)> = IsoClassMap::new();
        for (idx, p) in frequent.iter().enumerate() {
            extend_rightmost(&p.graph, &vocab, idx, &mut candidates);
        }
        let cand_list: Vec<(Graph, (usize, Extension))> = candidates.into_iter_pairs().collect();
        stats.candidates_per_level.push(cand_list.len());
        drop(gen_timer);

        let support_timer = span.time("support_count");
        let last_level = level == cfg.max_edges;
        let verdicts = exec
            .try_par_map(&cand_list, |(candidate, (pidx, ext))| {
                let parent = &frequent[*pidx];
                let pstores = &stores[*pidx];
                let mut v = Verdict {
                    centers: Vec::new(),
                    stores: Vec::new(),
                    fingerprint_rejects: 0,
                    iso_tests: 0,
                    embeddings_extended: 0,
                    embeddings_spilled: 0,
                };
                // Scratch decider built lazily: most candidates are
                // settled by embedding extension and never need it.
                let mut scratch: Option<(Matcher, Vec<u64>)> = None;
                // Fingerprint pre-filter + scratch VF2 decider for one
                // center, harvesting seeds mid-run so descendants extend
                // instead of re-searching.
                let settle_scratch = |v: &mut Verdict,
                                      scratch: &mut Option<(Matcher, Vec<u64>)>,
                                      view: NbhdView<'_>,
                                      c: u32| {
                    let (matcher, fps) = scratch.get_or_insert_with(|| {
                        (Matcher::new(candidate), graph_fingerprints(candidate))
                    });
                    if !may_embed(fps, &view) {
                        v.fingerprint_rejects += 1;
                        return;
                    }
                    v.iso_tests += 1;
                    if last_level {
                        // No descendant will consume a store: existence
                        // alone settles support.
                        if matcher.matches(&view) {
                            v.centers.push(c);
                        }
                        return;
                    }
                    // Harvest seeds from the settling search so
                    // descendants extend instead of re-searching.
                    let limit = seed_cap().min(txn_cap(EMBEDDING_CAP, &view));
                    let seeds = matcher.find_unpruned(&view, Find::AtMost(limit));
                    if !seeds.is_empty() {
                        v.centers.push(c);
                        let stride = candidate.vertex_count();
                        let mut flat = Vec::with_capacity(seeds.len() * stride);
                        for s in &seeds {
                            flat.extend_from_slice(s.as_row());
                        }
                        v.stores
                            .push(EmbStore::from_rows(stride, flat, seeds.len() < limit));
                    }
                };
                for (k, &c) in parent.centers.iter().enumerate() {
                    // Infeasibility early-exit: not enough centers left to
                    // reach threshold. The partial verdict is discarded by
                    // the fold below.
                    if v.centers.len() + (parent.centers.len() - k) < min_support {
                        break;
                    }
                    let view = index.view(fg, c as usize);
                    match grow_store(
                        &view,
                        &pstores[k],
                        ext,
                        EMBEDDING_CAP,
                        last_level,
                        &mut v.embeddings_extended,
                        &mut v.embeddings_spilled,
                    ) {
                        Grown::Absent => {}
                        Grown::Unverified => settle_scratch(&mut v, &mut scratch, view, c),
                        Grown::Witnessed { store } => {
                            v.centers.push(c);
                            if let Some(st) = store {
                                v.stores.push(st);
                            }
                        }
                    }
                }
                v
            })
            .map_err(|_| NbhdError::Cancelled)?;

        let mut next: Vec<NbhdPattern> = Vec::new();
        let mut next_stores: Vec<Vec<EmbStore>> = Vec::new();
        let mut level_soa_bytes = 0usize;
        for ((candidate, _), verdict) in cand_list.into_iter().zip(verdicts) {
            stats.fingerprint_rejects += verdict.fingerprint_rejects;
            stats.iso_tests += verdict.iso_tests;
            stats.embeddings_extended += verdict.embeddings_extended;
            stats.embeddings_spilled += verdict.embeddings_spilled;
            if verdict.centers.len() >= min_support {
                next.push(NbhdPattern {
                    support: verdict.centers.len(),
                    graph: candidate,
                    centers: verdict.centers,
                });
                level_soa_bytes += verdict.stores.iter().map(|s| s.byte_len()).sum::<usize>();
                next_stores.push(verdict.stores);
            }
        }
        stats.soa_bytes = stats.soa_bytes.max(level_soa_bytes);
        stats.frequent_per_level.push(next.len());
        all_frequent.extend(std::mem::replace(&mut frequent, next));
        stores = next_stores;
        drop(support_timer);
    }
    all_frequent.extend(frequent);
    all_frequent.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then(b.graph.edge_count().cmp(&a.graph.edge_count()))
    });
    stats.record_into(exec.metrics());
    Ok(NbhdOutput {
        patterns: all_frequent,
        stats,
    })
}

/// Enumerates all embeddings of a frequent single-edge pattern in each
/// supporting center's neighborhood — the neighborhood analogue of
/// [`crate::embed::level1_store`], aligned with `p.centers`.
fn level1_stores(
    p: &NbhdPattern,
    fg: &FrozenGraph,
    index: &NbhdIndex,
    spilled: &mut usize,
) -> Vec<EmbStore> {
    let e = p.graph.edges().next().expect("level-1 pattern has an edge");
    let (ps, pd, el) = p.graph.edge(e);
    let is_loop = ps == pd;
    let sl = p.graph.vertex_label(ps);
    let dl = p.graph.vertex_label(pd);
    let stride = if is_loop { 1 } else { 2 };
    p.centers
        .iter()
        .map(|&c| {
            let view = index.view(fg, c as usize);
            let cap = txn_cap(EMBEDDING_CAP, &view);
            let mut store = EmbStore::new(stride, true);
            for te in GraphView::edges(&view) {
                let (ts, td, tl) = GraphView::edge(fg, te);
                if tl != el {
                    continue;
                }
                if is_loop {
                    if ts != td || GraphView::vertex_label(fg, ts) != sl {
                        continue;
                    }
                    store.push_row(&[ts]);
                } else {
                    if ts == td
                        || GraphView::vertex_label(fg, ts) != sl
                        || GraphView::vertex_label(fg, td) != dl
                    {
                        continue;
                    }
                    store.push_row(&[ts, td]);
                }
                // The mined graph is simple (dedup'd), and induced
                // neighborhoods of a simple graph stay simple — each edge
                // is a distinct vertex mapping.
                if store.len() > cap {
                    break;
                }
            }
            if store.len() > cap {
                *spilled += 1;
                store.exact = false;
                let keep = seed_cap().min(cap);
                let flat: Vec<VertexId> = store
                    .rows()
                    .take(keep)
                    .flat_map(|r| r.iter().copied())
                    .collect();
                store = EmbStore::from_rows(stride, flat, false);
            }
            store
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnet_graph::generate::shapes;
    use tnet_graph::iso::are_isomorphic;

    fn cfg(count: usize) -> NbhdConfig {
        NbhdConfig::default()
            .with_support(Support::Count(count))
            .with_max_edges(4)
    }

    fn mine(g: &Graph, cfg: &NbhdConfig) -> NbhdOutput {
        mine_neighborhoods(g, cfg, &Exec::sequential()).unwrap()
    }

    #[test]
    fn radius_zero_rejected() {
        let g = shapes::chain(2, 0, 1);
        let err = mine_neighborhoods(&g, &cfg(1).with_radius(0), &Exec::sequential());
        assert_eq!(err.unwrap_err(), NbhdError::InvalidRadius);
    }

    #[test]
    fn index_is_induced_and_sorted() {
        // chain a -> b -> c: radius 1 of b covers everything; of a only
        // {a, b} and the one edge between them.
        let g = shapes::chain(2, 0, 1);
        let fg = g.freeze();
        let index = NbhdIndex::build(&fg, 1, &Exec::sequential());
        assert_eq!(index.centers(), 3);
        let va = index.view(&fg, 0);
        assert_eq!(GraphView::vertex_count(&va), 2);
        assert_eq!(GraphView::edge_count(&va), 1);
        let vb = index.view(&fg, 1);
        assert_eq!(GraphView::vertex_count(&vb), 3);
        assert_eq!(GraphView::edge_count(&vb), 2);
        let members: Vec<VertexId> = GraphView::vertices(&vb).collect();
        assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted members");
    }

    #[test]
    fn chain_supports_count_centers() {
        // Path of 4 edges, radius 1: the single-edge pattern embeds in
        // every center's neighborhood (all 5 centers); the 2-chain embeds
        // wherever a 2-hop path is induced — every center whose 1-hop
        // ball contains two consecutive edges, i.e. the 4 interior-ish
        // centers (ends see only one edge).
        let g = shapes::chain(4, 0, 1);
        let out = mine(&g, &cfg(1));
        let single = shapes::chain(1, 0, 1);
        let two = shapes::chain(2, 0, 1);
        let p1 = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &single))
            .unwrap();
        assert_eq!(p1.support, 5);
        assert_eq!(p1.centers, vec![0, 1, 2, 3, 4]);
        let p2 = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &two))
            .unwrap();
        // Centers 1..4 each see both edges of some 2-chain; ends 0 and 4
        // see a single edge only... center 0's ball is {0,1} (1 edge), so
        // support is the 3 interior vertices of the 5-path.
        assert_eq!(p2.support, 3);
        assert_eq!(p2.centers, vec![1, 2, 3]);
    }

    #[test]
    fn radius_covering_graph_gives_full_support() {
        // Radius ≥ diameter: every neighborhood is the whole (connected)
        // graph, so every pattern with at least one embedding has
        // support = vertex count.
        let g = shapes::cycle(4, 0, 1);
        let out = mine(&g, &cfg(4).with_radius(4));
        assert!(!out.patterns.is_empty());
        for p in &out.patterns {
            assert_eq!(p.support, 4, "pattern {:?}", p.graph);
        }
        // The full cycle itself is found at max_edges = 4.
        assert!(out
            .patterns
            .iter()
            .any(|p| are_isomorphic(&p.graph, &shapes::cycle(4, 0, 1))));
    }

    #[test]
    fn self_loops_mined() {
        let mut g = Graph::new();
        let a = g.add_vertex(VLabel(1));
        let b = g.add_vertex(VLabel(1));
        g.add_edge(a, a, ELabel(0));
        g.add_edge(a, b, ELabel(2));
        let out = mine(&g, &cfg(1).with_radius(2));
        let mut loop_pat = Graph::new();
        let v = loop_pat.add_vertex(VLabel(1));
        loop_pat.add_edge(v, v, ELabel(0));
        let lp = out
            .patterns
            .iter()
            .find(|p| are_isomorphic(&p.graph, &loop_pat))
            .unwrap();
        assert_eq!(lp.support, 2, "both centers see the loop at radius 2");
        // Loop + edge combination pattern is also found.
        let mut combo = loop_pat.clone();
        let w = combo.add_vertex(VLabel(1));
        let v0 = combo.vertices().next().unwrap();
        combo.add_edge(v0, w, ELabel(2));
        assert!(out
            .patterns
            .iter()
            .any(|p| are_isomorphic(&p.graph, &combo)));
    }

    #[test]
    fn stats_are_recorded() {
        let g = shapes::cycle(5, 0, 1);
        let out = mine(&g, &cfg(2).with_radius(2));
        assert_eq!(out.stats.centers, 5);
        assert!(out.stats.index_members >= 5);
        assert!(out.stats.index_edges >= 5);
        assert_eq!(
            out.stats.candidates_per_level.len(),
            out.stats.frequent_per_level.len()
        );
        assert!(out.stats.total_frequent() >= out.patterns.len());
        let m = tnet_obs::MetricsRegistry::new();
        out.stats.record_into(&m);
        assert_eq!(m.get("nbhd.centers"), 5);
    }

    #[test]
    fn support_is_antitone_in_extension() {
        let g = shapes::hub_and_spoke(4, 0, 1);
        let out = mine(&g, &cfg(1).with_radius(2));
        for p in &out.patterns {
            for sub in crate::extend::connected_sub_patterns(&p.graph) {
                if let Some(q) = out.patterns.iter().find(|q| are_isomorphic(&q.graph, &sub)) {
                    assert!(q.support >= p.support);
                }
            }
        }
    }
}
