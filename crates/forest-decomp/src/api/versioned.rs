//! Epoch-pinned publication over the streaming decomposer: one writer
//! mutates a [`DynamicDecomposer`], many readers query immutable
//! [`ColoringSnapshot`]s while it works.
//!
//! This is the snapshot-isolation core the serving layer
//! (`forest-serve`) sits on. The contract has three parts:
//!
//! * **Writers publish, never expose.** A [`VersionedDecomposer`] owns the
//!   live decomposer. Updates go through
//!   [`apply`](VersionedDecomposer::apply) /
//!   [`apply_batch`](VersionedDecomposer::apply_batch) exactly as on the
//!   bare [`DynamicDecomposer`]; nothing a reader can reach changes until
//!   the writer calls [`publish`](VersionedDecomposer::publish), which
//!   freezes the live coloring into an `Arc<ColoringSnapshot>` stamped
//!   with the next epoch id and swaps it into the shared
//!   `RwLock<Arc<ColoringSnapshot>>`. The freeze is one O(k·n + m) pass
//!   over flat arrays (k colors, n vertices, m live edges): no per-vertex
//!   allocation and no sort beyond each vertex's at most k out-edges.
//! * **Readers pin an epoch.** A [`SnapshotReader`] (cheap to clone,
//!   `Send + Sync`) answers [`current`](SnapshotReader::current) by
//!   cloning the latest published `Arc` under the read lock, which the
//!   writer takes only to swap one pointer, never while it applies
//!   updates or freezes. The clone pins that epoch for as long as the
//!   reader holds it: every query it answers is consistent with exactly
//!   that publication, however far the writer has moved on.
//! * **Snapshots answer everything the wire protocol asks.** Per-edge
//!   colors ([`color_of_edge`](ColoringSnapshot::color_of_edge)),
//!   per-color forest roots, each tree's minimum vertex, found at publish
//!   time by one DFS per tree so lookups are a single array read
//!   ([`forest_of_vertex`](ColoringSnapshot::forest_of_vertex)), the
//!   `≤ color_budget` out-degree orientation each color-forest induces
//!   when rooted there ([`orientation_out`](ColoringSnapshot::orientation_out)),
//!   the live Nash-Williams arboricity watermark
//!   ([`watermark`](ColoringSnapshot::watermark)), the compact final graph
//!   ([`compact_graph`](ColoringSnapshot::compact_graph), built on first
//!   use) and the reproducible cold-run report bytes
//!   ([`canonical_bytes`](ColoringSnapshot::canonical_bytes), computed
//!   lazily and cached — byte-identical to [`Decomposer::run`] on the
//!   surviving edges, because it *is* that run; its coloring is the cold
//!   run's, not the live one the other queries answer from).
//!
//! Every snapshot carries a content [`fingerprint`](ColoringSnapshot::fingerprint)
//! computed at publish time; [`verify`](ColoringSnapshot::verify)
//! recomputes it, so a concurrency test (or a paranoid client) can prove
//! no torn state was ever observable.
//!
//! ```
//! use forest_decomp::api::{
//!     DecompositionRequest, EdgeUpdate, Engine, ProblemKind, VersionedDecomposer,
//! };
//!
//! let request = DecompositionRequest::new(ProblemKind::Forest)
//!     .with_engine(Engine::ExactMatroid)
//!     .with_seed(7);
//! let mut versioned = VersionedDecomposer::new(request, 4)?;
//! let reader = versioned.reader(); // hand this to other threads
//! versioned.apply_batch(&[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 2)])?;
//! let snap = versioned.publish();
//! assert_eq!(snap.epoch(), 1);
//! assert_eq!(reader.current().epoch(), 1);
//! assert_eq!(reader.current().live_edges(), 2);
//! # Ok::<(), forest_decomp::FdError>(())
//! ```

use super::dynamic::{BatchReport, DeltaReport, DynamicDecomposer, DynamicStats, EdgeUpdate};
use super::{Decomposer, DecompositionRequest};
use crate::error::FdError;
use forest_graph::dynamic::EdgeIdRemap;
use forest_graph::{u32_of, Color, EdgeId, GraphView, MultiGraph, VertexId};
use forest_obs::Span;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// The arboricity watermark one published epoch reports: how many forests
/// the maintained coloring is using against the best lower bound the
/// stream has certified (Nash-Williams `⌈m/(n−1)⌉` over the live edges,
/// improved by any exhaustive-exchange certificate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArboricityWatermark {
    /// The epoch this watermark describes.
    pub epoch: u64,
    /// Best certified arboricity lower bound at publish time.
    pub lower_bound: usize,
    /// Colors the published coloring uses (`0..color_budget`).
    pub color_budget: usize,
    /// Live edges at publish time.
    pub live_edges: usize,
    /// Vertices of the maintained graph.
    pub num_vertices: usize,
}

/// One published epoch: an immutable, internally-consistent view of the
/// maintained coloring (see the [module docs](self)). Shared by `Arc`;
/// every query takes `&self` and never blocks.
#[derive(Debug)]
pub struct ColoringSnapshot {
    epoch: u64,
    num_vertices: usize,
    live_edges: usize,
    color_budget: usize,
    lower_bound: usize,
    /// Per stable edge id (dead ids `None`), length = the id span at
    /// publish time.
    colors: Vec<Option<Color>>,
    /// `forest_roots[c · n + v]` = the canonical root (minimum vertex) of
    /// `v`'s tree in color `c`'s forest; `v` itself when isolated in that
    /// color. One flat `k · n` array.
    forest_roots: Vec<u32>,
    /// CSR over vertices: `out_edges[out_offsets[v]..out_offsets[v+1]]`
    /// are the edges `v` points along toward its parent, one per color
    /// whose forest attaches `v` — hence out-degree ≤ `color_budget`
    /// (Corollary 1.1's orientation shape) — in ascending id order.
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeId>,
    max_out_degree: usize,
    stats: DynamicStats,
    /// The surviving edges' endpoints in insertion order (compact id =
    /// position) and their stable ids: the canonical "final graph" the
    /// lazy cold run decomposes and `SnapshotBytes` is defined against.
    compact_endpoints: Vec<(VertexId, VertexId)>,
    compact_to_stable: Vec<EdgeId>,
    /// `compact_endpoints` as a [`MultiGraph`], built on first use.
    graph: OnceLock<MultiGraph>,
    request: DecompositionRequest,
    fingerprint: u64,
    cold: OnceLock<Result<Vec<u8>, FdError>>,
}

impl ColoringSnapshot {
    /// Freezes the decomposer's current state as epoch `epoch` in
    /// O(k·n + m), all in flat arrays.
    fn build(dec: &DynamicDecomposer, epoch: u64) -> Self {
        /// Marks an unvisited root slot and an absent parent edge.
        const NONE: u32 = u32::MAX;
        let live = dec.live_graph();
        let coloring = dec.live_coloring();
        let n = live.num_vertices();
        let k = dec.color_budget();
        let m = live.num_live_edges();

        // Colors by stable id, the compact edge list, and the number of
        // color-c edges at each vertex v (bucket c·n + v).
        let mut colors = vec![None; live.edge_id_span()];
        let mut compact_endpoints = Vec::with_capacity(m);
        let mut compact_to_stable = Vec::with_capacity(m);
        let mut bucket_ends = vec![0u32; k * n + 1];
        for (e, u, v) in live.live_edges() {
            let c = coloring.color(e).expect("every live edge carries a color");
            colors[e.index()] = Some(c);
            compact_endpoints.push((u, v));
            compact_to_stable.push(e);
            bucket_ends[c.index() * n + u.index()] += 1;
            bucket_ends[c.index() * n + v.index()] += 1;
        }
        // Inclusive prefix sums, then fill each bucket from its end down:
        // afterwards `bucket_ends[b]` is bucket b's start and
        // `bucket_ends[b + 1]` its end.
        let mut total = 0;
        for end in &mut bucket_ends {
            total += *end;
            *end = total;
        }
        let mut incidences = vec![(0u32, 0u32); 2 * m];
        for (&(u, v), &e) in compact_endpoints.iter().zip(&compact_to_stable) {
            let c = colors[e.index()].expect("colored above");
            for (x, y) in [(u, v), (v, u)] {
                let slot = &mut bucket_ends[c.index() * n + x.index()];
                *slot -= 1;
                incidences[*slot as usize] = (y.raw(), e.raw());
            }
        }

        // Root every color-class tree at its minimum vertex (the ascending
        // scan reaches it first) and record each other vertex's parent
        // edge: one iterative DFS per tree, per color.
        let mut forest_roots = vec![NONE; k * n];
        let mut parent = vec![NONE; k * n];
        let mut stack: Vec<usize> = Vec::new();
        for base in (0..k).map(|c| c * n) {
            for s in 0..n {
                if forest_roots[base + s] != NONE {
                    continue;
                }
                let root = u32_of(s);
                forest_roots[base + s] = root;
                stack.push(s);
                while let Some(x) = stack.pop() {
                    let (lo, hi) = (bucket_ends[base + x], bucket_ends[base + x + 1]);
                    for &(w, e) in &incidences[lo as usize..hi as usize] {
                        let slot = base + w as usize;
                        if forest_roots[slot] == NONE {
                            forest_roots[slot] = root;
                            parent[slot] = e;
                            stack.push(w as usize);
                        }
                    }
                }
            }
        }

        // Each vertex's parent edges, one per color at most, ascending.
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_edges = Vec::with_capacity(m);
        let mut max_out_degree = 0;
        out_offsets.push(0u32);
        for v in 0..n {
            let start = out_edges.len();
            out_edges.extend(
                (0..k)
                    .map(|c| parent[c * n + v])
                    .filter(|&e| e != NONE)
                    .map(|e| EdgeId::new(e as usize)),
            );
            out_edges[start..].sort_unstable();
            max_out_degree = max_out_degree.max(out_edges.len() - start);
            out_offsets.push(u32_of(out_edges.len()));
        }

        let mut snap = ColoringSnapshot {
            epoch,
            num_vertices: n,
            live_edges: m,
            color_budget: k,
            lower_bound: dec.arboricity_lower_bound(),
            colors,
            forest_roots,
            out_offsets,
            out_edges,
            max_out_degree,
            stats: dec.stats(),
            compact_endpoints,
            compact_to_stable,
            graph: OnceLock::new(),
            request: dec.request().clone(),
            fingerprint: 0,
            cold: OnceLock::new(),
        };
        snap.fingerprint = snap.compute_fingerprint();
        snap
    }

    /// The epoch this snapshot was published as (0 = the registration
    /// snapshot, before any [`publish`](VersionedDecomposer::publish)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Vertices of the maintained graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Live edges at publish time.
    pub fn live_edges(&self) -> usize {
        self.live_edges
    }

    /// Colors in use at publish time (`0..color_budget`).
    pub fn color_budget(&self) -> usize {
        self.color_budget
    }

    /// The forest color of a (stable-id) edge; `None` when the id was dead
    /// or unassigned at publish time.
    pub fn color_of_edge(&self, e: EdgeId) -> Option<Color> {
        self.colors.get(e.index()).copied().flatten()
    }

    /// The canonical root (minimum vertex) of `v`'s tree in color `c`'s
    /// forest — `v` itself when no edge of that color touches it. Two
    /// vertices are connected in forest `c` iff they report the same root.
    /// `None` when `c` is outside the budget or `v` out of range.
    pub fn forest_of_vertex(&self, c: Color, v: VertexId) -> Option<VertexId> {
        if c.index() >= self.color_budget || v.index() >= self.num_vertices {
            return None;
        }
        let root = self.forest_roots[c.index() * self.num_vertices + v.index()];
        Some(VertexId::new(root as usize))
    }

    /// The edges `v` points along toward its parents, one per color whose
    /// forest attaches `v` — the `≤ color_budget` out-degree orientation —
    /// in ascending id order. `None` when `v` is out of range.
    pub fn orientation_out(&self, v: VertexId) -> Option<&[EdgeId]> {
        let lo = *self.out_offsets.get(v.index())? as usize;
        let hi = *self.out_offsets.get(v.index() + 1)? as usize;
        Some(&self.out_edges[lo..hi])
    }

    /// The largest out-degree the orientation assigns (≤
    /// [`color_budget`](ColoringSnapshot::color_budget)).
    pub fn max_out_degree(&self) -> usize {
        self.max_out_degree
    }

    /// The live arboricity watermark at publish time.
    pub fn watermark(&self) -> ArboricityWatermark {
        ArboricityWatermark {
            epoch: self.epoch,
            lower_bound: self.lower_bound,
            color_budget: self.color_budget,
            live_edges: self.live_edges,
            num_vertices: self.num_vertices,
        }
    }

    /// Cumulative stream counters at publish time.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// The surviving edges compacted in insertion order — the canonical
    /// final graph the reproducibility contract is defined against — plus
    /// the compact→stable id map. Publish stores only the endpoint list;
    /// the [`MultiGraph`] is built from it on the first call (here or in
    /// [`canonical_bytes`](ColoringSnapshot::canonical_bytes)) and kept.
    pub fn compact_graph(&self) -> (&MultiGraph, &[EdgeId]) {
        let graph = self.graph.get_or_init(|| {
            MultiGraph::with_edges(self.num_vertices, self.compact_endpoints.iter().copied())
                .expect("live edges are valid")
        });
        (graph, &self.compact_to_stable)
    }

    /// The [`canonical_bytes`](super::DecompositionReport::canonical_bytes)
    /// of the cold [`Decomposer`] run over this snapshot's
    /// [`compact_graph`](ColoringSnapshot::compact_graph) with its request:
    /// identical to what [`Decomposer::run`] returns on the same graph with
    /// the same request, because it *is* that run. It runs once, on the
    /// first call (the `versioned.cold_run` span, building the compact graph
    /// too if nothing has yet), and is cached — so `SnapshotBytes` requests
    /// after the first are a memcpy.
    ///
    /// The report carries the *cold run's* coloring, which in general
    /// differs from the live coloring that
    /// [`color_of_edge`](ColoringSnapshot::color_of_edge) and the other
    /// queries answer from: the live coloring is maintained update by
    /// update, the cold run decomposes the final graph from scratch.
    ///
    /// # Errors
    ///
    /// Whatever the cold run returned (cached too: the run is attempted
    /// once per snapshot).
    pub fn canonical_bytes(&self) -> Result<Vec<u8>, FdError> {
        self.cold
            .get_or_init(|| {
                let _span = Span::enter("versioned.cold_run");
                Decomposer::new(self.request.clone())
                    .run(self.compact_graph().0)
                    .map(|r| r.canonical_bytes())
            })
            .clone()
    }

    /// The content fingerprint stamped at publish time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recomputes the fingerprint from the snapshot's content: `true` iff
    /// it matches the stamp. A reader that validates this on a snapshot it
    /// obtained concurrently with publishes has proof the view is not
    /// torn.
    pub fn verify(&self) -> bool {
        self.compute_fingerprint() == self.fingerprint
    }

    /// The FNV-1a-style [`Fnv`] hash over every stored field a query
    /// reads: the scalars, the stream counters, the colors, roots and
    /// orientation, and the compact graph's stable ids and endpoints
    /// (the lazily built graph and cold cache are derived from these).
    fn compute_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.epoch);
        let s = self.stats;
        for scalar in [
            self.num_vertices,
            self.live_edges,
            self.color_budget,
            self.lower_bound,
            self.max_out_degree,
            s.updates,
            s.fast_inserts,
            s.exchanges,
            s.exchange_recolorings,
            s.budget_raises,
            s.fast_deletes,
            s.compactions,
            s.compaction_recolorings,
        ] {
            h.word(scalar as u64);
        }
        for c in &self.colors {
            h.word(c.map_or(0, |c| c.index() as u64 + 1));
        }
        for &r in &self.forest_roots {
            h.word(r as u64);
        }
        for &o in &self.out_offsets {
            h.word(o as u64);
        }
        for &e in &self.out_edges {
            h.word(e.index() as u64);
        }
        for &e in &self.compact_to_stable {
            h.word(e.index() as u64);
        }
        for &(u, v) in &self.compact_endpoints {
            h.word((u.index() as u64) << 32 | v.index() as u64);
        }
        h.finish()
    }
}

/// FNV-1a over 64-bit words: each word is xored into the state, then the
/// state is multiplied by the FNV prime — one xor-multiply per word. Both
/// steps are bijections of the state (the prime is odd), so changing any
/// one hashed word always changes the result. Cheap, stable and
/// dependency-free; collision resistance is irrelevant here (the
/// fingerprint defends against torn reads, not adversaries).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cloneable, `Send + Sync` handle that reads the latest published
/// [`ColoringSnapshot`]. Hand one to every serving thread; the writer keeps
/// the [`VersionedDecomposer`].
///
/// The writer and every reader share one lock around the latest snapshot:
/// a reader holds it only to clone the `Arc` out, the writer only to swap
/// a finished snapshot in. No code that can panic runs under either guard;
/// both still take a poisoned guard rather than wedge the cell.
#[derive(Clone)]
pub struct SnapshotReader {
    cell: Arc<RwLock<Arc<ColoringSnapshot>>>,
}

impl SnapshotReader {
    /// The latest published snapshot: an `Arc` clone under the read lock,
    /// which a publish holds only to swap one pointer.
    pub fn current(&self) -> Arc<ColoringSnapshot> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }
}

impl std::fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("epoch", &self.current().epoch())
            .finish()
    }
}

/// A [`DynamicDecomposer`] behind epoch-pinned publication: the writer
/// half of the snapshot-isolation core (see the [module docs](self)).
#[derive(Debug)]
pub struct VersionedDecomposer {
    inner: DynamicDecomposer,
    reader: SnapshotReader,
    epoch: u64,
}

impl VersionedDecomposer {
    /// A versioned decomposer over an initially empty edge set; epoch 0
    /// (the empty coloring) is published immediately.
    ///
    /// # Errors
    ///
    /// As [`DynamicDecomposer::new`].
    pub fn new(request: DecompositionRequest, num_vertices: usize) -> Result<Self, FdError> {
        Ok(Self::wrap(DynamicDecomposer::new(request, num_vertices)?))
    }

    /// Seeds from an existing graph (replaying every edge as an insert)
    /// and publishes the result as epoch 0.
    ///
    /// # Errors
    ///
    /// As [`DynamicDecomposer::from_graph`].
    pub fn from_graph(request: DecompositionRequest, g: &MultiGraph) -> Result<Self, FdError> {
        Ok(Self::wrap(DynamicDecomposer::from_graph(request, g)?))
    }

    /// [`from_graph`](VersionedDecomposer::from_graph) over any
    /// [`GraphView`] (e.g. an mmap-backed CSR).
    ///
    /// # Errors
    ///
    /// As [`DynamicDecomposer::from_view`].
    pub fn from_view<G: GraphView>(request: DecompositionRequest, g: &G) -> Result<Self, FdError> {
        Ok(Self::wrap(DynamicDecomposer::from_view(request, g)?))
    }

    fn wrap(inner: DynamicDecomposer) -> Self {
        let first = Arc::new(ColoringSnapshot::build(&inner, 0));
        VersionedDecomposer {
            inner,
            reader: SnapshotReader {
                cell: Arc::new(RwLock::new(first)),
            },
            epoch: 0,
        }
    }

    /// Applies one update to the live (unpublished) state.
    ///
    /// # Errors
    ///
    /// As [`DynamicDecomposer::apply`].
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<DeltaReport, FdError> {
        self.inner.apply(update)
    }

    /// Applies a frame of updates (deletes first) to the live state.
    ///
    /// # Errors
    ///
    /// As [`DynamicDecomposer::apply_batch`].
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, FdError> {
        self.inner.apply_batch(updates)
    }

    /// Compacts the live edge-id space
    /// ([`DynamicDecomposer::compact_ids`]). Published snapshots are
    /// unaffected — they answer under the ids of their own epoch; the
    /// *next* publish speaks the compact ids, so a serving layer must
    /// translate client-held ids through the returned remap.
    pub fn compact_ids(&mut self) -> EdgeIdRemap {
        self.inner.compact_ids()
    }

    /// Freezes the live state as the next epoch and publishes it: after
    /// this returns, every [`SnapshotReader::current`] — including on
    /// other threads — observes the new epoch.
    pub fn publish(&mut self) -> Arc<ColoringSnapshot> {
        let _span = Span::enter("versioned.publish");
        self.epoch += 1;
        let snap = Arc::new(ColoringSnapshot::build(&self.inner, self.epoch));
        let cell = &self.reader.cell;
        let mut guard = cell.write().unwrap_or_else(PoisonError::into_inner);
        let replaced = std::mem::replace(&mut *guard, Arc::clone(&snap));
        drop(guard);
        // Unlock first: this drop may free the replaced epoch's arrays and
        // cached cold-run bytes, and no reader should wait on that.
        drop(replaced);
        snap
    }

    /// The epoch of the latest publish (0 until the first
    /// [`publish`](VersionedDecomposer::publish)).
    pub fn published_epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest published snapshot.
    pub fn current(&self) -> Arc<ColoringSnapshot> {
        self.reader.current()
    }

    /// A reader handle onto this decomposer's publications.
    pub fn reader(&self) -> SnapshotReader {
        self.reader.clone()
    }

    /// The live (unpublished) decomposer state.
    pub fn inner(&self) -> &DynamicDecomposer {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Engine, ProblemKind};
    use forest_graph::{generators, UnionFind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn request() -> DecompositionRequest {
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(11)
    }

    #[test]
    fn publish_gates_visibility() {
        let mut vd = VersionedDecomposer::new(request(), 4).unwrap();
        let reader = vd.reader();
        assert_eq!(reader.current().epoch(), 0);
        assert_eq!(reader.current().live_edges(), 0);
        vd.apply(EdgeUpdate::insert(0, 1)).unwrap();
        // Not yet published: readers still see epoch 0.
        assert_eq!(reader.current().live_edges(), 0);
        let snap = vd.publish();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(reader.current().epoch(), 1);
        assert_eq!(reader.current().live_edges(), 1);
        // Old snapshots stay pinned and valid.
        assert!(snap.verify());
    }

    /// A grid(6, 6) decomposer after seeded churn batches, a compaction
    /// and more churn, so its id span has holes again and its budget has
    /// grown past the grid's two forests.
    fn churned() -> VersionedDecomposer {
        let g = generators::grid(6, 6);
        let n = g.num_vertices();
        let mut vd = VersionedDecomposer::from_graph(request(), &g).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..24 {
            if round == 16 {
                vd.compact_ids();
            }
            let mut live: Vec<EdgeId> = vd.inner().live_graph().edge_ids().collect();
            let mut batch: Vec<EdgeUpdate> = (0..3)
                .map(|_| EdgeUpdate::delete(live.swap_remove(rng.gen_range(0..live.len()))))
                .collect();
            while batch.len() < 8 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    batch.push(EdgeUpdate::insert(u, v));
                }
            }
            vd.apply_batch(&batch).unwrap();
            vd.publish();
        }
        vd
    }

    /// Checks every query of `snap` against the decomposer it was
    /// published from, through references that share no code with the
    /// build: a per-color `UnionFind` over the live coloring for the
    /// roots, and a walk along out-edges for the orientation.
    fn assert_queries_match(snap: &ColoringSnapshot, dec: &DynamicDecomposer) {
        let live = dec.live_graph();
        let (n, k) = (snap.num_vertices(), snap.color_budget());
        assert_eq!(snap.live_edges(), live.num_live_edges());
        assert_eq!(k, dec.color_budget());
        for e in (0..live.edge_id_span()).map(EdgeId::new) {
            assert_eq!(snap.color_of_edge(e), dec.live_coloring().color(e));
        }
        let mut out_total = 0;
        for v in 0..n {
            let out = snap.orientation_out(VertexId::new(v)).unwrap();
            assert!(out.len() <= k);
            assert!(
                out.windows(2).all(|w| w[0] < w[1]),
                "out list of {v} not ascending"
            );
            out_total += out.len();
        }
        assert_eq!(out_total, snap.live_edges(), "every edge oriented once");
        assert!(snap.max_out_degree() <= k);
        for c in (0..k).map(Color::new) {
            let mut uf = UnionFind::new(n);
            for (e, u, v) in live.live_edges() {
                if dec.live_coloring().color(e) == Some(c) {
                    uf.union(u.index(), v.index());
                }
            }
            let mut min_of = vec![usize::MAX; n];
            for v in 0..n {
                let r = uf.find(v);
                min_of[r] = min_of[r].min(v);
            }
            for v in 0..n {
                let root = snap.forest_of_vertex(c, VertexId::new(v)).unwrap();
                assert_eq!(root.index(), min_of[uf.find(v)], "root of {v} in {c}");
                // Following the color-c out-edge from v ends at the root.
                let mut x = VertexId::new(v);
                let mut steps = 0;
                while let Some(&e) = snap
                    .orientation_out(x)
                    .unwrap()
                    .iter()
                    .find(|&&e| snap.color_of_edge(e) == Some(c))
                {
                    let (a, b) = live.endpoints(e);
                    assert!(a == x || b == x, "{e} is not incident to {x}");
                    x = if a == x { b } else { a };
                    steps += 1;
                    assert!(steps < n, "color-{c} out-edges cycle from {v}");
                }
                assert_eq!(x, root, "walk from {v} in {c}");
            }
        }
        // Out-of-range queries answer None, never panic.
        assert_eq!(snap.forest_of_vertex(Color::new(k), VertexId::new(0)), None);
        assert_eq!(snap.forest_of_vertex(Color::new(0), VertexId::new(n)), None);
        assert_eq!(snap.orientation_out(VertexId::new(n)), None);
        assert_eq!(snap.color_of_edge(EdgeId::new(live.edge_id_span())), None);
        assert!(snap.verify());
    }

    #[test]
    fn snapshot_queries_match_live_state() {
        let g = generators::grid(6, 6);
        let mut vd = VersionedDecomposer::from_graph(request(), &g).unwrap();
        let snap = vd.publish();
        assert_eq!(snap.live_edges(), g.num_edges());
        assert!(snap.watermark().lower_bound >= 2, "grid arboricity is 2");
        assert_queries_match(&snap, vd.inner());

        let mut vd = churned();
        let span = vd.inner().live_graph().edge_id_span();
        assert!(vd.inner().num_live_edges() < span, "churn left no dead id");
        assert!(vd.current().color_budget() > 2, "churn kept the budget");
        assert_queries_match(&vd.current(), vd.inner());
        vd.compact_ids();
        assert_queries_match(&vd.publish(), vd.inner());
    }

    #[test]
    fn verify_catches_a_flip_of_every_stored_field() {
        let vd = churned();
        type Flip = (&'static str, fn(&mut ColoringSnapshot));
        let flips: [Flip; 22] = [
            ("epoch", |s| s.epoch += 1),
            ("num_vertices", |s| s.num_vertices += 1),
            ("live_edges", |s| s.live_edges += 1),
            ("color_budget", |s| s.color_budget += 1),
            ("lower_bound", |s| s.lower_bound += 1),
            ("max_out_degree", |s| s.max_out_degree += 1),
            ("stats.updates", |s| s.stats.updates += 1),
            ("stats.fast_inserts", |s| s.stats.fast_inserts += 1),
            ("stats.exchanges", |s| s.stats.exchanges += 1),
            ("stats.exchange_recolorings", |s| {
                s.stats.exchange_recolorings += 1
            }),
            ("stats.budget_raises", |s| s.stats.budget_raises += 1),
            ("stats.fast_deletes", |s| s.stats.fast_deletes += 1),
            ("stats.compactions", |s| s.stats.compactions += 1),
            ("stats.compaction_recolorings", |s| {
                s.stats.compaction_recolorings += 1
            }),
            ("a live color", |s| {
                let c = s.colors.iter_mut().flatten().last().unwrap();
                *c = Color::new(c.index() + 1);
            }),
            ("a dead color", |s| {
                *s.colors.iter_mut().find(|c| c.is_none()).unwrap() = Some(Color::new(0));
            }),
            ("a root", |s| s.forest_roots[s.num_vertices + 1] ^= 1),
            ("an out offset", |s| s.out_offsets[1] += 1),
            ("an out edge", |s| {
                s.out_edges[0] = EdgeId::new(s.out_edges[0].index() + 1)
            }),
            ("a compact id", |s| {
                let last = s.compact_to_stable.last_mut().unwrap();
                *last = EdgeId::new(last.index() + 1);
            }),
            ("an edge's first endpoint", |s| {
                let u = &mut s.compact_endpoints[0].0;
                *u = VertexId::new(u.index() + 1);
            }),
            ("an edge's second endpoint", |s| {
                let v = &mut s.compact_endpoints[0].1;
                *v = VertexId::new(v.index() + 1);
            }),
        ];
        for (field, flip) in flips {
            let mut snap = ColoringSnapshot::build(vd.inner(), vd.published_epoch());
            assert!(snap.verify());
            flip(&mut snap);
            assert!(!snap.verify(), "flipping {field} left verify() true");
        }
    }

    #[test]
    fn canonical_bytes_match_cold_run() {
        let g = generators::grid(5, 4);
        let mut vd = VersionedDecomposer::from_graph(request(), &g).unwrap();
        vd.apply(EdgeUpdate::insert(0, 7)).unwrap();
        let snap = vd.publish();
        let (compact, _) = snap.compact_graph();
        let cold = Decomposer::new(request()).run(compact).unwrap();
        assert_eq!(snap.canonical_bytes().unwrap(), cold.canonical_bytes());
        // Cached: second call returns the same bytes.
        assert_eq!(snap.canonical_bytes().unwrap(), cold.canonical_bytes());
    }

    #[test]
    fn pinned_snapshot_survives_many_publishes() {
        let mut vd = VersionedDecomposer::new(request(), 8).unwrap();
        let reader = vd.reader();
        let early = reader.current();
        for i in 0..24u64 {
            vd.apply(EdgeUpdate::insert((i as usize) % 8, (i as usize + 1) % 8))
                .unwrap();
            let snap = vd.publish();
            assert_eq!(snap.epoch(), i + 1);
            assert_eq!(reader.current().epoch(), i + 1);
        }
        // A snapshot pinned 24 publishes ago is still intact.
        assert_eq!(early.epoch(), 0);
        assert!(early.verify());
    }
}
