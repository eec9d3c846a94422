//! Epoch-pinned publication over the streaming decomposer: one writer
//! mutates a [`DynamicDecomposer`], many readers query immutable
//! [`ColoringSnapshot`]s without ever blocking on the writer.
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
//!   with the next epoch id and swaps it into the shared cell.
//! * **Readers pin an epoch, lock-free.** A [`SnapshotReader`] (cheap to
//!   clone, `Send + Sync`) answers [`current`](SnapshotReader::current)
//!   by cloning the latest published `Arc` out of a publication ring —
//!   a handful of atomic operations with no wait on a concurrent publish,
//!   however fast the writer churns. The clone
//!   pins that epoch for as long as the reader holds it: every query it
//!   answers is consistent with exactly that publication, however far the
//!   writer has moved on.
//! * **Snapshots answer everything the wire protocol asks.** Per-edge
//!   colors ([`color_of_edge`](ColoringSnapshot::color_of_edge)),
//!   per-color forest roots precomputed from the union-find so lookups
//!   need no mutation
//!   ([`forest_of_vertex`](ColoringSnapshot::forest_of_vertex)), the
//!   `≤ color_budget` out-degree orientation each color-forest induces
//!   ([`orientation_out`](ColoringSnapshot::orientation_out)), the live
//!   Nash-Williams arboricity watermark
//!   ([`watermark`](ColoringSnapshot::watermark)), and the reproducible
//!   cold-run report bytes
//!   ([`canonical_bytes`](ColoringSnapshot::canonical_bytes), computed
//!   lazily and cached — byte-identical to [`Decomposer::run`] on the
//!   surviving edges, because it *is* that run).
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
use super::report::DecompositionReport;
use super::{Decomposer, DecompositionRequest};
use crate::error::FdError;
use forest_graph::dynamic::EdgeIdRemap;
use forest_graph::{u32_of, Color, EdgeId, GraphView, MultiGraph, VertexId};
use forest_obs::{clock::Stopwatch, LazyCounter, LazyGauge, LazyHistogram, Span};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, TryLockError};

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
    /// `forest_roots[c][v]` = the canonical root (minimum vertex) of `v`'s
    /// tree in color `c`'s forest; `v` itself when isolated in that color.
    forest_roots: Vec<Vec<u32>>,
    /// CSR over vertices: `out_edges[out_offsets[v]..out_offsets[v+1]]`
    /// are the edges `v` points along toward its parent, one per color
    /// whose forest attaches `v` — hence out-degree ≤ `color_budget`
    /// (Corollary 1.1's orientation shape).
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeId>,
    max_out_degree: usize,
    stats: DynamicStats,
    /// The surviving edges compacted in insertion order (the canonical
    /// "final graph") plus compact→stable ids: what the lazy cold run
    /// decomposes and what `SnapshotBytes` is defined against.
    graph: MultiGraph,
    compact_to_stable: Vec<EdgeId>,
    request: DecompositionRequest,
    fingerprint: u64,
    cold: OnceLock<Result<Vec<u8>, FdError>>,
}

impl ColoringSnapshot {
    /// Freezes the decomposer's current state as epoch `epoch`.
    fn build(dec: &DynamicDecomposer, epoch: u64) -> Self {
        let graph_view = dec.live_graph();
        let n = graph_view.num_vertices();
        let k = dec.color_budget();
        let span = graph_view.edge_id_span();
        let mut colors = vec![None; span];
        let mut per_color: Vec<Vec<(EdgeId, VertexId, VertexId)>> = vec![Vec::new(); k];
        for (e, u, v) in graph_view.live_edges() {
            let c = dec
                .live_coloring()
                .color(e)
                .expect("every live edge carries a color");
            colors[e.index()] = Some(c);
            per_color[c.index()].push((e, u, v));
        }

        // Root every color-class tree at its minimum vertex and orient
        // each edge child→parent: one DFS per component, per color, with
        // the scratch arrays reused across colors (clear only what was
        // touched, so the whole build is O(k·n + m)).
        let mut forest_roots = Vec::with_capacity(k);
        let mut out: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut adj: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); n];
        let mut visited = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for class in &per_color {
            for &(e, u, v) in class {
                adj[u.index()].push((v, e));
                adj[v.index()].push((u, e));
                touched.push(u.index());
                touched.push(v.index());
            }
            touched.sort_unstable();
            touched.dedup();
            let mut roots: Vec<u32> = (0..u32_of(n)).collect();
            // Ascending scan: the first unvisited vertex of a component is
            // its minimum, so roots are canonical regardless of insertion
            // order.
            for &s in &touched {
                if visited[s] {
                    continue;
                }
                visited[s] = true;
                stack.push(s);
                while let Some(x) = stack.pop() {
                    for &(w, e) in &adj[x] {
                        if !visited[w.index()] {
                            visited[w.index()] = true;
                            roots[w.index()] = u32_of(s);
                            out[w.index()].push(e);
                            stack.push(w.index());
                        }
                    }
                }
            }
            for &t in &touched {
                adj[t].clear();
                visited[t] = false;
            }
            touched.clear();
            forest_roots.push(roots);
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_edges = Vec::with_capacity(graph_view.num_live_edges());
        let mut max_out_degree = 0;
        out_offsets.push(0u32);
        for v in &mut out {
            v.sort_unstable_by_key(|e| e.index());
            max_out_degree = max_out_degree.max(v.len());
            out_edges.extend_from_slice(v);
            out_offsets.push(u32_of(out_edges.len()));
        }

        let (graph, compact_to_stable) = dec.snapshot_graph();
        let mut snap = ColoringSnapshot {
            epoch,
            num_vertices: n,
            live_edges: graph_view.num_live_edges(),
            color_budget: k,
            lower_bound: dec.arboricity_lower_bound(),
            colors,
            forest_roots,
            out_offsets,
            out_edges,
            max_out_degree,
            stats: dec.stats(),
            graph,
            compact_to_stable,
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
        let roots = self.forest_roots.get(c.index())?;
        roots.get(v.index()).map(|&r| VertexId::new(r as usize))
    }

    /// The edges `v` points along toward its parents, one per color whose
    /// forest attaches `v` — the `≤ color_budget` out-degree orientation.
    /// `None` when `v` is out of range.
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
    /// the compact→stable id map.
    pub fn compact_graph(&self) -> (&MultiGraph, &[EdgeId]) {
        (&self.graph, &self.compact_to_stable)
    }

    /// The reproducible report for this epoch: the cold [`Decomposer`]
    /// pipeline over the surviving edges, run lazily on first call and
    /// cached — so `SnapshotBytes` requests after the first are a memcpy,
    /// and the bytes are identical to what [`Decomposer::run`] returns on
    /// the same graph with the same request.
    ///
    /// # Errors
    ///
    /// Whatever the cold run returns (cached too: the run is attempted
    /// once per snapshot).
    fn cold_report(&self) -> Result<DecompositionReport, FdError> {
        Decomposer::new(self.request.clone()).run(&self.graph)
    }

    /// [`DecompositionReport::canonical_bytes`] of the cold run over this
    /// snapshot's graph with its request, computed once and cached in the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Whatever the cold run returned.
    pub fn canonical_bytes(&self) -> Result<Vec<u8>, FdError> {
        self.cold
            .get_or_init(|| self.cold_report().map(|r| r.canonical_bytes()))
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

    /// FNV-1a over every queryable field (the cold cache excluded — it is
    /// derived and computed lazily).
    fn compute_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.epoch);
        h.word(self.num_vertices as u64);
        h.word(self.live_edges as u64);
        h.word(self.color_budget as u64);
        h.word(self.lower_bound as u64);
        h.word(self.max_out_degree as u64);
        for c in &self.colors {
            h.word(c.map_or(0, |c| c.index() as u64 + 1));
        }
        for roots in &self.forest_roots {
            for &r in roots {
                h.word(r as u64);
            }
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
        h.finish()
    }
}

/// FNV-1a, word-at-a-time — cheap, stable, and dependency-free; collision
/// resistance is irrelevant here (the fingerprint defends against torn
/// reads, not adversaries).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Slots in the publication ring. A reader retries only if the single
/// writer laps the whole ring — `SLOTS` publishes — inside the reader's
/// few-instruction clone window; 8 makes that practically impossible
/// while keeping the ring cache-resident.
const SLOTS: usize = 8;

/// The shared publication point: a ring of slots holding the most recent
/// `Arc<ColoringSnapshot>`s, with one slot marked current by an atomic
/// index.
///
/// **Reader protocol** (`current`): load the current index, `try_read`
/// that slot, clone the `Arc` out. `try_read` never waits — and it never
/// even *fails* in steady state, because the writer only ever
/// write-locks the slot **after** the current one (the oldest
/// publication, `SLOTS` epochs stale), never the slot readers are
/// directed at. A reader observes a locked slot only if the writer laps
/// the entire ring inside the reader's few-instruction window between
/// loading the index and acquiring the slot; it then re-loads the (by
/// then updated) index and succeeds. So readers never block on the
/// writer: every retry implies the writer *completed* `SLOTS` publishes
/// — system-wide progress — and the loop is obstruction-free.
///
/// **Writer protocol** (`publish`; externally serialized — only
/// [`VersionedDecomposer::publish`], which takes `&mut self`, calls it):
/// write-lock the slot after the current one, replace its content, drop
/// the lock, then swap the current index. The write-lock acquisition
/// waits only for readers still cloning out of that `SLOTS`-stale slot —
/// a clone is a handful of instructions, so the writer's wait is bounded
/// and tiny, and it is always the writer that waits, never the readers.
///
/// Lock poisoning cannot occur: no panic site exists between lock and
/// unlock (the guarded code is an `Option<Arc>` assignment or clone);
/// both paths still handle a poisoned lock by taking the guard anyway,
/// so even an unforeseen panic elsewhere can not wedge the ring.
struct SnapshotCell {
    current: AtomicUsize,
    epoch_hint: AtomicU64,
    slots: [RwLock<Option<Arc<ColoringSnapshot>>>; SLOTS],
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("current", &self.current.load(Ordering::SeqCst))
            .field("epoch_hint", &self.epoch_hint.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl SnapshotCell {
    /// A cell whose slot 0 holds `first` (published as the current slot).
    fn new(first: Arc<ColoringSnapshot>) -> Self {
        let epoch = first.epoch();
        let slots = [(); SLOTS].map(|_| RwLock::new(None));
        *slots[0].write().unwrap_or_else(PoisonError::into_inner) = Some(first);
        SnapshotCell {
            current: AtomicUsize::new(0),
            epoch_hint: AtomicU64::new(epoch),
            slots,
        }
    }

    /// Publishes `snap` as the new current snapshot (single writer only;
    /// see the type docs).
    fn publish(&self, snap: Arc<ColoringSnapshot>) {
        let epoch = snap.epoch();
        let next = (self.current.load(Ordering::SeqCst) + 1) % SLOTS;
        {
            // Waits only for readers still cloning out of this
            // `SLOTS`-stale slot (nanoseconds); new readers are directed
            // at `current`, which still points elsewhere.
            let mut guard = self.slots[next]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            *guard = Some(snap);
        }
        self.current.store(next, Ordering::SeqCst);
        self.epoch_hint.store(epoch, Ordering::SeqCst);
    }

    /// Clones the current snapshot out without ever blocking on the
    /// writer (see the type docs).
    fn current(&self) -> Arc<ColoringSnapshot> {
        loop {
            let idx = self.current.load(Ordering::SeqCst);
            let guard = match self.slots[idx].try_read() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    // The writer lapped the whole ring onto this slot
                    // inside our window; the current index has already
                    // moved on — re-read it.
                    std::hint::spin_loop();
                    continue;
                }
            };
            if let Some(snap) = guard.as_ref() {
                return Arc::clone(snap);
            }
            // Unreachable in practice: the cell is constructed with slot
            // 0 occupied and `current` only ever points at published
            // slots. Retry defensively.
            std::hint::spin_loop();
        }
    }

    /// The epoch of the latest publish, without touching the slots — what
    /// a lag probe polls.
    fn epoch_hint(&self) -> u64 {
        self.epoch_hint.load(Ordering::SeqCst)
    }
}

/// A cloneable, `Send + Sync` handle that reads the latest published
/// [`ColoringSnapshot`] lock-free. Hand one to every serving thread; the
/// writer keeps the [`VersionedDecomposer`].
#[derive(Clone)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
}

impl SnapshotReader {
    /// The latest published snapshot (a cheap `Arc` clone; never blocks
    /// on the writer).
    pub fn current(&self) -> Arc<ColoringSnapshot> {
        self.cell.current()
    }

    /// The epoch of the latest publish, from a single atomic load — the
    /// cheapest way to poll for visibility of a publish (the
    /// publish-to-read lag probe in the benchmarks).
    pub fn current_epoch(&self) -> u64 {
        self.cell.epoch_hint()
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
    cell: Arc<SnapshotCell>,
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
            cell: Arc::new(SnapshotCell::new(first)),
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
        /// Cumulative publish count across decomposer instances.
        static PUBLISHES: LazyCounter = LazyCounter::new("versioned.publishes_total");
        /// The most recently published epoch (high watermark — a gauge,
        /// since epochs are per-instance).
        static PUBLISHED_EPOCH: LazyGauge = LazyGauge::new("versioned.published_epoch");
        /// Publish latency — the epoch lag between the live state and
        /// readers: how long [`SnapshotReader::current`] answers stay one
        /// epoch behind while the freeze runs.
        static PUBLISH_LAG_NANOS: LazyHistogram = LazyHistogram::new("versioned.publish_lag_nanos");
        let _span = Span::enter("versioned.publish");
        let lag = Stopwatch::start();
        self.epoch += 1;
        let snap = Arc::new(ColoringSnapshot::build(&self.inner, self.epoch));
        self.cell.publish(Arc::clone(&snap));
        PUBLISHES.inc();
        PUBLISHED_EPOCH.set_max(self.epoch);
        PUBLISH_LAG_NANOS.observe(lag.elapsed_nanos());
        snap
    }

    /// The epoch of the latest publish (0 until the first
    /// [`publish`](VersionedDecomposer::publish)).
    pub fn published_epoch(&self) -> u64 {
        self.epoch
    }

    /// The latest published snapshot.
    pub fn current(&self) -> Arc<ColoringSnapshot> {
        self.cell.current()
    }

    /// A lock-free reader handle onto this decomposer's publications.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
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
    use forest_graph::generators;

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

    #[test]
    fn snapshot_queries_match_live_state() {
        let g = generators::grid(6, 6);
        let mut vd = VersionedDecomposer::from_graph(request(), &g).unwrap();
        let snap = vd.publish();
        assert_eq!(snap.live_edges(), g.num_edges());
        assert_eq!(snap.color_budget(), vd.inner().color_budget());
        assert!(snap.watermark().lower_bound >= 2, "grid arboricity is 2");
        let mut out_total = 0;
        for v in 0..snap.num_vertices() {
            let out = snap.orientation_out(VertexId::new(v)).unwrap();
            assert!(out.len() <= snap.color_budget());
            out_total += out.len();
        }
        assert_eq!(out_total, snap.live_edges(), "every edge oriented once");
        assert!(snap.max_out_degree() <= snap.color_budget());
        // Forest roots agree with the coloring: endpoints of an edge of
        // color c share a root in forest c.
        for (e, u, v) in vd.inner().live_graph().live_edges() {
            let c = snap.color_of_edge(e).unwrap();
            assert_eq!(
                snap.forest_of_vertex(c, u).unwrap(),
                snap.forest_of_vertex(c, v).unwrap()
            );
        }
        // Out-of-range queries answer None, never panic.
        assert_eq!(snap.color_of_edge(EdgeId::new(9999)), None);
        assert_eq!(
            snap.forest_of_vertex(Color::new(99), VertexId::new(0)),
            None
        );
        assert_eq!(snap.orientation_out(VertexId::new(9999)), None);
        assert!(snap.verify());
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
    fn ring_survives_many_publishes() {
        let mut vd = VersionedDecomposer::new(request(), 8).unwrap();
        let reader = vd.reader();
        let early = reader.current();
        for i in 0..(3 * SLOTS as u64) {
            vd.apply(EdgeUpdate::insert((i as usize) % 8, (i as usize + 1) % 8))
                .unwrap();
            let snap = vd.publish();
            assert_eq!(snap.epoch(), i + 1);
            assert_eq!(reader.current().epoch(), i + 1);
        }
        // A snapshot pinned 3 laps ago is still intact.
        assert_eq!(early.epoch(), 0);
        assert!(early.verify());
    }
}
