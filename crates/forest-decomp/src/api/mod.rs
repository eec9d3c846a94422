//! The unified `Decomposer` facade: one request/report API over every
//! decomposition pipeline in this crate.
//!
//! The Harris–Su–Vu paper is one family of algorithms, and this module makes
//! it look like one: a [`DecompositionRequest`] says *what* to solve (a
//! [`ProblemKind`]), *how* (an [`Engine`] plus shared knobs) and *under which
//! seed*; a [`Decomposer`] executes it on any [`GraphInput`] and returns one
//! [`DecompositionReport`] shape regardless of pipeline. Every `(problem,
//! engine)` pair either runs or fails with the typed
//! [`FdError::UnsupportedCombination`] — never a panic.
//!
//! # Inputs: the [`GraphInput`] conversion layer
//!
//! Every `run*` entrypoint takes `impl Into<GraphInput>`, so all of these
//! work interchangeably and produce byte-identical reports for the same
//! topology and seed:
//!
//! * `&MultiGraph` / `MultiGraph` — frozen to CSR once per run;
//! * [`&FrozenGraph`](FrozenGraph) / `FrozenGraph` — pre-frozen, zero
//!   conversions on the hot path;
//! * [`GraphInput::from_mmap`] — an on-disk CSR file
//!   ([`MmapCsr`](forest_graph::MmapCsr), versioned little-endian format);
//!   engines run directly over the mapped arrays through a zero-copy
//!   [`CsrRef`](forest_graph::CsrRef);
//! * [`GraphInput::from_shard`] — one shard of a
//!   [`CsrPartition`](forest_graph::CsrPartition).
//!
//! Mmap and shard inputs are CSR-only end to end: every forest and
//! orientation pipeline is `GraphView`-generic, so no adjacency-list twin
//! is ever materialized for them.
//!
//! # Scale: batching and sharding
//!
//! Reproducibility is first-class: a run derives an owned
//! [`SmallRng`](rand::rngs::SmallRng) from the request seed, so the same
//! request on the same graph produces a byte-identical report
//! ([`DecompositionReport::canonical_bytes`]). Batch throughput is
//! first-class too: [`Decomposer::run_batch`] fans one request across many
//! graphs on all cores with per-graph derived seeds ([`derive_seed`]), and
//! [`Decomposer::run_sharded`] decomposes one *large* graph by splitting its
//! frozen topology into zero-copy shards — along an opt-in BFS/RCM locality
//! order ([`ShardingSpec`], [`ReorderKind`]) when vertex ids are not already
//! banded — decomposing them in parallel straight over the borrowed views
//! (no per-shard thaw), and stitching the boundary through single-step
//! augmentations plus a color-reusing residue recoloring (optionally
//! finished by the [`StitchPolicy::ExactAlpha`] exchange pass, which closes
//! the `α + 1` gap on capacity-tight workloads). Repeated sharded
//! runs amortize the split through [`ShardedGraph`] and
//! [`Decomposer::run_sharded_prepared`], exactly like [`FrozenGraph`]
//! amortizes freezing.
//!
//! # Streams: the [`DynamicDecomposer`]
//!
//! Graphs that mutate between queries don't re-freeze: the
//! [`dynamic`] module's [`DynamicDecomposer`] ingests [`EdgeUpdate`]s and
//! keeps a valid forest coloring alive after every update — per-color
//! connectivity riding on `forest_graph`'s Holm–de Lichtenberg–Thorup
//! subsystem, repairs confined to one augmenting exchange, color budget
//! tracking the stream's arboricity in both directions — while
//! [`DynamicDecomposer::snapshot`] reproduces the cold pipeline
//! byte-identically on the surviving edges.
//!
//! ```
//! use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind};
//! use forest_decomp::api::Validate;
//! use forest_graph::generators;
//!
//! let g = generators::fat_path(64, 3);
//! let request = DecompositionRequest::new(ProblemKind::Forest)
//!     .with_engine(Engine::HarrisSuVu)
//!     .with_epsilon(0.5)
//!     .with_alpha(3)
//!     .with_seed(42);
//! let report = Decomposer::new(request).run(&g)?;
//! assert!(report.num_colors >= 3);
//! report.validate(&g)?;
//! # Ok::<(), forest_decomp::FdError>(())
//! ```

pub mod dynamic;
mod engines;
mod input;
pub mod oocore;
mod report;
mod request;
pub mod versioned;

pub use dynamic::{
    BatchReport, DeltaReport, DynamicDecomposer, DynamicStats, EdgeUpdate, UpdatePath,
};
pub use engines::{DecompositionEngine, EngineOutcome, FrozenInput, ShardOutcome};
pub use input::GraphInput;
pub use oocore::{OocConfig, OocOutcome, OocStats};
pub use report::{Artifact, DecompositionReport, Validate, ValidationStatus};
pub use request::{
    DecompositionRequest, Engine, PaletteSpec, ProblemKind, ShardingSpec, StitchPolicy,
};
pub use versioned::{ArboricityWatermark, ColoringSnapshot, SnapshotReader, VersionedDecomposer};

pub use forest_graph::ReorderKind;

use crate::error::FdError;
use forest_graph::decomposition::max_forest_diameter;
use forest_graph::{
    CsrGraph, CsrPartition, CsrRef, GraphView, ListAssignment, MultiGraph, OwnedCsr,
};
use forest_obs::{clock::Stopwatch, LazyCounter, LazyHistogram, Span};
use local_model::RoundLedger;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Facade-level run accounting in the `forest-obs` registry.
static FACADE_RUNS: LazyCounter = LazyCounter::new("facade.runs_total");
static FACADE_RUN_NANOS: LazyHistogram = LazyHistogram::new("facade.run_nanos");

/// A graph frozen for decomposition: the original [`MultiGraph`] paired with
/// its [`CsrGraph`] view, built once and reusable across any number of runs.
///
/// [`Decomposer::run`] freezes internally, so one-off callers never see this
/// type; freeze explicitly (and use [`Decomposer::run_frozen`] /
/// [`Decomposer::run_batch_shared`]) when the same graph is decomposed more
/// than once — repeated requests, seed sweeps, engine comparisons — to pay
/// the `O(n + m)` conversion a single time.
#[derive(Clone, Debug)]
pub struct FrozenGraph {
    graph: MultiGraph,
    csr: CsrGraph,
}

impl FrozenGraph {
    /// Freezes `graph` (one `O(n + m)` CSR construction).
    pub fn freeze(graph: MultiGraph) -> Self {
        let csr = CsrGraph::from_multigraph(&graph);
        FrozenGraph { graph, csr }
    }

    /// The original multigraph.
    pub fn graph(&self) -> &MultiGraph {
        &self.graph
    }

    /// The frozen CSR topology.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// The borrowed pair handed to engines.
    pub fn input(&self) -> FrozenInput<'_> {
        FrozenInput::new(&self.graph, self.csr.view())
    }
}

impl From<MultiGraph> for FrozenGraph {
    fn from(graph: MultiGraph) -> Self {
        FrozenGraph::freeze(graph)
    }
}

/// A graph split once for repeated sharded decomposition: the
/// [`CsrPartition`] analog of [`FrozenGraph`].
///
/// [`Decomposer::run_sharded`] splits internally, so one-off callers never
/// see this type; split explicitly (and use
/// [`Decomposer::run_sharded_prepared`]) when the same graph is decomposed
/// more than once — repeated requests, seed sweeps, engine comparisons — to
/// pay the `O(n + m)` split (and the optional BFS/RCM reordering pass) a
/// single time, exactly like freezing amortizes the CSR conversion.
#[derive(Clone, Debug)]
pub struct ShardedGraph {
    csr: OwnedCsr,
    partition: CsrPartition,
    reorder: ReorderKind,
}

impl ShardedGraph {
    /// Splits `input` into `num_shards` zero-copy shards along
    /// `spec.reorder` (one `O(n + m)` pass plus the order computation).
    /// Only the reorder half of the spec matters here: the
    /// [`StitchPolicy`] never affects how the graph is cut and is read
    /// from the *request* at run time
    /// ([`Decomposer::run_sharded_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns [`FdError::InvalidShardCount`] for `num_shards == 0`.
    pub fn split<'a>(
        input: impl Into<GraphInput<'a>>,
        num_shards: usize,
        spec: ShardingSpec,
    ) -> Result<ShardedGraph, FdError> {
        if num_shards == 0 {
            return Err(FdError::InvalidShardCount { requested: 0 });
        }
        let input = input.into();
        let mut scratch = None;
        let frozen = input.resolve(&mut scratch);
        let csr = frozen.csr.to_owned_storage();
        let partition = match spec.reorder.order(&csr) {
            None => CsrPartition::split(&csr, num_shards),
            Some(perm) => CsrPartition::split_ordered(&csr, num_shards, &perm),
        };
        Ok(ShardedGraph {
            csr,
            partition,
            reorder: spec.reorder,
        })
    }

    /// The frozen full-graph topology the shards were cut from.
    pub fn csr(&self) -> &OwnedCsr {
        &self.csr
    }

    /// The partition: per-shard zero-copy views plus the boundary list.
    pub fn partition(&self) -> &CsrPartition {
        &self.partition
    }

    /// The locality order the split was cut along.
    pub fn reorder(&self) -> ReorderKind {
        self.reorder
    }

    /// Number of shards (after the splitter's documented clamp).
    pub fn num_shards(&self) -> usize {
        self.partition.num_shards()
    }
}

/// BFS pop bound per overflow-edge exchange in the exact-α stitch: the pass
/// is *bounded* — an exchange that trips the bound leaves its edge on the
/// overflow color instead of stalling the stitch.
const EXACT_STITCH_POP_LIMIT: usize = 4096;

/// The [`StitchPolicy::ExactAlpha`] finishing pass: move every edge colored
/// outside `0..target` back inside the budget through bounded augmenting
/// exchanges, with per-color connectivity riding on the dynamic subsystem
/// ([`DynamicColorConnectivity`](forest_graph::DynamicColorConnectivity))
/// so each recoloring is a cut-and-link edit instead of a cache rebuild.
/// Edges whose exchange fails (a genuinely denser-than-`target` residue, or
/// the pop bound) keep their overflow color — the pass improves, never
/// breaks.
fn exact_alpha_stitch(
    csr: &CsrRef<'_>,
    colors: &mut [forest_graph::Color],
    target: usize,
    ledger: &mut RoundLedger,
) {
    let overflow: Vec<forest_graph::EdgeId> = colors
        .iter()
        .enumerate()
        .filter(|(_, c)| c.index() >= target)
        .map(|(i, _)| forest_graph::EdgeId::new(i))
        .collect();
    let total = overflow.len();
    let (mut moved, mut stuck) = (0usize, 0usize);
    if total > 0 && target > 0 {
        let mut coloring = forest_graph::decomposition::PartialEdgeColoring::from_colors(
            colors.iter().map(|&c| Some(c)).collect(),
        );
        let mut conn = forest_graph::DynamicColorConnectivity::from_coloring(csr, &coloring, None);
        for e in overflow {
            let (u, v) = csr.endpoints(e);
            let old = coloring.color(e).expect("stitched colorings are complete");
            coloring.clear(e);
            conn.remove(e);
            // The cheap query first; the bounded exchange only when every
            // in-budget forest already connects the endpoints.
            if let Some(c) = conn.first_free_color(target, u, v) {
                coloring.set(e, c);
                conn.insert(e, c, u, v);
                moved += 1;
                continue;
            }
            match forest_graph::matroid::try_augment_traced(
                csr,
                &mut coloring,
                e,
                target,
                EXACT_STITCH_POP_LIMIT,
            ) {
                Some(steps) => {
                    for (f, _, new) in steps {
                        let (fu, fv) = csr.endpoints(f);
                        conn.recolor(f, new, fu, fv);
                    }
                    moved += 1;
                }
                None => {
                    coloring.set(e, old);
                    conn.insert(e, old, u, v);
                    stuck += 1;
                }
            }
        }
        for (i, c) in colors.iter_mut().enumerate() {
            *c = coloring
                .color(forest_graph::EdgeId::new(i))
                .expect("exchanges keep the coloring complete");
        }
    }
    // Always charged, so the pass is observable even when the greedy stitch
    // already landed inside the budget.
    ledger.charge(
        format!(
            "exact-alpha stitch: {moved} of {total} overflow edges exchanged into the \
             alpha={target} budget ({stuck} kept an overflow color)"
        ),
        moved,
    );
}

/// Derives the seed used for graph `index` of a batch run with base seed
/// `base`.
///
/// Index 0 maps to `base` itself, so `run_batch(&[g])` is exactly
/// equivalent to `run(&g)`; later indices are mixed through a SplitMix64
/// finalizer so the per-graph streams are independent.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    if index == 0 {
        return base;
    }
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x243F_6A88_85A3_08D3);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes [`DecompositionRequest`]s: the single entrypoint over every
/// pipeline in this crate.
#[derive(Clone, Debug)]
pub struct Decomposer {
    request: DecompositionRequest,
}

impl Decomposer {
    /// A decomposer executing `request`.
    pub fn new(request: DecompositionRequest) -> Self {
        Decomposer { request }
    }

    /// The request this decomposer executes.
    pub fn request(&self) -> &DecompositionRequest {
        &self.request
    }

    /// Runs the request on any [`GraphInput`] — `&MultiGraph`,
    /// `&FrozenGraph`, [`GraphInput::from_mmap`] /
    /// [`GraphInput::from_shard`] outputs — with the request's own seed.
    ///
    /// The input is frozen at most once (not at all when it arrives frozen),
    /// and identical topologies produce byte-identical reports regardless of
    /// which storage backs them.
    ///
    /// # Errors
    ///
    /// Returns [`FdError::UnsupportedCombination`] for an engine that cannot
    /// solve the requested problem, and propagates every pipeline error;
    /// the facade never panics on any `(problem, engine)` pair.
    pub fn run<'a>(
        &self,
        input: impl Into<GraphInput<'a>>,
    ) -> Result<DecompositionReport, FdError> {
        let input = input.into();
        let mut scratch = None;
        self.run_seeded(input.resolve(&mut scratch), self.request.seed)
    }

    /// Runs the request on an already-frozen graph (no per-run conversion).
    ///
    /// Byte-identical to [`Decomposer::run`] on the underlying multigraph:
    /// freezing is a representation change, not an algorithmic one.
    ///
    /// # Errors
    ///
    /// Same as [`Decomposer::run`].
    pub fn run_frozen(&self, g: &FrozenGraph) -> Result<DecompositionReport, FdError> {
        self.run_seeded(g.input(), self.request.seed)
    }

    /// Runs the request across many graphs in parallel (one rayon task per
    /// graph), graph `i` using [`derive_seed`]`(request.seed, i)`. Results
    /// come back in input order; per-graph failures do not abort the batch.
    /// Each graph is frozen exactly once, inside its own task.
    pub fn run_batch(&self, graphs: &[MultiGraph]) -> Vec<Result<DecompositionReport, FdError>> {
        let indexed: Vec<(u64, &MultiGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (i as u64, g))
            .collect();
        indexed
            .par_iter()
            .map(|(i, g)| {
                let csr = CsrGraph::from_multigraph(g);
                self.run_seeded(
                    FrozenInput::new(g, csr.view()),
                    derive_seed(self.request.seed, *i),
                )
            })
            .collect()
    }

    /// [`Decomposer::run_batch`] over pre-frozen graphs: no conversions at
    /// all on the hot path.
    pub fn run_batch_frozen(
        &self,
        graphs: &[FrozenGraph],
    ) -> Vec<Result<DecompositionReport, FdError>> {
        let indexed: Vec<(u64, &FrozenGraph)> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| (i as u64, g))
            .collect();
        indexed
            .par_iter()
            .map(|(i, g)| self.run_seeded(g.input(), derive_seed(self.request.seed, *i)))
            .collect()
    }

    /// Fans `runs` executions of the request across all cores, **sharing one
    /// frozen topology**: run `i` uses [`derive_seed`]`(request.seed, i)`.
    /// This is the seed-sweep / same-graph batch shape — the topology is
    /// frozen once for the whole sweep.
    pub fn run_batch_shared(
        &self,
        g: &FrozenGraph,
        runs: usize,
    ) -> Vec<Result<DecompositionReport, FdError>> {
        let seeds: Vec<u64> = (0..runs as u64)
            .map(|i| derive_seed(self.request.seed, i))
            .collect();
        seeds
            .par_iter()
            .map(|&seed| self.run_seeded(g.input(), seed))
            .collect()
    }

    /// Decomposes one *large* graph by sharding it: splits the frozen
    /// topology into `num_shards` zero-copy shards
    /// ([`CsrPartition`](forest_graph::CsrPartition)) — along a
    /// locality-improving BFS/RCM order when the request's [`ShardingSpec`]
    /// asks for one — decomposes every shard's internal edges in parallel
    /// straight over the borrowed `CsrRef` views (no per-shard thaw; shard
    /// `i` seeded with [`derive_seed`]`(seed, i)`), merges the per-shard
    /// forests directly (shards are vertex-disjoint, so same-colored trees
    /// never touch), and stitches the explicit boundary-edge list — the
    /// paper's compose-per-part-partitions-plus-leftover shape.
    ///
    /// Stitching is two phases. Phase 1 is the augmenting search's
    /// single-step fast path (the shared per-color union-find cache): each
    /// boundary edge joins the first existing forest that keeps its
    /// endpoints apart — linear, and almost always successful because
    /// per-shard forests of different shards start out disconnected. Phase 2
    /// rebuilds the connectivity cache and recolors the residue by the same
    /// first-free-forest rule over *all* colors allocated so far — existing
    /// shard colors are retried before a fresh color is opened, and every
    /// fresh color is reused for later residue edges — so the stitch opens
    /// only as many colors beyond the shard budget as the residue's own
    /// density forces (Theorem 4.6-style: the leftover is sparse, so few).
    ///
    /// The returned report carries the per-shard round ledgers (prefixed
    /// `shard i:`) and the stitch charges in one
    /// [`DecompositionReport::ledger`]. `leftover_edges` counts only edges
    /// that actually went through a leftover/recoloring phase: per-shard
    /// leftovers plus the phase-2 residue — boundary edges placed by the
    /// phase-1 fast path are *not* leftovers, so a cleanly stitched run
    /// reports 0. The report's `arboricity` is the caller's bound when the
    /// request fixes one, otherwise a *lower* bound on the global arboricity
    /// (max per-shard value, floored at the Nash-Williams whole-graph
    /// bound) — boundary edges can push the true value higher, and only an
    /// exact full-graph run pins it down.
    ///
    /// Deterministic for a fixed `(request, num_shards)`: the split order is
    /// a deterministic function of the topology, shard seeds are derived,
    /// shards are merged in index order, and the stitch is sequential.
    ///
    /// # Errors
    ///
    /// Returns [`FdError::InvalidShardCount`] for `num_shards == 0`,
    /// [`FdError::ShardingUnsupported`] for problems other than
    /// [`ProblemKind::Forest`] (per-shard star forests / orientations do not
    /// merge safely across boundary recoloring),
    /// [`FdError::UnsupportedCombination`] for an engine that cannot solve
    /// forests, and propagates any per-shard or stitch failure.
    pub fn run_sharded<'a>(
        &self,
        input: impl Into<GraphInput<'a>>,
        num_shards: usize,
    ) -> Result<DecompositionReport, FdError> {
        if self.request.problem != ProblemKind::Forest {
            return Err(FdError::ShardingUnsupported {
                problem: self.request.problem,
            });
        }
        let sharded = ShardedGraph::split(input, num_shards, self.request.sharding)?;
        self.run_sharded_prepared(&sharded)
    }

    /// [`Decomposer::run_sharded`] over a pre-split graph: no split, no
    /// reordering pass, no conversions at all on the hot path — the sharded
    /// analog of [`Decomposer::run_frozen`]. The [`ShardedGraph`]'s own
    /// split (shard count and reorder) is what runs — the request's
    /// `reorder` only applies when `run_sharded` splits internally — while
    /// the [`StitchPolicy`] is a run-time knob that always comes from the
    /// request (it does not affect how the graph was cut).
    ///
    /// # Errors
    ///
    /// Same as [`Decomposer::run_sharded`], minus the shard-count check the
    /// split already performed.
    pub fn run_sharded_prepared(
        &self,
        sharded: &ShardedGraph,
    ) -> Result<DecompositionReport, FdError> {
        let _span = Span::enter("decomp.run_sharded");
        let start = Stopwatch::start();
        let request = &self.request;
        if request.problem != ProblemKind::Forest {
            return Err(FdError::ShardingUnsupported {
                problem: request.problem,
            });
        }
        let engine = engines::engine_for(request.engine);
        if !engine.supports(request.problem) {
            return Err(FdError::UnsupportedCombination {
                problem: request.problem,
                engine: request.engine,
            });
        }
        let csr = &sharded.csr.view();
        let m = csr.num_edges();
        let partition = &sharded.partition;
        let k = partition.num_shards();
        // Decompose every shard in parallel over zero-copy views — no thaw,
        // no adjacency twin; results come back in shard order, so the merge
        // below is deterministic.
        let shard_ids: Vec<usize> = (0..k).collect();
        let per_shard: Vec<Result<ShardOutcome, FdError>> = shard_ids
            .par_iter()
            .map(|&s| {
                let mut rng = SmallRng::seed_from_u64(derive_seed(request.seed, s as u64));
                engine.decompose_shard(partition.shard(s), request, &mut rng)
            })
            .collect();
        // Merge: shards are vertex-disjoint, so reusing the same color space
        // across shards keeps every class a forest. Colors land straight in
        // the final per-edge array (every edge is written exactly once: the
        // partition covers internal edges shard-by-shard, the stitch covers
        // the boundary). Connectivity is two-level: each shard hands back
        // per-color union-finds over its *local* vertices (built while the
        // shard was cache-hot), and the stitch works over component
        // representatives — two vertices are connected in color `c` iff the
        // stitch forest joins the representatives of their shard-local
        // components — so no whole-graph union pass ever runs here.
        let per_shard = per_shard
            .into_iter()
            .collect::<Result<Vec<ShardOutcome>, FdError>>()?;
        let boundary = partition.boundary_edges().len();
        // The stitch budget must span every color *index* any shard used —
        // HSV colorings leave index gaps, so this is the max color span,
        // not a distinct-color count (gap colors are legal, empty forests).
        let budget = per_shard.iter().map(|o| o.color_span).max().unwrap_or(0);
        let mut colors = vec![forest_graph::Color::new(0); m];
        let mut written = 0usize;
        let mut ledger = RoundLedger::new();
        let mut arboricity = 0usize;
        // Only edges that actually go through a leftover/recoloring phase
        // count: per-shard leftovers now, the phase-2 stitch residue below.
        let mut leftover_edges = 0usize;
        let mut shard_conns = Vec::with_capacity(per_shard.len());
        for (s, outcome) in per_shard.into_iter().enumerate() {
            let fd = outcome.decomposition;
            for (&global, &color) in partition.global_edges(s).iter().zip(fd.colors()) {
                colors[global as usize] = color;
                written += 1;
            }
            shard_conns.push(outcome.connectivity);
            arboricity = arboricity.max(outcome.arboricity);
            leftover_edges += outcome.leftover_edges;
            ledger.absorb(&format!("shard {s}"), outcome.ledger);
        }
        if boundary > 0 {
            let mut stitch = forest_graph::ColorConnectivity::new(csr.num_vertices());
            stitch.prime(budget);
            // The representative of `v`'s component in its shard's color-`c`
            // forest, as a global vertex id (fresh stitch colors have no
            // shard edges, so `v` represents itself).
            let rep = |shard_conns: &mut [forest_graph::ColorConnectivity],
                       c: usize,
                       v: forest_graph::VertexId| {
                if c >= budget {
                    return v;
                }
                let s = partition.shard_of(v);
                match shard_conns[s].cached_forest(forest_graph::Color::new(c)) {
                    Some(uf) => {
                        let root = uf.find(partition.local_vertex(v).index());
                        partition.global_vertex(s, forest_graph::VertexId::new(root))
                    }
                    // A shard that used fewer colors than the budget has no
                    // forest for `c`: every vertex is its own component.
                    None => v,
                }
            };
            // Phase 1: single-step augmentations into the existing shard
            // forests, queried through component representatives.
            let mut stitched_fast = 0usize;
            let mut remaining: Vec<forest_graph::EdgeId> = Vec::new();
            let place = |shard_conns: &mut [forest_graph::ColorConnectivity],
                         stitch: &mut forest_graph::ColorConnectivity,
                         e: forest_graph::EdgeId,
                         total: usize|
             -> Option<forest_graph::Color> {
                let (u, v) = csr.endpoints(e);
                for c in 0..total {
                    let gu = rep(shard_conns, c, u);
                    let gv = rep(shard_conns, c, v);
                    let uf = stitch
                        .cached_forest(forest_graph::Color::new(c))
                        .expect("stitch forests are primed");
                    if gu != gv && !uf.connected(gu.index(), gv.index()) {
                        uf.union(gu.index(), gv.index());
                        return Some(forest_graph::Color::new(c));
                    }
                }
                None
            };
            for &e in partition.boundary_edges() {
                match place(&mut shard_conns, &mut stitch, e, budget) {
                    Some(c) => {
                        colors[e.index()] = c;
                        written += 1;
                        stitched_fast += 1;
                    }
                    None => remaining.push(e),
                }
            }
            if stitched_fast > 0 {
                ledger.charge(
                    format!(
                        "stitch {stitched_fast} of {boundary} boundary edges into existing \
                         forests (single-step augmentations)"
                    ),
                    stitched_fast,
                );
            }
            // Phase 2: the residue. Each residue edge retries every existing
            // color — the shard budget first, then the stitch colors opened
            // so far — and joins the first forest that keeps its endpoints
            // apart, opening a fresh color only when every existing forest
            // connects them. (The two-level connectivity is exact across
            // both phases — shard forests are final and the stitch forests
            // grow only through the placements above — which supersedes the
            // bulk rebuild a lazily-built cache would need before this
            // retry.) Reusing stitch colors across the residue keeps the
            // sharded color count near the shard budget instead of paying a
            // fresh star-forest palette per run.
            if !remaining.is_empty() {
                leftover_edges += remaining.len();
                let mut total_colors = budget;
                for &e in &remaining {
                    let c = match place(&mut shard_conns, &mut stitch, e, total_colors) {
                        Some(c) => c,
                        None => {
                            let fresh = forest_graph::Color::new(total_colors);
                            total_colors += 1;
                            stitch.prime(total_colors);
                            let (u, v) = csr.endpoints(e);
                            stitch
                                .cached_forest(fresh)
                                .expect("freshly primed")
                                .union(u.index(), v.index());
                            fresh
                        }
                    };
                    colors[e.index()] = c;
                    written += 1;
                }
                ledger.charge(
                    format!(
                        "stitch leftover ({} residue boundary edges recolored, {} fresh \
                         colors beyond the shard budget)",
                        remaining.len(),
                        total_colors - budget
                    ),
                    remaining.len(),
                );
            }
        }
        debug_assert_eq!(written, m, "every edge colored exactly once");
        // The per-shard maxima exclude boundary edges, so they can under-shoot
        // the global arboricity (e.g. K4 split in two: each shard sees one
        // edge). Report the caller's bound when given; otherwise at least the
        // Nash-Williams whole-graph lower bound — still a lower bound on the
        // true global alpha, which only an exact full-graph partition could
        // pin down.
        let arboricity = request
            .alpha
            .unwrap_or_else(|| arboricity.max(forest_graph::matroid::arboricity_lower_bound(csr)));
        if request.sharding.stitch == StitchPolicy::ExactAlpha {
            exact_alpha_stitch(csr, &mut colors, arboricity, &mut ledger);
        }
        let decomposition = forest_graph::ForestDecomposition::from_colors(colors);
        let num_colors = decomposition.num_colors_used();
        let max_diameter = {
            let _span = Span::enter("decomp.max_diameter");
            max_forest_diameter(csr, &decomposition.to_partial())
        };
        let mut report = DecompositionReport {
            problem: request.problem,
            engine: request.engine,
            seed: request.seed,
            num_edges: m,
            artifact: Artifact::Decomposition(decomposition),
            lists: None,
            arboricity,
            num_colors,
            max_diameter,
            leftover_edges,
            ledger,
            wall_clock: start.elapsed(),
            validation: ValidationStatus::Skipped,
        };
        FACADE_RUNS.inc();
        FACADE_RUN_NANOS.observe(start.elapsed_nanos());
        if request.validate {
            let _span = Span::enter("decomp.validate");
            report.validate(csr)?;
            report.validation = ValidationStatus::Validated;
        }
        Ok(report)
    }

    fn run_seeded(
        &self,
        input: FrozenInput<'_>,
        seed: u64,
    ) -> Result<DecompositionReport, FdError> {
        let _span = Span::enter("decomp.run");
        let start = Stopwatch::start();
        let request = &self.request;
        let engine = engines::engine_for(request.engine);
        if !engine.supports(request.problem) {
            return Err(FdError::UnsupportedCombination {
                problem: request.problem,
                engine: request.engine,
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let (lists, resolved_alpha) = self.resolve_lists(&input.csr, &mut rng)?;
        // If palette resolution already paid for the exact arboricity, hand
        // the value to the engine instead of letting it recompute it.
        let effective;
        let request = match resolved_alpha {
            Some(alpha) if request.alpha.is_none() => {
                effective = request.clone().with_alpha(alpha);
                &effective
            }
            _ => request,
        };
        let outcome = engine.execute(input, request, lists.as_ref(), &mut rng)?;
        let mut report = DecompositionReport {
            problem: request.problem,
            engine: request.engine,
            seed,
            num_edges: input.csr.num_edges(),
            artifact: outcome.artifact,
            lists,
            arboricity: outcome.arboricity,
            num_colors: outcome.num_colors,
            max_diameter: outcome.max_diameter,
            leftover_edges: outcome.leftover_edges,
            ledger: outcome.ledger,
            wall_clock: start.elapsed(),
            validation: ValidationStatus::Skipped,
        };
        FACADE_RUNS.inc();
        FACADE_RUN_NANOS.observe(start.elapsed_nanos());
        if request.validate {
            let _span = Span::enter("decomp.validate");
            report.validate(&input.csr)?;
            report.validation = ValidationStatus::Validated;
        }
        Ok(report)
    }

    /// Materializes the palettes for list problems (`None` otherwise). Also
    /// returns the exact arboricity when sizing the auto palettes had to
    /// compute it, so the run can reuse it instead of computing it twice.
    #[allow(clippy::type_complexity)]
    fn resolve_lists(
        &self,
        csr: &CsrRef<'_>,
        rng: &mut SmallRng,
    ) -> Result<(Option<ListAssignment>, Option<usize>), FdError> {
        let request = &self.request;
        if !request.problem.is_list() {
            return Ok((None, None));
        }
        let m = csr.num_edges();
        let mut computed_alpha = None;
        let lists = match &request.palettes {
            PaletteSpec::Auto => {
                let alpha = request.alpha.unwrap_or_else(|| {
                    let exact = forest_graph::matroid::arboricity(csr);
                    computed_alpha = Some(exact.max(1));
                    exact
                });
                let alpha = alpha.max(1);
                match request.problem {
                    ProblemKind::ListForest => ListAssignment::uniform(m, 2 * (alpha + 1)),
                    _ => {
                        let palette = 3 * alpha + 6;
                        ListAssignment::random(m, 2 * palette, palette, rng)
                    }
                }
            }
            PaletteSpec::Uniform { colors } => ListAssignment::uniform(m, *colors),
            PaletteSpec::Random { space, size } => ListAssignment::random(m, *space, *size, rng),
            PaletteSpec::Explicit(lists) => {
                if lists.num_edges() != m {
                    return Err(FdError::GraphMismatch {
                        expected_edges: lists.num_edges(),
                        actual_edges: m,
                    });
                }
                lists.clone()
            }
        };
        Ok((Some(lists), computed_alpha))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(7, 0), 7);
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        // Stable across calls.
        assert_eq!(derive_seed(123, 45), derive_seed(123, 45));
    }

    #[test]
    fn same_seed_same_canonical_bytes() {
        let g = generators::fat_path(40, 3);
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_alpha(3)
            .with_seed(99);
        let decomposer = Decomposer::new(request);
        let a = decomposer.run(&g).unwrap();
        let b = decomposer.run(&g).unwrap();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn batch_index_zero_matches_single_run() {
        let g = generators::grid(6, 6);
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .with_seed(5),
        );
        let single = decomposer.run(&g).unwrap();
        let batch = decomposer.run_batch(std::slice::from_ref(&g));
        let first = batch[0].as_ref().unwrap();
        assert_eq!(single.canonical_bytes(), first.canonical_bytes());
    }

    #[test]
    fn unsupported_combination_is_typed() {
        let g = generators::path(8);
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::ListForest).with_engine(Engine::Folklore2Alpha),
        );
        match decomposer.run(&g) {
            Err(FdError::UnsupportedCombination { problem, engine }) => {
                assert_eq!(problem, ProblemKind::ListForest);
                assert_eq!(engine, Engine::Folklore2Alpha);
            }
            other => panic!("expected UnsupportedCombination, got {other:?}"),
        }
    }

    #[test]
    fn explicit_palette_length_is_checked() {
        let g = generators::path(8);
        let lists = ListAssignment::uniform(3, 4);
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::ListForest)
                .with_palettes(PaletteSpec::Explicit(lists)),
        );
        assert!(matches!(
            decomposer.run(&g),
            Err(FdError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn direct_engine_use_without_lists_fails_typed() {
        // The DecompositionEngine trait is the seam future layers plug into;
        // driving it directly without resolved palettes must not panic.
        let g = generators::path(6);
        let frozen = FrozenGraph::freeze(g);
        let request = DecompositionRequest::new(ProblemKind::ListForest);
        let mut rng = SmallRng::seed_from_u64(1);
        let err = engines::engine_for(Engine::HarrisSuVu)
            .execute(frozen.input(), &request, None, &mut rng)
            .unwrap_err();
        assert!(matches!(err, FdError::MissingPalettes { .. }));
    }

    #[test]
    fn orientation_validation_checks_endpoints() {
        // Validating an orientation report against a different graph with the
        // same edge count must fail instead of silently passing.
        let g = generators::path(8);
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Orientation).with_engine(Engine::ExactMatroid),
        )
        .run(&g)
        .unwrap();
        let mut other = forest_graph::MultiGraph::new(8);
        for _ in 0..7usize {
            // Same edge count, different topology (7 parallel (0,1) edges),
            // so the path's tails are no longer endpoints of their edges.
            other
                .add_edge(
                    forest_graph::VertexId::new(0),
                    forest_graph::VertexId::new(1),
                )
                .unwrap();
        }
        assert!(matches!(
            report.validate(&other),
            Err(FdError::InvalidOrientation { .. })
        ));
    }

    #[test]
    fn run_sharded_produces_a_valid_stitched_forest() {
        let mut rng = <rand::rngs::StdRng as SeedableRng>::seed_from_u64(31);
        let g = forest_graph::generators::planted_forest_union(120, 3, &mut rng);
        for engine in [Engine::HarrisSuVu, Engine::ExactMatroid] {
            let decomposer = Decomposer::new(
                DecompositionRequest::new(ProblemKind::Forest)
                    .with_engine(engine)
                    .with_alpha(3)
                    .with_seed(7),
            );
            let report = decomposer.run_sharded(&g, 4).unwrap();
            assert_eq!(report.validation, ValidationStatus::Validated);
            report.validate(&g).unwrap();
            assert!(report.num_colors >= 3, "colors: {}", report.num_colors);
            // Per-shard and stitch charges land in one ledger.
            assert!(report
                .ledger
                .charges()
                .iter()
                .any(|c| c.label.starts_with("shard ")));
            assert!(report
                .ledger
                .charges()
                .iter()
                .any(|c| c.label.starts_with("stitch ")));
            // Deterministic: same request + shard count, same bytes.
            let again = decomposer.run_sharded(&g, 4).unwrap();
            assert_eq!(report.canonical_bytes(), again.canonical_bytes());
        }
    }

    #[test]
    fn run_sharded_rejects_unsupported_problems() {
        let g = generators::path(8);
        let decomposer = Decomposer::new(DecompositionRequest::new(ProblemKind::StarForest));
        assert!(matches!(
            decomposer.run_sharded(&g, 2),
            Err(FdError::ShardingUnsupported {
                problem: ProblemKind::StarForest
            })
        ));
    }

    #[test]
    fn run_sharded_single_shard_has_no_boundary() {
        let g = generators::grid(6, 6);
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .with_seed(3),
        );
        let report = decomposer.run_sharded(&g, 1).unwrap();
        assert_eq!(report.leftover_edges, 0);
        report.validate(&g).unwrap();
    }

    #[test]
    fn validation_can_be_skipped() {
        let g = generators::path(12);
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .without_validation(),
        )
        .run(&g)
        .unwrap();
        assert_eq!(report.validation, ValidationStatus::Skipped);
        assert_eq!(report.num_colors, 1);
    }
}
