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
//! * `&MultiGraph` / `MultiGraph` — frozen to a
//!   [`CsrGraph`](forest_graph::CsrGraph) once per run;
//! * `&CsrGraph` / `CsrGraph` — frozen once by the caller
//!   ([`CsrGraph::from_multigraph`](forest_graph::CsrGraph::from_multigraph)),
//!   zero conversions on the hot path;
//! * [`GraphInput::from_mmap`] — an on-disk CSR file
//!   ([`MmapCsr`](forest_graph::MmapCsr), versioned little-endian format);
//!   engines run directly over the mapped arrays.
//!
//! Each input becomes one zero-copy [`CsrRef`], and every engine reads that
//! view and the request, nothing else: no pipeline sees adjacency lists.
//!
//! # Scale: batching and sharding
//!
//! Reproducibility is first-class: a run derives an owned
//! [`SmallRng`] from the request seed, so the same
//! request on the same graph produces a byte-identical report
//! ([`DecompositionReport::canonical_bytes`]). There is one entry point per
//! job:
//!
//! * [`Decomposer::run_batch`] fans one request across any iterator of
//!   inputs on all cores, with per-input derived seeds ([`derive_seed`]) —
//!   many graphs, or one frozen [`CsrGraph`](forest_graph::CsrGraph)
//!   repeated for a seed sweep;
//! * [`Decomposer::run_sharded`] decomposes one *large* graph by cutting
//!   its frozen topology into contiguous shards ([`ShardPlan`]) — after
//!   relabelling it along an opt-in BFS/RCM locality order
//!   ([`ShardingSpec`], [`ReorderKind`]) when vertex ids are not already
//!   banded — extracting and decomposing the shards in parallel;
//! * [`Decomposer::run_out_of_core`] does the same from an on-disk CSR file
//!   under a memory budget, one shard at a time (identity order only).
//!
//! Both sharded drivers share one plan, one per-shard step and one boundary
//! stitch (the private `stitch` module): boundary edges join the shard
//! forests where they fit, the residue is recolored reusing colors, and the
//! optional [`StitchPolicy::ExactAlpha`] exchange pass closes the `α + 1`
//! gap on capacity-tight workloads.
//!
//! # Streams: the [`DynamicDecomposer`]
//!
//! Graphs that mutate between queries don't re-freeze: the
//! [`dynamic`] module's [`DynamicDecomposer`] ingests [`EdgeUpdate`]s and
//! keeps a valid forest coloring alive after every update — one Euler-tour
//! forest per color class for connectivity, repairs confined to one
//! augmenting exchange, color budget
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
mod stitch;
pub mod versioned;

pub use dynamic::{
    BatchReport, DeltaReport, DynamicDecomposer, DynamicStats, EdgeUpdate, UpdatePath,
};
pub use input::GraphInput;
pub use oocore::{OocConfig, OocOutcome, OocStats};
pub use report::{Artifact, DecompositionReport, Validate, ValidationStatus};
pub use request::{
    DecompositionRequest, Engine, PaletteSpec, ProblemKind, ShardingSpec, StitchPolicy,
};
pub use versioned::{ArboricityWatermark, ColoringSnapshot, SnapshotReader, VersionedDecomposer};

pub use forest_graph::ReorderKind;

use crate::error::{one_plus_eps_ceil, FdError};
use engines::ShardOutcome;
use forest_graph::{reorder, Color, CsrRef, GraphView, ListAssignment, ShardPlan};
use forest_obs::{clock::Stopwatch, Span};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use stitch::Stitch;

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

/// Fails a Harris–Su–Vu request whose fixed α sizes its `⌈(1+ε)α⌉`
/// palette past the `u32` color ids, before anything is allocated.
fn check_alpha(request: &DecompositionRequest) -> Result<(), FdError> {
    if let (Some(alpha), Engine::HarrisSuVu) = (request.alpha, request.engine) {
        color_space(alpha, Some(one_plus_eps_ceil(request.epsilon, alpha)))?;
    }
    Ok(())
}

/// `space` when the ids `0..space` all fit in `u32`; an overflowed
/// (`None`) or larger space is [`FdError::AlphaTooLarge`].
fn color_space(alpha: usize, space: Option<usize>) -> Result<usize, FdError> {
    space
        .filter(|&s| u32::try_from(s.saturating_sub(1)).is_ok())
        .ok_or(FdError::AlphaTooLarge { alpha })
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
    /// `&CsrGraph`, [`GraphInput::from_mmap`] outputs — with the request's
    /// own seed.
    ///
    /// The input is frozen at most once (not at all when it arrives frozen),
    /// and identical topologies produce byte-identical reports regardless of
    /// which storage backs them.
    ///
    /// # Errors
    ///
    /// Returns [`FdError::UnsupportedCombination`] for an engine that cannot
    /// solve the requested problem, [`FdError::AlphaTooLarge`] for a fixed α
    /// whose palette needs color ids past `u32::MAX`, and propagates every
    /// pipeline error; the facade never panics on any `(problem, engine)`
    /// pair.
    pub fn run<'a>(
        &self,
        input: impl Into<GraphInput<'a>>,
    ) -> Result<DecompositionReport, FdError> {
        let input = input.into();
        let mut scratch = None;
        self.run_seeded(input.resolve(&mut scratch), self.request.seed)
    }

    /// Runs the request across many inputs in parallel (one rayon task per
    /// input), input `i` using [`derive_seed`]`(request.seed, i)`. Any
    /// iterator of [`GraphInput`] conversions works: `&graphs` for a slice
    /// of multigraphs, `iter::repeat_n(&csr, n)` for a seed sweep over one
    /// [`CsrGraph`](forest_graph::CsrGraph) (frozen once for the whole
    /// sweep), or a mix of kinds. Results come back in input order;
    /// per-input failures do not abort the batch. Each unfrozen input is
    /// frozen exactly once, inside its own task.
    pub fn run_batch<'a, I>(&self, inputs: I) -> Vec<Result<DecompositionReport, FdError>>
    where
        I: IntoIterator,
        I::Item: Into<GraphInput<'a>>,
    {
        let indexed: Vec<(u64, GraphInput<'a>)> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| (i as u64, input.into()))
            .collect();
        indexed
            .par_iter()
            .map(|(i, input)| {
                let mut scratch = None;
                self.run_seeded(
                    input.resolve(&mut scratch),
                    derive_seed(self.request.seed, *i),
                )
            })
            .collect()
    }

    /// Decomposes one *large* graph by sharding it: cuts the frozen
    /// topology into `num_shards` contiguous shards ([`ShardPlan`]) — of
    /// the graph relabelled along a locality-improving BFS/RCM order
    /// ([`reorder::permute`]) when the request's [`ShardingSpec`] asks for
    /// one — extracts and decomposes every shard's internal edges in
    /// parallel (shard `i` seeded with [`derive_seed`]`(seed, i)`), merges
    /// the per-shard forests directly (shards are vertex-disjoint, so
    /// same-colored trees never touch), and stitches the explicit
    /// boundary-edge list through the two-phase stitch of the private
    /// `stitch` module — the paper's
    /// compose-per-part-partitions-plus-leftover shape, shared with
    /// [`Decomposer::run_out_of_core`].
    ///
    /// The returned report carries the per-shard round ledgers (prefixed
    /// `shard i:`) and the stitch charges in one
    /// [`DecompositionReport::ledger`]. `leftover_edges` counts only edges
    /// that actually went through a leftover/recoloring phase: per-shard
    /// leftovers plus the stitch residue — boundary edges placed by the
    /// single-step fast path are *not* leftovers, so a cleanly stitched run
    /// reports 0. The report's `arboricity` is the caller's bound when the
    /// request fixes one, otherwise a *lower* bound on the global arboricity
    /// (max per-shard value, floored at the Nash-Williams whole-graph
    /// bound) — boundary edges can push the true value higher, and only an
    /// exact full-graph run pins it down.
    ///
    /// Deterministic for a fixed `(request, num_shards)`: the relabelling
    /// order is a deterministic function of the topology, shard seeds are
    /// derived, shards are merged in index order, and the stitch is
    /// sequential.
    ///
    /// # Errors
    ///
    /// Returns [`FdError::ShardingUnsupported`] for problems other than
    /// [`ProblemKind::Forest`] (per-shard star forests / orientations do not
    /// merge safely across boundary recoloring),
    /// [`FdError::UnsupportedCombination`] for an engine that cannot solve
    /// forests, [`FdError::AlphaTooLarge`] as for [`Decomposer::run`],
    /// [`FdError::InvalidShardCount`] for `num_shards == 0`, and propagates
    /// any per-shard or validation failure.
    pub fn run_sharded<'a>(
        &self,
        input: impl Into<GraphInput<'a>>,
        num_shards: usize,
    ) -> Result<DecompositionReport, FdError> {
        let _span = Span::enter("decomp.run_sharded");
        let start = Stopwatch::start();
        let request = &self.request;
        stitch::check_sharded(request)?;
        if num_shards == 0 {
            return Err(FdError::InvalidShardCount { requested: 0 });
        }
        let input = input.into();
        let mut scratch = None;
        let csr = input.resolve(&mut scratch);
        // A split along an order is the identity split of the graph
        // relabelled along it; edge ids, and so colors, are unchanged.
        let relabelled = request
            .sharding
            .reorder
            .order(&csr)
            .map(|perm| reorder::permute(&csr, &perm));
        let planned = relabelled.as_ref().map_or(csr, |g| g.view());
        let plan = ShardPlan::new(&planned, num_shards);
        let k = plan.num_shards();
        // Extract and decompose every shard in parallel; results come back
        // in shard order, so the merge below is deterministic.
        let shard_ids: Vec<usize> = (0..k).collect();
        let per_shard: Vec<Result<(Vec<u32>, ShardOutcome), FdError>> = shard_ids
            .par_iter()
            .map(|&s| stitch::decompose_planned_shard(planned, &plan, s, request))
            .collect();
        let per_shard = per_shard.into_iter().collect::<Result<Vec<_>, FdError>>()?;
        // Merge: shards are vertex-disjoint, so reusing the same color space
        // across shards keeps every class a forest. Every edge is written
        // exactly once: the plan covers internal edges shard by shard, the
        // stitch covers the boundary.
        let boundary = plan.boundary_edges(&planned);
        let by_shard = stitch::boundary_vertices(&planned, &boundary, &plan);
        let mut colors = vec![Color::new(0); csr.num_edges()];
        let mut written = 0usize;
        let mut stitch = Stitch::default();
        for (s, (global_edges, outcome)) in per_shard.into_iter().enumerate() {
            for (&global, &color) in global_edges.iter().zip(outcome.decomposition.colors()) {
                colors[global as usize] = color;
                written += 1;
            }
            stitch.absorb(s, outcome, &by_shard[s], &plan);
        }
        for (&e, c) in boundary.iter().zip(stitch.stitch(&planned, &boundary)) {
            colors[e.index()] = c;
            written += 1;
        }
        debug_assert_eq!(written, csr.num_edges(), "every edge colored exactly once");
        stitch.finish(request, &csr, colors, &start)
    }

    fn run_seeded(&self, csr: CsrRef<'_>, seed: u64) -> Result<DecompositionReport, FdError> {
        let _span = Span::enter("decomp.run");
        let start = Stopwatch::start();
        let request = &self.request;
        if !engines::supports(request.engine, request.problem) {
            return Err(FdError::UnsupportedCombination {
                problem: request.problem,
                engine: request.engine,
            });
        }
        check_alpha(request)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let (lists, resolved_alpha) = self.resolve_lists(&csr, &mut rng)?;
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
        let outcome = engines::execute(csr, request, lists.as_ref(), &mut rng)?;
        let mut report = DecompositionReport {
            problem: request.problem,
            engine: request.engine,
            seed,
            num_edges: csr.num_edges(),
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
        if request.validate {
            let _span = Span::enter("decomp.validate");
            report.validate(&csr)?;
            report.validation = ValidationStatus::Validated;
        }
        Ok(report)
    }

    /// Materializes the palettes for list problems (`None` otherwise). Also
    /// returns the exact arboricity when sizing the auto palettes had to
    /// compute it, so the run can reuse it instead of computing it twice.
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
                    let _span = Span::enter("decomp.arboricity");
                    let exact = forest_graph::matroid::arboricity(csr);
                    computed_alpha = Some(exact.max(1));
                    exact
                });
                let alpha = alpha.max(1);
                // `2(α+1)` colors, or `3α+6` of `2(3α+6)`: a fixed α may
                // size these past the color ids.
                let space = color_space(
                    alpha,
                    match request.problem {
                        ProblemKind::ListForest => alpha.checked_add(1),
                        _ => alpha.checked_mul(3).and_then(|a| a.checked_add(6)),
                    }
                    .and_then(|palette| palette.checked_mul(2)),
                )?;
                match request.problem {
                    ProblemKind::ListForest => ListAssignment::uniform(m, space),
                    _ => ListAssignment::random(m, space, space / 2, rng),
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
    use forest_graph::{generators, CsrGraph};

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
        // Dispatching a list problem without resolved palettes (every caller
        // but the facade's run path) must fail typed, not panic.
        let csr = CsrGraph::from_multigraph(&generators::path(6));
        let mut rng = SmallRng::seed_from_u64(1);
        for problem in [ProblemKind::ListForest, ProblemKind::ListStarForest] {
            let request = DecompositionRequest::new(problem);
            let err = engines::execute(csr.view(), &request, None, &mut rng).unwrap_err();
            assert!(matches!(err, FdError::MissingPalettes { .. }));
        }
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
