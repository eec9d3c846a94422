//! Engine dispatch: one `match` on the request's [`Engine`] and
//! [`ProblemKind`], running the pipeline modules over a frozen [`CsrRef`].
//!
//! Every input reaches this module as a zero-copy `CsrRef` — owned arrays,
//! an mmap-backed file or one shard of a
//! [`CsrPartition`](forest_graph::CsrPartition) — and every pipeline reads
//! that view and the request only. [`execute`] serves
//! [`Decomposer::run`](super::Decomposer::run) and
//! [`Decomposer::run_batch`](super::Decomposer::run_batch);
//! [`decompose_shard`] serves both sharded drivers through the `stitch`
//! module. Each run's diameter is measured once, in
//! [`decomposition_outcome`]; shard runs measure none (the stitch measures
//! the whole graph once).

use super::report::Artifact;
use super::{DecompositionRequest, Engine, ProblemKind};
use crate::baselines::{barenboim_elkin_forest_decomposition, two_color_star_forests};
use crate::combine::{forest_decomposition, list_forest_decomposition, resolve_alpha, FdResult};
use crate::error::FdError;
use crate::orientation::orientation_from_decomposition;
use crate::star_forest::{list_star_forest_decomposition_simple, star_forest_decomposition_simple};
use forest_graph::{
    ColorConnectivity, CsrRef, EdgeId, ForestDecomposition, GraphView, ListAssignment,
};
use forest_obs::Span;
use local_model::RoundLedger;
use rand::rngs::SmallRng;

/// What a shard-level forest decomposition hands back to the stitch: like
/// [`EngineOutcome`] minus the artifact packaging and the per-shard
/// diameter measurement (the stitch measures once, globally).
#[derive(Clone, Debug)]
pub(super) struct ShardOutcome {
    /// The shard's complete forest decomposition (local edge ids).
    pub decomposition: ForestDecomposition,
    /// Per-color union-finds over the shard's *local* vertices, exactly
    /// covering [`ShardOutcome::decomposition`]. Built while the shard's
    /// arrays are cache-hot; the stitch queries these through component
    /// representatives instead of re-unioning every internal edge into
    /// whole-graph structures.
    pub connectivity: ColorConnectivity,
    /// The arboricity bound the shard run was based on.
    pub arboricity: usize,
    /// The shard's color id span: max color index + 1. This is what the
    /// stitch's budget and the primed connectivity must cover — **not**
    /// the count of distinct colors, which under-shoots whenever a coloring
    /// leaves index gaps (the Harris–Su–Vu leftover star colors do).
    pub color_span: usize,
    /// Shard edges that went through a leftover/recoloring phase.
    pub leftover_edges: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

/// What [`execute`] hands back to the [`Decomposer`](super::Decomposer)
/// for packaging into a [`DecompositionReport`](super::DecompositionReport).
#[derive(Clone, Debug)]
pub(super) struct EngineOutcome {
    /// The produced artifact.
    pub artifact: Artifact,
    /// The arboricity (or pseudo-arboricity) bound the run was based on.
    pub arboricity: usize,
    /// Colors / forests used.
    pub num_colors: usize,
    /// Maximum tree diameter of the (underlying) decomposition.
    pub max_diameter: usize,
    /// Edges that went through a leftover/recoloring phase.
    pub leftover_edges: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

/// Whether `engine` can solve `problem` at all:
///
/// * Harris–Su–Vu, the paper's `(1+ε)α` pipelines (Theorems 4.6, 4.10, 5.4
///   and Corollary 1.1), solves every problem;
/// * Barenboim–Elkin, the `(2+ε)α*` H-partition baseline, and the exact
///   Gabow–Westermann matroid partition solve forests and orientations;
/// * the folklore `α_star ≤ 2α` construction (exact decomposition plus
///   depth-parity two-coloring) solves star forests.
pub(super) fn supports(engine: Engine, problem: ProblemKind) -> bool {
    match engine {
        Engine::HarrisSuVu => true,
        Engine::BarenboimElkin | Engine::ExactMatroid => {
            matches!(problem, ProblemKind::Forest | ProblemKind::Orientation)
        }
        Engine::Folklore2Alpha => problem == ProblemKind::StarForest,
    }
}

/// Runs `request` on a frozen input. `lists` is `Some` exactly for list
/// problems (resolved by the `Decomposer` from the request's
/// [`PaletteSpec`](super::PaletteSpec)).
///
/// # Errors
///
/// [`FdError::UnsupportedCombination`] for a pair [`supports`] rejects,
/// [`FdError::MissingPalettes`] for a list problem without `lists`,
/// [`FdError::NotSimple`] for a star problem on a multigraph, and every
/// pipeline error.
pub(super) fn execute(
    csr: CsrRef<'_>,
    request: &DecompositionRequest,
    lists: Option<&ListAssignment>,
    rng: &mut SmallRng,
) -> Result<EngineOutcome, FdError> {
    let result = match (request.engine, request.problem) {
        (Engine::HarrisSuVu, ProblemKind::Forest | ProblemKind::Orientation) => {
            forest_decomposition(&csr, request, rng)?
        }
        (Engine::HarrisSuVu, ProblemKind::ListForest) => {
            let lists = required_lists(lists, request.problem)?;
            list_forest_decomposition(&csr, lists, request, rng)?
        }
        (Engine::HarrisSuVu, ProblemKind::StarForest) => {
            require_simple(&csr)?;
            let alpha = resolve_alpha(&csr, request.alpha);
            star_forest_decomposition_simple(&csr, request.epsilon, alpha, rng)?
        }
        (Engine::HarrisSuVu, ProblemKind::ListStarForest) => {
            let lists = required_lists(lists, request.problem)?;
            require_simple(&csr)?;
            let alpha = resolve_alpha(&csr, request.alpha);
            list_star_forest_decomposition_simple(&csr, lists, request.epsilon, alpha, rng)?
        }
        (Engine::BarenboimElkin, ProblemKind::Forest | ProblemKind::Orientation) => {
            barenboim_elkin(&csr, request)?
        }
        (Engine::Folklore2Alpha, ProblemKind::StarForest) => {
            let exact = forest_graph::matroid::exact_forest_decomposition(&csr);
            let mut ledger = RoundLedger::new();
            ledger.charge(
                "centralized exact decomposition + two-coloring (non-LOCAL)",
                0,
            );
            FdResult {
                decomposition: two_color_star_forests(&csr, &exact.decomposition),
                arboricity: exact.arboricity,
                leftover_edges: 0,
                ledger,
            }
        }
        (Engine::ExactMatroid, ProblemKind::Forest | ProblemKind::Orientation) => {
            exact_matroid(&csr).0
        }
        (engine, problem) => return Err(unsupported(problem, engine)),
    };
    let outcome = decomposition_outcome(&csr, result);
    Ok(if request.problem == ProblemKind::Orientation {
        orient_outcome(&csr, outcome)
    } else {
        outcome
    })
}

/// Forest-decomposes one zero-copy CSR shard — the sharded drivers' hot
/// path. No per-shard diameter is measured (the stitch measures once
/// globally).
///
/// # Errors
///
/// [`FdError::UnsupportedCombination`] for an engine that cannot solve
/// [`ProblemKind::Forest`], and every pipeline error.
pub(super) fn decompose_shard(
    csr: CsrRef<'_>,
    request: &DecompositionRequest,
    rng: &mut SmallRng,
) -> Result<ShardOutcome, FdError> {
    let (result, connectivity) = match request.engine {
        Engine::HarrisSuVu => (forest_decomposition(&csr, request, rng)?, None),
        Engine::BarenboimElkin => (barenboim_elkin(&csr, request)?, None),
        Engine::ExactMatroid => {
            // The matroid partition maintained exactly the per-color forests
            // the stitch needs; hand its cache through instead of rebuilding.
            let (result, connectivity) = exact_matroid(&csr);
            (result, Some(connectivity))
        }
        Engine::Folklore2Alpha => return Err(unsupported(ProblemKind::Forest, request.engine)),
    };
    let span = color_span(&result.decomposition);
    let connectivity =
        connectivity.unwrap_or_else(|| shard_connectivity(&csr, &result.decomposition, span));
    Ok(ShardOutcome {
        decomposition: result.decomposition,
        connectivity,
        arboricity: result.arboricity,
        color_span: span,
        leftover_edges: result.leftover_edges,
        ledger: result.ledger,
    })
}

fn unsupported(problem: ProblemKind, engine: Engine) -> FdError {
    FdError::UnsupportedCombination { problem, engine }
}

fn required_lists(
    lists: Option<&ListAssignment>,
    problem: ProblemKind,
) -> Result<&ListAssignment, FdError> {
    lists.ok_or(FdError::MissingPalettes { problem })
}

/// The simple-graph precondition of the star-forest pipelines (Section 5):
/// no self-loop and no two edges on one vertex pair. One pass over the
/// incidence lists, remembering for every vertex the last neighbor list it
/// appeared in.
fn require_simple<G: GraphView>(g: &G) -> Result<(), FdError> {
    let mut seen_from = vec![usize::MAX; g.num_vertices()];
    for v in g.vertices() {
        for w in g.neighbors(v) {
            if w == v || seen_from[w.index()] == v.index() {
                return Err(FdError::NotSimple);
            }
            seen_from[w.index()] = v.index();
        }
    }
    Ok(())
}

/// The `(2+ε)α*` H-partition baseline of Barenboim and Elkin, bounded by
/// the request's α or the exact pseudo-arboricity (at least 1).
fn barenboim_elkin(csr: &CsrRef<'_>, request: &DecompositionRequest) -> Result<FdResult, FdError> {
    let bound = request
        .alpha
        .unwrap_or_else(|| forest_graph::orientation::pseudoarboricity(csr))
        .max(1);
    let mut ledger = RoundLedger::new();
    let baseline = barenboim_elkin_forest_decomposition(csr, request.epsilon, bound, &mut ledger)?;
    Ok(FdResult {
        decomposition: baseline.decomposition,
        arboricity: bound,
        leftover_edges: 0,
        ledger,
    })
}

/// The centralized Gabow–Westermann matroid partition (exact `α`), with
/// the per-color union-finds it maintained.
fn exact_matroid(csr: &CsrRef<'_>) -> (FdResult, ColorConnectivity) {
    let exact = forest_graph::matroid::exact_forest_decomposition(csr);
    let mut ledger = RoundLedger::new();
    ledger.charge("centralized matroid partition (non-LOCAL)", 0);
    let result = FdResult {
        decomposition: exact.decomposition,
        arboricity: exact.arboricity,
        leftover_edges: 0,
        ledger,
    };
    (result, exact.connectivity)
}

/// The color id span of a complete coloring: max color index + 1 (0 when
/// edgeless). Distinct-color counts are NOT a substitute — colorings with
/// index gaps (HSV leftover star colors) would leave the gap colors
/// unprimed, and [`ColorConnectivity::insert`] silently drops edges of
/// unprimed colors.
fn color_span(fd: &ForestDecomposition) -> usize {
    fd.colors().iter().map(|c| c.index() + 1).max().unwrap_or(0)
}

/// Per-color union-finds over a shard's local vertices, covering `fd`
/// exactly — built right after the shard decomposition while its arrays are
/// still cache-resident. `span` must be at least [`color_span`]`(fd)`.
fn shard_connectivity(
    csr: &CsrRef<'_>,
    fd: &ForestDecomposition,
    span: usize,
) -> ColorConnectivity {
    debug_assert!(span >= color_span(fd));
    let mut conn = ColorConnectivity::new(csr.num_vertices());
    conn.prime(span);
    for (i, &c) in fd.colors().iter().enumerate() {
        let (u, v) = csr.endpoints(EdgeId::new(i));
        conn.insert(c, u, v);
    }
    conn
}

/// Packages a pipeline result, measuring its color count and its maximum
/// tree diameter once.
fn decomposition_outcome(csr: &CsrRef<'_>, result: FdResult) -> EngineOutcome {
    let FdResult {
        decomposition,
        arboricity,
        leftover_edges,
        ledger,
    } = result;
    let num_colors = decomposition.num_colors_used();
    let max_diameter = {
        let _span = Span::enter("decomp.max_diameter");
        decomposition.max_diameter(csr)
    };
    EngineOutcome {
        artifact: Artifact::Decomposition(decomposition),
        arboricity,
        num_colors,
        max_diameter,
        leftover_edges,
        ledger,
    }
}

/// Turns a complete forest decomposition into an orientation outcome by
/// rooting every tree and orienting toward the root (Corollary 1.1).
fn orient_outcome(csr: &CsrRef<'_>, outcome: EngineOutcome) -> EngineOutcome {
    let EngineOutcome {
        artifact,
        arboricity,
        num_colors,
        max_diameter,
        leftover_edges,
        mut ledger,
    } = outcome;
    let decomposition = match artifact {
        Artifact::Decomposition(fd) => fd,
        Artifact::Orientation { .. } => unreachable!("orient_outcome takes decompositions"),
    };
    ledger.charge("orient each tree toward its root", max_diameter.max(1));
    let orientation = orientation_from_decomposition(csr, &decomposition);
    let max_out_degree = orientation.max_out_degree(csr);
    EngineOutcome {
        artifact: Artifact::Orientation {
            orientation,
            max_out_degree,
        },
        arboricity,
        num_colors,
        max_diameter,
        leftover_edges,
        ledger,
    }
}
