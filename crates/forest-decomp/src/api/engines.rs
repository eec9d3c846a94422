//! Engine adapters: the [`DecompositionEngine`] trait and one adapter per
//! [`Engine`], running the pipeline modules over a frozen topology.

use super::report::Artifact;
use super::{DecompositionRequest, Engine, ProblemKind};
use crate::baselines::{barenboim_elkin_forest_decomposition, two_color_star_forests};
use crate::combine::{
    forest_decomposition, forest_decomposition_shard, list_forest_decomposition, FdOptions,
};
use crate::error::FdError;
use crate::orientation::orientation_from_decomposition;
use crate::star_forest::{
    list_star_forest_decomposition_simple, star_forest_decomposition_simple, SfdConfig,
};
use forest_graph::decomposition::max_forest_diameter;
use forest_graph::{
    ColorConnectivity, CsrRef, EdgeId, ForestDecomposition, GraphView, ListAssignment, MultiGraph,
    SimpleGraph,
};
use forest_obs::Span;
use local_model::RoundLedger;
use rand::rngs::SmallRng;
use std::borrow::Cow;

/// One decomposition input, frozen once per request: the compressed-sparse-row
/// view every algorithm runs over, optionally paired with the adjacency-list
/// twin it was frozen from. The [`Decomposer`](super::Decomposer) constructs
/// this at the request boundary and threads it through every engine, so no
/// pipeline re-freezes (and batch runs over the same graph share one freeze —
/// see [`FrozenGraph`](super::FrozenGraph)).
///
/// The CSR side is a zero-copy [`CsrRef`], so the *same* engine code runs
/// over owned arrays, an mmap-backed file, or one shard of a
/// [`CsrPartition`](forest_graph::CsrPartition) — storage is erased at this
/// boundary. The adjacency-list side is **optional**: every forest /
/// orientation path is CSR-only, and CSR-only inputs (shards, mmap files)
/// run without ever materializing a `MultiGraph`. The few simple-graph
/// pipelines that need adjacency lists call [`FrozenInput::thaw`], which
/// borrows the twin when the caller supplied one and thaws from the CSR
/// otherwise.
#[derive(Clone, Copy, Debug)]
pub struct FrozenInput<'a> {
    /// The adjacency-list twin, when the caller has one.
    graph: Option<&'a MultiGraph>,
    /// The frozen CSR topology every hot path runs over, borrowed from
    /// whichever storage owns it.
    pub csr: CsrRef<'a>,
}

impl<'a> FrozenInput<'a> {
    /// An input that carries both representations (the multigraph front
    /// doors: `&MultiGraph`, [`FrozenGraph`](super::FrozenGraph)).
    pub fn new(graph: &'a MultiGraph, csr: CsrRef<'a>) -> Self {
        FrozenInput {
            graph: Some(graph),
            csr,
        }
    }

    /// A CSR-only input (shards, mmap-backed graphs): engines run over the
    /// view directly, thawing only if a simple-graph pipeline demands
    /// adjacency lists.
    pub fn from_csr(csr: CsrRef<'a>) -> Self {
        FrozenInput { graph: None, csr }
    }

    /// The adjacency-list twin, if the caller supplied one.
    pub fn multigraph(&self) -> Option<&'a MultiGraph> {
        self.graph
    }

    /// The adjacency-list form: borrowed when the caller supplied one,
    /// thawed from the CSR otherwise (`O(n + m)`, exact round-trip).
    pub fn thaw(&self) -> Cow<'a, MultiGraph> {
        match self.graph {
            Some(g) => Cow::Borrowed(g),
            None => Cow::Owned(self.csr.to_multigraph()),
        }
    }
}

/// What a shard-level forest decomposition hands back to `run_sharded`:
/// like [`EngineOutcome`] minus the artifact packaging and the per-shard
/// diameter measurement (the stitcher measures once, globally).
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The shard's complete forest decomposition (local edge ids).
    pub decomposition: ForestDecomposition,
    /// Per-color union-finds over the shard's *local* vertices, exactly
    /// covering [`ShardOutcome::decomposition`]. Built while the shard's
    /// arrays are cache-hot; the stitcher queries these through component
    /// representatives instead of re-unioning every internal edge into
    /// whole-graph structures.
    pub connectivity: ColorConnectivity,
    /// The arboricity bound the shard run was based on.
    pub arboricity: usize,
    /// The shard's color id span: max color index + 1. This is what the
    /// stitcher's budget and the primed connectivity must cover — **not**
    /// the count of distinct colors, which under-shoots whenever a coloring
    /// leaves index gaps (the Harris–Su–Vu leftover star colors do).
    pub color_span: usize,
    /// Shard edges that went through a leftover/recoloring phase.
    pub leftover_edges: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

/// What an engine adapter hands back to the [`Decomposer`](super::Decomposer)
/// for packaging into a [`DecompositionReport`](super::DecompositionReport).
#[derive(Clone, Debug)]
pub struct EngineOutcome {
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

/// One algorithm family, adapted to the uniform request/outcome shape.
///
/// This is the seam later subsystems (server, sharding, caching) plug into:
/// implementing the trait and registering the engine is all a new pipeline
/// needs to be reachable from the facade.
pub trait DecompositionEngine: Sync {
    /// The engine this adapter implements.
    fn engine(&self) -> Engine;

    /// Whether the engine can solve `problem` at all.
    fn supports(&self, problem: ProblemKind) -> bool;

    /// Runs the engine on a frozen input. `lists` is `Some` exactly for list
    /// problems (resolved by the `Decomposer` from the request's
    /// [`PaletteSpec`](super::PaletteSpec)).
    fn execute(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
        lists: Option<&ListAssignment>,
        rng: &mut SmallRng,
    ) -> Result<EngineOutcome, FdError>;

    /// Forest-decomposes one zero-copy CSR shard — the `run_sharded` hot
    /// path. No adjacency-list twin is ever built and no per-shard diameter
    /// is measured (the stitcher measures once globally). Engines that
    /// cannot solve [`ProblemKind::Forest`] keep the default, which returns
    /// the same typed error as [`DecompositionEngine::execute`] would.
    fn decompose_shard(
        &self,
        csr: CsrRef<'_>,
        request: &DecompositionRequest,
        rng: &mut SmallRng,
    ) -> Result<ShardOutcome, FdError> {
        let _ = (csr, rng);
        Err(unsupported(ProblemKind::Forest, request.engine))
    }
}

/// Returns the adapter for `engine`.
pub(super) fn engine_for(engine: Engine) -> &'static dyn DecompositionEngine {
    match engine {
        Engine::HarrisSuVu => &HarrisSuVuEngine,
        Engine::BarenboimElkin => &BarenboimElkinEngine,
        Engine::Folklore2Alpha => &Folklore2AlphaEngine,
        Engine::ExactMatroid => &ExactMatroidEngine,
    }
}

fn unsupported(problem: ProblemKind, engine: Engine) -> FdError {
    FdError::UnsupportedCombination { problem, engine }
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

fn fd_options(request: &DecompositionRequest) -> FdOptions {
    let mut options = FdOptions::new(request.epsilon);
    options.alpha = request.alpha;
    options.cut = request.cut;
    options.diameter_target = request.diameter_target;
    options.radii = request.radii;
    options
}

fn resolved_alpha(input: FrozenInput<'_>, request: &DecompositionRequest) -> usize {
    request
        .alpha
        .unwrap_or_else(|| forest_graph::matroid::arboricity(&input.csr))
        .max(1)
}

fn simple_view(g: Cow<'_, MultiGraph>) -> Result<SimpleGraph, FdError> {
    // Cheap borrowing check first so the error path never pays a clone; an
    // already-thawed (owned) graph moves straight in.
    if !g.is_simple() {
        return Err(FdError::NotSimple);
    }
    SimpleGraph::try_from_multigraph(g.into_owned()).map_err(|_| FdError::NotSimple)
}

fn required_lists(
    lists: Option<&ListAssignment>,
    problem: ProblemKind,
) -> Result<&ListAssignment, FdError> {
    lists.ok_or(FdError::MissingPalettes { problem })
}

fn decomposition_outcome<C: GraphView>(
    csr: &C,
    decomposition: ForestDecomposition,
    arboricity: usize,
    leftover_edges: usize,
    ledger: RoundLedger,
) -> EngineOutcome {
    let num_colors = decomposition.num_colors_used();
    let max_diameter = {
        let _span = Span::enter("decomp.max_diameter");
        max_forest_diameter(csr, &decomposition.to_partial())
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
fn orient_outcome<C: GraphView>(csr: &C, outcome: EngineOutcome) -> EngineOutcome {
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

/// The paper's `(1+ε)α` pipelines (Theorems 4.6, 4.10, 5.4, Corollary 1.1).
pub struct HarrisSuVuEngine;

impl HarrisSuVuEngine {
    fn forest(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
        rng: &mut SmallRng,
    ) -> Result<EngineOutcome, FdError> {
        let result = forest_decomposition(&input.csr, &fd_options(request), rng)?;
        Ok(EngineOutcome {
            artifact: Artifact::Decomposition(result.decomposition),
            arboricity: result.arboricity,
            num_colors: result.num_colors,
            max_diameter: result.max_diameter,
            leftover_edges: result.leftover_edges,
            ledger: result.ledger,
        })
    }
}

impl DecompositionEngine for HarrisSuVuEngine {
    fn engine(&self) -> Engine {
        Engine::HarrisSuVu
    }

    fn supports(&self, _problem: ProblemKind) -> bool {
        true
    }

    fn decompose_shard(
        &self,
        csr: CsrRef<'_>,
        request: &DecompositionRequest,
        rng: &mut SmallRng,
    ) -> Result<ShardOutcome, FdError> {
        let result = forest_decomposition_shard(&csr, &fd_options(request), rng)?;
        let span = color_span(&result.decomposition);
        let connectivity = shard_connectivity(&csr, &result.decomposition, span);
        Ok(ShardOutcome {
            decomposition: result.decomposition,
            connectivity,
            arboricity: result.arboricity,
            color_span: span,
            leftover_edges: result.leftover_edges,
            ledger: result.ledger,
        })
    }

    fn execute(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
        lists: Option<&ListAssignment>,
        rng: &mut SmallRng,
    ) -> Result<EngineOutcome, FdError> {
        match request.problem {
            ProblemKind::Forest => self.forest(input, request, rng),
            ProblemKind::Orientation => {
                let forest = self.forest(input, request, rng)?;
                Ok(orient_outcome(&input.csr, forest))
            }
            ProblemKind::ListForest => {
                let lists = required_lists(lists, request.problem)?;
                let g = input.thaw();
                let result =
                    list_forest_decomposition(&g, &input.csr, lists, &fd_options(request), rng)?;
                let decomposition = result.coloring.into_complete()?;
                Ok(EngineOutcome {
                    artifact: Artifact::Decomposition(decomposition),
                    arboricity: result.arboricity,
                    num_colors: result.num_colors,
                    max_diameter: result.max_diameter,
                    leftover_edges: result.leftover_edges,
                    ledger: result.ledger,
                })
            }
            ProblemKind::StarForest => {
                let simple = simple_view(input.thaw())?;
                let alpha = resolved_alpha(input, request);
                let config = SfdConfig::new(request.epsilon).with_alpha(alpha);
                let result = star_forest_decomposition_simple(&simple, &input.csr, &config, rng)?;
                Ok(decomposition_outcome(
                    &input.csr,
                    result.decomposition,
                    alpha,
                    result.leftover_edges,
                    result.ledger,
                ))
            }
            ProblemKind::ListStarForest => {
                let lists = required_lists(lists, request.problem)?;
                let simple = simple_view(input.thaw())?;
                let alpha = resolved_alpha(input, request);
                let config = SfdConfig::new(request.epsilon).with_alpha(alpha);
                let result = list_star_forest_decomposition_simple(
                    &simple, &input.csr, lists, &config, rng,
                )?;
                Ok(decomposition_outcome(
                    &input.csr,
                    result.decomposition,
                    alpha,
                    result.leftover_edges,
                    result.ledger,
                ))
            }
        }
    }
}

/// The `(2+ε)α*` H-partition baseline [BE10].
pub struct BarenboimElkinEngine;

impl BarenboimElkinEngine {
    fn forest(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
    ) -> Result<EngineOutcome, FdError> {
        let bound = request
            .alpha
            .unwrap_or_else(|| forest_graph::orientation::pseudoarboricity(&input.csr))
            .max(1);
        let mut ledger = RoundLedger::new();
        let baseline =
            barenboim_elkin_forest_decomposition(&input.csr, request.epsilon, bound, &mut ledger)?;
        Ok(decomposition_outcome(
            &input.csr,
            baseline.decomposition,
            bound,
            0,
            ledger,
        ))
    }
}

impl DecompositionEngine for BarenboimElkinEngine {
    fn engine(&self) -> Engine {
        Engine::BarenboimElkin
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Forest | ProblemKind::Orientation)
    }

    fn decompose_shard(
        &self,
        csr: CsrRef<'_>,
        request: &DecompositionRequest,
        _rng: &mut SmallRng,
    ) -> Result<ShardOutcome, FdError> {
        let bound = request
            .alpha
            .unwrap_or_else(|| forest_graph::orientation::pseudoarboricity(&csr))
            .max(1);
        let mut ledger = RoundLedger::new();
        let baseline =
            barenboim_elkin_forest_decomposition(&csr, request.epsilon, bound, &mut ledger)?;
        let span = color_span(&baseline.decomposition);
        let connectivity = shard_connectivity(&csr, &baseline.decomposition, span);
        Ok(ShardOutcome {
            decomposition: baseline.decomposition,
            connectivity,
            arboricity: bound,
            color_span: span,
            leftover_edges: 0,
            ledger,
        })
    }

    fn execute(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
        _lists: Option<&ListAssignment>,
        _rng: &mut SmallRng,
    ) -> Result<EngineOutcome, FdError> {
        match request.problem {
            ProblemKind::Forest => self.forest(input, request),
            ProblemKind::Orientation => {
                let forest = self.forest(input, request)?;
                Ok(orient_outcome(&input.csr, forest))
            }
            other => Err(unsupported(other, self.engine())),
        }
    }
}

/// The folklore `α_star ≤ 2α` construction: exact decomposition plus
/// depth-parity two-coloring.
pub struct Folklore2AlphaEngine;

impl DecompositionEngine for Folklore2AlphaEngine {
    fn engine(&self) -> Engine {
        Engine::Folklore2Alpha
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::StarForest)
    }

    fn execute(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
        _lists: Option<&ListAssignment>,
        _rng: &mut SmallRng,
    ) -> Result<EngineOutcome, FdError> {
        if request.problem != ProblemKind::StarForest {
            return Err(unsupported(request.problem, self.engine()));
        }
        let exact = forest_graph::matroid::exact_forest_decomposition(&input.csr);
        let stars = two_color_star_forests(&input.csr, &exact.decomposition);
        let mut ledger = RoundLedger::new();
        ledger.charge(
            "centralized exact decomposition + two-coloring (non-LOCAL)",
            0,
        );
        Ok(decomposition_outcome(
            &input.csr,
            stars,
            exact.arboricity,
            0,
            ledger,
        ))
    }
}

/// The centralized Gabow–Westermann matroid partition (exact `α`).
pub struct ExactMatroidEngine;

impl ExactMatroidEngine {
    fn forest(&self, input: FrozenInput<'_>) -> EngineOutcome {
        let exact = forest_graph::matroid::exact_forest_decomposition(&input.csr);
        let mut ledger = RoundLedger::new();
        ledger.charge("centralized matroid partition (non-LOCAL)", 0);
        decomposition_outcome(&input.csr, exact.decomposition, exact.arboricity, 0, ledger)
    }
}

impl DecompositionEngine for ExactMatroidEngine {
    fn engine(&self) -> Engine {
        Engine::ExactMatroid
    }

    fn supports(&self, problem: ProblemKind) -> bool {
        matches!(problem, ProblemKind::Forest | ProblemKind::Orientation)
    }

    fn decompose_shard(
        &self,
        csr: CsrRef<'_>,
        _request: &DecompositionRequest,
        _rng: &mut SmallRng,
    ) -> Result<ShardOutcome, FdError> {
        let exact = forest_graph::matroid::exact_forest_decomposition(&csr);
        // A minimal matroid partition uses every color 0..alpha, so span and
        // distinct count coincide here.
        let span = color_span(&exact.decomposition);
        // The matroid partition maintained exactly the per-color forests the
        // stitcher needs; hand its cache through instead of rebuilding.
        let connectivity = exact.connectivity;
        let mut ledger = RoundLedger::new();
        ledger.charge("centralized matroid partition (non-LOCAL)", 0);
        Ok(ShardOutcome {
            decomposition: exact.decomposition,
            connectivity,
            arboricity: exact.arboricity,
            color_span: span,
            leftover_edges: 0,
            ledger,
        })
    }

    fn execute(
        &self,
        input: FrozenInput<'_>,
        request: &DecompositionRequest,
        _lists: Option<&ListAssignment>,
        _rng: &mut SmallRng,
    ) -> Result<EngineOutcome, FdError> {
        match request.problem {
            ProblemKind::Forest => Ok(self.forest(input)),
            ProblemKind::Orientation => Ok(orient_outcome(&input.csr, self.forest(input))),
            other => Err(unsupported(other, self.engine())),
        }
    }
}
