//! The request side of the facade: what to decompose, with which engine, and
//! under which knobs.

use crate::algorithm2::CutStrategyKind;
use crate::diameter_reduction::DiameterTarget;
use forest_graph::{ListAssignment, ReorderKind};
use std::fmt;

/// Which decomposition problem a [`DecompositionRequest`] asks for.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Partition the edges into `≈(1+ε)α` forests (Theorem 4.6).
    Forest,
    /// Forest decomposition where every edge must use a color from its own
    /// palette (Theorem 4.10).
    ListForest,
    /// Partition into star forests (Theorem 5.4(1); simple graphs).
    StarForest,
    /// Star forests under per-edge palettes (Theorem 5.4(2); simple graphs).
    ListStarForest,
    /// A `≈(1+ε)α`-out-degree orientation (Corollary 1.1).
    Orientation,
}

impl ProblemKind {
    /// All problem kinds, in declaration order.
    pub const ALL: [ProblemKind; 5] = [
        ProblemKind::Forest,
        ProblemKind::ListForest,
        ProblemKind::StarForest,
        ProblemKind::ListStarForest,
        ProblemKind::Orientation,
    ];

    /// Whether the problem constrains edges to per-edge palettes.
    pub fn is_list(self) -> bool {
        matches!(self, ProblemKind::ListForest | ProblemKind::ListStarForest)
    }
}

impl fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProblemKind::Forest => "forest",
            ProblemKind::ListForest => "list-forest",
            ProblemKind::StarForest => "star-forest",
            ProblemKind::ListStarForest => "list-star-forest",
            ProblemKind::Orientation => "orientation",
        };
        f.write_str(name)
    }
}

/// Which algorithm family executes the request.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The paper's `(1+ε)α` pipelines (Algorithm 2 + CUT, augmentation,
    /// matching-based star forests). Supports every [`ProblemKind`].
    HarrisSuVu,
    /// The classical `(2+ε)α*` H-partition baseline [BE10]. Supports
    /// [`ProblemKind::Forest`] and [`ProblemKind::Orientation`].
    BarenboimElkin,
    /// The folklore `2α` star-forest construction (exact decomposition plus
    /// depth-parity two-coloring). Supports [`ProblemKind::StarForest`].
    Folklore2Alpha,
    /// The centralized Gabow–Westermann matroid partition (exact `α`).
    /// Supports [`ProblemKind::Forest`] and [`ProblemKind::Orientation`].
    ExactMatroid,
}

impl Engine {
    /// All engines, in declaration order.
    pub const ALL: [Engine; 4] = [
        Engine::HarrisSuVu,
        Engine::BarenboimElkin,
        Engine::Folklore2Alpha,
        Engine::ExactMatroid,
    ];
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::HarrisSuVu => "harris-su-vu",
            Engine::BarenboimElkin => "barenboim-elkin",
            Engine::Folklore2Alpha => "folklore-2alpha",
            Engine::ExactMatroid => "exact-matroid",
        };
        f.write_str(name)
    }
}

/// How the palettes of a list problem are obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PaletteSpec {
    /// Derive a comfortable uniform palette from the resolved arboricity
    /// (`2(α+1)` shared colors for list forests, `3α+6` colors drawn from a
    /// doubled space for list star forests).
    Auto,
    /// Every edge gets the same `colors` first colors.
    Uniform {
        /// Shared palette size.
        colors: usize,
    },
    /// Every edge draws `size` distinct colors from a space of `space`
    /// colors, using the request seed (reproducible).
    Random {
        /// Total number of distinct colors available.
        space: usize,
        /// Palette size per edge.
        size: usize,
    },
    /// Explicit per-edge palettes (must match the graph's edge count).
    Explicit(ListAssignment),
}

/// How the sharded stitch finishes once every boundary edge is colored.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum StitchPolicy {
    /// Keep whatever the greedy residue recoloring produced (the default):
    /// on capacity-tight workloads (`m ≈ α(n−1)`) this settles at `α + 1`
    /// colors, because the greedy pass never undoes a shard's choices.
    #[default]
    Greedy,
    /// After the greedy phases, run bounded augmenting exchanges over the
    /// stitched coloring — per-color connectivity riding on the dynamic
    /// subsystem, so each recoloring is a cheap cut-and-link edit — to move
    /// the overflow colors' edges back inside the `α` budget. Closes the
    /// `α + 1` gap on capacity-tight workloads (the grid stitches to
    /// exactly `α`) at a bounded wall-clock cost; when an exchange bound
    /// trips, the extra color simply survives (never an error).
    ExactAlpha,
}

/// How [`Decomposer::run_sharded`](super::Decomposer::run_sharded) cuts the
/// graph into shards and finishes the stitch.
///
/// The default splits contiguous vertex-id ranges (optimal for banded ids
/// like row-major grids). When vertex ids carry no locality — random
/// labelings, hashed ids — set [`ShardingSpec::reorder`] to
/// [`ReorderKind::Bfs`] or [`ReorderKind::Rcm`] to split along a cheap
/// locality-improving order instead, which shrinks the boundary fraction
/// (the quantity that governs stitch cost and sharded color quality).
/// [`ShardingSpec::stitch`] picks between the greedy finish and the
/// exact-α exchange pass. Set both through
/// [`DecompositionRequest::with_shard_reorder`] and
/// [`DecompositionRequest::with_stitch_policy`]. The out-of-core driver
/// honors the stitch policy but cuts the identity order only (any other
/// `reorder` is a typed `FdError::ReorderUnsupported`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardingSpec {
    /// The locality-improving order to split along
    /// ([`ReorderKind::Identity`] = raw vertex ids, the default).
    pub reorder: ReorderKind,
    /// How the stitch finishes ([`StitchPolicy::Greedy`] by default).
    pub stitch: StitchPolicy,
}

/// A complete, self-contained description of one decomposition run.
///
/// Requests are plain data: build one with [`DecompositionRequest::new`] plus
/// the `with_*` knobs, hand it to a [`Decomposer`](super::Decomposer), and
/// re-run it any time — the `seed` makes every run reproducible.
#[derive(Clone, Debug)]
pub struct DecompositionRequest {
    /// The problem to solve.
    pub problem: ProblemKind,
    /// The algorithm family to use.
    pub engine: Engine,
    /// Slack parameter `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Arboricity bound override (`None` = compute exactly per graph).
    pub alpha: Option<usize>,
    /// CUT rule for Algorithm 2 (Harris–Su–Vu engine only).
    pub cut: CutStrategyKind,
    /// Optional diameter-reduction pass (ordinary forest problems only).
    pub diameter_target: Option<DiameterTarget>,
    /// Optional override of Algorithm 2's radii `(R, R')`.
    pub radii: Option<(usize, usize)>,
    /// Palette source for list problems (ignored otherwise).
    pub palettes: PaletteSpec,
    /// How `run_sharded` cuts the graph (ignored by unsharded runs).
    pub sharding: ShardingSpec,
    /// Deterministic seed; two runs of the same request on the same graph
    /// produce identical reports (modulo wall-clock).
    pub seed: u64,
    /// Whether the run validates its artifact before returning.
    pub validate: bool,
}

impl DecompositionRequest {
    /// A request for `problem` with the paper's default knobs: the
    /// Harris–Su–Vu engine, `ε = 0.5`, exact arboricity, depth-modulo CUT,
    /// auto palettes, seed 0 and validation on.
    pub fn new(problem: ProblemKind) -> Self {
        DecompositionRequest {
            problem,
            engine: Engine::HarrisSuVu,
            epsilon: 0.5,
            alpha: None,
            cut: CutStrategyKind::DepthModulo,
            diameter_target: None,
            radii: None,
            palettes: PaletteSpec::Auto,
            sharding: ShardingSpec::default(),
            seed: 0,
            validate: true,
        }
    }

    /// Selects the engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the slack parameter `ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Fixes the arboricity bound instead of computing it exactly.
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Selects the CUT rule.
    pub fn with_cut(mut self, cut: CutStrategyKind) -> Self {
        self.cut = cut;
        self
    }

    /// Requests a diameter-reduction pass.
    pub fn with_diameter_target(mut self, target: DiameterTarget) -> Self {
        self.diameter_target = Some(target);
        self
    }

    /// Overrides Algorithm 2's radii `(R, R')`.
    pub fn with_radii(mut self, cut_radius: usize, locality_radius: usize) -> Self {
        self.radii = Some((cut_radius, locality_radius));
        self
    }

    /// Sets the palette source for list problems.
    pub fn with_palettes(mut self, palettes: PaletteSpec) -> Self {
        self.palettes = palettes;
        self
    }

    /// Shorthand: `run_sharded` splits along the given locality-improving
    /// order ([`ReorderKind::Rcm`] is the right default for graphs whose
    /// vertex ids carry no locality).
    pub fn with_shard_reorder(mut self, reorder: ReorderKind) -> Self {
        self.sharding.reorder = reorder;
        self
    }

    /// Shorthand: sets how the sharded stitch finishes
    /// ([`StitchPolicy::ExactAlpha`] closes the `α + 1` gap on
    /// capacity-tight workloads).
    pub fn with_stitch_policy(mut self, stitch: StitchPolicy) -> Self {
        self.sharding.stitch = stitch;
        self
    }

    /// Sets the deterministic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the validation pass (the report's status records this).
    pub fn without_validation(mut self) -> Self {
        self.validate = false;
        self
    }
}
