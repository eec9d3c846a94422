//! End-to-end pipelines: Theorem 4.6 (forest decomposition) and
//! Theorem 4.10 (list-forest decomposition).
//!
//! Theorem 4.6 composes the pieces for ordinary colors: Algorithm 2 with a
//! slightly shrunk `ε` colors all edges except the CUT leftover; the leftover
//! has pseudo-arboricity `O(εα)` and is recolored into `O(εα)` star forests
//! via Theorem 2.1(3); an optional diameter-reduction pass (Corollary 2.5)
//! brings every tree down to `O(log n/ε)` or `O(1/ε)` diameter.
//!
//! Theorem 4.10 handles per-edge palettes: a vertex-color-splitting
//! (Theorem 4.9) reserves a back-up side `Q₁` of every palette; Algorithm 2
//! runs on the main side `Q₀`; the leftover is recolored from `Q₁` (by
//! Theorem 2.3 when the back-up palettes are large enough, otherwise by
//! direct augmentation on the leftover subgraph); Proposition 4.8 guarantees
//! the merge of the two sides is still a list-forest decomposition.

use crate::algorithm2::{algorithm2_frozen, Algorithm2Config, CutStrategyKind};
use crate::augmenting::complete_by_augmentation;
use crate::color_splitting::split_colors_clustered;
use crate::diameter_reduction::{reduce_diameter, DiameterTarget};
use crate::error::{check_epsilon, FdError};
use crate::hpartition::{acyclic_orientation, h_partition, star_forest_decomposition};
use crate::lsfd_degeneracy::list_star_forest_decomposition_degeneracy;
use forest_graph::decomposition::{
    max_forest_diameter, merge_disjoint_colorings, validate_forest_decomposition,
    validate_list_coloring, validate_partial_forest_decomposition, PartialEdgeColoring,
};
use forest_graph::{Color, EdgeId, ForestDecomposition, GraphView, ListAssignment, MultiGraph};
use forest_obs::Span;
use local_model::RoundLedger;
use rand::Rng;
use std::collections::HashSet;

/// Options shared by the end-to-end pipelines.
#[derive(Clone, Debug)]
pub struct FdOptions {
    /// Slack parameter `ε`.
    pub epsilon: f64,
    /// Arboricity bound (`None` = compute exactly with the matroid baseline).
    pub alpha: Option<usize>,
    /// CUT rule for Algorithm 2.
    pub cut: CutStrategyKind,
    /// Optional diameter-reduction pass at the end (ordinary colors only).
    pub diameter_target: Option<DiameterTarget>,
    /// Optional override of Algorithm 2's radii `(R, R')`, for benchmarks
    /// that want to exercise the CUT machinery on small graphs.
    pub radii: Option<(usize, usize)>,
}

impl FdOptions {
    /// Default options for the given `ε`.
    pub fn new(epsilon: f64) -> Self {
        FdOptions {
            epsilon,
            alpha: None,
            cut: CutStrategyKind::DepthModulo,
            diameter_target: None,
            radii: None,
        }
    }

    /// Fixes the arboricity bound.
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Requests a diameter-reduction pass.
    pub fn with_diameter_target(mut self, target: DiameterTarget) -> Self {
        self.diameter_target = Some(target);
        self
    }

    /// Uses the conditioned-sampling CUT rule.
    pub fn with_conditioned_sampling(mut self) -> Self {
        self.cut = CutStrategyKind::ConditionedSampling;
        self
    }

    /// Overrides Algorithm 2's radii.
    pub fn with_radii(mut self, cut_radius: usize, locality_radius: usize) -> Self {
        self.radii = Some((cut_radius, locality_radius));
        self
    }
}

/// Result of the Theorem 4.6 pipeline.
#[derive(Clone, Debug)]
pub struct FdResult {
    /// The complete forest decomposition.
    pub decomposition: ForestDecomposition,
    /// Number of distinct colors used.
    pub num_colors: usize,
    /// The arboricity bound the run was based on.
    pub arboricity: usize,
    /// Maximum tree diameter of the decomposition.
    pub max_diameter: usize,
    /// Number of edges that went through the leftover recoloring.
    pub leftover_edges: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

/// Theorem 4.6: `(1+O(ε))α`-forest decomposition over any frozen topology
/// view — an owned CSR, an mmap-backed graph, or a zero-copy `CsrRef` shard
/// (the `Decomposer` facade freezes once per request; the thaw-free sharded
/// pipeline feeds shard views straight in).
///
/// # Errors
///
/// Returns an error for invalid parameters or if an internal phase fails.
pub(crate) fn forest_decomposition<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    options: &FdOptions,
    rng: &mut R,
) -> Result<FdResult, FdError> {
    forest_decomposition_impl(csr, options, rng, true)
}

/// [`forest_decomposition`] without the final diameter measurement
/// (`max_diameter` reported as 0) — the shard fast path: `run_sharded`
/// measures the diameter once globally after stitching, so per-shard
/// measurement would only duplicate a whole-graph BFS pass.
pub(crate) fn forest_decomposition_shard<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    options: &FdOptions,
    rng: &mut R,
) -> Result<FdResult, FdError> {
    forest_decomposition_impl(csr, options, rng, false)
}

fn forest_decomposition_impl<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    options: &FdOptions,
    rng: &mut R,
    measure_diameter: bool,
) -> Result<FdResult, FdError> {
    check_epsilon(options.epsilon)?;
    if csr.num_edges() == 0 {
        return Ok(FdResult {
            decomposition: ForestDecomposition::from_colors(Vec::new()),
            num_colors: 0,
            arboricity: 0,
            max_diameter: 0,
            leftover_edges: 0,
            ledger: RoundLedger::new(),
        });
    }
    let alpha = options
        .alpha
        .unwrap_or_else(|| {
            let _span = Span::enter("decomp.arboricity");
            forest_graph::matroid::arboricity(csr)
        })
        .max(1);
    let primary_colors = ((1.0 + options.epsilon) * alpha as f64).ceil() as usize;
    let lists = ListAssignment::uniform(csr.num_edges(), primary_colors);
    let mut config = Algorithm2Config::new(options.epsilon, alpha);
    config.cut = options.cut;
    if let Some((r, rp)) = options.radii {
        config = config.with_radii(r, rp);
    }
    let out = algorithm2_frozen(csr, &lists, &config, rng)?;
    let mut ledger = out.ledger.clone();
    let mut coloring = out.coloring.clone();
    // Recolor the leftover as star forests with fresh colors (Theorem 2.1(3)).
    if !out.leftover.is_empty() {
        let leftover_mask = crate::cut::dense_mask(csr.num_edges(), out.leftover.iter().copied());
        let (sub, back) = forest_graph::edge_subgraph(csr, |e| leftover_mask[e.index()]);
        let pseudo = forest_graph::orientation::pseudoarboricity(&sub).max(1);
        let hp = h_partition(&sub, 0.5, pseudo, &mut ledger)?;
        let sub_orientation = acyclic_orientation(&sub, &hp);
        let sfd = star_forest_decomposition(&sub, &sub_orientation, &mut ledger);
        for (i, &orig) in back.iter().enumerate() {
            coloring.set(
                orig,
                Color::new(primary_colors + sfd.color(EdgeId::new(i)).index()),
            );
        }
    }
    // Optional diameter reduction (Corollary 2.5).
    if let Some(target) = options.diameter_target {
        let reduced = reduce_diameter(csr, &coloring, options.epsilon, target, rng, &mut ledger)?;
        coloring = reduced.coloring;
    }
    let decomposition = coloring.into_complete()?;
    {
        let _span = Span::enter("decomp.forest_check");
        validate_forest_decomposition(csr, &decomposition, None)?;
    }
    let num_colors = decomposition.num_colors_used();
    let max_diameter = if measure_diameter {
        let _span = Span::enter("decomp.max_diameter");
        max_forest_diameter(csr, &decomposition.to_partial())
    } else {
        0
    };
    Ok(FdResult {
        decomposition,
        num_colors,
        arboricity: alpha,
        max_diameter,
        leftover_edges: out.leftover.len(),
        ledger,
    })
}

/// Result of the Theorem 4.10 pipeline.
#[derive(Clone, Debug)]
pub struct LfdResult {
    /// The complete list-forest coloring (every color comes from the edge's
    /// palette).
    pub coloring: PartialEdgeColoring,
    /// Number of distinct colors used.
    pub num_colors: usize,
    /// The arboricity bound the run was based on.
    pub arboricity: usize,
    /// Maximum tree diameter of the decomposition.
    pub max_diameter: usize,
    /// Number of leftover edges recolored from the back-up palettes.
    pub leftover_edges: usize,
    /// How many times the vertex-color-splitting had to be redrawn before the
    /// main side was large enough.
    pub splitting_retries: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

/// Theorem 4.10: `(1+O(ε))α`-list-forest decomposition of a multigraph whose
/// palettes all have at least `⌈(1+ε)α⌉` colors.
///
/// # Errors
///
/// Returns an error if the palettes are too small, the splitting repeatedly
/// fails to leave a large enough main side, or an internal phase fails.
pub(crate) fn list_forest_decomposition<C: GraphView, R: Rng + ?Sized>(
    g: &MultiGraph,
    csr: &C,
    lists: &ListAssignment,
    options: &FdOptions,
    rng: &mut R,
) -> Result<LfdResult, FdError> {
    check_epsilon(options.epsilon)?;
    if g.num_edges() == 0 {
        return Ok(LfdResult {
            coloring: PartialEdgeColoring::new_uncolored(0),
            num_colors: 0,
            arboricity: 0,
            max_diameter: 0,
            leftover_edges: 0,
            splitting_retries: 0,
            ledger: RoundLedger::new(),
        });
    }
    let alpha = options
        .alpha
        .unwrap_or_else(|| forest_graph::matroid::arboricity(g))
        .max(1);
    let needed = ((1.0 + options.epsilon) * alpha as f64).ceil() as usize;
    for e in g.edge_ids() {
        if lists.palette(e).len() < needed {
            return Err(FdError::PaletteTooSmall {
                edge: e,
                needed,
                available: lists.palette(e).len(),
            });
        }
    }
    let mut ledger = RoundLedger::new();
    // Algorithm 2 on the main side needs palettes of size (1 + eps/2) alpha.
    let main_needed = ((1.0 + options.epsilon / 2.0) * alpha as f64).ceil() as usize;
    // Draw the vertex-color-splitting; retry a few times if the main side
    // comes out too small (the paper's w.h.p. guarantee needs alpha >= log n,
    // which bench-scale instances may not satisfy).
    let mut splitting_retries = 0usize;
    let mut chosen = None;
    for attempt in 0..8 {
        let splitting = split_colors_clustered(g, lists, options.epsilon, rng, &mut ledger)?;
        let (k0, _k1) = splitting.sizes(g, lists);
        if k0 >= main_needed {
            splitting_retries = attempt;
            chosen = Some(splitting);
            break;
        }
        splitting_retries = attempt + 1;
    }
    // Last resort (the paper's guarantee needs alpha >= Omega(log n)): run
    // with every color on the main side; the leftover is then completed by
    // direct augmentation on the original palettes instead of a back-up side.
    let splitting = chosen.unwrap_or_else(|| crate::color_splitting::VertexColorSplitting {
        side1: vec![HashSet::new(); g.num_vertices()],
    });
    let q0 = splitting.induced_lists(g, lists, 0);
    let q1 = splitting.induced_lists(g, lists, 1);

    let mut config = Algorithm2Config::new(options.epsilon / 2.0, alpha);
    config.cut = options.cut;
    if let Some((r, rp)) = options.radii {
        config = config.with_radii(r, rp);
    }
    let out = algorithm2_frozen(csr, &q0, &config, rng)?;
    ledger.absorb("algorithm2", out.ledger.clone());
    let phi0 = out.coloring.clone();

    // Recolor the leftover. Preferred route (Theorem 4.10): use the back-up
    // palettes Q1 and merge by Proposition 4.8. That requires every leftover
    // edge to still have back-up colors; when it does not (small bench-scale
    // palettes), fall back to completing phi0 by direct augmentation on the
    // original palettes, which is always valid but forgoes the reserved
    // back-up colors.
    let leftover_set: HashSet<EdgeId> = out.leftover.iter().copied().collect();
    let coloring = if leftover_set.is_empty() {
        phi0
    } else {
        let (sub, back) = g.edge_subgraph(|e| leftover_set.contains(&e));
        let backup_ok = back.iter().all(|&orig| !q1.palette(orig).is_empty());
        let mut via_backup = None;
        if backup_ok {
            let sub_lists = ListAssignment::from_palettes(
                back.iter().map(|&orig| q1.palette(orig).to_vec()).collect(),
            );
            let pseudo = forest_graph::orientation::pseudoarboricity(&sub).max(1);
            // Try the Theorem 2.3 LSFD first, then augmentation on the
            // leftover subgraph, both against the back-up palettes.
            let sub_coloring = match list_star_forest_decomposition_degeneracy(
                &sub,
                &sub_lists,
                options.epsilon,
                pseudo,
                &mut ledger,
            ) {
                Ok(outcome) => Some(outcome.coloring),
                Err(_) => {
                    let mut c = PartialEdgeColoring::new_uncolored(sub.num_edges());
                    complete_by_augmentation(&sub, &sub_lists, &mut c, 16 * g.num_vertices())
                        .ok()
                        .map(|_| c)
                }
            };
            if let Some(sub_coloring) = sub_coloring {
                if sub_coloring.is_complete() {
                    let mut phi1 = PartialEdgeColoring::new_uncolored(g.num_edges());
                    for (i, &orig) in back.iter().enumerate() {
                        if let Some(c) = sub_coloring.color(EdgeId::new(i)) {
                            phi1.set(orig, c);
                        }
                    }
                    // Proposition 4.8: the merge of the two sides is a valid
                    // list-forest decomposition.
                    via_backup = Some(merge_disjoint_colorings(&phi0, &phi1, 0));
                }
            }
        }
        match via_backup {
            Some(merged) => merged,
            None => {
                // Fallback: finish phi0 directly with the original palettes.
                let mut completed = phi0;
                complete_by_augmentation(g, lists, &mut completed, 16 * g.num_vertices())?;
                completed
            }
        }
    };
    validate_partial_forest_decomposition(csr, &coloring)?;
    validate_list_coloring(csr, &coloring, lists)?;
    let num_colors = coloring.num_colors_used();
    let max_diameter = {
        let _span = Span::enter("decomp.max_diameter");
        max_forest_diameter(csr, &coloring)
    };
    Ok(LfdResult {
        coloring,
        num_colors,
        arboricity: alpha,
        max_diameter,
        leftover_edges: leftover_set.len(),
        splitting_retries,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::{generators, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theorem_4_6_on_planted_multigraph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(60, 4, &mut rng);
        let options = FdOptions::new(0.5);
        let csr = CsrGraph::from_multigraph(&g);
        let result = forest_decomposition(&csr, &options, &mut rng).unwrap();
        validate_forest_decomposition(&g, &result.decomposition, Some(result.num_colors))
            .expect("valid FD");
        // (1 + O(eps)) alpha colors: with eps = 0.5 and the leftover budget,
        // we allow up to 2 alpha + 2.
        assert!(
            result.num_colors <= 2 * result.arboricity + 2,
            "too many colors: {} vs alpha {}",
            result.num_colors,
            result.arboricity
        );
        assert!(result.num_colors >= result.arboricity);
        assert!(result.ledger.total_rounds() > 0);
    }

    #[test]
    fn theorem_4_6_with_diameter_reduction() {
        let g = generators::fat_path(120, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let options = FdOptions::new(0.4)
            .with_alpha(3)
            .with_diameter_target(DiameterTarget::OneOverEpsilon);
        let csr = CsrGraph::from_multigraph(&g);
        let result = forest_decomposition(&csr, &options, &mut rng).unwrap();
        validate_forest_decomposition(&g, &result.decomposition, Some(result.num_colors))
            .expect("valid FD");
        // Diameter O(1/eps): z = ceil(2/0.4) = 5, so at most 2z = 10.
        assert!(
            result.max_diameter <= 10,
            "diameter too large: {}",
            result.max_diameter
        );
        // Proposition C.1: it also cannot be much smaller than 1/eps unless
        // far more colors are used.
        assert!(result.max_diameter >= 1);
    }

    #[test]
    fn theorem_4_6_exercises_cut_with_small_radii() {
        let g = generators::fat_path(100, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let options = FdOptions::new(0.5).with_alpha(2).with_radii(8, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let result = forest_decomposition(&csr, &options, &mut rng).unwrap();
        validate_forest_decomposition(&g, &result.decomposition, Some(result.num_colors))
            .expect("valid FD");
        assert!(result.num_colors >= 2);
    }

    #[test]
    fn theorem_4_10_with_uniform_lists() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::planted_forest_union(50, 3, &mut rng);
        let alpha = forest_graph::matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), 2 * (alpha + 1));
        let options = FdOptions::new(0.5).with_alpha(alpha);
        let csr = CsrGraph::from_multigraph(&g);
        let result = list_forest_decomposition(&g, &csr, &lists, &options, &mut rng).unwrap();
        assert!(result.coloring.is_complete());
        validate_partial_forest_decomposition(&g, &result.coloring).expect("valid LFD");
        validate_list_coloring(&g, &result.coloring, &lists).expect("palettes respected");
    }

    #[test]
    fn theorem_4_10_with_random_lists() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::planted_forest_union(40, 2, &mut rng);
        let alpha = forest_graph::matroid::arboricity(&g);
        let palette_size = 3 * (alpha + 1);
        let lists = ListAssignment::random(g.num_edges(), 2 * palette_size, palette_size, &mut rng);
        let options = FdOptions::new(0.5).with_alpha(alpha);
        let csr = CsrGraph::from_multigraph(&g);
        let result = list_forest_decomposition(&g, &csr, &lists, &options, &mut rng).unwrap();
        validate_partial_forest_decomposition(&g, &result.coloring).expect("valid LFD");
        validate_list_coloring(&g, &result.coloring, &lists).expect("palettes respected");
    }

    #[test]
    fn theorem_4_10_rejects_small_palettes() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::planted_forest_union(20, 3, &mut rng);
        let lists = ListAssignment::uniform(g.num_edges(), 1);
        let options = FdOptions::new(0.5).with_alpha(3);
        let csr = CsrGraph::from_multigraph(&g);
        assert!(matches!(
            list_forest_decomposition(&g, &csr, &lists, &options, &mut rng),
            Err(FdError::PaletteTooSmall { .. })
        ));
    }

    #[test]
    fn empty_graph_pipelines() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = MultiGraph::new(3);
        let csr = CsrGraph::from_multigraph(&g);
        let options = FdOptions::new(0.5);
        let fd = forest_decomposition(&csr, &options, &mut rng).unwrap();
        assert_eq!(fd.num_colors, 0);
        let lists = ListAssignment::uniform(0, 1);
        let lfd = list_forest_decomposition(&g, &csr, &lists, &options, &mut rng).unwrap();
        assert_eq!(lfd.num_colors, 0);
    }
}
