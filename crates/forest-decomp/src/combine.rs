//! End-to-end pipelines: Theorem 4.6 (forest decomposition) and
//! Theorem 4.10 (list-forest decomposition).
//!
//! Theorem 4.6 composes the pieces for ordinary colors: Algorithm 2, run
//! with the request's own `ε` on uniform palettes of `⌈(1+ε)α⌉` colors,
//! colors all edges except the CUT leftover; the leftover has
//! pseudo-arboricity `O(εα)` and is recolored into `O(εα)` star forests
//! with fresh colors on top of those `⌈(1+ε)α⌉` via Theorem 2.1(3); an
//! optional diameter-reduction pass (Corollary 2.5) brings every tree down
//! to `O(log n/ε)` or `O(1/ε)` diameter. The colors are checked to form
//! forests once, by the diameter measurement every report makes.
//!
//! When the request fixes no `α`, Theorem 4.6 learns it from the exact
//! matroid partition. If that partition never left its first-fit fast path
//! ([`exchanges`](forest_graph::matroid::ExactForestDecomposition::exchanges)
//! is 0), it is exactly the coloring Algorithm 2's
//! [trivial pass](crate::algorithm2#the-trivial-pass) computes on the
//! palettes `0..⌈(1+ε)α⌉`, so it is handed to Algorithm 2, whose trivial
//! pass adopts it instead of coloring the graph a second time. The output
//! is the same either way; a request with a fixed `α`, a partition that
//! needed exchanges and a non-trivial network decomposition run the pass
//! or the cluster loop as before.
//!
//! A run whose report carries the diameter (a facade run, not a shard of
//! a sharded one) measures the partition's largest tree diameter before
//! Algorithm 2, in the report's `decomp.max_diameter` span. Twice that
//! diameter, when within `2(R+R')`, settles the trivial pass without
//! Algorithm 2's component BFS. When the pass adopts the partition, the
//! partition is the decomposition, so the measurement is the report's and
//! the colors are checked to form forests by it; a diameter reduction
//! recolors, and the report then measures its output instead.
//!
//! Theorem 4.10 handles per-edge palettes: a vertex-color-splitting
//! (Theorem 4.9) reserves a back-up side `Q₁` of every palette; Algorithm 2
//! runs on the main side `Q₀`; the leftover is recolored from `Q₁` (by
//! Theorem 2.3 when the back-up palettes are large enough, otherwise by
//! direct augmentation on the leftover subgraph); Proposition 4.8 guarantees
//! the merge of the two sides is still a list-forest decomposition.

use crate::algorithm2::{
    algorithm2_adopting, algorithm2_frozen, Algorithm2Config, Algorithm2Output, FirstFit,
};
use crate::api::DecompositionRequest;
use crate::augmenting::complete_by_augmentation;
use crate::color_splitting::split_colors_clustered;
use crate::diameter_reduction::reduce_diameter;
use crate::error::{check_epsilon, check_palettes, one_plus_eps_ceil, FdError};
use crate::hpartition::recolor_as_fresh_stars;
use crate::lsfd_degeneracy::list_star_forest_decomposition_degeneracy;
use forest_graph::decomposition::{
    merge_disjoint_colorings, validate_list_coloring, validate_partial_forest_decomposition,
    PartialEdgeColoring,
};
use forest_graph::{EdgeId, ForestDecomposition, GraphView, ListAssignment};
use forest_obs::Span;
use local_model::RoundLedger;
use rand::Rng;
#[expect(
    clippy::disallowed_types,
    reason = "for the lookup-only sets of list_forest_decomposition"
)]
use std::collections::HashSet;

/// What every end-to-end pipeline hands back to the engine dispatch, which
/// counts the colors and measures the diameter once.
#[derive(Clone, Debug)]
pub(crate) struct FdResult {
    /// The complete decomposition (for list problems every color comes from
    /// the edge's palette; for star problems every class is a star forest).
    pub decomposition: ForestDecomposition,
    /// The decomposition's largest tree diameter, when the pipeline has
    /// measured it already (and so checked every class to be a forest).
    pub max_diameter: Option<usize>,
    /// The arboricity bound the run was based on.
    pub arboricity: usize,
    /// Number of edges that went through a leftover recoloring.
    pub leftover_edges: usize,
    /// Round accounting.
    pub ledger: RoundLedger,
}

impl FdResult {
    /// The result on a graph without edges: nothing colored, nothing left
    /// over.
    pub(crate) fn edgeless(arboricity: usize, ledger: RoundLedger) -> Self {
        FdResult {
            decomposition: ForestDecomposition::from_colors(Vec::new()),
            max_diameter: None,
            arboricity,
            leftover_edges: 0,
            ledger,
        }
    }
}

/// The arboricity bound a run is based on: `alpha` when the caller fixed
/// one, otherwise the exact arboricity of `g` (timed as
/// `decomp.arboricity`); at least 1.
pub(crate) fn resolve_alpha<G: GraphView>(g: &G, alpha: Option<usize>) -> usize {
    alpha
        .unwrap_or_else(|| {
            let _span = Span::enter("decomp.arboricity");
            forest_graph::matroid::arboricity(g)
        })
        .max(1)
}

/// Algorithm 2's configuration for a pipeline run at slack `epsilon`: the
/// request's CUT rule and radii override.
fn algorithm2_config(
    request: &DecompositionRequest,
    epsilon: f64,
    alpha: usize,
) -> Algorithm2Config {
    let mut config = Algorithm2Config::new(epsilon, alpha);
    config.cut = request.cut;
    if let Some((r, rp)) = request.radii {
        config = config.with_radii(r, rp);
    }
    config
}

/// Theorem 4.6: `(1+O(ε))α`-forest decomposition over any frozen topology
/// view — an owned CSR, an mmap-backed graph, or a zero-copy `CsrRef`
/// shard. Reads the request's `ε`, `α`, CUT rule, radii and diameter
/// target.
///
/// `measure_diameter` says whether the caller reports the run's largest
/// tree diameter; it then gets it in [`FdResult::max_diameter`] when the
/// run adopted the exact partition and no diameter reduction recolored
/// (see the [module docs](self)).
///
/// # Errors
///
/// Returns an error for invalid parameters or if an internal phase fails.
pub(crate) fn forest_decomposition<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    request: &DecompositionRequest,
    rng: &mut R,
    measure_diameter: bool,
) -> Result<FdResult, FdError> {
    let epsilon = request.epsilon;
    check_epsilon(epsilon)?;
    if csr.num_edges() == 0 {
        return Ok(FdResult::edgeless(0, RoundLedger::new()));
    }
    // With α computed, keep the exact partition when it is plain first-fit
    // over 0..α: the palettes 0..⌈(1+ε)α⌉ start with those colors, so the
    // trivial pass would color every edge the same way.
    let (alpha, first_fit) = match request.alpha {
        Some(alpha) => (alpha.max(1), None),
        None => {
            let exact = {
                let _span = Span::enter("decomp.arboricity");
                forest_graph::matroid::exact_forest_decomposition(csr)
            };
            let first_fit = if exact.exchanges == 0 {
                let max_diameter = if measure_diameter {
                    let _span = Span::enter("decomp.max_diameter");
                    Some(exact.decomposition.max_diameter(csr)?)
                } else {
                    None
                };
                Some(FirstFit {
                    partition: exact.decomposition,
                    max_diameter,
                })
            } else {
                None
            };
            (exact.arboricity.max(1), first_fit)
        }
    };
    let primary_colors = one_plus_eps_ceil(epsilon, alpha);
    let lists = ListAssignment::uniform(csr.num_edges(), primary_colors);
    let config = algorithm2_config(request, epsilon, alpha);
    let (
        Algorithm2Output {
            mut coloring,
            leftover,
            mut ledger,
            ..
        },
        mut max_diameter,
    ) = algorithm2_adopting(csr, &lists, &config, rng, first_fit)?;
    // Recolor the leftover as star forests with fresh colors (Theorem 2.1(3)).
    if !leftover.is_empty() {
        let mask = crate::cut::dense_mask(csr.num_edges(), leftover.iter().copied());
        recolor_as_fresh_stars(csr, &mask, primary_colors, &mut coloring, &mut ledger)?;
    }
    // Optional diameter reduction (Corollary 2.5). It recolors, so the
    // adopted partition's diameter is no longer the decomposition's.
    if let Some(target) = request.diameter_target {
        let reduced = reduce_diameter(csr, &coloring, epsilon, target, rng, &mut ledger)?;
        coloring = reduced.coloring;
        max_diameter = None;
    }
    Ok(FdResult {
        decomposition: coloring.into_complete()?,
        max_diameter,
        arboricity: alpha,
        leftover_edges: leftover.len(),
        ledger,
    })
}

/// Theorem 4.10: `(1+O(ε))α`-list-forest decomposition of a multigraph whose
/// palettes all have at least `⌈(1+ε)α⌉` colors. Reads the request's `ε`,
/// `α`, CUT rule and radii.
///
/// # Errors
///
/// Returns an error if the palettes are too small, the splitting repeatedly
/// fails to leave a large enough main side, or an internal phase fails.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: an empty side-1 splitting and the leftover membership test"
)]
pub(crate) fn list_forest_decomposition<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    lists: &ListAssignment,
    request: &DecompositionRequest,
    rng: &mut R,
) -> Result<FdResult, FdError> {
    let epsilon = request.epsilon;
    check_epsilon(epsilon)?;
    if csr.num_edges() == 0 {
        return Ok(FdResult::edgeless(0, RoundLedger::new()));
    }
    let alpha = resolve_alpha(csr, request.alpha);
    check_palettes(lists, one_plus_eps_ceil(epsilon, alpha))?;
    let mut ledger = RoundLedger::new();
    // Algorithm 2 on the main side needs palettes of size (1 + eps/2) alpha.
    let main_needed = one_plus_eps_ceil(epsilon / 2.0, alpha);
    // Draw the vertex-color-splitting; retry a few times if the main side
    // comes out too small (the paper's w.h.p. guarantee needs alpha >= log n,
    // which bench-scale instances may not satisfy).
    let mut chosen = None;
    for _ in 0..8 {
        let splitting = split_colors_clustered(csr, lists, epsilon, rng, &mut ledger)?;
        let (k0, _k1) = splitting.sizes(csr, lists);
        if k0 >= main_needed {
            chosen = Some(splitting);
            break;
        }
    }
    // Last resort (the paper's guarantee needs alpha >= Omega(log n)): run
    // with every color on the main side; the leftover is then completed by
    // direct augmentation on the original palettes instead of a back-up side.
    let splitting = chosen.unwrap_or_else(|| crate::color_splitting::VertexColorSplitting {
        side1: vec![HashSet::new(); csr.num_vertices()],
    });
    let q0 = splitting.induced_lists(csr, lists, 0);
    let q1 = splitting.induced_lists(csr, lists, 1);

    let config = algorithm2_config(request, epsilon / 2.0, alpha);
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
        let (sub, back) = forest_graph::edge_subgraph(csr, |e| leftover_set.contains(&e));
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
                epsilon,
                pseudo,
                &mut ledger,
            ) {
                Ok(outcome) => Some(outcome.coloring),
                Err(_) => {
                    let mut c = PartialEdgeColoring::new_uncolored(sub.num_edges());
                    complete_by_augmentation(&sub, &sub_lists, &mut c, 16 * csr.num_vertices())
                        .ok()
                        .map(|_| c)
                }
            };
            if let Some(sub_coloring) = sub_coloring {
                if sub_coloring.is_complete() {
                    let mut phi1 = PartialEdgeColoring::new_uncolored(csr.num_edges());
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
                complete_by_augmentation(csr, lists, &mut completed, 16 * csr.num_vertices())?;
                completed
            }
        }
    };
    validate_partial_forest_decomposition(csr, &coloring)?;
    validate_list_coloring(csr, &coloring, lists)?;
    Ok(FdResult {
        decomposition: coloring.into_complete()?,
        max_diameter: None,
        arboricity: alpha,
        leftover_edges: leftover_set.len(),
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ProblemKind;
    use crate::diameter_reduction::DiameterTarget;
    use forest_graph::decomposition::{max_forest_diameter, validate_forest_decomposition};
    use forest_graph::{generators, CsrGraph, MultiGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn request(problem: ProblemKind, epsilon: f64) -> DecompositionRequest {
        DecompositionRequest::new(problem).with_epsilon(epsilon)
    }

    #[test]
    fn theorem_4_6_on_planted_multigraph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(60, 4, &mut rng);
        let csr = CsrGraph::from_multigraph(&g);
        let result =
            forest_decomposition(&csr, &request(ProblemKind::Forest, 0.5), &mut rng, true).unwrap();
        let num_colors = result.decomposition.num_colors_used();
        validate_forest_decomposition(&g, &result.decomposition, Some(num_colors))
            .expect("valid FD");
        // (1 + O(eps)) alpha colors: with eps = 0.5 and the leftover budget,
        // we allow up to 2 alpha + 2.
        assert!(
            num_colors <= 2 * result.arboricity + 2,
            "too many colors: {num_colors} vs alpha {}",
            result.arboricity
        );
        assert!(num_colors >= result.arboricity);
        assert!(result.ledger.total_rounds() > 0);
    }

    #[test]
    fn theorem_4_6_with_diameter_reduction() {
        let g = generators::fat_path(120, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let request = request(ProblemKind::Forest, 0.4)
            .with_alpha(3)
            .with_diameter_target(DiameterTarget::OneOverEpsilon);
        let csr = CsrGraph::from_multigraph(&g);
        let result = forest_decomposition(&csr, &request, &mut rng, true).unwrap();
        validate_forest_decomposition(&g, &result.decomposition, None).expect("valid FD");
        // Diameter O(1/eps): z = ceil(2/0.4) = 5, so at most 2z = 10.
        let max_diameter = max_forest_diameter(&csr, &result.decomposition.to_partial());
        assert!(max_diameter <= 10, "diameter too large: {max_diameter}");
        // Proposition C.1: it also cannot be much smaller than 1/eps unless
        // far more colors are used.
        assert!(max_diameter >= 1);
    }

    #[test]
    fn theorem_4_6_exercises_cut_with_small_radii() {
        let g = generators::fat_path(100, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let request = request(ProblemKind::Forest, 0.5)
            .with_alpha(2)
            .with_radii(8, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let result = forest_decomposition(&csr, &request, &mut rng, true).unwrap();
        validate_forest_decomposition(&g, &result.decomposition, None).expect("valid FD");
        assert!(result.decomposition.num_colors_used() >= 2);
    }

    #[test]
    fn theorem_4_10_with_uniform_lists() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::planted_forest_union(50, 3, &mut rng);
        let alpha = forest_graph::matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), 2 * (alpha + 1));
        let request = request(ProblemKind::ListForest, 0.5).with_alpha(alpha);
        let csr = CsrGraph::from_multigraph(&g);
        let result = list_forest_decomposition(&csr, &lists, &request, &mut rng).unwrap();
        let coloring = result.decomposition.to_partial();
        validate_partial_forest_decomposition(&g, &coloring).expect("valid LFD");
        validate_list_coloring(&g, &coloring, &lists).expect("palettes respected");
    }

    #[test]
    fn theorem_4_10_with_random_lists() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::planted_forest_union(40, 2, &mut rng);
        let alpha = forest_graph::matroid::arboricity(&g);
        let palette_size = 3 * (alpha + 1);
        let lists = ListAssignment::random(g.num_edges(), 2 * palette_size, palette_size, &mut rng);
        let request = request(ProblemKind::ListForest, 0.5).with_alpha(alpha);
        let csr = CsrGraph::from_multigraph(&g);
        let result = list_forest_decomposition(&csr, &lists, &request, &mut rng).unwrap();
        let coloring = result.decomposition.to_partial();
        validate_partial_forest_decomposition(&g, &coloring).expect("valid LFD");
        validate_list_coloring(&g, &coloring, &lists).expect("palettes respected");
    }

    #[test]
    fn theorem_4_10_rejects_small_palettes() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::planted_forest_union(20, 3, &mut rng);
        let lists = ListAssignment::uniform(g.num_edges(), 1);
        let request = request(ProblemKind::ListForest, 0.5).with_alpha(3);
        let csr = CsrGraph::from_multigraph(&g);
        assert_eq!(
            list_forest_decomposition(&csr, &lists, &request, &mut rng).unwrap_err(),
            FdError::PaletteTooSmall {
                edge: EdgeId::new(0),
                needed: 5,
                available: 1
            }
        );
    }

    #[test]
    fn empty_graph_pipelines() {
        let mut rng = StdRng::seed_from_u64(7);
        let csr = CsrGraph::from_multigraph(&MultiGraph::new(3));
        let fd =
            forest_decomposition(&csr, &request(ProblemKind::Forest, 0.5), &mut rng, true).unwrap();
        assert_eq!(fd.decomposition.num_edges(), 0);
        assert_eq!(fd.arboricity, 0);
        let lists = ListAssignment::uniform(0, 1);
        let request = request(ProblemKind::ListForest, 0.5);
        let lfd = list_forest_decomposition(&csr, &lists, &request, &mut rng).unwrap();
        assert_eq!(lfd.decomposition.num_edges(), 0);
        assert_eq!(lfd.arboricity, 0);
    }
}
