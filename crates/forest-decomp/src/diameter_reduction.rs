//! Diameter reduction for forest decompositions
//! (Proposition 2.4 and Corollary 2.5).
//!
//! Given any (list-)forest decomposition, the trees may be arbitrarily deep.
//! The reduction roots every tree of every color class at its minimum vertex
//! (the [rooting kernel](forest_graph::decomposition#rooting-kernel)),
//! deletes one random depth layer out of every `z` consecutive layers, and
//! recolors the deleted edges with `O(εα)` fresh colors as star forests
//! via Theorem 2.1(3), the recoloring the Theorem 4.6 and 5.4(1) leftovers
//! take too. The surviving trees have diameter `O(z)`:
//!
//! * `z = Θ(log n / ε)` works for every `α` (Proposition 2.4, first case);
//! * `z = Θ(1/ε)` needs `α ≥ Ω(min(log n / ε, log Δ / ε²))` for the new-color
//!   budget to hold w.h.p. (second case) — with smaller `α` the reduction
//!   still produces a valid decomposition, just with more extra colors, which
//!   the benchmarks report.
//!
//! Proposition C.1 shows the `Ω(1/ε)` diameter is optimal for multigraphs.

use crate::error::{check_epsilon, FdError};
use crate::hpartition::recolor_as_fresh_stars;
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::GraphView;
use local_model::rounds::costs;
use local_model::RoundLedger;
use rand::Rng;
use std::collections::BTreeMap;

/// Target diameter regime of the reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiameterTarget {
    /// Diameter `O(log n / ε)` — always applicable (Proposition 2.4 case 1).
    LogOverEpsilon,
    /// Diameter `O(1/ε)` — the paper needs `α ≥ Ω(min(log n/ε, log Δ/ε²))`
    /// for the color budget (Proposition 2.4 case 2, Corollary 2.5).
    OneOverEpsilon,
}

/// Outcome of a diameter reduction. Its largest tree diameter is
/// [`max_forest_diameter`](forest_graph::decomposition::max_forest_diameter)
/// of [`coloring`](Self::coloring); the reduction does not measure it.
#[derive(Clone, Debug)]
pub struct DiameterReductionOutcome {
    /// The new coloring: kept edges keep their colors, deleted edges receive
    /// fresh colors above every color of the input. Edges that were
    /// uncolored on input stay uncolored.
    pub coloring: PartialEdgeColoring,
    /// Number of fresh colors used for the recolored (deleted) edges.
    pub num_new_colors: usize,
    /// Number of edges that were deleted from their original class.
    pub removed_edges: usize,
    /// The layer spacing `z` that was used.
    pub layer_spacing: usize,
}

/// Reduces the diameter of every color class of `coloring` to `O(z)` where
/// `z` depends on `target`, recoloring the deleted layers with fresh colors
/// (starting right above the largest color currently in use).
///
/// # Errors
///
/// Returns an error for invalid `ε`, for a coloring that is not a partial
/// forest decomposition of `g` (wrong length, or a class with a cycle), or
/// if the recoloring of the deleted edges fails.
pub fn reduce_diameter<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    coloring: &PartialEdgeColoring,
    epsilon: f64,
    target: DiameterTarget,
    rng: &mut R,
    ledger: &mut RoundLedger,
) -> Result<DiameterReductionOutcome, FdError> {
    check_epsilon(epsilon)?;
    let n = g.num_vertices();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "ceilings of finite positive spacings; `as` saturates"
    )]
    let layer_spacing = match target {
        DiameterTarget::LogOverEpsilon => {
            (((costs::ln_ceil(n).max(1) as f64) / epsilon).ceil() as usize).max(2)
        }
        DiameterTarget::OneOverEpsilon => ((2.0 / epsilon).ceil() as usize).max(2),
    };
    // The whole procedure (rooting, one layer-deletion round, recoloring the
    // deleted edges) is local to each tree; charge O(z) rounds for the tree
    // operations.
    ledger.charge(
        format!("diameter reduction (layer spacing {layer_spacing})"),
        layer_spacing,
    );

    // Root every tree at its minimum vertex, draw one layer offset per
    // color class, and delete every edge whose child sits at that offset
    // modulo `z`. Drawing in ascending color order fixes the RNG stream.
    let rooted = coloring.rooted_edges(g)?;
    let offsets: BTreeMap<_, _> = coloring
        .colors_used()
        .into_iter()
        .map(|c| (c, rng.gen_range(0..layer_spacing)))
        .collect();
    let mut result = coloring.clone();
    let mut deleted = vec![false; g.num_edges()];
    let mut removed_edges = 0;
    for e in g.edge_ids() {
        if let (Some(c), Some(r)) = (coloring.color(e), rooted[e.index()]) {
            if r.depth % layer_spacing == offsets[&c] {
                result.clear(e);
                deleted[e.index()] = true;
                removed_edges += 1;
            }
        }
    }

    // Recolor the deleted edges as star forests with fresh colors
    // (Theorem 2.1(3) applied to the deleted subgraph).
    let first_color = offsets.keys().next_back().map_or(0, |c| c.index() + 1);
    let num_new_colors = if removed_edges > 0 {
        recolor_as_fresh_stars(g, &deleted, first_color, &mut result, ledger)?
    } else {
        0
    };
    Ok(DiameterReductionOutcome {
        coloring: result,
        num_new_colors,
        removed_edges,
        layer_spacing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{
        max_forest_diameter, validate_partial_forest_decomposition, ForestDecomposition,
    };
    use forest_graph::{generators, Color, EdgeId, MultiGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A single very deep tree (a path) in one color.
    fn deep_path_coloring(n: usize) -> (MultiGraph, PartialEdgeColoring) {
        let g = generators::path(n);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for e in g.edge_ids() {
            coloring.set(e, Color::new(0));
        }
        (g, coloring)
    }

    #[test]
    fn reduces_path_diameter_to_one_over_eps() {
        let (g, coloring) = deep_path_coloring(300);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ledger = RoundLedger::new();
        let out = reduce_diameter(
            &g,
            &coloring,
            0.25,
            DiameterTarget::OneOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        validate_partial_forest_decomposition(&g, &out.coloring).expect("still a forest per color");
        assert!(out.coloring.is_complete());
        // z = ceil(2/0.25) = 8; surviving runs have at most z-1 edges, and the
        // recolored edges form stars (diameter <= 2).
        let diameter = max_forest_diameter(&g, &out.coloring);
        assert!(diameter <= 2 * out.layer_spacing, "diameter {diameter}");
        assert!(diameter < 299, "diameter did not shrink");
        assert!(out.removed_edges > 0);
        assert!(out.num_new_colors >= 1);
    }

    #[test]
    fn reduces_diameter_in_log_regime() {
        let (g, coloring) = deep_path_coloring(400);
        let mut rng = StdRng::seed_from_u64(2);
        let mut ledger = RoundLedger::new();
        let out = reduce_diameter(
            &g,
            &coloring,
            0.5,
            DiameterTarget::LogOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        assert!(max_forest_diameter(&g, &out.coloring) <= 2 * out.layer_spacing);
        validate_partial_forest_decomposition(&g, &out.coloring).expect("valid");
    }

    #[test]
    fn multi_color_decomposition_is_reduced_per_color() {
        // A fat path with 2 parallel edges, exactly decomposed into 2 deep
        // path-forests by the matroid baseline.
        let g = generators::fat_path(150, 2);
        let exact = forest_graph::matroid::exact_forest_decomposition(&g);
        assert_eq!(exact.arboricity, 2);
        let coloring = exact.decomposition.to_partial();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ledger = RoundLedger::new();
        let out = reduce_diameter(
            &g,
            &coloring,
            0.3,
            DiameterTarget::OneOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        validate_partial_forest_decomposition(&g, &out.coloring).expect("valid");
        assert!(max_forest_diameter(&g, &out.coloring) <= 2 * out.layer_spacing);
        // The number of extra colors stays modest on this benign instance.
        assert!(
            out.num_new_colors <= 3 * 2 * 3,
            "too many new colors: {}",
            out.num_new_colors
        );
    }

    #[test]
    fn uncolored_edges_are_left_alone() {
        let (g, mut coloring) = deep_path_coloring(50);
        coloring.clear(EdgeId::new(10));
        let mut rng = StdRng::seed_from_u64(4);
        let mut ledger = RoundLedger::new();
        let out = reduce_diameter(
            &g,
            &coloring,
            0.4,
            DiameterTarget::OneOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(out.coloring.color(EdgeId::new(10)), None);
    }

    #[test]
    fn already_shallow_decomposition_needs_no_new_colors_often() {
        // A star-forest decomposition already has diameter <= 2 < z, but the
        // layer deletion may still hit depth-1 vertices when the random
        // offset is small; we only check validity and the diameter bound.
        let g = generators::star(20);
        let fd = ForestDecomposition::from_colors(vec![Color::new(0); 20]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ledger = RoundLedger::new();
        let out = reduce_diameter(
            &g,
            &fd.to_partial(),
            0.5,
            DiameterTarget::OneOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        validate_partial_forest_decomposition(&g, &out.coloring).expect("valid");
        assert!(max_forest_diameter(&g, &out.coloring) <= 2);
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let (g, coloring) = deep_path_coloring(10);
        let mut rng = StdRng::seed_from_u64(6);
        let mut ledger = RoundLedger::new();
        assert!(reduce_diameter(
            &g,
            &coloring,
            0.0,
            DiameterTarget::OneOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .is_err());
    }

    #[test]
    fn proposition_c1_lower_bound_shape() {
        // Proposition C.1: on the fat path any alpha(1+eps)-FD has diameter
        // Omega(1/eps). Check that our reduced decomposition, which uses
        // roughly (1+eps)-times alpha colors, indeed has diameter on the
        // order of 1/eps rather than O(1).
        let g = generators::fat_path(200, 3);
        let exact = forest_graph::matroid::exact_forest_decomposition(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let mut ledger = RoundLedger::new();
        let epsilon = 0.2;
        let out = reduce_diameter(
            &g,
            &exact.decomposition.to_partial(),
            epsilon,
            DiameterTarget::OneOverEpsilon,
            &mut rng,
            &mut ledger,
        )
        .unwrap();
        // Diameter stays Theta(1/eps): at most 2z = O(1/eps)...
        let diameter = max_forest_diameter(&g, &out.coloring);
        assert!(diameter <= 2 * out.layer_spacing);
        // ...and the decomposition cannot be much shallower than 1/(2 eps)
        // unless it spent far more than (1+eps) alpha colors (C.1 lower bound).
        let total_colors = out.coloring.num_colors_used();
        if total_colors <= ((1.0 + epsilon) * 3.0).ceil() as usize {
            assert!(diameter as f64 >= 1.0 / (4.0 * epsilon));
        }
    }
}
