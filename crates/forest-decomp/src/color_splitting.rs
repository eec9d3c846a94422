//! Vertex-color-splitting (Definition 4.7, Proposition 4.8, Theorem 4.9).
//!
//! For the list version of the main theorem the color space must be split
//! *per vertex* into two sides `C_{v,0} ⊔ C_{v,1}`: side 0 feeds the main
//! augmentation pipeline, side 1 is reserved as back-up colors for the
//! leftover edges. The induced palettes are
//! `Q_i(uv) = Q(uv) ∩ C_{u,i} ∩ C_{v,i}`, and Proposition 4.8 shows that any
//! two list-forest decompositions built on the two sides combine into one.
//!
//! Theorem 4.9 gives two randomized constructions. The list pipeline uses
//! the first, implemented here: (for `α ≥ Ω(log n)`) one MPX partial
//! network decomposition per color, with each cluster flipping a biased
//! coin for the whole cluster. The second (for `ε²α ≥ Ω(log Δ)`: fully
//! independent per-(vertex, color) coins repaired with the Lovász Local
//! Lemma) is not implemented.

use crate::error::{check_epsilon, FdError};
use forest_graph::{Color, EdgeId, ListAssignment, MultiGraph, VertexId};
use local_model::{partial_network_decomposition, RoundLedger};
use rand::Rng;
use std::collections::HashSet;

/// A per-vertex split of the color space into side 0 and side 1.
#[derive(Clone, Debug)]
pub struct VertexColorSplitting {
    /// For each vertex, the colors assigned to side 1 (`C_{v,1}`); every
    /// other color is on side 0.
    pub side1: Vec<HashSet<Color>>,
}

impl VertexColorSplitting {
    /// Which side color `c` is on at vertex `v` (0 or 1).
    pub fn side(&self, v: VertexId, c: Color) -> usize {
        usize::from(self.side1[v.index()].contains(&c))
    }

    /// The induced palettes `Q_i(uv) = Q(uv) ∩ C_{u,i} ∩ C_{v,i}`.
    pub fn induced_lists(
        &self,
        g: &MultiGraph,
        lists: &ListAssignment,
        side: usize,
    ) -> ListAssignment {
        lists.filter(|e, c| {
            let (u, v) = g.endpoints(e);
            self.side(u, c) == side && self.side(v, c) == side
        })
    }

    /// The splitting sizes `(k_0, k_1)`: the minimum induced palette size on
    /// each side.
    pub fn sizes(&self, g: &MultiGraph, lists: &ListAssignment) -> (usize, usize) {
        (
            self.induced_lists(g, lists, 0).min_palette_size(),
            self.induced_lists(g, lists, 1).min_palette_size(),
        )
    }
}

fn all_colors(lists: &ListAssignment) -> Vec<Color> {
    let mut colors: Vec<Color> = (0..lists.num_edges())
        .flat_map(|i| lists.palette(EdgeId::new(i)).to_vec())
        .collect();
    colors.sort_unstable();
    colors.dedup();
    colors
}

/// Theorem 4.9(1): per-color MPX clustering with a biased per-cluster coin.
/// Intended for `α ≥ Ω(log n)`; always returns a valid splitting, whose sizes
/// the caller should check via [`VertexColorSplitting::sizes`].
///
/// # Errors
///
/// Returns an error for an invalid `ε`.
pub fn split_colors_clustered<R: Rng + ?Sized>(
    g: &MultiGraph,
    lists: &ListAssignment,
    epsilon: f64,
    rng: &mut R,
    ledger: &mut RoundLedger,
) -> Result<VertexColorSplitting, FdError> {
    check_epsilon(epsilon)?;
    let beta = (epsilon / 10.0).clamp(1e-6, 1.0);
    let mut side1: Vec<HashSet<Color>> = vec![HashSet::new(); g.num_vertices()];
    for c in all_colors(lists) {
        let clustering = partial_network_decomposition(g, beta, rng, ledger);
        // One biased coin per cluster center.
        let mut center_side1: std::collections::HashMap<VertexId, bool> =
            std::collections::HashMap::new();
        for v in g.vertices() {
            let center = clustering.center_of[v.index()];
            let goes_to_side1 = *center_side1
                .entry(center)
                .or_insert_with(|| rng.gen_bool((epsilon / 10.0).clamp(0.0, 1.0)));
            if goes_to_side1 {
                side1[v.index()].insert(c);
            }
        }
    }
    Ok(VertexColorSplitting { side1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn induced_lists_partition_each_palette() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(30, 4, &mut rng);
        let lists = ListAssignment::uniform(g.num_edges(), 20);
        let mut ledger = RoundLedger::new();
        let splitting = split_colors_clustered(&g, &lists, 0.4, &mut rng, &mut ledger).unwrap();
        let q0 = splitting.induced_lists(&g, &lists, 0);
        let q1 = splitting.induced_lists(&g, &lists, 1);
        for e in g.edge_ids() {
            // Q0 and Q1 are disjoint and contained in Q.
            let s0: HashSet<Color> = q0.palette(e).iter().copied().collect();
            let s1: HashSet<Color> = q1.palette(e).iter().copied().collect();
            assert!(s0.is_disjoint(&s1));
            assert!(s0.len() + s1.len() <= lists.palette(e).len());
        }
        // Side 0 keeps the lion's share of every palette.
        let (k0, _k1) = splitting.sizes(&g, &lists);
        assert!(k0 >= 10, "side-0 palettes too small: {k0}");
    }

    #[test]
    fn clustered_split_assigns_whole_clusters() {
        // With one color and a connected graph, a cluster is monochromatic in
        // its side assignment; verify sides are consistent per cluster by
        // checking that the split is deterministic per (vertex, color) lookup.
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::grid(5, 5);
        let lists = ListAssignment::uniform(g.num_edges(), 1);
        let mut ledger = RoundLedger::new();
        let splitting = split_colors_clustered(&g, &lists, 0.3, &mut rng, &mut ledger).unwrap();
        for v in g.vertices() {
            let s = splitting.side(v, Color::new(0));
            assert!(s == 0 || s == 1);
        }
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::path(5);
        let lists = ListAssignment::uniform(g.num_edges(), 3);
        let mut ledger = RoundLedger::new();
        assert!(split_colors_clustered(&g, &lists, 0.0, &mut rng, &mut ledger).is_err());
        assert!(split_colors_clustered(&g, &lists, 1.5, &mut rng, &mut ledger).is_err());
    }

    #[test]
    fn merged_side_decompositions_stay_forests() {
        // Proposition 4.8 in action: color side-0 and side-1 edges separately
        // by augmentation, then merge and validate.
        use forest_graph::decomposition::{
            merge_disjoint_colorings, validate_partial_forest_decomposition, PartialEdgeColoring,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::planted_forest_union(24, 2, &mut rng);
        let alpha = forest_graph::matroid::arboricity(&g);
        let total_colors = 2 * (alpha + 2);
        let lists = ListAssignment::uniform(g.num_edges(), total_colors);
        // A deterministic vertex-color splitting: the upper half of the color
        // space goes to side 1 at every vertex (a legal splitting by
        // Definition 4.7).
        let upper: HashSet<Color> = (alpha + 2..total_colors).map(Color::new).collect();
        let splitting = VertexColorSplitting {
            side1: vec![upper; g.num_vertices()],
        };
        let q0 = splitting.induced_lists(&g, &lists, 0);
        let q1 = splitting.induced_lists(&g, &lists, 1);
        assert!(q0.min_palette_size() > alpha);
        assert!(q1.min_palette_size() > alpha);
        let half = g.num_edges() / 2;
        let mut c0 = PartialEdgeColoring::new_uncolored(g.num_edges());
        let mut c1 = PartialEdgeColoring::new_uncolored(g.num_edges());
        // Color first half on side 0.
        let ctx0 = crate::augmenting::AugmentationContext::new(&g, &q0);
        for (i, e) in g.edge_ids().enumerate() {
            if i < half {
                ctx0.augment_edge(&mut c0, e, 200).unwrap();
            }
        }
        // Color second half on side 1.
        let ctx1 = crate::augmenting::AugmentationContext::new(&g, &q1);
        for (i, e) in g.edge_ids().enumerate() {
            if i >= half {
                ctx1.augment_edge(&mut c1, e, 200).unwrap();
            }
        }
        let merged = merge_disjoint_colorings(&c0, &c1, 0);
        assert!(merged.is_complete());
        validate_partial_forest_decomposition(&g, &merged)
            .expect("Proposition 4.8: merged coloring is a forest per color");
    }
}
