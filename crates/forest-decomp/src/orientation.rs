//! Low out-degree orientations from forest decompositions (Corollary 1.1).
//!
//! A `(1+ε)α`-forest decomposition of diameter `D` yields a
//! `(1+ε)α`-orientation in `O(D)` extra rounds: root every tree and orient
//! every edge toward its root, so each vertex has at most one out-edge per
//! color. This gives the first `(1+ε)α`-orientation algorithms with a linear
//! dependence on `1/ε`.
//!
//! The trees are rooted at their minimum vertices by the
//! [rooting kernel](forest_graph::decomposition#rooting-kernel), the one
//! rooting that Proposition 2.4's layer deletion and the folklore
//! star-forest split read as well.

use forest_graph::{ForestDecomposition, GraphView, Orientation};

/// Orients every edge of a complete forest decomposition toward the root of
/// its tree (per color class): its tail is the endpoint the
/// [rooting kernel](forest_graph::decomposition#rooting-kernel) calls the
/// child. The resulting out-degree of a vertex is at most the number of
/// colors, since it has at most one parent edge per color.
///
/// # Panics
///
/// Panics if `decomposition` does not cover exactly the edges of `g` or a
/// color class is not a forest; every engine has checked both by measuring
/// the diameter.
pub fn orientation_from_decomposition<G: GraphView>(
    g: &G,
    decomposition: &ForestDecomposition,
) -> Orientation {
    let rooted = decomposition.rooted_edges(g);
    let tails = rooted
        .expect("a forest decomposition of g")
        .into_iter()
        .map(|r| r.expect("every edge is colored").child)
        .collect();
    Orientation::from_tails(g, tails).expect("tails are endpoints by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::{generators, matroid, MultiGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn orientation_from_exact_decomposition_bounds_outdegree_by_alpha() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(50, 3, &mut rng);
        let exact = matroid::exact_forest_decomposition(&g);
        let orientation = orientation_from_decomposition(&g, &exact.decomposition);
        assert!(orientation.max_out_degree(&g) <= exact.arboricity);
        // Every edge got a tail that is one of its endpoints (checked by
        // construction in Orientation::from_tails).
        assert_eq!(
            orientation.out_degrees(&g).iter().sum::<usize>(),
            g.num_edges()
        );
    }

    #[test]
    fn orientation_on_fat_path() {
        let g = generators::fat_path(30, 4);
        let exact = matroid::exact_forest_decomposition(&g);
        let orientation = orientation_from_decomposition(&g, &exact.decomposition);
        assert!(orientation.max_out_degree(&g) <= exact.arboricity);
    }

    #[test]
    fn orientation_of_empty_graph() {
        let g = MultiGraph::new(4);
        let fd = ForestDecomposition::from_colors(Vec::new());
        let orientation = orientation_from_decomposition(&g, &fd);
        assert_eq!(orientation.max_out_degree(&g), 0);
    }
}
