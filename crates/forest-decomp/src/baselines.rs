//! Baseline algorithms the paper compares against.
//!
//! * [`barenboim_elkin_forest_decomposition`]: the classical
//!   `(2+ε)α`-forest decomposition from the H-partition [BE10] — the starting
//!   point of Open Problem 11.10 that the paper improves on.
//! * [`two_color_star_forests`]: the folklore `α_star ≤ 2α` bound obtained by
//!   two-coloring the vertices of each tree by depth parity.
//! * The Gabow–Westermann-style exact `α`-forest decomposition (matroid
//!   partition), the centralized ground truth, is
//!   [`forest_graph::matroid::exact_forest_decomposition`].

use crate::error::FdError;
use crate::hpartition::{acyclic_orientation, h_partition, out_edge_labels};
use forest_graph::traversal::root_forest;
use forest_graph::{Color, ForestDecomposition, GraphView};
use local_model::RoundLedger;

/// Result of the Barenboim–Elkin baseline.
#[derive(Clone, Debug)]
pub struct BaselineFd {
    /// The forest decomposition.
    pub decomposition: ForestDecomposition,
    /// The color budget `t = ⌊(2+ε)α*⌋` (the decomposition uses at most this
    /// many colors).
    pub color_budget: usize,
    /// LOCAL rounds used.
    pub rounds: usize,
}

/// The `(2+ε)α*`-forest decomposition of Barenboim–Elkin: H-partition,
/// acyclic orientation, and one forest per out-edge label.
///
/// # Errors
///
/// Propagates the H-partition parameter errors.
pub fn barenboim_elkin_forest_decomposition<G: GraphView>(
    g: &G,
    epsilon: f64,
    pseudoarboricity_bound: usize,
    ledger: &mut RoundLedger,
) -> Result<BaselineFd, FdError> {
    let before = ledger.total_rounds();
    let hp = h_partition(g, epsilon, pseudoarboricity_bound, ledger)?;
    let orientation = acyclic_orientation(g, &hp);
    let labels = out_edge_labels(g, &orientation);
    let decomposition =
        ForestDecomposition::from_colors(labels.iter().map(|&l| Color::new(l)).collect());
    Ok(BaselineFd {
        decomposition,
        color_budget: hp.degree_threshold,
        rounds: ledger.total_rounds() - before,
    })
}

/// The folklore `2α`-star-forest decomposition: root every tree of every
/// color class and split its edges by the depth parity of the parent
/// endpoint. Color `2c + p` holds the class-`c` edges whose parent sits at
/// even (`p = 0`) or odd (`p = 1`) depth.
pub fn two_color_star_forests<G: GraphView>(
    g: &G,
    decomposition: &ForestDecomposition,
) -> ForestDecomposition {
    let mut colors = vec![Color::new(0); g.num_edges()];
    let mut in_class = vec![false; g.num_edges()];
    for c in decomposition.colors_used() {
        let class = decomposition.edges_with_color(c);
        for &e in &class {
            in_class[e.index()] = true;
        }
        let rooted = root_forest(g, |e| in_class[e.index()], |_| 0);
        for v in g.vertices() {
            if let Some(pe) = rooted.parent_edge[v.index()] {
                if in_class[pe.index()] {
                    let parent_depth = rooted.depth[v.index()] - 1;
                    colors[pe.index()] = Color::new(2 * c.index() + parent_depth % 2);
                }
            }
        }
        for &e in &class {
            in_class[e.index()] = false;
        }
    }
    ForestDecomposition::from_colors(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{
        validate_forest_decomposition, validate_star_forest_decomposition,
    };
    use forest_graph::orientation::pseudoarboricity;
    use forest_graph::{generators, matroid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn barenboim_elkin_uses_at_most_2_plus_eps_alpha_star_colors() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(60, 3, &mut rng);
        let ps = pseudoarboricity(&g);
        let mut ledger = RoundLedger::new();
        let baseline = barenboim_elkin_forest_decomposition(&g, 0.5, ps, &mut ledger).unwrap();
        assert_eq!(baseline.color_budget, (2.5 * ps as f64).floor() as usize);
        validate_forest_decomposition(&g, &baseline.decomposition, Some(baseline.color_budget))
            .expect("valid (2+eps)-FD");
        assert!(baseline.rounds > 0);
    }

    #[test]
    fn barenboim_elkin_vs_exact_color_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::planted_forest_union(60, 4, &mut rng);
        let alpha = matroid::arboricity(&g);
        let ps = pseudoarboricity(&g);
        let mut ledger = RoundLedger::new();
        let baseline = barenboim_elkin_forest_decomposition(&g, 0.25, ps, &mut ledger).unwrap();
        let used = baseline.decomposition.num_colors_used();
        // The baseline uses more colors than the optimum but at most
        // (2+eps) alpha*.
        assert!(used >= alpha, "cannot beat the arboricity");
        assert!(used <= (2.25 * ps as f64).floor() as usize);
    }

    #[test]
    fn two_coloring_turns_forests_into_star_forests() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::planted_forest_union(50, 3, &mut rng);
        let exact = matroid::exact_forest_decomposition(&g);
        let stars = two_color_star_forests(&g, &exact.decomposition);
        validate_star_forest_decomposition(&g, &stars, Some(2 * exact.arboricity))
            .expect("alpha_star <= 2 alpha");
    }

    #[test]
    fn two_coloring_on_a_deep_path() {
        let g = generators::path(100);
        let exact = forest_graph::matroid::exact_forest_decomposition(&g);
        assert_eq!(exact.arboricity, 1);
        let stars = two_color_star_forests(&g, &exact.decomposition);
        validate_star_forest_decomposition(&g, &stars, Some(2)).expect("2-SFD of a path");
    }

    #[test]
    fn exact_baseline_roundtrip() {
        let g = generators::complete_graph(7);
        let exact = forest_graph::matroid::exact_forest_decomposition(&g);
        assert_eq!(exact.arboricity, 4);
        validate_forest_decomposition(&g, &exact.decomposition, Some(4))
            .expect("exact decomposition");
    }
}
