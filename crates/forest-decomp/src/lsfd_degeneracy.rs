//! List star-forest decomposition from low-degeneracy orientations
//! (Theorem 2.2 and Theorem 2.3).
//!
//! Theorem 2.2: if a multigraph has an acyclic `d`-orientation, then any
//! palette assignment with `2d` colors per edge admits a list-star-forest
//! decomposition — color the edges in reverse topological order of their
//! tails, always avoiding the colors already used by the out-edges of both
//! endpoints. Combined with degeneracy `≤ 2α − 1` this gives
//! `α_liststar ≤ 4α − 2` (Corollary 1.2).
//!
//! Theorem 2.3 turns this into an algorithm: the acyclic orientation comes
//! from the H-partition (out-degree `t = ⌊(2+ε)α*⌋`), so palettes of size
//! `2t ≈ (4+ε)α*` suffice. The LOCAL implementation processes the H-partition
//! classes from last to first and colors each class with a network
//! decomposition (the paper's "third algorithm", `O(log³ n / ε)` rounds); the
//! simulation here performs the same reverse order sequentially and charges
//! those rounds.

use crate::error::{check_epsilon, FdError};
use crate::hpartition::{acyclic_orientation, h_partition};
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::{Color, EdgeId, GraphView, ListAssignment, Orientation};
use local_model::rounds::costs;
use local_model::RoundLedger;
#[expect(
    clippy::disallowed_types,
    reason = "for the lookup-only sets of greedy_lsfd_from_orientation"
)]
use std::collections::HashSet;

/// Theorem 2.2 (constructive form): greedily list-colors the edges against an
/// acyclic orientation so that every color class is a star forest.
///
/// Processing order: tails in reverse topological order, so that when an edge
/// `u → v` is colored, every out-edge of `v` already has its color.
/// The choice for `u → v` avoids all colors already used by out-edges of `u`
/// or `v`, which needs palettes of size at least
/// `outdeg(u) + outdeg(v) - 1 ≤ 2d`.
///
/// # Errors
///
/// Returns [`FdError::PaletteTooSmall`] if some palette runs out of colors.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: each vertex's out-edge colors answer membership, never iterated"
)]
fn greedy_lsfd_from_orientation<G: GraphView>(
    g: &G,
    orientation: &Orientation,
    lists: &ListAssignment,
) -> Result<PartialEdgeColoring, FdError> {
    let order = orientation
        .topological_order(g)
        .expect("the orientation must be acyclic");
    let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
    // Colors currently used by the out-edges of each vertex.
    let mut out_colors: Vec<HashSet<Color>> = vec![HashSet::new(); g.num_vertices()];
    for &u in order.iter().rev() {
        for e in orientation.out_edges(g, u) {
            let v = orientation.head(g, e);
            let choice =
                lists.palette(e).iter().copied().find(|c| {
                    !out_colors[u.index()].contains(c) && !out_colors[v.index()].contains(c)
                });
            match choice {
                Some(c) => {
                    coloring.set(e, c);
                    out_colors[u.index()].insert(c);
                }
                None => {
                    return Err(FdError::PaletteTooSmall {
                        edge: e,
                        needed: out_colors[u.index()].len() + out_colors[v.index()].len() + 1,
                        available: lists.palette(e).len(),
                    })
                }
            }
        }
    }
    Ok(coloring)
}

/// Outcome of the Theorem 2.3 list-star-forest decomposition.
#[derive(Clone, Debug)]
pub struct LsfdOutcome {
    /// The complete list-star-forest coloring.
    pub coloring: PartialEdgeColoring,
    /// The H-partition out-degree bound `t` that was used.
    pub degree_threshold: usize,
    /// Minimum palette size the algorithm needed (`2t`).
    pub required_palette: usize,
    /// Round accounting for this call.
    pub rounds: usize,
}

/// Theorem 2.3: computes a list-star-forest decomposition of a multigraph
/// whose palettes have at least `2⌊(2+ε)α*⌋` colors.
///
/// # Errors
///
/// Returns an error for invalid `ε` or palettes below the required size.
pub fn list_star_forest_decomposition_degeneracy<G: GraphView>(
    g: &G,
    lists: &ListAssignment,
    epsilon: f64,
    pseudoarboricity_bound: usize,
    ledger: &mut RoundLedger,
) -> Result<LsfdOutcome, FdError> {
    check_epsilon(epsilon)?;
    let before = ledger.total_rounds();
    if g.num_edges() == 0 {
        return Ok(LsfdOutcome {
            coloring: PartialEdgeColoring::new_uncolored(0),
            degree_threshold: 0,
            required_palette: 0,
            rounds: 0,
        });
    }
    let hp = h_partition(g, epsilon, pseudoarboricity_bound.max(1), ledger)?;
    let orientation = acyclic_orientation(g, &hp);
    let required_palette = 2 * hp.degree_threshold;
    if lists.min_palette_size() < required_palette {
        // Identify one offending edge for the error message.
        let edge = g
            .edge_ids()
            .find(|&e| lists.palette(e).len() < required_palette)
            .unwrap_or(EdgeId::new(0));
        return Err(FdError::PaletteTooSmall {
            edge,
            needed: required_palette,
            available: lists.palette(edge).len(),
        });
    }
    let coloring = greedy_lsfd_from_orientation(g, &orientation, lists)?;
    // The LOCAL implementation colors the k = O(log n / eps) H-partition
    // classes in reverse order, each with a network-decomposition-driven
    // proper list edge coloring: O(log^2 n) rounds per class.
    let n = g.num_vertices();
    let per_class = costs::network_decomposition(n, 1);
    ledger.charge(
        "Theorem 2.3 class-by-class list edge coloring",
        hp.num_classes * per_class,
    );
    let rounds = ledger.total_rounds() - before;
    Ok(LsfdOutcome {
        coloring,
        degree_threshold: hp.degree_threshold,
        required_palette,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{validate_list_coloring, validate_star_forest_decomposition};
    use forest_graph::orientation::pseudoarboricity;
    use forest_graph::MultiGraph;
    use forest_graph::{generators, matroid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn validate_lsfd(g: &MultiGraph, coloring: &PartialEdgeColoring, lists: &ListAssignment) {
        assert!(coloring.is_complete());
        validate_list_coloring(g, coloring, lists).expect("palettes respected");
        let fd = coloring.clone().into_complete().expect("complete");
        validate_star_forest_decomposition(g, &fd, None).expect("star forests");
    }

    #[test]
    fn theorem_2_2_on_planted_multigraph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(40, 3, &mut rng);
        // Exact minimum orientation: out-degree d = alpha* <= 2 alpha - 1.
        let (orientation, d) = forest_graph::orientation::min_max_outdegree_orientation(&g);
        // Acyclic orientations are required; the flow orientation may contain
        // cycles, so fall back to the H-partition orientation when it does.
        let orientation = if orientation.is_acyclic(&g) {
            orientation
        } else {
            let mut ledger = RoundLedger::new();
            let hp = h_partition(&g, 0.5, d, &mut ledger).unwrap();
            acyclic_orientation(&g, &hp)
        };
        let d = orientation.max_out_degree(&g);
        let lists = ListAssignment::uniform(g.num_edges(), 2 * d);
        let coloring = greedy_lsfd_from_orientation(&g, &orientation, &lists).unwrap();
        validate_lsfd(&g, &coloring, &lists);
    }

    #[test]
    fn theorem_2_2_with_random_palettes() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::planted_forest_union(30, 2, &mut rng);
        let mut ledger = RoundLedger::new();
        let ps = pseudoarboricity(&g);
        let hp = h_partition(&g, 0.5, ps, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        let d = orientation.max_out_degree(&g);
        let lists = ListAssignment::random(g.num_edges(), 4 * d, 2 * d, &mut rng);
        let coloring = greedy_lsfd_from_orientation(&g, &orientation, &lists).unwrap();
        validate_lsfd(&g, &coloring, &lists);
    }

    #[test]
    fn theorem_2_3_end_to_end() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::planted_forest_union(50, 3, &mut rng);
        let ps = pseudoarboricity(&g);
        // Palettes of size 2 * floor(2.5 * alpha*).
        let t = (2.5 * ps as f64).floor() as usize;
        let lists = ListAssignment::uniform(g.num_edges(), 2 * t);
        let mut ledger = RoundLedger::new();
        let out =
            list_star_forest_decomposition_degeneracy(&g, &lists, 0.5, ps, &mut ledger).unwrap();
        validate_lsfd(&g, &out.coloring, &lists);
        assert_eq!(out.required_palette, 2 * out.degree_threshold);
        assert!(out.rounds > 0);
        // Corollary 1.2 flavor: the number of colors used is at most 4*alpha-2
        // ... with our (2+eps) slack, at most 2t.
        assert!(out.coloring.num_colors_used() <= 2 * t);
    }

    #[test]
    fn theorem_2_3_rejects_small_palettes() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::planted_forest_union(20, 2, &mut rng);
        let ps = pseudoarboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), 2);
        let mut ledger = RoundLedger::new();
        assert!(matches!(
            list_star_forest_decomposition_degeneracy(&g, &lists, 0.5, ps, &mut ledger),
            Err(FdError::PaletteTooSmall { .. })
        ));
    }

    #[test]
    fn corollary_1_2_liststar_bound_on_multigraphs() {
        // alpha_liststar <= 4 alpha - 2: check on a fat path (alpha = 3) with
        // palettes of size 4*3 - 2 = 10 drawn from a larger color space.
        let g = generators::fat_path(20, 3);
        let alpha = matroid::arboricity(&g);
        assert_eq!(alpha, 3);
        let mut rng = StdRng::seed_from_u64(5);
        // Degeneracy-style orientation: use the exact minimum out-degree
        // orientation if acyclic, else the H-partition one with small eps.
        let mut ledger = RoundLedger::new();
        let ps = pseudoarboricity(&g);
        let hp = h_partition(&g, 0.01, ps, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        let d = orientation.max_out_degree(&g);
        // The classical bound needs 2d colors; d <= 2 alpha - 1 would give
        // 4 alpha - 2, our H-partition d may be slightly larger.
        let lists = ListAssignment::random(g.num_edges(), 4 * d, 2 * d, &mut rng);
        let coloring = greedy_lsfd_from_orientation(&g, &orientation, &lists).unwrap();
        validate_lsfd(&g, &coloring, &lists);
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = MultiGraph::new(3);
        let lists = ListAssignment::uniform(0, 1);
        let mut ledger = RoundLedger::new();
        let out =
            list_star_forest_decomposition_degeneracy(&g, &lists, 0.5, 1, &mut ledger).unwrap();
        assert_eq!(out.coloring.len(), 0);
    }
}
