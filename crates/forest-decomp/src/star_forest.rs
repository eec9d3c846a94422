//! Star-forest decomposition of simple graphs (Section 5, Theorem 5.4).
//!
//! Given a `t`-orientation with `t = ⌈(1+ε)α⌉`, every vertex `v` samples a
//! color set `C(v)` and builds the bipartite graph `H_v` whose left side is
//! the color space and right side its out-neighbors, with an edge `(i, u)`
//! whenever `i ∈ C(v) \ C(u)` (and, for lists, `i ∈ Q(vu)`). A matching in
//! `H_v` colors the matched out-edges so that every color class is a union of
//! stars centered at the vertices *missing* that color (Proposition 5.1).
//! Lemma 5.2 (ordinary colors, `α ≥ Ω(√log Δ + log α)`) and Lemma 5.3
//! (lists, `α ≥ Ω(log Δ)`) show the random sets make `H_v` have an
//! (almost-)perfect matching w.h.p., and an LLL pass fixes the rare failures.
//! The small leftover of unmatched edges is recolored with `O(εα)` extra star
//! forests via Theorem 2.1.
//!
//! These constructions also prove the star-arboricity bounds of
//! Corollary 1.2: `α_star ≤ α + O(√log Δ + log α)` and
//! `α_liststar ≤ α + O(log Δ)` for simple graphs.

use crate::combine::FdResult;
use crate::error::{check_epsilon, FdError};
use crate::hpartition::recolor_as_fresh_stars;
use crate::matching::maximum_bipartite_matching;
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::orientation::bounded_outdegree_orientation;
use forest_graph::{Color, EdgeId, GraphView, ListAssignment, Orientation, VertexId};
use local_model::rounds::costs;
use local_model::RoundLedger;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Maximum number of LLL resampling rounds before giving up on the
/// remaining bad vertices (their edges join the leftover).
const MAX_LLL_ROUNDS: usize = 64;

/// Per-vertex sampled color sets, stored as dense bitmasks over the
/// colorspace index (so membership tests inside the matching loops are O(1)
/// array reads instead of hash probes).
type ColorSets = Vec<Vec<bool>>;

fn matching_for_vertex<G: GraphView>(
    g: &G,
    orientation: &Orientation,
    color_sets: &ColorSets,
    lists: Option<&ListAssignment>,
    colorspace: &[Color],
    v: VertexId,
) -> (Vec<EdgeId>, Vec<Option<Color>>) {
    let out_edges = orientation.out_edges(g, v);
    // Left side: the colorspace indices; right side: the out-edges.
    let adj: Vec<Vec<usize>> = out_edges
        .iter()
        .map(|&e| {
            let u = orientation.head(g, e);
            colorspace
                .iter()
                .enumerate()
                .filter(|&(i, &c)| {
                    color_sets[v.index()][i]
                        && !color_sets[u.index()][i]
                        && lists.is_none_or(|l| l.contains(e, c))
                })
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let matching = maximum_bipartite_matching(out_edges.len(), colorspace.len(), &adj);
    let colors = (0..out_edges.len())
        .map(|i| matching.pair_left[i].map(|ci| colorspace[ci]))
        .collect();
    (out_edges, colors)
}

/// Internal driver shared by the ordinary and list variants: returns the
/// partial coloring and the number of unmatched edges.
#[allow(clippy::too_many_arguments)]
fn star_forest_by_matching<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    orientation: &Orientation,
    colorspace: &[Color],
    lists: Option<&ListAssignment>,
    allowed_deficiency: usize,
    sample_color_set: &mut dyn FnMut(&mut R, VertexId) -> Vec<bool>,
    rng: &mut R,
    ledger: &mut RoundLedger,
) -> (PartialEdgeColoring, usize) {
    let n = g.num_vertices();
    let mut color_sets: ColorSets = g.vertices().map(|v| sample_color_set(rng, v)).collect();
    // LLL loop: a vertex is "bad" if its matching misses more than
    // `allowed_deficiency` of its out-edges.
    let mut lll_rounds = 0usize;
    loop {
        let bad: Vec<VertexId> = g
            .vertices()
            .filter(|&v| {
                let (out_edges, colors) =
                    matching_for_vertex(g, orientation, &color_sets, lists, colorspace, v);
                let matched = colors.iter().filter(|c| c.is_some()).count();
                matched + allowed_deficiency < out_edges.len()
            })
            .collect();
        if bad.is_empty() || lll_rounds >= MAX_LLL_ROUNDS {
            break;
        }
        for &v in &bad {
            color_sets[v.index()] = sample_color_set(rng, v);
        }
        lll_rounds += 1;
    }
    ledger.charge(
        "star-forest LLL color-set sampling",
        costs::lll(n, 2).max(lll_rounds.max(1) * 2),
    );
    // Proposition 5.1: apply the matchings.
    let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
    let mut leftover = 0usize;
    for v in g.vertices() {
        let (out_edges, colors) =
            matching_for_vertex(g, orientation, &color_sets, lists, colorspace, v);
        for (i, &e) in out_edges.iter().enumerate() {
            match colors[i] {
                Some(c) => coloring.set(e, c),
                None => leftover += 1,
            }
        }
    }
    // Applying the matchings is a single LOCAL round (each vertex colors its
    // own out-edges).
    ledger.charge("apply per-vertex matchings", 1);
    (coloring, leftover)
}

/// The `t`-orientation with `t = ⌈(1+ε)α⌉` both variants start from,
/// with its round charge.
fn t_orientation<G: GraphView>(
    g: &G,
    epsilon: f64,
    alpha: usize,
    ledger: &mut RoundLedger,
) -> Result<(usize, Orientation), FdError> {
    let t = ((1.0 + epsilon) * alpha as f64).ceil() as usize;
    // The paper uses the Su–Vu CONGEST algorithm (O~(log^2 n / eps^2)
    // rounds); we take the exact flow orientation and charge the same round
    // budget.
    let orientation =
        bounded_outdegree_orientation(g, t).ok_or_else(|| FdError::ArboricityBoundTooSmall {
            bound: alpha,
            required: forest_graph::orientation::pseudoarboricity(g),
        })?;
    let log_n = costs::log2_ceil(g.num_vertices()).max(1);
    ledger.charge(
        "t-orientation (Su-Vu style)",
        log_n * log_n * ((1.0 / (epsilon * epsilon)).ceil() as usize),
    );
    Ok((t, orientation))
}

/// Theorem 5.4(1): `(1+O(ε))α`-star-forest decomposition of a simple graph
/// (the caller checks simplicity) under the arboricity bound `alpha ≥ 1`.
///
/// # Errors
///
/// Returns an error for invalid `ε` or if the leftover recoloring fails.
pub(crate) fn star_forest_decomposition_simple<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    epsilon: f64,
    alpha: usize,
    rng: &mut R,
) -> Result<FdResult, FdError> {
    check_epsilon(epsilon)?;
    let mut ledger = RoundLedger::new();
    if g.num_edges() == 0 {
        return Ok(FdResult::edgeless(alpha, ledger));
    }
    let (t, orientation) = t_orientation(g, epsilon, alpha, &mut ledger)?;
    let colorspace: Vec<Color> = (0..t).map(Color::new).collect();
    let subset_size = alpha.min(t);
    let allowed_deficiency = (2.0 * epsilon * alpha as f64).ceil() as usize;
    let indices: Vec<usize> = (0..t).collect();
    let mut sample = |rng: &mut R, _v: VertexId| -> Vec<bool> {
        let mut mask = vec![false; t];
        for &i in indices.choose_multiple(rng, subset_size) {
            mask[i] = true;
        }
        mask
    };
    let (mut coloring, leftover_edges) = star_forest_by_matching(
        g,
        &orientation,
        &colorspace,
        None,
        allowed_deficiency,
        &mut sample,
        rng,
        &mut ledger,
    );
    // Recolor the leftover (unmatched) edges as star forests with fresh
    // colors via Theorem 2.1.
    let unmatched: Vec<bool> = g.edge_ids().map(|e| coloring.color(e).is_none()).collect();
    if unmatched.contains(&true) {
        recolor_as_fresh_stars(g, &unmatched, t, &mut coloring, &mut ledger)?;
    }
    Ok(FdResult {
        decomposition: coloring.into_complete()?,
        max_diameter: None,
        arboricity: alpha,
        leftover_edges,
        ledger,
    })
}

/// Theorem 5.4(2): `(1+O(ε))α`-list-star-forest decomposition of a simple
/// graph (the caller checks simplicity) whose palettes have at least
/// `(1 + 200ε)α`-ish colors (Lemma 5.3), under the arboricity bound
/// `alpha ≥ 1`.
///
/// # Errors
///
/// Returns an error for invalid `ε`, or [`FdError::NotConverged`] if some
/// vertex never obtains a perfect matching and its unmatched edges cannot be
/// finished greedily from their palettes.
pub(crate) fn list_star_forest_decomposition_simple<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    lists: &ListAssignment,
    epsilon: f64,
    alpha: usize,
    rng: &mut R,
) -> Result<FdResult, FdError> {
    check_epsilon(epsilon)?;
    let mut ledger = RoundLedger::new();
    if g.num_edges() == 0 {
        return Ok(FdResult::edgeless(alpha, ledger));
    }
    let (_, orientation) = t_orientation(g, epsilon, alpha, &mut ledger)?;
    // The colorspace is the union of the palettes; C(u) keeps each color
    // independently with probability 1 - eps (Lemma 5.3).
    let mut colorspace: Vec<Color> = (0..lists.num_edges())
        .flat_map(|i| lists.palette(EdgeId::new(i)).to_vec())
        .collect();
    colorspace.sort_unstable();
    colorspace.dedup();
    let keep_probability = 1.0 - epsilon;
    let colorspace_len = colorspace.len();
    let mut sample = move |rng: &mut R, _v: VertexId| -> Vec<bool> {
        (0..colorspace_len)
            .map(|_| rng.gen_bool(keep_probability))
            .collect()
    };
    // The matching already counted every edge it left unmatched, so the
    // greedy completion below leaves the count as it is.
    let (mut coloring, leftover_edges) = star_forest_by_matching(
        g,
        &orientation,
        &colorspace,
        Some(lists),
        0,
        &mut sample,
        rng,
        &mut ledger,
    );
    // In the list setting there is no budget for fresh colors; finish any
    // unmatched edge greedily with a palette color unused by every edge
    // incident to either endpoint (which keeps every class a star forest).
    let unmatched: Vec<EdgeId> = g
        .edge_ids()
        .filter(|&e| coloring.color(e).is_none())
        .collect();
    for e in unmatched {
        let (u, v) = g.endpoints(e);
        let neighbor_colors: HashSet<Color> = g
            .incident_edges(u)
            .chain(g.incident_edges(v))
            .filter_map(|x| coloring.color(x))
            .collect();
        let choice = lists
            .palette(e)
            .iter()
            .copied()
            .find(|c| !neighbor_colors.contains(c));
        match choice {
            Some(c) => coloring.set(e, c),
            None => {
                return Err(FdError::NotConverged {
                    phase: format!("list star-forest: edge {e} has no conflict-free color"),
                })
            }
        }
    }
    ledger.charge("greedy completion of unmatched edges", 1);
    Ok(FdResult {
        decomposition: coloring.into_complete()?,
        max_diameter: None,
        arboricity: alpha,
        leftover_edges,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{validate_list_coloring, validate_star_forest_decomposition};
    use forest_graph::{generators, CsrGraph, MultiGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sfd_on_planted_simple_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g: MultiGraph = generators::planted_simple_arboricity(60, 4, &mut rng).into();
        let alpha = forest_graph::matroid::arboricity(&g);
        let csr = CsrGraph::from_multigraph(&g);
        let result = star_forest_decomposition_simple(&csr, 0.5, alpha, &mut rng).unwrap();
        validate_star_forest_decomposition(&g, &result.decomposition, None).expect("star forests");
        // The color budget: t primary colors plus O(eps alpha) recolored ones;
        // generous sanity bound of 3 alpha + 6.
        let num_colors = result.decomposition.num_colors_used();
        assert!(
            num_colors <= 3 * alpha + 6,
            "too many colors: {num_colors} for alpha {alpha}"
        );
        assert!(num_colors >= alpha);
    }

    #[test]
    fn sfd_on_dense_clique() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::complete_graph(12);
        let csr = CsrGraph::from_multigraph(&g);
        let alpha = forest_graph::matroid::arboricity(&csr);
        let result = star_forest_decomposition_simple(&csr, 0.4, alpha, &mut rng).unwrap();
        validate_star_forest_decomposition(&g, &result.decomposition, None).expect("star forests");
        // Sanity bound: stay within 3 alpha colors on K12 (alpha = 6); the
        // tight Corollary 1.2 comparison is measured by the benchmark harness.
        let num_colors = result.decomposition.num_colors_used();
        assert!(num_colors <= 18, "colors = {num_colors}");
    }

    #[test]
    fn sfd_handles_trees_with_one_color_plus_slack() {
        let mut rng = StdRng::seed_from_u64(3);
        let tree = generators::random_tree(80, &mut rng);
        let csr = CsrGraph::from_multigraph(&tree);
        let result = star_forest_decomposition_simple(&csr, 0.5, 1, &mut rng).unwrap();
        validate_star_forest_decomposition(&tree, &result.decomposition, None)
            .expect("star forests");
        // alpha = 1: a star forest decomposition with O(1) colors.
        let num_colors = result.decomposition.num_colors_used();
        assert!(num_colors <= 9, "colors = {num_colors}");
    }

    #[test]
    fn sfd_empty_graph() {
        let mut rng = StdRng::seed_from_u64(4);
        let csr = CsrGraph::from_multigraph(&MultiGraph::new(5));
        let result = star_forest_decomposition_simple(&csr, 0.3, 1, &mut rng).unwrap();
        assert_eq!(result.decomposition.num_edges(), 0);
        assert_eq!(result.arboricity, 1);
    }

    #[test]
    fn lsfd_respects_palettes_and_star_property() {
        let mut rng = StdRng::seed_from_u64(5);
        let g: MultiGraph = generators::planted_simple_arboricity(50, 3, &mut rng).into();
        let alpha = forest_graph::matroid::arboricity(&g);
        // Lemma 5.3 wants palettes of size alpha(1 + 200 eps); with the small
        // test instance we simply hand out a comfortable palette from a larger
        // color space.
        let palette_size = 3 * alpha + 6;
        let lists = ListAssignment::random(g.num_edges(), 2 * palette_size, palette_size, &mut rng);
        let csr = CsrGraph::from_multigraph(&g);
        let result =
            list_star_forest_decomposition_simple(&csr, &lists, 0.2, alpha, &mut rng).unwrap();
        validate_star_forest_decomposition(&g, &result.decomposition, None).expect("star forests");
        validate_list_coloring(&g, &result.decomposition.to_partial(), &lists)
            .expect("palettes respected");
    }

    #[test]
    fn lsfd_fails_gracefully_on_hopeless_palettes() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::complete_graph(8);
        // A single shared color cannot star-decompose K8.
        let lists = ListAssignment::uniform(g.num_edges(), 1);
        let csr = CsrGraph::from_multigraph(&g);
        let result = list_star_forest_decomposition_simple(&csr, &lists, 0.2, 4, &mut rng);
        assert!(result.is_err());
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let mut rng = StdRng::seed_from_u64(7);
        let csr = CsrGraph::from_multigraph(&MultiGraph::new(3));
        assert!(star_forest_decomposition_simple(&csr, 0.0, 1, &mut rng).is_err());
    }
}
