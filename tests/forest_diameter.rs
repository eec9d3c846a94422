//! Differential tests of the two per-class kernels of
//! `forest_graph::decomposition` on random valid partial forest colorings
//! and their completions:
//!
//! * leaf peeling: `max_forest_diameter` must equal the largest per-class
//!   diameter the BFS oracle `traversal::forest_diameter` measures, and
//!   `ForestDecomposition::max_diameter` must equal `max_forest_diameter`
//!   of the same coloring as a partial one;
//! * rooting: `rooted_edges` must give every edge the child and depth of a
//!   `traversal::bfs_distances` sweep from its tree's minimum vertex.
//!
//! The colorings mix random forests, paths and stars, leave some edges
//! uncolored (parallel to colored ones or not), skip color indices the way
//! the Harris–Su–Vu leftover star colors do, and keep isolated vertices.

use forest_graph::decomposition::{
    max_forest_diameter, validate_forest_decomposition, validate_partial_forest_decomposition,
    PartialEdgeColoring, RootedEdge,
};
use forest_graph::traversal::{bfs_distances, forest_diameter, UNREACHABLE};
use forest_graph::{
    Color, CsrGraph, EdgeId, ForestDecomposition, GraphView, MultiGraph, UnionFind, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A graph on `n` vertices and a valid partial forest coloring of it with
/// `classes` color classes, drawn from `seed`.
fn colored_forests(n: usize, classes: usize, seed: u64) -> (MultiGraph, PartialEdgeColoring) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Color ids with gaps: an offset, then a stride of one to three.
    let offset = rng.gen_range(0..4usize);
    let stride = rng.gen_range(1..4usize);
    let mut edges: Vec<(usize, usize, Option<Color>)> = Vec::new();
    let mut vertices: Vec<usize> = (0..n).collect();
    for class in 0..classes {
        let color = Color::new(offset + class * stride);
        let mut uf = UnionFind::new(n);
        let mut try_edge = |u: usize, v: usize, edges: &mut Vec<_>| {
            if u != v && uf.union(u, v) {
                edges.push((u, v, Some(color)));
            }
        };
        match rng.gen_range(0..3usize) {
            // A random forest: random pairs that keep the class acyclic.
            0 => {
                for _ in 0..rng.gen_range(0..2 * n) {
                    try_edge(rng.gen_range(0..n), rng.gen_range(0..n), &mut edges);
                }
            }
            // Paths along a random vertex order, cut at random links.
            1 => {
                vertices.shuffle(&mut rng);
                for w in vertices.windows(2) {
                    if rng.gen_range(0..5usize) > 0 {
                        try_edge(w[0], w[1], &mut edges);
                    }
                }
            }
            // Stars around a few random centers.
            _ => {
                for _ in 0..rng.gen_range(1..4usize) {
                    let center = rng.gen_range(0..n);
                    for _ in 0..rng.gen_range(0..n) {
                        try_edge(center, rng.gen_range(0..n), &mut edges);
                    }
                }
            }
        }
    }
    // Uncolored edges, some parallel to colored ones.
    for _ in 0..rng.gen_range(0..n) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            edges.push((u, v, None));
        }
    }
    // Interleave the classes' edge ids.
    edges.shuffle(&mut rng);
    let mut g = MultiGraph::new(n);
    let mut colors = Vec::with_capacity(edges.len());
    for (u, v, c) in edges {
        g.add_edge(VertexId::new(u), VertexId::new(v))
            .expect("endpoints are in range");
        colors.push(c);
    }
    (g, PartialEdgeColoring::from_colors(colors))
}

/// The BFS oracle, one whole-graph measurement per color class.
fn oracle<G: GraphView>(g: &G, coloring: &PartialEdgeColoring) -> usize {
    coloring
        .colors_used()
        .into_iter()
        .map(|c| forest_diameter(g, |e| coloring.color(e) == Some(c)))
        .max()
        .unwrap_or(0)
}

/// The rooting oracle: each colored edge's child is its endpoint farther
/// from the minimum vertex of its tree, by two BFS sweeps per edge.
fn rooting_oracle<G: GraphView>(g: &G, coloring: &PartialEdgeColoring) -> Vec<Option<RootedEdge>> {
    let rooted = g.edges().map(|(e, u, v)| {
        let c = coloring.color(e)?;
        let in_class = |f: EdgeId| coloring.color(f) == Some(c);
        let tree = bfs_distances(g, u, in_class);
        let root = g.vertices().find(|x| tree[x.index()] != UNREACHABLE)?;
        let dist = bfs_distances(g, root, in_class);
        let (child, depth) = if dist[u.index()] > dist[v.index()] {
            (u, dist[u.index()])
        } else {
            (v, dist[v.index()])
        };
        Some(RootedEdge { child, depth })
    });
    rooted.collect()
}

/// Completes a forest coloring by giving every uncolored edge a fresh color
/// of its own, above every color in use.
fn complete(coloring: &PartialEdgeColoring) -> ForestDecomposition {
    let mut fresh = coloring.colors_used().last().map_or(0, |c| c.index() + 1);
    let colors = (0..coloring.len())
        .map(|i| {
            coloring.color(EdgeId::new(i)).unwrap_or_else(|| {
                fresh += 1;
                Color::new(fresh - 1)
            })
        })
        .collect();
    ForestDecomposition::from_colors(colors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn leaf_peeling_matches_the_bfs_oracle(
        (n, classes, seed) in (1..40usize, 0..6usize, 0..u64::MAX)
    ) {
        let (g, coloring) = colored_forests(n, classes, seed);
        prop_assert!(validate_partial_forest_decomposition(&g, &coloring).is_ok());
        let expected = oracle(&g, &coloring);
        prop_assert_eq!(max_forest_diameter(&g, &coloring), expected);
        let csr = CsrGraph::from_multigraph(&g);
        prop_assert_eq!(max_forest_diameter(&csr, &coloring), expected);
        // The complete-coloring entry reads the same kernel without a copy.
        let fd = complete(&coloring);
        prop_assert!(validate_forest_decomposition(&g, &fd, None).is_ok());
        let as_partial = max_forest_diameter(&g, &fd.to_partial());
        prop_assert_eq!(fd.max_diameter(&g), Ok(as_partial));
        prop_assert_eq!(fd.max_diameter(&csr), Ok(as_partial));
    }

    #[test]
    fn rooting_matches_the_bfs_oracle(
        (n, classes, seed) in (1..40usize, 0..6usize, 0..u64::MAX)
    ) {
        let (g, coloring) = colored_forests(n, classes, seed);
        let expected = rooting_oracle(&g, &coloring);
        prop_assert_eq!(coloring.rooted_edges(&g), Ok(expected.clone()));
        let csr = CsrGraph::from_multigraph(&g);
        prop_assert_eq!(coloring.rooted_edges(&csr), Ok(expected));
        // The completion's fresh colors root each uncolored edge alone.
        let fd = complete(&coloring);
        let expected = rooting_oracle(&g, &fd.to_partial());
        prop_assert!(expected.iter().all(Option::is_some));
        prop_assert_eq!(fd.rooted_edges(&g), Ok(expected.clone()));
        prop_assert_eq!(fd.rooted_edges(&csr), Ok(expected));
    }
}
