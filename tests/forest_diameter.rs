//! Differential test of the leaf-peeling diameter kernel: on random valid
//! partial forest colorings, `max_forest_diameter` must equal the largest
//! per-class diameter the BFS oracle `traversal::forest_diameter` measures.
//!
//! The colorings mix random forests, paths and stars, leave some edges
//! uncolored (parallel to colored ones or not), skip color indices the way
//! the Harris–Su–Vu leftover star colors do, and keep isolated vertices.

use forest_graph::decomposition::{
    max_forest_diameter, validate_partial_forest_decomposition, PartialEdgeColoring,
};
use forest_graph::traversal::forest_diameter;
use forest_graph::{Color, CsrGraph, GraphView, MultiGraph, UnionFind, VertexId};
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
    }
}
