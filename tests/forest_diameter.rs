//! Differential tests of the two per-class kernels of
//! `forest_graph::decomposition` on random valid partial forest colorings
//! and their completions:
//!
//! * leaf peeling: `max_forest_diameter` must equal the largest per-class
//!   diameter the BFS oracle `traversal::forest_diameter` measures, and
//!   `ForestDecomposition::max_diameter` must equal `max_forest_diameter`
//!   of the same coloring as a partial one;
//! * rooting: `rooted_edges` must give every edge the child and depth of a
//!   `traversal::bfs_distances` sweep from its tree's minimum vertex;
//! * the peel's witness: on colorings whose classes may hold a planted
//!   triangle, parallel pair or self-loop, both kernels must name the
//!   lowest class with a non-empty 2-core and that 2-core's lowest-id edge,
//!   found by a naive pruning that does not depend on the peel's order.
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
    Color, CsrGraph, EdgeId, ForestDecomposition, GraphView, MultiGraph, UnionFind,
    ValidationError, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An edge list: endpoints and color (`None` = uncolored).
type Edges = Vec<(usize, usize, Option<Color>)>;

/// A graph on `n` vertices and a valid partial forest coloring of it with
/// `classes` color classes, drawn from `seed`.
fn colored_forests(n: usize, classes: usize, seed: u64) -> (MultiGraph, PartialEdgeColoring) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, edges) = forest_edges(n, classes, &mut rng);
    let (pairs, coloring) = shuffled(edges, &mut rng);
    let mut g = MultiGraph::new(n);
    for (u, v) in pairs {
        g.add_edge(u, v)
            .expect("endpoints are in range and distinct");
    }
    (g, coloring)
}

/// [`colored_forests`]' edges, with a triangle, a parallel pair or a
/// self-loop planted in each class with probability 3/5 (the triangle
/// needs three vertices, the pair two). A planted cycle may meet the
/// class's trees, so its 2-core can reach beyond it.
fn colored_with_cycles(n: usize, classes: usize, seed: u64) -> (LoopyGraph, PartialEdgeColoring) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (colors, mut edges) = forest_edges(n, classes, &mut rng);
    for c in colors {
        let a = rng.gen_range(0..n);
        match rng.gen_range(0..5usize) {
            0 if n >= 3 => {
                let b = (a + rng.gen_range(1..n)) % n;
                let d = loop {
                    let d = rng.gen_range(0..n);
                    if d != a && d != b {
                        break d;
                    }
                };
                edges.extend([(a, b, Some(c)), (b, d, Some(c)), (d, a, Some(c))]);
            }
            1 if n >= 2 => {
                let b = (a + rng.gen_range(1..n)) % n;
                edges.extend([(a, b, Some(c)), (b, a, Some(c))]);
            }
            2 => edges.push((a, a, Some(c))),
            _ => {}
        }
    }
    let (pairs, coloring) = shuffled(edges, &mut rng);
    (LoopyGraph::new(n, pairs), coloring)
}

/// The edges of `classes` random forest color classes on `n` vertices plus
/// some uncolored edges, and the classes' colors.
fn forest_edges(n: usize, classes: usize, rng: &mut StdRng) -> (Vec<Color>, Edges) {
    // Color ids with gaps: an offset, then a stride of one to three.
    let offset = rng.gen_range(0..4usize);
    let stride = rng.gen_range(1..4usize);
    let colors: Vec<Color> = (0..classes)
        .map(|class| Color::new(offset + class * stride))
        .collect();
    let mut edges: Edges = Vec::new();
    let mut vertices: Vec<usize> = (0..n).collect();
    for &color in &colors {
        let mut uf = UnionFind::new(n);
        let mut try_edge = |u: usize, v: usize, edges: &mut Edges| {
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
                vertices.shuffle(rng);
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
    (colors, edges)
}

/// The endpoints of `edges` in a random order, which interleaves the
/// classes' edge ids, and their coloring.
fn shuffled(
    mut edges: Edges,
    rng: &mut StdRng,
) -> (Vec<(VertexId, VertexId)>, PartialEdgeColoring) {
    edges.shuffle(rng);
    let pairs = edges
        .iter()
        .map(|&(u, v, _)| (VertexId::new(u), VertexId::new(v)));
    let colors = edges.iter().map(|&(_, _, c)| c).collect();
    (pairs.collect(), PartialEdgeColoring::from_colors(colors))
}

/// An edge list as a [`GraphView`] that, unlike [`MultiGraph`], takes
/// self-loops. Each vertex lists its incidences in ascending edge id, as
/// `MultiGraph` does, and a self-loop twice at its vertex.
struct LoopyGraph {
    edges: Vec<(VertexId, VertexId)>,
    adjacency: Vec<Vec<(VertexId, EdgeId)>>,
}

impl LoopyGraph {
    fn new(n: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        let mut adjacency = vec![Vec::new(); n];
        for (i, &(u, v)) in edges.iter().enumerate() {
            adjacency[u.index()].push((v, EdgeId::new(i)));
            adjacency[v.index()].push((u, EdgeId::new(i)));
        }
        LoopyGraph { edges, adjacency }
    }
}

impl GraphView for LoopyGraph {
    fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v.index()].len()
    }

    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.adjacency[v.index()].iter().copied()
    }
}

/// The 2-core of class `c`, ascending: its edges left once every vertex of
/// degree 1 has been deleted, round by round, until none is left (a
/// self-loop counts twice at its vertex).
fn two_core<G: GraphView>(g: &G, coloring: &PartialEdgeColoring, c: Color) -> Vec<EdgeId> {
    let mut left: Vec<EdgeId> = g
        .edge_ids()
        .filter(|&e| coloring.color(e) == Some(c))
        .collect();
    loop {
        let mut degree = vec![0usize; g.num_vertices()];
        for &e in &left {
            let (u, v) = g.endpoints(e);
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let before = left.len();
        left.retain(|&e| {
            let (u, v) = g.endpoints(e);
            degree[u.index()] > 1 && degree[v.index()] > 1
        });
        if left.len() == before {
            return left;
        }
    }
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

    #[test]
    fn peel_witness_matches_the_naive_two_core(
        (n, classes, seed) in (1..40usize, 0..6usize, 0..u64::MAX)
    ) {
        let (g, coloring) = colored_with_cycles(n, classes, seed);
        // The completion's fresh colors lie above every planted class and
        // hold one edge each, never a self-loop.
        let fd = complete(&coloring);
        let expected = coloring.colors_used().into_iter().find_map(|color| {
            let witness = *two_core(&g, &coloring, color).first()?;
            Some(ValidationError::CycleInColorClass { color, witness })
        });
        match expected {
            Some(cycle) => {
                prop_assert_eq!(fd.max_diameter(&g), Err(cycle.clone()));
                prop_assert_eq!(fd.rooted_edges(&g), Err(cycle.clone()));
                prop_assert_eq!(coloring.rooted_edges(&g), Err(cycle.clone()));
                // The independent union-find check rejects the same class.
                let checked = validate_partial_forest_decomposition(&g, &coloring);
                let same_class = match (&checked, &cycle) {
                    (
                        Err(ValidationError::CycleInColorClass { color: got, .. }),
                        ValidationError::CycleInColorClass { color, .. },
                    ) => got == color,
                    _ => false,
                };
                prop_assert!(same_class, "union-find check gave {:?}", checked);
            }
            None => {
                prop_assert!(validate_partial_forest_decomposition(&g, &coloring).is_ok());
                prop_assert_eq!(max_forest_diameter(&g, &coloring), oracle(&g, &coloring));
                let expected = oracle(&g, &fd.to_partial());
                prop_assert_eq!(fd.max_diameter(&g), Ok(expected));
            }
        }
    }
}
