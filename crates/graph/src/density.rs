//! Exact density and sparsity measures: densest subgraph, pseudo-arboricity
//! and the Nash-Williams quantities.
//!
//! These are the ground-truth measurements the benchmark harness compares the
//! distributed algorithms against. The densest subgraph is computed exactly
//! with Goldberg's flow construction; pseudo-arboricity comes from the
//! minimum-out-degree orientation in [`crate::orientation`].

use crate::flow::{FlowNetwork, INF_CAPACITY};
use crate::ids::VertexId;
use crate::view::GraphView;

/// Result of an exact densest-subgraph computation.
#[derive(Clone, Debug)]
pub struct DensestSubgraph {
    /// Vertices of a subgraph achieving the maximum density.
    pub vertices: Vec<VertexId>,
    /// Number of edges induced by `vertices`.
    pub num_edges: usize,
    /// The maximum density `max_H |E(H)| / |V(H)|`.
    pub density: f64,
}

fn induced_edge_count<G: GraphView>(g: &G, in_set: &[bool]) -> usize {
    g.edges()
        .filter(|(_, u, v)| in_set[u.index()] && in_set[v.index()])
        .count()
}

/// Tests whether some non-empty subgraph `H` satisfies
/// `|E(H)| > guess * |V(H)|`, and if so returns its vertex set.
///
/// Uses the standard edge/vertex flow gadget: the source feeds each edge one
/// unit, edges feed their endpoints with infinite capacity, and each vertex
/// pays `guess` to the sink. Capacities are scaled by `scale` so that
/// `guess` can be rational with denominator `scale`.
fn denser_than<G: GraphView>(g: &G, guess_num: i64, scale: i64) -> Option<Vec<VertexId>> {
    let m = g.num_edges();
    let n = g.num_vertices();
    if m == 0 {
        return None;
    }
    let source = 0usize;
    let edge_node = |e: usize| 1 + e;
    let vertex_node = |v: usize| 1 + m + v;
    let sink = 1 + m + n;
    let mut net = FlowNetwork::new(sink + 1);
    for (e, u, v) in g.edges() {
        net.add_edge(source, edge_node(e.index()), scale);
        net.add_edge(edge_node(e.index()), vertex_node(u.index()), INF_CAPACITY);
        net.add_edge(edge_node(e.index()), vertex_node(v.index()), INF_CAPACITY);
    }
    for v in 0..n {
        net.add_edge(vertex_node(v), sink, guess_num);
    }
    let flow = net.max_flow(source, sink);
    // max_H (scale*|E(H)| - guess_num*|V(H)|) = scale*m - mincut.
    let surplus = scale * m as i64 - flow;
    if surplus <= 0 {
        return None;
    }
    let side = net.min_cut_source_side(source);
    let vertices: Vec<VertexId> = g
        .vertices()
        .filter(|v| side[vertex_node(v.index())])
        .collect();
    if vertices.is_empty() {
        None
    } else {
        Some(vertices)
    }
}

/// Computes the exact maximum subgraph density `max_H |E(H)| / |V(H)|` and a
/// witnessing subgraph. Returns a density of 0 with all vertices for an
/// edgeless graph.
pub fn densest_subgraph<G: GraphView>(g: &G) -> DensestSubgraph {
    let n = g.num_vertices();
    let m = g.num_edges();
    if m == 0 {
        return DensestSubgraph {
            vertices: g.vertices().collect(),
            num_edges: 0,
            density: 0.0,
        };
    }
    // Binary search over guesses with denominator n*(n) is enough to separate
    // distinct densities p/q with q <= n: two distinct densities differ by at
    // least 1/(n*(n-1)) > 1/n^2.
    let scale = (n as i64) * (n as i64);
    let mut lo = 0i64; // density guess numerator, denominator = scale
    let mut hi = (m as i64) * (n as i64); // density <= m <= this/scale
    let mut best: Option<Vec<VertexId>> = None;
    while lo < hi {
        let mid = (lo + hi + 1) / 2;
        match denser_than(g, mid, scale) {
            Some(witness) => {
                best = Some(witness);
                lo = mid;
            }
            None => hi = mid - 1,
        }
    }
    let vertices = best.unwrap_or_else(|| g.vertices().collect());
    let mut in_set = vec![false; n];
    for &v in &vertices {
        in_set[v.index()] = true;
    }
    let num_edges = induced_edge_count(g, &in_set);
    let density = num_edges as f64 / vertices.len() as f64;
    DensestSubgraph {
        vertices,
        num_edges,
        density,
    }
}

/// Exact pseudo-arboricity `α* = ⌈max_H |E(H)| / |V(H)|⌉`, computed from the
/// minimum-out-degree orientation (cross-validated against
/// [`densest_subgraph`] in tests).
pub fn pseudoarboricity<G: GraphView>(g: &G) -> usize {
    crate::orientation::pseudoarboricity(g)
}

/// Exact arboricity (delegates to the matroid-partition baseline).
pub fn arboricity<G: GraphView>(g: &G) -> usize {
    crate::matroid::arboricity(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::MultiGraph;

    fn complete_graph(n: usize) -> MultiGraph {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                pairs.push((i, j));
            }
        }
        MultiGraph::from_pairs(n, &pairs).unwrap()
    }

    #[test]
    fn densest_subgraph_of_clique_plus_path() {
        // K4 (density 6/4 = 1.5) plus a pendant path (density < 1).
        let mut g = complete_graph(4);
        for _ in 0..4 {
            g.add_vertex();
        }
        for i in 3..7usize {
            g.add_edge(VertexId::new(i), VertexId::new(i + 1)).unwrap();
        }
        let ds = densest_subgraph(&g);
        assert!((ds.density - 1.5).abs() < 1e-9, "density = {}", ds.density);
        assert_eq!(ds.vertices.len(), 4);
        assert_eq!(ds.num_edges, 6);
    }

    #[test]
    fn densest_subgraph_of_edgeless_graph() {
        let g = MultiGraph::new(5);
        let ds = densest_subgraph(&g);
        assert_eq!(ds.density, 0.0);
        assert_eq!(ds.num_edges, 0);
    }

    #[test]
    fn max_density_of_cycle_is_one() {
        let pairs: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = MultiGraph::from_pairs(6, &pairs).unwrap();
        assert!((densest_subgraph(&g).density - 1.0).abs() < 1e-9);
        assert_eq!(pseudoarboricity(&g), 1);
    }

    #[test]
    fn pseudoarboricity_matches_ceiling_of_density() {
        for n in 2..=6usize {
            let g = complete_graph(n);
            let d = densest_subgraph(&g).density;
            assert_eq!(pseudoarboricity(&g), d.ceil() as usize, "K_{n}");
        }
    }

    #[test]
    fn arboricity_sandwich_inequalities() {
        // alpha* <= alpha <= 2 alpha* for multigraphs, alpha <= alpha* + 1 for simple.
        for n in 2..=6usize {
            let g = complete_graph(n);
            let a = arboricity(&g);
            let ps = pseudoarboricity(&g);
            assert!(ps <= a);
            assert!(a <= 2 * ps);
            assert!(a <= ps + 1, "simple graph bound");
        }
    }

    #[test]
    fn fat_path_density() {
        let mut g = MultiGraph::new(3);
        for i in 0..2usize {
            for _ in 0..4 {
                g.add_edge(VertexId::new(i), VertexId::new(i + 1)).unwrap();
            }
        }
        // Densest subgraph is the whole fat path: 8 edges / 3 vertices.
        let ds = densest_subgraph(&g);
        assert!((ds.density - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(pseudoarboricity(&g), 3);
        assert_eq!(arboricity(&g), 4);
    }
}
