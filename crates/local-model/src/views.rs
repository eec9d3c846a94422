//! Power graphs.
//!
//! In the LOCAL model a vertex can learn everything within distance `r` in
//! `r` rounds, and the power graph `G^r` can be simulated with an `O(r)`
//! overhead (Section 1.1 of the paper). [`power_graph`] materializes `G^r`;
//! it is the test oracle. The engines never build it:
//! [`network_decomposition`](crate::network_decomposition) reads each
//! power neighbourhood from one bounded BFS in `G`, so `G^r`'s up to
//! `O(n²)` edges never exist.

use forest_graph::traversal::BfsScratch;
use forest_graph::{GraphView, MultiGraph, VertexId};

/// Builds the power graph `G^r`: same vertex set, an edge between `u` and `v`
/// whenever their distance in `G` is between 1 and `r`. The result is simple
/// (no parallel edges) regardless of multiplicities in `G`.
///
/// Simulating one round of `G^r` costs `O(r)` rounds of `G`; callers charge
/// that separately when they run algorithms on the power graph.
///
/// **Engine note:** this materializer is the ground-truth oracle for
/// tests. Decomposing `G^r` needs no materialization:
/// `network_decomposition(g, r, ledger)` equals
/// `network_decomposition(&power_graph(g, r), 1, ledger)`.
pub fn power_graph<G: GraphView>(g: &G, r: usize) -> MultiGraph {
    let n = g.num_vertices();
    let mut pg = MultiGraph::new(n);
    if r == 0 {
        return pg;
    }
    let mut scratch = BfsScratch::new(n);
    let mut reached: Vec<VertexId> = Vec::new();
    for v in g.vertices() {
        scratch.run_bounded(g, &[v], r, |_| true);
        reached.clear();
        reached.extend(scratch.visited().iter().copied().filter(|&u| u > v));
        reached.sort_unstable();
        for &u in &reached {
            pg.add_edge(v, u).expect("power graph edge");
        }
    }
    pg
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;

    #[test]
    fn power_graph_of_path() {
        let g = generators::path(5);
        let p2 = power_graph(&g, 2);
        // Edges: distance 1 (4 of them) + distance 2 (3 of them).
        assert_eq!(p2.num_edges(), 7);
        assert!(p2.is_simple());
        let p0 = power_graph(&g, 0);
        assert_eq!(p0.num_edges(), 0);
        // Large radius: complete graph.
        let p10 = power_graph(&g, 10);
        assert_eq!(p10.num_edges(), 5 * 4 / 2);
    }

    #[test]
    fn power_graph_ignores_multiplicity() {
        let g = generators::fat_path(3, 4);
        let p1 = power_graph(&g, 1);
        assert_eq!(p1.num_edges(), 3);
        assert!(p1.is_simple());
    }
}
