//! Edge orientations and exact minimum-out-degree orientations.
//!
//! A `k`-orientation (every vertex has out-degree at most `k`) is equivalent
//! to a `k`-pseudo-forest decomposition, and the minimum achievable `k` equals
//! the pseudo-arboricity `α*` of the graph (Picard–Queyranne). Corollary 1.1
//! of the paper produces `(1+ε)α`-orientations from bounded-diameter forest
//! decompositions; this module provides the representation plus an exact
//! flow-based reference orientation used as ground truth in tests and
//! benchmarks.

use crate::error::GraphError;
use crate::flow::FlowNetwork;
use crate::ids::{EdgeId, VertexId};
use crate::view::GraphView;

/// An orientation of every edge of a [`MultiGraph`](crate::MultiGraph): each edge is directed
/// away from its *tail* vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Orientation {
    tail: Vec<VertexId>,
}

impl Orientation {
    /// Creates an orientation from an explicit tail vector (entry `i` is the
    /// origin of edge `i`).
    ///
    /// # Errors
    ///
    /// Returns an error if the vector length does not match the number of
    /// edges or some tail is not an endpoint of its edge.
    pub fn from_tails<G: GraphView>(g: &G, tails: Vec<VertexId>) -> Result<Self, GraphError> {
        if tails.len() != g.num_edges() {
            return Err(GraphError::EdgeOutOfRange {
                edge: EdgeId::new(tails.len()),
                num_edges: g.num_edges(),
            });
        }
        for (e, &t) in tails.iter().enumerate() {
            let id = EdgeId::new(e);
            if !g.is_endpoint(id, t) {
                return Err(GraphError::VertexOutOfRange {
                    vertex: t,
                    num_vertices: g.num_vertices(),
                });
            }
        }
        Ok(Orientation { tail: tails })
    }

    /// Creates an orientation by evaluating `choose_tail` on every edge.
    ///
    /// `choose_tail` receives the edge id and its endpoints and must return
    /// one of the two endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `choose_tail` returns a vertex that is not an endpoint.
    pub fn from_fn<G, F>(g: &G, mut choose_tail: F) -> Self
    where
        G: GraphView,
        F: FnMut(EdgeId, VertexId, VertexId) -> VertexId,
    {
        let tails: Vec<VertexId> = g
            .edges()
            .map(|(e, u, v)| {
                let t = choose_tail(e, u, v);
                assert!(t == u || t == v, "tail must be an endpoint of the edge");
                t
            })
            .collect();
        Orientation { tail: tails }
    }

    /// The vertex the edge points away from.
    #[inline]
    pub fn tail(&self, e: EdgeId) -> VertexId {
        self.tail[e.index()]
    }

    /// The vertex the edge points toward.
    #[inline]
    pub fn head<G: GraphView>(&self, g: &G, e: EdgeId) -> VertexId {
        g.other_endpoint(e, self.tail(e))
    }

    /// Returns `true` if `e` is oriented out of `v`.
    #[inline]
    fn is_out_edge(&self, e: EdgeId, v: VertexId) -> bool {
        self.tail(e) == v
    }

    /// Out-degree of every vertex.
    pub fn out_degrees<G: GraphView>(&self, g: &G) -> Vec<usize> {
        let mut deg = vec![0usize; g.num_vertices()];
        for &t in &self.tail {
            deg[t.index()] += 1;
        }
        deg
    }

    /// Maximum out-degree over all vertices.
    pub fn max_out_degree<G: GraphView>(&self, g: &G) -> usize {
        self.out_degrees(g).into_iter().max().unwrap_or(0)
    }

    /// Out-edges of `v`.
    pub fn out_edges<G: GraphView>(&self, g: &G, v: VertexId) -> Vec<EdgeId> {
        g.incident_edges(v)
            .filter(|&e| self.is_out_edge(e, v))
            .collect()
    }

    /// Out-neighbors of `v` (with multiplicity).
    pub fn out_neighbors<G: GraphView>(&self, g: &G, v: VertexId) -> Vec<VertexId> {
        self.out_edges(g, v)
            .into_iter()
            .map(|e| g.other_endpoint(e, v))
            .collect()
    }

    /// Returns `true` if the directed graph induced by the orientation is
    /// acyclic (checked with Kahn's algorithm).
    pub fn is_acyclic<G: GraphView>(&self, g: &G) -> bool {
        self.topological_order(g).is_some()
    }

    /// Returns a topological order of the vertices in the oriented graph, or
    /// `None` if it contains a directed cycle.
    pub fn topological_order<G: GraphView>(&self, g: &G) -> Option<Vec<VertexId>> {
        let n = g.num_vertices();
        let mut indeg = vec![0usize; n];
        for e in g.edge_ids() {
            indeg[self.head(g, e).index()] += 1;
        }
        let mut queue: std::collections::VecDeque<VertexId> =
            g.vertices().filter(|v| indeg[v.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for e in self.out_edges(g, u) {
                let w = self.head(g, e);
                indeg[w.index()] -= 1;
                if indeg[w.index()] == 0 {
                    queue.push_back(w);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }
}

/// Tries to orient `g` so that every vertex has out-degree at most `k`, using
/// a bipartite edge/vertex flow gadget. Returns `None` if no such orientation
/// exists (i.e. `k` is below the pseudo-arboricity).
pub fn bounded_outdegree_orientation<G: GraphView>(g: &G, k: usize) -> Option<Orientation> {
    let m = g.num_edges();
    let n = g.num_vertices();
    if m == 0 {
        return Some(Orientation { tail: Vec::new() });
    }
    // Nodes: 0 = source, 1..=m edge nodes, m+1..=m+n vertex nodes, m+n+1 sink.
    let source = 0usize;
    let edge_node = |e: usize| 1 + e;
    let vertex_node = |v: usize| 1 + m + v;
    let sink = 1 + m + n;
    let mut net = FlowNetwork::new(sink + 1);
    let mut choice_handles = Vec::with_capacity(m);
    for (e, u, v) in g.edges() {
        net.add_edge(source, edge_node(e.index()), 1);
        let hu = net.add_edge(edge_node(e.index()), vertex_node(u.index()), 1);
        let hv = net.add_edge(edge_node(e.index()), vertex_node(v.index()), 1);
        choice_handles.push((hu, hv));
    }
    // At most m units of flow reach the sink, so capping each vertex's
    // capacity at m changes no orientation and keeps every k in range.
    let cap = i64::try_from(k.min(m)).unwrap_or(i64::MAX);
    for v in 0..n {
        net.add_edge(vertex_node(v), sink, cap);
    }
    let flow = net.max_flow(source, sink);
    if flow < i64::try_from(m).unwrap_or(i64::MAX) {
        return None;
    }
    let mut tails = Vec::with_capacity(m);
    for (e, u, v) in g.edges() {
        let (hu, _hv) = choice_handles[e.index()];
        // Flow on the edge->u arc means u absorbs the edge, i.e. u is the tail.
        if net.flow_on(hu) > 0 {
            tails.push(u);
        } else {
            tails.push(v);
        }
    }
    Some(Orientation { tail: tails })
}

/// Computes an exact minimum-max-out-degree orientation and returns it along
/// with the optimum value, which equals the pseudo-arboricity `α*` of `g`
/// (0 for an edgeless graph).
pub fn min_max_outdegree_orientation<G: GraphView>(g: &G) -> (Orientation, usize) {
    if g.num_edges() == 0 {
        return (Orientation { tail: Vec::new() }, 0);
    }
    let mut lo = 1usize;
    let mut hi = g.max_degree();
    let mut best = None;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        match bounded_outdegree_orientation(g, mid) {
            Some(o) => {
                best = Some((o, mid));
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            None => lo = mid + 1,
        }
    }
    best.expect("max_degree always admits an orientation")
}

/// Exact pseudo-arboricity `α*` (minimum `k` admitting a `k`-orientation).
pub fn pseudoarboricity<G: GraphView>(g: &G) -> usize {
    min_max_outdegree_orientation(g).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::MultiGraph;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn cycle(n: usize) -> MultiGraph {
        let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        MultiGraph::from_pairs(n, &pairs).unwrap()
    }

    #[test]
    fn from_tails_validates() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let o = Orientation::from_tails(&g, vec![v(0), v(2)]).unwrap();
        assert_eq!(o.tail(EdgeId::new(0)), v(0));
        assert_eq!(o.head(&g, EdgeId::new(0)), v(1));
        assert!(Orientation::from_tails(&g, vec![v(0)]).is_err());
        assert!(Orientation::from_tails(&g, vec![v(0), v(0)]).is_err());
    }

    #[test]
    fn out_degrees_and_edges() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let o = Orientation::from_fn(&g, |_, u, _| u);
        assert_eq!(o.out_degrees(&g), vec![2, 1, 0]);
        assert_eq!(o.max_out_degree(&g), 2);
        assert_eq!(o.out_edges(&g, v(0)).len(), 2);
        assert_eq!(o.out_neighbors(&g, v(1)), vec![v(2)]);
    }

    #[test]
    fn acyclicity_detection() {
        let g = cycle(3);
        // Orient around the cycle: cyclic.
        let o = Orientation::from_fn(&g, |_, u, _| u);
        assert!(!o.is_acyclic(&g));
        // Orient both edges of a path out of the middle: acyclic.
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let o = Orientation::from_fn(&g, |_, u, w| if u == v(1) { u } else { w });
        assert!(o.is_acyclic(&g));
        let order = o.topological_order(&g).unwrap();
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn bounded_orientation_on_cycle() {
        let g = cycle(5);
        // A cycle has pseudo-arboricity 1.
        let o = bounded_outdegree_orientation(&g, 1).unwrap();
        assert_eq!(o.max_out_degree(&g), 1);
        assert!(bounded_outdegree_orientation(&g, 0).is_none());
        // Any bound past the edge count orients as the edge count does.
        let at_m = bounded_outdegree_orientation(&g, g.num_edges());
        assert_eq!(bounded_outdegree_orientation(&g, usize::MAX), at_m);
    }

    #[test]
    fn min_max_outdegree_on_complete_graph() {
        // K4 has 6 edges, 4 vertices: max density 6/4 = 1.5, so alpha* = 2.
        let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let g = MultiGraph::from_pairs(4, &pairs).unwrap();
        let (o, k) = min_max_outdegree_orientation(&g);
        assert_eq!(k, 2);
        assert_eq!(o.max_out_degree(&g), 2);
        assert_eq!(pseudoarboricity(&g), 2);
    }

    #[test]
    fn pseudoarboricity_of_tree_is_one() {
        let g = MultiGraph::from_pairs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(pseudoarboricity(&g), 1);
    }

    #[test]
    fn pseudoarboricity_of_multigraph_path() {
        // Fat path: 3 parallel edges between consecutive vertices.
        let mut g = MultiGraph::new(4);
        for i in 0..3usize {
            for _ in 0..3 {
                g.add_edge(v(i), v(i + 1)).unwrap();
            }
        }
        // Densest subgraph is the whole fat path: 9 edges / 4 vertices = 2.25,
        // so alpha* = ceil(2.25) = 3.
        assert_eq!(pseudoarboricity(&g), 3);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = MultiGraph::new(3);
        assert_eq!(pseudoarboricity(&g), 0);
        let (o, k) = min_max_outdegree_orientation(&g);
        assert_eq!(k, 0);
        assert_eq!(o.max_out_degree(&g), 0);
    }
}
