//! The [`GraphView`] abstraction: read-only topology access shared by every
//! graph representation in the workspace.
//!
//! All decomposition algorithms are round-synchronous scans over *static*
//! topology: they never add or remove edges while running. [`GraphView`]
//! captures exactly the read surface they need — vertex/edge counts,
//! endpoints, degrees and `(neighbor, edge)` incidence iteration — so that
//! each algorithm can run unchanged over the mutable adjacency-list
//! [`MultiGraph`](crate::MultiGraph) *or* the frozen cache-friendly
//! [`CsrGraph`](crate::CsrGraph).
//!
//! Implementations must agree on identifier semantics: vertices are
//! `0..num_vertices()`, edges `0..num_edges()`, and
//! [`incidences`](GraphView::incidences) yields each incident edge exactly
//! once per endpoint, in a deterministic order. `CsrGraph::from_multigraph`
//! preserves `MultiGraph`'s incidence order (ascending edge id per vertex),
//! so an algorithm produces *identical* output on both representations.

use crate::ids::{EdgeId, VertexId};

/// Read-only access to a frozen (or momentarily-frozen) graph topology.
///
/// The five required methods are the primitive accessors; everything else is
/// derived. Implementors with cheaper representations (e.g. slice-backed CSR)
/// should override the derived iterators where it matters.
pub trait GraphView {
    /// Number of vertices `n`; vertices are identified by `0..n`.
    fn num_vertices(&self) -> usize;

    /// Number of edges `m` (parallel edges counted individually); edges are
    /// identified by `0..m`.
    fn num_edges(&self) -> usize;

    /// Endpoints `(u, v)` of `e` in insertion order.
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId);

    /// Degree of `v` (parallel edges counted with multiplicity).
    fn degree(&self, v: VertexId) -> usize;

    /// Iterates over the `(neighbor, edge)` incidences of `v`, in the
    /// representation's canonical deterministic order.
    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_;

    /// Returns `true` if the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Iterates over the neighbors of `v` (with multiplicity).
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.incidences(v).map(|(u, _)| u)
    }

    /// Iterates over the incident edges of `v`.
    fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.incidences(v).map(|(_, e)| e)
    }

    /// Iterates over all vertices.
    fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices()).map(VertexId::new)
    }

    /// Iterates over all edge identifiers.
    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId::new)
    }

    /// Iterates over all edges as `(edge, u, v)` triples.
    fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edge_ids().map(|e| {
            let (u, v) = self.endpoints(e);
            (e, u, v)
        })
    }

    /// The endpoint of `e` other than `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (a, b) = self.endpoints(e);
        if a == v {
            b
        } else if b == v {
            a
        } else {
            panic!("vertex {v} is not an endpoint of edge {e}");
        }
    }

    /// Returns `true` if `v` is an endpoint of `e`.
    fn is_endpoint(&self, e: EdgeId, v: VertexId) -> bool {
        let (a, b) = self.endpoints(e);
        a == v || b == v
    }

    /// Maximum degree `Δ` (0 for an edgeless graph).
    fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Total number of incidences, i.e. `2m`.
    fn total_degree(&self) -> usize {
        2 * self.num_edges()
    }

    /// Average degree `2m / n` (0 for the empty graph).
    fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.total_degree() as f64 / self.num_vertices() as f64
        }
    }
}

/// A bare edge list as a [`GraphView`], for tests: unlike
/// [`MultiGraph`](crate::MultiGraph), it takes self-loops.
#[cfg(test)]
pub(crate) struct EdgeList {
    /// Number of vertices.
    pub n: usize,
    /// The edges, in id order.
    pub edges: Vec<(VertexId, VertexId)>,
}

#[cfg(test)]
impl GraphView for EdgeList {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    fn degree(&self, v: VertexId) -> usize {
        self.incidences(v).count()
    }

    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.edges.iter().enumerate().flat_map(move |(i, &(a, b))| {
            let e = EdgeId::new(i);
            [(a == v).then_some((b, e)), (b == v).then_some((a, e))]
                .into_iter()
                .flatten()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::multigraph::MultiGraph;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// A generic consumer: works identically over both representations.
    fn degree_sum<G: GraphView>(g: &G) -> usize {
        g.vertices().map(|x| g.degree(x)).sum()
    }

    #[test]
    fn derived_methods_agree_across_representations() {
        let g = MultiGraph::from_pairs(4, &[(0, 1), (1, 2), (0, 1), (2, 3)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        assert_eq!(degree_sum(&g), degree_sum(&csr));
        assert_eq!(GraphView::max_degree(&g), GraphView::max_degree(&csr));
        assert_eq!(GraphView::total_degree(&csr), 8);
        assert!((GraphView::average_degree(&csr) - 2.0).abs() < 1e-9);
        assert!(GraphView::is_endpoint(&csr, EdgeId::new(0), v(1)));
        assert_eq!(GraphView::other_endpoint(&csr, EdgeId::new(3), v(3)), v(2));
        let edges_mg: Vec<_> = GraphView::edges(&g).collect();
        let edges_csr: Vec<_> = GraphView::edges(&csr).collect();
        assert_eq!(edges_mg, edges_csr);
        for x in GraphView::vertices(&g) {
            let inc_mg: Vec<_> = GraphView::incidences(&g, x).collect();
            let inc_csr: Vec<_> = GraphView::incidences(&csr, x).collect();
            assert_eq!(inc_mg, inc_csr, "incidence order must match at {x}");
        }
    }

    #[test]
    fn empty_view_edge_cases() {
        let g = MultiGraph::new(0);
        let csr = CsrGraph::from_multigraph(&g);
        assert!(GraphView::is_empty(&csr));
        assert_eq!(GraphView::max_degree(&csr), 0);
        assert_eq!(GraphView::average_degree(&csr), 0.0);
    }
}
