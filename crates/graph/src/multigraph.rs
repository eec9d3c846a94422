//! Multi-graph and simple-graph containers.
//!
//! [`MultiGraph`] is the workhorse container used by every algorithm in this
//! workspace: an undirected graph that allows parallel edges (but not
//! self-loops, since forests never contain them). [`SimpleGraph`] is a thin
//! validating wrapper that additionally rejects parallel edges; the
//! star-forest results of the paper (Section 5) only hold for simple graphs.

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::view::GraphView;

/// An undirected multi-graph with `n` vertices and `m` edges.
///
/// Vertices are identified by [`VertexId`]s `0..n` and edges by [`EdgeId`]s
/// `0..m` in insertion order. Parallel edges are allowed; self-loops are not.
///
/// ```
/// use forest_graph::MultiGraph;
/// let mut g = MultiGraph::new(3);
/// let e0 = g.add_edge(0.into(), 1.into())?;
/// let e1 = g.add_edge(1.into(), 2.into())?;
/// // parallel edge: allowed in a multigraph
/// let e2 = g.add_edge(0.into(), 1.into())?;
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1.into()), 3);
/// assert_ne!(e0, e2);
/// assert_eq!(g.endpoints(e1), (1.into(), 2.into()));
/// # Ok::<(), forest_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiGraph {
    /// Endpoints of each edge, in insertion order.
    edges: Vec<(VertexId, VertexId)>,
    /// Adjacency lists: for each vertex, the (neighbor, edge) incidences.
    adj: Vec<Vec<(VertexId, EdgeId)>>,
}

impl MultiGraph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        MultiGraph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` vertices and the given edges.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range or an edge is a
    /// self-loop.
    pub fn with_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = MultiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Convenience constructor taking raw `usize` endpoint pairs.
    ///
    /// # Errors
    ///
    /// Same as [`MultiGraph::with_edges`].
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Result<Self, GraphError> {
        Self::with_edges(
            n,
            pairs
                .iter()
                .map(|&(u, v)| (VertexId::new(u), VertexId::new(v))),
        )
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (counting parallel edges individually).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge between `u` and `v` and returns its identifier.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::VertexOutOfRange`] if either endpoint does not exist.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push((u, v));
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        Ok(id)
    }

    /// Adds a fresh isolated vertex and returns its identifier.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::new(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    /// Returns the endpoints `(u, v)` of `e` in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// Returns the endpoint of `e` other than `v`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
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
    #[inline]
    pub fn is_endpoint(&self, e: EdgeId, v: VertexId) -> bool {
        let (a, b) = self.endpoints(e);
        a == v || b == v
    }

    /// Degree of `v` (parallel edges counted with multiplicity).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree `Δ` of the graph (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over `(neighbor, edge)` incidences of `v`.
    pub fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// Iterates over the neighbors of `v` (with multiplicity for parallel edges).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj[v.index()].iter().map(|&(u, _)| u)
    }

    /// Iterates over the incident edges of `v`.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj[v.index()].iter().map(|&(_, e)| e)
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices()).map(VertexId::new)
    }

    /// Iterates over all edges as `(edge, u, v)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::new(i), u, v))
    }

    /// Iterates over all edge identifiers.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId::new)
    }

    /// Returns `true` if the graph has no parallel edges (it can never have
    /// self-loops by construction).
    pub fn is_simple(&self) -> bool {
        let mut seen = PairSet::with_capacity(self.num_edges());
        for &(u, v) in &self.edges {
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                return false;
            }
        }
        true
    }

    /// Total number of incidences, i.e. `2m`.
    pub fn total_degree(&self) -> usize {
        2 * self.num_edges()
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.total_degree() as f64 / self.num_vertices() as f64
        }
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v.index() >= self.num_vertices() {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices(),
            })
        } else {
            Ok(())
        }
    }
}

impl GraphView for MultiGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        MultiGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        MultiGraph::num_edges(self)
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        MultiGraph::endpoints(self, e)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        MultiGraph::degree(self, v)
    }

    #[inline]
    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        MultiGraph::incidences(self, v)
    }
}

/// The subgraph of any [`GraphView`] keeping only the edges for which `keep`
/// returns `true`, as a fresh [`MultiGraph`] (vertex identifiers preserved)
/// plus the map from new edge ids back to the original ones. This is the
/// leftover/residue extraction step every recoloring phase uses; taking a
/// view means it works on CSR and shard inputs without a thaw.
pub fn edge_subgraph<G: GraphView, F>(g: &G, mut keep: F) -> (MultiGraph, Vec<EdgeId>)
where
    F: FnMut(EdgeId) -> bool,
{
    let mut sub = MultiGraph::new(g.num_vertices());
    let mut back = Vec::new();
    for (e, u, v) in g.edges() {
        if keep(e) {
            sub.add_edge(u, v).expect("endpoints already validated");
            back.push(e);
        }
    }
    (sub, back)
}

/// A simple graph: no self-loops, no parallel edges.
///
/// The star-forest decomposition results of the paper (Section 5) require a
/// simple graph, so those algorithms accept a `SimpleGraph` to make the
/// precondition explicit in the type system.
///
/// ```
/// use forest_graph::SimpleGraph;
/// let mut g = SimpleGraph::new(3);
/// g.add_edge(0.into(), 1.into())?;
/// assert!(g.add_edge(1.into(), 0.into()).is_err()); // parallel edge rejected
/// assert_eq!(g.graph().num_edges(), 1);
/// # Ok::<(), forest_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimpleGraph {
    inner: MultiGraph,
    present: PairSet,
}

/// A set of normalized endpoint pairs, for the parallel-edge tests. An
/// alias rather than an `#[expect]` on [`SimpleGraph`], whose derived `Eq`
/// names the field type.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: the parallel-edge tests, never iterated"
)]
type PairSet = std::collections::HashSet<(VertexId, VertexId)>;

impl SimpleGraph {
    /// Creates an edgeless simple graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        SimpleGraph {
            inner: MultiGraph::new(n),
            present: PairSet::new(),
        }
    }

    /// Creates a simple graph with `n` vertices and the given edges.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, self-loops or duplicate
    /// edges.
    pub fn with_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = SimpleGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Adds an edge, rejecting duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ParallelEdge`] if the edge already exists, plus
    /// the errors of [`MultiGraph::add_edge`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        let key = if u < v { (u, v) } else { (v, u) };
        if self.present.contains(&key) {
            return Err(GraphError::ParallelEdge { u, v });
        }
        let id = self.inner.add_edge(u, v)?;
        self.present.insert(key);
        Ok(id)
    }

    /// Borrows the underlying multigraph view (which is guaranteed simple).
    pub fn graph(&self) -> &MultiGraph {
        &self.inner
    }

    /// Consumes the wrapper and returns the underlying multigraph.
    fn into_multigraph(self) -> MultiGraph {
        self.inner
    }

    /// Attempts to reinterpret a multigraph as a simple graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ParallelEdge`] if the multigraph contains
    /// parallel edges.
    pub fn try_from_multigraph(g: MultiGraph) -> Result<Self, GraphError> {
        let mut present = PairSet::with_capacity(g.num_edges());
        for (_, u, v) in g.edges() {
            let key = if u < v { (u, v) } else { (v, u) };
            if !present.insert(key) {
                return Err(GraphError::ParallelEdge { u, v });
            }
        }
        Ok(SimpleGraph { inner: g, present })
    }
}

impl From<SimpleGraph> for MultiGraph {
    fn from(g: SimpleGraph) -> MultiGraph {
        g.into_multigraph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn build_and_query_multigraph() {
        let mut g = MultiGraph::new(4);
        let e0 = g.add_edge(v(0), v(1)).unwrap();
        let e1 = g.add_edge(v(1), v(2)).unwrap();
        let e2 = g.add_edge(v(0), v(1)).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(v(1)), 3);
        assert_eq!(g.degree(v(3)), 0);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.endpoints(e1), (v(1), v(2)));
        assert_eq!(g.other_endpoint(e0, v(0)), v(1));
        assert_eq!(g.other_endpoint(e0, v(1)), v(0));
        assert!(!g.is_simple());
        assert!(g.is_endpoint(e2, v(0)));
        assert!(!g.is_endpoint(e2, v(2)));
        assert_eq!(g.total_degree(), 6);
        assert!((g.average_degree() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = MultiGraph::new(2);
        assert_eq!(
            g.add_edge(v(1), v(1)),
            Err(GraphError::SelfLoop { vertex: v(1) })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = MultiGraph::new(2);
        assert!(matches!(
            g.add_edge(v(0), v(5)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn add_vertex_extends_graph() {
        let mut g = MultiGraph::new(1);
        let nv = g.add_vertex();
        assert_eq!(nv, v(1));
        assert_eq!(g.num_vertices(), 2);
        g.add_edge(v(0), nv).unwrap();
        assert_eq!(g.degree(nv), 1);
    }

    #[test]
    fn from_pairs_builds_expected_graph() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert!(g.is_simple());
    }

    #[test]
    fn edge_subgraph_preserves_vertices_and_maps_edges() {
        let g = MultiGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let (sub, back) = edge_subgraph(&g, |e| e.index() % 2 == 0);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(back, vec![EdgeId::new(0), EdgeId::new(2)]);
    }

    #[test]
    fn iterators_cover_all_elements() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.vertices().count(), 3);
        assert_eq!(g.edges().count(), 2);
        assert_eq!(g.edge_ids().count(), 2);
        assert_eq!(g.neighbors(v(1)).count(), 2);
        assert_eq!(g.incident_edges(v(1)).count(), 2);
        assert_eq!(g.incidences(v(0)).count(), 1);
    }

    #[test]
    fn simple_graph_rejects_duplicates() {
        let mut g = SimpleGraph::new(3);
        g.add_edge(v(0), v(1)).unwrap();
        assert!(matches!(
            g.add_edge(v(1), v(0)),
            Err(GraphError::ParallelEdge { .. })
        ));
    }

    #[test]
    fn simple_graph_from_multigraph() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let s = SimpleGraph::try_from_multigraph(g).unwrap();
        assert_eq!(s.graph().num_edges(), 2);

        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 0)]).unwrap();
        assert!(SimpleGraph::try_from_multigraph(g).is_err());
    }

    #[test]
    fn empty_graph_properties() {
        let g = MultiGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert!(g.is_simple());
    }
}
