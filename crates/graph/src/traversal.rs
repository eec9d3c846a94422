//! Graph traversal utilities: BFS, connected components, distances, diameters
//! and filtered traversals restricted to a subset of edges.
//!
//! The decomposition algorithms constantly need to answer questions such as
//! "what is the path between `u` and `v` inside the color-`c` forest?" or
//! "how deep is this tree?". These helpers all accept an optional edge filter
//! so that a single [`MultiGraph`](crate::MultiGraph) can be traversed per
//! color class without materializing subgraphs.

use crate::ids::{u32_of, EdgeId, VertexId};
use crate::view::GraphView;
use std::collections::VecDeque;

/// Distance value meaning "unreachable".
pub const UNREACHABLE: usize = usize::MAX;

/// Reusable scratch for bounded-radius BFS sweeps: epoch-stamped visited
/// marks (`O(1)` reset, no per-sweep allocation) and a flat queue that
/// doubles as the list of reached vertices.
///
/// The cluster pipeline of Algorithm 2 and the network decomposition of a
/// power graph `G^r` (one ball per power neighbourhood) both probe
/// thousands of small neighborhoods of one large graph; allocating
/// (and zeroing) `vec![UNREACHABLE; n]` per probe would dominate the probe
/// itself. One `BfsScratch` amortizes all of it: stamps invalidate by
/// epoch bump, and the BFS queue is an append-only `Vec` whose final
/// content *is* the visited set in BFS order (distances nondecreasing).
#[derive(Clone, Debug)]
pub struct BfsScratch {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    epoch: u32,
    order: Vec<VertexId>,
}

impl BfsScratch {
    /// Scratch for graphs of at most `n` vertices (grows on demand).
    pub fn new(n: usize) -> Self {
        BfsScratch {
            stamp: vec![0; n],
            dist: vec![0; n],
            epoch: 0,
            order: Vec::new(),
        }
    }

    fn begin(&mut self, n: usize) {
        if n > self.stamp.len() {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.order.clear();
    }

    /// Runs a multi-source BFS from `sources` out to distance `radius`
    /// (inclusive), visiting only edges accepted by `edge_filter`.
    /// Duplicate sources are ignored. Results are read back through
    /// [`visited`](BfsScratch::visited) and
    /// [`distance`](BfsScratch::distance) until the next run.
    pub fn run_bounded<G, F>(
        &mut self,
        g: &G,
        sources: &[VertexId],
        radius: usize,
        mut edge_filter: F,
    ) where
        G: GraphView,
        F: FnMut(EdgeId) -> bool,
    {
        self.begin(g.num_vertices());
        for &s in sources {
            if self.stamp[s.index()] != self.epoch {
                self.stamp[s.index()] = self.epoch;
                self.dist[s.index()] = 0;
                self.order.push(s);
            }
        }
        let mut head = 0usize;
        while head < self.order.len() {
            let u = self.order[head];
            head += 1;
            let du = self.dist[u.index()] as usize;
            if du == radius {
                continue;
            }
            for (w, e) in g.incidences(u) {
                if self.stamp[w.index()] != self.epoch && edge_filter(e) {
                    self.stamp[w.index()] = self.epoch;
                    self.dist[w.index()] = u32_of(du + 1);
                    self.order.push(w);
                }
            }
        }
    }

    /// The vertices reached by the last run, in BFS order (distances
    /// nondecreasing; sources first).
    pub fn visited(&self) -> &[VertexId] {
        &self.order
    }

    /// Distance of `v` in the last run, or [`UNREACHABLE`] if the sweep did
    /// not reach it.
    pub fn distance(&self, v: VertexId) -> usize {
        if self.stamp[v.index()] == self.epoch {
            self.dist[v.index()] as usize
        } else {
            UNREACHABLE
        }
    }
}

/// Breadth-first search from `source`, visiting only edges accepted by
/// `edge_filter`. Returns distances (in edges) with [`UNREACHABLE`] for
/// vertices that were not reached.
pub fn bfs_distances<G, F>(g: &G, source: VertexId, mut edge_filter: F) -> Vec<usize>
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for (w, e) in g.incidences(u) {
            if dist[w.index()] == UNREACHABLE && edge_filter(e) {
                dist[w.index()] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Multi-source BFS: every vertex in `sources` starts at distance 0.
#[cfg(test)]
fn multi_source_bfs<G, F>(g: &G, sources: &[VertexId], mut edge_filter: F) -> Vec<usize>
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHABLE {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for (w, e) in g.incidences(u) {
            if dist[w.index()] == UNREACHABLE && edge_filter(e) {
                dist[w.index()] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Returns all vertices within distance `radius` of `source` (the closed
/// `radius`-neighborhood `N^r(source)` of the paper's Section 1.1).
pub fn ball<G: GraphView>(g: &G, source: VertexId, radius: usize) -> Vec<VertexId> {
    let dist = bfs_distances(g, source, |_| true);
    g.vertices()
        .filter(|v| dist[v.index()] != UNREACHABLE && dist[v.index()] <= radius)
        .collect()
}

/// Finds the (edge, vertex) path from `u` to `v` using only edges accepted by
/// `edge_filter`. Returns the edge ids of the path, or `None` if `v` is not
/// reachable from `u`. The empty path is returned when `u == v`.
pub fn path_between<G, F>(
    g: &G,
    u: VertexId,
    v: VertexId,
    mut edge_filter: F,
) -> Option<Vec<EdgeId>>
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    if u == v {
        return Some(Vec::new());
    }
    let n = g.num_vertices();
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[u.index()] = true;
    queue.push_back(u);
    'outer: while let Some(x) = queue.pop_front() {
        for (w, e) in g.incidences(x) {
            if !visited[w.index()] && edge_filter(e) {
                visited[w.index()] = true;
                parent_edge[w.index()] = Some(e);
                if w == v {
                    break 'outer;
                }
                queue.push_back(w);
            }
        }
    }
    if !visited[v.index()] {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = v;
    while cur != u {
        let e = parent_edge[cur.index()].expect("path reconstruction");
        path.push(e);
        cur = g.other_endpoint(e, cur);
    }
    path.reverse();
    Some(path)
}

/// Connected components of the subgraph spanned by edges accepted by
/// `edge_filter` (isolated vertices each form their own component).
///
/// Returns `(component_of, num_components)`.
pub fn connected_components<G, F>(g: &G, mut edge_filter: F) -> (Vec<usize>, usize)
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    let mut queue = VecDeque::new();
    for start in g.vertices() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        comp[start.index()] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for (w, e) in g.incidences(u) {
                if comp[w.index()] == usize::MAX && edge_filter(e) {
                    comp[w.index()] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// Returns `true` if the subgraph spanned by the accepted edges is acyclic
/// (i.e. a forest). Parallel accepted edges between the same pair count as a
/// cycle.
pub fn is_forest<G, F>(g: &G, mut edge_filter: F) -> bool
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    let mut uf = crate::union_find::UnionFind::new(g.num_vertices());
    for (e, u, v) in g.edges() {
        if edge_filter(e) && !uf.union(u.index(), v.index()) {
            return false;
        }
    }
    true
}

/// Computes, for every vertex, the eccentricity *within its own component* of
/// the forest spanned by the accepted edges, i.e. the length of the longest
/// path starting at that vertex. The filtered subgraph **must** be a forest.
///
/// The BFS behind [`forest_diameter`], the reference measurement (see the
/// oracle note there).
///
/// # Panics
///
/// Panics in debug builds if the filtered subgraph contains a cycle.
fn forest_eccentricities<G, F>(g: &G, mut edge_filter: F) -> Vec<usize>
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    // Standard trick: within each tree, the farthest vertex from any vertex is
    // an endpoint of a diameter, so two BFS sweeps identify a diameter path
    // and a third gives every vertex's eccentricity as the max distance to
    // the two endpoints. Every sweep is restricted to the component's own
    // vertices (shared scratch arrays, reset per component), so the whole
    // computation is `O(n + m)` even when the forest has thousands of tiny
    // trees — star-forest classes are exactly that shape.
    let n = g.num_vertices();
    let accepted: Vec<bool> = g.edge_ids().map(&mut edge_filter).collect();
    debug_assert!(is_forest(g, |e| accepted[e.index()]));
    let (comp, num_comp) = connected_components(g, |e| accepted[e.index()]);
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_comp];
    for v in g.vertices() {
        members[comp[v.index()]].push(v);
    }
    let mut ecc = vec![0usize; n];
    let mut dist_a = vec![UNREACHABLE; n];
    let mut dist_b = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    // One BFS sweep touching only the source's component; returns the
    // farthest vertex found. `dist` entries must be reset by the caller.
    let sweep = |source: VertexId, dist: &mut Vec<usize>, queue: &mut VecDeque<VertexId>| {
        dist[source.index()] = 0;
        queue.push_back(source);
        let mut farthest = source;
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            if du > dist[farthest.index()] {
                farthest = u;
            }
            for (w, e) in g.incidences(u) {
                if dist[w.index()] == UNREACHABLE && accepted[e.index()] {
                    dist[w.index()] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        farthest
    };
    for component in &members {
        let repr = component[0];
        if component.len() == 1 {
            continue; // isolated vertex: eccentricity 0
        }
        // First sweep: find one endpoint `a` of a diameter of this tree.
        let a = sweep(repr, &mut dist_a, &mut queue);
        for &v in component {
            dist_a[v.index()] = UNREACHABLE;
        }
        // Second sweep from `a` finds the other endpoint `b`.
        let b = sweep(a, &mut dist_a, &mut queue);
        let _ = sweep(b, &mut dist_b, &mut queue);
        for &v in component {
            ecc[v.index()] = dist_a[v.index()].max(dist_b[v.index()]);
            dist_a[v.index()] = UNREACHABLE;
            dist_b[v.index()] = UNREACHABLE;
        }
    }
    ecc
}

/// Maximum diameter over the trees of the forest spanned by the accepted
/// edges. Returns 0 for an edgeless selection. The filtered subgraph must be
/// a forest.
///
/// **Oracle note:** this BFS computation is kept as the reference that
/// tests and
/// [`validate_diameter_bound`](crate::decomposition::validate_diameter_bound)
/// check against. Each call scans the whole graph for one edge class;
/// per-run code that measures every color class should call
/// [`max_forest_diameter`](crate::decomposition::max_forest_diameter), whose
/// leaf-peeling kernel measures all classes in one linear pass.
pub fn forest_diameter<G, F>(g: &G, edge_filter: F) -> usize
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
{
    forest_eccentricities(g, edge_filter)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// A rooting of the forest spanned by a set of edges: per-vertex parent edge,
/// parent vertex, depth and root.
#[derive(Clone, Debug)]
pub struct RootedForest {
    /// Parent edge of each vertex (`None` for roots and vertices outside the forest).
    pub parent_edge: Vec<Option<EdgeId>>,
    /// Parent vertex of each vertex (`None` for roots).
    pub parent_vertex: Vec<Option<VertexId>>,
    /// Depth of each vertex below its root (roots have depth 0).
    pub depth: Vec<usize>,
    /// Root of the tree containing each vertex (itself for isolated vertices).
    pub root: Vec<VertexId>,
}

impl RootedForest {
    /// Children lists derived from the parent pointers.
    pub fn children(&self) -> Vec<Vec<VertexId>> {
        let n = self.parent_vertex.len();
        let mut ch = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = self.parent_vertex[v] {
                ch[p.index()].push(VertexId::new(v));
            }
        }
        ch
    }

    /// Maximum depth over all vertices.
    pub fn max_depth(&self) -> usize {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

/// Roots every tree of the forest spanned by the accepted edges.
///
/// Roots are chosen by `prefer_root`: within each component the vertex
/// minimizing `(prefer_root(v), v)` becomes the root, so passing `|_| 0`
/// simply roots at the smallest vertex id. The filtered subgraph must be a
/// forest.
pub fn root_forest<G, F, P>(g: &G, mut edge_filter: F, mut prefer_root: P) -> RootedForest
where
    G: GraphView,
    F: FnMut(EdgeId) -> bool,
    P: FnMut(VertexId) -> usize,
{
    let n = g.num_vertices();
    let accepted: Vec<bool> = g.edge_ids().map(&mut edge_filter).collect();
    let filter = |e: EdgeId| accepted[e.index()];
    let (comp, num_comp) = connected_components(g, filter);
    let mut best: Vec<Option<(usize, VertexId)>> = vec![None; num_comp];
    for v in g.vertices() {
        let key = (prefer_root(v), v);
        let slot = &mut best[comp[v.index()]];
        if slot.is_none() || key < slot.unwrap() {
            *slot = Some(key);
        }
    }
    let mut parent_edge = vec![None; n];
    let mut parent_vertex = vec![None; n];
    let mut depth = vec![0usize; n];
    let mut root = vec![VertexId::new(0); n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    for slot in &best {
        let (_, r) = slot.expect("component representative");
        visited[r.index()] = true;
        root[r.index()] = r;
        queue.push_back(r);
        while let Some(u) = queue.pop_front() {
            for (w, e) in g.incidences(u) {
                if !visited[w.index()] && filter(e) {
                    visited[w.index()] = true;
                    parent_edge[w.index()] = Some(e);
                    parent_vertex[w.index()] = Some(u);
                    depth[w.index()] = depth[u.index()] + 1;
                    root[w.index()] = r;
                    queue.push_back(w);
                }
            }
        }
    }
    RootedForest {
        parent_edge,
        parent_vertex,
        depth,
        root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::MultiGraph;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn path_graph(n: usize) -> MultiGraph {
        let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        MultiGraph::from_pairs(n, &pairs).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, v(0), |_| true);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, v(2), |_| true);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_respects_edge_filter() {
        let g = path_graph(5);
        // Block the middle edge (1-2).
        let d = bfs_distances(&g, v(0), |e| e.index() != 1);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[4], UNREACHABLE);
    }

    #[test]
    fn multi_source_bfs_takes_minimum() {
        let g = path_graph(7);
        let d = multi_source_bfs(&g, &[v(0), v(6)], |_| true);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn ball_contains_radius_neighborhood() {
        let g = path_graph(7);
        let b = ball(&g, v(3), 2);
        let mut got: Vec<usize> = b.iter().map(|x| x.index()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn path_between_finds_shortest_path() {
        let g = MultiGraph::from_pairs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        let p = path_between(&g, v(0), v(3), |_| true).unwrap();
        assert_eq!(p.len(), 2); // 0-4-3
        let p = path_between(&g, v(0), v(0), |_| true).unwrap();
        assert!(p.is_empty());
        let p = path_between(&g, v(0), v(3), |e| e.index() < 3);
        assert_eq!(p.unwrap().len(), 3); // forced along 0-1-2-3
        assert!(path_between(&g, v(0), v(3), |_| false).is_none());
    }

    #[test]
    fn connected_components_counts() {
        let g = MultiGraph::from_pairs(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, k) = connected_components(&g, |_| true);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[5]);
    }

    #[test]
    fn is_forest_detects_cycles_and_parallel_edges() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(!is_forest(&g, |_| true));
        assert!(is_forest(&g, |e| e.index() != 2));
        let g = MultiGraph::from_pairs(2, &[(0, 1), (0, 1)]).unwrap();
        assert!(!is_forest(&g, |_| true));
    }

    #[test]
    fn forest_diameter_on_path_and_star() {
        let g = path_graph(6);
        assert_eq!(forest_diameter(&g, |_| true), 5);
        let g = MultiGraph::from_pairs(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        assert_eq!(forest_diameter(&g, |_| true), 2);
        let ecc = forest_eccentricities(&g, |_| true);
        assert_eq!(ecc[0], 1);
        assert_eq!(ecc[1], 2);
    }

    #[test]
    fn forest_diameter_edgeless() {
        let g = MultiGraph::new(4);
        assert_eq!(forest_diameter(&g, |_| true), 0);
    }

    #[test]
    fn root_forest_produces_consistent_parents() {
        let g = MultiGraph::from_pairs(7, &[(0, 1), (1, 2), (1, 3), (4, 5)]).unwrap();
        let rooted = root_forest(&g, |_| true, |_| 0);
        // Roots are the smallest ids of each component: 0, 4, 6.
        assert_eq!(rooted.root[2], v(0));
        assert_eq!(rooted.root[5], v(4));
        assert_eq!(rooted.root[6], v(6));
        assert_eq!(rooted.depth[0], 0);
        assert_eq!(rooted.depth[2], 2);
        assert_eq!(rooted.parent_vertex[3], Some(v(1)));
        assert_eq!(rooted.parent_vertex[0], None);
        assert_eq!(rooted.max_depth(), 2);
        let children = rooted.children();
        assert!(children[1].contains(&v(2)));
        assert!(children[1].contains(&v(3)));
    }

    #[test]
    fn bfs_scratch_matches_bounded_multi_source_bfs() {
        let g =
            MultiGraph::from_pairs(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 7)])
                .unwrap();
        let mut scratch = BfsScratch::new(g.num_vertices());
        for radius in 0..5 {
            for sources in [vec![v(0)], vec![v(2), v(7)], vec![v(8)], vec![v(3), v(3)]] {
                scratch.run_bounded(&g, &sources, radius, |_| true);
                let full = multi_source_bfs(&g, &sources, |_| true);
                for u in g.vertices() {
                    let expect = if full[u.index()] <= radius {
                        full[u.index()]
                    } else {
                        UNREACHABLE
                    };
                    assert_eq!(scratch.distance(u), expect, "r={radius} at {u}");
                }
                // Visited list: exactly the in-radius vertices, distances
                // nondecreasing.
                let visited = scratch.visited();
                assert_eq!(visited.len(), full.iter().filter(|&&d| d <= radius).count());
                for pair in visited.windows(2) {
                    assert!(scratch.distance(pair[0]) <= scratch.distance(pair[1]));
                }
            }
        }
    }

    #[test]
    fn bfs_scratch_respects_edge_filter_and_reuse() {
        let g = path_graph(6);
        let mut scratch = BfsScratch::new(2); // deliberately undersized: must grow
        scratch.run_bounded(&g, &[v(0)], 5, |e| e.index() != 2);
        assert_eq!(scratch.distance(v(2)), 2);
        assert_eq!(scratch.distance(v(3)), UNREACHABLE);
        // A second run fully invalidates the first.
        scratch.run_bounded(&g, &[v(5)], 1, |_| true);
        assert_eq!(scratch.distance(v(0)), UNREACHABLE);
        assert_eq!(scratch.distance(v(4)), 1);
        assert_eq!(scratch.visited(), &[v(5), v(4)]);
    }

    #[test]
    fn root_forest_prefers_requested_roots() {
        let g = path_graph(4);
        let rooted = root_forest(&g, |_| true, |x| if x == v(3) { 0 } else { 1 });
        assert_eq!(rooted.root[0], v(3));
        assert_eq!(rooted.depth[0], 3);
    }
}
