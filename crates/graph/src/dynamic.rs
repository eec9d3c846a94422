//! Fully-dynamic forests: Euler-tour trees, plus a mutable graph with
//! stable edge ids.
//!
//! Every other structure in this crate answers connectivity questions over a
//! topology that only *grows* (union-find) or is frozen outright (CSR). This
//! module is the subsystem for graphs that **mutate**: edges arrive and
//! depart between queries, and the structures stay consistent in amortized
//! logarithmic time instead of invalidate-and-rebuild.
//!
//! * [`DynamicForest`] — a forest under `link` / `cut`, each tree maintained
//!   as the Euler tour of its edges in a splay tree (sequence order, no
//!   keys). `connected` is answered from the splay roots in amortized
//!   `O(log n)`.
//! * [`DynamicGraph`] — a mutable adjacency container with *stable* edge
//!   ids under deletion, implementing [`GraphView`] over its live edges, so
//!   the augmenting-path searches (`path_between`, the matroid exchange BFS)
//!   run unchanged over a streaming topology.
//!
//! Every color class of a forest decomposition is a forest, so the
//! per-color wrapper ([`crate::connectivity::DynamicColorConnectivity`])
//! keeps one [`DynamicForest`] per color; the streaming decomposition facade
//! (`DynamicDecomposer`) lives in `forest_decomp::api`.

use crate::error::GraphError;
use crate::ids::{u32_of, EdgeId, VertexId};
use crate::view::GraphView;

/// Sentinel for "no node" in the splay arena.
const NIL: u32 = u32::MAX;

/// One splay node: a vertex's loop node (slots `0..n`) or one arc of a
/// tree edge.
#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    left: u32,
    right: u32,
    /// Nodes in this subtree (loops + arcs), for sequence positions.
    size: u32,
}

impl Node {
    fn leaf() -> Node {
        Node {
            parent: NIL,
            left: NIL,
            right: NIL,
            size: 1,
        }
    }
}

/// A tree edge inside a [`DynamicForest`]: the pair of Euler-tour arcs the
/// `link` created. Pass it back to [`DynamicForest::cut`] to remove the
/// edge. Handles are invalidated by the `cut` that consumes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForestEdge {
    /// The arc `u → v`.
    a: u32,
    /// The partner arc (`v → u`).
    b: u32,
}

/// A forest under `link` / `cut`: each tree is maintained as the Euler tour
/// of its edges in a splay tree, so `connected` is amortized `O(log n)`
/// regardless of how the forest was edited.
///
/// The structure is deliberately minimal — it does not check that `link`
/// keeps the forest acyclic beyond a debug assertion, because its one
/// production consumer
/// ([`DynamicColorConnectivity`](crate::DynamicColorConnectivity)) mirrors
/// color classes that are forests by construction.
///
/// ```
/// use forest_graph::dynamic::DynamicForest;
/// let mut f = DynamicForest::new(4);
/// let ab = f.link(0.into(), 1.into());
/// f.link(1.into(), 2.into());
/// assert!(f.connected(0.into(), 2.into()));
/// f.cut(ab);
/// assert!(!f.connected(0.into(), 2.into()));
/// assert!(f.connected(1.into(), 2.into()));
/// ```
#[derive(Clone, Debug)]
pub struct DynamicForest {
    /// Arena: slots `0..n` are the per-vertex loop nodes, later slots are
    /// arc nodes (recycled through `free`).
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl DynamicForest {
    /// An edgeless forest over `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < NIL as usize, "DynamicForest is u32-indexed");
        DynamicForest {
            nodes: vec![Node::leaf(); n],
            free: Vec::new(),
        }
    }

    // --- splay machinery -------------------------------------------------

    fn pull(&mut self, x: u32) {
        let node = &self.nodes[x as usize];
        let mut size = 1u32;
        for c in [node.left, node.right] {
            if c != NIL {
                size += self.nodes[c as usize].size;
            }
        }
        self.nodes[x as usize].size = size;
    }

    fn rotate(&mut self, x: u32) {
        let p = self.nodes[x as usize].parent;
        let g = self.nodes[p as usize].parent;
        let x_is_left = self.nodes[p as usize].left == x;
        let b = if x_is_left {
            self.nodes[x as usize].right
        } else {
            self.nodes[x as usize].left
        };
        if x_is_left {
            self.nodes[p as usize].left = b;
            self.nodes[x as usize].right = p;
        } else {
            self.nodes[p as usize].right = b;
            self.nodes[x as usize].left = p;
        }
        if b != NIL {
            self.nodes[b as usize].parent = p;
        }
        self.nodes[p as usize].parent = x;
        self.nodes[x as usize].parent = g;
        if g != NIL {
            if self.nodes[g as usize].left == p {
                self.nodes[g as usize].left = x;
            } else {
                self.nodes[g as usize].right = x;
            }
        }
        self.pull(p);
        self.pull(x);
    }

    fn splay(&mut self, x: u32) {
        loop {
            let p = self.nodes[x as usize].parent;
            if p == NIL {
                return;
            }
            let g = self.nodes[p as usize].parent;
            if g != NIL {
                let zig_zig =
                    (self.nodes[g as usize].left == p) == (self.nodes[p as usize].left == x);
                if zig_zig {
                    self.rotate(p);
                } else {
                    self.rotate(x);
                }
            }
            self.rotate(x);
        }
    }

    /// Joins two tours (either may be `NIL`); returns the new root.
    fn join(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        let mut max = l;
        while self.nodes[max as usize].right != NIL {
            max = self.nodes[max as usize].right;
        }
        self.splay(max);
        self.nodes[max as usize].right = r;
        self.nodes[r as usize].parent = max;
        self.pull(max);
        max
    }

    /// Splits into (everything before `x`, the tour starting at `x`).
    fn split_before(&mut self, x: u32) -> (u32, u32) {
        self.splay(x);
        let l = self.nodes[x as usize].left;
        if l != NIL {
            self.nodes[l as usize].parent = NIL;
            self.nodes[x as usize].left = NIL;
            self.pull(x);
        }
        (l, x)
    }

    /// Splits into (the tour ending at `x`, everything after `x`).
    fn split_after(&mut self, x: u32) -> (u32, u32) {
        self.splay(x);
        let r = self.nodes[x as usize].right;
        if r != NIL {
            self.nodes[r as usize].parent = NIL;
            self.nodes[x as usize].right = NIL;
            self.pull(x);
        }
        (x, r)
    }

    /// Sequence position of `x` within its tour (0-based).
    fn position(&mut self, x: u32) -> usize {
        self.splay(x);
        let l = self.nodes[x as usize].left;
        if l == NIL {
            0
        } else {
            self.nodes[l as usize].size as usize
        }
    }

    fn alloc_arc(&mut self) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node::leaf();
                slot
            }
            None => {
                self.nodes.push(Node::leaf());
                u32_of(self.nodes.len() - 1)
            }
        }
    }

    /// Rotates the tour of `v`'s tree so it starts at `v`'s loop node;
    /// returns the root of the rotated tour.
    fn reroot(&mut self, v: VertexId) -> u32 {
        let s = v.raw();
        let (l, r) = self.split_before(s);
        self.join(r, l)
    }

    // --- public forest operations ---------------------------------------

    /// Whether `u` and `v` are in the same tree. Amortized `O(log n)`.
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        let (a, b) = (u.raw(), v.raw());
        self.splay(a);
        self.splay(b);
        // Splaying `b` only touches `b`'s tree: `a` regained a parent iff it
        // was in it.
        self.nodes[a as usize].parent != NIL
    }

    /// Links `u` and `v` (which must be in different trees) and returns the
    /// handle for the created tree edge.
    ///
    /// # Panics
    ///
    /// Debug-panics if `u` and `v` are already connected (the forest would
    /// stop being one).
    pub fn link(&mut self, u: VertexId, v: VertexId) -> ForestEdge {
        debug_assert!(u != v, "forests have no self-loops");
        debug_assert!(!self.connected(u, v), "link would close a cycle");
        let a = self.alloc_arc();
        let b = self.alloc_arc();
        // Tour: tour(u) ++ (u→v) ++ tour(v) ++ (v→u), both tours rotated to
        // start at their endpoint.
        let tu = self.reroot(u);
        let tv = self.reroot(v);
        let t = self.join(tu, a);
        let t = self.join(t, tv);
        self.join(t, b);
        ForestEdge { a, b }
    }

    /// Removes the tree edge `e`, splitting its tree in two. Amortized
    /// `O(log n)`.
    pub fn cut(&mut self, e: ForestEdge) {
        // Order the two arcs along the tour: the segment strictly between
        // them is exactly one side of the edge (an Euler-tour invariant that
        // survives rerooting, which is a cyclic rotation).
        let (first, second) = if self.position(e.a) < self.position(e.b) {
            (e.a, e.b)
        } else {
            (e.b, e.a)
        };
        let (prefix, _rest) = self.split_before(first);
        let (mid, suffix) = self.split_after(second);
        debug_assert_eq!(mid, second);
        // `first` is the minimum of `mid`: drop it off the front.
        self.splay(first);
        debug_assert_eq!(self.nodes[first as usize].left, NIL);
        let inner = self.nodes[first as usize].right;
        if inner != NIL {
            self.nodes[inner as usize].parent = NIL;
            self.nodes[first as usize].right = NIL;
        }
        // `second` is the maximum of what remains: drop it off the back.
        self.splay(second);
        debug_assert_eq!(self.nodes[second as usize].right, NIL);
        let between = self.nodes[second as usize].left;
        if between != NIL {
            self.nodes[between as usize].parent = NIL;
            self.nodes[second as usize].left = NIL;
        }
        // `between` is one component's tour; prefix ++ suffix is the other.
        self.join(prefix, suffix);
        self.free.push(first);
        self.free.push(second);
    }

    #[cfg(test)]
    fn tour_len(&mut self, v: VertexId) -> usize {
        let s = v.raw();
        self.splay(s);
        self.nodes[s as usize].size as usize
    }
}

/// A mutable multigraph with **stable edge ids** under deletion: the
/// adjacency container behind streaming decomposition.
///
/// [`MultiGraph`](crate::MultiGraph) assigns dense ids `0..m` and cannot
/// delete; `DynamicGraph` assigns each inserted edge the next id *forever*
/// (ids of deleted edges are never reused), so colorings, palettes and
/// connectivity caches indexed by [`EdgeId`] stay valid across deletions.
///
/// The price of stable ids is that per-edge state scales with the id
/// *span* (total inserts ever), not the live edge count: dense arrays
/// sized by [`GraphView::num_edges`] — including the visited/parent
/// scratch of the exchange searches — grow monotonically over the life of
/// the stream. Workloads that churn for very long should periodically call
/// [`compact_ids`](DynamicGraph::compact_ids), which renumbers the live
/// edges densely.
///
/// It implements [`GraphView`] over its **live** edges with one documented
/// deviation from the trait's dense-id contract:
/// [`num_edges`](GraphView::num_edges) returns the edge-id *span* (live +
/// dead slots) so that dense per-edge arrays sized by it stay indexable,
/// while [`edge_ids`](GraphView::edge_ids) / [`edges`](GraphView::edges) /
/// [`incidences`](GraphView::incidences) yield live edges only and
/// [`endpoints`](GraphView::endpoints) panics on dead ids. The augmenting
/// searches (`path_between`, the matroid exchange BFS) only ever touch
/// edges reached through adjacency, so they run unchanged.
#[derive(Clone, Debug, Default)]
pub struct DynamicGraph {
    /// Slot per ever-inserted edge; `None` = deleted.
    endpoints: Vec<Option<(VertexId, VertexId)>>,
    adj: Vec<Vec<(VertexId, EdgeId)>>,
    live: usize,
}

impl DynamicGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            endpoints: Vec::new(),
            adj: vec![Vec::new(); n],
            live: 0,
        }
    }

    /// Inserts an edge and returns its permanent id.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] / [`GraphError::SelfLoop`] exactly
    /// like [`MultiGraph::add_edge`](crate::MultiGraph::add_edge).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        for x in [u, v] {
            if x.index() >= self.adj.len() {
                return Err(GraphError::VertexOutOfRange {
                    vertex: x,
                    num_vertices: self.adj.len(),
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let id = EdgeId::new(self.endpoints.len());
        self.endpoints.push(Some((u, v)));
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        self.live += 1;
        Ok(id)
    }

    /// Deletes a live edge, returning its endpoints. The id is retired, not
    /// recycled.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeOutOfRange`] when `e` is unknown or already
    /// deleted.
    pub fn delete_edge(&mut self, e: EdgeId) -> Result<(VertexId, VertexId), GraphError> {
        let slot = self
            .endpoints
            .get_mut(e.index())
            .and_then(Option::take)
            .ok_or(GraphError::EdgeOutOfRange {
                edge: e,
                num_edges: self.endpoints.len(),
            })?;
        let (u, v) = slot;
        for x in [u, v] {
            let list = &mut self.adj[x.index()];
            let pos = list
                .iter()
                .position(|&(_, id)| id == e)
                .expect("live edge is in both adjacency lists");
            list.swap_remove(pos);
        }
        self.live -= 1;
        Ok((u, v))
    }

    /// Whether `e` names a live edge.
    pub fn is_live(&self, e: EdgeId) -> bool {
        matches!(self.endpoints.get(e.index()), Some(Some(_)))
    }

    /// Number of live edges (the span of ever-assigned ids is
    /// [`GraphView::num_edges`]).
    pub fn num_live_edges(&self) -> usize {
        self.live
    }

    /// The span of ever-assigned edge ids (live + dead).
    pub fn edge_id_span(&self) -> usize {
        self.endpoints.len()
    }

    /// Live edges in ascending id (= insertion) order.
    pub fn live_edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|(u, v)| (EdgeId::new(i), u, v)))
    }

    /// Compacts the live edges into a fresh
    /// [`MultiGraph`](crate::MultiGraph) (ascending id order) plus the map
    /// from compact ids back to this graph's stable ids. This is the
    /// canonical "final graph" a cold decomposition runs on.
    pub fn to_multigraph(&self) -> (crate::MultiGraph, Vec<EdgeId>) {
        let mut g = crate::MultiGraph::new(self.adj.len());
        let mut ids = Vec::with_capacity(self.live);
        for (e, u, v) in self.live_edges() {
            g.add_edge(u, v).expect("live edges are valid");
            ids.push(e);
        }
        (g, ids)
    }

    /// Compacts the edge-id space in place: live edges are renumbered
    /// `0..num_live_edges()` in ascending old-id (= insertion) order, dead
    /// slots are dropped, and the adjacency lists are rewritten to the new
    /// ids. This caps the per-edge-array leak on unbounded update streams
    /// — after compaction, dense arrays sized by [`GraphView::num_edges`]
    /// shrink back to the live count.
    ///
    /// Because the renumbering preserves insertion order, the compact
    /// graph's [`to_multigraph`](DynamicGraph::to_multigraph) output — the
    /// canonical "final graph" the snapshot contract is defined against —
    /// is unchanged. Returns the [`EdgeIdRemap`] callers need to translate
    /// ids they handed out before the compaction.
    pub fn compact_ids(&mut self) -> EdgeIdRemap {
        let mut new_to_old = Vec::with_capacity(self.live);
        let mut old_to_new = vec![None; self.endpoints.len()];
        let mut endpoints = Vec::with_capacity(self.live);
        for (i, slot) in self.endpoints.iter().enumerate() {
            if let Some((u, v)) = *slot {
                old_to_new[i] = Some(EdgeId::new(new_to_old.len()));
                new_to_old.push(EdgeId::new(i));
                endpoints.push(Some((u, v)));
            }
        }
        self.endpoints = endpoints;
        for list in &mut self.adj {
            for entry in list.iter_mut() {
                entry.1 = old_to_new[entry.1.index()].expect("adjacency holds live edges only");
            }
        }
        EdgeIdRemap {
            new_to_old,
            old_to_new,
        }
    }
}

/// The id translation returned by [`DynamicGraph::compact_ids`]: live
/// edges keep their relative (insertion) order but move to the dense id
/// range `0..new_span()`.
#[derive(Clone, Debug, Default)]
pub struct EdgeIdRemap {
    /// `new_to_old[new.index()]` = the id the edge carried before.
    new_to_old: Vec<EdgeId>,
    /// `old_to_new[old.index()]` = the compact id (`None` = was dead).
    old_to_new: Vec<Option<EdgeId>>,
}

impl EdgeIdRemap {
    /// The edge-id span before compaction.
    pub fn old_span(&self) -> usize {
        self.old_to_new.len()
    }

    /// The edge-id span after compaction (= the live edge count).
    pub fn new_span(&self) -> usize {
        self.new_to_old.len()
    }

    /// The compact id of a pre-compaction id (`None` when the old id was
    /// dead or out of range).
    pub fn new_id(&self, old: EdgeId) -> Option<EdgeId> {
        self.old_to_new.get(old.index()).copied().flatten()
    }

    /// The pre-compaction id of a compact id (`None` when out of range).
    pub fn old_id(&self, new: EdgeId) -> Option<EdgeId> {
        self.new_to_old.get(new.index()).copied()
    }

    /// `(new, old)` pairs in ascending (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, EdgeId)> + '_ {
        self.new_to_old
            .iter()
            .enumerate()
            .map(|(i, &old)| (EdgeId::new(i), old))
    }
}

impl GraphView for DynamicGraph {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// The edge-id **span** (see the type docs): dense per-edge arrays
    /// sized by this stay indexable by every live id.
    fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e.index()].expect("endpoints of a deleted edge")
    }

    fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.adj[v.index()].iter().copied()
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        self.endpoints
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| EdgeId::new(i)))
    }

    fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.live_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::union_find::UnionFind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn forest_link_cut_path() {
        let mut f = DynamicForest::new(5);
        let edges: Vec<ForestEdge> = (0..4).map(|i| f.link(v(i), v(i + 1))).collect();
        assert!(f.connected(v(0), v(4)));
        assert_eq!(f.tour_len(v(0)), 5 + 2 * 4);
        f.cut(edges[1]); // 0-1 | 2-3-4
        assert!(f.connected(v(0), v(1)));
        assert!(f.connected(v(2), v(4)));
        assert!(!f.connected(v(1), v(2)));
        assert_eq!(f.tour_len(v(0)), 2 + 2);
        assert_eq!(f.tour_len(v(3)), 3 + 2 * 2);
        // Relink across the gap elsewhere.
        let e = f.link(v(0), v(4));
        assert!(f.connected(v(1), v(3)));
        f.cut(e);
        assert!(!f.connected(v(1), v(3)));
    }

    #[test]
    fn forest_random_link_cut_agrees_with_rebuild() {
        // Maintain a forest under random link/cut; after every operation,
        // compare `connected` on random pairs against a from-scratch
        // union-find over the current edge set.
        let n = 40;
        let mut rng = StdRng::seed_from_u64(7);
        let mut f = DynamicForest::new(n);
        let mut edges: Vec<(usize, usize, ForestEdge)> = Vec::new();
        for _ in 0..400 {
            let cut_now = !edges.is_empty() && rng.gen_bool(0.45);
            if cut_now {
                let k = rng.gen_range(0..edges.len());
                let (_, _, handle) = edges.swap_remove(k);
                f.cut(handle);
            } else {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && !f.connected(v(a), v(b)) {
                    let handle = f.link(v(a), v(b));
                    edges.push((a, b, handle));
                }
            }
            let mut uf = UnionFind::from_edges(n, edges.iter().map(|&(a, b, _)| (a, b)));
            for _ in 0..30 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                assert_eq!(f.connected(v(a), v(b)), uf.connected(a, b));
            }
            // A tree of s vertices tours s loops and 2(s - 1) arcs.
            let probe = rng.gen_range(0..n);
            let root = uf.find(probe);
            let size = (0..n).filter(|&x| uf.find(x) == root).count();
            assert_eq!(f.tour_len(v(probe)), 3 * size - 2);
        }
    }

    #[test]
    fn dynamic_graph_stable_ids_and_views() {
        let mut g = DynamicGraph::new(4);
        let e0 = g.insert_edge(v(0), v(1)).unwrap();
        let e1 = g.insert_edge(v(1), v(2)).unwrap();
        let e2 = g.insert_edge(v(2), v(3)).unwrap();
        assert_eq!(g.num_live_edges(), 3);
        g.delete_edge(e1).unwrap();
        assert_eq!(g.num_live_edges(), 2);
        assert_eq!(GraphView::num_edges(&g), 3, "span keeps dead slots");
        assert!(g.is_live(e0) && !g.is_live(e1) && g.is_live(e2));
        assert!(matches!(
            g.delete_edge(e1),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
        let live: Vec<EdgeId> = GraphView::edge_ids(&g).collect();
        assert_eq!(live, vec![e0, e2]);
        assert_eq!(g.degree(v(1)), 1);
        // A re-insert gets a fresh id; the dead id is never reused.
        let e3 = g.insert_edge(v(1), v(2)).unwrap();
        assert_eq!(e3.index(), 3);
        let (mg, ids) = g.to_multigraph();
        assert_eq!(mg.num_edges(), 3);
        assert_eq!(ids, vec![e0, e2, e3]);
        assert_eq!(
            mg.endpoints(EdgeId::new(1)),
            g.endpoints[e2.index()].unwrap()
        );
    }

    #[test]
    fn dynamic_graph_rejects_bad_updates() {
        let mut g = DynamicGraph::new(2);
        assert!(matches!(
            g.insert_edge(v(0), v(5)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.insert_edge(v(1), v(1)),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn compact_ids_renumbers_live_edges_in_insertion_order() {
        let mut g = DynamicGraph::new(5);
        let mut ids = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
            ids.push(g.insert_edge(v(a), v(b)).unwrap());
        }
        g.delete_edge(ids[1]).unwrap();
        g.delete_edge(ids[4]).unwrap();
        let (before, survivors) = g.to_multigraph();
        let remap = g.compact_ids();
        assert_eq!(remap.old_span(), 6);
        assert_eq!(remap.new_span(), 4);
        assert_eq!(GraphView::num_edges(&g), 4, "span shrank to live count");
        assert_eq!(g.num_live_edges(), 4);
        // Surviving edges keep their insertion order under the new ids.
        for (new, old) in remap.iter() {
            assert_eq!(remap.new_id(old), Some(new));
            assert_eq!(remap.old_id(new), Some(old));
            assert_eq!(g.endpoints(new), before.endpoints(EdgeId::new(new.index())));
        }
        assert_eq!(
            remap.iter().map(|(_, old)| old).collect::<Vec<_>>(),
            survivors
        );
        assert_eq!(remap.new_id(ids[1]), None, "dead ids have no new id");
        // The canonical compacted multigraph is unchanged.
        let (after, after_ids) = g.to_multigraph();
        assert_eq!(after.num_edges(), before.num_edges());
        for e in 0..after.num_edges() {
            assert_eq!(
                after.endpoints(EdgeId::new(e)),
                before.endpoints(EdgeId::new(e))
            );
        }
        assert_eq!(after_ids, (0..4).map(EdgeId::new).collect::<Vec<_>>());
        // Adjacency was rewritten consistently: degrees survive.
        assert_eq!(g.degree(v(0)), 2);
        // Further inserts extend the compact id space.
        let e = g.insert_edge(v(1), v(4)).unwrap();
        assert_eq!(e.index(), 4);
    }
}
