//! Fully-dynamic connectivity: Euler-tour trees and the
//! Holm–de Lichtenberg–Thorup level structure.
//!
//! Every other structure in this crate answers connectivity questions over a
//! topology that only *grows* (union-find) or is frozen outright (CSR). This
//! module is the subsystem for graphs that **mutate**: edges arrive and
//! depart between queries, and the structures stay consistent in amortized
//! polylogarithmic time instead of invalidate-and-rebuild.
//!
//! * [`DynamicForest`] — a forest under `link` / `cut`, each tree maintained
//!   as the Euler tour of its edges in a splay tree (sequence order, no
//!   keys). `connected` and `component_size` are answered from the splay
//!   roots in amortized `O(log n)`.
//! * [`DynamicConnectivity`] — fully-dynamic connectivity for general
//!   (multi-)graphs [HDT01]: a hierarchy of `O(log n)` Euler-tour forests,
//!   one per level, with non-tree edges kept in per-level incidence lists.
//!   `insert_edge` is amortized `O(log n)`; `delete_edge` is amortized
//!   `O(log² n)` — a deleted tree edge searches for a replacement by pushing
//!   the smaller side's edges one level down the hierarchy, so each edge
//!   pays for at most `log n` promotions over its lifetime.
//!
//! Edges are identified by the opaque [`EdgeKey`] handed out by
//! [`DynamicConnectivity::insert_edge`], so parallel edges are first-class
//! (each insertion is its own key) — matching the multigraph semantics of
//! the rest of the workspace.
//!
//! [`DynamicGraph`] rounds out the subsystem: a mutable adjacency container
//! with *stable* edge ids under deletion, implementing [`GraphView`] over
//! its live edges, so the augmenting-path searches (`path_between`, the
//! matroid exchange BFS) run unchanged over a streaming topology.
//!
//! The per-color wrapper that rides decompositions on this subsystem lives
//! in [`crate::connectivity::DynamicColorConnectivity`]; the streaming
//! decomposition facade (`DynamicDecomposer`) lives in `forest_decomp::api`.
//!
//! ```
//! use forest_graph::dynamic::DynamicConnectivity;
//! let mut dc = DynamicConnectivity::new(4);
//! let ab = dc.insert_edge(0.into(), 1.into());
//! let bc = dc.insert_edge(1.into(), 2.into());
//! let ca = dc.insert_edge(2.into(), 0.into()); // closes a cycle
//! assert!(dc.connected(0.into(), 2.into()));
//! dc.delete_edge(bc); // tree edge; the cycle edge takes over
//! assert!(dc.connected(1.into(), 2.into()));
//! dc.delete_edge(ab);
//! dc.delete_edge(ca);
//! assert!(!dc.connected(0.into(), 1.into()));
//! ```
//!
//! [HDT01]: Holm, de Lichtenberg, Thorup. *Poly-logarithmic deterministic
//! fully-dynamic algorithms for connectivity, minimum spanning tree,
//! 2-edge, and biconnectivity.* J. ACM 48(4), 2001.

use crate::error::GraphError;
use crate::ids::{u32_of, EdgeId, VertexId};
use crate::view::GraphView;

/// Sentinel for "no node" in the splay arena.
const NIL: u32 = u32::MAX;

/// Node flag: this node is a vertex (loop) node, not an arc.
const IS_LOOP: u8 = 1;
/// Node flag: this vertex has a non-tree edge at this structure's level.
const VERTEX_MARK: u8 = 1 << 1;
/// Node flag: this arc's tree edge has level exactly this structure's level.
const EDGE_MARK: u8 = 1 << 2;
/// Subtree aggregate of [`VERTEX_MARK`].
const SUB_VERTEX_MARK: u8 = 1 << 3;
/// Subtree aggregate of [`EDGE_MARK`].
const SUB_EDGE_MARK: u8 = 1 << 4;

#[derive(Clone, Debug)]
struct Node {
    parent: u32,
    left: u32,
    right: u32,
    /// Nodes in this subtree (loops + arcs), for sequence positions.
    size: u32,
    /// Loop nodes in this subtree: each vertex appears exactly once in its
    /// tour, so the root's count is the component size.
    loops: u32,
    /// For arc nodes: the [`DynamicConnectivity`] edge slot this arc belongs
    /// to (`NIL` for plain [`DynamicForest`] use and for loop nodes).
    edge: u32,
    flags: u8,
}

impl Node {
    fn loop_node(flags: u8) -> Node {
        Node {
            parent: NIL,
            left: NIL,
            right: NIL,
            size: 1,
            loops: 1,
            edge: NIL,
            flags: flags | IS_LOOP,
        }
    }

    fn arc(edge: u32) -> Node {
        Node {
            parent: NIL,
            left: NIL,
            right: NIL,
            size: 1,
            loops: 0,
            edge,
            flags: 0,
        }
    }
}

/// A tree edge inside a [`DynamicForest`]: the pair of Euler-tour arcs the
/// `link` created. Pass it back to [`DynamicForest::cut`] to remove the
/// edge. Handles are invalidated by the `cut` that consumes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForestEdge {
    /// The marked arc (`u → v`); level marks live on this one.
    a: u32,
    /// The partner arc (`v → u`).
    b: u32,
}

/// A forest under `link` / `cut`: each tree is maintained as the Euler tour
/// of its edges in a splay tree, so `connected` and `component_size` are
/// amortized `O(log n)` regardless of how the forest was edited.
///
/// The structure is deliberately minimal — it does not check that `link`
/// keeps the forest acyclic beyond a debug assertion, because its one
/// production consumer ([`DynamicConnectivity`]) guards every `link` with a
/// `connected` query.
///
/// ```
/// use forest_graph::dynamic::DynamicForest;
/// let mut f = DynamicForest::new(4);
/// let ab = f.link(0.into(), 1.into());
/// f.link(1.into(), 2.into());
/// assert!(f.connected(0.into(), 2.into()));
/// assert_eq!(f.component_size(2.into()), 3);
/// f.cut(ab);
/// assert!(!f.connected(0.into(), 2.into()));
/// assert_eq!(f.component_size(0.into()), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DynamicForest {
    /// Arena: slots `0..n` are the per-vertex loop nodes, later slots are
    /// arc nodes (recycled through `free`).
    nodes: Vec<Node>,
    free: Vec<u32>,
    n: usize,
}

impl DynamicForest {
    /// An edgeless forest over `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < NIL as usize, "DynamicForest is u32-indexed");
        DynamicForest {
            nodes: (0..n).map(|_| Node::loop_node(0)).collect(),
            free: Vec::new(),
            n,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    // --- splay machinery -------------------------------------------------

    fn pull(&mut self, x: u32) {
        let node = &self.nodes[x as usize];
        let (l, r) = (node.left, node.right);
        let own = node.flags;
        let mut size = 1u32;
        let mut loops = u32::from(own & IS_LOOP != 0);
        let mut sub = own & (VERTEX_MARK | EDGE_MARK);
        for c in [l, r] {
            if c != NIL {
                let child = &self.nodes[c as usize];
                size += child.size;
                loops += child.loops;
                if child.flags & (SUB_VERTEX_MARK | VERTEX_MARK) != 0 {
                    sub |= VERTEX_MARK;
                }
                if child.flags & (SUB_EDGE_MARK | EDGE_MARK) != 0 {
                    sub |= EDGE_MARK;
                }
            }
        }
        let node = &mut self.nodes[x as usize];
        node.size = size;
        node.loops = loops;
        node.flags = (node.flags & (IS_LOOP | VERTEX_MARK | EDGE_MARK))
            | (if sub & VERTEX_MARK != 0 {
                SUB_VERTEX_MARK
            } else {
                0
            })
            | (if sub & EDGE_MARK != 0 {
                SUB_EDGE_MARK
            } else {
                0
            });
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

    fn alloc_arc(&mut self, edge: u32) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node::arc(edge);
                slot
            }
            None => {
                self.nodes.push(Node::arc(edge));
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

    /// Number of vertices in `v`'s tree. Amortized `O(log n)`.
    pub fn component_size(&mut self, v: VertexId) -> usize {
        let s = v.raw();
        self.splay(s);
        self.nodes[s as usize].loops as usize
    }

    /// Links `u` and `v` (which must be in different trees) and returns the
    /// handle for the created tree edge.
    ///
    /// # Panics
    ///
    /// Debug-panics if `u` and `v` are already connected (the forest would
    /// stop being one).
    pub fn link(&mut self, u: VertexId, v: VertexId) -> ForestEdge {
        self.link_keyed(u, v, NIL)
    }

    pub(crate) fn link_keyed(&mut self, u: VertexId, v: VertexId, edge: u32) -> ForestEdge {
        debug_assert!(u != v, "forests have no self-loops");
        debug_assert!(!self.connected(u, v), "link would close a cycle");
        let a = self.alloc_arc(edge);
        let b = self.alloc_arc(edge);
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

    // --- level marks (the HDT search structure) --------------------------

    /// Sets/clears the "has a non-tree edge at this level" mark of `v`.
    pub(crate) fn set_vertex_mark(&mut self, v: VertexId, on: bool) {
        let s = v.raw();
        self.splay(s);
        if on {
            self.nodes[s as usize].flags |= VERTEX_MARK;
        } else {
            self.nodes[s as usize].flags &= !VERTEX_MARK;
        }
        self.pull(s);
    }

    /// Sets the "tree edge of exactly this level" mark on `e`'s primary arc.
    pub(crate) fn set_edge_mark(&mut self, e: ForestEdge, on: bool) {
        self.splay(e.a);
        if on {
            self.nodes[e.a as usize].flags |= EDGE_MARK;
        } else {
            self.nodes[e.a as usize].flags &= !EDGE_MARK;
        }
        self.pull(e.a);
    }

    /// Finds any marked vertex in `v`'s tree, following subtree aggregates
    /// from the root. Amortized `O(log n)`.
    pub(crate) fn find_marked_vertex(&mut self, v: VertexId) -> Option<VertexId> {
        self.find_marked(v, VERTEX_MARK, SUB_VERTEX_MARK)
            .map(|x| VertexId::new(x as usize))
    }

    /// Finds any arc whose tree edge is marked in `v`'s tree; returns the
    /// edge slot stored on the arc. Amortized `O(log n)`.
    pub(crate) fn find_marked_edge(&mut self, v: VertexId) -> Option<u32> {
        self.find_marked(v, EDGE_MARK, SUB_EDGE_MARK)
            .map(|x| self.nodes[x as usize].edge)
    }

    fn find_marked(&mut self, v: VertexId, own: u8, sub: u8) -> Option<u32> {
        let root = v.raw();
        self.splay(root);
        let mut x = root;
        if self.nodes[x as usize].flags & (own | sub) == 0 {
            return None;
        }
        loop {
            let node = &self.nodes[x as usize];
            let l = node.left;
            if l != NIL && self.nodes[l as usize].flags & (own | sub) != 0 {
                x = l;
                continue;
            }
            if node.flags & own != 0 {
                // Splaying the hit keeps the amortized analysis honest for
                // repeated searches down the same path.
                self.splay(x);
                return Some(x);
            }
            x = node.right;
            debug_assert_ne!(x, NIL, "subtree mark without a marked descendant");
        }
    }

    #[cfg(test)]
    fn tour_len(&mut self, v: VertexId) -> usize {
        let s = v.raw();
        self.splay(s);
        self.nodes[s as usize].size as usize
    }
}

/// Opaque identifier of one live edge inside a [`DynamicConnectivity`],
/// returned by [`DynamicConnectivity::insert_edge`]. Keys are recycled after
/// [`DynamicConnectivity::delete_edge`], so holding on to a deleted key is a
/// logic error (debug-asserted where detectable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeKey(u32);

#[derive(Clone, Debug)]
struct EdgeSlot {
    u: u32,
    v: u32,
    level: u32,
    /// Tree-edge handles, one per forest `0..=level`; empty for non-tree
    /// edges (whose positions in the incidence lists are below).
    tree: Vec<ForestEdge>,
    pos_u: u32,
    pos_v: u32,
    live: bool,
}

/// Fully-dynamic connectivity [HDT01]: `insert_edge` / `delete_edge` /
/// `connected` / `component_size` over a mutating multigraph in amortized
/// polylogarithmic time.
///
/// Levels `0..=L` (`L = ⌈log₂ n⌉`) each hold an Euler-tour forest
/// ([`DynamicForest`]) of the spanning-forest edges at that level or above,
/// plus per-vertex incidence lists of the non-tree edges parked at the
/// level. A deleted tree edge looks for a replacement from its level
/// downward, promoting the smaller side's edges one level up so each edge
/// is promoted at most `⌈log₂ n⌉` times — the classical amortization.
/// Levels (and their `O(n)` forests) are materialized lazily, so a workload
/// that never deletes pays for level 0 only.
///
/// [HDT01]: Holm, de Lichtenberg, Thorup, J. ACM 48(4), 2001.
#[derive(Clone, Debug)]
pub struct DynamicConnectivity {
    n: usize,
    max_level: usize,
    /// `forests[i]` holds tree edges of level ≥ i; `forests[0]` is the
    /// spanning forest queries run against.
    forests: Vec<DynamicForest>,
    /// `nontree[i][v]`: non-tree edges of level exactly `i` incident to `v`.
    nontree: Vec<Vec<Vec<u32>>>,
    slots: Vec<EdgeSlot>,
    free_slots: Vec<u32>,
    components: usize,
    num_edges: usize,
}

impl DynamicConnectivity {
    /// An edgeless structure over `n` vertices (`n` components).
    pub fn new(n: usize) -> Self {
        let max_level = if n <= 2 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };
        DynamicConnectivity {
            n,
            max_level,
            forests: vec![DynamicForest::new(n)],
            nontree: vec![vec![Vec::new(); n]],
            slots: Vec::new(),
            free_slots: Vec::new(),
            components: n,
            num_edges: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of connected components (isolated vertices included).
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Whether `u` and `v` are currently connected. Amortized `O(log n)`.
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.forests[0].connected(u, v)
    }

    /// Number of vertices in `v`'s component. Amortized `O(log n)`.
    pub fn component_size(&mut self, v: VertexId) -> usize {
        self.forests[0].component_size(v)
    }

    /// Endpoints of a live edge.
    pub fn endpoints(&self, key: EdgeKey) -> (VertexId, VertexId) {
        let slot = &self.slots[key.0 as usize];
        debug_assert!(slot.live, "endpoints of a deleted edge");
        (
            VertexId::new(slot.u as usize),
            VertexId::new(slot.v as usize),
        )
    }

    fn alloc_slot(&mut self, u: VertexId, v: VertexId) -> u32 {
        let slot = EdgeSlot {
            u: u.raw(),
            v: v.raw(),
            level: 0,
            tree: Vec::new(),
            pos_u: 0,
            pos_v: 0,
            live: true,
        };
        match self.free_slots.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                u32_of(self.slots.len() - 1)
            }
        }
    }

    fn ensure_level(&mut self, level: usize) {
        while self.forests.len() <= level {
            self.forests.push(DynamicForest::new(self.n));
            self.nontree.push(vec![Vec::new(); self.n]);
        }
    }

    /// Parks non-tree edge `idx` at `level`, maintaining positions and the
    /// per-vertex marks in that level's forest.
    fn insert_nontree(&mut self, level: usize, idx: u32) {
        self.ensure_level(level);
        let (u, v) = {
            let slot = &self.slots[idx as usize];
            (slot.u as usize, slot.v as usize)
        };
        for (x, is_u) in [(u, true), (v, false)] {
            let list = &mut self.nontree[level][x];
            let pos = u32_of(list.len());
            list.push(idx);
            let slot = &mut self.slots[idx as usize];
            if is_u {
                slot.pos_u = pos;
            } else {
                slot.pos_v = pos;
            }
            if pos == 0 {
                self.forests[level].set_vertex_mark(VertexId::new(x), true);
            }
        }
    }

    /// Removes non-tree edge `idx` from `level`'s incidence lists
    /// (swap-remove with position fix-up), clearing emptied vertex marks.
    fn remove_nontree(&mut self, level: usize, idx: u32) {
        let (u, v, pos_u, pos_v) = {
            let slot = &self.slots[idx as usize];
            (slot.u as usize, slot.v as usize, slot.pos_u, slot.pos_v)
        };
        for (x, pos) in [(u, pos_u), (v, pos_v)] {
            let list = &mut self.nontree[level][x];
            let pos = pos as usize;
            debug_assert_eq!(list[pos], idx);
            list.swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                let moved_slot = &mut self.slots[moved as usize];
                if moved_slot.u as usize == x {
                    moved_slot.pos_u = u32_of(pos);
                } else {
                    debug_assert_eq!(moved_slot.v as usize, x);
                    moved_slot.pos_v = u32_of(pos);
                }
            }
            if list.is_empty() {
                self.forests[level].set_vertex_mark(VertexId::new(x), false);
            }
        }
    }

    /// Inserts an edge between `u` and `v` and returns its key. Parallel
    /// edges are allowed (each insertion is its own key). Amortized
    /// `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `u == v` (self-loops never
    /// appear in forest decompositions, so the structure rejects them).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> EdgeKey {
        assert!(u.index() < self.n && v.index() < self.n, "vertex in range");
        assert!(u != v, "self-loops are not supported");
        let idx = self.alloc_slot(u, v);
        self.num_edges += 1;
        if self.forests[0].connected(u, v) {
            self.insert_nontree(0, idx);
        } else {
            let fe = self.forests[0].link_keyed(u, v, idx);
            self.forests[0].set_edge_mark(fe, true);
            self.slots[idx as usize].tree.push(fe);
            self.components -= 1;
        }
        EdgeKey(idx)
    }

    /// Deletes the edge behind `key`. Returns `true` when the deletion
    /// split a component (no replacement edge existed). Amortized
    /// `O(log² n)`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was already deleted.
    pub fn delete_edge(&mut self, key: EdgeKey) -> bool {
        let idx = key.0;
        let slot = &mut self.slots[idx as usize];
        assert!(slot.live, "delete of an already-deleted edge key");
        slot.live = false;
        self.num_edges -= 1;
        let level = slot.level as usize;
        let tree = std::mem::take(&mut slot.tree);
        let (u, v) = (
            VertexId::new(slot.u as usize),
            VertexId::new(slot.v as usize),
        );
        self.free_slots.push(idx);
        if tree.is_empty() {
            self.remove_nontree(level, idx);
            return false;
        }
        // A tree edge: cut it out of every forest it participates in, then
        // search the levels top-down for a replacement.
        for (i, fe) in tree.into_iter().enumerate() {
            self.forests[i].cut(fe);
        }
        self.components += 1;
        for i in (0..=level).rev() {
            if self.replace_at_level(i, u, v) {
                self.components -= 1;
                return false;
            }
        }
        true
    }

    /// One level of the HDT replacement search: promote the smaller side's
    /// level-`i` tree edges, then scan its level-`i` non-tree edges for one
    /// that reconnects the two sides. Returns `true` if a replacement was
    /// found (and linked into forests `0..=i`).
    fn replace_at_level(&mut self, i: usize, u: VertexId, v: VertexId) -> bool {
        let small = if self.forests[i].component_size(u) <= self.forests[i].component_size(v) {
            u
        } else {
            v
        };
        // Promote the small side's tree edges of level exactly `i`: its
        // component is at most half the level-`i` bound, so the level-`i+1`
        // size invariant holds and each edge pays one of its ≤ log n
        // promotions.
        if i < self.max_level {
            self.ensure_level(i + 1);
            while let Some(edge_idx) = self.forests[i].find_marked_edge(small) {
                let (eu, ev) = {
                    let slot = &mut self.slots[edge_idx as usize];
                    debug_assert_eq!(slot.level as usize, i);
                    slot.level = u32_of(i + 1);
                    (
                        VertexId::new(slot.u as usize),
                        VertexId::new(slot.v as usize),
                    )
                };
                let old = self.slots[edge_idx as usize].tree[i];
                self.forests[i].set_edge_mark(old, false);
                let fe = self.forests[i + 1].link_keyed(eu, ev, edge_idx);
                self.forests[i + 1].set_edge_mark(fe, true);
                self.slots[edge_idx as usize].tree.push(fe);
            }
        }
        // Scan the small side's non-tree edges at level `i`. Every examined
        // edge is either promoted (both endpoints inside) or is the
        // replacement, so each examination is paid for by a level increase.
        while let Some(x) = self.forests[i].find_marked_vertex(small) {
            let mut cursor = 0usize;
            while let Some(&edge_idx) = self.nontree[i][x.index()].get(cursor) {
                let (a, b) = {
                    let slot = &self.slots[edge_idx as usize];
                    (
                        VertexId::new(slot.u as usize),
                        VertexId::new(slot.v as usize),
                    )
                };
                let y = if a == x { b } else { a };
                if self.forests[i].connected(x, y) {
                    if i < self.max_level {
                        self.remove_nontree(i, edge_idx);
                        self.slots[edge_idx as usize].level = u32_of(i + 1);
                        self.insert_nontree(i + 1, edge_idx);
                        // The swap-remove refilled `cursor`; do not advance.
                    } else {
                        // Unreachable by the size invariant (level-L
                        // components are singletons); skip defensively
                        // rather than loop.
                        debug_assert!(false, "non-promotable edge at the top level");
                        cursor += 1;
                    }
                } else {
                    // Replacement found: it becomes a tree edge at its own
                    // level, linked into every forest below.
                    self.remove_nontree(i, edge_idx);
                    let mut handles = Vec::with_capacity(i + 1);
                    for j in 0..=i {
                        handles.push(self.forests[j].link_keyed(a, b, edge_idx));
                    }
                    self.forests[i].set_edge_mark(handles[i], true);
                    self.slots[edge_idx as usize].tree = handles;
                    return true;
                }
            }
            if !self.nontree[i][x.index()].is_empty() {
                // Only reachable through the defensive skip above.
                break;
            }
        }
        false
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
/// the stream. Workloads that churn for very long without restarting
/// should periodically rebuild via
/// [`to_multigraph`](DynamicGraph::to_multigraph) (an id-space compaction
/// hook is a filed follow-on).
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

    /// Compacts the live edges into a fresh [`MultiGraph`] (ascending id
    /// order) plus the map from compact ids back to this graph's stable ids.
    /// This is the canonical "final graph" a cold decomposition runs on.
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
        assert_eq!(f.component_size(v(2)), 5);
        assert_eq!(f.tour_len(v(0)), 5 + 2 * 4);
        f.cut(edges[1]); // 0-1 | 2-3-4
        assert!(f.connected(v(0), v(1)));
        assert!(f.connected(v(2), v(4)));
        assert!(!f.connected(v(1), v(2)));
        assert_eq!(f.component_size(v(0)), 2);
        assert_eq!(f.component_size(v(3)), 3);
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
            // Component sizes agree too.
            let probe = rng.gen_range(0..n);
            let root = uf.find(probe);
            let size = (0..n).filter(|&x| uf.find(x) == root).count();
            assert_eq!(f.component_size(v(probe)), size);
        }
    }

    #[test]
    fn connectivity_insert_delete_cycle() {
        let mut dc = DynamicConnectivity::new(4);
        assert_eq!(dc.num_components(), 4);
        let ab = dc.insert_edge(v(0), v(1));
        let bc = dc.insert_edge(v(1), v(2));
        let ca = dc.insert_edge(v(2), v(0));
        assert_eq!(dc.num_components(), 2);
        assert!(dc.connected(v(0), v(2)));
        // Deleting a tree edge with a replacement keeps the component.
        assert!(!dc.delete_edge(ab));
        assert!(dc.connected(v(0), v(1)));
        // With the cycle gone, vertex 1 hangs off `bc` alone.
        assert!(dc.delete_edge(bc));
        assert!(!dc.connected(v(1), v(2)));
        assert!(dc.connected(v(0), v(2)));
        assert!(dc.delete_edge(ca));
        assert_eq!(dc.num_edges(), 0);
        assert_eq!(dc.num_components(), 4);
    }

    #[test]
    fn connectivity_parallel_edges_are_distinct() {
        let mut dc = DynamicConnectivity::new(2);
        let e1 = dc.insert_edge(v(0), v(1));
        let e2 = dc.insert_edge(v(0), v(1));
        assert_ne!(e1, e2);
        assert!(!dc.delete_edge(e1)); // the parallel edge replaces it
        assert!(dc.connected(v(0), v(1)));
        assert!(dc.delete_edge(e2));
        assert!(!dc.connected(v(0), v(1)));
        assert_eq!(dc.num_components(), 2);
    }

    #[test]
    fn connectivity_random_matches_union_find() {
        let n = 48;
        let mut rng = StdRng::seed_from_u64(23);
        let mut dc = DynamicConnectivity::new(n);
        let mut live: Vec<(usize, usize, EdgeKey)> = Vec::new();
        for step in 0..1200 {
            let delete = !live.is_empty() && rng.gen_bool(0.48);
            if delete {
                let k = rng.gen_range(0..live.len());
                let (_, _, key) = live.swap_remove(k);
                dc.delete_edge(key);
            } else {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b {
                    continue;
                }
                let key = dc.insert_edge(v(a), v(b));
                live.push((a, b, key));
            }
            let mut uf = UnionFind::from_edges(n, live.iter().map(|&(a, b, _)| (a, b)));
            assert_eq!(dc.num_components(), uf.num_components(), "step {step}");
            assert_eq!(dc.num_edges(), live.len());
            for _ in 0..25 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                assert_eq!(dc.connected(v(a), v(b)), uf.connected(a, b), "step {step}");
            }
        }
    }

    #[test]
    fn connectivity_component_sizes() {
        let mut dc = DynamicConnectivity::new(6);
        dc.insert_edge(v(0), v(1));
        dc.insert_edge(v(1), v(2));
        let e = dc.insert_edge(v(3), v(4));
        assert_eq!(dc.component_size(v(2)), 3);
        assert_eq!(dc.component_size(v(3)), 2);
        assert_eq!(dc.component_size(v(5)), 1);
        assert!(dc.delete_edge(e));
        assert_eq!(dc.component_size(v(3)), 1);
    }

    #[test]
    fn connectivity_deep_level_promotion() {
        // A dense-ish graph whose spanning tree is repeatedly shredded:
        // exercises multi-level promotions. Compare against union-find.
        let n = 32;
        let mut dc = DynamicConnectivity::new(n);
        let mut keys = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if (i + j) % 3 != 0 {
                    keys.push((i, j, dc.insert_edge(v(i), v(j))));
                }
            }
        }
        // Delete in waves, checking connectivity after each wave.
        let mut rng = StdRng::seed_from_u64(5);
        while !keys.is_empty() {
            for _ in 0..keys.len().div_ceil(3).max(1) {
                if keys.is_empty() {
                    break;
                }
                let k = rng.gen_range(0..keys.len());
                let (_, _, key) = keys.swap_remove(k);
                dc.delete_edge(key);
            }
            let mut uf = UnionFind::from_edges(n, keys.iter().map(|&(a, b, _)| (a, b)));
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(dc.connected(v(a), v(b)), uf.connected(a, b));
                }
            }
        }
        assert_eq!(dc.num_components(), n);
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
