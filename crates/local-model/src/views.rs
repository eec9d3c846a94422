//! Power graphs.
//!
//! In the LOCAL model a vertex can learn everything within distance `r` in
//! `r` rounds, and the power graph `G^r` can be simulated with an `O(r)`
//! overhead (Section 1.1 of the paper). These helpers provide `G^r` for the
//! centrally-simulated cluster computations of Algorithm 2 — either
//! materialized ([`power_graph`], the test oracle) or, for the engine hot
//! path, *virtual*: [`PowerView`] implements [`GraphView`] for `G^r`
//! without ever building it.
//!
//! # The virtual power graph
//!
//! Materializing `G^r` costs `O(n·(n+m))` time and up to `O(n²)` edges —
//! the dominant cost of sharded Harris–Su–Vu runs whenever a shard's
//! diameter exceeds `2(R+R')`. [`PowerView`] instead answers every
//! adjacency query with a bounded-radius BFS from the queried vertex over
//! an epoch-stamped scratch arena
//! ([`BfsScratch`]), so no query pays
//! an `O(n)` clear. Balls are not memoized: an LRU of them scored zero hits
//! on the carving passes of
//! [`network_decomposition`](crate::network_decomposition).
//! Round-cost accounting is unchanged: simulating `G^r` is charged by
//! the *caller* at the usual `O(r)` simulation overhead — the ledger prices
//! LOCAL rounds, not the central materialization shortcut this view avoids.

use forest_graph::traversal::BfsScratch;
use forest_graph::{EdgeId, GraphView, MultiGraph, VertexId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Builds the power graph `G^r`: same vertex set, an edge between `u` and `v`
/// whenever their distance in `G` is between 1 and `r`. The result is simple
/// (no parallel edges) regardless of multiplicities in `G`.
///
/// Simulating one round of `G^r` costs `O(r)` rounds of `G`; callers charge
/// that separately when they run algorithms on the power graph.
///
/// **Engine note:** this materializer is the ground-truth oracle for
/// tests; the decomposition engines route through [`PowerView`], which
/// answers the same adjacency lazily without the `O(n²)` edge blow-up.
/// Prefer the view in any per-run code path.
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

/// Running counters of a [`PowerView`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PowerViewStats {
    /// Balls computed by a bounded BFS over the base graph.
    pub ball_expansions: u64,
}

/// A lazy [`GraphView`] of the power graph `G^r` — adjacency on demand, no
/// materialization.
///
/// Every query about a vertex `v` is answered from the radius-`r` ball of
/// `v` in the base graph, computed by a bounded BFS over a shared
/// epoch-stamped scratch arena (see the [module docs](self) for the
/// design rationale).
///
/// # Identifier contract
///
/// `PowerView` keeps the dense `0..n` vertex ids of the base graph but
/// *deviates* from the dense edge-id contract of [`GraphView`] (precedent:
/// `forest_graph::DynamicGraph`, whose live edges also occupy a sparse id
/// space). Edge ids are dual-mode:
///
/// * `n ≤ `[`PowerView::PAIR_ENCODED_MAX`]: the edge between `u < w` has
///   the pair-encoded id `u·n + w`, so endpoint recovery is arithmetic
///   ([`endpoints`](GraphView::endpoints) is `(e / n, e % n)`) and
///   [`num_edges`](GraphView::num_edges) returns the *id-space span* `n²`.
///   This is the historical encoding, kept bit-for-bit so edge ids (and
///   anything derived from them) are stable for every graph that fit the
///   old `u16::MAX` cap.
/// * larger graphs (up to [`PowerView::MAX_VERTICES`]): `u·n + w` would
///   overflow the `u32` backing of [`EdgeId`], so ids are *interned
///   lazily* — the first query touching a power edge assigns it the next
///   sequential id, a side table recovers endpoints, and
///   [`num_edges`](GraphView::num_edges) returns the number of ids minted
///   so far (it grows as queries discover new edges).
///
/// In both modes use [`edges`](GraphView::edges) (overridden to enumerate
/// lazily from each smaller endpoint) when the actual edge set is required.
///
/// The view holds interior mutability (scratch arena + interner)
/// behind a [`RefCell`], so it is intentionally neither `Sync` nor `Send`:
/// create one per run, like the scratch buffers it replaces.
#[derive(Debug)]
pub struct PowerView<'a, G: GraphView> {
    base: &'a G,
    radius: usize,
    inner: RefCell<PowerViewInner>,
}

/// Lazily interned edge ids for base graphs too large for pair encoding:
/// the first query touching a power edge mints the next sequential `u32`
/// id, and `pairs` recovers the endpoints of every minted id.
#[derive(Debug, Default)]
struct EdgeInterner {
    ids: HashMap<u64, u32>,
    pairs: Vec<(u32, u32)>,
}

impl EdgeInterner {
    fn intern(&mut self, lo: u32, hi: u32, n: usize) -> EdgeId {
        let key = lo as u64 * n as u64 + hi as u64;
        if let Some(&id) = self.ids.get(&key) {
            return EdgeId::new(id as usize);
        }
        let id = u32::try_from(self.pairs.len())
            .expect("interned more than u32::MAX distinct power edges");
        self.ids.insert(key, id);
        self.pairs.push((lo, hi));
        EdgeId::new(id as usize)
    }
}

#[derive(Debug)]
struct PowerViewInner {
    scratch: BfsScratch,
    stats: PowerViewStats,
    /// `Some` exactly when the base graph exceeds
    /// [`PowerView::PAIR_ENCODED_MAX`] vertices.
    interner: Option<EdgeInterner>,
}

impl<'a, G: GraphView> PowerView<'a, G> {
    /// Largest supported base-graph vertex count (vertex ids must fit the
    /// `u32` entries of a ball).
    pub const MAX_VERTICES: usize = u32::MAX as usize;

    /// Largest base-graph vertex count the *pair-encoded* edge ids support
    /// (`n² - 1` must fit in a `u32`). Below this threshold edge ids use
    /// the historical `u·n + w` encoding; above it they are interned
    /// lazily (see the identifier contract on [`PowerView`]).
    pub const PAIR_ENCODED_MAX: usize = u16::MAX as usize;

    /// Wraps `base` as the virtual power graph `base^radius`.
    ///
    /// # Panics
    ///
    /// Panics if `base` has more than [`PowerView::MAX_VERTICES`] vertices
    /// (vertex ids would overflow the `u32` ball entries).
    pub fn new(base: &'a G, radius: usize) -> Self {
        let n = base.num_vertices();
        assert!(
            n <= Self::MAX_VERTICES,
            "PowerView supports at most {} vertices (got {n})",
            Self::MAX_VERTICES
        );
        PowerView {
            base,
            radius,
            inner: RefCell::new(PowerViewInner {
                scratch: BfsScratch::new(n),
                stats: PowerViewStats::default(),
                interner: (n > Self::PAIR_ENCODED_MAX).then(EdgeInterner::default),
            }),
        }
    }

    /// The base graph the view is defined over.
    pub fn base(&self) -> &'a G {
        self.base
    }

    /// The power-graph radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Snapshot of the expansion counter.
    pub fn stats(&self) -> PowerViewStats {
        self.inner.borrow().stats
    }

    /// The sorted power-neighborhood of `v` (vertices at base distance
    /// `1..=radius`), by one bounded BFS.
    fn ball(&self, v: VertexId) -> Vec<u32> {
        let mut inner = self.inner.borrow_mut();
        inner.stats.ball_expansions += 1;
        inner
            .scratch
            .run_bounded(self.base, &[v], self.radius, |_| true);
        let mut ball: Vec<u32> = inner
            .scratch
            .visited()
            .iter()
            .filter(|&&w| w != v)
            .map(|w| w.raw())
            .collect();
        ball.sort_unstable();
        ball
    }

    fn encode_edge(&self, u: u32, w: u32) -> EdgeId {
        let n = self.base.num_vertices();
        let (lo, hi) = if u <= w { (u, w) } else { (w, u) };
        if n <= Self::PAIR_ENCODED_MAX {
            EdgeId::new(lo as usize * n + hi as usize)
        } else {
            let mut inner = self.inner.borrow_mut();
            inner
                .interner
                .as_mut()
                .expect("interner present above the pair-encoded cap")
                .intern(lo, hi, n)
        }
    }
}

impl<'a, G: GraphView> GraphView for PowerView<'a, G> {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// The edge-id *span*, not the count of distinct power edges (see the
    /// type-level identifier contract): `n²` in pair-encoded mode, the
    /// number of interned ids minted so far above the cap.
    fn num_edges(&self) -> usize {
        let n = self.base.num_vertices();
        if n <= Self::PAIR_ENCODED_MAX {
            n * n
        } else {
            self.inner
                .borrow()
                .interner
                .as_ref()
                .expect("interner present above the pair-encoded cap")
                .pairs
                .len()
        }
    }

    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let n = self.base.num_vertices();
        if n <= Self::PAIR_ENCODED_MAX {
            (VertexId::new(e.index() / n), VertexId::new(e.index() % n))
        } else {
            let inner = self.inner.borrow();
            let (lo, hi) = inner
                .interner
                .as_ref()
                .expect("interner present above the pair-encoded cap")
                .pairs[e.index()];
            (VertexId::new(lo as usize), VertexId::new(hi as usize))
        }
    }

    fn degree(&self, v: VertexId) -> usize {
        self.ball(v).len()
    }

    /// The ball is owned by the iterator, so each `next()` only takes a
    /// transient interior borrow of the view (to mint interned edge ids).
    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let center = v.raw();
        self.ball(v)
            .into_iter()
            .map(move |w| (VertexId::new(w as usize), self.encode_edge(center, w)))
    }

    /// Lazily enumerates each power edge once, from its smaller endpoint in
    /// ascending order.
    fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |v| {
            let center = v.raw();
            self.ball(v)
                .into_iter()
                .filter(move |&w| w > center)
                .map(move |w| (self.encode_edge(center, w), v, VertexId::new(w as usize)))
        })
    }

    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        self.edges().map(|(e, _, _)| e)
    }
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

    /// Sorted power-neighbor list of `v` according to the materialized oracle.
    fn oracle_neighbors(pg: &MultiGraph, v: VertexId) -> Vec<usize> {
        let mut ns: Vec<usize> = pg.neighbors(v).map(|u| u.index()).collect();
        ns.sort_unstable();
        ns
    }

    fn assert_matches_materialized(g: &MultiGraph, r: usize) {
        let pv = PowerView::new(g, r);
        let oracle = power_graph(g, r);
        for v in g.vertices() {
            let lazy: Vec<usize> = pv.incidences(v).map(|(w, _)| w.index()).collect();
            assert_eq!(lazy, oracle_neighbors(&oracle, v), "radius {r} vertex {v}");
            assert_eq!(pv.degree(v), oracle.degree(v));
            // Edge-id round trip: endpoints(e) recovers the incidence pair.
            for (w, e) in pv.incidences(v) {
                let (a, b) = pv.endpoints(e);
                assert_eq!((a.min(b), a.max(b)), (v.min(w), v.max(w)));
            }
        }
        // The lazy edge enumeration sees each power edge exactly once.
        assert_eq!(pv.edges().count(), oracle.num_edges());
        assert_eq!(pv.edge_ids().count(), oracle.num_edges());
    }

    #[test]
    fn power_view_matches_materialized_on_path_and_grid() {
        let path = generators::path(9);
        for r in [0, 1, 2, 3, 8, 20] {
            assert_matches_materialized(&path, r);
        }
        let grid = generators::grid(4, 3);
        for r in [0, 1, 2, 5, 10] {
            assert_matches_materialized(&grid, r);
        }
        let clique = generators::complete_graph(40);
        for r in [1, 2] {
            assert_matches_materialized(&clique, r);
        }
    }

    #[test]
    fn power_view_handles_graphs_above_the_pair_encoded_cap() {
        // Regression for the old `u16::MAX` cap: above it, edge ids come
        // from the lazy interner instead of the `u·n + w` pair encoding.
        let n = 70_000;
        assert!(n > PowerView::<MultiGraph>::PAIR_ENCODED_MAX);
        let g = generators::path(n);
        let pv = PowerView::new(&g, 2);
        let v = VertexId::new(35_000);
        let ns: Vec<usize> = pv.incidences(v).map(|(w, _)| w.index()).collect();
        assert_eq!(ns, vec![34_998, 34_999, 35_001, 35_002]);
        assert_eq!(pv.degree(VertexId::new(0)), 2);
        // Endpoint round trip through the interner, and id stability: the
        // same power edge queried from either endpoint yields one id.
        let mut seen = HashMap::new();
        for v in [VertexId::new(0), v, VertexId::new(10), VertexId::new(11)] {
            for (w, e) in pv.incidences(v) {
                let (a, b) = pv.endpoints(e);
                assert_eq!((a.min(b), a.max(b)), (v.min(w), v.max(w)));
                if let Some(prev) = seen.insert((v.min(w), v.max(w)), e) {
                    assert_eq!(prev, e, "edge id must be stable across queries");
                }
            }
        }
        // Full lazy enumeration still sees each power edge exactly once:
        // path^2 has (n-1) + (n-2) edges. Afterwards every edge has been
        // interned, so num_edges (the id span) matches.
        assert_eq!(pv.edges().count(), 2 * n - 3);
        assert_eq!(pv.num_edges(), 2 * n - 3);
    }

    /// A topology-free stand-in that only claims a vertex count, so the
    /// constructor guard can be exercised without allocating `O(n)` state.
    struct ClaimedVertexCount(usize);

    impl GraphView for ClaimedVertexCount {
        fn num_vertices(&self) -> usize {
            self.0
        }
        fn num_edges(&self) -> usize {
            0
        }
        fn endpoints(&self, _: EdgeId) -> (VertexId, VertexId) {
            unreachable!("edgeless")
        }
        fn degree(&self, _: VertexId) -> usize {
            0
        }
        fn incidences(&self, _: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
            std::iter::empty()
        }
    }

    #[test]
    #[should_panic(expected = "PowerView supports at most")]
    fn power_view_rejects_oversized_graphs() {
        let g = ClaimedVertexCount(PowerView::<ClaimedVertexCount>::MAX_VERTICES + 1);
        let _ = PowerView::new(&g, 1);
    }
}
