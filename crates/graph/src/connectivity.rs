//! Incremental per-color connectivity over a partial edge coloring: one
//! structure shared by every consumer that used to roll its own.
//!
//! Both the augmenting-sequence search (`forest-decomp::augmenting`) and the
//! matroid partition ([`crate::matroid`]) place an edge by first-fit: the
//! first color whose forest keeps its endpoints apart takes it, and only when
//! every color is blocked does the rare slow path search for an
//! augmenting/exchange sequence. This module provides the one cache both use
//! — and that shard-boundary stitching uses too: one [`UnionFind`] per
//! color, with an **optional edge filter** restricting which edges count
//! (the augmenting search's cluster-view restriction).
//!
//! A placement is one union per color tried
//! ([`ColorConnectivity::place`]): the union itself answers whether the
//! endpoints were apart, and joins them when they were. A color's forest is
//! built on first use by a scan of the coloring, unless it was
//! [primed](ColorConnectivity::prime) empty — which every caller whose
//! coloring starts empty does (the matroid partition, and Algorithm 2's
//! trivial pass), so no scan ever runs there. Recolorings invalidate the
//! affected colors, which rebuild on next use
//! ([`ColorConnectivity::invalidate`]), or per color in one shared pass
//! ([`ColorConnectivity::rebuild_colors`]) when an exchange touched a known
//! set of colors.
//!
//! Union-find is the right backing as long as forests only *grow*. When
//! they shrink too — streaming deletions, exchange-heavy recoloring — use
//! [`DynamicColorConnectivity`], which keeps each color class (a forest) as
//! a [`DynamicForest`] so a recoloring is a cut and a link instead of an
//! `O(m)` rebuild.

use crate::decomposition::PartialEdgeColoring;
use crate::dynamic::{DynamicForest, ForestEdge};
use crate::ids::{Color, EdgeId, VertexId};
use crate::matroid::ExchangeStep;
use crate::union_find::UnionFind;
use crate::view::GraphView;

/// Incremental per-color connectivity over a partial coloring.
///
/// The structure is tied to one `(coloring, filter)` evolution: each
/// forest is a snapshot of the coloring when it was built (or primed) plus
/// the [`place`](ColorConnectivity::place)s applied since. Create it fresh
/// (or [`invalidate_all`](ColorConnectivity::invalidate_all)) whenever the
/// edge filter changes or colors are cleared behind its back.
///
/// ```
/// use forest_graph::{ColorConnectivity, Color, EdgeId, GraphView, MultiGraph};
/// use forest_graph::decomposition::PartialEdgeColoring;
/// let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)])?;
/// let mut coloring = PartialEdgeColoring::new_uncolored(2);
/// coloring.set(EdgeId::new(0), Color::new(0));
/// let mut conn = ColorConnectivity::new(g.num_vertices());
/// assert!(conn.forest(&g, &coloring, None, Color::new(0)).connected(0, 1));
/// assert!(!conn.forest(&g, &coloring, None, Color::new(0)).connected(1, 2));
/// // Placing edge 1 = {1, 2} in color 0 joins its endpoints; placing a
/// // second {1, 2} edge there would close a cycle, so it is refused.
/// assert!(conn.place(&g, &coloring, None, Color::new(0), 1.into(), 2.into()));
/// coloring.set(EdgeId::new(1), Color::new(0));
/// assert!(!conn.place(&g, &coloring, None, Color::new(0), 1.into(), 2.into()));
/// # Ok::<(), forest_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ColorConnectivity {
    num_vertices: usize,
    /// Indexed by color id; `None` until the color's forest is built. Color
    /// ids are small (palette sizes), so a slot per id costs little and a
    /// placement is one index.
    forests: Vec<Option<UnionFind>>,
}

impl ColorConnectivity {
    /// An empty cache for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        ColorConnectivity {
            num_vertices,
            forests: Vec::new(),
        }
    }

    /// Number of vertices the per-color forests span.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The slot of `c`, growing the table to cover it.
    fn slot(&mut self, c: Color) -> &mut Option<UnionFind> {
        if c.index() >= self.forests.len() {
            self.forests.resize_with(c.index() + 1, || None);
        }
        &mut self.forests[c.index()]
    }

    /// Drops the cached forest of `c`, forcing a rebuild on next use.
    pub fn invalidate(&mut self, c: Color) {
        if let Some(slot) = self.forests.get_mut(c.index()) {
            *slot = None;
        }
    }

    /// Drops every cached forest (bulk recoloring with unknown touch set).
    pub fn invalidate_all(&mut self) {
        self.forests.clear();
    }

    /// The color-`c` forest, built on first use by scanning `g` for edges
    /// colored `c` that pass `filter` (`None` = every edge counts).
    pub fn forest<G: GraphView>(
        &mut self,
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
        c: Color,
    ) -> &mut UnionFind {
        let n = self.num_vertices;
        self.slot(c).get_or_insert_with(|| {
            let mut uf = UnionFind::new(n);
            for (e, u, v) in g.edges() {
                if coloring.color(e) == Some(c) && filter.is_none_or(|keep| keep(e)) {
                    uf.union(u.index(), v.index());
                }
            }
            uf
        })
    }

    /// The already-cached forest of `c`, if any — the no-graph-in-hand
    /// accessor for callers that fill primed forests themselves (shard
    /// stitching), where a lazy build could never trigger.
    pub fn cached_forest(&mut self, c: Color) -> Option<&mut UnionFind> {
        self.forests.get_mut(c.index())?.as_mut()
    }

    /// Creates empty forests for the colors in `0..num_colors` that have
    /// none cached, so no later use scans the graph to build them. Only
    /// valid while the coloring (under the filter) has no edge of those
    /// colors: at the start of a pass whose coloring starts empty, or for a
    /// color just opened.
    pub fn prime(&mut self, num_colors: usize) {
        let n = self.num_vertices;
        for c in 0..num_colors {
            self.slot(Color::new(c))
                .get_or_insert_with(|| UnionFind::new(n));
        }
    }

    /// Places the edge `{u, v}` in color `c` if the color-`c` forest (under
    /// `filter`, built on first use) keeps `u` and `v` apart: one union,
    /// `true` when it joined them. The caller then colors the edge `c`;
    /// on `false` the endpoints were already connected (the edge would
    /// close a cycle) and the forest is unchanged.
    ///
    /// First-fit placement — the fast path of both the matroid partition
    /// and the augmenting search — is `place` over the candidate colors in
    /// order, stopping at the first `true`.
    #[inline]
    pub fn place<G: GraphView>(
        &mut self,
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
        c: Color,
        u: VertexId,
        v: VertexId,
    ) -> bool {
        let (u, v) = (u.index(), v.index());
        // A cached forest is read in place, inline in the caller's loop:
        // through `forest` every placement paid an out-of-line call, a third
        // of a primed first-fit pass over a 60k-edge graph (release build,
        // 2-core x86-64 host).
        match self.forests.get_mut(c.index()) {
            Some(Some(forest)) => forest.union(u, v),
            _ => self.forest(g, coloring, filter, c).union(u, v),
        }
    }

    /// Rebuilds exactly the forests of `colors` in one shared edge scan,
    /// **preserving every other color's cached forest** — the per-color
    /// invalidation an exchange with a known touch set wants. Colors the
    /// exchange never touched keep their incrementally-maintained state
    /// (including forests built under an edge filter).
    pub fn rebuild_colors<G, I>(
        &mut self,
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
        colors: I,
    ) where
        G: GraphView,
        I: IntoIterator<Item = Color>,
    {
        let mut touched: Vec<Color> = colors.into_iter().collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            return;
        }
        for &c in &touched {
            *self.slot(c) = Some(UnionFind::new(self.num_vertices));
        }
        for (e, u, v) in g.edges() {
            if let Some(c) = coloring.color(e) {
                if touched.binary_search(&c).is_ok() && filter.is_none_or(|keep| keep(e)) {
                    self.forests[c.index()]
                        .as_mut()
                        .expect("touched colors were just inserted")
                        .union(u.index(), v.index());
                }
            }
        }
    }
}

/// Per-color connectivity over a partial coloring that supports **removal**:
/// every color class of a forest decomposition is a forest, so each rides on
/// its own [`DynamicForest`], and recoloring an edge (an exchange step, a
/// streaming delete) is a cut and a link, amortized `O(log n)` each,
/// instead of invalidating the color and paying an `O(m)` rebuild on next
/// use.
///
/// Unlike [`ColorConnectivity`], this structure never scans a graph: it is
/// maintained *purely* through [`insert`](DynamicColorConnectivity::insert) /
/// [`remove`](DynamicColorConnectivity::remove) /
/// [`apply_exchange`](DynamicColorConnectivity::apply_exchange) mirroring
/// every coloring edit, which makes it exact at all times — the natural
/// cache for update-stream workloads (`DynamicDecomposer`) and
/// exchange-heavy passes (exact-α stitching), where union-find's
/// insert-only model forces repeated rebuilds. The mirrored classes must
/// stay forests; a link that would close a cycle debug-panics.
///
/// ```
/// use forest_graph::connectivity::DynamicColorConnectivity;
/// use forest_graph::{Color, EdgeId};
/// let mut conn = DynamicColorConnectivity::new(3);
/// conn.insert(EdgeId::new(0), Color::new(0), 0.into(), 1.into());
/// conn.insert(EdgeId::new(1), Color::new(0), 1.into(), 2.into());
/// assert!(conn.connected(Color::new(0), 0.into(), 2.into()));
/// assert_eq!(conn.remove(EdgeId::new(1)), Some(Color::new(0)));
/// assert!(!conn.connected(Color::new(0), 0.into(), 2.into()));
/// ```
#[derive(Clone, Debug)]
pub struct DynamicColorConnectivity {
    num_vertices: usize,
    colors: Vec<DynamicForest>,
    /// For every edge id: which color's forest holds it, under which handle.
    edges: Vec<Option<(Color, ForestEdge)>>,
}

impl DynamicColorConnectivity {
    /// An empty structure over `num_vertices` vertices and no colors yet
    /// (color forests materialize as they are first used).
    pub fn new(num_vertices: usize) -> Self {
        DynamicColorConnectivity {
            num_vertices,
            colors: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Seeds a structure from an existing complete or partial forest
    /// coloring: one pass inserting every colored edge.
    pub fn from_coloring<G: GraphView>(g: &G, coloring: &PartialEdgeColoring) -> Self {
        let mut conn = DynamicColorConnectivity::new(g.num_vertices());
        for (e, u, v) in g.edges() {
            if let Some(c) = coloring.color(e) {
                conn.insert(e, c, u, v);
            }
        }
        conn
    }

    /// Whether the color-`c` forest connects `u` and `v` (`false` for a
    /// color never used). Amortized `O(log n)`.
    pub fn connected(&mut self, c: Color, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        match self.colors.get_mut(c.index()) {
            Some(forest) => forest.connected(u, v),
            None => false,
        }
    }

    /// First color in `0..k` whose class keeps `u` and `v` apart.
    pub fn first_free_color(&mut self, k: usize, u: VertexId, v: VertexId) -> Option<Color> {
        (0..k).map(Color::new).find(|&c| !self.connected(c, u, v))
    }

    /// Records that edge `e = {u, v}` was colored `c`: links it into the
    /// color-`c` forest. Amortized `O(log n)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `e` is already tracked (move it through
    /// [`DynamicColorConnectivity::apply_exchange`] instead) or if the
    /// color-`c` forest already connects `u` and `v`.
    pub fn insert(&mut self, e: EdgeId, c: Color, u: VertexId, v: VertexId) {
        while self.colors.len() <= c.index() {
            self.colors.push(DynamicForest::new(self.num_vertices));
        }
        if self.edges.len() <= e.index() {
            self.edges.resize(e.index() + 1, None);
        }
        debug_assert!(self.edges[e.index()].is_none(), "edge {e} already tracked");
        let handle = self.colors[c.index()].link(u, v);
        self.edges[e.index()] = Some((c, handle));
    }

    /// Records that edge `e` was uncolored (deleted or cleared): cuts it out
    /// of its class. Returns the color it held, `None` if untracked.
    /// Amortized `O(log n)`.
    pub fn remove(&mut self, e: EdgeId) -> Option<Color> {
        let (c, handle) = self.edges.get_mut(e.index())?.take()?;
        self.colors[c.index()].cut(handle);
        Some(c)
    }

    /// Mirrors an exchange that was already applied to the coloring (the
    /// steps [`try_augment_traced`](crate::matroid::try_augment_traced)
    /// returns): first every moved edge leaves its old class, then each
    /// joins its new one.
    ///
    /// Replaying the steps one by one would not work: the first step adds
    /// the searched edge to a color whose forest still connects its
    /// endpoints, through the very edge a later step moves out. After the
    /// cuts every class is a subset of its final class, and the exchange
    /// leaves every final class a forest, so no link closes a cycle.
    pub fn apply_exchange<G: GraphView>(&mut self, g: &G, steps: &[ExchangeStep]) {
        for &(e, _, _) in steps {
            self.remove(e);
        }
        for &(e, _, new) in steps {
            let (u, v) = g.endpoints(e);
            self.insert(e, new, u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::multigraph::MultiGraph;
    use crate::view::EdgeList;
    use proptest::prelude::*;
    use rand::Rng;

    fn e(i: usize) -> EdgeId {
        EdgeId::new(i)
    }

    fn c(i: usize) -> Color {
        Color::new(i)
    }

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn lazy_build_reflects_the_coloring() {
        let g = generators::path(4); // edges 0-1, 1-2, 2-3
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        coloring.set(e(0), c(0));
        coloring.set(e(1), c(0));
        coloring.set(e(2), c(1));
        let mut conn = ColorConnectivity::new(4);
        assert!(conn.forest(&g, &coloring, None, c(0)).connected(0, 2));
        assert!(!conn.forest(&g, &coloring, None, c(0)).connected(0, 3));
        assert!(conn.forest(&g, &coloring, None, c(1)).connected(2, 3));
    }

    #[test]
    fn filter_restricts_which_edges_count() {
        let g = generators::path(4);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        for i in 0..3 {
            coloring.set(e(i), c(0));
        }
        let keep = |x: EdgeId| x.index() != 1;
        let mut conn = ColorConnectivity::new(4);
        assert!(!conn
            .forest(&g, &coloring, Some(&keep), c(0))
            .connected(0, 3));
        assert!(conn
            .forest(&g, &coloring, Some(&keep), c(0))
            .connected(0, 1));
    }

    #[test]
    fn place_is_incremental_and_invalidate_rebuilds() {
        let g = generators::path(4);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        let mut conn = ColorConnectivity::new(4);
        // Build the empty forest first, then color through place.
        assert!(!conn.forest(&g, &coloring, None, c(0)).connected(0, 1));
        assert!(conn.place(&g, &coloring, None, c(0), v(0), v(1)));
        coloring.set(e(0), c(0));
        assert!(conn.forest(&g, &coloring, None, c(0)).connected(0, 1));
        // A recolor behind the cache's back must be surfaced by invalidate.
        coloring.clear(e(0));
        conn.invalidate(c(0));
        assert!(!conn.forest(&g, &coloring, None, c(0)).connected(0, 1));
    }

    #[test]
    fn first_fit_place_matches_linear_scan() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        coloring.set(e(0), c(0));
        coloring.set(e(1), c(1));
        let mut conn = ColorConnectivity::new(3);
        let mut first_fit = |coloring: &PartialEdgeColoring| {
            (0..3)
                .map(c)
                .find(|&col| conn.place(&g, coloring, None, col, v(0), v(1)))
        };
        assert_eq!(first_fit(&coloring), Some(c(2)));
        coloring.set(e(2), c(2));
        assert_eq!(first_fit(&coloring), None);
    }

    #[test]
    fn rebuild_colors_preserves_untouched_forests() {
        // Regression: rebuilding one color must not reset the cached state
        // of the others — `rebuild` used to nuke the whole cache, so a
        // caller that recolored inside color 0 also lost color 1's
        // incrementally-built (or filter-restricted) forest.
        let g = generators::path(4);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        let mut conn = ColorConnectivity::new(4);
        conn.prime(2);
        assert!(conn.place(&g, &coloring, None, c(0), v(0), v(1)));
        coloring.set(e(0), c(0));
        // Color 1's forest carries state the coloring does not (the primed
        // and placed evolution shard stitching relies on).
        assert!(conn.place(&g, &coloring, None, c(1), v(2), v(3)));
        // Recolor inside color 0 and rebuild only it.
        coloring.clear(e(0));
        coloring.set(e(1), c(0));
        conn.rebuild_colors(&g, &coloring, None, [c(0)]);
        assert!(!conn.forest(&g, &coloring, None, c(0)).connected(0, 1));
        assert!(conn.forest(&g, &coloring, None, c(0)).connected(1, 2));
        // Color 1's place-only state survived the color-0 rebuild.
        assert!(conn
            .cached_forest(c(1))
            .expect("color 1 stays cached")
            .connected(2, 3));
    }

    #[test]
    fn rebuild_colors_respects_filter_and_matches_fresh() {
        let g = generators::grid(3, 3);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for (i, edge) in g.edge_ids().enumerate() {
            coloring.set(edge, c(i % 3));
        }
        let keep = |x: EdgeId| x.index().is_multiple_of(2);
        let mut rebuilt = ColorConnectivity::new(g.num_vertices());
        rebuilt.rebuild_colors(&g, &coloring, Some(&keep), [c(0), c(2)]);
        let mut fresh = ColorConnectivity::new(g.num_vertices());
        for color in [c(0), c(2)] {
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(
                        rebuilt
                            .forest(&g, &coloring, Some(&keep), color)
                            .connected(a.index(), b.index()),
                        fresh
                            .forest(&g, &coloring, Some(&keep), color)
                            .connected(a.index(), b.index())
                    );
                }
            }
        }
    }

    /// One step of the `place_matches_first_disconnected_union_finds` script.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// First-fit placement of the next edge over the open colors.
        Place,
        /// Drop one color's forest; it rebuilds from the coloring.
        Invalidate(usize),
        /// Drop every forest.
        InvalidateAll,
        /// Open one more color (up to `k`), priming when that is valid.
        Open,
    }

    /// Random edge sequences over up to 7 vertices (parallel edges and
    /// self-loops included), up to 4 colors, some primed at the start, and a
    /// script of placements, invalidations and color openings.
    fn arb_run() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, usize, usize, Vec<Step>)> {
        (1..8usize, 1..5usize, 0..40usize, 0..u64::MAX).prop_map(|(n, k, len, seed)| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let edges = (0..len)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let primed = rng.gen_range(0..k + 1);
            let steps = (0..2 * len)
                .map(|_| match rng.gen_range(0..8usize) {
                    0 => Step::Invalidate(rng.gen_range(0..k)),
                    1 => Step::InvalidateAll,
                    2 => Step::Open,
                    _ => Step::Place,
                })
                .collect();
            (n, edges, k, primed, steps)
        })
    }

    /// The colors `0..k` of `conn` partition the vertices as `model` does.
    fn same_partitions(
        conn: &mut ColorConnectivity,
        g: &EdgeList,
        coloring: &PartialEdgeColoring,
        model: &mut [UnionFind],
    ) -> Result<(), TestCaseError> {
        for (col, uf) in model.iter_mut().enumerate() {
            for a in 0..g.n {
                for b in 0..g.n {
                    let got = conn.forest(g, coloring, None, c(col)).connected(a, b);
                    prop_assert_eq!(got, uf.connected(a, b));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `place` answers first-fit exactly as a scan for the first color
        /// whose plain union-find keeps the endpoints apart, and leaves the
        /// same partitions, however its forests were reached: primed,
        /// built lazily from the coloring, or rebuilt after an
        /// invalidation.
        #[test]
        fn place_matches_first_disconnected_union_finds(
            (n, edges, k, primed, steps) in arb_run()
        ) {
            let g = EdgeList {
                n,
                edges: edges.iter().map(|&(a, b)| (v(a), v(b))).collect(),
            };
            let mut coloring = PartialEdgeColoring::new_uncolored(g.edges.len());
            let mut conn = ColorConnectivity::new(n);
            conn.prime(primed);
            // Open colors start at the primed ones (at least one).
            let mut open = primed.max(1);
            let mut model: Vec<UnionFind> = (0..k).map(|_| UnionFind::new(n)).collect();
            let mut used = vec![false; k];
            let mut next = 0;
            for step in steps {
                match step {
                    Step::Place if next < g.edges.len() => {
                        let (a, b) = g.edges[next];
                        let expected = (0..open).find(|&col| !model[col].connected(a.index(), b.index()));
                        let got = (0..open).find(|&col| conn.place(&g, &coloring, None, c(col), a, b));
                        prop_assert_eq!(got, expected);
                        if let Some(col) = got {
                            model[col].union(a.index(), b.index());
                            coloring.set(e(next), c(col));
                            used[col] = true;
                        }
                        next += 1;
                    }
                    Step::Place => {}
                    Step::Invalidate(col) => conn.invalidate(c(col)),
                    Step::InvalidateAll => conn.invalidate_all(),
                    Step::Open if open < k => {
                        open += 1;
                        // Priming is valid while every color it would create
                        // holds no edge.
                        if (0..open).all(|col| !used[col] || conn.cached_forest(c(col)).is_some()) {
                            conn.prime(open);
                        }
                    }
                    Step::Open => {}
                }
            }
            same_partitions(&mut conn, &g, &coloring, &mut model)?;
        }
    }

    #[test]
    fn dynamic_color_connectivity_tracks_recoloring() {
        let mut conn = DynamicColorConnectivity::new(4);
        conn.insert(e(0), c(0), v(0), v(1));
        conn.insert(e(1), c(0), v(1), v(2));
        conn.insert(e(2), c(1), v(2), v(3));
        assert!(conn.connected(c(0), v(0), v(2)));
        assert_eq!(conn.first_free_color(2, v(0), v(2)), Some(c(1)));
        // Move e1 to color 1: a cut and a link.
        assert_eq!(conn.remove(e(1)), Some(c(0)));
        conn.insert(e(1), c(1), v(1), v(2));
        assert!(!conn.connected(c(0), v(0), v(2)));
        assert!(conn.connected(c(1), v(1), v(3)));
        // Removal uncolors.
        assert_eq!(conn.remove(e(2)), Some(c(1)));
        assert_eq!(conn.remove(e(2)), None);
        assert!(!conn.connected(c(1), v(1), v(3)));
        // Unused colors answer conservatively.
        assert!(!conn.connected(c(9), v(0), v(1)));
    }

    /// The smallest exchange whose steps cannot be replayed in order: the
    /// triangle 0–1–2 colored {e0, e1} / {e2}, plus a second 0–2 edge e3,
    /// with k = 2. The exchange is (e3 → color 0, then e0: color 0 → 1);
    /// linking e3 before e0 leaves would close the cycle 0–1–2 in color 0.
    #[test]
    fn apply_exchange_cuts_before_it_links() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]).unwrap();
        let mut coloring = PartialEdgeColoring::new_uncolored(4);
        for (i, color) in [(0, 0), (1, 0), (2, 1)] {
            coloring.set(e(i), c(color));
        }
        let mut conn = DynamicColorConnectivity::from_coloring(&g, &coloring);
        let steps = crate::matroid::try_augment_traced(&g, &mut coloring, e(3), 2, usize::MAX)
            .expect("two forests cover the triangle plus a parallel edge");
        assert_eq!(steps, vec![(e(3), None, c(0)), (e(0), Some(c(0)), c(1))]);
        conn.apply_exchange(&g, &steps);
        for color in [c(0), c(1)] {
            let class = g
                .edges()
                .filter(|&(f, _, _)| coloring.color(f) == Some(color))
                .map(|(_, a, b)| (a.index(), b.index()));
            let mut uf = UnionFind::from_edges(3, class);
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(
                        conn.connected(color, a, b),
                        uf.connected(a.index(), b.index())
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_color_connectivity_seeds_from_coloring() {
        let g = generators::cycle(5);
        let mut coloring = PartialEdgeColoring::new_uncolored(5);
        for i in 0..4 {
            coloring.set(e(i), c(i % 2));
        }
        let mut dynamic = DynamicColorConnectivity::from_coloring(&g, &coloring);
        let mut lazy = ColorConnectivity::new(g.num_vertices());
        for color in [c(0), c(1)] {
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(
                        dynamic.connected(color, a, b),
                        lazy.forest(&g, &coloring, None, color)
                            .connected(a.index(), b.index())
                    );
                }
            }
        }
    }
}
