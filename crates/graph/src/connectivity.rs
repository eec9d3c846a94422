//! Incremental per-color connectivity over a partial edge coloring: one
//! structure shared by every consumer that used to roll its own.
//!
//! Both the augmenting-sequence search (`forest-decomp::augmenting`) and the
//! matroid partition ([`crate::matroid`]) repeatedly ask the same question:
//! *does the color-`c` forest already connect `u` and `v`?* The answer gates
//! the overwhelmingly common fast path (place the edge directly) against the
//! rare slow path (search for an augmenting/exchange sequence). This module
//! provides the one cache both use — and that shard-boundary stitching uses
//! too: one lazily-built [`UnionFind`] per color, with an **optional edge
//! filter** restricting which edges count (the augmenting search's
//! cluster-view restriction).
//!
//! Coloring an edge is an incremental union ([`ColorConnectivity::insert`]);
//! recolorings invalidate the affected colors, which rebuild on next use
//! ([`ColorConnectivity::invalidate`]), per color in one shared pass
//! ([`ColorConnectivity::rebuild_colors`]) when an exchange touched a known
//! set of colors, or wholesale ([`ColorConnectivity::rebuild`]) when the
//! touch set is unknown.
//!
//! Union-find is the right backing as long as forests only *grow*. When
//! they shrink too — streaming deletions, CUT removals, exchange-heavy
//! recoloring — use [`DynamicColorConnectivity`], which rides each color
//! class on a fully-dynamic [`DynamicConnectivity`] so a recoloring is two
//! `O(log² n)` edits instead of an `O(m)` rebuild.

use crate::decomposition::PartialEdgeColoring;
use crate::dynamic::{DynamicConnectivity, EdgeKey};
use crate::ids::{Color, EdgeId, VertexId};
use crate::union_find::UnionFind;
use crate::view::GraphView;
use std::collections::BTreeMap;

/// Incremental per-color connectivity over a partial coloring.
///
/// The structure is tied to one `(coloring, filter)` evolution: the lazily
/// built forests are snapshots of the coloring at build time plus the
/// [`insert`](ColorConnectivity::insert)s applied since. Create it fresh (or
/// [`rebuild`](ColorConnectivity::rebuild) /
/// [`invalidate_all`](ColorConnectivity::invalidate_all)) whenever the edge
/// filter changes or colors are cleared behind its back.
///
/// ```
/// use forest_graph::{ColorConnectivity, Color, EdgeId, GraphView, MultiGraph};
/// use forest_graph::decomposition::PartialEdgeColoring;
/// let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)])?;
/// let mut coloring = PartialEdgeColoring::new_uncolored(2);
/// coloring.set(EdgeId::new(0), Color::new(0));
/// let mut conn = ColorConnectivity::new(g.num_vertices());
/// assert!(conn.connected(&g, &coloring, None, Color::new(0), 0.into(), 1.into()));
/// assert!(!conn.connected(&g, &coloring, None, Color::new(0), 1.into(), 2.into()));
/// # Ok::<(), forest_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ColorConnectivity {
    num_vertices: usize,
    forests: BTreeMap<Color, UnionFind>,
}

impl ColorConnectivity {
    /// An empty cache for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        ColorConnectivity {
            num_vertices,
            forests: BTreeMap::new(),
        }
    }

    /// Number of vertices the per-color forests span.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Drops the cached forest of `c`, forcing a rebuild on next use.
    pub fn invalidate(&mut self, c: Color) {
        self.forests.remove(&c);
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
        self.forests.entry(c).or_insert_with(|| {
            let mut uf = UnionFind::new(self.num_vertices);
            for (e, u, v) in g.edges() {
                if coloring.color(e) == Some(c) && filter.is_none_or(|keep| keep(e)) {
                    uf.union(u.index(), v.index());
                }
            }
            uf
        })
    }

    /// The already-cached forest of `c`, if any — the no-graph-in-hand
    /// accessor for callers that maintain the cache purely through
    /// [`ColorConnectivity::prime`] + [`ColorConnectivity::insert`]
    /// (shard stitching), where a lazy build could never trigger.
    pub fn cached_forest(&mut self, c: Color) -> Option<&mut UnionFind> {
        self.forests.get_mut(&c)
    }

    /// Whether the color-`c` forest (under `filter`) connects `u` and `v`.
    pub fn connected<G: GraphView>(
        &mut self,
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
        c: Color,
        u: VertexId,
        v: VertexId,
    ) -> bool {
        self.forest(g, coloring, filter, c)
            .connected(u.index(), v.index())
    }

    /// Creates empty cached forests for colors `0..num_colors` so that
    /// subsequent [`ColorConnectivity::insert`]s build them incrementally —
    /// the bulk-merge fast path, which avoids the `O(colors x m)` lazy
    /// rebuild scans entirely when the caller replays every colored edge
    /// through `insert`.
    pub fn prime(&mut self, num_colors: usize) {
        for c in 0..num_colors {
            self.forests
                .entry(Color::new(c))
                .or_insert_with(|| UnionFind::new(self.num_vertices));
        }
    }

    /// Records that an edge `{u, v}` was just colored `c`: an incremental
    /// union when the forest is cached, a no-op otherwise (the lazy build
    /// will see the edge in the coloring).
    pub fn insert(&mut self, c: Color, u: VertexId, v: VertexId) {
        if let Some(uf) = self.forests.get_mut(&c) {
            uf.union(u.index(), v.index());
        }
    }

    /// First color in `0..k` whose forest keeps `u` and `v` apart — the fast
    /// path of both the matroid partition and the augmenting search.
    pub fn first_free_color<G: GraphView>(
        &mut self,
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
        k: usize,
        u: VertexId,
        v: VertexId,
    ) -> Option<Color> {
        (0..k)
            .map(Color::new)
            .find(|&c| !self.connected(g, coloring, filter, c, u, v))
    }

    /// Rebuilds exactly the forests of `colors` in one shared edge scan,
    /// **preserving every other color's cached forest** — the per-color
    /// invalidation an exchange with a known touch set wants.
    ///
    /// [`ColorConnectivity::rebuild`] resets the whole cache: colors the
    /// exchange never touched lose their incrementally-maintained state
    /// (including forests built under an edge filter) and pay a fresh lazy
    /// build each. This entry point drops only what actually changed.
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
            self.forests.insert(c, UnionFind::new(self.num_vertices));
        }
        for (e, u, v) in g.edges() {
            if let Some(c) = coloring.color(e) {
                if touched.binary_search(&c).is_ok() && filter.is_none_or(|keep| keep(e)) {
                    self.forests
                        .get_mut(&c)
                        .expect("touched colors were just inserted")
                        .union(u.index(), v.index());
                }
            }
        }
    }

    /// Rebuilds the forests of colors `0..num_colors` eagerly in one edge
    /// scan (cheaper than `num_colors` lazy builds after an exchange that
    /// touched many colors). Colors outside the range are dropped.
    pub fn rebuild<G: GraphView>(
        &mut self,
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
        num_colors: usize,
    ) {
        self.forests.clear();
        for c in 0..num_colors {
            self.forests
                .insert(Color::new(c), UnionFind::new(self.num_vertices));
        }
        for (e, u, v) in g.edges() {
            if let Some(c) = coloring.color(e) {
                if c.index() < num_colors && filter.is_none_or(|keep| keep(e)) {
                    if let Some(uf) = self.forests.get_mut(&c) {
                        uf.union(u.index(), v.index());
                    }
                }
            }
        }
    }
}

/// Per-color connectivity over a partial coloring that supports **removal**:
/// each color class rides on a fully-dynamic
/// [`DynamicConnectivity`](crate::dynamic::DynamicConnectivity), so
/// recoloring an edge (an exchange step, a CUT removal, a streaming delete)
/// is two amortized-`O(log² n)` edits instead of invalidating the color and
/// paying an `O(m)` rebuild on next use.
///
/// Unlike [`ColorConnectivity`], this structure never scans a graph: it is
/// maintained *purely* through [`insert`](DynamicColorConnectivity::insert) /
/// [`remove`](DynamicColorConnectivity::remove) /
/// [`recolor`](DynamicColorConnectivity::recolor) mirroring every coloring
/// edit, which makes it exact at all times — the natural cache for
/// update-stream workloads (`DynamicDecomposer`) and exchange-heavy passes
/// (exact-α stitching), where union-find's insert-only model forces repeated
/// rebuilds.
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
    colors: Vec<DynamicConnectivity>,
    /// For every edge id: which color structure holds it, under which key.
    keys: Vec<Option<(Color, EdgeKey)>>,
}

impl DynamicColorConnectivity {
    /// An empty structure over `num_vertices` vertices and no colors yet
    /// (color structures materialize as they are first used).
    pub fn new(num_vertices: usize) -> Self {
        DynamicColorConnectivity {
            num_vertices,
            colors: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Seeds a structure from an existing complete or partial coloring: one
    /// pass inserting every colored edge that passes `filter`.
    pub fn from_coloring<G: GraphView>(
        g: &G,
        coloring: &PartialEdgeColoring,
        filter: Option<&dyn Fn(EdgeId) -> bool>,
    ) -> Self {
        let mut conn = DynamicColorConnectivity::new(g.num_vertices());
        for (e, u, v) in g.edges() {
            if let Some(c) = coloring.color(e) {
                if filter.is_none_or(|keep| keep(e)) {
                    conn.insert(e, c, u, v);
                }
            }
        }
        conn
    }

    /// Number of vertices every color class spans.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of materialized color structures (an upper bound on the
    /// colors in use).
    pub fn num_colors(&self) -> usize {
        self.colors.len()
    }

    /// The color currently holding `e`, if any.
    pub fn color_of(&self, e: EdgeId) -> Option<Color> {
        self.keys.get(e.index()).copied().flatten().map(|(c, _)| c)
    }

    fn ensure_color(&mut self, c: Color) {
        while self.colors.len() <= c.index() {
            self.colors
                .push(DynamicConnectivity::new(self.num_vertices));
        }
    }

    fn ensure_edge(&mut self, e: EdgeId) {
        if self.keys.len() <= e.index() {
            self.keys.resize(e.index() + 1, None);
        }
    }

    /// Whether the color-`c` forest connects `u` and `v` (`false` for a
    /// color never used). Amortized `O(log n)`.
    pub fn connected(&mut self, c: Color, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        match self.colors.get_mut(c.index()) {
            Some(dc) => dc.connected(u, v),
            None => false,
        }
    }

    /// Number of vertices in `v`'s component of the color-`c` class (1 for
    /// a color never used).
    pub fn component_size(&mut self, c: Color, v: VertexId) -> usize {
        match self.colors.get_mut(c.index()) {
            Some(dc) => dc.component_size(v),
            None => 1,
        }
    }

    /// First color in `0..k` whose class keeps `u` and `v` apart.
    pub fn first_free_color(&mut self, k: usize, u: VertexId, v: VertexId) -> Option<Color> {
        (0..k).map(Color::new).find(|&c| !self.connected(c, u, v))
    }

    /// Records that edge `e = {u, v}` was colored `c`. Amortized
    /// `O(log n)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `e` is already tracked (recolor through
    /// [`DynamicColorConnectivity::recolor`] instead).
    pub fn insert(&mut self, e: EdgeId, c: Color, u: VertexId, v: VertexId) {
        self.ensure_color(c);
        self.ensure_edge(e);
        debug_assert!(self.keys[e.index()].is_none(), "edge {e} already tracked");
        let key = self.colors[c.index()].insert_edge(u, v);
        self.keys[e.index()] = Some((c, key));
    }

    /// Records that edge `e` was uncolored (deleted or cleared): removes it
    /// from its class. Returns the color it held, `None` if untracked.
    /// Amortized `O(log² n)`.
    pub fn remove(&mut self, e: EdgeId) -> Option<Color> {
        let (c, key) = self.keys.get_mut(e.index())?.take()?;
        self.colors[c.index()].delete_edge(key);
        Some(c)
    }

    /// Records that edge `e = {u, v}` moved to color `c` (an exchange
    /// step): a removal plus an insertion, two cheap edits. Returns the
    /// previous color, if any.
    pub fn recolor(&mut self, e: EdgeId, c: Color, u: VertexId, v: VertexId) -> Option<Color> {
        let old = self.remove(e);
        self.insert(e, c, u, v);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::multigraph::MultiGraph;

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
        assert!(conn.connected(&g, &coloring, None, c(0), v(0), v(2)));
        assert!(!conn.connected(&g, &coloring, None, c(0), v(0), v(3)));
        assert!(conn.connected(&g, &coloring, None, c(1), v(2), v(3)));
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
        assert!(!conn.connected(&g, &coloring, Some(&keep), c(0), v(0), v(3)));
        assert!(conn.connected(&g, &coloring, Some(&keep), c(0), v(0), v(1)));
    }

    #[test]
    fn insert_is_incremental_and_invalidate_rebuilds() {
        let g = generators::path(4);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        let mut conn = ColorConnectivity::new(4);
        // Build the empty forest first, then color through insert.
        assert!(!conn.connected(&g, &coloring, None, c(0), v(0), v(1)));
        coloring.set(e(0), c(0));
        conn.insert(c(0), v(0), v(1));
        assert!(conn.connected(&g, &coloring, None, c(0), v(0), v(1)));
        // A recolor behind the cache's back must be surfaced by invalidate.
        coloring.clear(e(0));
        conn.invalidate(c(0));
        assert!(!conn.connected(&g, &coloring, None, c(0), v(0), v(1)));
    }

    #[test]
    fn first_free_color_matches_linear_scan() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        coloring.set(e(0), c(0));
        coloring.set(e(1), c(1));
        let mut conn = ColorConnectivity::new(3);
        assert_eq!(
            conn.first_free_color(&g, &coloring, None, 3, v(0), v(1)),
            Some(c(2))
        );
        coloring.set(e(2), c(2));
        conn.insert(c(2), v(0), v(1));
        assert_eq!(
            conn.first_free_color(&g, &coloring, None, 3, v(0), v(1)),
            None
        );
    }

    #[test]
    fn rebuild_colors_preserves_untouched_forests() {
        // Regression: rebuilding one color must not reset the cached state
        // of the others — `rebuild` used to nuke the whole cache, so a
        // caller that recolored inside color 0 also lost color 1's
        // incrementally-built (or filter-restricted) forest.
        let g = generators::path(4);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        coloring.set(e(0), c(0));
        let mut conn = ColorConnectivity::new(4);
        conn.prime(2);
        conn.insert(c(0), v(0), v(1));
        // Color 1's forest carries state the coloring does not (the primed
        // + inserted evolution shard stitching relies on).
        conn.insert(c(1), v(2), v(3));
        // Recolor inside color 0 and rebuild only it.
        coloring.clear(e(0));
        coloring.set(e(1), c(0));
        conn.rebuild_colors(&g, &coloring, None, [c(0)]);
        assert!(!conn.connected(&g, &coloring, None, c(0), v(0), v(1)));
        assert!(conn.connected(&g, &coloring, None, c(0), v(1), v(2)));
        // Color 1's insert-only state survived the color-0 rebuild.
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
                        rebuilt.connected(&g, &coloring, Some(&keep), color, a, b),
                        fresh.connected(&g, &coloring, Some(&keep), color, a, b)
                    );
                }
            }
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
        assert_eq!(conn.color_of(e(1)), Some(c(0)));
        // Exchange: move e1 to color 1.
        assert_eq!(conn.recolor(e(1), c(1), v(1), v(2)), Some(c(0)));
        assert!(!conn.connected(c(0), v(0), v(2)));
        assert!(conn.connected(c(1), v(1), v(3)));
        assert_eq!(conn.component_size(c(1), v(1)), 3);
        // Removal uncolors.
        assert_eq!(conn.remove(e(2)), Some(c(1)));
        assert_eq!(conn.remove(e(2)), None);
        // Unused colors answer conservatively.
        assert!(!conn.connected(c(9), v(0), v(1)));
        assert_eq!(conn.component_size(c(9), v(0)), 1);
    }

    #[test]
    fn dynamic_color_connectivity_seeds_from_coloring() {
        let g = generators::cycle(5);
        let mut coloring = PartialEdgeColoring::new_uncolored(5);
        for i in 0..4 {
            coloring.set(e(i), c(i % 2));
        }
        let mut dynamic = DynamicColorConnectivity::from_coloring(&g, &coloring, None);
        let mut lazy = ColorConnectivity::new(g.num_vertices());
        for color in [c(0), c(1)] {
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(
                        dynamic.connected(color, a, b),
                        lazy.connected(&g, &coloring, None, color, a, b)
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_rebuild_equals_fresh_cache() {
        let g = generators::grid(3, 3);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for (i, edge) in g.edge_ids().enumerate() {
            coloring.set(edge, c(i % 2));
        }
        let mut rebuilt = ColorConnectivity::new(g.num_vertices());
        rebuilt.rebuild(&g, &coloring, None, 2);
        let mut fresh = ColorConnectivity::new(g.num_vertices());
        for color in [c(0), c(1)] {
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(
                        rebuilt.connected(&g, &coloring, None, color, a, b),
                        fresh.connected(&g, &coloring, None, color, a, b)
                    );
                }
            }
        }
    }
}
