//! The `CUT` procedure of Algorithm 2 (Section 4.1, Theorem 4.2).
//!
//! When Algorithm 2 processes a cluster `C` it must make sure that every
//! monochromatic path starting in the augmentation region `C' = N^{R'}(C)`
//! stays inside the view `C'' = N^{R+R'}(C)`; otherwise verifying an
//! augmenting sequence would require looking outside the cluster's view.
//! `CUT(C', R)` removes a small set of already-colored edges of
//! `H_c[C''] = E(C'') \ E(C')` per color `c` so that `C'` becomes
//! disconnected from everything outside `C''` in every color class. The
//! removed edges across the whole run form the *leftover graph*, whose
//! pseudo-arboricity must stay `O(εα)` so it can be recolored with few extra
//! colors afterwards.
//!
//! Two strategies from Theorem 4.2 are implemented:
//!
//! * [`CutStrategy::DepthModulo`] (Theorem 4.2(1)/(2)): per color, root the
//!   trees of `H_c[C'']` at the cluster side and delete every `levels`-th
//!   depth layer at a random offset. Survivor paths have length `< 2·levels`,
//!   so choosing `levels ≤ R/2` guarantees goodness outright.
//! * [`CutStrategy::ConditionedSampling`] (Theorem 4.2(3)/(4)): the
//!   load-balanced sampling of Su–Vu extended to trees — each vertex below
//!   its load cap deletes a random outgoing edge (w.r.t. a fixed
//!   `3α`-orientation `J`) with probability `p`, so the per-vertex leftover
//!   load is bounded by the cap with probability one.
//!
//! Because the paper's "with high probability" guarantees are asymptotic, the
//! caller can request `force_good`: after the randomized removal the
//! procedure deterministically cuts any surviving core-to-outside path,
//! counting those extra removals separately so the benchmarks can report how
//! often the randomness alone sufficed.
//!
//! Vertex and edge sets are dense `&[bool]` masks indexed by id, and colors
//! are always processed in ascending order (`BTreeMap` grouping), so a CUT
//! invocation consumes its RNG in an order fixed by the topology alone —
//! same seed, same removals, byte for byte.
//!
//! # Ball-local execution
//!
//! A cluster's view is a small ball, so every scan CUT performs is restricted
//! to a [`CutScope`]: the sorted core/view vertex lists and the sorted list
//! of edges with at least one endpoint in the view. (The escaping-path BFS
//! can traverse an edge whose far endpoint lies outside the view — that is
//! the escape itself — so the scope must include half-incident edges, not
//! just view-internal ones.) All per-invocation working memory lives in a
//! reusable [`CutScratch`] of epoch-stamped sets, so a run with thousands of
//! clusters performs no `O(n)` or `O(m)` work per cluster. The classic
//! whole-graph entry points [`execute_cut`] and [`is_good`] are thin wrappers
//! that build a full scope; both paths consume the RNG identically.

use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::kernels::{self, StampSet};
use forest_graph::{Color, EdgeId, GraphView, Orientation, VertexId};
use rand::Rng;
use std::collections::BTreeMap;

/// Which CUT rule to apply (Theorem 4.2).
#[derive(Clone, Debug, PartialEq)]
pub enum CutStrategy {
    /// Delete every `levels`-th depth layer (random offset) of every
    /// per-color tree. Guarantees goodness whenever `2 * levels <= R`.
    DepthModulo {
        /// Spacing between deleted layers.
        levels: usize,
    },
    /// Conditioned sampling against a fixed orientation: every vertex whose
    /// load is below `load_cap` deletes one random out-edge with probability
    /// `probability`.
    ConditionedSampling {
        /// Per-invocation deletion probability.
        probability: f64,
        /// Maximum number of deletions charged to a single vertex.
        load_cap: usize,
    },
}

/// Mutable state shared by every CUT invocation of one Algorithm 2 run.
#[derive(Clone, Debug)]
pub struct CutState {
    /// The fixed orientation `J` used by conditioned sampling (ignored by the
    /// depth-modulo rule).
    pub orientation: Option<Orientation>,
    /// Per-vertex load `L(v)`: number of deleted out-edges charged to `v`.
    pub load: Vec<usize>,
}

impl CutState {
    /// Creates a state with zero loads and no orientation.
    pub fn new(num_vertices: usize) -> Self {
        CutState {
            orientation: None,
            load: vec![0; num_vertices],
        }
    }

    /// Creates a state carrying the fixed orientation `J`.
    pub fn with_orientation(num_vertices: usize, orientation: Orientation) -> Self {
        CutState {
            orientation: Some(orientation),
            load: vec![0; num_vertices],
        }
    }

    /// Maximum load charged to any vertex so far.
    pub fn max_load(&self) -> usize {
        self.load.iter().copied().max().unwrap_or(0)
    }
}

/// Result of one CUT invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutOutcome {
    /// Edges removed by the randomized rule.
    pub removed: Vec<EdgeId>,
    /// Whether the randomized removal alone already disconnected the core
    /// from everything outside the view in every color.
    pub good: bool,
    /// Edges additionally removed by the deterministic completion (empty when
    /// `force_good` was false or the execution was already good).
    pub forced: Vec<EdgeId>,
}

impl CutOutcome {
    /// All removed edges (randomized plus forced).
    pub fn all_removed(&self) -> Vec<EdgeId> {
        let mut all = self.removed.clone();
        all.extend_from_slice(&self.forced);
        all
    }
}

/// Builds a dense id-indexed membership mask of length `len` from a set of
/// identifiers — the representation `CUT` (and Algorithm 2) uses for vertex
/// cores/views and edge sets.
pub fn dense_mask<I>(len: usize, ids: I) -> Vec<bool>
where
    I: IntoIterator,
    I::Item: Into<usize>,
{
    let mut mask = vec![false; len];
    for id in ids {
        mask[id.into()] = true;
    }
    mask
}

/// The ball-local scope of one CUT invocation.
///
/// All three lists must be sorted ascending by id; determinism (RNG draw
/// order, removal order) relies on it. `core_vertices` must be a subset of
/// `view_vertices`, and `edges` must contain every edge with **at least one**
/// endpoint in the view — the escaping-path search traverses the half-in,
/// half-out edge that constitutes the escape, so restricting the scope to
/// view-internal edges would miss it.
#[derive(Clone, Copy, Debug)]
pub struct CutScope<'a> {
    /// The core `C'`, sorted ascending.
    pub core_vertices: &'a [VertexId],
    /// The view `C''`, sorted ascending (superset of the core).
    pub view_vertices: &'a [VertexId],
    /// Every edge with at least one endpoint in the view, sorted ascending.
    pub edges: &'a [EdgeId],
}

/// Reusable working memory for scoped CUT invocations.
///
/// Every set is epoch-stamped ([`StampSet`]) and every buffer is grown on
/// demand, so resets between colors and between clusters are `O(1)` — a run
/// with thousands of clusters allocates this once and never clears an
/// `O(n)` array per cluster.
#[derive(Debug, Default)]
pub struct CutScratch {
    /// Component-discovery marks for the per-color rooting.
    comp_seen: StampSet,
    /// BFS visitation marks (rooting and escape search).
    visited: StampSet,
    /// Whether `parent_edge[v]` is valid in the current epoch.
    has_parent: StampSet,
    /// Parent edge of `v` in the current per-color tree / BFS forest.
    parent_edge: Vec<EdgeId>,
    /// BFS depth of `v`; valid only when `visited` holds `v`.
    depth: Vec<u32>,
    /// Edge membership in the current color class.
    in_class: StampSet,
    /// Eligible-edge membership for the current invocation.
    eligible: StampSet,
    /// Removed-edge membership for the current invocation.
    removed: StampSet,
    /// Flat BFS queue (head-indexed, never popped from the front).
    queue: Vec<VertexId>,
    /// Vertices of the component being rooted.
    component: Vec<VertexId>,
}

impl CutScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CutScratch::default()
    }

    fn ensure(&mut self, n: usize, m: usize) {
        self.comp_seen.resize(n);
        self.visited.resize(n);
        self.has_parent.resize(n);
        if self.parent_edge.len() < n {
            self.parent_edge.resize(n, EdgeId::new(0));
            self.depth.resize(n, 0);
        }
        self.in_class.resize(m);
        self.eligible.resize(m);
        self.removed.resize(m);
    }
}

/// Collects the full-graph scope lists for the wrapper entry points: all
/// core vertices, all view vertices, and every edge with at least one
/// endpoint in the view, each ascending.
fn full_scope<G: GraphView>(
    g: &G,
    core: &[bool],
    view: &[bool],
) -> (Vec<VertexId>, Vec<VertexId>, Vec<EdgeId>) {
    let core_vertices = g.vertices().filter(|v| core[v.index()]).collect();
    let view_vertices = g.vertices().filter(|v| view[v.index()]).collect();
    let edges = g
        .edges()
        .filter(|&(_, u, w)| view[u.index()] || view[w.index()])
        .map(|(e, _, _)| e)
        .collect();
    (core_vertices, view_vertices, edges)
}

/// Groups the scope edges accepted by `keep` by their color, in ascending
/// color order (deterministic iteration, unlike a hash map). `scope_edges`
/// is sorted, so each per-color list comes out ascending too.
fn edges_by_color_scoped<F>(
    coloring: &PartialEdgeColoring,
    scope_edges: &[EdgeId],
    keep: F,
) -> BTreeMap<Color, Vec<EdgeId>>
where
    F: Fn(EdgeId) -> bool,
{
    let mut by_color: BTreeMap<Color, Vec<EdgeId>> = BTreeMap::new();
    for &e in scope_edges {
        if let Some(c) = coloring.color(e) {
            if keep(e) {
                by_color.entry(c).or_default().push(e);
            }
        }
    }
    by_color
}

/// Checks goodness: no color class (over the non-removed colored edges)
/// connects a core vertex (`core[v]`) to a vertex outside the view
/// (`!view[v]`). All three sets are dense id-indexed masks.
pub fn is_good<G: GraphView>(
    g: &G,
    coloring: &PartialEdgeColoring,
    removed: &[bool],
    core: &[bool],
    view: &[bool],
) -> bool {
    let (core_vertices, view_vertices, edges) = full_scope(g, core, view);
    let scope = CutScope {
        core_vertices: &core_vertices,
        view_vertices: &view_vertices,
        edges: &edges,
    };
    let mut scratch = CutScratch::new();
    scratch.ensure(g.num_vertices(), g.num_edges());
    let mut removed_set = StampSet::new(g.num_edges());
    for (i, &r) in removed.iter().enumerate() {
        if r {
            removed_set.insert(i);
        }
    }
    find_escaping_path_scoped(g, coloring, &removed_set, core, view, &scope, &mut scratch).is_none()
}

/// Finds a monochromatic path from the core to a vertex outside the view, if
/// one exists, as a list of edge ids (ordered from the core outward).
///
/// Only edges in `scope.edges` participate; a color class with no
/// view-incident edges cannot carry an escape (the BFS from the core never
/// expands a vertex outside the view), so skipping it is exact.
fn find_escaping_path_scoped<G: GraphView>(
    g: &G,
    coloring: &PartialEdgeColoring,
    removed: &StampSet,
    core: &[bool],
    view: &[bool],
    scope: &CutScope,
    scratch: &mut CutScratch,
) -> Option<Vec<EdgeId>> {
    let by_color = edges_by_color_scoped(coloring, scope.edges, |e| !removed.contains(e.index()));
    for (_, edges) in by_color {
        scratch.in_class.clear();
        for &e in &edges {
            scratch.in_class.insert(e.index());
        }
        // Multi-source BFS from the core over this color class.
        scratch.visited.clear();
        scratch.has_parent.clear();
        scratch.queue.clear();
        for &c in scope.core_vertices {
            if scratch.visited.insert(c.index()) {
                scratch.queue.push(c);
            }
        }
        let mut escape = None;
        let mut head = 0;
        'bfs: while head < scratch.queue.len() {
            let u = scratch.queue[head];
            head += 1;
            for (w, e) in g.incidences(u) {
                if scratch.in_class.contains(e.index()) && scratch.visited.insert(w.index()) {
                    scratch.has_parent.insert(w.index());
                    scratch.parent_edge[w.index()] = e;
                    if !view[w.index()] {
                        escape = Some(w);
                        break 'bfs;
                    }
                    scratch.queue.push(w);
                }
            }
        }
        if let Some(w) = escape {
            // Reconstruct the path back to the core. `has_parent` is fresh
            // for exactly the vertices visited (beyond the core) this color,
            // so stale `parent_edge` entries are never read.
            let mut path = Vec::new();
            let mut cur = w;
            while scratch.has_parent.contains(cur.index()) {
                let pe = scratch.parent_edge[cur.index()];
                path.push(pe);
                cur = g.other_endpoint(pe, cur);
                if core[cur.index()] {
                    break;
                }
            }
            path.reverse();
            return Some(path);
        }
    }
    None
}

/// Executes `CUT(C', R)` for one cluster.
///
/// `core` is `C'`, `view` is `C''`, both as dense per-vertex masks (see
/// [`dense_mask`]); the colored edges inside the view but not inside the core
/// are eligible for removal. Removed edges are *not* cleared from `coloring`
/// here — the caller does that so it can also track the leftover set.
///
/// This whole-graph entry point scans `g` once to build the scope; hot
/// callers with many small clusters should build a [`CutScope`] per cluster
/// and call [`execute_cut_scoped`] with a shared [`CutScratch`] instead. Both
/// consume the RNG identically.
#[allow(clippy::too_many_arguments)] // mirrors the paper's CUT(C', R) signature
pub fn execute_cut<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    coloring: &PartialEdgeColoring,
    core: &[bool],
    view: &[bool],
    strategy: &CutStrategy,
    state: &mut CutState,
    force_good: bool,
    rng: &mut R,
) -> CutOutcome {
    let (core_vertices, view_vertices, edges) = full_scope(g, core, view);
    let scope = CutScope {
        core_vertices: &core_vertices,
        view_vertices: &view_vertices,
        edges: &edges,
    };
    let mut scratch = CutScratch::new();
    execute_cut_scoped(
        g,
        coloring,
        &scope,
        core,
        view,
        strategy,
        state,
        force_good,
        rng,
        &mut scratch,
    )
}

/// Ball-local `CUT(C', R)`: identical to [`execute_cut`] (same RNG
/// consumption, same outcome), but every scan is restricted to the
/// [`CutScope`] and all working memory comes from the caller's
/// [`CutScratch`]. `core` / `view` stay dense whole-graph masks — the caller
/// maintains them incrementally via its touched-vertex lists.
#[allow(clippy::too_many_arguments)] // mirrors the paper's CUT(C', R) signature
pub fn execute_cut_scoped<G: GraphView, R: Rng + ?Sized>(
    g: &G,
    coloring: &PartialEdgeColoring,
    scope: &CutScope,
    core: &[bool],
    view: &[bool],
    strategy: &CutStrategy,
    state: &mut CutState,
    force_good: bool,
    rng: &mut R,
    scratch: &mut CutScratch,
) -> CutOutcome {
    debug_assert!(scope.view_vertices.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(scope.core_vertices.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(scope.edges.windows(2).all(|w| w[0] < w[1]));
    scratch.ensure(g.num_vertices(), g.num_edges());
    // Eligible edges ascending (`scope.edges` is sorted and is a superset:
    // an eligible edge has both endpoints in the view, is colored, and
    // leaves the core).
    let mut eligible: Vec<EdgeId> = Vec::new();
    kernels::select_edges_masked(
        scope.edges.iter().map(|&e| {
            let (u, v) = g.endpoints(e);
            (e, u.index(), v.index())
        }),
        view,
        core,
        |e| coloring.color(e).is_some(),
        &mut eligible,
    );
    scratch.eligible.clear();
    for &e in &eligible {
        scratch.eligible.insert(e.index());
    }
    let mut removed: Vec<EdgeId> = Vec::new();
    match strategy {
        CutStrategy::DepthModulo { levels } => {
            let levels = (*levels).max(1);
            // Group eligible edges by color, ascending — the per-color RNG
            // draws below happen in a deterministic order.
            let by_color = edges_by_color_scoped(coloring, scope.edges, |e| {
                scratch.eligible.contains(e.index())
            });
            for (_, edges) in by_color {
                scratch.in_class.clear();
                for &e in &edges {
                    scratch.in_class.insert(e.index());
                }
                // Root the per-color forest, preferring roots inside the core
                // so that depth measures the distance leaving the cluster.
                // In-class edges have both endpoints in the view, so every
                // non-trivial component lies inside `scope.view_vertices`.
                scratch.comp_seen.clear();
                scratch.visited.clear();
                scratch.has_parent.clear();
                for &start in scope.view_vertices {
                    if scratch.comp_seen.contains(start.index()) {
                        continue;
                    }
                    scratch.component.clear();
                    scratch.queue.clear();
                    scratch.comp_seen.insert(start.index());
                    scratch.queue.push(start);
                    let mut head = 0;
                    while head < scratch.queue.len() {
                        let u = scratch.queue[head];
                        head += 1;
                        scratch.component.push(u);
                        for (w, e) in g.incidences(u) {
                            if scratch.in_class.contains(e.index())
                                && scratch.comp_seen.insert(w.index())
                            {
                                scratch.queue.push(w);
                            }
                        }
                    }
                    // Root at the least core vertex, else the least vertex:
                    // minimize (not-in-core, vertex id) over the component.
                    // A component without core vertices gets the rooting
                    // kernel's rule (`forest_graph::decomposition`).
                    let root = scratch
                        .component
                        .iter()
                        .copied()
                        .min_by_key(|&v| (usize::from(!core[v.index()]), v))
                        .expect("component is non-empty");
                    scratch.queue.clear();
                    scratch.visited.insert(root.index());
                    scratch.depth[root.index()] = 0;
                    scratch.queue.push(root);
                    head = 0;
                    while head < scratch.queue.len() {
                        let u = scratch.queue[head];
                        head += 1;
                        for (w, e) in g.incidences(u) {
                            if scratch.in_class.contains(e.index())
                                && scratch.visited.insert(w.index())
                            {
                                scratch.has_parent.insert(w.index());
                                scratch.parent_edge[w.index()] = e;
                                scratch.depth[w.index()] = scratch.depth[u.index()] + 1;
                                scratch.queue.push(w);
                            }
                        }
                    }
                }
                let offset = rng.gen_range(0..levels);
                // Only view vertices can carry an in-class parent edge, so
                // walking the sorted view list visits the same vertices in
                // the same order as a whole-graph scan.
                for &v in scope.view_vertices {
                    if scratch.has_parent.contains(v.index())
                        && scratch.depth[v.index()] as usize % levels == offset
                    {
                        removed.push(scratch.parent_edge[v.index()]);
                        // The deleted edge is charged to (oriented away
                        // from) the child vertex v.
                        state.load[v.index()] += 1;
                    }
                }
            }
        }
        CutStrategy::ConditionedSampling {
            probability,
            load_cap,
        } => {
            // Take (not clone) the orientation: `J` is fixed for the whole
            // run and cloning it per cluster would dominate small clusters.
            let orientation = state
                .orientation
                .take()
                .expect("conditioned sampling requires a fixed orientation in CutState");
            let p = probability.clamp(0.0, 1.0);
            for &v in scope.view_vertices {
                if core[v.index()] {
                    continue;
                }
                if state.load[v.index()] >= *load_cap {
                    continue;
                }
                if !rng.gen_bool(p) {
                    continue;
                }
                let candidates: Vec<EdgeId> = orientation
                    .out_edges(g, v)
                    .into_iter()
                    .filter(|e| scratch.eligible.contains(e.index()))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let pick = candidates[rng.gen_range(0..candidates.len())];
                removed.push(pick);
                state.load[v.index()] += 1;
            }
            state.orientation = Some(orientation);
        }
    }
    removed.sort_unstable();
    removed.dedup();
    // The removed set is pulled out of the scratch so the escape search can
    // borrow the rest of the scratch mutably alongside it.
    let mut removed_set = std::mem::replace(&mut scratch.removed, StampSet::new(0));
    removed_set.clear();
    for &e in &removed {
        removed_set.insert(e.index());
    }
    let good =
        find_escaping_path_scoped(g, coloring, &removed_set, core, view, scope, scratch).is_none();
    let mut forced = Vec::new();
    if force_good && !good {
        // Deterministic completion: repeatedly cut a surviving escape path at
        // an eligible edge whose charged vertex has minimum load.
        let limit = eligible.len() + 1;
        for _ in 0..limit {
            let Some(path) =
                find_escaping_path_scoped(g, coloring, &removed_set, core, view, scope, scratch)
            else {
                break;
            };
            let candidate = path
                .iter()
                .copied()
                .filter(|&e| {
                    scratch.eligible.contains(e.index()) && !removed_set.contains(e.index())
                })
                .min_by_key(|&e| {
                    let (u, v) = g.endpoints(e);
                    state.load[u.index()].min(state.load[v.index()])
                });
            let Some(e) = candidate else {
                // Every edge of the path lies inside the core (should not
                // happen); give up rather than loop.
                break;
            };
            let (u, v) = g.endpoints(e);
            let charged = if state.load[u.index()] <= state.load[v.index()] {
                u
            } else {
                v
            };
            state.load[charged.index()] += 1;
            removed_set.insert(e.index());
            forced.push(e);
        }
    }
    scratch.removed = removed_set;
    CutOutcome {
        removed,
        good,
        forced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::orientation::min_max_outdegree_orientation;
    use forest_graph::{generators, CsrGraph, MultiGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A long path colored entirely with one color, core = first two
    /// vertices, view = first `view_len` vertices.
    fn long_path_setup(
        n: usize,
        view_len: usize,
    ) -> (MultiGraph, PartialEdgeColoring, Vec<bool>, Vec<bool>) {
        let g = generators::path(n);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for e in g.edge_ids() {
            coloring.set(e, Color::new(0));
        }
        let core = dense_mask(n, (0..2).map(VertexId::new));
        let view = dense_mask(n, (0..view_len).map(VertexId::new));
        (g, coloring, core, view)
    }

    #[test]
    fn ungood_configuration_is_detected() {
        let (g, coloring, core, view) = long_path_setup(30, 10);
        let none = vec![false; g.num_edges()];
        assert!(!is_good(&g, &coloring, &none, &core, &view));
        // Removing the edge that leaves the view restores goodness.
        let removed = dense_mask(g.num_edges(), [EdgeId::new(9)]);
        assert!(is_good(&g, &coloring, &removed, &core, &view));
    }

    #[test]
    fn depth_modulo_cut_disconnects_core_from_outside() {
        let (g, coloring, core, view) = long_path_setup(40, 12);
        let mut state = CutState::new(g.num_vertices());
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = execute_cut(
            &g,
            &coloring,
            &core,
            &view,
            &CutStrategy::DepthModulo { levels: 4 },
            &mut state,
            false,
            &mut rng,
        );
        // levels = 4 <= R/2 for the implied R = 10, so the cut is always good.
        assert!(outcome.good);
        assert!(outcome.forced.is_empty());
        let removed = dense_mask(g.num_edges(), outcome.all_removed());
        assert!(is_good(&g, &coloring, &removed, &core, &view));
        // Only eligible (outside-core, inside-view) edges were touched.
        for e in &outcome.removed {
            let (u, v) = g.endpoints(*e);
            assert!(view[u.index()] && view[v.index()]);
            assert!(!(core[u.index()] && core[v.index()]));
        }
    }

    #[test]
    fn depth_modulo_load_stays_bounded() {
        let (g, coloring, core, view) = long_path_setup(60, 20);
        let mut state = CutState::new(g.num_vertices());
        let mut rng = StdRng::seed_from_u64(6);
        execute_cut(
            &g,
            &coloring,
            &core,
            &view,
            &CutStrategy::DepthModulo { levels: 5 },
            &mut state,
            false,
            &mut rng,
        );
        // One color and one invocation: every vertex loses at most one parent
        // edge.
        assert!(state.max_load() <= 1);
    }

    #[test]
    fn conditioned_sampling_respects_load_cap() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::planted_forest_union(40, 3, &mut rng);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for e in g.edge_ids() {
            coloring.set(e, Color::new(e.index() % 3));
        }
        let (orientation, _) = min_max_outdegree_orientation(&g);
        let mut state = CutState::with_orientation(g.num_vertices(), orientation);
        let core = dense_mask(g.num_vertices(), (0..3).map(VertexId::new));
        let view = vec![true; g.num_vertices()];
        for _ in 0..20 {
            execute_cut(
                &g,
                &coloring,
                &core,
                &view,
                &CutStrategy::ConditionedSampling {
                    probability: 0.9,
                    load_cap: 2,
                },
                &mut state,
                false,
                &mut rng,
            );
        }
        assert!(
            state.max_load() <= 2,
            "load cap violated: {}",
            state.max_load()
        );
    }

    #[test]
    fn force_good_completes_a_weak_random_cut() {
        let (g, coloring, core, view) = long_path_setup(50, 15);
        let (orientation, _) = min_max_outdegree_orientation(&g);
        let mut state = CutState::with_orientation(g.num_vertices(), orientation);
        let mut rng = StdRng::seed_from_u64(11);
        let outcome = execute_cut(
            &g,
            &coloring,
            &core,
            &view,
            &CutStrategy::ConditionedSampling {
                probability: 0.05,
                load_cap: 1,
            },
            &mut state,
            true,
            &mut rng,
        );
        let removed = dense_mask(g.num_edges(), outcome.all_removed());
        assert!(is_good(&g, &coloring, &removed, &core, &view));
    }

    #[test]
    fn cut_ignores_uncolored_edges() {
        let (g, mut coloring, core, view) = long_path_setup(30, 10);
        // Uncolor everything: nothing is eligible and nothing can escape.
        for e in g.edge_ids() {
            coloring.clear(e);
        }
        let mut state = CutState::new(g.num_vertices());
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = execute_cut(
            &g,
            &coloring,
            &core,
            &view,
            &CutStrategy::DepthModulo { levels: 3 },
            &mut state,
            true,
            &mut rng,
        );
        assert!(outcome.removed.is_empty());
        assert!(outcome.good);
    }

    #[test]
    fn multi_color_paths_are_all_cut() {
        // Two interleaved colors along a path; both must be disconnected.
        let g = generators::path(40);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for e in g.edge_ids() {
            coloring.set(e, Color::new(e.index() % 2));
        }
        let core = dense_mask(g.num_vertices(), (0..2).map(VertexId::new));
        let view = dense_mask(g.num_vertices(), (0..14).map(VertexId::new));
        let mut state = CutState::new(g.num_vertices());
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = execute_cut(
            &g,
            &coloring,
            &core,
            &view,
            &CutStrategy::DepthModulo { levels: 3 },
            &mut state,
            true,
            &mut rng,
        );
        let removed = dense_mask(g.num_edges(), outcome.all_removed());
        assert!(is_good(&g, &coloring, &removed, &core, &view));
    }

    #[test]
    fn same_seed_same_removals_across_runs_and_representations() {
        // Regression for the old HashMap-ordered color iteration: the RNG
        // draws per color must happen in a fixed order.
        let g = generators::fat_path(60, 3);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for e in g.edge_ids() {
            coloring.set(e, Color::new(e.index() % 3));
        }
        let core = dense_mask(g.num_vertices(), (0..3).map(VertexId::new));
        let view = dense_mask(g.num_vertices(), (0..20).map(VertexId::new));
        let csr = CsrGraph::from_multigraph(&g);
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let mut state = CutState::new(g.num_vertices());
            let mut rng = StdRng::seed_from_u64(77);
            outcomes.push(execute_cut(
                &g,
                &coloring,
                &core,
                &view,
                &CutStrategy::DepthModulo { levels: 4 },
                &mut state,
                true,
                &mut rng,
            ));
        }
        let mut state = CutState::new(g.num_vertices());
        let mut rng = StdRng::seed_from_u64(77);
        outcomes.push(execute_cut(
            &csr,
            &coloring,
            &core,
            &view,
            &CutStrategy::DepthModulo { levels: 4 },
            &mut state,
            true,
            &mut rng,
        ));
        assert_eq!(outcomes[0], outcomes[1], "same seed must repeat exactly");
        assert_eq!(outcomes[0], outcomes[2], "CSR must match MultiGraph");
    }
}
