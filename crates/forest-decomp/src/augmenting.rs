//! Augmenting sequences for list-forest decomposition (Section 3).
//!
//! Given a partial list-forest decomposition `ψ` and an uncolored edge `e`,
//! an *augmenting sequence* `P = (e₁,c₁, .., e_ℓ,c_ℓ)` satisfies (A1)–(A5) of
//! the paper; applying it colors `e₁ = e` while keeping every color class a
//! forest (Lemma 3.1). Theorem 3.2 shows that when every palette has
//! `(1+ε)α` colors, such a sequence exists within the `O(log n / ε)`
//! neighborhood of `e`; Algorithm 1 finds an *almost* augmenting sequence
//! (possibly violating (A3)) by breadth-first growth of an edge set `E_i`,
//! and Proposition 3.4 short-circuits it into a genuine augmenting sequence.
//!
//! The search is generic over [`GraphView`], so Algorithm 2 can run it over a
//! frozen [`CsrGraph`](forest_graph::CsrGraph); its working state is dense
//! (`Vec`s indexed by edge/vertex id, with the edge set `E_i` kept in
//! insertion order), so growth is allocation-light and deterministic.

use crate::error::FdError;
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::traversal::path_between;
use forest_graph::{Color, EdgeId, GraphView, ListAssignment, MultiGraph};

/// The per-color union-find connectivity cache, now shared workspace-wide
/// (the matroid partition and shard-boundary stitching use the same
/// structure). Re-exported here because the augmenting search is its primary
/// consumer and its original home.
pub use forest_graph::connectivity::ColorConnectivity;

/// One augmenting sequence: the ordered `(edge, color)` steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AugmentingSequence {
    /// The `(e_i, c_i)` steps, starting with the uncolored edge.
    pub steps: Vec<(EdgeId, Color)>,
}

impl AugmentingSequence {
    /// Length `ℓ` of the sequence.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the sequence has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Dense working state of one Algorithm 1 growth: the edge set `E_i` as a
/// membership mask plus insertion-ordered list, the set of vertices touched
/// by `E_i` (for O(1) adjacency tests), and the parent pointers.
struct GrowthState {
    in_set: Vec<bool>,
    ordered: Vec<EdgeId>,
    touched: Vec<bool>,
    parent: Vec<Option<EdgeId>>,
}

impl GrowthState {
    fn new<G: GraphView>(g: &G, start: EdgeId) -> Self {
        let mut state = GrowthState {
            in_set: vec![false; g.num_edges()],
            ordered: Vec::new(),
            touched: vec![false; g.num_vertices()],
            parent: vec![None; g.num_edges()],
        };
        state.insert(g, start, None);
        state
    }

    fn insert<G: GraphView>(&mut self, g: &G, e: EdgeId, parent: Option<EdgeId>) {
        self.in_set[e.index()] = true;
        self.ordered.push(e);
        self.parent[e.index()] = parent;
        let (u, v) = g.endpoints(e);
        self.touched[u.index()] = true;
        self.touched[v.index()] = true;
    }

    fn len(&self) -> usize {
        self.ordered.len()
    }
}

/// The search context: the graph, the palettes and an optional restriction of
/// the search to a subset of edges (used by Algorithm 2 to stay inside a
/// cluster's view `C''`).
#[derive(Clone, Copy)]
pub struct AugmentationContext<'a, G: GraphView = MultiGraph> {
    /// The underlying graph topology.
    pub graph: &'a G,
    /// The per-edge palettes.
    pub lists: &'a ListAssignment,
    /// If set, only the edges whose mask entry is `true` may participate in
    /// the search (both as sequence elements and as path edges).
    pub allowed: Option<&'a [bool]>,
}

impl<'a, G: GraphView> AugmentationContext<'a, G> {
    /// Context over the whole graph.
    pub fn new(graph: &'a G, lists: &'a ListAssignment) -> Self {
        AugmentationContext {
            graph,
            lists,
            allowed: None,
        }
    }

    /// Context restricted to the edges whose entry in the dense `allowed`
    /// mask (indexed by edge id) is `true`.
    pub fn restricted(graph: &'a G, lists: &'a ListAssignment, allowed: &'a [bool]) -> Self {
        AugmentationContext {
            graph,
            lists,
            allowed: Some(allowed),
        }
    }

    fn edge_allowed(&self, e: EdgeId) -> bool {
        self.allowed.is_none_or(|mask| mask[e.index()])
    }

    /// `C(e, c)`: the unique path between the endpoints of `e` in the
    /// color-`c` forest (not using `e` itself), or `None` if the endpoints
    /// are disconnected in that forest.
    pub fn color_path(
        &self,
        coloring: &PartialEdgeColoring,
        e: EdgeId,
        c: Color,
    ) -> Option<Vec<EdgeId>> {
        let (u, v) = self.graph.endpoints(e);
        path_between(self.graph, u, v, |x| {
            x != e && coloring.color(x) == Some(c) && self.edge_allowed(x)
        })
    }

    /// Finds an *almost* augmenting sequence from the uncolored edge `start`
    /// (Algorithm 1): it satisfies (A1), (A2), (A4), (A5) but possibly not
    /// (A3). Returns `None` if no sequence is found within `max_iterations`
    /// growth iterations.
    ///
    /// # Panics
    ///
    /// Panics if `start` is already colored.
    fn find_almost_augmenting_sequence(
        &self,
        coloring: &PartialEdgeColoring,
        start: EdgeId,
        max_iterations: usize,
    ) -> Option<AugmentingSequence> {
        assert!(
            coloring.color(start).is_none(),
            "augmenting sequences start at an uncolored edge"
        );
        let g = self.graph;
        let mut state = GrowthState::new(g, start);
        let build_sequence = |terminal: EdgeId,
                              terminal_color: Color,
                              state: &GrowthState,
                              coloring: &PartialEdgeColoring|
         -> AugmentingSequence {
            let mut steps = vec![(terminal, terminal_color)];
            let mut cur = terminal;
            while cur != start {
                let p = state.parent[cur.index()].expect("parents chain back to the start edge");
                let color_of_cur = coloring
                    .color(cur)
                    .expect("every non-start sequence edge is colored");
                steps.push((p, color_of_cur));
                cur = p;
            }
            steps.reverse();
            AugmentingSequence { steps }
        };
        for _ in 0..max_iterations {
            // E_i is state.ordered[..frontier_len]; adjacency tests run
            // against E_i's endpoints as of the start of the iteration.
            let frontier_len = state.len();
            let touched_snapshot = state.touched.clone();
            for snapshot_index in 0..frontier_len {
                let e = state.ordered[snapshot_index];
                for &c in self.lists.palette(e) {
                    if coloring.color(e) == Some(c) {
                        continue;
                    }
                    match self.color_path(coloring, e, c) {
                        None => {
                            // C(e, c) is empty: almost augmenting sequence found.
                            return Some(build_sequence(e, c, &state, coloring));
                        }
                        Some(path) => {
                            for x in path {
                                if state.in_set[x.index()] || !self.edge_allowed(x) {
                                    continue;
                                }
                                // Only edges adjacent to the current edge set
                                // E_i join E_{i+1} (Algorithm 1, line 7).
                                let (u, v) = g.endpoints(x);
                                if touched_snapshot[u.index()] || touched_snapshot[v.index()] {
                                    state.insert(g, x, Some(e));
                                }
                            }
                        }
                    }
                }
            }
            if state.len() == frontier_len {
                // No growth: with valid preconditions this cannot happen
                // before termination; bail out to avoid looping forever.
                return None;
            }
        }
        None
    }

    /// Records the size of the growing edge set `E_i` of Algorithm 1 for each
    /// iteration until an almost augmenting sequence is found (or the
    /// iteration cap is hit). Used by the benchmark harness to reproduce the
    /// `(1+ε)` growth behaviour illustrated in Figure 2 of the paper.
    pub fn growth_trace(
        &self,
        coloring: &PartialEdgeColoring,
        start: EdgeId,
        max_iterations: usize,
    ) -> Vec<usize> {
        assert!(coloring.color(start).is_none());
        let g = self.graph;
        let mut state = GrowthState::new(g, start);
        let mut trace = vec![state.len()];
        for _ in 0..max_iterations {
            let frontier_len = state.len();
            let touched_snapshot = state.touched.clone();
            let mut terminated = false;
            for snapshot_index in 0..frontier_len {
                let e = state.ordered[snapshot_index];
                for &c in self.lists.palette(e) {
                    if coloring.color(e) == Some(c) {
                        continue;
                    }
                    match self.color_path(coloring, e, c) {
                        None => {
                            terminated = true;
                        }
                        Some(path) => {
                            for x in path {
                                if !state.in_set[x.index()] && self.edge_allowed(x) {
                                    let (u, v) = g.endpoints(x);
                                    if touched_snapshot[u.index()] || touched_snapshot[v.index()] {
                                        state.insert(g, x, Some(e));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if terminated || state.len() == frontier_len {
                break;
            }
            trace.push(state.len());
        }
        trace
    }

    /// Proposition 3.4: short-circuits an almost augmenting sequence into a
    /// genuine augmenting sequence (restoring property (A3)) by repeatedly
    /// splicing out detours.
    fn short_circuit(
        &self,
        coloring: &PartialEdgeColoring,
        sequence: AugmentingSequence,
    ) -> AugmentingSequence {
        let mut steps = sequence.steps;
        'outer: loop {
            for i in 2..steps.len() {
                for j in 0..i.saturating_sub(1) {
                    let (ej, cj) = steps[j];
                    let (ei, _) = steps[i];
                    if let Some(path) = self.color_path(coloring, ej, cj) {
                        if path.contains(&ei) {
                            // Splice: keep 0..=j, then continue from i.
                            let mut new_steps = steps[..=j].to_vec();
                            new_steps.extend_from_slice(&steps[i..]);
                            steps = new_steps;
                            continue 'outer;
                        }
                    }
                }
            }
            break;
        }
        AugmentingSequence { steps }
    }

    /// Finds a genuine augmenting sequence from the uncolored edge `start`
    /// (Algorithm 1 followed by Proposition 3.4).
    pub fn find_augmenting_sequence(
        &self,
        coloring: &PartialEdgeColoring,
        start: EdgeId,
        max_iterations: usize,
    ) -> Option<AugmentingSequence> {
        let almost = self.find_almost_augmenting_sequence(coloring, start, max_iterations)?;
        Some(self.short_circuit(coloring, almost))
    }

    /// Checks properties (A1)–(A5) of an augmenting sequence with respect to
    /// the current coloring.
    pub fn is_valid_augmenting_sequence(
        &self,
        coloring: &PartialEdgeColoring,
        sequence: &AugmentingSequence,
    ) -> bool {
        let steps = &sequence.steps;
        if steps.is_empty() {
            return false;
        }
        // (A1) the first edge is uncolored.
        if coloring.color(steps[0].0).is_some() {
            return false;
        }
        // (A5) every color comes from the edge's palette.
        if steps.iter().any(|&(e, c)| !self.lists.contains(e, c)) {
            return false;
        }
        // (A2) e_i lies on C(e_{i-1}, c_{i-1}).
        for i in 1..steps.len() {
            let (prev_e, prev_c) = steps[i - 1];
            match self.color_path(coloring, prev_e, prev_c) {
                Some(path) if path.contains(&steps[i].0) => {}
                _ => return false,
            }
        }
        // (A3) e_i does not lie on C(e_j, c_j) for j < i - 1.
        for i in 2..steps.len() {
            for j in 0..i - 1 {
                let (ej, cj) = steps[j];
                if let Some(path) = self.color_path(coloring, ej, cj) {
                    if path.contains(&steps[i].0) {
                        return false;
                    }
                }
            }
        }
        // (A4) the last step closes no cycle.
        let (last_e, last_c) = *steps.last().expect("non-empty sequence");
        self.color_path(coloring, last_e, last_c).is_none()
    }

    /// Colors one uncolored edge by finding and applying an augmenting
    /// sequence.
    ///
    /// # Errors
    ///
    /// Returns [`FdError::AugmentationFailed`] if no augmenting sequence is
    /// found within `max_iterations` iterations (which indicates the palettes
    /// are too small for the graph's arboricity or the restriction is too
    /// tight).
    pub fn augment_edge(
        &self,
        coloring: &mut PartialEdgeColoring,
        start: EdgeId,
        max_iterations: usize,
    ) -> Result<AugmentingSequence, FdError> {
        let sequence = self
            .find_augmenting_sequence(coloring, start, max_iterations)
            .ok_or(FdError::AugmentationFailed { edge: start })?;
        apply_augmentation(coloring, &sequence);
        Ok(sequence)
    }

    /// [`AugmentationContext::augment_edge`] with a connectivity fast path:
    /// when some palette color's forest keeps the endpoints of `start` apart
    /// (the common case), the single-step sequence is found with a union-find
    /// query instead of a breadth-first growth — the applied sequence is
    /// identical to what the full search would return. Nothing is returned
    /// on success, so the fast path allocates nothing.
    ///
    /// `conn` must have been created for this context's `(coloring, allowed)`
    /// evolution and is kept consistent across calls.
    ///
    /// Kept out of line: inlined into Algorithm 2's loops it changed the
    /// code layout of the network decomposition of `G^{2(R+R')}`, which
    /// slowed the `cold_mesh` benchmark op by about 4% (release build,
    /// 2-core x86-64 host) although this function is under 1% of that op.
    ///
    /// # Errors
    ///
    /// Same as [`AugmentationContext::augment_edge`].
    #[inline(never)]
    pub fn augment_edge_connected(
        &self,
        coloring: &mut PartialEdgeColoring,
        conn: &mut ColorConnectivity,
        start: EdgeId,
        max_iterations: usize,
    ) -> Result<(), FdError> {
        assert!(
            coloring.color(start).is_none(),
            "augmenting sequences start at an uncolored edge"
        );
        let (u, v) = self.graph.endpoints(start);
        let allowed = |e: EdgeId| self.edge_allowed(e);
        let filter: Option<&dyn Fn(EdgeId) -> bool> = Some(&allowed);
        // Fast path: the slow search's first growth iteration returns the
        // single step (start, c) for the first palette color c with no path
        // between the endpoints — exactly the first disconnected forest.
        for &c in self.lists.palette(start) {
            if coloring.color(start) == Some(c) {
                continue;
            }
            if !conn.connected(self.graph, coloring, filter, c, u, v) {
                coloring.set(start, c);
                conn.insert(c, u, v);
                return Ok(());
            }
        }
        // Every palette color is blocked: run the full search and invalidate
        // whatever the applied sequence recolored.
        let sequence = self
            .find_augmenting_sequence(coloring, start, max_iterations)
            .ok_or(FdError::AugmentationFailed { edge: start })?;
        for &(e, c) in &sequence.steps {
            if let Some(old) = coloring.color(e) {
                conn.invalidate(old);
            }
            conn.invalidate(c);
        }
        apply_augmentation(coloring, &sequence);
        Ok(())
    }
}

/// Applies an augmenting sequence: `ψ'(e_i) = c_i` for every step.
pub fn apply_augmentation(coloring: &mut PartialEdgeColoring, sequence: &AugmentingSequence) {
    for &(e, c) in &sequence.steps {
        coloring.set(e, c);
    }
}

/// Colors every uncolored edge of the graph by repeated augmentation
/// (the centralized use of Section 3, also the engine behind Algorithm 2's
/// per-cluster step). Edges are processed in ascending id order.
///
/// # Errors
///
/// Returns [`FdError::AugmentationFailed`] if some edge cannot be colored.
pub fn complete_by_augmentation<G: GraphView>(
    g: &G,
    lists: &ListAssignment,
    coloring: &mut PartialEdgeColoring,
    max_iterations: usize,
) -> Result<usize, FdError> {
    let ctx = AugmentationContext::new(g, lists);
    let mut conn = ColorConnectivity::new(g.num_vertices());
    let mut augmentations = 0usize;
    for e in coloring.uncolored_edges() {
        if coloring.color(e).is_some() {
            continue;
        }
        ctx.augment_edge_connected(coloring, &mut conn, e, max_iterations)?;
        augmentations += 1;
    }
    Ok(augmentations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{
        validate_list_coloring, validate_partial_forest_decomposition,
    };
    use forest_graph::{generators, matroid, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Number of growth iterations comfortably above the `O(log n / ε)` bound
    /// for the small test graphs.
    const ITER: usize = 200;

    #[test]
    fn color_path_identifies_unique_forest_path() {
        // Path 0-1-2-3 all color 0, plus an uncolored chord 0-3.
        let mut g = generators::path(4);
        let chord = g
            .add_edge(
                forest_graph::VertexId::new(0),
                forest_graph::VertexId::new(3),
            )
            .unwrap();
        let lists = ListAssignment::uniform(g.num_edges(), 2);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        for i in 0..3 {
            coloring.set(EdgeId::new(i), Color::new(0));
        }
        let ctx = AugmentationContext::new(&g, &lists);
        let path = ctx.color_path(&coloring, chord, Color::new(0)).unwrap();
        assert_eq!(path.len(), 3);
        assert!(ctx.color_path(&coloring, chord, Color::new(1)).is_none());
    }

    #[test]
    fn augmenting_a_single_uncolored_edge_on_a_cycle() {
        // A triangle with 2 colors: color edges 0,1 with color 0; edge 2 is
        // uncolored. Directly coloring it with color 0 closes a cycle, so the
        // augmentation must either use color 1 or recolor along the way.
        let g = generators::cycle(3);
        let lists = ListAssignment::uniform(3, 2);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        coloring.set(EdgeId::new(0), Color::new(0));
        coloring.set(EdgeId::new(1), Color::new(0));
        let ctx = AugmentationContext::new(&g, &lists);
        let seq = ctx
            .find_augmenting_sequence(&coloring, EdgeId::new(2), ITER)
            .expect("sequence exists");
        assert!(ctx.is_valid_augmenting_sequence(&coloring, &seq));
        apply_augmentation(&mut coloring, &seq);
        assert!(coloring.is_complete());
        validate_partial_forest_decomposition(&g, &coloring).expect("still a forest per color");
        validate_list_coloring(&g, &coloring, &lists).expect("respects palettes");
    }

    #[test]
    fn augmentation_preserves_partial_forest_property() {
        // Random multigraph with planted arboricity 3 and palettes of size 4:
        // color edges one at a time and validate after every augmentation
        // (Lemma 3.1).
        let mut rng = StdRng::seed_from_u64(42);
        let g = generators::planted_forest_union(24, 3, &mut rng);
        let alpha = matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), alpha + 1);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        let ctx = AugmentationContext::new(&g, &lists);
        for e in g.edge_ids() {
            if coloring.color(e).is_some() {
                continue;
            }
            let seq = ctx
                .find_augmenting_sequence(&coloring, e, ITER)
                .expect("sequence exists with alpha+1 palettes");
            assert!(ctx.is_valid_augmenting_sequence(&coloring, &seq));
            apply_augmentation(&mut coloring, &seq);
            validate_partial_forest_decomposition(&g, &coloring)
                .expect("forest property preserved after every augmentation");
        }
        assert!(coloring.is_complete());
        validate_list_coloring(&g, &coloring, &lists).expect("respects palettes");
    }

    #[test]
    fn complete_by_augmentation_colors_everything() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::planted_forest_union(30, 2, &mut rng);
        let alpha = matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), alpha + 1);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        let augmentations =
            complete_by_augmentation(&g, &lists, &mut coloring, ITER).expect("completes");
        assert_eq!(augmentations, g.num_edges());
        assert!(coloring.is_complete());
        validate_partial_forest_decomposition(&g, &coloring).expect("valid LFD");
    }

    #[test]
    fn complete_by_augmentation_with_random_palettes() {
        // List version: random palettes of size alpha+2 from a larger space.
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::planted_forest_union(20, 2, &mut rng);
        let alpha = matroid::arboricity(&g);
        let lists = ListAssignment::random(g.num_edges(), 2 * (alpha + 2), alpha + 2, &mut rng);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        complete_by_augmentation(&g, &lists, &mut coloring, ITER).expect("completes");
        validate_partial_forest_decomposition(&g, &coloring).expect("valid LFD");
        validate_list_coloring(&g, &coloring, &lists).expect("respects palettes");
    }

    #[test]
    fn csr_and_multigraph_find_identical_sequences() {
        // The dense search is deterministic and representation-independent:
        // the same coloring state yields the same sequence on both layouts.
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::planted_forest_union(28, 3, &mut rng);
        let alpha = matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), alpha + 1);
        let csr = CsrGraph::from_multigraph(&g);
        let mut c_mg = PartialEdgeColoring::new_uncolored(g.num_edges());
        let mut c_csr = c_mg.clone();
        let ctx_mg = AugmentationContext::new(&g, &lists);
        let ctx_csr = AugmentationContext::new(&csr, &lists);
        for e in g.edge_ids() {
            if c_mg.color(e).is_none() {
                let a = ctx_mg.augment_edge(&mut c_mg, e, ITER).unwrap();
                let b = ctx_csr.augment_edge(&mut c_csr, e, ITER).unwrap();
                assert_eq!(a, b);
            }
        }
        assert_eq!(c_mg, c_csr);
    }

    #[test]
    fn augmentation_fails_gracefully_when_palettes_too_small() {
        // A fat path with multiplicity 3 cannot be list-forest-decomposed
        // with 2 colors; the search must give up rather than loop.
        let g = generators::fat_path(4, 3);
        let lists = ListAssignment::uniform(g.num_edges(), 2);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        let result = complete_by_augmentation(&g, &lists, &mut coloring, 50);
        assert!(matches!(result, Err(FdError::AugmentationFailed { .. })));
    }

    #[test]
    fn restricted_context_stays_inside_allowed_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::planted_forest_union(16, 2, &mut rng);
        let lists = ListAssignment::uniform(g.num_edges(), 4);
        let coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        let mut allowed = vec![false; g.num_edges()];
        for e in g.edge_ids().take(g.num_edges() / 2) {
            allowed[e.index()] = true;
        }
        let start = EdgeId::new(0);
        let ctx = AugmentationContext::restricted(&g, &lists, &allowed);
        if let Some(seq) = ctx.find_augmenting_sequence(&coloring, start, ITER) {
            assert!(seq.steps.iter().all(|&(e, _)| allowed[e.index()]));
        }
    }

    #[test]
    fn sequence_on_uncolored_graph_is_single_step() {
        // With an entirely uncolored graph, the first color examined has an
        // empty forest, so the sequence is the single step (e, c).
        let g = generators::cycle(4);
        let lists = ListAssignment::uniform(4, 2);
        let coloring = PartialEdgeColoring::new_uncolored(4);
        let ctx = AugmentationContext::new(&g, &lists);
        let seq = ctx
            .find_augmenting_sequence(&coloring, EdgeId::new(0), ITER)
            .unwrap();
        assert_eq!(seq.len(), 1);
        assert!(ctx.is_valid_augmenting_sequence(&coloring, &seq));
    }

    #[test]
    fn validity_check_rejects_bad_sequences() {
        let g = generators::cycle(3);
        let lists = ListAssignment::uniform(3, 2);
        let mut coloring = PartialEdgeColoring::new_uncolored(3);
        coloring.set(EdgeId::new(0), Color::new(0));
        let ctx = AugmentationContext::new(&g, &lists);
        // Starting at a colored edge violates (A1).
        let bad = AugmentingSequence {
            steps: vec![(EdgeId::new(0), Color::new(1))],
        };
        assert!(!ctx.is_valid_augmenting_sequence(&coloring, &bad));
        // A color outside the palette violates (A5).
        let bad = AugmentingSequence {
            steps: vec![(EdgeId::new(2), Color::new(9))],
        };
        assert!(!ctx.is_valid_augmenting_sequence(&coloring, &bad));
        // Empty sequences are rejected.
        let bad = AugmentingSequence { steps: vec![] };
        assert!(!ctx.is_valid_augmenting_sequence(&coloring, &bad));
    }

    #[test]
    fn sequence_lengths_stay_local() {
        // Theorem 3.2: the augmenting sequence stays within an O(log n / eps)
        // radius. We check the much weaker but concrete property that the
        // sequences on a planted graph with one extra color stay short.
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::planted_forest_union(40, 3, &mut rng);
        let alpha = matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), alpha + 2);
        let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
        let ctx = AugmentationContext::new(&g, &lists);
        let mut max_len = 0usize;
        for e in g.edge_ids() {
            if coloring.color(e).is_some() {
                continue;
            }
            let seq = ctx.find_augmenting_sequence(&coloring, e, ITER).unwrap();
            max_len = max_len.max(seq.len());
            apply_augmentation(&mut coloring, &seq);
        }
        assert!(max_len <= 30, "augmenting sequences too long: {max_len}");
    }
}
