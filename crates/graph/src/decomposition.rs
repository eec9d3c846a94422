//! Edge colorings, forest decompositions and their validation.
//!
//! A *k-forest decomposition* assigns every edge one of `k` colors so that
//! each color class is a forest (Nash-Williams). A *star-forest
//! decomposition* additionally requires every tree to be a star. This module
//! holds the result types returned by every algorithm in the workspace plus
//! the validators used throughout the test suites and benchmarks.
//!
//! # Diameter kernel
//!
//! Every report carries the largest tree diameter of its decomposition
//! (bounded by Proposition 2.4 / Corollary 2.5 of the paper), so
//! [`max_forest_diameter`] runs once per decomposition. It buckets the
//! colored edges by color with one counting sort, then measures each class
//! by *leaf peeling*:
//!
//! * Per vertex it keeps the number of unpeeled class edges, the XOR of
//!   their edge ids and the height of the longest branch peeled into it.
//!   A forest vertex of degree 1 has exactly one edge left, and the XOR is
//!   that edge's id — no adjacency scan is needed to find it.
//! * Peeling a leaf offers `height + 1` to its neighbor. The sum of the
//!   neighbor's best branch so far and the offer is a path through the
//!   neighbor, so the class diameter is the best such sum at any vertex.
//! * Each class edge is touched O(1) times and only the vertices a class
//!   touched are reset before the next one, so the whole pass costs
//!   `O(n + m + k)` for `k` the largest color index plus one, with one
//!   allocation per array.
//!
//! The kernel assumes every class is a forest: a cycle is never peeled
//! (a debug assertion checks that every class edge was), and its result is
//! meaningless. [`validate_diameter_bound`] keeps the BFS sweeps of
//! [`traversal::forest_diameter`], so it checks the kernel's output with
//! independent code.

use crate::error::ValidationError;
use crate::ids::{Color, EdgeId, VertexId};
use crate::palette::ListAssignment;
use crate::traversal;
use crate::union_find::UnionFind;
use crate::view::GraphView;
use std::collections::{BTreeMap, BTreeSet};

/// A partial edge coloring: some edges may still be uncolored.
///
/// This is the working state of the augmentation algorithms of Sections 3–4
/// of the paper: edges get colored one augmenting sequence at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialEdgeColoring {
    colors: Vec<Option<Color>>,
}

impl PartialEdgeColoring {
    /// Creates a coloring of `m` edges with every edge uncolored.
    pub fn new_uncolored(m: usize) -> Self {
        PartialEdgeColoring {
            colors: vec![None; m],
        }
    }

    /// Creates a partial coloring from an explicit vector.
    pub fn from_colors(colors: Vec<Option<Color>>) -> Self {
        PartialEdgeColoring { colors }
    }

    /// Number of edges covered by this coloring (colored or not).
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` if the coloring covers no edges.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of `e`, if any.
    #[inline]
    pub fn color(&self, e: EdgeId) -> Option<Color> {
        self.colors[e.index()]
    }

    /// Extends the coloring with uncolored slots so it covers `m` edges
    /// (no-op when already that long) — the growth path of streaming graphs
    /// whose edge-id space only ever extends.
    pub fn grow_to(&mut self, m: usize) {
        if m > self.colors.len() {
            self.colors.resize(m, None);
        }
    }

    /// Assigns color `c` to edge `e`.
    pub fn set(&mut self, e: EdgeId, c: Color) {
        self.colors[e.index()] = Some(c);
    }

    /// Removes the color of edge `e`.
    pub fn clear(&mut self, e: EdgeId) {
        self.colors[e.index()] = None;
    }

    /// All currently uncolored edges.
    pub fn uncolored_edges(&self) -> Vec<EdgeId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| EdgeId::new(i))
            .collect()
    }

    /// Number of colored edges.
    pub fn colored_count(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// Returns `true` if every edge is colored.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(Option::is_some)
    }

    /// The distinct colors in use.
    pub fn colors_used(&self) -> BTreeSet<Color> {
        self.colors.iter().flatten().copied().collect()
    }

    /// Number of distinct colors in use.
    pub fn num_colors_used(&self) -> usize {
        self.colors_used().len()
    }

    /// Edges currently assigned color `c`.
    pub fn edges_with_color(&self, c: Color) -> Vec<EdgeId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, x)| **x == Some(c))
            .map(|(i, _)| EdgeId::new(i))
            .collect()
    }

    /// Converts into a complete [`ForestDecomposition`].
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::UncoloredEdge`] if any edge is uncolored.
    /// Note this does **not** check the forest property; use
    /// [`validate_forest_decomposition`] for that.
    pub fn into_complete(self) -> Result<ForestDecomposition, ValidationError> {
        let mut colors = Vec::with_capacity(self.colors.len());
        for (i, c) in self.colors.into_iter().enumerate() {
            match c {
                Some(c) => colors.push(c),
                None => {
                    return Err(ValidationError::UncoloredEdge {
                        edge: EdgeId::new(i),
                    })
                }
            }
        }
        Ok(ForestDecomposition { colors })
    }
}

/// A complete assignment of a color to every edge of a graph.
///
/// The name reflects the intended invariant (each color class is a forest),
/// but the struct itself is just the color vector; call
/// [`validate_forest_decomposition`] to check the invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestDecomposition {
    colors: Vec<Color>,
}

impl ForestDecomposition {
    /// Creates a decomposition from an explicit per-edge color vector.
    pub fn from_colors(colors: Vec<Color>) -> Self {
        ForestDecomposition { colors }
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` if no edges are covered.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Color of edge `e`.
    #[inline]
    pub fn color(&self, e: EdgeId) -> Color {
        self.colors[e.index()]
    }

    /// Distinct colors in use.
    pub fn colors_used(&self) -> BTreeSet<Color> {
        self.colors.iter().copied().collect()
    }

    /// Number of distinct colors in use. Two linear scans over a dense
    /// bitmap — color ids are small — instead of an ordered-set build.
    pub fn num_colors_used(&self) -> usize {
        let Some(max) = self.colors.iter().map(|c| c.index()).max() else {
            return 0;
        };
        let mut seen = vec![false; max + 1];
        for c in &self.colors {
            seen[c.index()] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Edges assigned color `c`.
    pub fn edges_with_color(&self, c: Color) -> Vec<EdgeId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, x)| **x == c)
            .map(|(i, _)| EdgeId::new(i))
            .collect()
    }

    /// The per-edge color array (index = edge id) — the bulk-merge fast
    /// path over [`ForestDecomposition::color`].
    pub fn colors(&self) -> &[Color] {
        &self.colors
    }

    /// View as a partial coloring (every edge colored).
    pub fn to_partial(&self) -> PartialEdgeColoring {
        PartialEdgeColoring {
            colors: self.colors.iter().map(|&c| Some(c)).collect(),
        }
    }
}

fn check_length<G: GraphView>(g: &G, len: usize) -> Result<(), ValidationError> {
    if len != g.num_edges() {
        Err(ValidationError::LengthMismatch {
            coloring_len: len,
            num_edges: g.num_edges(),
        })
    } else {
        Ok(())
    }
}

fn group_by_color<G, F>(g: &G, color_of: F) -> BTreeMap<Color, Vec<EdgeId>>
where
    G: GraphView,
    F: Fn(EdgeId) -> Option<Color>,
{
    let mut classes: BTreeMap<Color, Vec<EdgeId>> = BTreeMap::new();
    for e in g.edge_ids() {
        if let Some(c) = color_of(e) {
            classes.entry(c).or_default().push(e);
        }
    }
    classes
}

/// Checks that every color class of a (possibly partial) coloring is a forest.
///
/// # Errors
///
/// Returns [`ValidationError::CycleInColorClass`] naming a cycle edge if some
/// color class contains a cycle, or a length mismatch error.
pub fn validate_partial_forest_decomposition<G: GraphView>(
    g: &G,
    coloring: &PartialEdgeColoring,
) -> Result<(), ValidationError> {
    check_length(g, coloring.len())?;
    let classes = group_by_color(g, |e| coloring.color(e));
    for (color, edges) in classes {
        let mut uf = UnionFind::new(g.num_vertices());
        for &e in &edges {
            let (u, v) = g.endpoints(e);
            if !uf.union(u.index(), v.index()) {
                return Err(ValidationError::CycleInColorClass { color, witness: e });
            }
        }
    }
    Ok(())
}

/// Checks that a complete coloring is a forest decomposition, optionally with
/// a bound on the number of colors used.
///
/// # Errors
///
/// Returns the first violation found (cycle or too many colors).
pub fn validate_forest_decomposition<G: GraphView>(
    g: &G,
    fd: &ForestDecomposition,
    max_colors: Option<usize>,
) -> Result<(), ValidationError> {
    check_length(g, fd.num_edges())?;
    if let Some(bound) = max_colors {
        let used = fd.num_colors_used();
        if used > bound {
            return Err(ValidationError::TooManyColors { used, bound });
        }
    }
    validate_partial_forest_decomposition(g, &fd.to_partial())
}

/// Checks that every color class is a *star* forest: every component of each
/// class is a star (equivalently, every edge has an endpoint whose degree in
/// the class is exactly 1).
///
/// # Errors
///
/// Returns [`ValidationError::NotAStarForest`] naming the middle vertex of a
/// three-edge path (or of a cycle).
pub fn validate_star_forest_decomposition<G: GraphView>(
    g: &G,
    fd: &ForestDecomposition,
    max_colors: Option<usize>,
) -> Result<(), ValidationError> {
    check_length(g, fd.num_edges())?;
    if let Some(bound) = max_colors {
        let used = fd.num_colors_used();
        if used > bound {
            return Err(ValidationError::TooManyColors { used, bound });
        }
    }
    let classes = group_by_color(g, |e| Some(fd.color(e)));
    for (color, edges) in classes {
        let mut class_degree = vec![0usize; g.num_vertices()];
        for &e in &edges {
            let (u, v) = g.endpoints(e);
            class_degree[u.index()] += 1;
            class_degree[v.index()] += 1;
        }
        for &e in &edges {
            let (u, v) = g.endpoints(e);
            if class_degree[u.index()] >= 2 && class_degree[v.index()] >= 2 {
                return Err(ValidationError::NotAStarForest { color, witness: u });
            }
        }
    }
    Ok(())
}

/// Checks that every colored edge's color belongs to its palette.
///
/// # Errors
///
/// Returns [`ValidationError::ColorNotInPalette`] for the first violation.
pub fn validate_list_coloring<G: GraphView>(
    g: &G,
    coloring: &PartialEdgeColoring,
    lists: &ListAssignment,
) -> Result<(), ValidationError> {
    check_length(g, coloring.len())?;
    for e in g.edge_ids() {
        if let Some(c) = coloring.color(e) {
            if !lists.contains(e, c) {
                return Err(ValidationError::ColorNotInPalette { edge: e, color: c });
            }
        }
    }
    Ok(())
}

/// Maximum strong diameter over all trees in all color classes of a (possibly
/// partial) coloring, measured by the leaf-peeling kernel of the
/// [module docs](self#diameter-kernel). The coloring must already be a valid
/// (partial) forest decomposition.
pub fn max_forest_diameter<G: GraphView>(g: &G, coloring: &PartialEdgeColoring) -> usize {
    let colors = &coloring.colors[..g.num_edges()];
    // Counting sort of the colored edges by color, ascending ids within a
    // class. `ends[c]` first counts class `c - 1`, then holds the start of
    // class `c`, and after placement the end of class `c`.
    let span = colors.iter().flatten().map(|c| c.index() + 1).max();
    let span = span.unwrap_or(0);
    let mut ends = vec![0usize; span + 1];
    for c in colors.iter().flatten() {
        ends[c.index() + 1] += 1;
    }
    for k in 1..=span {
        ends[k] += ends[k - 1];
    }
    let mut by_color = vec![EdgeId::default(); ends[span]];
    for (i, c) in colors.iter().enumerate() {
        if let Some(c) = c {
            let slot = &mut ends[c.index()];
            by_color[*slot] = EdgeId::new(i);
            *slot += 1;
        }
    }
    let mut peeler = LeafPeeler::new(g.num_vertices());
    let mut max_diam = 0;
    let mut start = 0;
    for &end in &ends[..span] {
        max_diam = max_diam.max(peeler.class_diameter(g, &by_color[start..end]));
        start = end;
    }
    max_diam
}

/// Per-vertex state of the leaf-peeling kernel.
#[derive(Clone, Copy, Default)]
struct PeelSlot {
    /// Class edges at this vertex not yet peeled.
    degree: u32,
    /// XOR of the ids of those edges: the last one's id at degree 1.
    xor: u32,
    /// Length of the longest branch peeled into this vertex.
    height: u32,
}

/// Scratch of [`max_forest_diameter`], shared by every color class.
struct LeafPeeler {
    slots: Vec<PeelSlot>,
    touched: Vec<VertexId>,
    leaves: Vec<VertexId>,
}

impl LeafPeeler {
    fn new(n: usize) -> Self {
        LeafPeeler {
            slots: vec![PeelSlot::default(); n],
            touched: Vec::new(),
            leaves: Vec::new(),
        }
    }

    /// Largest tree diameter of the forest spanned by `class`, leaving every
    /// slot it touched zeroed again.
    ///
    /// Kept out of line: it runs once per class, and inlined into
    /// [`max_forest_diameter`] it changed how callers' codegen units split,
    /// which slowed the unrelated `matroid::arboricity` by about 7% on a
    /// 60k-edge graph (release build, 2-core x86-64 host).
    #[inline(never)]
    fn class_diameter<G: GraphView>(&mut self, g: &G, class: &[EdgeId]) -> usize {
        let slots = &mut self.slots;
        self.touched.clear();
        for &e in class {
            let (u, v) = g.endpoints(e);
            for x in [u, v] {
                let slot = &mut slots[x.index()];
                if slot.degree == 0 {
                    self.touched.push(x);
                }
                slot.degree += 1;
                slot.xor ^= e.raw();
            }
        }
        self.leaves.clear();
        let leaves = self.touched.iter().filter(|x| slots[x.index()].degree == 1);
        self.leaves.extend(leaves);
        let mut diameter = 0;
        let mut peeled = 0usize;
        while let Some(x) = self.leaves.pop() {
            let leaf = slots[x.index()];
            // Both ends of a tree's last edge were leaves; the first peel
            // took the edge.
            if leaf.degree != 1 {
                continue;
            }
            slots[x.index()].degree = 0;
            let e = EdgeId::new(leaf.xor as usize);
            let y = g.other_endpoint(e, x);
            let offer = leaf.height + 1;
            let slot = &mut slots[y.index()];
            slot.degree -= 1;
            slot.xor ^= e.raw();
            diameter = diameter.max(slot.height + offer);
            slot.height = slot.height.max(offer);
            if slot.degree == 1 {
                self.leaves.push(y);
            }
            peeled += 1;
        }
        debug_assert_eq!(peeled, class.len(), "a color class contains a cycle");
        for x in &self.touched {
            slots[x.index()] = PeelSlot::default();
        }
        diameter as usize
    }
}

/// Checks that every tree in every color class has diameter at most `bound`.
///
/// # Errors
///
/// Returns [`ValidationError::DiameterExceeded`] for the first violating
/// color class.
pub fn validate_diameter_bound<G: GraphView>(
    g: &G,
    coloring: &PartialEdgeColoring,
    bound: usize,
) -> Result<(), ValidationError> {
    let classes = group_by_color(g, |e| coloring.color(e));
    let mut in_class = vec![false; g.num_edges()];
    for (color, edges) in classes {
        for &e in &edges {
            in_class[e.index()] = true;
        }
        let measured = traversal::forest_diameter(g, |e| in_class[e.index()]);
        for &e in &edges {
            in_class[e.index()] = false;
        }
        if measured > bound {
            return Err(ValidationError::DiameterExceeded {
                color,
                measured,
                bound,
            });
        }
    }
    Ok(())
}

/// Merges two partial colorings over disjoint edge sets (used by
/// Proposition 4.8's combination step). Colors in `second` are shifted by
/// `color_offset` to keep the color spaces disjoint when desired (pass 0 to
/// keep original colors).
///
/// # Panics
///
/// Panics if both colorings assign a color to the same edge or their lengths
/// differ.
pub fn merge_disjoint_colorings(
    first: &PartialEdgeColoring,
    second: &PartialEdgeColoring,
    color_offset: usize,
) -> PartialEdgeColoring {
    assert_eq!(
        first.len(),
        second.len(),
        "colorings must cover the same edges"
    );
    let mut merged = PartialEdgeColoring::new_uncolored(first.len());
    for i in 0..first.len() {
        let e = EdgeId::new(i);
        match (first.color(e), second.color(e)) {
            (Some(c), None) => merged.set(e, c),
            (None, Some(c)) => merged.set(e, Color::new(c.index() + color_offset)),
            (None, None) => {}
            (Some(_), Some(_)) => panic!("edge {e} colored by both colorings"),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::MultiGraph;

    fn c(i: usize) -> Color {
        Color::new(i)
    }

    fn e(i: usize) -> EdgeId {
        EdgeId::new(i)
    }

    fn triangle() -> MultiGraph {
        MultiGraph::from_pairs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn partial_coloring_basic_operations() {
        let mut pc = PartialEdgeColoring::new_uncolored(3);
        assert_eq!(pc.len(), 3);
        assert!(!pc.is_empty());
        assert!(!pc.is_complete());
        pc.set(e(0), c(1));
        pc.set(e(2), c(1));
        assert_eq!(pc.color(e(0)), Some(c(1)));
        assert_eq!(pc.color(e(1)), None);
        assert_eq!(pc.colored_count(), 2);
        assert_eq!(pc.uncolored_edges(), vec![e(1)]);
        assert_eq!(pc.edges_with_color(c(1)), vec![e(0), e(2)]);
        assert_eq!(pc.num_colors_used(), 1);
        pc.clear(e(0));
        assert_eq!(pc.color(e(0)), None);
        pc.set(e(0), c(0));
        pc.set(e(1), c(2));
        let fd = pc.into_complete().unwrap();
        assert_eq!(fd.num_colors_used(), 3);
    }

    #[test]
    fn into_complete_rejects_uncolored() {
        let pc = PartialEdgeColoring::new_uncolored(2);
        assert!(matches!(
            pc.into_complete(),
            Err(ValidationError::UncoloredEdge { .. })
        ));
    }

    #[test]
    fn forest_validation_accepts_proper_decomposition() {
        let g = triangle();
        // Two colors: edges 0,1 in color 0 (a path), edge 2 in color 1.
        let fd = ForestDecomposition::from_colors(vec![c(0), c(0), c(1)]);
        assert!(validate_forest_decomposition(&g, &fd, Some(2)).is_ok());
        assert!(matches!(
            validate_forest_decomposition(&g, &fd, Some(1)),
            Err(ValidationError::TooManyColors { .. })
        ));
    }

    #[test]
    fn forest_validation_rejects_cycles() {
        let g = triangle();
        let fd = ForestDecomposition::from_colors(vec![c(0), c(0), c(0)]);
        assert!(matches!(
            validate_forest_decomposition(&g, &fd, None),
            Err(ValidationError::CycleInColorClass { .. })
        ));
    }

    #[test]
    fn forest_validation_rejects_parallel_edges_same_color() {
        let g = MultiGraph::from_pairs(2, &[(0, 1), (0, 1)]).unwrap();
        let fd = ForestDecomposition::from_colors(vec![c(0), c(0)]);
        assert!(validate_forest_decomposition(&g, &fd, None).is_err());
        let fd = ForestDecomposition::from_colors(vec![c(0), c(1)]);
        assert!(validate_forest_decomposition(&g, &fd, None).is_ok());
    }

    #[test]
    fn length_mismatch_detected() {
        let g = triangle();
        let fd = ForestDecomposition::from_colors(vec![c(0), c(0)]);
        assert!(matches!(
            validate_forest_decomposition(&g, &fd, None),
            Err(ValidationError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn star_forest_validation() {
        // Path of 3 edges in a single color: not a star forest.
        let g = MultiGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let fd = ForestDecomposition::from_colors(vec![c(0), c(0), c(0)]);
        assert!(validate_forest_decomposition(&g, &fd, None).is_ok());
        assert!(validate_star_forest_decomposition(&g, &fd, None).is_err());
        // Split the middle edge into its own color: both classes become stars.
        let fd = ForestDecomposition::from_colors(vec![c(0), c(1), c(0)]);
        assert!(validate_star_forest_decomposition(&g, &fd, None).is_ok());
        // A star with many leaves is fine in one color.
        let g = MultiGraph::from_pairs(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let fd = ForestDecomposition::from_colors(vec![c(0); 4]);
        assert!(validate_star_forest_decomposition(&g, &fd, None).is_ok());
    }

    #[test]
    fn list_coloring_validation() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let lists = ListAssignment::uniform(2, 2);
        let mut pc = PartialEdgeColoring::new_uncolored(2);
        pc.set(e(0), c(1));
        assert!(validate_list_coloring(&g, &pc, &lists).is_ok());
        pc.set(e(1), c(5));
        assert!(matches!(
            validate_list_coloring(&g, &pc, &lists),
            Err(ValidationError::ColorNotInPalette { .. })
        ));
    }

    #[test]
    fn diameter_measurement_and_bound() {
        let g = MultiGraph::from_pairs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let fd = ForestDecomposition::from_colors(vec![c(0); 4]);
        assert_eq!(max_forest_diameter(&g, &fd.to_partial()), 4);
        assert!(validate_diameter_bound(&g, &fd.to_partial(), 4).is_ok());
        assert!(matches!(
            validate_diameter_bound(&g, &fd.to_partial(), 3),
            Err(ValidationError::DiameterExceeded { .. })
        ));
        // Alternate colors: diameter drops to 1 per class.
        let fd = ForestDecomposition::from_colors(vec![c(0), c(1), c(0), c(1)]);
        assert_eq!(max_forest_diameter(&g, &fd.to_partial()), 1);
        // Uncolored edges split a class; a color gap below it is skipped.
        let pc = PartialEdgeColoring::from_colors(vec![Some(c(9)), None, Some(c(9)), Some(c(9))]);
        assert_eq!(max_forest_diameter(&g, &pc), 2);
        // Edgeless graphs, with and without vertices.
        let none = PartialEdgeColoring::new_uncolored(0);
        assert_eq!(max_forest_diameter(&MultiGraph::new(0), &none), 0);
        assert_eq!(max_forest_diameter(&MultiGraph::new(5), &none), 0);
        // A star is 2 across, and a spider with legs 3, 2 and 1 is as wide
        // as its two longest legs.
        let star = MultiGraph::from_pairs(6, &[(3, 0), (3, 1), (3, 2), (3, 4), (3, 5)]).unwrap();
        let one_color = PartialEdgeColoring::from_colors(vec![Some(c(0)); 5]);
        assert_eq!(max_forest_diameter(&star, &one_color), 2);
        let spider =
            MultiGraph::from_pairs(7, &[(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6)]).unwrap();
        let one_color = PartialEdgeColoring::from_colors(vec![Some(c(1)); 6]);
        assert_eq!(max_forest_diameter(&spider, &one_color), 5);
    }

    #[test]
    fn edges_with_color_lists_the_class() {
        let fd = ForestDecomposition::from_colors(vec![c(0), c(1), c(0), c(0)]);
        assert_eq!(fd.edges_with_color(c(0)), vec![e(0), e(2), e(3)]);
        assert_eq!(fd.edges_with_color(c(1)), vec![e(1)]);
    }

    #[test]
    fn merge_disjoint_colorings_combines() {
        let mut a = PartialEdgeColoring::new_uncolored(3);
        a.set(e(0), c(0));
        let mut b = PartialEdgeColoring::new_uncolored(3);
        b.set(e(1), c(0));
        b.set(e(2), c(1));
        let merged = merge_disjoint_colorings(&a, &b, 10);
        assert_eq!(merged.color(e(0)), Some(c(0)));
        assert_eq!(merged.color(e(1)), Some(c(10)));
        assert_eq!(merged.color(e(2)), Some(c(11)));
    }

    #[test]
    #[should_panic(expected = "colored by both")]
    fn merge_panics_on_overlap() {
        let mut a = PartialEdgeColoring::new_uncolored(1);
        a.set(e(0), c(0));
        let mut b = PartialEdgeColoring::new_uncolored(1);
        b.set(e(0), c(1));
        merge_disjoint_colorings(&a, &b, 0);
    }
}
