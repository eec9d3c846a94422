//! Edge colorings, forest decompositions and their validation.
//!
//! A *k-forest decomposition* assigns every edge one of `k` colors so that
//! each color class is a forest (Nash-Williams). A *star-forest
//! decomposition* additionally requires every tree to be a star. This module
//! holds the result types returned by every algorithm in the workspace plus
//! the validators used throughout the test suites and benchmarks.
//!
//! # Color bucketing
//!
//! The diameter kernel, the rooting kernel's error path and every validator
//! read one bucketing of the colored edge ids by color: a stable counting
//! sort, with ascending ids within a class and the non-empty classes in
//! ascending color. It reads the coloring's slice in place (`&[Color]` or
//! `&[Option<Color>]`), with no copy and no call per edge.
//!
//! * **Four blocks.** Counting and scattering keep one cursor per color for
//!   each of four interleaved blocks of the edge range: step `i` handles
//!   the ids `i`, `q + i`, `2q + i` and `3q + i` for `q = ⌊m/4⌋`, and the
//!   last block also takes the `m mod 4` ids past `4q`. First-fit
//!   colorings hold long runs of consecutive ids in one color, and with
//!   one cursor per color each edge of a run waits on the increment of the
//!   edge before it; four blocks give four independent chains. A star
//!   validation that fails at its first class, and so is mostly the
//!   bucketing, took 0.38–0.41 ms with one cursor per color and 0.16–0.22
//!   ms with four blocks (four alternating runs each) on the exact
//!   partitions of `planted_forest_union(20000, 3)`, and a whole
//!   decomposition of such a graph (the `cold_random` benchmark's op, which
//!   buckets in its diameter kernel and its validation) took 2.40 ms with
//!   one cursor against 1.80 ms with four blocks, in ten alternating pairs
//!   of 25 s runs (release build, 2-core x86-64 host).
//! * **Memory.** While the largest id is below `2m`, the ids index the
//!   cursors directly (`4 × span` of `u32`). Past that, each id is first
//!   replaced by its rank among the sorted distinct ids, so the bucketing
//!   takes `O(m)` memory whatever the largest id, and ids up to `u32::MAX`
//!   cost one sort (`tests/hostile_inputs.rs`).
//!
//! # Diameter kernel
//!
//! Every report carries the largest tree diameter of its decomposition
//! (bounded by Proposition 2.4 / Corollary 2.5 of the paper), so
//! [`max_forest_diameter`] runs once per decomposition. It measures each
//! class of the [color bucketing](self#color-bucketing) by *leaf peeling*:
//!
//! * Per vertex it keeps the number of unpeeled class edges, the XOR of
//!   their far endpoints' ids and the height of the longest branch peeled
//!   into it. A forest vertex of degree 1 has exactly one edge left, and
//!   the XOR is that edge's other end — the peel needs no adjacency scan
//!   and reads no endpoints.
//! * Peeling a leaf offers `height + 1` to its neighbor. The sum of the
//!   neighbor's best branch so far and the offer is a path through the
//!   neighbor, so the class diameter is the best such sum at any vertex.
//! * Each class edge is touched O(1) times. The peel zeroes a vertex's
//!   slot when it pops it: in a forest class every vertex the class
//!   touched is queued exactly once (as an initial leaf, or when its
//!   degree drops to 1), so the next class finds every slot zeroed with no
//!   reset pass. A class that is not a forest ends the kernel with an
//!   error, so its 2-core's slots are never read again. The whole pass
//!   costs `O(n + m)`, with one allocation per array.
//! * Leaves are peeled from a FIFO queue, and the leaf test takes no
//!   branch: a queued vertex that is no longer a leaf (the far end of its
//!   tree's last edge, which the near end peeled) passes its updates
//!   through a zero mask, and a push is an unconditional write followed by
//!   a conditional increment of the tail. Consecutive pops then depend on
//!   no earlier load or branch, and their cache misses overlap. Either
//!   half alone gained little or nothing over a LIFO stack with branches:
//!   LIFO pops the vertex the last step pushed, and with branches every
//!   step waits on a data-dependent test. Together they cut the kernel by
//!   about 30% on `planted_forest_union(20000, 3)` (release build, 2-core
//!   x86-64 host). The diameter and the 2-core below do not depend on the
//!   order.
//!
//! Peeling never removes an edge of a cycle, nor of a path joining two
//! cycles (the class's 2-core), and every edge of a forest is peeled. So
//! the kernel counts the edges it peels, and a class it cannot peel
//! completely is not a forest: [`ForestDecomposition::max_diameter`]
//! returns [`ValidationError::CycleInColorClass`] for it, at no cost on a
//! forest. This is the forest check of every report, whichever engine
//! produced it; [`validate_forest_decomposition`] stays the independent
//! union-find check, and [`validate_diameter_bound`] keeps the BFS sweeps
//! of [`traversal::forest_diameter`], so it checks the kernel's output with
//! independent code.
//!
//! # Validators
//!
//! [`validate_partial_forest_decomposition`],
//! [`validate_forest_decomposition`] and
//! [`validate_star_forest_decomposition`] read the same bucketing and
//! reuse one union-find or degree array across classes, refilled whole
//! between them, so a call costs `O(m + n·k)` for `k` non-empty classes
//! with one allocation per array. [`validate_diameter_bound`] measures
//! each class by whole-graph BFS sweeps, `O(n + m)` per class, since it
//! exists to check the kernel with independent code.
//!
//! # Rooting kernel
//!
//! Corollary 1.1 (orient toward the root), Proposition 2.4 (delete one depth
//! layer in every `z`) and the folklore `α_star ≤ 2α` split (depth parity)
//! read every tree of every color class rooted at its minimum vertex:
//! `rooted_edges` gives each colored edge its [`RootedEdge`], the endpoint
//! away from the root and its depth. Tree paths are unique, so the root
//! alone fixes both. The kernel scans the vertices in ascending id order;
//! the first to touch a colored edge not yet reached is the minimum of that
//! edge's tree, and a BFS from it over that color roots the tree, so no
//! per-color scan of the graph remains. Two rootings stay apart on purpose:
//! CUT (`forest_decomp::cut`) roots at core vertices first, and
//! `ColoringSnapshot::build` (`forest_decomp::api::versioned`) fills a root
//! table over the live graph's stable ids.

use crate::error::ValidationError;
use crate::ids::{Color, EdgeId, VertexId};
use crate::palette::ListAssignment;
use crate::traversal;
use crate::union_find::UnionFind;
use crate::view::GraphView;
use std::collections::BTreeSet;

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

    /// Every tree of every color class rooted at its minimum vertex, by the
    /// [rooting kernel](self#rooting-kernel): per edge id, the colored
    /// edge's [`RootedEdge`], `None` for an uncolored edge.
    ///
    /// # Errors
    ///
    /// Those of [`ForestDecomposition::max_diameter`], with the same class
    /// and witness.
    pub fn rooted_edges<G: GraphView>(
        &self,
        g: &G,
    ) -> Result<Vec<Option<RootedEdge>>, ValidationError> {
        check_length(g, self.colors.len())?;
        root_classes(g, &self.colors)
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

    /// Number of distinct colors in use: two linear scans over a bitmap of
    /// the ids while the largest is below `2m`, as it is for every engine's
    /// coloring, and otherwise the count of the sorted distinct ids, so the
    /// memory never grows with the largest id.
    pub fn num_colors_used(&self) -> usize {
        match ColorIds::of(&self.colors) {
            ColorIds::Dense(span) => {
                let mut seen = vec![false; span];
                for c in &self.colors {
                    seen[c.index()] = true;
                }
                seen.iter().filter(|&&s| s).count()
            }
            ColorIds::Sparse(distinct) => distinct.len(),
        }
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

    /// Maximum strong diameter over all trees in all color classes, by the
    /// leaf-peeling kernel of the [module docs](self#diameter-kernel):
    /// [`max_forest_diameter`] of [`to_partial`](Self::to_partial), without
    /// the copy, and checking that every class is a forest.
    ///
    /// # Errors
    ///
    /// [`ValidationError::LengthMismatch`] when the decomposition does not
    /// cover exactly the edges of `g`, and
    /// [`ValidationError::CycleInColorClass`] for the lowest color class
    /// that is not a forest (a cycle, two parallel edges or a self-loop),
    /// naming the lowest-id edge of that class the peel left.
    pub fn max_diameter<G: GraphView>(&self, g: &G) -> Result<usize, ValidationError> {
        check_length(g, self.colors.len())?;
        max_diameter_of_colors(g, &self.colors)
    }

    /// Every tree of every color class rooted at its minimum vertex, by the
    /// [rooting kernel](self#rooting-kernel): the [`RootedEdge`] of every
    /// edge, by edge id (all `Some`).
    ///
    /// # Errors
    ///
    /// Those of [`ForestDecomposition::max_diameter`], with the same class
    /// and witness.
    pub fn rooted_edges<G: GraphView>(
        &self,
        g: &G,
    ) -> Result<Vec<Option<RootedEdge>>, ValidationError> {
        check_length(g, self.colors.len())?;
        root_classes(g, &self.colors)
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

/// One entry of a per-edge color slice: a [`Color`] of a complete
/// coloring, or an `Option<Color>` of a partial one (`None` = uncolored).
/// The kernels read either slice in place, with no copy.
trait EdgeColor: Copy {
    fn color(self) -> Option<Color>;
}

impl EdgeColor for Color {
    #[inline]
    fn color(self) -> Option<Color> {
        Some(self)
    }
}

impl EdgeColor for Option<Color> {
    #[inline]
    fn color(self) -> Option<Color> {
        self
    }
}

/// How a per-color pass addresses a coloring's ids. While the largest is
/// below `2m`, as in every engine's coloring, an array indexed by id is
/// `O(m)`; past that, a pass works on the sorted distinct ids instead, so
/// its memory never grows with the largest id (`tests/hostile_inputs.rs`).
enum ColorIds {
    /// Every colored edge's id is below this span (0 when none is colored).
    Dense(usize),
    /// The distinct ids, ascending.
    Sparse(Vec<Color>),
}

impl ColorIds {
    fn of<C: EdgeColor>(colors: &[C]) -> Self {
        match colors.iter().filter_map(|c| c.color()).max() {
            None => ColorIds::Dense(0),
            Some(max) if max.index() < 2 * colors.len() => ColorIds::Dense(max.index() + 1),
            Some(_) => {
                let mut distinct: Vec<Color> = colors.iter().filter_map(|c| c.color()).collect();
                distinct.sort_unstable();
                distinct.dedup();
                ColorIds::Sparse(distinct)
            }
        }
    }
}

/// The colored edge ids of a coloring bucketed by color, ascending ids
/// within a class: the [color bucketing](self#color-bucketing) every
/// per-class kernel and validator reads.
struct ColorClasses {
    /// The colored edge ids, class after class.
    edges: Vec<EdgeId>,
    /// Each non-empty class's color and the end of its run in `edges`, by
    /// ascending color.
    ends: Vec<(Color, usize)>,
}

/// Blocks of the edge range the bucketing counts and scatters in turn
/// (written out for four in [`ColorClasses::bucket`]).
const BLOCKS: usize = 4;

impl ColorClasses {
    /// Buckets `colors` (one entry per edge id). [Dense](ColorIds) ids
    /// index the cursors directly; sparse ones are first replaced by their
    /// ranks among the distinct ids.
    fn new<C: EdgeColor>(colors: &[C]) -> Self {
        match ColorIds::of(colors) {
            ColorIds::Dense(span) => Self::bucket(colors, span),
            ColorIds::Sparse(distinct) => {
                let rank = |c: Color| Color::new(distinct.binary_search(&c).expect("a listed id"));
                let ranks: Vec<Option<Color>> =
                    colors.iter().map(|c| c.color().map(rank)).collect();
                let mut classes = Self::bucket(&ranks, distinct.len());
                for (color, _) in &mut classes.ends {
                    *color = distinct[color.index()];
                }
                classes
            }
        }
    }

    /// The stable counting sort of `colors`, every id below `span`, in four
    /// interleaved blocks of the edge range (see the
    /// [module docs](self#color-bucketing)).
    fn bucket<C: EdgeColor>(colors: &[C], span: usize) -> Self {
        // Block `b` holds the ids `b·q..(b+1)·q`; the last block also holds
        // the `m mod 4` ids past them, the `tail`.
        let q = colors.len() / BLOCKS;
        let (head, tail) = colors.split_at(BLOCKS * q);
        let (b0, rest) = head.split_at(q);
        let (b1, rest) = rest.split_at(q);
        let (b2, b3) = rest.split_at(q);
        let rows = || b0.iter().zip(b1).zip(b2).zip(b3);
        // `cursor[4c + b]` first counts block `b`'s edges of color `c`,
        // then holds where the next of them goes.
        let mut cursor = vec![0u32; BLOCKS * span];
        for (((&x0, &x1), &x2), &x3) in rows() {
            for (b, x) in [x0, x1, x2, x3].into_iter().enumerate() {
                if let Some(c) = x.color() {
                    cursor[BLOCKS * c.index() + b] += 1;
                }
            }
        }
        for c in tail.iter().filter_map(|x| x.color()) {
            cursor[BLOCKS * c.index() + BLOCKS - 1] += 1;
        }
        // Exclusive prefix sums in (color, block) order: a class's run in
        // each block follows its runs in the lower blocks.
        let mut ends = Vec::new();
        let mut total = 0u32;
        for (c, class) in cursor.chunks_exact_mut(BLOCKS).enumerate() {
            let start = total;
            for slot in class {
                let count = *slot;
                *slot = total;
                total += count;
            }
            if total > start {
                ends.push((Color::new(c), total as usize));
            }
        }
        let mut edges = vec![EdgeId::default(); total as usize];
        for (i, (((&x0, &x1), &x2), &x3)) in rows().enumerate() {
            for (b, x) in [x0, x1, x2, x3].into_iter().enumerate() {
                if let Some(c) = x.color() {
                    let slot = &mut cursor[BLOCKS * c.index() + b];
                    edges[*slot as usize] = EdgeId::new(b * q + i);
                    *slot += 1;
                }
            }
        }
        for (i, x) in tail.iter().enumerate() {
            if let Some(c) = x.color() {
                let slot = &mut cursor[BLOCKS * c.index() + BLOCKS - 1];
                edges[*slot as usize] = EdgeId::new(BLOCKS * q + i);
                *slot += 1;
            }
        }
        ColorClasses { edges, ends }
    }

    /// The non-empty classes by ascending color: each color and its edge
    /// ids, ascending.
    fn iter(&self) -> impl Iterator<Item = (Color, &[EdgeId])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&(_, end)| end));
        self.ends
            .iter()
            .zip(starts)
            .map(|(&(color, end), start)| (color, &self.edges[start..end]))
    }
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
    check_classes_are_forests(g, &coloring.colors)
}

/// The per-class forest check of both forest validators: the first cycle
/// edge of the lowest color class that has one. One union-find serves every
/// class, cleared between them.
fn check_classes_are_forests<G, C>(g: &G, colors: &[C]) -> Result<(), ValidationError>
where
    G: GraphView,
    C: EdgeColor,
{
    let mut uf = UnionFind::new(g.num_vertices());
    for (color, class) in ColorClasses::new(colors).iter() {
        if let Some(witness) = first_cycle_edge(g, class, &mut uf) {
            return Err(ValidationError::CycleInColorClass { color, witness });
        }
        uf.clear();
    }
    Ok(())
}

/// The first edge of `class` (ascending ids) whose endpoints `uf` already
/// joins, after uniting the endpoints of every edge before it.
///
/// Kept out of line: inlined, the loop's speed depended on the crate that
/// instantiated the validator. The facade's report validation read 0.82–0.92
/// ms against 0.53–0.61 ms for the same call from the benchmark's own
/// code on a `planted_forest_union(20000, 3)` op; out of line, both read
/// alike (release build, 2-core x86-64 host).
#[inline(never)]
fn first_cycle_edge<G: GraphView>(g: &G, class: &[EdgeId], uf: &mut UnionFind) -> Option<EdgeId> {
    class.iter().copied().find(|&e| {
        let (u, v) = g.endpoints(e);
        !uf.union(u.index(), v.index())
    })
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
    check_classes_are_forests(g, &fd.colors)
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
    // One degree array serves every class, zeroed between them.
    let mut class_degree = vec![0u32; g.num_vertices()];
    for (color, class) in ColorClasses::new(&fd.colors).iter() {
        for &e in class {
            let (u, v) = g.endpoints(e);
            class_degree[u.index()] += 1;
            class_degree[v.index()] += 1;
        }
        for &e in class {
            let (u, v) = g.endpoints(e);
            if class_degree[u.index()] >= 2 && class_degree[v.index()] >= 2 {
                return Err(ValidationError::NotAStarForest { color, witness: u });
            }
        }
        class_degree.fill(0);
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
///
/// # Panics
///
/// Panics with the [`ValidationError::LengthMismatch`] message if the
/// coloring does not cover exactly the edges of `g`, and if a color class
/// is not a forest; [`ForestDecomposition::max_diameter`] returns both as
/// errors instead.
pub fn max_forest_diameter<G: GraphView>(g: &G, coloring: &PartialEdgeColoring) -> usize {
    check_length(g, coloring.len()).unwrap_or_else(|mismatch| panic!("{mismatch}"));
    max_diameter_of_colors(g, &coloring.colors).expect("every color class is a forest")
}

/// The leaf-peeling kernel over per-edge colors in edge-id order, read in
/// place from either coloring type: the largest class diameter, or the
/// first class that is not a forest.
fn max_diameter_of_colors<G, C>(g: &G, colors: &[C]) -> Result<usize, ValidationError>
where
    G: GraphView,
    C: EdgeColor,
{
    let mut peeler = LeafPeeler::new(g.num_vertices());
    let mut max_diam = 0;
    for (color, class) in ColorClasses::new(colors).iter() {
        let diameter = peeler
            .class_diameter(g, class)
            .map_err(|witness| ValidationError::CycleInColorClass { color, witness })?;
        max_diam = max_diam.max(diameter);
    }
    Ok(max_diam)
}

/// Per-vertex state of the leaf-peeling kernel.
#[derive(Clone, Copy, Default)]
struct PeelSlot {
    /// Class edges at this vertex not yet peeled.
    degree: u32,
    /// XOR of the far endpoints' ids of those edges: the last one's far
    /// endpoint at degree 1.
    xor: u32,
    /// Length of the longest branch peeled into this vertex.
    height: u32,
}

/// Scratch of the diameter kernel, shared by every color class.
struct LeafPeeler {
    /// All zero between classes: the peel zeroes each slot as it pops it.
    slots: Vec<PeelSlot>,
    /// First the vertices the class touches, then the FIFO of leaves to
    /// peel. A vertex is listed once, and enters the FIFO at most once (as
    /// an initial leaf or when its degree drops to 1), so `n + 1` entries
    /// hold either list plus the unconditional write past its end.
    queue: Vec<u32>,
}

impl LeafPeeler {
    fn new(n: usize) -> Self {
        LeafPeeler {
            slots: vec![PeelSlot::default(); n],
            queue: vec![0; n + 1],
        }
    }

    /// Largest tree diameter of the forest spanned by `class` (ascending
    /// edge ids), leaving every slot zeroed again. When `class` is not a
    /// forest, the error is its lowest-id edge left unpeeled, and the slots
    /// of its 2-core stay dirty: the caller drops the peeler.
    ///
    /// Kept out of line: it runs once per class, and inlined into the
    /// kernel's entry it changed how callers' codegen units split,
    /// which slowed the unrelated `matroid::arboricity` by about 7% on a
    /// 60k-edge graph (release build, 2-core x86-64 host).
    #[inline(never)]
    fn class_diameter<G: GraphView>(&mut self, g: &G, class: &[EdgeId]) -> Result<usize, EdgeId> {
        let slots = &mut self.slots;
        let queue = &mut self.queue;
        // Pushes are an unconditional write and a conditional increment,
        // here of the vertices the class touches, in first-touch order.
        let mut touched = 0;
        for &e in class {
            let (u, v) = g.endpoints(e);
            for (x, y) in [(u, v), (v, u)] {
                let slot = &mut slots[x.index()];
                queue[touched] = x.raw();
                touched += usize::from(slot.degree == 0);
                slot.degree += 1;
                slot.xor ^= y.raw();
            }
        }
        // The initial leaves, compacted in place: `tail` never passes `i`.
        let mut tail = 0;
        for i in 0..touched {
            let x = queue[i];
            queue[tail] = x;
            tail += usize::from(slots[x as usize].degree == 1);
        }
        let mut diameter = 0;
        let mut peeled = 0usize;
        let mut head = 0;
        while head < tail {
            let x = queue[head];
            head += 1;
            let leaf = slots[x as usize];
            // `mask` is all ones while `x` is still a leaf. Both ends of a
            // tree's last edge were queued and the first peel took the
            // edge, leaving the other at degree 0 and XOR 0: its masked
            // updates of slot 0 below change nothing.
            let live = u32::from(leaf.degree == 1);
            let mask = live.wrapping_neg();
            // In a forest every vertex the class touched is queued exactly
            // once, so zeroing it here leaves no slot to reset after.
            slots[x as usize] = PeelSlot::default();
            let y = leaf.xor;
            let offer = (leaf.height + 1) & mask;
            let slot = &mut slots[y as usize];
            slot.degree -= live;
            slot.xor ^= x & mask;
            diameter = diameter.max((slot.height + offer) & mask);
            slot.height = slot.height.max(offer);
            queue[tail] = y;
            tail += usize::from((slot.degree & mask) == 1);
            peeled += live as usize;
        }
        if peeled < class.len() {
            // A peeled edge left its leaf end at degree 0; an unpeeled one
            // still counts at both ends.
            let left = |e: &&EdgeId| {
                let (u, v) = g.endpoints(**e);
                slots[u.index()].degree > 0 && slots[v.index()].degree > 0
            };
            return Err(*class.iter().find(left).expect("an unpeeled edge remains"));
        }
        Ok(diameter as usize)
    }
}

/// One colored edge of a rooted forest decomposition, from the
/// [rooting kernel](self#rooting-kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RootedEdge {
    /// The endpoint away from the root of the edge's tree: the edge is this
    /// vertex's parent edge in its class.
    pub child: VertexId,
    /// Depth of [`child`](Self::child) below the root (at least 1).
    pub depth: usize,
}

/// The rooting kernel over per-edge colors in edge-id order, read in place
/// from either coloring type: every tree of every class rooted at its
/// minimum vertex.
fn root_classes<G, C>(g: &G, colors: &[C]) -> Result<Vec<Option<RootedEdge>>, ValidationError>
where
    G: GraphView,
    C: EdgeColor,
{
    let color_of = |i: usize| colors[i].color();
    let mut rooted: Vec<Option<RootedEdge>> = vec![None; g.num_edges()];
    // `reached_by[v]` is the number of the last search that reached `v`.
    let mut reached_by = vec![0usize; g.num_vertices()];
    let mut searches = 0;
    let mut queue: Vec<(VertexId, usize)> = Vec::new();
    for root in g.vertices() {
        for (_, e) in g.incidences(root) {
            // `root` is the minimum of an unreached edge's tree: a smaller
            // vertex of that tree would have rooted it.
            let c = match color_of(e.index()) {
                Some(c) if rooted[e.index()].is_none() => c,
                _ => continue,
            };
            searches += 1;
            reached_by[root.index()] = searches;
            queue.clear();
            queue.push((root, 0));
            let mut head = 0;
            while let Some(&(u, depth)) = queue.get(head) {
                head += 1;
                for (w, f) in g.incidences(u) {
                    if rooted[f.index()].is_some() || color_of(f.index()) != Some(c) {
                        continue;
                    }
                    if reached_by[w.index()] == searches {
                        // `f` closes a cycle: report the class and witness
                        // the diameter kernel names.
                        return Err(max_diameter_of_colors(g, colors)
                            .expect_err("a class that is not a forest"));
                    }
                    reached_by[w.index()] = searches;
                    let depth = depth + 1;
                    rooted[f.index()] = Some(RootedEdge { child: w, depth });
                    queue.push((w, depth));
                }
            }
        }
    }
    Ok(rooted)
}

/// Checks that every tree in every color class has diameter at most `bound`.
///
/// # Errors
///
/// Returns [`ValidationError::LengthMismatch`] when the coloring does not
/// cover exactly the edges of `g`, and
/// [`ValidationError::DiameterExceeded`] for the first violating color
/// class.
pub fn validate_diameter_bound<G: GraphView>(
    g: &G,
    coloring: &PartialEdgeColoring,
    bound: usize,
) -> Result<(), ValidationError> {
    check_length(g, coloring.len())?;
    let mut in_class = vec![false; g.num_edges()];
    for (color, class) in ColorClasses::new(&coloring.colors).iter() {
        for &e in class {
            in_class[e.index()] = true;
        }
        let measured = traversal::forest_diameter(g, |e| in_class[e.index()]);
        for &e in class {
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
    use crate::view::EdgeList;

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
    fn diameter_checks_reject_a_coloring_of_the_wrong_length() {
        let g = triangle();
        for len in [2, 4] {
            let mismatch = Err(ValidationError::LengthMismatch {
                coloring_len: len,
                num_edges: 3,
            });
            let fd = ForestDecomposition::from_colors((0..len).map(c).collect());
            assert_eq!(fd.max_diameter(&g), mismatch, "{len} colors");
            assert_eq!(
                validate_diameter_bound(&g, &fd.to_partial(), 3),
                mismatch.clone().map(|_| ()),
                "{len} colors"
            );
            let mismatch = mismatch.map(|_| vec![]);
            assert_eq!(fd.rooted_edges(&g), mismatch, "{len} colors");
            assert_eq!(fd.to_partial().rooted_edges(&g), mismatch, "{len} colors");
        }
    }

    #[test]
    #[should_panic(expected = "coloring has 2 entries but the graph has 3 edges")]
    fn max_forest_diameter_panics_on_a_short_coloring() {
        max_forest_diameter(&triangle(), &PartialEdgeColoring::new_uncolored(2));
    }

    #[test]
    #[should_panic(expected = "coloring has 8 entries but the graph has 3 edges")]
    fn max_forest_diameter_panics_on_a_long_coloring() {
        max_forest_diameter(&triangle(), &PartialEdgeColoring::new_uncolored(8));
    }

    /// Color 0 holds a forest edge; color 1 holds a pendant edge (id 1)
    /// and then `rest`, which is not a forest.
    fn pendant_then(rest: &[(usize, usize)]) -> (EdgeList, ForestDecomposition) {
        let mut edges = vec![(VertexId::new(4), VertexId::new(5))];
        edges.push((VertexId::new(3), VertexId::new(0)));
        edges.extend(
            rest.iter()
                .map(|&(a, b)| (VertexId::new(a), VertexId::new(b))),
        );
        let mut colors = vec![c(0)];
        colors.resize(edges.len(), c(1));
        (
            EdgeList { n: 6, edges },
            ForestDecomposition::from_colors(colors),
        )
    }

    #[test]
    fn max_diameter_rejects_a_class_that_is_not_a_forest() {
        // The peel removes the pendant edge 1 and nothing else of color 1,
        // so the error names edge 2, the lowest-id edge it left.
        let cases: [(&str, &[(usize, usize)]); 3] = [
            ("a triangle", &[(0, 1), (1, 2), (2, 0)]),
            ("two parallel edges", &[(0, 1), (1, 0)]),
            ("a self-loop", &[(0, 0)]),
        ];
        for (what, rest) in cases {
            let (g, fd) = pendant_then(rest);
            let cycle = ValidationError::CycleInColorClass {
                color: c(1),
                witness: e(2),
            };
            assert_eq!(fd.max_diameter(&g), Err(cycle.clone()), "{what}");
            // The rooting kernel reports the class and witness the peel
            // names, from both coloring types.
            assert_eq!(fd.rooted_edges(&g), Err(cycle.clone()), "{what}");
            assert_eq!(fd.to_partial().rooted_edges(&g), Err(cycle), "{what}");
        }
        // With its last edge moved to color 2, the triangle leaves the path
        // 3-0-1-2 and the parallel pair the path 3-0-1.
        for (what, rest) in &cases[..2] {
            let (g, fd) = pendant_then(rest);
            let mut colors = fd.colors().to_vec();
            *colors.last_mut().unwrap() = c(2);
            let fd = ForestDecomposition::from_colors(colors);
            assert_eq!(fd.max_diameter(&g), Ok(rest.len()), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "every color class is a forest")]
    fn max_forest_diameter_panics_on_a_class_that_is_not_a_forest() {
        let (g, fd) = pendant_then(&[(0, 1), (1, 2), (2, 0)]);
        max_forest_diameter(&g, &fd.to_partial());
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
