//! Per-edge color palettes for list-forest decompositions.
//!
//! In a *k-list-forest decomposition* every edge `e` carries a palette
//! `Q(e)` of at least `k` allowed colors, and the chosen color must come from
//! the palette while every color class stays a forest (Section 1 of the
//! paper; Seymour showed `α(G)`-LFD always exists).
//!
//! # Layout
//!
//! All palettes live in one flat color array, edge after edge, and an
//! offset array of `m + 1` entries marks where each one starts: the palette
//! of edge `e` is `colors[offsets[e]..offsets[e + 1]]`. Building `m`
//! palettes therefore costs two allocations rather than `m + 1`, and a scan
//! over every palette walks one contiguous array. The offsets stay `usize`:
//! the total palette length `m·k` can exceed `u32::MAX` even when `m`
//! cannot. Replacing one palette with [`ListAssignment::set_palette`] costs
//! `O(1)` per color when the length is unchanged and shifts the tail of both
//! arrays otherwise.

use crate::ids::{Color, EdgeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A list (palette) assignment: one sorted, deduplicated palette per edge,
/// stored flat (see the [module docs](self#layout)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ListAssignment {
    /// `offsets[e]..offsets[e + 1]` indexes edge `e`'s palette in `colors`.
    offsets: Vec<usize>,
    /// Every palette, concatenated in edge order.
    colors: Vec<Color>,
}

impl ListAssignment {
    /// An assignment of no palettes with room for `num_edges` of them.
    fn with_capacity(num_edges: usize, num_colors: usize) -> Self {
        let mut offsets = Vec::with_capacity(num_edges + 1);
        offsets.push(0);
        ListAssignment {
            offsets,
            colors: Vec::with_capacity(num_colors),
        }
    }

    /// Closes the palette of the next edge: the colors pushed since the
    /// previous one.
    fn end_palette(&mut self) {
        self.offsets.push(self.colors.len());
    }

    /// Every edge receives the uniform palette `{0, .., k-1}`.
    ///
    /// This models ordinary (non-list) `k`-forest decomposition as the
    /// special case `Q(e) = C = [k]`.
    pub fn uniform(num_edges: usize, k: usize) -> Self {
        let total = num_edges
            .checked_mul(k)
            .expect("uniform palettes overflow usize");
        let mut lists = ListAssignment::with_capacity(num_edges, total);
        for _ in 0..num_edges {
            lists.colors.extend((0..k).map(Color::new));
            lists.end_palette();
        }
        lists
    }

    /// Builds an assignment from explicit palettes (they are sorted and
    /// deduplicated).
    pub fn from_palettes(palettes: Vec<Vec<Color>>) -> Self {
        let total = palettes.iter().map(Vec::len).sum();
        let mut lists = ListAssignment::with_capacity(palettes.len(), total);
        for mut p in palettes {
            p.sort_unstable();
            p.dedup();
            lists.colors.extend_from_slice(&p);
            lists.end_palette();
        }
        lists
    }

    /// Every edge receives a uniformly random `palette_size`-subset of the
    /// color space `{0, .., colorspace - 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `palette_size > colorspace`.
    pub fn random<R: Rng + ?Sized>(
        num_edges: usize,
        colorspace: usize,
        palette_size: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            palette_size <= colorspace,
            "palette size cannot exceed the color space"
        );
        let all: Vec<Color> = (0..colorspace).map(Color::new).collect();
        let total = num_edges
            .checked_mul(palette_size)
            .expect("random palettes overflow usize");
        let mut lists = ListAssignment::with_capacity(num_edges, total);
        for _ in 0..num_edges {
            let start = lists.colors.len();
            lists
                .colors
                .extend(all.choose_multiple(rng, palette_size).copied());
            lists.colors[start..].sort_unstable();
            lists.end_palette();
        }
        lists
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if no edges are covered.
    pub fn is_empty(&self) -> bool {
        self.num_edges() == 0
    }

    /// The palette of edge `e`.
    #[inline]
    pub fn palette(&self, e: EdgeId) -> &[Color] {
        &self.colors[self.offsets[e.index()]..self.offsets[e.index() + 1]]
    }

    /// Returns `true` if color `c` is in the palette of `e`.
    #[inline]
    pub fn contains(&self, e: EdgeId, c: Color) -> bool {
        self.palette(e).binary_search(&c).is_ok()
    }

    /// Palette sizes in edge order.
    fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Size of the smallest palette (`usize::MAX` when there are no edges).
    pub fn min_palette_size(&self) -> usize {
        self.sizes().min().unwrap_or(usize::MAX)
    }

    /// Size of the largest palette (0 when there are no edges).
    pub fn max_palette_size(&self) -> usize {
        self.sizes().max().unwrap_or(0)
    }

    /// Number of distinct colors appearing in any palette.
    pub fn colorspace_size(&self) -> usize {
        let mut all = self.colors.clone();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// Returns a new assignment keeping only the `(edge, color)` pairs
    /// accepted by `keep`. Used to build the induced palettes `Q_0`, `Q_1` of
    /// a vertex-color-splitting (Definition 4.7).
    pub fn filter<F>(&self, mut keep: F) -> ListAssignment
    where
        F: FnMut(EdgeId, Color) -> bool,
    {
        let mut kept = ListAssignment::with_capacity(self.num_edges(), 0);
        for i in 0..self.num_edges() {
            let e = EdgeId::new(i);
            let palette = self.palette(e).iter().copied();
            kept.colors.extend(palette.filter(|&c| keep(e, c)));
            kept.end_palette();
        }
        kept
    }

    /// Replaces the palette of a single edge (sorted and deduplicated).
    pub fn set_palette(&mut self, e: EdgeId, mut palette: Vec<Color>) {
        palette.sort_unstable();
        palette.dedup();
        let (start, end) = (self.offsets[e.index()], self.offsets[e.index() + 1]);
        let new_end = start + palette.len();
        self.colors.splice(start..end, palette);
        if new_end != end {
            for offset in &mut self.offsets[e.index() + 1..] {
                *offset = *offset - end + new_end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(i: usize) -> Color {
        Color::new(i)
    }

    fn e(i: usize) -> EdgeId {
        EdgeId::new(i)
    }

    #[test]
    fn uniform_palettes() {
        let lists = ListAssignment::uniform(3, 4);
        assert_eq!(lists.num_edges(), 3);
        assert!(!lists.is_empty());
        assert_eq!(lists.palette(e(1)).len(), 4);
        assert!(lists.contains(e(0), c(3)));
        assert!(!lists.contains(e(0), c(4)));
        assert_eq!(lists.min_palette_size(), 4);
        assert_eq!(lists.max_palette_size(), 4);
        assert_eq!(lists.colorspace_size(), 4);
    }

    #[test]
    fn from_palettes_sorts_and_dedups() {
        let lists = ListAssignment::from_palettes(vec![vec![c(3), c(1), c(3)], vec![c(0)]]);
        assert_eq!(lists.palette(e(0)), &[c(1), c(3)]);
        assert_eq!(lists.min_palette_size(), 1);
        assert_eq!(lists.colorspace_size(), 3);
    }

    #[test]
    fn random_palettes_have_requested_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let lists = ListAssignment::random(20, 10, 4, &mut rng);
        assert_eq!(lists.num_edges(), 20);
        for i in 0..20 {
            assert_eq!(lists.palette(e(i)).len(), 4);
            for &col in lists.palette(e(i)) {
                assert!(col.index() < 10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "palette size cannot exceed")]
    fn random_palettes_reject_oversized_request() {
        let mut rng = StdRng::seed_from_u64(7);
        ListAssignment::random(1, 3, 5, &mut rng);
    }

    #[test]
    fn filter_restricts_palettes() {
        let lists = ListAssignment::uniform(2, 4);
        let even = lists.filter(|_, col| col.index() % 2 == 0);
        assert_eq!(even.palette(e(0)), &[c(0), c(2)]);
        assert_eq!(even.min_palette_size(), 2);
        let nothing = lists.filter(|_, _| false);
        assert_eq!(nothing.min_palette_size(), 0);
    }

    #[test]
    fn set_palette_replaces_single_edge() {
        let mut lists = ListAssignment::uniform(2, 2);
        lists.set_palette(e(1), vec![c(9), c(5), c(9)]);
        assert_eq!(lists.palette(e(1)), &[c(5), c(9)]);
        assert_eq!(lists.palette(e(0)), &[c(0), c(1)]);
    }

    #[test]
    fn empty_assignment() {
        let lists = ListAssignment::uniform(0, 3);
        assert!(lists.is_empty());
        assert_eq!(lists.min_palette_size(), usize::MAX);
        assert_eq!(lists.max_palette_size(), 0);
    }
}
