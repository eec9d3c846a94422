//! Disjoint-set union (union-find) in one `i32` array: union by size and
//! single-pass path halving.
//!
//! Each entry holds its element's parent, or minus the size of its set at
//! a root, so a `find` step reads one array and a `union` reads the two
//! sizes where it already read the roots. Path halving points every other
//! element of a walked path at its grandparent in the same pass that finds
//! the root, so no second walk follows. Elements are `i32`: a structure
//! holds at most `i32::MAX` of them.
//!
//! Used by spanning-forest extraction, forest validation and the matroid
//! partition baseline. Every caller reads connectivity only: which element
//! `find` returns as a set's representative is not part of the contract.

/// A disjoint-set union structure over `0..n`, `n ≤ i32::MAX`: one `i32`
/// per element, the parent or, at a root, minus the set size.
///
/// ```
/// use forest_graph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert!(!uf.union(1, 0)); // already connected
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    /// Parent of each element, or minus its set's size at a root. Four
    /// bytes per element: this array is the hot working set of the matroid
    /// fast path and shard stitching, so cache residency matters more than
    /// headroom.
    link: Vec<i32>,
}

impl UnionFind {
    /// Creates a structure with `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `i32::MAX`: parents and set sizes share one
    /// `i32` per element.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= i32::MAX as usize,
            "UnionFind holds at most i32::MAX elements"
        );
        UnionFind { link: vec![-1; n] }
    }

    /// Builds a structure over `0..n` with every pair in `edges` unioned —
    /// the from-scratch ground truth the dynamic-connectivity tests compare
    /// against, and the one-liner behind per-color forest rebuilds.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut uf = UnionFind::new(n);
        for (x, y) in edges {
            uf.union(x, y);
        }
        uf
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.link.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.link.is_empty()
    }

    /// Finds the representative of `x`, halving the path on the way: each
    /// element visited is pointed at its grandparent.
    pub fn find(&mut self, mut x: usize) -> usize {
        loop {
            let parent = self.link[x];
            if parent < 0 {
                return x;
            }
            let grandparent = self.link[parent as usize];
            if grandparent < 0 {
                return parent as usize;
            }
            self.link[x] = grandparent;
            x = grandparent as usize;
        }
    }

    /// Merges the sets containing `x` and `y`, hanging the smaller under
    /// the larger.
    ///
    /// Returns `true` if the sets were previously distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (mut rx, mut ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        // Sizes are stored negated: the larger set has the smaller entry.
        if self.link[rx] > self.link[ry] {
            std::mem::swap(&mut rx, &mut ry);
        }
        self.link[rx] += self.link[ry];
        // forest-lint: allow(FL004) rx < n ≤ i32::MAX, asserted in `new`
        self.link[ry] = rx as i32;
        true
    }

    /// Returns `true` if `x` and `y` are in the same set.
    pub fn connected(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_components() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    /// A 1,000-element chain unioned forwards and backwards, and the same
    /// elements merged pairwise in rounds of doubling span, which builds
    /// the deepest trees union by size allows (depth log2 of the size);
    /// every element is then found and the root holds the size.
    #[test]
    fn chain_unions_produce_single_component() {
        let n = 1000;
        let forwards: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let backwards: Vec<(usize, usize)> = (0..n - 1).rev().map(|i| (i + 1, i)).collect();
        let doubling: Vec<(usize, usize)> = (0..10)
            .flat_map(|round| {
                let span = 1 << round;
                (0..n)
                    .step_by(2 * span)
                    .filter_map(move |i| (i + span < n).then_some((i, i + span)))
            })
            .collect();
        for pairs in [forwards, backwards, doubling] {
            let mut uf = UnionFind::new(n);
            for &(x, y) in &pairs {
                assert!(uf.union(x, y));
                assert!(!uf.union(y, x));
            }
            assert!(uf.connected(0, n - 1));
            let root = uf.find(0);
            for x in (0..n).rev() {
                assert_eq!(uf.find(x), root);
            }
            assert_eq!(uf.link[root], -(n as i32));
        }
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
        assert!(UnionFind::from_edges(0, []).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of `union`, `connected` and `find` on at most
        /// 64 elements against a labelling oracle that relabels the second
        /// set on every merge.
        #[test]
        fn matches_a_relabelling_oracle((n, seed) in (1..65usize, 0..u64::MAX)) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut uf = UnionFind::new(n);
            let mut label: Vec<usize> = (0..n).collect();
            for _ in 0..rng.gen_range(0..4 * n) {
                let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
                match rng.gen_range(0..3usize) {
                    0 => {
                        let (lx, ly) = (label[x], label[y]);
                        prop_assert_eq!(uf.union(x, y), lx != ly);
                        for l in &mut label {
                            if *l == ly {
                                *l = lx;
                            }
                        }
                    }
                    1 => prop_assert_eq!(uf.connected(x, y), label[x] == label[y]),
                    _ => {
                        let r = uf.find(x);
                        prop_assert_eq!(uf.find(r), r);
                        prop_assert_eq!(label[r], label[x]);
                    }
                }
            }
            // `find` is constant on each set, and each root stores its
            // set's size.
            let roots: Vec<usize> = (0..n).map(|x| uf.find(x)).collect();
            for x in 0..n {
                for y in 0..n {
                    prop_assert_eq!(roots[x] == roots[y], label[x] == label[y]);
                }
                let size = label.iter().filter(|&&l| l == label[x]).count();
                prop_assert_eq!(uf.link[roots[x]], -(size as i32));
            }
        }
    }
}
