//! Disjoint-set union (union-find) with path compression and union by rank.
//!
//! Used by spanning-forest extraction, forest validation and the matroid
//! partition baseline.

use crate::ids::u32_of;

/// A disjoint-set union structure over `0..n`.
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
    /// Compact `u32` parents: half the memory traffic of `usize` — these
    /// arrays are the hot working set of the matroid fast path and shard
    /// stitching, so cache residency matters more than headroom (graphs are
    /// `u32`-indexed throughout the workspace anyway).
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates a structure with `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (the workspace's graphs are
    /// `u32`-indexed everywhere).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "UnionFind is u32-indexed");
        UnionFind {
            parent: (0..u32_of(n)).collect(),
            rank: vec![0; n],
        }
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
        self.parent.len()
    }

    /// Returns `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x` (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = u32_of(x);
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = u32_of(x);
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root as usize
    }

    /// Merges the sets containing `x` and `y`.
    ///
    /// Returns `true` if the sets were previously distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
        let (hi, lo) = if self.rank[rx] >= self.rank[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo] = u32_of(hi);
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
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

    #[test]
    fn chain_unions_produce_single_component() {
        let n = 100;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            assert!(uf.union(i, i + 1));
        }
        assert!(uf.connected(0, n - 1));
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
    }
}
