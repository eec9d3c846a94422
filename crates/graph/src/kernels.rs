//! Flat-array scan kernels written for auto-vectorization.
//!
//! The decomposition hot loops spend much of their time in dense linear
//! scans over per-vertex or per-edge arrays: "all active vertices whose
//! degree dropped below the peel threshold", "the edges whose endpoints are
//! both required". These kernels centralize those scans
//! over flat `u32` / `u8` arrays in a shape LLVM reliably vectorizes:
//! fixed-width [`chunks_exact`](slice::chunks_exact) bodies with branchless
//! per-lane masks, and a scalar tail for the remainder. Callers keep their
//! data as structure-of-arrays (`Vec<u32>` degrees, `Vec<u8>` masks) and
//! call in here instead of writing ad-hoc `iter().filter()` chains.
//!
//! The module also provides [`StampSet`], the epoch-stamped membership set
//! behind the "no `O(n)` clears" idiom used by the ball-local cluster
//! pipeline: a `Vec<u32>` of stamps plus a current epoch, where resetting
//! the set is a single integer increment and membership is one load plus a
//! compare. Algorithms that probe thousands of small neighborhoods over one
//! large graph reuse a single `StampSet` instead of allocating (and
//! clearing) a fresh `vec![false; n]` per probe.

/// Lane width for the chunked scan loops. Wide enough to fill 256-bit
/// vector units after unrolling; the exact value only affects performance,
/// never results.
const LANES: usize = 16;

/// Collects the indices `i` with `active[i] != 0` and
/// `values[i] <= threshold` into `out` (cleared first), in ascending order.
///
/// This is the H-partition peel-candidate selection: `values` are the
/// current active degrees, `active` the not-yet-peeled mask. The chunk body
/// computes a branchless per-lane flag vector and skips index
/// materialization entirely for all-miss chunks, so sparse late rounds scan
/// at memory bandwidth.
///
/// # Panics
///
/// Panics if `values` and `active` have different lengths.
pub fn select_le_masked(values: &[u32], active: &[u8], threshold: u32, out: &mut Vec<u32>) {
    assert_eq!(
        values.len(),
        active.len(),
        "values/active length mismatch in select_le_masked"
    );
    out.clear();
    let mut base = 0usize;
    let value_chunks = values.chunks_exact(LANES);
    let value_tail = value_chunks.remainder();
    let mut active_chunks = active.chunks_exact(LANES);
    for chunk in value_chunks {
        let act = active_chunks.next().expect("equal lengths");
        let mut flags = [0u8; LANES];
        let mut any = 0u32;
        for i in 0..LANES {
            let hit = u8::from(act[i] != 0) & u8::from(chunk[i] <= threshold);
            flags[i] = hit;
            any += u32::from(hit);
        }
        if any != 0 {
            for (i, &hit) in flags.iter().enumerate() {
                if hit != 0 {
                    out.push((base + i) as u32);
                }
            }
        }
        base += LANES;
    }
    let active_tail = active_chunks.remainder();
    for (i, (&v, &a)) in value_tail.iter().zip(active_tail).enumerate() {
        if a != 0 && v <= threshold {
            out.push((base + i) as u32);
        }
    }
}

/// Deduplicating gather: appends the first occurrence of every id across
/// `runs` to `out` (cleared first), then sorts ascending.
///
/// This is the incidence-union scan of the cluster pipeline ("all edges
/// incident to these vertices, ascending, each once"): instead of the
/// `extend` + `sort_unstable` + `dedup` chain — which sorts every duplicate
/// before squeezing it out — duplicates are dropped up front by the
/// epoch-stamped `seen` set (cleared on entry, must have a slot for every
/// id `key` can produce), so the sort runs over unique ids only. The item
/// type stays generic so id newtypes (`EdgeId`, `VertexId`) pass through
/// without re-encoding.
pub fn gather_unique_sorted<T, R, RS, K>(runs: RS, key: K, seen: &mut StampSet, out: &mut Vec<T>)
where
    T: Copy + Ord,
    R: IntoIterator<Item = T>,
    RS: IntoIterator<Item = R>,
    K: Fn(T) -> usize,
{
    out.clear();
    seen.clear();
    for run in runs {
        for item in run {
            if seen.insert(key(item)) {
                out.push(item);
            }
        }
    }
    out.sort_unstable();
}

/// Selects the `(item, u, v)` entries whose endpoint pair passes the
/// two-mask rule `required[u] && required[v] && !(excluded[u] &&
/// excluded[v])`, then the per-item predicate `keep`, into `out` (cleared
/// first; input order is preserved).
///
/// This is the CUT eligible-edge filter shape: `required` is the view mask,
/// `excluded` the core mask (an eligible edge lies inside the view but must
/// leave the core). The mask tests fold branchlessly (`&` on `bool`s, one
/// load per endpoint) and short-circuit the — typically costlier — `keep`
/// lookup.
pub fn select_edges_masked<T, I, P>(
    edges: I,
    required: &[bool],
    excluded: &[bool],
    mut keep: P,
    out: &mut Vec<T>,
) where
    T: Copy,
    I: IntoIterator<Item = (T, usize, usize)>,
    P: FnMut(T) -> bool,
{
    out.clear();
    for (item, u, v) in edges {
        let masked = required[u] & required[v] & !(excluded[u] & excluded[v]);
        if masked && keep(item) {
            out.push(item);
        }
    }
}

/// An epoch-stamped membership set over ids `0..len`: `O(1)` logical clear,
/// one load per membership test, no per-reset allocation.
///
/// Instead of a `vec![false; len]` that must be zeroed between uses, every
/// slot holds the epoch at which it was last inserted; a slot is a member
/// exactly when its stamp equals the current epoch, so [`StampSet::clear`]
/// is a single increment. When the `u32` epoch would wrap, the stamps are
/// rewritten once — amortized cost zero.
#[derive(Clone, Debug)]
pub struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Default for StampSet {
    /// An empty zero-slot set (same as `StampSet::new(0)`); grow with
    /// [`StampSet::resize`]. A derived default would set `epoch` to `0`,
    /// which the zeroed stamps would read as "everything is a member".
    fn default() -> Self {
        StampSet::new(0)
    }
}

impl StampSet {
    /// An empty set over ids `0..len`.
    pub fn new(len: usize) -> Self {
        StampSet {
            stamp: vec![0; len],
            epoch: 1,
        }
    }

    /// Number of id slots.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// `true` when the set has no slots at all (note: *slots*, not members).
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Grows the slot space to at least `len` ids (never shrinks).
    pub fn resize(&mut self, len: usize) {
        if len > self.stamp.len() {
            self.stamp.resize(len, 0);
        }
    }

    /// Removes every member in `O(1)` by advancing the epoch.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Inserts `id`; returns `true` if it was not yet a member.
    pub fn insert(&mut self, id: usize) -> bool {
        let fresh = self.stamp[id] != self.epoch;
        self.stamp[id] = self.epoch;
        fresh
    }

    /// Membership test.
    pub fn contains(&self, id: usize) -> bool {
        self.stamp[id] == self.epoch
    }

    /// Removes `id` (idempotent).
    pub fn remove(&mut self, id: usize) {
        self.stamp[id] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_le_masked_matches_filter() {
        let n = 531; // exercises both the chunked body and the tail
        let values: Vec<u32> = (0..n).map(|i| (i * 37 % 100) as u32).collect();
        let active: Vec<u8> = (0..n).map(|i| u8::from(i % 3 != 0)).collect();
        let mut out = Vec::new();
        select_le_masked(&values, &active, 42, &mut out);
        let expect: Vec<u32> = (0..n as u32)
            .filter(|&i| active[i as usize] != 0 && values[i as usize] <= 42)
            .collect();
        assert_eq!(out, expect);
        // `out` is cleared on entry.
        select_le_masked(&values, &active, 0, &mut out);
        assert!(out.iter().all(|&i| values[i as usize] == 0));
    }

    #[test]
    fn gather_unique_sorted_matches_sort_dedup() {
        // Overlapping runs with duplicates within and across runs.
        let runs: Vec<Vec<u32>> = vec![vec![5, 1, 9, 1], vec![], vec![9, 3, 5], vec![0]];
        let mut seen = StampSet::new(10);
        let mut out: Vec<u32> = vec![42]; // must be cleared on entry
        gather_unique_sorted(
            runs.iter().map(|r| r.iter().copied()),
            |v| v as usize,
            &mut seen,
            &mut out,
        );
        let mut expect: Vec<u32> = runs.iter().flatten().copied().collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(out, expect);
        // The seen set is cleared on entry, so back-to-back calls work.
        gather_unique_sorted(
            runs.iter().map(|r| r.iter().copied()),
            |v| v as usize,
            &mut seen,
            &mut out,
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn select_edges_masked_matches_filter() {
        let required = [true, true, true, false, true];
        let excluded = [true, true, false, false, false];
        let edges = [(0u32, 0usize, 1usize), (1, 0, 2), (2, 2, 4), (3, 1, 3)];
        let mut out: Vec<u32> = vec![7]; // must be cleared on entry
        select_edges_masked(
            edges.iter().copied(),
            &required,
            &excluded,
            |e| e != 2,
            &mut out,
        );
        let expect: Vec<u32> = edges
            .iter()
            .filter(|&&(e, u, v)| {
                required[u] && required[v] && !(excluded[u] && excluded[v]) && e != 2
            })
            .map(|&(e, _, _)| e)
            .collect();
        assert_eq!(out, expect);
        // Edge (0,1) is core-internal, (1,3) leaves the view, (2,4) is
        // filtered by the predicate: only edge 1 (0,2) survives.
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn stamp_set_clear_is_logical() {
        let mut set = StampSet::new(5);
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.contains(3));
        set.clear();
        assert!(!set.contains(3));
        assert!(set.insert(3));
        set.remove(3);
        assert!(!set.contains(3));
        set.resize(8);
        assert_eq!(set.len(), 8);
        assert!(set.insert(7));
    }

    #[test]
    fn stamp_set_survives_epoch_wrap() {
        let mut set = StampSet::new(3);
        set.epoch = u32::MAX - 1;
        set.insert(0);
        set.clear(); // epoch hits u32::MAX
        set.insert(1);
        set.clear(); // wrap: stamps rewritten
        assert!(!set.contains(0));
        assert!(!set.contains(1));
        set.insert(2);
        assert!(set.contains(2));
    }
}
