//! Cole–Vishkin coloring of rooted forests.
//!
//! Theorem 2.1(3) of the paper turns an acyclic `t`-orientation into a
//! `3t`-star-forest decomposition by 3-coloring the vertices of each rooted
//! tree with the Cole–Vishkin procedure in `O(log* n)` rounds. This module
//! implements that procedure faithfully on the per-color rooted forests: the
//! iterated bit-trick reduction to 6 colors, followed by the shift-down and
//! color-elimination phase down to 3 colors.

use crate::rounds::RoundLedger;
use forest_graph::VertexId;

/// A rooted forest given by parent pointers (`None` for roots).
///
/// This is deliberately decoupled from [`forest_graph::MultiGraph`]: the
/// callers (Theorem 2.1(3)) build one rooted forest per out-edge label, whose
/// parent pointers come from the orientation rather than from a subgraph.
#[derive(Clone, Debug)]
pub struct RootedForestView {
    /// Parent of each vertex, `None` for roots.
    pub parent: Vec<Option<VertexId>>,
}

impl RootedForestView {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the view has no vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Validates that the parent pointers are acyclic (a genuine forest).
    pub fn is_acyclic(&self) -> bool {
        let n = self.parent.len();
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; n];
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = start;
            loop {
                if state[cur] == 1 {
                    return false;
                }
                if state[cur] == 2 {
                    break;
                }
                state[cur] = 1;
                chain.push(cur);
                match self.parent[cur] {
                    Some(p) => cur = p.index(),
                    None => break,
                }
            }
            for v in chain {
                state[v] = 2;
            }
        }
        true
    }
}

/// Result of the Cole–Vishkin 3-coloring.
#[derive(Clone, Debug)]
pub struct TreeColoring {
    /// Color of each vertex, in `{0, 1, 2}`.
    pub color: Vec<u8>,
    /// Number of LOCAL rounds used (`O(log* n)`).
    pub rounds: usize,
}

/// Index of the lowest bit where `a` and `b` differ (they must differ).
fn lowest_differing_bit(a: u64, b: u64) -> u32 {
    debug_assert_ne!(a, b);
    (a ^ b).trailing_zeros()
}

/// Properly 3-colors the vertices of a rooted forest with the Cole–Vishkin
/// procedure, charging the used rounds to `ledger`.
///
/// # Panics
///
/// Panics if the parent pointers contain a cycle.
pub fn cole_vishkin_three_coloring(
    forest: &RootedForestView,
    ledger: &mut RoundLedger,
) -> TreeColoring {
    assert!(forest.is_acyclic(), "parent pointers must form a forest");
    let n = forest.len();
    if n == 0 {
        return TreeColoring {
            color: Vec::new(),
            rounds: 0,
        };
    }
    // Start from the unique IDs as colors.
    let mut colors: Vec<u64> = (0..n as u64).collect();
    let mut rounds = 0usize;
    // Iterated Cole–Vishkin reduction: new color = 2 * (index of lowest
    // differing bit with the parent) + (own bit at that index). Roots pretend
    // their parent has a different color (flip the lowest bit of their own).
    // Starting from 64-bit identifiers the colors shrink to {0..5} within
    // O(log* n) iterations.
    while colors.iter().any(|&c| c >= 6) {
        let snapshot = colors.clone();
        for v in 0..n {
            let own = snapshot[v];
            let parent_color = match forest.parent[v] {
                Some(p) => snapshot[p.index()],
                // Roots compare against a virtual parent that differs in bit 0.
                None => own ^ 1,
            };
            let idx = lowest_differing_bit(own, parent_color);
            colors[v] = 2 * u64::from(idx) + ((own >> idx) & 1);
        }
        rounds += 1;
        assert!(rounds <= 64, "Cole-Vishkin reduction failed to converge");
    }
    // At this point colors are in {0..5} and adjacent (child, parent) pairs
    // differ. Eliminate colors 5, 4, 3 one at a time using shift-down.
    let mut colors: Vec<u8> = colors
        .iter()
        .map(|&c| u8::try_from(c).expect("Cole-Vishkin colors reduced into 0..6"))
        .collect();
    for eliminate in (3u8..6).rev() {
        // Shift down: every non-root vertex adopts its parent's color; roots
        // pick a color different from their own previous color (and hence
        // different from their children's new color, which is the root's old
        // color). This keeps the coloring proper and makes siblings agree.
        let snapshot = colors.clone();
        for v in 0..n {
            colors[v] = match forest.parent[v] {
                Some(p) => snapshot[p.index()],
                None => (snapshot[v] + 1) % 3,
            };
        }
        rounds += 1;
        // Recolor vertices currently colored `eliminate` with a color in
        // {0,1,2} unused by their parent and children. After shift-down all
        // children share the same color, so parent + children occupy at most 2
        // colors and a free one exists.
        let snapshot = colors.clone();
        let mut child_color: Vec<Option<u8>> = vec![None; n];
        for (v, parent) in forest.parent.iter().enumerate() {
            if let Some(p) = parent {
                child_color[p.index()] = Some(snapshot[v]);
            }
        }
        for v in 0..n {
            if snapshot[v] != eliminate {
                continue;
            }
            let parent_color = forest.parent[v].map(|p| snapshot[p.index()]);
            let free = (0u8..3)
                .find(|&c| Some(c) != parent_color && Some(c) != child_color[v])
                .expect("three colors always leave one free");
            colors[v] = free;
        }
        rounds += 1;
    }
    ledger.charge("Cole-Vishkin 3-coloring", rounds);
    TreeColoring {
        color: colors,
        rounds,
    }
}

/// Checks that a coloring is proper on the rooted forest (every non-root
/// differs from its parent).
#[cfg(test)]
fn is_proper_coloring(forest: &RootedForestView, color: &[u8]) -> bool {
    forest
        .parent
        .iter()
        .enumerate()
        .all(|(v, p)| p.is_none_or(|p| color[v] != color[p.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn path_forest(n: usize) -> RootedForestView {
        // 0 <- 1 <- 2 <- ... (vertex i's parent is i-1).
        RootedForestView {
            parent: (0..n)
                .map(|i| {
                    if i == 0 {
                        None
                    } else {
                        Some(VertexId::new(i - 1))
                    }
                })
                .collect(),
        }
    }

    fn random_forest(n: usize, seed: u64) -> RootedForestView {
        let mut rng = StdRng::seed_from_u64(seed);
        RootedForestView {
            parent: (0..n)
                .map(|i| {
                    if i == 0 || rng.gen_bool(0.1) {
                        None
                    } else {
                        Some(VertexId::new(rng.gen_range(0..i)))
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn colors_path_properly_with_three_colors() {
        let forest = path_forest(200);
        let mut ledger = RoundLedger::new();
        let coloring = cole_vishkin_three_coloring(&forest, &mut ledger);
        assert!(coloring.color.iter().all(|&c| c < 3));
        assert!(is_proper_coloring(&forest, &coloring.color));
        assert!(ledger.total_rounds() > 0);
        // O(log* n) + O(1): a generous constant bound.
        assert!(coloring.rounds <= 20, "rounds = {}", coloring.rounds);
    }

    #[test]
    fn colors_random_forests_properly() {
        for seed in 0..5u64 {
            let forest = random_forest(300, seed);
            assert!(forest.is_acyclic());
            let mut ledger = RoundLedger::new();
            let coloring = cole_vishkin_three_coloring(&forest, &mut ledger);
            assert!(coloring.color.iter().all(|&c| c < 3));
            assert!(is_proper_coloring(&forest, &coloring.color), "seed {seed}");
        }
    }

    #[test]
    fn star_forest_colors() {
        // A star rooted at 0: all others are children of 0.
        let forest = RootedForestView {
            parent: (0..50)
                .map(|i| if i == 0 { None } else { Some(VertexId::new(0)) })
                .collect(),
        };
        let mut ledger = RoundLedger::new();
        let coloring = cole_vishkin_three_coloring(&forest, &mut ledger);
        assert!(is_proper_coloring(&forest, &coloring.color));
    }

    #[test]
    fn empty_and_singleton_forests() {
        let mut ledger = RoundLedger::new();
        let empty = RootedForestView { parent: Vec::new() };
        assert!(empty.is_empty());
        let coloring = cole_vishkin_three_coloring(&empty, &mut ledger);
        assert!(coloring.color.is_empty());
        let single = RootedForestView { parent: vec![None] };
        let coloring = cole_vishkin_three_coloring(&single, &mut ledger);
        assert_eq!(coloring.color.len(), 1);
        assert!(coloring.color[0] < 3);
    }

    #[test]
    fn cycle_detection_rejects_bad_input() {
        let bad = RootedForestView {
            parent: vec![Some(VertexId::new(1)), Some(VertexId::new(0))],
        };
        assert!(!bad.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "must form a forest")]
    fn coloring_panics_on_cycle() {
        let bad = RootedForestView {
            parent: vec![Some(VertexId::new(1)), Some(VertexId::new(0))],
        };
        let mut ledger = RoundLedger::new();
        cole_vishkin_three_coloring(&bad, &mut ledger);
    }

    #[test]
    fn lowest_differing_bit_examples() {
        assert_eq!(lowest_differing_bit(0b1010, 0b1000), 1);
        assert_eq!(lowest_differing_bit(5, 4), 0);
        assert_eq!(lowest_differing_bit(8, 0), 3);
    }
}
