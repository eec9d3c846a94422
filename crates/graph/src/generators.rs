//! Synthetic graph generators used as benchmark workloads.
//!
//! The paper has no empirical section, so the benchmark harness measures the
//! algorithms on synthetic families whose arboricity is known (or cheaply
//! computable exactly): planted forest unions, fat paths (the Proposition C.1
//! lower-bound instance), cliques, grids, hypercubes and
//! preferential-attachment graphs.

use crate::ids::VertexId;
use crate::multigraph::{MultiGraph, SimpleGraph};
use rand::seq::SliceRandom;
use rand::Rng;

/// The "fat path" multigraph of Proposition C.1: `len + 1` vertices arranged
/// on a line with `multiplicity` parallel edges between consecutive vertices.
///
/// Its arboricity equals `multiplicity`, its maximum degree is
/// `2 * multiplicity`, and any `(1+ε)·multiplicity`-forest decomposition has
/// a tree of diameter `Ω(1/ε)`.
pub fn fat_path(len: usize, multiplicity: usize) -> MultiGraph {
    let mut g = MultiGraph::new(len + 1);
    for i in 0..len {
        for _ in 0..multiplicity {
            g.add_edge(VertexId::new(i), VertexId::new(i + 1))
                .expect("valid fat path edge");
        }
    }
    g
}

/// A path with `n` vertices and `n-1` edges.
pub fn path(n: usize) -> MultiGraph {
    fat_path(n.saturating_sub(1), 1)
}

/// A cycle on `n ≥ 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> MultiGraph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    MultiGraph::from_pairs(n, &pairs).expect("valid cycle")
}

/// A star with one center and `leaves` leaves.
pub fn star(leaves: usize) -> MultiGraph {
    let mut g = MultiGraph::new(leaves + 1);
    for i in 0..leaves {
        g.add_edge(VertexId::new(0), VertexId::new(i + 1))
            .expect("valid star edge");
    }
    g
}

/// The complete graph `K_n` (arboricity `⌈n/2⌉`).
pub fn complete_graph(n: usize) -> MultiGraph {
    let mut g = MultiGraph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            g.add_edge(VertexId::new(i), VertexId::new(j))
                .expect("valid clique edge");
        }
    }
    g
}

/// An `rows × cols` grid graph (arboricity 2 for non-degenerate sizes).
pub fn grid(rows: usize, cols: usize) -> MultiGraph {
    let mut g = MultiGraph::new(rows * cols);
    let id = |r: usize, c: usize| VertexId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1)).expect("grid edge");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c)).expect("grid edge");
            }
        }
    }
    g
}

/// The `d`-dimensional hypercube (`2^d` vertices, degree `d`).
pub fn hypercube(d: usize) -> MultiGraph {
    let n = 1usize << d;
    let mut g = MultiGraph::new(n);
    for v in 0..n {
        for b in 0..d {
            let u = v ^ (1 << b);
            if u > v {
                g.add_edge(VertexId::new(v), VertexId::new(u))
                    .expect("hypercube edge");
            }
        }
    }
    g
}

/// A uniformly random labelled tree on `n` vertices (via a random Prüfer-like
/// attachment: vertex `i` attaches to a uniformly random earlier vertex).
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> MultiGraph {
    let mut g = MultiGraph::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(VertexId::new(i), VertexId::new(parent))
            .expect("valid tree edge");
    }
    g
}

/// A multigraph obtained as the union of `k` random spanning trees on `n`
/// vertices. Its arboricity is at most `k` and, for `n` not too small, almost
/// always exactly `k`. Parallel edges may occur (it is a multigraph).
pub fn planted_forest_union<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> MultiGraph {
    let mut g = MultiGraph::new(n);
    for _ in 0..k {
        // Random spanning tree: random permutation, attach each vertex to a
        // random earlier vertex of the permutation.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        for i in 1..n {
            let j = rng.gen_range(0..i);
            g.add_edge(VertexId::new(order[i]), VertexId::new(order[j]))
                .expect("valid planted edge");
        }
    }
    g
}

/// A *simple* graph with arboricity at most `k`, obtained as the union of `k`
/// random forests with duplicate edges skipped. Used for the star-forest
/// experiments, which require simple graphs.
pub fn planted_simple_arboricity<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> SimpleGraph {
    let mut g = SimpleGraph::new(n);
    for _ in 0..k {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        for i in 1..n {
            let j = rng.gen_range(0..i);
            // Skip duplicates silently: the union stays a union of forests.
            let _ = g.add_edge(VertexId::new(order[i]), VertexId::new(order[j]));
        }
    }
    g
}

/// A preferential-attachment ("social-network-like") simple graph: vertices
/// arrive one at a time and connect to `attach` distinct earlier vertices
/// chosen with probability proportional to their current degree plus one.
pub fn preferential_attachment<R: Rng + ?Sized>(
    n: usize,
    attach: usize,
    rng: &mut R,
) -> SimpleGraph {
    let mut g = SimpleGraph::new(n);
    // Repeated-endpoint list: each vertex appears once per incident edge plus
    // once unconditionally, giving the degree-plus-one attachment weights.
    let mut pool: Vec<usize> = vec![0];
    for v in 1..n {
        let targets_wanted = attach.min(v);
        // Deduplicated in insertion order: `targets` is tiny (≤ attach), and
        // a Vec keeps the edge-insertion order — and hence the generated
        // graph — identical across runs, where a HashSet would not (clippy's
        // `disallowed_types` and `iter_over_hash_type` keep one out).
        let mut targets: Vec<usize> = Vec::with_capacity(targets_wanted);
        let mut guard = 0;
        while targets.len() < targets_wanted && guard < 50 * (targets_wanted + 1) {
            let &t = pool.choose(rng).expect("pool is non-empty");
            if !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
        }
        // Fall back to the most recent vertices if sampling stalled.
        let mut fallback = v;
        while targets.len() < targets_wanted && fallback > 0 {
            fallback -= 1;
            if !targets.contains(&fallback) {
                targets.push(fallback);
            }
        }
        for &t in &targets {
            if g.add_edge(VertexId::new(v), VertexId::new(t)).is_ok() {
                pool.push(t);
                pool.push(v);
            }
        }
        pool.push(v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matroid::arboricity;
    use crate::traversal::{connected_components, is_forest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fat_path_shape() {
        let g = fat_path(4, 3);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.max_degree(), 6);
        assert_eq!(arboricity(&g), 3);
    }

    #[test]
    fn path_and_cycle_and_star() {
        let p = path(6);
        assert_eq!(p.num_edges(), 5);
        assert!(is_forest(&p, |_| true));
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(!is_forest(&c, |_| true));
        let s = star(7);
        assert_eq!(s.num_edges(), 7);
        assert_eq!(s.max_degree(), 7);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_rejected() {
        cycle(2);
    }

    #[test]
    fn complete_graphs() {
        let g = complete_graph(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.is_simple());
    }

    #[test]
    fn grid_and_hypercube() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert!(g.is_simple());
        let h = hypercube(3);
        assert_eq!(h.num_vertices(), 8);
        assert_eq!(h.num_edges(), 12);
        assert_eq!(h.max_degree(), 3);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = random_tree(50, &mut rng);
        assert_eq!(t.num_edges(), 49);
        assert!(is_forest(&t, |_| true));
        let (_, comps) = connected_components(&t, |_| true);
        assert_eq!(comps, 1);
    }

    #[test]
    fn planted_forest_union_has_planted_arboricity() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = planted_forest_union(40, 4, &mut rng);
        assert_eq!(g.num_edges(), 4 * 39);
        let a = arboricity(&g);
        assert!(a <= 4, "arboricity {a} exceeds planted bound");
        assert!(a >= 3, "arboricity {a} suspiciously small");
    }

    #[test]
    fn planted_simple_is_simple_and_sparse() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = planted_simple_arboricity(60, 3, &mut rng);
        assert!(g.graph().is_simple());
        assert!(g.graph().num_edges() <= 3 * 59);
        assert!(arboricity(g.graph()) <= 3);
    }

    #[test]
    fn preferential_attachment_is_connected_and_simple() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = preferential_attachment(80, 3, &mut rng);
        assert!(g.graph().is_simple());
        let (_, comps) = connected_components(g.graph(), |_| true);
        assert_eq!(comps, 1);
        assert!(g.graph().num_edges() >= 79);
    }
}
