//! Network decompositions.
//!
//! Two constructions are provided, matching the two tools the paper consumes:
//!
//! * [`network_decomposition`]: an `(O(log n), O(log n))` network
//!   decomposition — a partition of the vertices into `O(log n)` classes such
//!   that every connected component ("cluster") inside a class has diameter
//!   `O(log n)`. Built by iterated ball-carving (Awerbuch/Linial–Saks style);
//!   the balls stop growing as soon as the next layer would less than double
//!   the ball, which bounds the radius by `log₂ n` and defers fewer than half
//!   of the vertices to later classes.
//! * [`partial_network_decomposition`]: the Miller–Peng–Xu random-shift
//!   clustering — a single partition of all vertices into clusters of radius
//!   `O(log n / β)` w.h.p. such that each edge is cut (endpoints in different
//!   clusters) with probability at most `O(β)`.

use crate::rounds::{costs, RoundLedger};
use forest_graph::kernels::StampSet;
use forest_graph::traversal::{bfs_distances, UNREACHABLE};
use forest_graph::{GraphView, MultiGraph, VertexId};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An `(O(log n), O(log n))` network decomposition.
#[derive(Clone, Debug)]
pub struct NetworkDecomposition {
    /// Class of each vertex (`0..num_classes`).
    pub class_of: Vec<usize>,
    /// Cluster index of each vertex (global numbering across classes).
    pub cluster_of: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// The vertex sets of each cluster (indexed by global cluster id).
    pub clusters: Vec<Vec<VertexId>>,
    /// Class of each cluster.
    pub cluster_class: Vec<usize>,
}

impl NetworkDecomposition {
    /// Maximum *weak* diameter over all clusters: distances are measured in
    /// the whole graph `g`, not inside the cluster.
    pub fn max_weak_diameter<G: GraphView>(&self, g: &G) -> usize {
        let mut best = 0;
        for cluster in &self.clusters {
            for &v in cluster {
                let dist = bfs_distances(g, v, |_| true);
                for &u in cluster {
                    if dist[u.index()] != UNREACHABLE {
                        best = best.max(dist[u.index()]);
                    }
                }
            }
        }
        best
    }

    /// Checks the defining property: within each class, vertices of different
    /// clusters are never adjacent in `g`.
    pub fn classes_separate_clusters<G: GraphView>(&self, g: &G) -> bool {
        for (_, u, v) in g.edges() {
            if self.class_of[u.index()] == self.class_of[v.index()]
                && self.cluster_of[u.index()] != self.cluster_of[v.index()]
            {
                return false;
            }
        }
        true
    }
}

/// Computes an `(O(log n), O(log n))` network decomposition of `g` by
/// iterated ball carving, charging `O(log² n)` rounds. Works over any
/// [`GraphView`] — in particular the lazy power view
/// [`PowerView`](crate::PowerView), which is how Algorithm 2 decomposes
/// `G^{2(R+R')}` without materializing it.
///
/// The returned decomposition satisfies, deterministically:
/// * at most `⌈log₂ n⌉ + 1` classes,
/// * every cluster has radius at most `⌈log₂ n⌉` (hence weak diameter
///   `≤ 2⌈log₂ n⌉`),
/// * clusters of the same class are pairwise non-adjacent.
///
/// Each ball is grown *incrementally*, one BFS layer at a time over a
/// shared epoch-stamped scratch arena: the doubling stop rule only ever
/// inspects the size of the next layer, so carving a radius-`ρ` cluster
/// explores exactly `ρ + 1` layers instead of running a full-graph BFS per
/// center (the previous behavior — quadratic on power views, whose balls
/// are huge).
pub fn network_decomposition<G: GraphView>(
    g: &G,
    ledger: &mut RoundLedger,
) -> NetworkDecomposition {
    let n = g.num_vertices();
    ledger.charge("network decomposition", costs::network_decomposition(n, 1));
    let mut class_of = vec![usize::MAX; n];
    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters: Vec<Vec<VertexId>> = Vec::new();
    let mut cluster_class: Vec<usize> = Vec::new();
    let mut remaining: Vec<bool> = vec![true; n];
    let mut num_remaining = n;
    let mut class = 0usize;
    // Carving scratch, shared by every ball expansion: `seen` resets by
    // epoch bump, the frontier buffers only ever hold one BFS layer.
    let mut seen = StampSet::new(n);
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut next_frontier: Vec<VertexId> = Vec::new();
    let mut next_avail: Vec<VertexId> = Vec::new();
    while num_remaining > 0 {
        // Vertices deferred to the next class because they border a cluster
        // carved in this class.
        let mut deferred = vec![false; n];
        // Vertices available to be clustered in this class.
        let mut available: Vec<bool> = remaining.clone();
        for center in g.vertices() {
            if !available[center.index()] || deferred[center.index()] {
                continue;
            }
            // Grow a ball around `center` inside the available vertices,
            // one layer at a time. Distances are measured in the whole
            // graph (the ball may pass through unavailable vertices), so
            // the frontier carries every newly seen vertex while the
            // doubling rule counts only the available ones.
            seen.clear();
            seen.insert(center.index());
            frontier.clear();
            frontier.push(center);
            let mut members = vec![center];
            let mut ball_size = 1usize;
            loop {
                next_frontier.clear();
                for &u in &frontier {
                    for w in g.neighbors(u) {
                        if seen.insert(w.index()) {
                            next_frontier.push(w);
                        }
                    }
                }
                next_avail.clear();
                next_avail.extend(
                    next_frontier
                        .iter()
                        .copied()
                        .filter(|v| available[v.index()] && !deferred[v.index()]),
                );
                if next_avail.is_empty() {
                    // No available vertices at distance radius+1: the ball
                    // is maximal in its class, nothing to defer.
                    break;
                }
                if ball_size + next_avail.len() < 2 * ball_size {
                    // The next layer is deferred so clusters of this class
                    // stay non-adjacent.
                    for &v in &next_avail {
                        deferred[v.index()] = true;
                    }
                    break;
                }
                ball_size += next_avail.len();
                next_avail.sort_unstable();
                members.extend_from_slice(&next_avail);
                std::mem::swap(&mut frontier, &mut next_frontier);
            }
            let cluster_id = clusters.len();
            for &v in &members {
                class_of[v.index()] = class;
                cluster_of[v.index()] = cluster_id;
                available[v.index()] = false;
                remaining[v.index()] = false;
                num_remaining -= 1;
            }
            clusters.push(members);
            cluster_class.push(class);
        }
        class += 1;
        // Safety net: the construction always makes progress, but guard
        // against pathological loops anyway.
        if class > n + 1 {
            break;
        }
    }
    NetworkDecomposition {
        class_of,
        cluster_of,
        num_classes: class,
        clusters,
        cluster_class,
    }
}

/// A Miller–Peng–Xu `(O(log n / β), β)` partial network decomposition: a
/// clustering of all vertices.
#[derive(Clone, Debug)]
pub struct PartialNetworkDecomposition {
    /// Cluster center that captured each vertex.
    pub center_of: Vec<VertexId>,
    /// Distance from each vertex to its capturing center (in shifted metric
    /// rounded down; used only for diagnostics).
    pub depth_of: Vec<usize>,
}

impl PartialNetworkDecomposition {
    /// Fraction of edges of `g` whose endpoints lie in different clusters.
    #[cfg(test)]
    fn cut_fraction(&self, g: &MultiGraph) -> f64 {
        if g.num_edges() == 0 {
            return 0.0;
        }
        let cut = g
            .edges()
            .filter(|(_, u, v)| self.center_of[u.index()] != self.center_of[v.index()])
            .count();
        cut as f64 / g.num_edges() as f64
    }

    /// Maximum (unshifted) BFS depth of any vertex below its center.
    pub fn max_depth(&self) -> usize {
        self.depth_of.iter().copied().max().unwrap_or(0)
    }
}

/// Computes an MPX random-shift clustering with parameter `beta`, charging
/// `O(log n / β)` rounds. Every vertex draws an exponential shift
/// `δ_v ~ Exp(β)` and each vertex is captured by the center maximizing
/// `δ_u - dist(u, v)`.
pub fn partial_network_decomposition<R: Rng + ?Sized>(
    g: &MultiGraph,
    beta: f64,
    rng: &mut R,
    ledger: &mut RoundLedger,
) -> PartialNetworkDecomposition {
    assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
    let n = g.num_vertices();
    ledger.charge(
        format!("MPX partial network decomposition (beta = {beta})"),
        costs::partial_network_decomposition(n, beta),
    );
    // Exponential shifts.
    let shifts: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            -u.ln() / beta
        })
        .collect();
    // Multi-source Dijkstra on the shifted metric: vertex v is captured by the
    // center u minimizing dist(u, v) - δ_u. Edge lengths are 1, so we can use
    // a binary heap keyed by f64 (converted to ordered bits).
    #[derive(Copy, Clone, PartialEq)]
    struct Key(f64);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("keys are finite")
        }
    }
    let mut best_key = vec![f64::INFINITY; n];
    let mut center_of = vec![VertexId::new(0); n];
    let mut depth_of = vec![0usize; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Key, usize, usize, usize)>> = BinaryHeap::new();
    for v in 0..n {
        let key = -shifts[v];
        best_key[v] = key;
        center_of[v] = VertexId::new(v);
        heap.push(Reverse((Key(key), 0, v, v)));
    }
    while let Some(Reverse((Key(key), depth, center, v))) = heap.pop() {
        if settled[v] || key > best_key[v] {
            continue;
        }
        settled[v] = true;
        center_of[v] = VertexId::new(center);
        depth_of[v] = depth;
        for u in g.neighbors(VertexId::new(v)) {
            let cand = key + 1.0;
            if !settled[u.index()] && cand < best_key[u.index()] {
                best_key[u.index()] = cand;
                heap.push(Reverse((Key(cand), depth + 1, center, u.index())));
            }
        }
    }
    PartialNetworkDecomposition {
        center_of,
        depth_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nd_covers_all_vertices_with_few_classes() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(64, 3, &mut rng);
        let mut ledger = RoundLedger::new();
        let nd = network_decomposition(&g, &mut ledger);
        assert!(ledger.total_rounds() > 0);
        // Every vertex has a class and a cluster.
        assert!(nd.class_of.iter().all(|&c| c != usize::MAX));
        assert!(nd.cluster_of.iter().all(|&c| c != usize::MAX));
        // O(log n) classes: for n = 64 the construction guarantees <= 7.
        assert!(nd.num_classes <= 7, "too many classes: {}", nd.num_classes);
        assert!(nd.classes_separate_clusters(&g));
        // Radius <= log2 n  =>  weak diameter <= 2 log2 n = 12.
        assert!(nd.max_weak_diameter(&g) <= 12);
    }

    #[test]
    fn nd_on_path_graph() {
        let g = generators::path(33);
        let mut ledger = RoundLedger::new();
        let nd = network_decomposition(&g, &mut ledger);
        assert!(nd.classes_separate_clusters(&g));
        assert!(nd.num_classes <= 7);
        let total: usize = nd.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 33);
    }

    #[test]
    fn nd_on_edgeless_graph_uses_one_class() {
        let g = MultiGraph::new(10);
        let mut ledger = RoundLedger::new();
        let nd = network_decomposition(&g, &mut ledger);
        assert_eq!(nd.num_classes, 1);
        assert_eq!(nd.clusters.len(), 10);
        assert!(nd.classes_separate_clusters(&g));
    }

    #[test]
    fn nd_clusters_in_class_partition_clusters() {
        let g = generators::grid(6, 6);
        let mut ledger = RoundLedger::new();
        let nd = network_decomposition(&g, &mut ledger);
        assert_eq!(nd.cluster_class.len(), nd.clusters.len());
        assert!(nd.cluster_class.iter().all(|&c| c < nd.num_classes));
    }

    #[test]
    fn mpx_cut_fraction_scales_with_beta() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::grid(12, 12);
        let mut ledger = RoundLedger::new();
        // Average over a few runs to keep the test stable.
        let avg = |beta: f64, rng: &mut StdRng, ledger: &mut RoundLedger| -> f64 {
            let runs = 8;
            (0..runs)
                .map(|_| partial_network_decomposition(&g, beta, rng, ledger).cut_fraction(&g))
                .sum::<f64>()
                / runs as f64
        };
        let small = avg(0.05, &mut rng, &mut ledger);
        let large = avg(0.8, &mut rng, &mut ledger);
        assert!(
            small < large,
            "cut fraction should grow with beta (got {small} vs {large})"
        );
        // The theory bound is O(beta); allow generous slack for small graphs.
        assert!(
            small <= 0.35,
            "cut fraction {small} too large for beta=0.05"
        );
    }

    #[test]
    fn mpx_clusters_are_connected_balls() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::grid(8, 8);
        let mut ledger = RoundLedger::new();
        let pnd = partial_network_decomposition(&g, 0.3, &mut rng, &mut ledger);
        // Each vertex belongs to exactly one cluster, identified by a center.
        assert_eq!(pnd.center_of.len(), 64);
        // Depth is bounded by the graph diameter.
        assert!(pnd.max_depth() <= 14);
        // Every cluster center captures itself.
        for v in g.vertices() {
            let c = pnd.center_of[v.index()];
            assert_eq!(pnd.center_of[c.index()], c, "center must capture itself");
        }
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn mpx_rejects_bad_beta() {
        let g = generators::path(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ledger = RoundLedger::new();
        partial_network_decomposition(&g, 0.0, &mut rng, &mut ledger);
    }
}
