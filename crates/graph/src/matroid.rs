//! Exact centralized forest decomposition via matroid partition.
//!
//! Gabow and Westermann \[GW92\] showed that an exact `α`-forest decomposition
//! can be computed in polynomial time using matroid partition for the graphic
//! matroid. This module implements the classical augmenting-path matroid
//! partition algorithm: edges are inserted one at a time, and when an edge
//! cannot be placed directly into one of the `k` forests, a shortest
//! augmenting sequence of exchanges is found by BFS over the exchange graph.
//!
//! The paper's distributed algorithms are benchmarked against this exact
//! baseline, and [`arboricity`] (the minimum number of forests) serves as the
//! ground-truth `α` for every experiment. Everything here is generic over
//! [`GraphView`], so the same code runs on a mutable
//! [`MultiGraph`](crate::MultiGraph), an owned CSR, or a zero-copy
//! [`CsrRef`](crate::CsrRef) shard view — the thaw-free sharded pipeline
//! feeds shard views straight in.

use crate::connectivity::ColorConnectivity;
use crate::decomposition::{ForestDecomposition, PartialEdgeColoring};
use crate::ids::{Color, EdgeId, VertexId};
use crate::traversal::path_between;
use crate::view::GraphView;
use std::collections::VecDeque;

/// One applied exchange step: `edge` moved from `old` (`None` for the
/// freshly-inserted root of the search) to `new`.
pub type ExchangeStep = (EdgeId, Option<Color>, Color);

/// Attempts to color `edge` in the partial `k`-forest partition `coloring` by
/// finding a shortest augmenting sequence in the exchange graph, and reports
/// exactly which edges it recolored.
///
/// On success the coloring is updated in place (remaining a valid partial
/// forest partition) and the applied [`ExchangeStep`]s come back in
/// application order, `edge` first — callers maintaining per-color
/// connectivity mirror them as cuts and links
/// ([`DynamicColorConnectivity::apply_exchange`](crate::DynamicColorConnectivity::apply_exchange))
/// or invalidate only the touched colors
/// ([`ColorConnectivity::rebuild_colors`]).
///
/// `max_visited` bounds the BFS (number of dequeued exchange-graph edges);
/// when the bound trips the search gives up with `None` and the coloring is
/// untouched, which makes bounded exchange passes (exact-α stitching) safe
/// to abort mid-workload. Pass `usize::MAX` for the exact search: then
/// `None` certifies that the colored edges plus `edge` cannot be
/// partitioned into `k` forests.
pub fn try_augment_traced<G: GraphView>(
    g: &G,
    coloring: &mut PartialEdgeColoring,
    edge: EdgeId,
    k: usize,
    max_visited: usize,
) -> Option<Vec<ExchangeStep>> {
    // BFS over edges of the exchange graph. `prev[e]` records the edge from
    // which `e` was reached.
    let m = g.num_edges();
    let mut visited = vec![false; m];
    let mut prev: Vec<Option<EdgeId>> = vec![None; m];
    let mut queue = VecDeque::new();
    visited[edge.index()] = true;
    queue.push_back(edge);
    let mut popped = 0usize;

    while let Some(f) = queue.pop_front() {
        popped += 1;
        if popped > max_visited {
            return None;
        }
        let (u, v) = g.endpoints(f);
        let f_color = coloring.color(f);
        for i in 0..k {
            let color = Color::new(i);
            if f_color == Some(color) {
                continue;
            }
            // The path between f's endpoints inside forest i (not using f,
            // which is not in forest i anyway).
            let path = path_between(g, u, v, |x| x != f && coloring.color(x) == Some(color));
            match path {
                None => {
                    // Sink: f can be added to forest i directly. Walk the BFS
                    // tree backwards performing the exchanges.
                    let mut steps = Vec::new();
                    let mut cur = f;
                    let mut target = color;
                    loop {
                        let old = coloring.color(cur);
                        coloring.set(cur, target);
                        steps.push((cur, old, target));
                        match (cur == edge, old) {
                            (true, _) => {
                                steps.reverse();
                                return Some(steps);
                            }
                            (false, Some(old_color)) => {
                                target = old_color;
                                cur = prev[cur.index()]
                                    .expect("every non-root BFS edge has a predecessor");
                            }
                            (false, None) => {
                                unreachable!("only the root of the BFS is uncolored")
                            }
                        }
                    }
                }
                Some(path_edges) => {
                    for x in path_edges {
                        if !visited[x.index()] {
                            visited[x.index()] = true;
                            prev[x.index()] = Some(f);
                            queue.push_back(x);
                        }
                    }
                }
            }
        }
    }
    None
}

/// The colors an exchange touched: every old and new color of its steps.
fn touched_colors(steps: &[ExchangeStep]) -> impl Iterator<Item = Color> + '_ {
    steps
        .iter()
        .flat_map(|&(_, old, new)| old.into_iter().chain(std::iter::once(new)))
}

/// Result of the exact minimum forest partition.
#[derive(Clone, Debug)]
pub struct ExactForestDecomposition {
    /// The decomposition into `arboricity` forests.
    pub decomposition: ForestDecomposition,
    /// The arboricity `α(G)` (number of forests used).
    pub arboricity: usize,
    /// Per-color union-finds exactly covering
    /// [`ExactForestDecomposition::decomposition`] — the partition's own
    /// working cache, completed and handed back so shard pipelines stitch
    /// through it instead of re-unioning every edge.
    pub connectivity: ColorConnectivity,
}

/// Computes the exact arboricity `α(G)` and an `α(G)`-forest decomposition
/// using incremental matroid partition.
///
/// The search starts from the Nash-Williams lower bound `⌈m/(n-1)⌉` and
/// increases `k` only when an edge provably cannot be accommodated, so the
/// number of restarts is at most `α` minus the lower bound.
pub fn exact_forest_decomposition<G: GraphView>(g: &G) -> ExactForestDecomposition {
    let m = g.num_edges();
    let n = g.num_vertices();
    if m == 0 {
        return ExactForestDecomposition {
            decomposition: ForestDecomposition::from_colors(Vec::new()),
            arboricity: 0,
            connectivity: ColorConnectivity::new(n),
        };
    }
    // Whole-graph Nash-Williams lower bound. (The max over subgraphs can be
    // larger, but the incremental loop below will simply bump k when needed.)
    let mut k = m.div_ceil(n.saturating_sub(1).max(1)).max(1);
    let mut coloring = PartialEdgeColoring::new_uncolored(m);
    let mut connectivity = ColorConnectivity::new(n);
    for (e, u, v) in g.edges() {
        // Fast path: some forest keeps u and v apart, so e slots right in.
        if let Some(c) = connectivity.first_free_color(g, &coloring, None, k, u, v) {
            coloring.set(e, c);
            connectivity.insert(c, u, v);
            continue;
        }
        loop {
            match try_augment_traced(g, &mut coloring, e, k, usize::MAX) {
                Some(steps) => {
                    // Only the colors the exchange walked through are stale.
                    connectivity.rebuild_colors(g, &coloring, None, touched_colors(&steps));
                    break;
                }
                // Certified: the colored edges plus e need more than k
                // forests.
                None => k += 1,
            }
        }
    }
    // Complete the cache: colors the fast path never queried are built now,
    // so the returned forests exactly cover the final coloring.
    for c in 0..k {
        connectivity.forest(g, &coloring, None, Color::new(c));
    }
    let decomposition = coloring
        .into_complete()
        .expect("all edges colored by construction");
    ExactForestDecomposition {
        decomposition,
        arboricity: k,
        connectivity,
    }
}

/// Exact arboricity `α(G)` of a multigraph (0 for an edgeless graph).
///
/// By Nash-Williams, `α(G) = max_H ⌈|E(H)| / (|V(H)|-1)⌉` over subgraphs with
/// at least two vertices; this function computes it constructively via matroid
/// partition.
pub fn arboricity<G: GraphView>(g: &G) -> usize {
    exact_forest_decomposition(g).arboricity
}

/// Nash-Williams whole-graph lower bound `⌈m/(n-1)⌉` (0 when `m = 0`).
pub fn arboricity_lower_bound<G: GraphView>(g: &G) -> usize {
    let m = g.num_edges();
    let n = g.num_vertices();
    if m == 0 || n < 2 {
        0
    } else {
        m.div_ceil(n - 1)
    }
}

/// A vertex-labelled witness that the arboricity is at least `bound`:
/// a subgraph `H` with `|E(H)| > (bound - 1) * (|V(H)| - 1)`.
///
/// Searching all subgraphs is exponential in general, so this helper only
/// checks the whole graph and each connected component — enough for the
/// planted workloads used in tests. Returns `None` when no witness is found
/// at this granularity.
pub fn density_witness<G: GraphView>(g: &G, bound: usize) -> Option<Vec<VertexId>> {
    if bound == 0 {
        return Some(g.vertices().collect());
    }
    let check = |vertices: &[VertexId]| -> bool {
        if vertices.len() < 2 {
            return false;
        }
        let in_set: std::collections::HashSet<VertexId> = vertices.iter().copied().collect();
        let edges = g
            .edges()
            .filter(|(_, u, v)| in_set.contains(u) && in_set.contains(v))
            .count();
        edges > (bound - 1) * (vertices.len() - 1)
    };
    let all: Vec<VertexId> = g.vertices().collect();
    if check(&all) {
        return Some(all);
    }
    let (comp, num_comp) = crate::traversal::connected_components(g, |_| true);
    for c in 0..num_comp {
        let vertices: Vec<VertexId> = g.vertices().filter(|v| comp[v.index()] == c).collect();
        if check(&vertices) {
            return Some(vertices);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::validate_forest_decomposition;
    use crate::multigraph::MultiGraph;

    fn complete_graph(n: usize) -> MultiGraph {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                pairs.push((i, j));
            }
        }
        MultiGraph::from_pairs(n, &pairs).unwrap()
    }

    #[test]
    fn tree_has_arboricity_one() {
        let g = MultiGraph::from_pairs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let exact = exact_forest_decomposition(&g);
        assert_eq!(exact.arboricity, 1);
        assert!(validate_forest_decomposition(&g, &exact.decomposition, Some(1)).is_ok());
    }

    #[test]
    fn cycle_has_arboricity_two() {
        let g = MultiGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(arboricity(&g), 2);
        let exact = exact_forest_decomposition(&g);
        assert!(validate_forest_decomposition(&g, &exact.decomposition, Some(2)).is_ok());
    }

    #[test]
    fn complete_graph_arboricity_matches_formula() {
        // alpha(K_n) = ceil(n/2).
        for n in 2..=7usize {
            let g = complete_graph(n);
            assert_eq!(arboricity(&g), n.div_ceil(2), "K_{n}");
        }
    }

    #[test]
    fn fat_path_arboricity_equals_multiplicity() {
        // Fat path with multiplicity 3: every pair of adjacent vertices is
        // joined by 3 parallel edges, so alpha = 3.
        let mut g = MultiGraph::new(5);
        for i in 0..4usize {
            for _ in 0..3 {
                g.add_edge(VertexId::new(i), VertexId::new(i + 1)).unwrap();
            }
        }
        let exact = exact_forest_decomposition(&g);
        assert_eq!(exact.arboricity, 3);
        assert!(validate_forest_decomposition(&g, &exact.decomposition, Some(3)).is_ok());
    }

    #[test]
    fn lower_bound_is_respected() {
        let g = complete_graph(6);
        assert!(arboricity_lower_bound(&g) <= arboricity(&g));
        assert_eq!(arboricity_lower_bound(&g), 3);
        let empty = MultiGraph::new(4);
        assert_eq!(arboricity_lower_bound(&empty), 0);
        assert_eq!(arboricity(&empty), 0);
    }

    #[test]
    fn density_witness_on_dense_graph() {
        let g = complete_graph(5);
        // alpha(K5) = 3, so a witness against 2 forests must exist.
        assert!(density_witness(&g, 3).is_some());
        assert!(density_witness(&g, 4).is_none());
        assert!(density_witness(&g, 0).is_some());
    }

    #[test]
    fn arboricity_of_disjoint_union_is_max() {
        // K4 union a long path: arboricity = max(2, 1) = 2.
        let mut g = complete_graph(4);
        let base = 4;
        for _ in 0..5 {
            g.add_vertex();
        }
        for i in 0..4usize {
            g.add_edge(VertexId::new(base + i), VertexId::new(base + i + 1))
                .unwrap();
        }
        assert_eq!(arboricity(&g), 2);
    }
}
