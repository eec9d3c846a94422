//! The H-partition toolbox (Theorem 2.1).
//!
//! Barenboim–Elkin's H-partition peels the graph into `O(log n / ε)` classes
//! `H_1, .., H_k` such that every vertex of `H_i` has at most
//! `t = ⌊(2+ε)α*⌋` neighbors in `H_i ∪ ... ∪ H_k`. From this single
//! primitive Theorem 2.1 derives:
//!
//! 1. the partition itself,
//! 2. an *acyclic `t`-orientation* (edges point from lower classes to higher
//!    classes, ties broken by vertex id),
//! 3. a `3t`-star-forest decomposition (label the out-edges, 3-color each
//!    rooted tree with Cole–Vishkin, split each forest by the parent color),
//! 4. a `t`-list-forest decomposition (each vertex greedily list-colors its
//!    out-edges with distinct colors).

use crate::error::{check_epsilon, FdError};
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::kernels;
use forest_graph::{
    u32_of, Color, EdgeId, ForestDecomposition, GraphView, ListAssignment, Orientation, VertexId,
};
use forest_obs::{clock::Stopwatch, LazyCounter, Span};
use local_model::cole_vishkin::{cole_vishkin_three_coloring, RootedForestView};
use local_model::RoundLedger;

/// Observability counters for the peeling primitive (cumulative across
/// partitions).
static PEEL_ROUNDS: LazyCounter = LazyCounter::new("hpartition.peel_rounds_total");
static PEELED_VERTICES: LazyCounter = LazyCounter::new("hpartition.peeled_vertices_total");
static PEEL_NANOS: LazyCounter = LazyCounter::new("hpartition.peel_nanos_total");
static FORCED_CLASSES: LazyCounter = LazyCounter::new("hpartition.forced_classes_total");

/// The result of the H-partition peeling process.
#[derive(Clone, Debug)]
pub struct HPartition {
    /// Class index of each vertex (`0`-based: class `i` was peeled in
    /// iteration `i`).
    pub class_of: Vec<usize>,
    /// Number of classes (`k = O(log n / ε)` when the threshold is at least
    /// `(2+ε)α*`).
    pub num_classes: usize,
    /// The peeling degree threshold `t`.
    pub degree_threshold: usize,
    /// Number of peeling iterations that made no progress and had to dump the
    /// remaining vertices into a final class (0 when the threshold satisfies
    /// the theory's precondition).
    pub forced_classes: usize,
}

impl HPartition {
    /// Checks the defining property: every vertex of class `i` has at most
    /// `degree_threshold` neighbors in classes `i, i+1, ..`.
    pub fn satisfies_degree_property<G: GraphView>(&self, g: &G) -> bool {
        for v in g.vertices() {
            let class = self.class_of[v.index()];
            let later_neighbors = g
                .neighbors(v)
                .filter(|u| self.class_of[u.index()] >= class)
                .count();
            if later_neighbors > self.degree_threshold {
                return false;
            }
        }
        true
    }
}

/// Computes the H-partition with peeling threshold
/// `t = ⌊(2+ε) · pseudoarboricity_bound⌋`, charging one LOCAL round per
/// peeling iteration.
///
/// # Errors
///
/// Returns [`FdError::InvalidEpsilon`] for an epsilon outside `(0,1)` and
/// [`FdError::ArboricityBoundTooSmall`] if the bound is zero on a non-empty
/// graph.
pub fn h_partition<G: GraphView>(
    g: &G,
    epsilon: f64,
    pseudoarboricity_bound: usize,
    ledger: &mut RoundLedger,
) -> Result<HPartition, FdError> {
    check_epsilon(epsilon)?;
    if g.num_edges() > 0 && pseudoarboricity_bound == 0 {
        return Err(FdError::ArboricityBoundTooSmall {
            bound: 0,
            required: 1,
        });
    }
    let _peel_span = Span::enter("hpartition.peel");
    let peel_start = Stopwatch::start();
    let threshold = ((2.0 + epsilon) * pseudoarboricity_bound as f64).floor() as usize;
    let n = g.num_vertices();
    let mut class_of = vec![usize::MAX; n];
    let mut active: Vec<u8> = vec![1; n];
    // Degrees fit u32 (edge ids are u32-backed); a threshold beyond u32::MAX
    // accepts every degree either way, so the clamp preserves comparisons.
    let threshold_u32 = u32_of(threshold.min(u32::MAX as usize));
    let mut active_degree: Vec<u32> = g.vertices().map(|v| u32_of(g.degree(v))).collect();
    let mut remaining = n;
    let mut class = 0usize;
    let mut forced_classes = 0usize;
    let mut rounds = 0usize;
    // The round-0 peel set comes from one branchless masked scan; afterwards
    // each round's peel set is maintained as a frontier — a vertex joins it
    // the moment a decrement drops its active degree to the threshold
    // (degrees only decrease, so each vertex crosses exactly once). This
    // replaces the historical O(n)-rescan-per-round loop without changing
    // the peeled sets, the class assignment or the round count.
    let mut frontier: Vec<u32> = Vec::new();
    kernels::select_le_masked(&active_degree, &active, threshold_u32, &mut frontier);
    let mut next_frontier: Vec<u32> = Vec::new();
    while remaining > 0 {
        // All vertices whose *current* active degree is at most t are peeled
        // simultaneously (this is exactly one LOCAL round: each vertex knows
        // its active degree from the previous round's announcements).
        rounds += 1;
        if frontier.is_empty() {
            // The threshold is below (2+eps) * alpha*: the theory's
            // precondition is violated. Degrade gracefully by dumping the
            // remaining vertices into one final class.
            for v in g.vertices() {
                if active[v.index()] != 0 {
                    class_of[v.index()] = class;
                    active[v.index()] = 0;
                }
            }
            forced_classes = 1;
            class += 1;
            break;
        }
        // Deactivate the whole peel set first, then decrement: a neighbor
        // peeled in the same round must not be decremented or re-enqueued.
        for &vi in &frontier {
            class_of[vi as usize] = class;
            active[vi as usize] = 0;
            remaining -= 1;
        }
        next_frontier.clear();
        for &vi in &frontier {
            for u in g.neighbors(VertexId::new(vi as usize)) {
                let ui = u.index();
                if active[ui] != 0 {
                    let before = active_degree[ui];
                    active_degree[ui] -= 1;
                    if before > threshold_u32 && active_degree[ui] <= threshold_u32 {
                        next_frontier.push(u32_of(ui));
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        class += 1;
    }
    ledger.charge("H-partition peeling", rounds.max(1));
    PEEL_ROUNDS.add(rounds.max(1) as u64);
    PEELED_VERTICES.add(n as u64);
    FORCED_CLASSES.add(forced_classes as u64);
    PEEL_NANOS.add(peel_start.elapsed_nanos());
    Ok(HPartition {
        class_of,
        num_classes: class,
        degree_threshold: threshold,
        forced_classes,
    })
}

/// Theorem 2.1(2): the acyclic `t`-orientation induced by an H-partition.
/// Edges are oriented from the lower class to the higher class, ties broken
/// toward the higher vertex id, so the tail is the lexicographically smaller
/// `(class, id)` endpoint.
pub fn acyclic_orientation<G: GraphView>(g: &G, partition: &HPartition) -> Orientation {
    Orientation::from_fn(g, |_, u, v| {
        let ku = (partition.class_of[u.index()], u);
        let kv = (partition.class_of[v.index()], v);
        if ku < kv {
            u
        } else {
            v
        }
    })
}

/// Labels the out-edges of every vertex with indices `0..out_degree`, giving
/// one rooted forest per label: in forest `i`, each vertex's parent is the
/// head of its `i`-th out-edge.
pub(crate) fn out_edge_labels<G: GraphView>(g: &G, orientation: &Orientation) -> Vec<usize> {
    let mut next_label = vec![0usize; g.num_vertices()];
    let mut label = vec![0usize; g.num_edges()];
    for (e, _, _) in g.edges() {
        let tail = orientation.tail(e);
        label[e.index()] = next_label[tail.index()];
        next_label[tail.index()] += 1;
    }
    label
}

/// Theorem 2.1(3): a `3t`-star-forest decomposition from an acyclic
/// `t`-orientation. Returns the decomposition; color `3i + c` holds the
/// label-`i` edges whose parent endpoint received Cole–Vishkin color `c`.
pub fn star_forest_decomposition<G: GraphView>(
    g: &G,
    orientation: &Orientation,
    ledger: &mut RoundLedger,
) -> ForestDecomposition {
    let labels = out_edge_labels(g, orientation);
    let max_label = labels.iter().copied().max().map_or(0, |l| l + 1);
    let mut colors = vec![Color::new(0); g.num_edges()];
    for i in 0..max_label {
        // Rooted forest for label i: parent of v = head of v's label-i out-edge.
        let mut parent: Vec<Option<VertexId>> = vec![None; g.num_vertices()];
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; g.num_vertices()];
        for (e, _, _) in g.edges() {
            if labels[e.index()] == i {
                let tail = orientation.tail(e);
                parent[tail.index()] = Some(orientation.head(g, e));
                parent_edge[tail.index()] = Some(e);
            }
        }
        let view = RootedForestView { parent };
        let coloring = cole_vishkin_three_coloring(&view, ledger);
        for v in g.vertices() {
            if let Some(e) = parent_edge[v.index()] {
                let parent_vertex = orientation.head(g, e);
                let c = coloring.color[parent_vertex.index()] as usize;
                colors[e.index()] = Color::new(3 * i + c);
            }
        }
    }
    ForestDecomposition::from_colors(colors)
}

/// Theorem 2.1(4): a `t`-list-forest decomposition from an acyclic
/// `t`-orientation: every vertex greedily assigns distinct palette colors to
/// its out-edges. The result is acyclic because a monochromatic cycle would
/// force some vertex to have two equally-colored out-edges.
///
/// # Errors
///
/// Returns [`FdError::PaletteTooSmall`] if some vertex has more out-edges
/// than a palette can accommodate.
pub fn list_forest_decomposition<G: GraphView>(
    g: &G,
    orientation: &Orientation,
    lists: &ListAssignment,
    ledger: &mut RoundLedger,
) -> Result<PartialEdgeColoring, FdError> {
    let mut coloring = PartialEdgeColoring::new_uncolored(g.num_edges());
    for v in g.vertices() {
        let out_edges = orientation.out_edges(g, v);
        let mut used: Vec<Color> = Vec::with_capacity(out_edges.len());
        for e in out_edges {
            let choice = lists.palette(e).iter().copied().find(|c| !used.contains(c));
            match choice {
                Some(c) => {
                    coloring.set(e, c);
                    used.push(c);
                }
                None => {
                    return Err(FdError::PaletteTooSmall {
                        edge: e,
                        needed: used.len() + 1,
                        available: lists.palette(e).len(),
                    })
                }
            }
        }
    }
    // Every vertex acts independently on its own out-edges: one LOCAL round.
    ledger.charge("greedy out-edge list coloring", 1);
    Ok(coloring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{
        validate_forest_decomposition, validate_list_coloring,
        validate_partial_forest_decomposition, validate_star_forest_decomposition,
    };
    use forest_graph::MultiGraph;
    use forest_graph::{generators, orientation::pseudoarboricity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, k: usize, seed: u64) -> (MultiGraph, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::planted_forest_union(n, k, &mut rng);
        let ps = pseudoarboricity(&g);
        (g, ps)
    }

    #[test]
    fn h_partition_satisfies_degree_property() {
        let (g, ps) = setup(60, 3, 1);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, ps, &mut ledger).unwrap();
        assert!(hp.satisfies_degree_property(&g));
        assert_eq!(hp.forced_classes, 0);
        assert!(hp.num_classes >= 1);
        assert!(ledger.total_rounds() >= hp.num_classes);
        // Every vertex got a class.
        assert!(hp.class_of.iter().all(|&c| c != usize::MAX));
        // Classes partition the vertex set.
        assert_eq!(hp.class_of.len(), 60);
        assert!(hp.class_of.iter().all(|&c| c < hp.num_classes));
    }

    #[test]
    fn h_partition_class_count_is_logarithmic() {
        let (g, ps) = setup(200, 2, 2);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, ps, &mut ledger).unwrap();
        // O(log n / eps): generous constant for the test.
        assert!(
            hp.num_classes <= 40,
            "unexpectedly many classes: {}",
            hp.num_classes
        );
    }

    #[test]
    fn h_partition_rejects_bad_parameters() {
        let g = generators::path(4);
        let mut ledger = RoundLedger::new();
        assert!(matches!(
            h_partition(&g, 0.0, 1, &mut ledger),
            Err(FdError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            h_partition(&g, 0.5, 0, &mut ledger),
            Err(FdError::ArboricityBoundTooSmall { .. })
        ));
    }

    #[test]
    fn h_partition_degrades_gracefully_on_too_small_threshold() {
        // K6 with threshold based on a bound of 1: t = 2 < min degree 5, so
        // nothing can be peeled and everything lands in one forced class.
        let g = generators::complete_graph(6);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, 1, &mut ledger).unwrap();
        assert_eq!(hp.forced_classes, 1);
        assert!(hp.class_of.iter().all(|&c| c != usize::MAX));
    }

    #[test]
    fn orientation_is_acyclic_with_bounded_outdegree() {
        let (g, ps) = setup(80, 3, 3);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, ps, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        assert!(orientation.is_acyclic(&g));
        assert!(orientation.max_out_degree(&g) <= hp.degree_threshold);
    }

    #[test]
    fn star_forest_decomposition_is_valid_with_3t_colors() {
        let (g, ps) = setup(70, 3, 4);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, ps, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        let sfd = star_forest_decomposition(&g, &orientation, &mut ledger);
        validate_forest_decomposition(&g, &sfd, Some(3 * hp.degree_threshold))
            .expect("valid forest decomposition");
        validate_star_forest_decomposition(&g, &sfd, Some(3 * hp.degree_threshold))
            .expect("valid star-forest decomposition");
    }

    #[test]
    fn star_forest_on_empty_graph() {
        let g = MultiGraph::new(5);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, 1, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        let sfd = star_forest_decomposition(&g, &orientation, &mut ledger);
        assert_eq!(sfd.num_edges(), 0);
    }

    #[test]
    fn list_forest_decomposition_respects_palettes() {
        let (g, ps) = setup(50, 2, 5);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, ps, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        // Random palettes of size t from a larger color space.
        let mut rng = StdRng::seed_from_u64(6);
        let lists = ListAssignment::random(
            g.num_edges(),
            3 * hp.degree_threshold,
            hp.degree_threshold,
            &mut rng,
        );
        let coloring = list_forest_decomposition(&g, &orientation, &lists, &mut ledger).unwrap();
        assert!(coloring.is_complete());
        validate_partial_forest_decomposition(&g, &coloring).expect("forest per color");
        validate_list_coloring(&g, &coloring, &lists).expect("colors from palettes");
    }

    #[test]
    fn list_forest_decomposition_detects_small_palettes() {
        let g = generators::star(5);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, 1, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        // Orientation may give the center several out-edges; a single shared
        // color cannot color them all.
        let lists = ListAssignment::uniform(g.num_edges(), 1);
        let result = list_forest_decomposition(&g, &orientation, &lists, &mut ledger);
        // Either every vertex had at most one out-edge (fine) or the palette
        // error fired; both are acceptable depending on the orientation.
        if let Err(err) = result {
            assert!(matches!(err, FdError::PaletteTooSmall { .. }));
        }
    }

    #[test]
    fn barenboim_elkin_forest_count_matches_threshold() {
        // Labelling the out-edges of the acyclic orientation directly gives a
        // t-forest decomposition (the (2+eps)-baseline); sanity-check it here
        // since it shares the helper.
        let (g, ps) = setup(60, 3, 8);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.25, ps, &mut ledger).unwrap();
        let orientation = acyclic_orientation(&g, &hp);
        let labels = out_edge_labels(&g, &orientation);
        let fd = ForestDecomposition::from_colors(labels.iter().map(|&l| Color::new(l)).collect());
        validate_forest_decomposition(&g, &fd, Some(hp.degree_threshold)).expect("t-FD");
    }
}
