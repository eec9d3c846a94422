//! Algorithm 2: local list-forest decomposition via augmentation
//! (Section 4, Theorems 4.1 and 4.5).
//!
//! The algorithm computes an `(O(log n), O(log n))` network decomposition of
//! the power graph `G^{2(R+R')}` and processes its classes one at a time. For
//! every cluster `C` of the current class it:
//!
//! 1. collects the augmentation region `C' = N^{R'}(C)` and the view
//!    `C'' = N^{R+R'}(C)`,
//! 2. runs [`CUT`](crate::cut) so that no monochromatic path leaves the view
//!    from `C'` (the removed edges become the *leftover graph* `E₁`),
//! 3. colors every still-uncolored edge incident to `C` by finding and
//!    applying an augmenting sequence inside the view.
//!
//! The output is a list-forest decomposition of `E₀ = E \ E₁` plus the
//! leftover edge set `E₁`, whose pseudo-arboricity is kept small by the CUT
//! load balancing; Theorems 4.6 / 4.10 (module [`crate::combine`]) recolor
//! `E₁` with `O(εα)` extra colors.
//!
//! On bench-scale graphs the radii `R, R'` derived from the paper's formulas
//! usually exceed the graph diameter, in which case the network decomposition
//! degenerates to one cluster per connected component and CUT has nothing to
//! do — exactly as the theory predicts (the locality machinery only matters
//! when `log n / ε` is far below the diameter). The configuration lets
//! benchmarks force smaller radii to exercise the full machinery.
//!
//! # The trivial pass
//!
//! One BFS per connected component, from its minimum vertex, numbers the
//! components and bounds the diameter by twice the largest eccentricity.
//! When `2(R+R')` reaches that bound, no cluster machinery runs: every edge
//! is colored in one ascending-id pass of augmentation over the whole graph
//! with one per-color connectivity cache. Each cluster's view would be its
//! whole component, so CUT would cut nothing and draw no random number,
//! and a search never leaves its component; the pass returns exactly what
//! the cluster loop returns on such inputs (coloring, leftover, counters,
//! ledger), in `O(n + m)` plus the searches.
//!
//! # Ball-local execution
//!
//! Otherwise [`network_decomposition`] decomposes `G^{2(R+R')}` from one
//! bounded BFS ball in `G` per power neighbourhood — no `O(n²)`-edge power
//! graph is ever materialized — and each cluster is processed inside its
//! own ball: the region BFS stops at radius `R + R'`, and all masks, scope
//! lists and CUT working memory are carried in scratch buffers reset via
//! touched-id lists ([`CutScratch`] and epoch-stamped sets). The
//! augmentation is not ball-local yet: its connectivity cache is
//! invalidated per cluster, and each color a cluster queries is rebuilt by
//! scanning all `m` edges, so a cluster costs `O(k(n + m))` for `k` colors
//! queried. The output — colors, leftover, RNG consumption, ledger — is
//! byte-identical to the historical whole-graph implementation;
//! [`PipelineStats`] exposes the perf counters.

use crate::augmenting::{AugmentationContext, ColorConnectivity};
use crate::cut::{execute_cut_scoped, CutOutcome, CutScope, CutScratch, CutState, CutStrategy};
use crate::error::{check_epsilon, FdError};
use crate::hpartition::{acyclic_orientation, h_partition};
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::kernels::{self, StampSet};
use forest_graph::traversal::BfsScratch;
use forest_graph::{EdgeId, GraphView, ListAssignment, VertexId};
use forest_obs::{clock::Stopwatch, LazyCounter, Span};
use local_model::rounds::costs;
use local_model::{network_decomposition, RoundLedger};
use rand::Rng;

/// Algorithm 2 counters in the `forest-obs` registry (cumulative across
/// runs).
static BFS_NANOS: LazyCounter = LazyCounter::new("algo2.cluster_bfs_nanos_total");
static BALL_EXPANSIONS: LazyCounter = LazyCounter::new("algo2.ball_expansions_total");
static CLUSTERS: LazyCounter = LazyCounter::new("algo2.clusters_total");
static RUNS: LazyCounter = LazyCounter::new("algo2.runs_total");

/// Which CUT rule Algorithm 2 should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutStrategyKind {
    /// Depth-modulo layer deletion (Theorem 4.2(1)/(2)); the default.
    DepthModulo,
    /// Conditioned sampling against a fixed `3α*`-orientation
    /// (Theorem 4.2(3)/(4)).
    ConditionedSampling,
}

/// Configuration of Algorithm 2.
#[derive(Clone, Debug)]
pub struct Algorithm2Config {
    /// The slack parameter `ε`.
    pub epsilon: f64,
    /// An upper bound on the arboricity `α` (the palettes must have at least
    /// `⌈(1+ε)α⌉` colors).
    pub alpha: usize,
    /// CUT rule.
    pub cut: CutStrategyKind,
    /// Override for the CUT radius `R` (`None` = derive `Θ(log n / ε)`).
    pub cut_radius: Option<usize>,
    /// Override for the augmentation radius `R'` (`None` = derive
    /// `Θ(log n / ε)`).
    pub locality_radius: Option<usize>,
}

impl Algorithm2Config {
    /// A configuration with the paper's default choices.
    pub fn new(epsilon: f64, alpha: usize) -> Self {
        Algorithm2Config {
            epsilon,
            alpha,
            cut: CutStrategyKind::DepthModulo,
            cut_radius: None,
            locality_radius: None,
        }
    }

    /// Overrides both radii (useful for benchmarks that want to exercise CUT
    /// on graphs whose diameter is below the formula-derived radii).
    pub fn with_radii(mut self, cut_radius: usize, locality_radius: usize) -> Self {
        self.cut_radius = Some(cut_radius);
        self.locality_radius = Some(locality_radius);
        self
    }
}

/// Performance counters of the ball-local cluster pipeline.
///
/// Pure observability: none of these influence the decomposition, the RNG
/// consumption or the round ledger, and they are not part of any canonical
/// report encoding.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Bounded BFS balls the network decomposition of `G^{2(R+R')}` grew
    /// in `G`, one per power neighbourhood read
    /// ([`NetworkDecomposition::ball_expansions`](local_model::NetworkDecomposition::ball_expansions));
    /// 0 when the trivial pass ran.
    pub power_ball_expansions: u64,
    /// Always 0: no ball is memoized. The benchmark's
    /// `local_model.ball_cache_hit_ratio` row still reads it.
    pub power_cache_hits: u64,
}

/// Output of Algorithm 2.
#[derive(Clone, Debug)]
pub struct Algorithm2Output {
    /// List-forest decomposition of the kept edges `E₀`; leftover edges are
    /// uncolored here.
    pub coloring: PartialEdgeColoring,
    /// The leftover edges `E₁` removed by CUT (or that failed augmentation).
    pub leftover: Vec<EdgeId>,
    /// Whether every CUT invocation was good before deterministic completion.
    pub all_cuts_good: bool,
    /// Number of edges removed by the deterministic CUT completion.
    pub forced_cut_removals: usize,
    /// Edges whose restricted augmentation failed and had to fall back to an
    /// unrestricted search.
    pub fallback_unrestricted: usize,
    /// Edges that could not be colored at all and were moved to the leftover.
    pub fallback_uncolored: usize,
    /// Maximum CUT load charged to any vertex (bounds the leftover
    /// pseudo-arboricity).
    pub max_cut_load: usize,
    /// Number of network-decomposition classes processed.
    pub num_classes: usize,
    /// Number of clusters processed.
    pub num_clusters: usize,
    /// Radii actually used.
    pub radii: (usize, usize),
    /// Round accounting.
    pub ledger: RoundLedger,
    /// Perf counters of the ball-local pipeline (observability only).
    pub pipeline_stats: PipelineStats,
}

fn derived_radius(n: usize, epsilon: f64) -> usize {
    let ln_n = costs::ln_ceil(n).max(1) as f64;
    ((ln_n / epsilon).ceil() as usize).max(2)
}

/// Runs Algorithm 2 with the given palettes over a frozen topology: any
/// [`GraphView`] qualifies — an owned CSR, a borrowed shard view, an
/// mmap-backed graph. The facade freezes once per request and threads the
/// view through every engine phase (BFS regions, CUT, augmentation); the
/// thaw-free sharded pipeline feeds `CsrRef` shards straight in.
///
/// Every palette must contain at least `⌈(1+ε)α⌉` colors.
///
/// # Errors
///
/// Returns an error for invalid `ε`, palettes that are too small, or when an
/// augmentation cannot be completed even without locality restriction (which
/// indicates the arboricity bound is wrong).
pub fn algorithm2_frozen<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    lists: &ListAssignment,
    config: &Algorithm2Config,
    rng: &mut R,
) -> Result<Algorithm2Output, FdError> {
    check_epsilon(config.epsilon)?;
    RUNS.inc();
    let n = csr.num_vertices();
    let m = csr.num_edges();
    let mut ledger = RoundLedger::new();
    if m == 0 {
        return Ok(Algorithm2Output {
            coloring: PartialEdgeColoring::new_uncolored(0),
            leftover: Vec::new(),
            all_cuts_good: true,
            forced_cut_removals: 0,
            fallback_unrestricted: 0,
            fallback_uncolored: 0,
            max_cut_load: 0,
            num_classes: 0,
            num_clusters: 0,
            radii: (0, 0),
            ledger,
            pipeline_stats: PipelineStats::default(),
        });
    }
    let needed = ((1.0 + config.epsilon) * config.alpha as f64).ceil() as usize;
    for e in csr.edge_ids() {
        if lists.palette(e).len() < needed {
            return Err(FdError::PaletteTooSmall {
                edge: e,
                needed,
                available: lists.palette(e).len(),
            });
        }
    }
    let locality_radius = config
        .locality_radius
        .unwrap_or_else(|| derived_radius(n, config.epsilon));
    let cut_radius = config
        .cut_radius
        .unwrap_or_else(|| 2 * derived_radius(n, config.epsilon));
    // Cap on the growth iterations of each augmenting-sequence search: the
    // derived radius, whatever radii the config overrides.
    let max_iterations = 4 + 8 * derived_radius(n, config.epsilon);

    // Prepare the CUT state. Conditioned sampling needs a fixed orientation J
    // with out-degree O(alpha*).
    let strategy = match config.cut {
        CutStrategyKind::DepthModulo => CutStrategy::DepthModulo {
            levels: (cut_radius / 2).max(1),
        },
        CutStrategyKind::ConditionedSampling => {
            let load_cap = ((config.epsilon * config.alpha as f64).ceil() as usize).max(1);
            let probability = ((config.alpha as f64) * (costs::ln_ceil(n).max(1) as f64)
                / (0.5 * cut_radius as f64))
                .clamp(0.05, 1.0);
            CutStrategy::ConditionedSampling {
                probability,
                load_cap,
            }
        }
    };
    let mut cut_state = match config.cut {
        CutStrategyKind::DepthModulo => CutState::new(n),
        CutStrategyKind::ConditionedSampling => {
            let pseudo = forest_graph::orientation::pseudoarboricity(csr).max(1);
            let hp = h_partition(csr, 0.9, pseudo, &mut ledger)?;
            CutState::with_orientation(n, acyclic_orientation(csr, &hp))
        }
    };

    // Network decomposition of G^{2(R+R')}. When 2(R+R') reaches the graph
    // diameter the power graph is a disjoint union of cliques (one per
    // connected component) and the decomposition is trivial, so the power
    // view is skipped in that common case.
    let power = 2 * (cut_radius + locality_radius);
    let mut pipeline_stats = PipelineStats::default();
    // The bounded-BFS scratch serves the diameter bound here and the
    // per-cluster region collection below; it is allocated once per run.
    let mut region = BfsScratch::new(n);
    // One BFS per component, from its minimum vertex, numbers the
    // components (in the order of that vertex) and bounds the diameter by
    // twice the largest eccentricity. The sweeps run on the epoch-stamped
    // scratch, so each touches only its own component.
    let mut comp = vec![u32::MAX; n];
    let mut num_comp = 0u32;
    let mut diameter_upper = 0usize;
    for r in csr.vertices() {
        if comp[r.index()] != u32::MAX {
            continue;
        }
        region.run_bounded(csr, &[r], usize::MAX, |_| true);
        for &v in region.visited() {
            comp[v.index()] = num_comp;
        }
        // BFS order has nondecreasing distances, so the last visited
        // vertex realizes the eccentricity of `r`.
        let far = region.visited().last().map_or(0, |&v| region.distance(v));
        diameter_upper = diameter_upper.max(2 * far);
        num_comp += 1;
    }

    let mut coloring = PartialEdgeColoring::new_uncolored(m);
    let mut leftover: Vec<EdgeId> = Vec::new();
    let unrestricted = AugmentationContext::new(csr, lists);
    let mut conn = ColorConnectivity::new(n);
    // All clusters of a class are processed in parallel in the LOCAL
    // model; the simulation charges the cluster-processing cost once per
    // class.
    let class_rounds = (cut_radius + locality_radius) * costs::log2_ceil(n).max(1);

    if power >= diameter_upper {
        // Trivial decomposition: one class, one cluster per connected
        // component. Each cluster's view is then its whole component, so
        // CUT finds no eligible edge (none leaves the core) and draws no
        // random number under either rule, and the view mask leaves out
        // only uncolored edges and other components' edges, which no
        // search walks. Augmenting every edge in ascending id order through
        // the unrestricted context and one connectivity cache therefore
        // gives each component exactly the coloring the cluster loop would:
        // a search never leaves its component.
        ledger.charge(
            "network decomposition of G^{2(R+R')} (trivial: radius exceeds diameter)",
            costs::network_decomposition(n, 1),
        );
        CLUSTERS.add(u64::from(num_comp));
        let _cluster_span = Span::enter("algo2.cluster_loop");
        ledger.charge("process class 0 clusters", class_rounds);
        for e in csr.edge_ids() {
            if unrestricted
                .augment_edge_connected(&mut coloring, &mut conn, e, max_iterations)
                .is_err()
            {
                leftover.push(e);
            }
        }
        // The loop's leftover order: by component, then by id.
        leftover.sort_by_key(|&e| comp[csr.endpoints(e).0.index()]);
        return Ok(Algorithm2Output {
            coloring,
            // The loop retries every failed search unrestricted (the same
            // search, which fails again), then leaves its edge over.
            fallback_unrestricted: leftover.len(),
            fallback_uncolored: leftover.len(),
            leftover,
            all_cuts_good: true,
            forced_cut_removals: 0,
            max_cut_load: cut_state.max_load(),
            num_classes: 1,
            num_clusters: num_comp as usize,
            radii: (cut_radius, locality_radius),
            ledger,
            pipeline_stats,
        });
    }

    // Simulating the decomposition on G^power costs a factor `power`.
    ledger.charge(
        format!("simulate G^{power} for the network decomposition"),
        costs::network_decomposition(n, power),
    );
    // Each power neighbourhood is one bounded BFS ball in G, so the
    // quadratic power graph is never materialized.
    let nd = network_decomposition(csr, power, &mut ledger);
    BALL_EXPANSIONS.add(nd.ball_expansions);
    pipeline_stats.power_ball_expansions = nd.ball_expansions;
    let mut classes: Vec<Vec<Vec<VertexId>>> = vec![Vec::new(); nd.num_classes];
    for (cluster_id, members) in nd.clusters.iter().enumerate() {
        classes[nd.cluster_class[cluster_id]].push(members.clone());
    }
    let num_clusters_total = nd.clusters.len();

    let mut removed = vec![false; m];
    let mut all_cuts_good = true;
    let mut forced_cut_removals = 0usize;
    let mut fallback_unrestricted = 0usize;
    let mut fallback_uncolored = 0usize;
    let num_classes = classes.len();

    // Shared scratch for the whole cluster loop: every per-cluster structure
    // below is reset through the touched-id lists, never by an O(n) or O(m)
    // clear.
    let mut cut_scratch = CutScratch::new();
    let mut core = vec![false; n];
    let mut view = vec![false; n];
    let mut view_edges = vec![false; m];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut core_list: Vec<VertexId> = Vec::new();
    let mut scope_edges: Vec<EdgeId> = Vec::new();
    let mut view_edge_list: Vec<EdgeId> = Vec::new();
    let mut edge_seen = StampSet::new(m);
    let mut bfs_nanos = 0u64;
    CLUSTERS.add(num_clusters_total as u64);

    let _cluster_span = Span::enter("algo2.cluster_loop");
    for (class_index, clusters) in classes.iter().enumerate() {
        ledger.charge(
            format!("process class {class_index} clusters"),
            class_rounds,
        );
        for cluster in clusters {
            // C' = N^{R'}(C), C'' = N^{R+R'}(C): one bounded BFS touches
            // exactly the view ball and nothing else.
            let ball_start = Stopwatch::start();
            region.run_bounded(csr, cluster, locality_radius + cut_radius, |_| true);
            touched.clear();
            touched.extend_from_slice(region.visited());
            touched.sort_unstable();
            core_list.clear();
            for &v in &touched {
                view[v.index()] = true;
                if region.distance(v) <= locality_radius {
                    core[v.index()] = true;
                    core_list.push(v);
                }
            }
            // Every edge with at least one endpoint in the view, ascending —
            // the CUT scope (escapes are half-in, half-out).
            kernels::gather_unique_sorted(
                touched.iter().map(|&v| csr.incident_edges(v)),
                |e: EdgeId| e.index(),
                &mut edge_seen,
                &mut scope_edges,
            );
            bfs_nanos += ball_start.elapsed_nanos();
            // CUT(C', R).
            let scope = CutScope {
                core_vertices: &core_list,
                view_vertices: &touched,
                edges: &scope_edges,
            };
            let outcome: CutOutcome = execute_cut_scoped(
                csr,
                &coloring,
                &scope,
                &core,
                &view,
                &strategy,
                &mut cut_state,
                // Complete CUT deterministically when the randomized rule
                // leaves an escaping path (keeps the output exact at bench
                // scale).
                true,
                rng,
                &mut cut_scratch,
            );
            all_cuts_good &= outcome.good;
            forced_cut_removals += outcome.forced.len();
            for e in outcome.all_removed() {
                if !removed[e.index()] {
                    removed[e.index()] = true;
                    coloring.clear(e);
                    leftover.push(e);
                }
            }
            // Augment every uncolored, non-removed edge incident to C. The
            // restriction mask covers exactly the view-internal non-removed
            // edges; all of them are scope edges, and everything else stays
            // `false` from the previous cluster's cleanup.
            view_edge_list.clear();
            for &e in &scope_edges {
                let (u, v) = csr.endpoints(e);
                if !removed[e.index()] && view[u.index()] && view[v.index()] {
                    view_edges[e.index()] = true;
                    view_edge_list.push(e);
                }
            }
            let restricted = AugmentationContext::restricted(csr, lists, &view_edges);
            // The connectivity cache is scoped to this cluster: the edge
            // restriction (and the CUT removals above) changed since the
            // previous one. Each color the cluster queries is then rebuilt
            // by a scan of all m edges, so a cluster costs O(k(n + m))
            // however small its ball.
            conn.invalidate_all();
            // Candidate edges: the scope edges incident to the cluster (an
            // endpoint at region distance 0), ascending — the same visiting
            // order as a whole-edge-list scan filtered on cluster incidence.
            for &e in &scope_edges {
                let (u, v) = csr.endpoints(e);
                if region.distance(u) != 0 && region.distance(v) != 0 {
                    continue;
                }
                if coloring.color(e).is_some() || removed[e.index()] {
                    continue;
                }
                if restricted
                    .augment_edge_connected(&mut coloring, &mut conn, e, max_iterations)
                    .is_ok()
                {
                    continue;
                }
                fallback_unrestricted += 1;
                match unrestricted.find_augmenting_sequence(&coloring, e, max_iterations) {
                    Some(seq) => {
                        // The unrestricted sequence may recolor edges the
                        // restricted cache tracks; invalidate what it touched.
                        for &(se, sc) in &seq.steps {
                            if let Some(old) = coloring.color(se) {
                                conn.invalidate(old);
                            }
                            conn.invalidate(sc);
                        }
                        crate::augmenting::apply_augmentation(&mut coloring, &seq);
                    }
                    None => {
                        // Give up on this edge: it joins the leftover set.
                        fallback_uncolored += 1;
                        removed[e.index()] = true;
                        leftover.push(e);
                    }
                }
            }
            // Reset the dense masks through the touched lists (O(ball)).
            for &v in &touched {
                core[v.index()] = false;
                view[v.index()] = false;
            }
            for &e in &view_edge_list {
                view_edges[e.index()] = false;
            }
        }
    }
    BFS_NANOS.add(bfs_nanos);

    Ok(Algorithm2Output {
        coloring,
        leftover,
        all_cuts_good,
        forced_cut_removals,
        fallback_unrestricted,
        fallback_uncolored,
        max_cut_load: cut_state.max_load(),
        num_classes,
        num_clusters: num_clusters_total,
        radii: (cut_radius, locality_radius),
        ledger,
        pipeline_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{
        validate_list_coloring, validate_partial_forest_decomposition,
    };
    use forest_graph::{generators, matroid, CsrGraph, MultiGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn check_output(g: &MultiGraph, lists: &ListAssignment, out: &Algorithm2Output) {
        validate_partial_forest_decomposition(g, &out.coloring).expect("E0 is an LFD");
        validate_list_coloring(g, &out.coloring, lists).expect("palettes respected");
        // Every edge is either colored or in the leftover.
        let leftover: HashSet<EdgeId> = out.leftover.iter().copied().collect();
        for e in g.edge_ids() {
            assert!(
                out.coloring.color(e).is_some() || leftover.contains(&e),
                "edge {e} neither colored nor leftover"
            );
        }
    }

    #[test]
    fn colors_planted_graph_with_small_slack() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::planted_forest_union(48, 3, &mut rng);
        let alpha = matroid::arboricity(&g);
        let lists = ListAssignment::uniform(g.num_edges(), ((1.5) * alpha as f64).ceil() as usize);
        let config = Algorithm2Config::new(0.5, alpha);
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        check_output(&g, &lists, &out);
        // On a small planted graph the radii exceed the diameter, so there is
        // nothing to cut and everything gets colored.
        assert!(out.leftover.is_empty());
        assert_eq!(out.fallback_uncolored, 0);
        assert!(out.ledger.total_rounds() > 0);
    }

    #[test]
    fn respects_random_list_palettes() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::planted_forest_union(32, 2, &mut rng);
        let alpha = matroid::arboricity(&g);
        let k = ((1.5) * alpha as f64).ceil() as usize + 1;
        let lists = ListAssignment::random(g.num_edges(), 3 * k, k, &mut rng);
        let config = Algorithm2Config::new(0.5, alpha);
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        check_output(&g, &lists, &out);
    }

    #[test]
    fn small_radii_exercise_cut_and_keep_leftover_small() {
        let mut rng = StdRng::seed_from_u64(9);
        // A long fat path: large diameter, arboricity 2.
        let g = generators::fat_path(120, 2);
        let alpha = 2;
        let lists = ListAssignment::uniform(g.num_edges(), 3);
        let config = Algorithm2Config::new(0.5, alpha).with_radii(8, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        check_output(&g, &lists, &out);
        assert_eq!(out.radii, (8, 4));
        // CUT had real work to do (several classes / clusters).
        assert!(out.num_clusters >= 1);
        // The per-vertex CUT load (which bounds the leftover pseudo-arboricity)
        // stays small: at most one removal per color per class touching the
        // vertex. Allow generous slack for the tiny parameters of this test.
        assert!(
            out.max_cut_load <= 20,
            "cut load too large: {}",
            out.max_cut_load
        );
        // The leftover must stay a bounded fraction of the edges.
        assert!(
            out.leftover.len() <= g.num_edges() / 2,
            "leftover too large: {} of {}",
            out.leftover.len(),
            g.num_edges()
        );
    }

    #[test]
    fn pipeline_stats_count_ball_expansions_on_the_power_path_only() {
        let mut rng = StdRng::seed_from_u64(9);
        // Forced radii far below the diameter: the network decomposition
        // of G^{2(R+R')} grows one ball per power neighbourhood.
        let g = generators::fat_path(120, 2);
        let lists = ListAssignment::uniform(g.num_edges(), 3);
        let config = Algorithm2Config::new(0.5, 2).with_radii(8, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        assert!(out.num_clusters > 1);
        assert!(out.pipeline_stats.power_ball_expansions > 0);
        // Derived radii beyond the diameter: the trivial one-cluster path
        // grows no ball.
        let g = generators::fat_path(8, 2);
        let lists = ListAssignment::uniform(g.num_edges(), 3);
        let config = Algorithm2Config::new(0.5, 2);
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        assert_eq!(out.num_clusters, 1);
        assert_eq!(out.pipeline_stats.power_ball_expansions, 0);
    }

    #[test]
    fn conditioned_sampling_strategy_works_end_to_end() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::fat_path(80, 2);
        let lists = ListAssignment::uniform(g.num_edges(), 3);
        let mut config = Algorithm2Config::new(0.5, 2).with_radii(10, 5);
        config.cut = CutStrategyKind::ConditionedSampling;
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        check_output(&g, &lists, &out);
    }

    #[test]
    fn rejects_small_palettes() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::planted_forest_union(20, 3, &mut rng);
        let lists = ListAssignment::uniform(g.num_edges(), 2);
        let config = Algorithm2Config::new(0.5, 3);
        let csr = CsrGraph::from_multigraph(&g);
        assert!(matches!(
            algorithm2_frozen(&csr, &lists, &config, &mut rng),
            Err(FdError::PaletteTooSmall { .. })
        ));
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = MultiGraph::new(7);
        let lists = ListAssignment::uniform(0, 1);
        let config = Algorithm2Config::new(0.5, 1);
        let csr = CsrGraph::from_multigraph(&g);
        let out = algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap();
        assert!(out.leftover.is_empty());
        assert_eq!(out.num_clusters, 0);
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::path(4);
        let lists = ListAssignment::uniform(3, 2);
        let config = Algorithm2Config::new(1.5, 1);
        let csr = CsrGraph::from_multigraph(&g);
        assert!(matches!(
            algorithm2_frozen(&csr, &lists, &config, &mut rng),
            Err(FdError::InvalidEpsilon { .. })
        ));
    }
}
