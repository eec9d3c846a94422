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
//! with one per-color connectivity cache, whose forests start primed empty,
//! so an edge that fits costs one union per color tried. Each cluster's
//! view would be its whole component, so CUT would cut nothing and draw no
//! random number, and a search never leaves its component; the pass
//! returns exactly what the cluster loop returns on such inputs (coloring,
//! leftover, counters, ledger), in `O(n + m)` plus the searches.
//!
//! On a palette that starts with the colors `0..α`, an edge that fits
//! takes the first of them whose forest keeps its endpoints apart: the
//! pass is first-fit. When the exact partition that found `α`
//! ([`exact_forest_decomposition`](forest_graph::matroid::exact_forest_decomposition))
//! never left its own first-fit over `0..α`
//! ([`exchanges`](forest_graph::matroid::ExactForestDecomposition::exchanges)
//! is 0), the pass would pick that partition's color for every edge, by
//! induction over the ascending edge ids, and no search would run. The
//! forest pipeline ([`crate::combine`]) then hands the partition in and
//! the pass adopts it instead of recomputing it; everything else the pass
//! returns (no leftover, zero counters, the same ledger) is unchanged.
//!
//! Such a partition can also settle the decomposition without the BFS.
//! Its color 0 is Kruskal's spanning forest of the graph: each component
//! is one tree of color 0, so there are `n` minus that color's edge count
//! of them, and the partition's largest tree diameter `D` bounds every
//! component's diameter, hence every eccentricity the BFS would measure.
//! When the pipeline measured `D` (its report needs it anyway) and `2D`
//! is at most `2(R+R')`, the pass runs with no BFS; otherwise the BFS
//! decides as above, and the outputs are the same either way.
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
use crate::error::{check_epsilon, check_palettes, one_plus_eps_ceil, FdError};
use crate::hpartition::{acyclic_orientation, h_partition};
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::kernels::{self, StampSet};
use forest_graph::traversal::BfsScratch;
use forest_graph::{EdgeId, ForestDecomposition, GraphView, ListAssignment, VertexId};
use forest_obs::Span;
use local_model::rounds::costs;
use local_model::{network_decomposition, RoundLedger};
use rand::Rng;

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Debug, PartialEq, Eq)]
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

#[expect(
    clippy::cast_possible_truncation,
    reason = "a ceiling of a finite positive radius; `as` saturates"
)]
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
    algorithm2_adopting(csr, lists, config, rng, None).map(|(out, _)| out)
}

/// An exact partition that never left first-fit, handed to
/// [`algorithm2_adopting`]: what first-fit over the colors `0..k` computes
/// in ascending edge-id order when it never finds all `k` forests blocked
/// ([`exchanges`](forest_graph::matroid::ExactForestDecomposition::exchanges)
/// is 0).
#[derive(Clone, Debug)]
pub(crate) struct FirstFit {
    /// The partition.
    pub partition: ForestDecomposition,
    /// Its largest tree diameter
    /// ([`ForestDecomposition::max_diameter`]), when the caller measured it.
    pub max_diameter: Option<usize>,
}

impl FirstFit {
    /// The number of connected components when the partition certifies the
    /// decomposition of `G^power` trivial, that is when twice its largest
    /// tree diameter is at most `power`. Color 0 is Kruskal's spanning
    /// forest of the graph, so the partition's diameter bounds every
    /// component's, and twice it bounds the BFS estimate the pass would
    /// otherwise compute; each component is one tree of color 0.
    fn trivial_components(&self, n: usize, power: usize) -> Option<usize> {
        let diameter = self.max_diameter?;
        (2 * diameter <= power).then(|| {
            let spanning = self.partition.colors().iter().filter(|c| c.index() == 0);
            n - spanning.count()
        })
    }
}

/// [`algorithm2_frozen`], except that the [trivial pass](self#the-trivial-pass)
/// adopts `first_fit` when it runs, instead of augmenting every edge, and
/// needs no component BFS when `first_fit`'s measured diameter certifies it.
///
/// Every palette must start with the colors `0..k` of `first_fit`, as
/// uniform palettes of `⌈(1+ε)k⌉` colors do. The trivial pass then returns
/// the same output either way; a non-trivial decomposition ignores
/// `first_fit` and runs the cluster loop. Alongside the output comes
/// `first_fit`'s measured diameter when the pass adopted it, which is then
/// the output coloring's.
pub(crate) fn algorithm2_adopting<C: GraphView, R: Rng + ?Sized>(
    csr: &C,
    lists: &ListAssignment,
    config: &Algorithm2Config,
    rng: &mut R,
    first_fit: Option<FirstFit>,
) -> Result<(Algorithm2Output, Option<usize>), FdError> {
    check_epsilon(config.epsilon)?;
    let n = csr.num_vertices();
    let m = csr.num_edges();
    let mut ledger = RoundLedger::new();
    if m == 0 {
        let out = Algorithm2Output {
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
        };
        return Ok((out, None));
    }
    check_palettes(lists, one_plus_eps_ceil(config.epsilon, config.alpha))?;
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
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a ceiling of a finite non-negative load; `as` saturates"
            )]
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
    // The component of every vertex (empty when the partition's diameter
    // certified the decomposition trivial), the number of components, and
    // the bounded-BFS scratch, kept for the cluster loop's region
    // collection when the decomposition is not trivial.
    let (comp, num_comp, cluster_scratch) = match first_fit
        .as_ref()
        .and_then(|f| f.trivial_components(n, power))
    {
        Some(num_comp) => (Vec::new(), num_comp, None),
        None => {
            let mut region = BfsScratch::new(n);
            let (comp, num_comp, diameter_upper) = number_components(csr, &mut region);
            (comp, num_comp, (power < diameter_upper).then_some(region))
        }
    };

    let unrestricted = AugmentationContext::new(csr, lists);
    // All clusters of a class are processed in parallel in the LOCAL
    // model; the simulation charges the cluster-processing cost once per
    // class.
    let class_rounds = (cut_radius + locality_radius) * costs::log2_ceil(n).max(1);

    let Some(mut region) = cluster_scratch else {
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
        let _cluster_span = Span::enter("algo2.cluster_loop");
        ledger.charge("process class 0 clusters", class_rounds);
        let (coloring, leftover, adopted_diameter) = match first_fit {
            // First-fit that never missed is what the pass below computes,
            // edge by edge, with no search and nothing left over.
            Some(first_fit) => {
                debug_assert_eq!(first_fit.partition.num_edges(), m);
                let coloring = first_fit.partition.to_partial();
                (coloring, Vec::new(), first_fit.max_diameter)
            }
            None => {
                let mut coloring = PartialEdgeColoring::new_uncolored(m);
                let mut leftover = Vec::new();
                // The coloring starts empty, so every forest does: prime as
                // many colors as the largest palette holds (all of a
                // uniform palette) rather than build each by a scan of all
                // m edges on first use.
                let mut conn = ColorConnectivity::new(n);
                conn.prime(lists.max_palette_size());
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
                (coloring, leftover, None)
            }
        };
        let out = Algorithm2Output {
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
            num_clusters: num_comp,
            radii: (cut_radius, locality_radius),
            ledger,
            pipeline_stats,
        };
        return Ok((out, adopted_diameter));
    };

    // Simulating the decomposition on G^power costs a factor `power`.
    ledger.charge(
        format!("simulate G^{power} for the network decomposition"),
        costs::network_decomposition(n, power),
    );
    // Each power neighbourhood is one bounded BFS ball in G, so the
    // quadratic power graph is never materialized.
    let nd = network_decomposition(csr, power, &mut ledger);
    pipeline_stats.power_ball_expansions = nd.ball_expansions;
    let mut classes: Vec<Vec<Vec<VertexId>>> = vec![Vec::new(); nd.num_classes];
    for (cluster_id, members) in nd.clusters.iter().enumerate() {
        classes[nd.cluster_class[cluster_id]].push(members.clone());
    }
    let num_clusters_total = nd.clusters.len();

    let mut coloring = PartialEdgeColoring::new_uncolored(m);
    let mut leftover: Vec<EdgeId> = Vec::new();
    let mut conn = ColorConnectivity::new(n);
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

    let _cluster_span = Span::enter("algo2.cluster_loop");
    for (class_index, clusters) in classes.iter().enumerate() {
        ledger.charge(
            format!("process class {class_index} clusters"),
            class_rounds,
        );
        for cluster in clusters {
            // C' = N^{R'}(C), C'' = N^{R+R'}(C): one bounded BFS touches
            // exactly the view ball and nothing else.
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

    let out = Algorithm2Output {
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
    };
    Ok((out, None))
}

/// One BFS per connected component, from its minimum vertex, on the
/// epoch-stamped `region` scratch, so each sweep touches only its own
/// component: the component of every vertex (numbered in the order of
/// that vertex), the number of components, and twice the largest
/// eccentricity of those vertices, an upper bound on the diameter.
fn number_components<C: GraphView>(csr: &C, region: &mut BfsScratch) -> (Vec<u32>, usize, usize) {
    let mut comp = vec![u32::MAX; csr.num_vertices()];
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
    (comp, num_comp as usize, diameter_upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::decomposition::{
        validate_list_coloring, validate_partial_forest_decomposition,
    };
    use forest_graph::{generators, matroid, Color, CsrGraph, MultiGraph};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
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

    /// Runs both entry points on `g` with palettes of `⌈1.5α⌉` colors, the
    /// adopting one handed the exact partition with its diameter measured
    /// and unmeasured, and requires equal outputs and equal RNG streams
    /// afterwards, and the measured diameter back exactly when the trivial
    /// pass ran. Returns the output and whether the diameter certified the
    /// pass (so that no BFS ran).
    fn assert_adoption_changes_nothing(
        g: &MultiGraph,
        config: &Algorithm2Config,
    ) -> (Algorithm2Output, bool) {
        let csr = CsrGraph::from_multigraph(g);
        let exact = matroid::exact_forest_decomposition(&csr);
        assert_eq!(exact.exchanges, 0, "a first-fit input");
        assert_eq!(exact.arboricity, config.alpha);
        let diameter = exact.decomposition.max_diameter(&csr).unwrap();
        let lists =
            ListAssignment::uniform(g.num_edges(), (1.5 * config.alpha as f64).ceil() as usize);
        let mut rng = StdRng::seed_from_u64(7);
        let computed = algorithm2_frozen(&csr, &lists, config, &mut rng).unwrap();
        let after = rng.next_u64();
        let trivial = computed.pipeline_stats.power_ball_expansions == 0;
        for max_diameter in [Some(diameter), None] {
            let first_fit = FirstFit {
                partition: exact.decomposition.clone(),
                max_diameter,
            };
            let mut adopting_rng = StdRng::seed_from_u64(7);
            let (adopted, adopted_diameter) =
                algorithm2_adopting(&csr, &lists, config, &mut adopting_rng, Some(first_fit))
                    .unwrap();
            assert_eq!(adopted, computed);
            assert_eq!(adopting_rng.next_u64(), after);
            assert_eq!(adopted_diameter, max_diameter.filter(|_| trivial));
        }
        let power = 2 * (computed.radii.0 + computed.radii.1);
        (computed, 2 * diameter <= power)
    }

    #[test]
    fn adopting_a_first_fit_partition_changes_nothing() {
        let planted = generators::planted_forest_union(60, 3, &mut StdRng::seed_from_u64(3));
        for (g, alpha) in [
            (planted, 3),
            (generators::grid(10, 6), 2),
            (generators::fat_path(12, 3), 3),
        ] {
            for cut in [
                CutStrategyKind::DepthModulo,
                CutStrategyKind::ConditionedSampling,
            ] {
                let mut config = Algorithm2Config::new(0.5, alpha);
                config.cut = cut;
                let (out, certified) = assert_adoption_changes_nothing(&g, &config);
                assert_eq!(out.pipeline_stats.power_ball_expansions, 0, "trivial");
                assert!(certified, "derived radii exceed the diameter");
                assert!(out.leftover.is_empty());
            }
        }
        // A 12-cycle at 2(R+R') = 12: the partition's path of 11 edges
        // fails the certificate, and the BFS, reaching 6 from vertex 0,
        // finds the decomposition trivial.
        let config = Algorithm2Config::new(0.5, 2).with_radii(4, 2);
        let (out, certified) = assert_adoption_changes_nothing(&generators::cycle(12), &config);
        assert!(!certified);
        assert_eq!(
            (out.num_clusters, out.pipeline_stats.power_ball_expansions),
            (1, 0)
        );
        // Two interleaved 4×3 grids on the odd and even ids 1..=24, and
        // the isolated vertices 0, 25, 26 and 27: six components, counted
        // from the partition's color 0.
        let grid = generators::grid(4, 3);
        let mut g = MultiGraph::new(28);
        for (_, u, v) in grid.edges() {
            for copy in 1..=2 {
                let id = |x: VertexId| VertexId::new(2 * x.index() + copy);
                g.add_edge(id(u), id(v)).unwrap();
            }
        }
        let (out, certified) = assert_adoption_changes_nothing(&g, &Algorithm2Config::new(0.5, 2));
        assert!(certified);
        assert_eq!(out.num_clusters, 6);
        // Radii below the diameter: the cluster loop runs and ignores the
        // partition.
        let config = Algorithm2Config::new(0.5, 2).with_radii(8, 4);
        let (out, certified) =
            assert_adoption_changes_nothing(&generators::fat_path(120, 2), &config);
        assert!(!certified);
        assert!(out.pipeline_stats.power_ball_expansions > 0, "non-trivial");
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
        // Explicit palettes: the error names the first short one.
        let mut lists = ListAssignment::uniform(g.num_edges(), 5);
        lists.set_palette(EdgeId::new(4), vec![Color::new(0), Color::new(1)]);
        lists.set_palette(EdgeId::new(9), Vec::new());
        assert_eq!(
            algorithm2_frozen(&csr, &lists, &config, &mut rng).unwrap_err(),
            FdError::PaletteTooSmall {
                edge: EdgeId::new(4),
                needed: 5,
                available: 2
            }
        );
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
