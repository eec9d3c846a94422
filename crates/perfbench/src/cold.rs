//! `cold_mesh` and `cold_random`: closed-loop cold decompositions on one
//! thread, each op one `Decomposer` run with the request defaults
//! (Harris–Su–Vu, ε = 0.5, α computed, validation on) and a per-op seed.
//!
//! * `cold_mesh` decomposes the thin, large-diameter `grid(120, 12)` as a
//!   `MultiGraph`: its diameter exceeds `2(R+R')`, so the network
//!   decomposition over `PowerView` yields several clusters and takes
//!   nearly the whole op.
//! * `cold_random` decomposes four `planted_forest_union(20000, 3)` graphs
//!   that arrive as binary edge files; set-up builds each into an on-disk
//!   CSR with `extsort` under a budget that spills, and every op opens it
//!   with `GraphInput::from_mmap`. The small diameter makes the network
//!   decomposition trivial, so the op splits across the diameter bound,
//!   the Algorithm 2 cluster loop, the exact arboricity and validation.
//!
//! `op2` is `Validate::validate` of each fresh report against its input,
//! as a consumer that receives a report runs it.

use crate::spans::Spans;
use crate::speed::{Probe, Speed};
use crate::stats::{median, mix, ms, remainder, Latencies, Tally};
use crate::{host, record_op, repeated_setup, with_recorder, Config, Outcome, Timed};
use forest_decomp::algorithm2::{algorithm2_frozen, Algorithm2Config};
use forest_decomp::api::{
    Decomposer, DecompositionReport, DecompositionRequest, GraphInput, ProblemKind, Validate,
};
use forest_decomp::FdError;
use forest_graph::decomposition::max_forest_diameter;
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, EdgeListFormat, ExtsortConfig,
};
use forest_graph::{generators, matroid, CsrGraph, CsrRef, ListAssignment, MmapCsr, MultiGraph};
use forest_obs::clock::Stopwatch;
use forest_obs::Span;
use rand::rngs::{SmallRng, StdRng};
use rand::SeedableRng;
use std::path::PathBuf;

/// Which cold input family a run decomposes.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `grid(120, 12)` as an in-memory multigraph.
    Mesh,
    /// `planted_forest_union(20000, 3)` graphs as mmap-backed CSR files.
    Random,
}

const MESH_ROWS: usize = 120;
const MESH_COLS: usize = 12;
const RANDOM_N: usize = 20_000;
const RANDOM_K: usize = 3;
const RANDOM_GRAPHS: usize = 4;
/// Sort buffer of the extsort builds: small enough that every build spills.
const EXTSORT_BUDGET: usize = 64 * 1024;

/// Topology the attribution replays run over (the view the facade itself
/// would build: a frozen CSR, or the mapped file).
enum Frozen {
    Owned(CsrGraph),
    Mapped(MmapCsr),
}

impl Frozen {
    fn view(&self) -> CsrRef<'_> {
        match self {
            Frozen::Owned(csr) => csr.view(),
            Frozen::Mapped(csr) => csr.view(),
        }
    }
}

/// Where an op reads its graph from.
enum Source {
    /// An in-memory multigraph (mesh).
    Memory(MultiGraph),
    /// An on-disk CSR each op maps (random), with the in-memory twin of
    /// graph 0 for the mmap-equals-in-memory check.
    File {
        path: PathBuf,
        twin: Option<MultiGraph>,
    },
}

/// One input graph of the run.
struct Input {
    source: Source,
    frozen: Frozen,
    /// Nash-Williams density bound `⌈m/(n−1)⌉`.
    lower_bound: usize,
}

/// What one set-up spent in `extsort` (random inputs).
#[derive(Clone, Copy, Default)]
struct ExtsortCost {
    build_ns: u64,
    spilled_runs: usize,
}

struct Cold {
    seed: u64,
    request: DecompositionRequest,
    inputs: Vec<Input>,
    /// Canonical bytes of op 0, computed by the set-up's warm-up run.
    reference: Vec<u8>,
    extsort: ExtsortCost,
    next_op: u64,
}

impl Cold {
    fn setup(cfg: &Config, family: Family, rep: usize) -> Result<Cold, String> {
        let mut extsort = ExtsortCost::default();
        let inputs = match family {
            Family::Mesh => {
                let g = generators::grid(MESH_ROWS, MESH_COLS);
                let frozen = Frozen::Owned(CsrGraph::from_multigraph(&g));
                vec![Input {
                    lower_bound: matroid::arboricity_lower_bound(&g),
                    source: Source::Memory(g),
                    frozen,
                }]
            }
            Family::Random => {
                let dir = cfg.work_dir.join(format!("setup{rep}"));
                std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 1));
                let mut inputs = Vec::with_capacity(RANDOM_GRAPHS);
                for i in 0..RANDOM_GRAPHS {
                    let g = generators::planted_forest_union(RANDOM_N, RANDOM_K, &mut rng);
                    let edges = dir.join(format!("g{i}.edges"));
                    let csr_path = dir.join(format!("g{i}.csr"));
                    write_binary_edge_file(&edges, g.edges().map(|(_, u, v)| (u.raw(), v.raw())))
                        .map_err(|e| format!("writing {}: {e}", edges.display()))?;
                    let clock = Stopwatch::start();
                    let stats = build_csr_from_edge_file(
                        &edges,
                        EdgeListFormat::BinaryU32,
                        &csr_path,
                        &ExtsortConfig::with_budget(EXTSORT_BUDGET).num_vertices(RANDOM_N),
                    )
                    .map_err(|e| format!("extsort {}: {e}", edges.display()))?;
                    extsort.build_ns += clock.elapsed_nanos();
                    extsort.spilled_runs += stats.spilled_runs;
                    let mapped = MmapCsr::load_mmap(&csr_path)
                        .map_err(|e| format!("mapping {}: {e}", csr_path.display()))?;
                    inputs.push(Input {
                        lower_bound: matroid::arboricity_lower_bound(&g),
                        source: Source::File {
                            path: csr_path,
                            twin: (i == 0).then_some(g),
                        },
                        frozen: Frozen::Mapped(mapped),
                    });
                }
                inputs
            }
        };
        let mut cold = Cold {
            seed: cfg.seed,
            request: DecompositionRequest::new(ProblemKind::Forest),
            inputs,
            reference: Vec::new(),
            extsort,
            next_op: 1,
        };
        // Warm-up: op 0, whose bytes the end-of-run re-run must reproduce.
        cold.reference = cold
            .decompose(0)
            .map_err(|e| format!("warm-up run: {e}"))?
            .canonical_bytes();
        Ok(cold)
    }

    fn op_seed(&self, op: u64) -> u64 {
        mix(self.seed, 1_000 + op)
    }
    fn input_of(&self, op: u64) -> &Input {
        let i = usize::try_from(op % self.inputs.len() as u64).unwrap_or(0);
        &self.inputs[i]
    }

    /// The op itself: one cold run of `op`'s (graph, seed).
    fn decompose(&self, op: u64) -> Result<DecompositionReport, FdError> {
        let decomposer = Decomposer::new(self.request.clone().with_seed(self.op_seed(op)));
        match &self.input_of(op).source {
            Source::Memory(g) => decomposer.run(g),
            Source::File { path, .. } => decomposer.run(GraphInput::from_mmap(path)?),
        }
    }

    /// Replays the op's layers one by one from this code, each in its own
    /// span under the op's span: the exact arboricity, Algorithm 2 with
    /// the palettes the facade uses (same seed, so the same run) and the
    /// diameter bound. (Validation is `op2`, already in its own span.)
    fn attribute(&self, op: u64, report: &DecompositionReport, layers: &mut LayerCounts) -> bool {
        let input = self.input_of(op);
        let view = input.frozen.view();
        let m = report.num_edges;
        {
            let _s = Span::enter("bench.matroid.arboricity");
            std::hint::black_box(matroid::arboricity(&view));
        }
        let alpha = report.arboricity.max(1);
        let primary = ((1.0 + self.request.epsilon) * alpha as f64).ceil() as usize;
        let lists = ListAssignment::uniform(m, primary);
        let mut config = Algorithm2Config::new(self.request.epsilon, alpha);
        config.cut = self.request.cut;
        let mut rng = SmallRng::seed_from_u64(self.op_seed(op));
        let out = {
            let _s = Span::enter("bench.algo2.total");
            algorithm2_frozen(&view, &lists, &config, &mut rng)
        };
        let Some(fd) = report.artifact.decomposition() else {
            return false;
        };
        {
            let _s = Span::enter("bench.decomposition.max_diameter");
            std::hint::black_box(max_forest_diameter(&view, &fd.to_partial()));
        }
        let Ok(out) = out else { return false };
        layers.clusters.push(out.num_clusters as f64);
        layers
            .expansions
            .push(out.pipeline_stats.power_ball_expansions as f64);
        layers.cache_hits += out.pipeline_stats.power_cache_hits;
        layers.leftover.push(report.leftover_edges as f64);
        // The replay is the run's own Algorithm 2 call: same leftover.
        out.leftover.len() == report.leftover_edges
    }

    /// Closed loop for `budget` nanoseconds, the probe run before each op;
    /// with `attribute`, each op is followed by its layer replays and every
    /// other round over the inputs is recorded, so each input is decomposed
    /// as often recorded as not.
    fn phase(&mut self, budget: u64, mut attribute: Option<&mut LayerCounts>) -> Timed {
        let mut p = Timed::default();
        let mut probe = Probe::default();
        let rounds = self.inputs.len() as u64;
        let clock = Stopwatch::start();
        while clock.elapsed_nanos() < budget {
            let op = self.next_op;
            self.next_op += 1;
            let speed = p.probe(&mut probe);
            let sw = Stopwatch::start();
            let recorded = attribute.is_some() && record_op((op / rounds) % 2 == 1);
            self.step(op, speed, recorded, &mut p, attribute.as_deref_mut());
            p.scaled_ns += speed.scale(sw.elapsed_nanos());
        }
        p.elapsed_ns = clock.elapsed_nanos();
        p
    }

    /// One op of the closed loop, its checks and (traced) its replays.
    fn step(
        &self,
        op: u64,
        speed: Speed,
        recorded: bool,
        p: &mut Timed,
        attribute: Option<&mut LayerCounts>,
    ) {
        let _op = Span::enter("bench.op");
        let sw = Stopwatch::start();
        let result = {
            let _s = Span::enter("bench.decompose");
            self.decompose(op)
        };
        let op_ns = sw.elapsed_nanos();
        let report = match result {
            Ok(report) => report,
            Err(err) => {
                p.tally.record(false);
                p.errors.push(format!("op {op}: {err}"));
                return;
            }
        };
        p.op.push(op_ns, speed);
        let input = self.input_of(op);
        let sw = Stopwatch::start();
        let valid = {
            let _s = Span::enter("bench.facade.validate");
            report.validate(&input.frozen.view())
        };
        p.op2.push(sw.elapsed_nanos(), speed);
        let lb = input.lower_bound.max(1);
        p.ratio.push(report.num_colors as f64 / lb as f64);
        // No forest decomposition beats the Nash-Williams bound.
        let sane = valid.is_ok() && report.num_colors >= lb;
        p.tally.record(sane);
        if let Some(layers) = attribute {
            let split = if recorded {
                &mut layers.recorded
            } else {
                &mut layers.unrecorded
            };
            split.push(op_ns, speed);
            let consistent = self.attribute(op, &report, layers);
            p.tally.record(consistent);
        }
    }

    /// End-of-run checks: op 0 re-runs byte-identically, and (random) the
    /// mmap run equals the in-memory run of the same graph and seed.
    fn final_checks(&self, tally: &mut Tally, notes: &mut Vec<String>) {
        let rerun = self.decompose(0).map(|r| r.canonical_bytes());
        if !tally.record(rerun.as_ref().is_ok_and(|b| *b == self.reference)) {
            notes.push("check failed: re-run of op 0 changed its canonical bytes".into());
        }
        if let Source::File { twin: Some(g), .. } = &self.inputs[0].source {
            let twin = Decomposer::new(self.request.clone().with_seed(self.op_seed(0)))
                .run(g)
                .map(|r| r.canonical_bytes());
            if !tally.record(twin.is_ok_and(|b| b == self.reference)) {
                notes.push("check failed: mmap run differs from the in-memory run".into());
            }
        }
    }
}

/// Per-op layer facts gathered by the replays, and the op latencies split
/// by whether the recorder was on.
#[derive(Default)]
struct LayerCounts {
    recorded: Latencies,
    unrecorded: Latencies,
    clusters: Vec<f64>,
    expansions: Vec<f64>,
    cache_hits: u64,
    leftover: Vec<f64>,
}

/// Runs `cold_mesh` or `cold_random`.
pub fn run(cfg: &Config, family: Family, process_clock: Stopwatch) -> Result<Outcome, String> {
    let mut setup_costs = Vec::new();
    let (mut cold, setup) = repeated_setup(process_clock, |rep| {
        let cold = Cold::setup(cfg, family, rep)?;
        setup_costs.push(cold.extsort);
        Ok(cold)
    })?;
    let mut out = Outcome::default();
    if !cfg.trace {
        let p = cold.phase(cfg.budget_nanos(), None);
        out.set_end_to_end(&setup, host::peak_rss_mib(None), p);
    } else {
        let mut layers = LayerCounts::default();
        let traced = with_recorder(&mut out, || {
            cold.phase(cfg.budget_nanos(), Some(&mut layers))
        });
        let per_op = OpLayers::from_spans(&Spans::from_events(&out.events));
        let n = layers.recorded.len();
        for (name, values) in [
            ("matroid.arboricity_ms", &per_op.arboricity),
            ("algo2.total_ms", &per_op.algo2_total),
            ("algo2.cluster_loop_ms", &per_op.cluster_loop),
            ("algo2.pre_cluster_ms", &per_op.pre_cluster),
            ("decomposition.max_diameter_ms", &per_op.max_diameter),
            ("facade.validate_ms", &per_op.validate),
            ("facade.other_ms", &per_op.other),
            ("facade.leftover_edges", &layers.leftover),
            ("algo2.clusters", &layers.clusters),
            ("local_model.ball_expansions", &layers.expansions),
        ] {
            out.set(name, median(values), n);
        }
        let expansions: f64 = layers.expansions.iter().sum();
        let hit_ratio = if expansions > 0.0 {
            layers.cache_hits as f64 / expansions
        } else {
            0.0
        };
        out.set("local_model.ball_cache_hit_ratio", hit_ratio, n);
        let build: Vec<f64> = setup_costs.iter().map(|c| ms(c.build_ns)).collect();
        out.set("extsort.build_ms", median(&build), build.len());
        let spilled = setup_costs.last().map_or(0, |c| c.spilled_runs);
        out.set("extsort.spilled_runs", spilled as f64, setup_costs.len());
        out.set_trace_costs(&layers.recorded, &layers.unrecorded);
        out.absorb(traced);
    }
    let mut checks = Tally::default();
    cold.final_checks(&mut checks, &mut out.notes);
    out.tally.merge(checks);
    Ok(out)
}

/// Per-op layer times in milliseconds, one entry per `bench.op` span.
#[derive(Default)]
struct OpLayers {
    arboricity: Vec<f64>,
    algo2_total: Vec<f64>,
    /// The program's own `algo2.cluster_loop` span inside the replay.
    cluster_loop: Vec<f64>,
    /// The replay's self time outside the program's spans: the diameter
    /// bound and the network decomposition over `PowerView`.
    pre_cluster: Vec<f64>,
    max_diameter: Vec<f64>,
    validate: Vec<f64>,
    /// The op minus every attributed part.
    other: Vec<f64>,
}

impl OpLayers {
    fn from_spans(spans: &Spans) -> OpLayers {
        let mut layers = OpLayers::default();
        for op in spans.named("bench.op") {
            let dur = |name: &str| spans.child(op, name).map_or(0.0, |s| ms(s.duration()));
            let arboricity = dur("bench.matroid.arboricity");
            let total = dur("bench.algo2.total");
            let max_diameter = dur("bench.decomposition.max_diameter");
            let validate = dur("bench.facade.validate");
            if let Some(id) = spans.child_id(op, "bench.algo2.total") {
                layers
                    .cluster_loop
                    .push(ms(spans.descendant_total(id, "algo2.cluster_loop")));
                layers.pre_cluster.push(ms(spans.self_time(id)));
            }
            layers.arboricity.push(arboricity);
            layers.algo2_total.push(total);
            layers.max_diameter.push(max_diameter);
            layers.validate.push(validate);
            layers.other.push(remainder(
                dur("bench.decompose"),
                &[arboricity, total, max_diameter, validate],
            ));
        }
        layers
    }
}
