//! `churn`: a `VersionedDecomposer` (ExactMatroid) on a `grid(24, 24)`
//! that set-up has already churned, on one thread. Each op applies one
//! 32-update batch (half deletes of live edges, half random-pair inserts)
//! and publishes. After every [`SNAPSHOT_EVERY`] published epochs the
//! benchmark reads `canonical_bytes()` of the fresh epoch — the lazy cold
//! run `SnapshotBytes` serves — as `op2`, verifies the snapshot, and
//! compacts the edge-id space outside the timed ops so the id span, and
//! with it the publish cost, stays bounded however long the run lasts.
//! The probe runs once before each such block and scales the block's times.

use crate::spans::Spans;
use crate::speed::Probe;
use crate::stats::{mean, median, mix, ms, Latencies, Tally};
use crate::{host, record_op, repeated_setup, with_recorder, Config, Outcome, Timed};
use forest_decomp::api::{
    ColoringSnapshot, Decomposer, DecompositionRequest, EdgeUpdate, Engine, ProblemKind,
    VersionedDecomposer,
};
use forest_graph::{generators, matroid, CsrGraph, EdgeId, VertexId};
use forest_obs::clock::Stopwatch;
use forest_obs::{recorder, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const GRID: usize = 24;
/// Updates per op: half deletes, half inserts.
pub const BATCH: usize = 32;
/// Published epochs between two snapshot reads.
const SNAPSHOT_EVERY: usize = 32;
/// Batches set-up applies before timing starts, so the timed ops see the
/// churned steady state rather than the pristine grid.
const PRE_CHURN_BATCHES: usize = 256;

/// One churn batch over `live`: `BATCH / 2` deletes of random live edges
/// (removed from `live`), then random-pair inserts up to `BATCH`.
pub fn churn_batch<R: Rng>(rng: &mut R, live: &mut Vec<EdgeId>, n: usize) -> Vec<EdgeUpdate> {
    let mut batch = Vec::with_capacity(BATCH);
    for _ in 0..BATCH / 2 {
        if live.is_empty() {
            break;
        }
        let slot = rng.gen_range(0..live.len());
        batch.push(EdgeUpdate::delete(live.swap_remove(slot)));
    }
    while batch.len() < BATCH {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            batch.push(EdgeUpdate::insert(VertexId::new(u), VertexId::new(v)));
        }
    }
    batch
}

struct Churn {
    vd: VersionedDecomposer,
    request: DecompositionRequest,
    live: Vec<EdgeId>,
    rng: StdRng,
    n: usize,
}

/// Dynamic-path facts of the batches a phase applied.
#[derive(Default)]
struct PathCounts {
    applied: u64,
    fast_path: u64,
    exchanges: Vec<f64>,
}

/// A timed phase: op = batch + publish, op2 = snapshot read.
#[derive(Default)]
struct Phase {
    timed: Timed,
    paths: PathCounts,
    last: Option<Arc<ColoringSnapshot>>,
    /// Traced runs: op latencies with the recorder on and off.
    recorded: Latencies,
    unrecorded: Latencies,
}

impl Churn {
    fn setup(seed: u64) -> Result<Churn, String> {
        let g = generators::grid(GRID, GRID);
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(mix(seed, 2));
        let vd = VersionedDecomposer::from_graph(request.clone(), &g)
            .map_err(|e| format!("registering the grid: {e}"))?;
        let mut churn = Churn {
            vd,
            request,
            live: (0..g.num_edges()).map(EdgeId::new).collect(),
            rng: StdRng::seed_from_u64(mix(seed, 1)),
            n: g.num_vertices(),
        };
        for i in 0..PRE_CHURN_BATCHES {
            churn
                .apply()
                .map_err(|e| format!("pre-churn batch {i}: {e}"))?;
            if (i + 1) % SNAPSHOT_EVERY == 0 {
                churn.compact();
            }
        }
        Ok(churn)
    }

    /// Applies one batch and publishes (untimed; set-up only).
    fn apply(&mut self) -> Result<(), String> {
        let batch = churn_batch(&mut self.rng, &mut self.live, self.n);
        let report = self.vd.apply_batch(&batch).map_err(|e| e.to_string())?;
        self.live.extend(report.inserted_edges);
        self.vd.publish();
        Ok(())
    }

    /// Compacts the id space; live edges become `0..live`.
    fn compact(&mut self) {
        self.vd.compact_ids();
        let live = self.vd.inner().num_live_edges();
        self.live = (0..live).map(EdgeId::new).collect();
    }

    /// Closed loop for `budget` nanoseconds; with `attribute`, every
    /// snapshot read and every other op is recorded (the op at each
    /// position of a block recorded in every other block), and each
    /// snapshot is followed by the matroid replay.
    fn phase(&mut self, budget: u64, attribute: bool) -> Phase {
        let mut phase = Phase::default();
        let p = &mut phase.timed;
        let mut probe = Probe::default();
        let clock = Stopwatch::start();
        let mut block = 0usize;
        while clock.elapsed_nanos() < budget {
            let speed = p.probe(&mut probe);
            let block_clock = Stopwatch::start();
            block += 1;
            for position in 0..SNAPSHOT_EVERY {
                let batch = churn_batch(&mut self.rng, &mut self.live, self.n);
                let recorded = attribute && record_op((position + block) % 2 == 1);
                let _op = Span::enter("bench.op");
                let sw = Stopwatch::start();
                let result = {
                    let _s = Span::enter("bench.apply_batch");
                    self.vd.apply_batch(&batch)
                };
                {
                    let _s = Span::enter("bench.publish");
                    self.vd.publish();
                }
                let op_ns = sw.elapsed_nanos();
                p.op.push(op_ns, speed);
                if attribute {
                    let split = if recorded {
                        &mut phase.recorded
                    } else {
                        &mut phase.unrecorded
                    };
                    split.push(op_ns, speed);
                }
                match result {
                    Ok(report) => {
                        p.tally.record(report.applied == BATCH);
                        phase.paths.applied += report.applied as u64;
                        phase.paths.fast_path += report.fast_path as u64;
                        phase
                            .paths
                            .exchanges
                            .push((report.exchanges + report.budget_raises) as f64);
                        self.live.extend(report.inserted_edges);
                    }
                    Err(err) => {
                        p.tally.record(false);
                        p.errors.push(format!("batch: {err}"));
                        // Resynchronise with what the decomposer holds.
                        self.live = self
                            .vd
                            .inner()
                            .live_graph()
                            .live_edges()
                            .map(|(e, _, _)| e)
                            .collect();
                    }
                }
            }
            let snap = self.vd.current();
            if attribute {
                recorder().enable();
            }
            {
                let _read = Span::enter("bench.snapshot_read");
                let sw = Stopwatch::start();
                let bytes = {
                    let _s = Span::enter("bench.snapshot");
                    snap.canonical_bytes()
                };
                p.op2.push(sw.elapsed_nanos(), speed);
                if !p.tally.record(bytes.is_ok() && snap.verify()) {
                    p.errors
                        .push(format!("epoch {}: snapshot failed to verify", snap.epoch()));
                }
                if attribute {
                    // The matroid layer alone, on the epoch's frozen compact graph.
                    let csr = CsrGraph::from_multigraph(snap.compact_graph().0);
                    let _s = Span::enter("bench.matroid.exact");
                    std::hint::black_box(matroid::exact_forest_decomposition(&csr.view()));
                }
            }
            let w = snap.watermark();
            p.ratio
                .push(w.color_budget as f64 / w.lower_bound.max(1) as f64);
            phase.last = Some(snap);
            self.compact();
            p.scaled_ns += speed.scale(block_clock.elapsed_nanos());
        }
        p.elapsed_ns = clock.elapsed_nanos();
        phase
    }
}

/// One snapshot's bytes must equal a cold `Decomposer::run` on its
/// compact graph.
fn final_check(churn: &Churn, last: Option<&Arc<ColoringSnapshot>>, tally: &mut Tally) -> bool {
    let Some(snap) = last else {
        return tally.record(false);
    };
    let cold = Decomposer::new(churn.request.clone()).run(snap.compact_graph().0);
    let same = match (snap.canonical_bytes(), cold) {
        (Ok(bytes), Ok(report)) => bytes == report.canonical_bytes(),
        _ => false,
    };
    tally.record(same)
}

/// Runs `churn`.
pub fn run(cfg: &Config, process_clock: Stopwatch) -> Result<Outcome, String> {
    let (mut churn, setup) = repeated_setup(process_clock, |_| Churn::setup(cfg.seed))?;
    let mut out = Outcome::default();
    let last = if !cfg.trace {
        let p = churn.phase(cfg.budget_nanos(), false);
        out.set_end_to_end(&setup, host::peak_rss_mib(None), p.timed);
        p.last
    } else {
        let traced = with_recorder(&mut out, || churn.phase(cfg.budget_nanos(), true));
        let spans = Spans::from_events(&out.events);
        let child_ms = |parent: &str, name: &str| -> Vec<f64> {
            spans
                .named(parent)
                .filter_map(|id| spans.child(id, name))
                .map(|s| ms(s.duration()))
                .collect()
        };
        let n = traced.recorded.len();
        let apply = child_ms("bench.op", "bench.apply_batch");
        let publish = child_ms("bench.op", "bench.publish");
        let exact = child_ms("bench.snapshot_read", "bench.matroid.exact");
        out.set("versioned.apply_batch_ms", median(&apply), n);
        out.set("versioned.publish_ms", median(&publish), n);
        out.set("matroid.exact_ms", median(&exact), exact.len());
        let paths = &traced.paths;
        let fast_path = paths.fast_path as f64 / paths.applied.max(1) as f64;
        out.set("dynamic.fast_path_ratio", fast_path, n);
        out.set("dynamic.exchanges", mean(&paths.exchanges), n);
        out.set_trace_costs(&traced.recorded, &traced.unrecorded);
        out.absorb(traced.timed);
        traced.last
    };
    if !final_check(&churn, last.as_ref(), &mut out.tally) {
        out.notes
            .push("check failed: snapshot bytes differ from a cold run".into());
    }
    Ok(out)
}
