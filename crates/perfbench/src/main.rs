//! `forest-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! forest-perfbench --workload <cold_mesh|cold_random|churn|serve> --seed N
//!                  --seconds S --trace <0|1> --work-dir DIR
//!                  [--server-bin PATH] [--trace-out FILE]
//!                  [--rustc VERSION] [--commit ID] [--host-cpus N]
//! ```
//!
//! One run sets its workload up several times (the median is `setup_s`),
//! measures it for `S` seconds and checks the program's outputs. With
//! `--trace 0` it prints the end-to-end metrics, CPU-bound times scaled to
//! the reference speed of [`speed`]; with `--trace 1` it runs with the
//! `forest-obs` recorder on, replays each op's layers from its own code,
//! and prints the per-layer metrics as measured. Human-readable lines come
//! first; the last line of standard output is one JSON object. The exit
//! code is 1 when any output check failed. `run.py` beside the manifest
//! builds and runs this binary.

mod churn;
mod cold;
mod host;
mod serve;
mod spans;
mod speed;
mod stats;

use forest_obs::clock::Stopwatch;
use forest_obs::{recorder, TraceEvent};
use speed::{Probe, Speed};
use stats::{mean, ms, Latencies, Summary, Tally};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// How many times each run builds its workload; `setup_s` is the median,
/// so one slow set-up in a run does not decide it.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics every untraced run reports in its JSON result,
/// with their units: the ones steady enough to gate a change on.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("op2_p50_ms", "ms"),
    ("colors_over_lb", "ratio"),
];

/// End-to-end metrics printed with the others but left out of the JSON
/// result: `op2_p90_ms` on `serve` (a ~1.5 ms write) swings between runs
/// of identical code with how often the host preempts for a few ms.
pub const E2E_PRINTED: &[(&str, &str)] = &[("op2_p90_ms", "ms")];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("state.handle_read_us", "us"),
    ("state.handle_write_ms", "ms"),
    ("protocol.codec_us", "us"),
    ("protocol.frame_bytes", "bytes"),
    ("server.transport_read_ms", "ms"),
    ("server.transport_write_ms", "ms"),
    ("versioned.apply_batch_ms", "ms"),
    ("versioned.publish_ms", "ms"),
    ("dynamic.fast_path_ratio", "ratio"),
    ("dynamic.exchanges", "count"),
    ("matroid.exact_ms", "ms"),
    ("matroid.arboricity_ms", "ms"),
    ("decomposition.max_diameter_ms", "ms"),
    ("facade.validate_ms", "ms"),
    ("facade.other_ms", "ms"),
    ("facade.leftover_edges", "count"),
    ("algo2.total_ms", "ms"),
    ("algo2.cluster_loop_ms", "ms"),
    ("algo2.pre_cluster_ms", "ms"),
    ("algo2.clusters", "count"),
    ("local_model.ball_expansions", "count"),
    ("local_model.ball_cache_hit_ratio", "ratio"),
    ("extsort.build_ms", "ms"),
    ("extsort.spilled_runs", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.events_per_op", "count"),
    ("bench.writer_late_ms", "ms"),
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: String,
    /// The seed every generated input derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for on-disk inputs.
    pub work_dir: PathBuf,
    /// The `forest-serve` binary (serve only).
    pub server_bin: Option<PathBuf>,
    /// Where the traced run writes its chrome-trace JSON.
    pub trace_out: Option<PathBuf>,
    /// `rustc --version` of the build, as the runner saw it.
    pub rustc: String,
    /// The source revision, as the runner saw it.
    pub commit: String,
    /// The host's CPU count, as the runner saw it before pinning a run.
    pub host_cpus: String,
}

impl Config {
    /// The measured time budget, nanoseconds.
    pub fn budget_nanos(&self) -> u64 {
        self.seconds * 1_000_000_000
    }
}

/// What a workload hands back: metric values by name (value, samples),
/// the failure tally, notes for the human-readable part, and the drained
/// trace of a traced run.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Every attempted op and output check.
    pub tally: Tally,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// The traced run's events (empty when untraced).
    pub events: Vec<TraceEvent>,
}

impl Outcome {
    /// Sets a metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Sets a latency pair `<prefix>_p50_ms` / `<prefix>_p90_ms`, noting a
    /// p90 that lacks enough samples beyond it.
    pub fn set_latency(&mut self, p50: &'static str, p90: &'static str, s: Summary) {
        self.set(p50, s.p50_ms, s.n);
        self.set(p90, s.p90_ms, s.n);
        if !s.tail_ok {
            self.notes.push(format!(
                "warning: {p90} rests on {} samples, fewer than {} beyond p90",
                s.n,
                stats::MIN_BEYOND
            ));
        }
    }

    /// The end-to-end metrics of an untraced run: the set-up times, the
    /// peak resident set, and the timed phase. Times are at the reference
    /// speed; one note line gives them as measured.
    pub fn set_end_to_end(&mut self, setup: &Latencies, peak_rss_mib: Option<f64>, t: Timed) {
        self.set("setup_s", setup.summary().p50_ms / 1e3, setup.len());
        self.set("peak_rss_mib", peak_rss_mib.unwrap_or(0.0), 1);
        self.set("ops_per_s", t.ops_per_s(), t.op.len());
        self.set_latency("op_p50_ms", "op_p90_ms", t.op.summary());
        self.set_latency("op2_p50_ms", "op2_p90_ms", t.op2.summary());
        self.set("colors_over_lb", mean(&t.ratio), t.ratio.len());
        let (op, op2) = (t.op.measured(), t.op2.measured());
        self.notes.push(format!(
            "as measured: setup_s {:.4} ops_per_s {:.4} op_p50_ms {:.4} op_p90_ms {:.4} \
             op2_p50_ms {:.4} op2_p90_ms {:.4}",
            setup.measured().p50_ms / 1e3,
            t.op.len() as f64 / (t.elapsed_ns.max(1) as f64 / 1e9),
            op.p50_ms,
            op.p90_ms,
            op2.p50_ms,
            op2.p90_ms
        ));
        self.notes.push(format!(
            "probe: p50 {:.4} ms, p90 {:.4} ms over {} runs (reference {} ms)",
            t.probe.summary().p50_ms,
            t.probe.summary().p90_ms,
            t.probe.len(),
            ms(speed::REFERENCE_NANOS)
        ));
        self.absorb(t);
    }

    /// What tracing cost: the measured median of ops run with the recorder
    /// on over that of ops run with it off, and drained events per
    /// recorded op.
    pub fn set_trace_costs(&mut self, recorded: &Latencies, unrecorded: &Latencies) {
        let n = recorded.len();
        let base = unrecorded.measured().p50_ms.max(f64::MIN_POSITIVE);
        self.set("obs.trace_overhead", recorded.measured().p50_ms / base, n);
        self.set(
            "obs.events_per_op",
            self.events.len() as f64 / n.max(1) as f64,
            n,
        );
    }

    /// Counts a phase's attempts and failures and keeps its error lines.
    pub fn absorb(&mut self, t: Timed) {
        self.tally.merge(t.tally);
        self.notes.extend(t.errors);
    }
}

/// What one timed phase measured, in the shape every workload shares.
#[derive(Default)]
pub struct Timed {
    /// Latencies of the workload's primary op.
    pub op: Latencies,
    /// Latencies of its second op kind.
    pub op2: Latencies,
    /// Forests (or colour budget) over the density lower bound, per sample.
    pub ratio: Vec<f64>,
    /// Wall time of the phase.
    pub elapsed_ns: u64,
    /// Wall time of the phase outside the probes, each stretch between two
    /// probes scaled to the reference speed at the first.
    pub scaled_ns: u64,
    /// The probe's own times, as measured.
    pub probe: Latencies,
    /// Ops and checks attempted and failed.
    pub tally: Tally,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Timed {
    /// Primary ops per second of the phase, at the reference speed.
    pub fn ops_per_s(&self) -> f64 {
        self.op.len() as f64 / (self.scaled_ns.max(1) as f64 / 1e9)
    }

    /// Runs the probe and returns the speed it measured.
    pub fn probe(&mut self, probe: &mut Probe) -> Speed {
        let speed = probe.measure();
        self.probe.push(speed.probe_nanos(), Speed::reference());
        speed
    }
}

/// Turns the recorder on or off for the next op; returns `on`. Callers
/// alternate so that recorded and unrecorded ops of one phase share the
/// host's state, the inputs and the caches the replays leave behind.
pub fn record_op(on: bool) -> bool {
    if on {
        recorder().enable();
    } else {
        recorder().disable();
    }
    on
}

/// Runs `f` with the `forest-obs` recorder on, then drains the trace once
/// into `out`.
pub fn with_recorder<T>(out: &mut Outcome, f: impl FnOnce() -> T) -> T {
    let rec = recorder();
    rec.clear();
    rec.enable();
    let value = f();
    rec.disable();
    out.events = rec.drain();
    value
}

/// Builds a workload [`SETUP_REPS`] times and keeps the last build; the
/// first build is timed from process start, and each is scaled by a probe
/// run right after it. Returns the build and the set-up times.
pub fn repeated_setup<T>(
    process_clock: Stopwatch,
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Latencies), String> {
    let mut times = Latencies::default();
    let mut probe = Probe::default();
    let mut last: Option<T> = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous build down before the next one is timed.
        drop(last.take());
        let clock = if rep == 0 {
            process_clock
        } else {
            Stopwatch::start()
        };
        let built = build(rep)?;
        let nanos = clock.elapsed_nanos();
        times.push(nanos, probe.measure());
        last = Some(built);
    }
    let built = last.ok_or("no set-up ran")?;
    Ok((built, times))
}

fn parse_args() -> Result<Config, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = args.next().ok_or(format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let take = |name: &str| flags.get(name).cloned();
    let need = |name: &str| take(name).ok_or(format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        need(name)?
            .parse::<u64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let workload = need("workload")?;
    if !["cold_mesh", "cold_random", "churn", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match need("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Config {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
        work_dir: PathBuf::from(need("work-dir")?),
        server_bin: take("server-bin").map(PathBuf::from),
        trace_out: take("trace-out").map(PathBuf::from),
        rustc: take("rustc").unwrap_or_else(|| "unknown".into()),
        commit: take("commit").unwrap_or_else(|| "unknown".into()),
        host_cpus: take("host-cpus").unwrap_or_else(|| "unknown".into()),
    })
}

/// A JSON number with all its digits (non-finite values cannot occur in
/// a well-formed run; they are written as 0 rather than break the line).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn print_result(cfg: &Config, outcome: &Outcome) {
    let table = if cfg.trace { LAYERS } else { E2E };
    println!(
        "{} workload={} seed={} seconds={}",
        if cfg.trace {
            "per-layer (traced run)"
        } else {
            "end-to-end (untraced run)"
        },
        cfg.workload,
        cfg.seed,
        cfg.seconds
    );
    println!("{}", host::facts(cfg));
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let (value, samples) = outcome.values.get(name).copied().unwrap_or((0.0, 0));
        println!("  {name:<34} {value:>14.6} {unit:<6} n={samples}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if !cfg.trace {
        for &(name, unit) in E2E_PRINTED {
            let (value, samples) = outcome.values.get(name).copied().unwrap_or((0.0, 0));
            println!("  {name:<34} {value:>14.6} {unit:<6} n={samples} (not in the result)");
        }
    }
    println!(
        "  {:<34} {:>14.6} {:<6} n={}",
        "fail_ratio",
        outcome.tally.fail_ratio(),
        "ratio",
        outcome.tally.attempted
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        fields.join(", ")
    );
}

/// Validates and writes the traced run's chrome-trace JSON.
fn export_trace(cfg: &Config, outcome: &mut Outcome) {
    let valid = forest_obs::export::validate_trace(&outcome.events);
    if let Err(err) = &valid {
        outcome.notes.push(format!("trace invalid: {err}"));
    }
    outcome.tally.record(valid.is_ok());
    if let Some(path) = &cfg.trace_out {
        let json = forest_obs::export::chrome_trace_json(&outcome.events);
        let written = std::fs::write(path, json);
        if let Err(err) = &written {
            outcome
                .notes
                .push(format!("cannot write {}: {err}", path.display()));
        }
        outcome.tally.record(written.is_ok());
    }
}

/// Puts the allocator into the state a long-running process settles into.
/// glibc serves large blocks with `mmap` until one is freed, then raises
/// that threshold to the freed size (up to 32 MiB) and the heap-trim
/// threshold to twice it. Before that, whether a freed ~1 MiB buffer is
/// handed back to the kernel and faulted in again on the next op depends on
/// the heap layout a seed's inputs leave behind: `canonical_bytes()` on
/// `cold_random` took 0.2 ms for most seeds and 0.48 ms on every run of one.
/// Freeing one untouched 30 MiB block (no page is ever resident) settles it.
fn settle_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(30 << 20)));
}

fn main() -> ExitCode {
    let process_clock = Stopwatch::start();
    settle_allocator();
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("forest-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!(
            "forest-perfbench: cannot create {}: {err}",
            cfg.work_dir.display()
        );
        return ExitCode::from(2);
    }
    let result = match cfg.workload.as_str() {
        "cold_mesh" => cold::run(&cfg, cold::Family::Mesh, process_clock),
        "cold_random" => cold::run(&cfg, cold::Family::Random, process_clock),
        "churn" => churn::run(&cfg, process_clock),
        _ => serve::run(&cfg, process_clock),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("forest-perfbench: {}: {err}", cfg.workload);
            return ExitCode::from(2);
        }
    };
    if cfg.trace {
        export_trace(&cfg, &mut outcome);
    }
    print_result(&cfg, &outcome);
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
