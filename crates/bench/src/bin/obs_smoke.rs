//! The observability smoke run CI executes: one instrumented end-to-end
//! pipeline — raw edge file → external-sort CSR build → out-of-core
//! decomposition → in-process server publish/query (including the
//! `Metrics` op) — whose drained spans must validate structurally and
//! cover all three instrumented layers (`extsort.*` in forest-graph,
//! `ooc.*` in forest-decomp, `versioned.publish` and the lazy
//! `SnapshotBytes` cold run's `versioned.cold_run` in the service path) in
//! a single chrome-trace JSON. A recorder-disabled run of the identical
//! pipeline is asserted byte-identical first: the trace is free evidence,
//! never an input. That run is also timed for the disabled-path bound:
//! a recorder-off `Span::enter`, times the span sites the instrumented run
//! visits, must cost under 3% of the recorder-off run's wall time.
//!
//! Usage: `obs_smoke [trace-output.json]` (default `obs_trace.json`).
//! Exits non-zero on any violated contract; prints a one-line summary per
//! stage so the CI log shows where a failure happened.

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

use forest_decomp::api::oocore::OocConfig;
use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind};
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, EdgeListFormat, ExtsortConfig,
};
use forest_graph::generators;
use forest_obs::clock::Stopwatch;
use forest_obs::export::{chrome_trace_json, validate_trace};
use forest_obs::{recorder, Phase, Span, TraceEvent};
use forest_serve::{GraphSource, Request, Response, ServerState};

/// Recorder-off `Span::enter` calls timed to price one disabled span site.
const PROBE_ITERS: u64 = 4_000_000;

/// Ceiling, in percent of the recorder-off run, on what its span sites cost.
const DISABLED_BOUND_PCT: f64 = 3.0;

/// One full pipeline pass: build the CSR from the edge file, decompose it
/// out of core, and return the canonical report bytes.
fn pipeline(edge_file: &std::path::Path, csr_file: &std::path::Path) -> Vec<u8> {
    let build = build_csr_from_edge_file(
        edge_file,
        EdgeListFormat::BinaryU32,
        csr_file,
        &ExtsortConfig::with_budget(32 << 10),
    )
    .expect("extsort build");
    assert!(build.spilled_runs > 1, "budget too big to exercise spills");
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the size of a file of a few KiB this run just wrote"
    )]
    let csr_bytes = std::fs::metadata(csr_file).expect("csr metadata").len() as usize;
    let outcome = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_alpha(4)
            .with_seed(9)
            .without_validation(),
    )
    .run_out_of_core(csr_file, &OocConfig::with_budget(csr_bytes / 4))
    .expect("out-of-core run");
    outcome.report.canonical_bytes()
}

/// Drives the in-process server: register, two update batches, queries,
/// and the `Metrics` op twice to check monotonicity.
fn drive_server() {
    use forest_decomp::api::EdgeUpdate;
    let state = ServerState::new();
    let resp = state.handle(&Request::RegisterGraph {
        tenant: "ci".into(),
        graph: "smoke".into(),
        engine: Engine::ExactMatroid,
        epsilon: 0.5,
        seed: 13,
        source: GraphSource::Edges {
            num_vertices: 64,
            edges: (0..63u64).map(|i| (i, i + 1)).collect(),
        },
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let metrics = |state: &ServerState| -> (u64, Vec<(String, u64)>) {
        match state.handle(&Request::Metrics {
            tenant: "ci".into(),
            graph: "smoke".into(),
        }) {
            Response::MetricsReport { epoch, entries } => (epoch, entries),
            other => panic!("metrics op failed: {other:?}"),
        }
    };
    let (_, before) = metrics(&state);
    for batch in 0..2usize {
        let resp = state.handle(&Request::ApplyUpdates {
            tenant: "ci".into(),
            graph: "smoke".into(),
            updates: (0..8)
                .map(|i| EdgeUpdate::insert(i, (i + batch * 8 + 9) % 64))
                .collect(),
        });
        assert!(matches!(resp, Response::Applied { .. }), "{resp:?}");
        let resp = state.handle(&Request::ColorOfEdge {
            tenant: "ci".into(),
            graph: "smoke".into(),
            edge: 0,
        });
        assert!(matches!(resp, Response::EdgeColor { .. }), "{resp:?}");
    }
    let resp = state.handle(&Request::SnapshotBytes {
        tenant: "ci".into(),
        graph: "smoke".into(),
    });
    assert!(matches!(resp, Response::Snapshot { .. }), "{resp:?}");
    let (epoch, after) = metrics(&state);
    assert_eq!(epoch, 2, "two published batches");
    for ((name, then), (name2, now)) in before.iter().zip(after.iter()) {
        assert_eq!(name, name2, "metric names must be stable");
        assert!(now >= then, "{name} went backwards: {then} -> {now}");
    }
}

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "obs_trace.json".to_string());
    let dir = std::env::temp_dir();
    let edge_file = dir.join(format!("obs-smoke-{}.edges", std::process::id()));
    let csr_file = dir.join(format!("obs-smoke-{}.csr", std::process::id()));
    let g = generators::fat_path(6_000, 4);
    write_binary_edge_file(&edge_file, g.edges().map(|(_, u, v)| (u.raw(), v.raw())))
        .expect("write edge file");

    // Baseline: recorder off (the default, asserted rather than assumed).
    assert!(!recorder().is_enabled(), "recorder must start disabled");
    let quiet_clock = Stopwatch::start();
    let quiet_bytes = pipeline(&edge_file, &csr_file);
    drive_server();
    let quiet_nanos = quiet_clock.elapsed_nanos();
    eprintln!("obs_smoke: disabled-recorder pipeline done");

    // The instrumented pass: identical bytes, plus a trace.
    recorder().clear();
    recorder().enable();
    let traced_bytes = pipeline(&edge_file, &csr_file);
    drive_server();
    recorder().disable();
    let events: Vec<TraceEvent> = recorder().drain();
    std::fs::remove_file(&edge_file).ok();
    std::fs::remove_file(&csr_file).ok();
    assert_eq!(
        quiet_bytes, traced_bytes,
        "instrumented run must be byte-identical to the disabled run"
    );
    eprintln!(
        "obs_smoke: instrumented pipeline byte-identical, {} events drained",
        events.len()
    );

    // Structural validation: balanced spans, monotone per-thread stamps.
    validate_trace(&events).expect("trace must validate");
    // All three layers in the one trace.
    for required in [
        "extsort.read_spill", // forest-graph
        "extsort.merge",
        "ooc.run", // forest-decomp
        "ooc.plan",
        "ooc.shard_walk",
        "ooc.shard",
        "ooc.stitch",
        "ooc.assemble",
        "versioned.publish", // the service layer
        "versioned.cold_run",
    ] {
        assert!(
            events.iter().any(|e| e.name == required),
            "span {required:?} missing from the trace"
        );
    }
    eprintln!("obs_smoke: trace validated, all three layers present");

    // Disabled-path bound: every Begin or Instant event is one span site.
    // `black_box` keeps the inert guard from being optimized away.
    let span_sites = events
        .iter()
        .filter(|e| !matches!(e.phase, Phase::End))
        .count();
    let probe = Stopwatch::start();
    for _ in 0..PROBE_ITERS {
        let _ = std::hint::black_box(Span::enter("obs.disabled_probe"));
    }
    let ns_per_site = probe.elapsed_nanos() as f64 / PROBE_ITERS as f64;
    let bound_pct = span_sites as f64 * ns_per_site / quiet_nanos as f64 * 100.0;
    let detail = format!(
        "{span_sites} sites x {ns_per_site:.2} ns over {:.1} ms",
        quiet_nanos as f64 / 1e6
    );
    assert!(
        bound_pct < DISABLED_BOUND_PCT,
        "disabled-path bound {bound_pct:.4}% breaches {DISABLED_BOUND_PCT}% ({detail})"
    );
    eprintln!("obs_smoke: disabled-path bound {bound_pct:.4}% ({detail})");

    let json = chrome_trace_json(&events);
    std::fs::write(&trace_path, &json).expect("write trace");
    eprintln!(
        "obs_smoke: wrote {trace_path} ({} bytes, {} events)",
        json.len(),
        events.len()
    );
    println!("obs_smoke: ok ({} events)", events.len());
}
