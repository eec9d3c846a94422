//! The observability non-interference contract: recorder state is
//! invisible to every decomposition. `canonical_bytes` must be identical
//! whether the span recorder is disabled (the default), enabled, or
//! enabled with a sink already holding thousands of buffered events —
//! across the full `(problem, engine)` support matrix. The instrumentation
//! sweep only ever *reads* the clock and *writes* spans; the moment it
//! consumed randomness or reordered work, these tests would catch the
//! drift. The spans are also the only timing of the phases they wrap, so
//! the last tests pin where each phase span is recorded.
//!
//! The recorder is process-global, so every case serializes on a lock and
//! restores the disabled/empty state before releasing it.

use forest_decomp::api::oocore::OocConfig;
use forest_decomp::api::{
    Decomposer, DecompositionRequest, Engine, ProblemKind, VersionedDecomposer,
};
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, EdgeListFormat, ExtsortConfig,
};
use forest_graph::{generators, matroid, MultiGraph, VertexId};
use forest_obs::{event, recorder, Phase, Span, TraceEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes recorder toggling across the binary's test threads.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// A simple graph every problem kind can run on (star problems require
/// simplicity).
fn workload(n: usize, graph_seed: u64) -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    generators::planted_simple_arboricity(n.max(8), 3, &mut rng)
        .graph()
        .clone()
}

fn supported(problem: ProblemKind, engine: Engine) -> bool {
    match engine {
        Engine::HarrisSuVu => true,
        Engine::BarenboimElkin | Engine::ExactMatroid => {
            matches!(problem, ProblemKind::Forest | ProblemKind::Orientation)
        }
        Engine::Folklore2Alpha => matches!(problem, ProblemKind::StarForest),
    }
}

/// One run of the facade under the recorder state the caller arranged.
fn canonical_run(problem: ProblemKind, engine: Engine, seed: u64, g: &MultiGraph) -> Vec<u8> {
    Decomposer::new(
        DecompositionRequest::new(problem)
            .with_engine(engine)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(seed),
    )
    .run(g)
    .expect("supported combination")
    .canonical_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Disabled vs enabled vs full-sink recorder: three byte-identical
    /// runs for every supported `(problem, engine)` the case draws.
    #[test]
    fn recorder_state_never_changes_canonical_bytes(
        (combo, seed, n, graph_seed) in (0..16usize, 0..10_000u64, 8..48usize, 0..64u64)
    ) {
        let problem = ProblemKind::ALL[combo / Engine::ALL.len()];
        let engine = Engine::ALL[combo % Engine::ALL.len()];
        if !supported(problem, engine) {
            return Ok(());
        }
        let g = workload(n, graph_seed);

        let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        recorder().disable();
        recorder().clear();
        let disabled = canonical_run(problem, engine, seed, &g);

        recorder().enable();
        let enabled = canonical_run(problem, engine, seed, &g);

        // A sink already loaded with thousands of buffered events: the
        // slow path keeps pushing chunks, the decomposition must not care.
        for i in 0..4_096u32 {
            if i % 2 == 0 {
                let _span = Span::enter("obs.filler");
                event("obs.filler_event");
            } else {
                event("obs.filler_event");
            }
        }
        let full_sink = canonical_run(problem, engine, seed, &g);

        recorder().disable();
        recorder().clear();
        drop(_guard);

        prop_assert_eq!(&disabled, &enabled);
        prop_assert_eq!(&disabled, &full_sink);
    }

    /// Toggling the recorder *between* runs of the same request is also
    /// invisible: a disabled run after an instrumented one reproduces the
    /// first disabled run exactly (no state leaks through the sink drain).
    #[test]
    fn drain_between_runs_is_invisible(
        (combo, seed) in (0..16usize, 0..10_000u64)
    ) {
        let problem = ProblemKind::ALL[combo / Engine::ALL.len()];
        let engine = Engine::ALL[combo % Engine::ALL.len()];
        if !supported(problem, engine) {
            return Ok(());
        }
        let g = workload(24, 5);

        let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        recorder().disable();
        recorder().clear();
        let before = canonical_run(problem, engine, seed, &g);
        recorder().enable();
        canonical_run(problem, engine, seed, &g);
        let drained = recorder().drain();
        recorder().disable();
        let after = canonical_run(problem, engine, seed, &g);
        recorder().clear();
        drop(_guard);

        // The facade span recorded during the enabled run made it out.
        prop_assert!(
            drained.iter().any(|e| e.name == "decomp.run"),
            "instrumented run produced no facade span"
        );
        prop_assert_eq!(&before, &after);
    }
}

/// The recorded span begins of `run`, under the lock, with the recorder
/// back to disabled and empty afterwards.
fn recorded_begins(run: impl FnOnce()) -> Vec<TraceEvent> {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    recorder().disable();
    recorder().clear();
    recorder().enable();
    run();
    let events = recorder().drain();
    recorder().disable();
    recorder().clear();
    events
        .into_iter()
        .filter(|e| e.phase == Phase::Begin)
        .collect()
}

/// Every α the facade resolves itself is timed: a recorded star-forest run
/// with α unset emits a `decomp.arboricity` span directly under `decomp.run`.
#[test]
fn star_forest_alpha_resolution_is_traced() {
    let g = workload(24, 5);
    let events = recorded_begins(|| {
        Decomposer::new(DecompositionRequest::new(ProblemKind::StarForest).with_seed(3))
            .run(&g)
            .expect("a simple graph");
    });
    let begins = |name: &str| events.iter().filter(|e| e.name == name).collect::<Vec<_>>();
    let runs = begins("decomp.run");
    assert_eq!(runs.len(), 1, "one facade span");
    let arboricity = begins("decomp.arboricity");
    assert_eq!(arboricity.len(), 1, "α is resolved once, and timed");
    assert_eq!(arboricity[0].parent, runs[0].span);
}

/// Every report measures its diameter once. A Forest or Orientation run
/// that computes α on a planted graph in generation order adopts the exact
/// partition, measured before Algorithm 2, and measures nothing after; a
/// sharded run's shards measure nothing and its stitch measures once.
#[test]
fn one_diameter_measurement_per_report() {
    let mut rng = StdRng::seed_from_u64(9);
    let planted = generators::planted_forest_union(200, 3, &mut rng);
    assert_eq!(matroid::exact_forest_decomposition(&planted).exchanges, 0);
    let one_under = |events: &[TraceEvent], parent: &str| {
        let parents: Vec<u64> = events
            .iter()
            .filter(|e| e.name == parent)
            .map(|e| e.span)
            .collect();
        let measured: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name == "decomp.max_diameter")
            .collect();
        assert_eq!(parents.len(), 1, "one {parent} span");
        assert_eq!(measured.len(), 1, "one decomp.max_diameter span");
        assert_eq!(measured[0].parent, parents[0], "under {parent}");
    };
    for problem in [ProblemKind::Forest, ProblemKind::Orientation] {
        let request = DecompositionRequest::new(problem).with_seed(3);
        let events = recorded_begins(|| {
            Decomposer::new(request)
                .run(&planted)
                .expect("a planted graph");
        });
        one_under(&events, "decomp.run");
    }
    // Two planted copies on the vertices 0..100 and 100..200: each of the
    // two shards is one copy, which adopts its own exact partition.
    let mut copies = MultiGraph::new(200);
    for base in [0, 100] {
        let copy = generators::planted_forest_union(100, 3, &mut rng);
        assert_eq!(matroid::exact_forest_decomposition(&copy).exchanges, 0);
        for (_, u, v) in copy.edges() {
            let id = |x: VertexId| VertexId::new(base + x.index());
            copies.add_edge(id(u), id(v)).unwrap();
        }
    }
    let events = recorded_begins(|| {
        Decomposer::new(DecompositionRequest::new(ProblemKind::Forest).with_seed(3))
            .run_sharded(&copies, 2)
            .expect("a planted graph");
    });
    one_under(&events, "decomp.run_sharded");
}

/// The phase spans are the only timing of the phases they wrap: the
/// extsort build's two passes, the out-of-core driver's phases (each
/// directly under `ooc.run`, one `ooc.shard` per shard under the walk), a
/// versioned publish, a snapshot's cold run (with the facade run under
/// it) and Barenboim–Elkin's H-partition peel.
#[test]
fn every_phase_span_is_recorded() {
    let begins = |events: &[TraceEvent], name: &str| -> Vec<TraceEvent> {
        events.iter().filter(|e| e.name == name).cloned().collect()
    };
    let one = |events: &[TraceEvent], name: &str| -> TraceEvent {
        let named = begins(events, name);
        assert_eq!(named.len(), 1, "one {name} span");
        named[0].clone()
    };
    let g = generators::fat_path(200, 2);
    let tag = |ext: &str| std::env::temp_dir().join(format!("nw-obs-{}.{ext}", std::process::id()));
    let (edge_file, csr_file) = (tag("edges"), tag("csr"));
    write_binary_edge_file(&edge_file, g.edges().map(|(_, u, v)| (u.raw(), v.raw())))
        .expect("write edge file");

    let events = recorded_begins(|| {
        build_csr_from_edge_file(
            &edge_file,
            EdgeListFormat::BinaryU32,
            &csr_file,
            &ExtsortConfig::with_budget(1 << 10),
        )
        .expect("extsort build");
    });
    one(&events, "extsort.read_spill");
    one(&events, "extsort.merge");

    let shards = 3;
    let events = recorded_begins(|| {
        let outcome = Decomposer::new(DecompositionRequest::new(ProblemKind::Forest).with_seed(3))
            .run_out_of_core(
                &csr_file,
                &OocConfig::with_budget(1 << 20).num_shards(shards),
            )
            .expect("out-of-core run");
        assert_eq!(outcome.stats.num_shards, shards);
    });
    std::fs::remove_file(&edge_file).ok();
    std::fs::remove_file(&csr_file).ok();
    let run = one(&events, "ooc.run");
    for phase in ["ooc.plan", "ooc.shard_walk", "ooc.stitch", "ooc.assemble"] {
        assert_eq!(
            one(&events, phase).parent,
            run.span,
            "{phase} under ooc.run"
        );
    }
    let walk = one(&events, "ooc.shard_walk");
    let per_shard = begins(&events, "ooc.shard");
    assert_eq!(per_shard.len(), shards, "one ooc.shard span per shard");
    assert!(per_shard.iter().all(|s| s.parent == walk.span));

    let request = DecompositionRequest::new(ProblemKind::Forest).with_seed(3);
    let mut versioned = VersionedDecomposer::from_graph(request, &g).expect("a valid graph");
    let mut published = None;
    let events = recorded_begins(|| published = Some(versioned.publish()));
    one(&events, "versioned.publish");
    let snapshot = published.expect("published");
    let events = recorded_begins(|| {
        snapshot.canonical_bytes().expect("cold run");
    });
    let cold = one(&events, "versioned.cold_run");
    assert_eq!(one(&events, "decomp.run").parent, cold.span);

    let events = recorded_begins(|| {
        Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::BarenboimElkin)
                .with_seed(3),
        )
        .run(&g)
        .expect("a fat path");
    });
    assert!(!begins(&events, "hpartition.peel").is_empty());
}
