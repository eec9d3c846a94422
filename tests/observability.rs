//! The observability non-interference contract: recorder state is
//! invisible to every decomposition. `canonical_bytes` must be identical
//! whether the span recorder is disabled (the default), enabled, or
//! enabled with a sink already holding thousands of buffered events —
//! across the full `(problem, engine)` support matrix. The instrumentation
//! sweep only ever *reads* the clock and *writes* metrics/spans; the
//! moment it consumed randomness or reordered work, these tests would
//! catch the drift.
//!
//! The recorder is process-global, so every case serializes on a lock and
//! restores the disabled/empty state before releasing it.

use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind};
use forest_graph::{generators, MultiGraph};
use forest_obs::{event, recorder, Phase, Span};
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

/// Every α the facade resolves itself is timed: a recorded star-forest run
/// with α unset emits a `decomp.arboricity` span directly under `decomp.run`.
#[test]
fn star_forest_alpha_resolution_is_traced() {
    let g = workload(24, 5);
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    recorder().disable();
    recorder().clear();
    recorder().enable();
    Decomposer::new(DecompositionRequest::new(ProblemKind::StarForest).with_seed(3))
        .run(&g)
        .expect("a simple graph");
    let events = recorder().drain();
    recorder().disable();
    recorder().clear();
    drop(_guard);

    let begins = |name: &str| {
        events
            .iter()
            .filter(|e| e.name == name && e.phase == Phase::Begin)
            .collect::<Vec<_>>()
    };
    let runs = begins("decomp.run");
    assert_eq!(runs.len(), 1, "one facade span");
    let arboricity = begins("decomp.arboricity");
    assert_eq!(arboricity.len(), 1, "α is resolved once, and timed");
    assert_eq!(arboricity[0].parent, runs[0].span);
}
