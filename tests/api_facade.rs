//! Facade-level tests: the reproducibility contract (same seed ⇒
//! byte-identical report), the full `(problem, engine)` support matrix
//! (every combination runs or returns a typed error — never panics), and the
//! `run_batch` fan-out semantics.

use forest_decomp::api::{
    derive_seed, Decomposer, DecompositionRequest, Engine, FrozenGraph, GraphInput, ProblemKind,
    Validate, ValidationStatus,
};
use forest_decomp::FdError;
use forest_graph::{generators, CsrGraph, MultiGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A simple graph every problem kind can run on (star problems require
/// simplicity).
fn simple_workload() -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(1);
    generators::planted_simple_arboricity(40, 3, &mut rng)
        .graph()
        .clone()
}

fn request_for(problem: ProblemKind, engine: Engine, seed: u64) -> DecompositionRequest {
    DecompositionRequest::new(problem)
        .with_engine(engine)
        .with_epsilon(0.5)
        .with_alpha(3)
        .with_seed(seed)
}

#[test]
fn every_problem_engine_combination_runs_or_fails_typed() {
    let g = simple_workload();
    for problem in ProblemKind::ALL {
        for engine in Engine::ALL {
            let result = Decomposer::new(request_for(problem, engine, 7)).run(&g);
            let supported = match engine {
                Engine::HarrisSuVu => true,
                Engine::BarenboimElkin | Engine::ExactMatroid => {
                    matches!(problem, ProblemKind::Forest | ProblemKind::Orientation)
                }
                Engine::Folklore2Alpha => matches!(problem, ProblemKind::StarForest),
            };
            match result {
                Ok(report) => {
                    assert!(supported, "{engine} claimed to run {problem}");
                    assert_eq!(report.problem, problem);
                    assert_eq!(report.engine, engine);
                    assert_eq!(report.validation, ValidationStatus::Validated);
                    report.validate(&g).unwrap_or_else(|e| {
                        panic!("({problem}, {engine}): report fails validation: {e}")
                    });
                }
                Err(FdError::UnsupportedCombination {
                    problem: p,
                    engine: e,
                }) => {
                    assert!(!supported, "({problem}, {engine}) should be supported");
                    assert_eq!(p, problem);
                    assert_eq!(e, engine);
                }
                Err(other) => {
                    panic!("({problem}, {engine}): unexpected error {other}")
                }
            }
        }
    }
}

#[test]
fn all_supported_combinations_are_reproducible() {
    let g = simple_workload();
    let combos = [
        (ProblemKind::Forest, Engine::HarrisSuVu),
        (ProblemKind::Forest, Engine::BarenboimElkin),
        (ProblemKind::Forest, Engine::ExactMatroid),
        (ProblemKind::ListForest, Engine::HarrisSuVu),
        (ProblemKind::StarForest, Engine::HarrisSuVu),
        (ProblemKind::StarForest, Engine::Folklore2Alpha),
        (ProblemKind::ListStarForest, Engine::HarrisSuVu),
        (ProblemKind::Orientation, Engine::HarrisSuVu),
        (ProblemKind::Orientation, Engine::BarenboimElkin),
        (ProblemKind::Orientation, Engine::ExactMatroid),
    ];
    for (problem, engine) in combos {
        let decomposer = Decomposer::new(request_for(problem, engine, 1234));
        let a = decomposer.run(&g).unwrap();
        let b = decomposer.run(&g).unwrap();
        assert_eq!(
            a.canonical_bytes(),
            b.canonical_bytes(),
            "({problem}, {engine}): same seed must give byte-identical reports"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_yields_byte_identical_reports(seed in 0..u64::MAX) {
        let g = simple_workload();
        let decomposer = Decomposer::new(request_for(ProblemKind::Forest, Engine::HarrisSuVu, seed));
        let a = decomposer.run(&g).unwrap();
        let b = decomposer.run(&g).unwrap();
        prop_assert!(a.canonical_bytes() == b.canonical_bytes(), "seed {seed} not reproducible");
        prop_assert!(a.seed == seed);
    }
}

#[test]
fn run_batch_matches_per_graph_derived_seeds() {
    let mut rng = StdRng::seed_from_u64(2);
    let graphs: Vec<MultiGraph> = (0..8)
        .map(|i| generators::planted_forest_union(30 + 4 * i, 3, &mut rng))
        .collect();
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_epsilon(0.5)
        .with_alpha(3)
        .with_seed(99);
    let decomposer = Decomposer::new(request.clone());
    let batch = decomposer.run_batch(&graphs);
    assert_eq!(batch.len(), graphs.len());
    for (i, (g, result)) in graphs.iter().zip(&batch).enumerate() {
        let report = result.as_ref().expect("batch member failed");
        let expected_seed = derive_seed(99, i as u64);
        assert_eq!(report.seed, expected_seed);
        let single = Decomposer::new(request.clone().with_seed(expected_seed))
            .run(g)
            .unwrap();
        assert_eq!(
            report.canonical_bytes(),
            single.canonical_bytes(),
            "graph {i}: batch result differs from single run"
        );
    }
}

/// `run_batch` takes any iterator of inputs: a mix of `&MultiGraph`,
/// `&FrozenGraph` and an mmap `GraphInput` in one call, and one frozen
/// topology repeated for a seed sweep. Input `i` always carries the bytes of
/// a plain `run` seeded with `derive_seed(seed, i)`.
#[test]
fn run_batch_over_mixed_and_repeated_inputs_matches_derived_seed_runs() {
    let mut rng = StdRng::seed_from_u64(5);
    let graphs: Vec<MultiGraph> = (0..3)
        .map(|i| generators::planted_forest_union(40 + 8 * i, 3, &mut rng))
        .collect();
    let frozen = FrozenGraph::freeze(graphs[1].clone());
    let path = std::env::temp_dir().join(format!("api-facade-batch-{}.csr", std::process::id()));
    CsrGraph::from_multigraph(&graphs[2]).save(&path).unwrap();
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_epsilon(0.5)
        .with_alpha(3)
        .with_seed(17);
    let decomposer = Decomposer::new(request.clone());
    let expect = |i: usize, g: &MultiGraph, got: &Result<_, FdError>| {
        let got: &forest_decomp::DecompositionReport = got.as_ref().expect("batch member failed");
        let seed = derive_seed(17, i as u64);
        let single = Decomposer::new(request.clone().with_seed(seed))
            .run(g)
            .unwrap();
        assert_eq!(got.seed, seed);
        assert_eq!(
            got.canonical_bytes(),
            single.canonical_bytes(),
            "input {i}: batch result differs from its derived-seed run"
        );
    };

    let mixed: Vec<GraphInput<'_>> = vec![
        (&graphs[0]).into(),
        (&frozen).into(),
        GraphInput::from_mmap(&path).unwrap(),
    ];
    let batch = decomposer.run_batch(mixed);
    assert_eq!(batch.len(), 3);
    for (i, (g, result)) in graphs.iter().zip(&batch).enumerate() {
        expect(i, g, result);
    }
    std::fs::remove_file(&path).unwrap();

    let sweep = decomposer.run_batch(std::iter::repeat_n(&frozen, 4));
    assert_eq!(sweep.len(), 4);
    for (i, result) in sweep.iter().enumerate() {
        expect(i, frozen.graph(), result);
    }
}

#[test]
fn batch_failures_do_not_abort_the_batch() {
    // Graph 1 has parallel edges, so the star-forest problem fails on it with
    // the typed NotSimple error while the others still succeed.
    let mut rng = StdRng::seed_from_u64(3);
    let simple = generators::planted_simple_arboricity(24, 2, &mut rng)
        .graph()
        .clone();
    let multi = generators::fat_path(10, 3);
    let graphs = vec![simple.clone(), multi, simple];
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::StarForest)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(4),
    );
    let batch = decomposer.run_batch(&graphs);
    assert!(batch[0].is_ok());
    assert!(matches!(batch[1], Err(FdError::NotSimple)));
    assert!(batch[2].is_ok());
}
