//! Frozen-topology contract tests: CSR round-trips exactly, every engine
//! produces byte-identical reports on `MultiGraph` vs frozen-CSR inputs, and
//! same-seed runs are byte-identical across repetitions (the regression
//! guard for the old hash-map-ordered RNG consumption in CUT and the
//! vertex-color splitting).

use forest_decomp::api::{
    Decomposer, DecompositionRequest, Engine, FrozenGraph, PaletteSpec, ProblemKind,
};
use forest_decomp::CutStrategyKind;
use forest_graph::{generators, CsrGraph, GraphView, MultiGraph, VertexId};
use proptest::prelude::*;

/// Strategy: a random multigraph with up to `max_n` vertices and `max_m`
/// edges (self-loops excluded by construction).
fn arb_multigraph(max_n: usize, max_m: usize) -> impl Strategy<Value = MultiGraph> {
    (2..max_n, 0..max_m).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            let mut g = MultiGraph::new(n);
            for (u, v) in pairs {
                if u != v {
                    g.add_edge(VertexId::new(u), VertexId::new(v)).unwrap();
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `CsrGraph::from_multigraph` round-trips exactly and preserves every
    /// topology accessor, including per-vertex incidence order.
    #[test]
    fn csr_roundtrips_and_preserves_topology(g in arb_multigraph(24, 80)) {
        let csr = CsrGraph::from_multigraph(&g);
        prop_assert_eq!(csr.num_vertices(), g.num_vertices());
        prop_assert_eq!(csr.num_edges(), g.num_edges());
        prop_assert_eq!(csr.to_multigraph(), g.clone());
        prop_assert_eq!(CsrGraph::from_multigraph(&csr.to_multigraph()), csr.clone());
        for v in g.vertices() {
            prop_assert_eq!(csr.degree(v), g.degree(v));
            let mg: Vec<_> = g.incidences(v).collect();
            let cs: Vec<_> = csr.incidences(v).collect();
            prop_assert_eq!(mg, cs);
        }
        for e in g.edge_ids() {
            prop_assert_eq!(csr.endpoints(e), g.endpoints(e));
        }
        // The mirror permutation is a fixed-point-free involution that maps
        // each incidence slot to the same edge's slot at the other endpoint.
        let mirror = csr.mirror_slots();
        for slot in 0..csr.num_incidences() {
            let other = mirror[slot] as usize;
            prop_assert!(slot != other);
            prop_assert_eq!(mirror[other] as usize, slot);
            prop_assert_eq!(csr.slot_edge(slot), csr.slot_edge(other));
        }
    }

    /// Running a request through `run` (freezes internally) and through an
    /// explicitly pre-frozen graph yields byte-identical reports for every
    /// supported (problem, engine) combination.
    #[test]
    fn frozen_runs_match_multigraph_runs((g, seed) in (arb_multigraph(16, 40), 0..u64::MAX)) {
        let frozen = FrozenGraph::freeze(g.clone());
        for &problem in &ProblemKind::ALL {
            for &engine in &Engine::ALL {
                let decomposer = Decomposer::new(
                    DecompositionRequest::new(problem)
                        .with_engine(engine)
                        .with_epsilon(0.5)
                        .with_seed(seed),
                );
                let direct = decomposer.run(&g);
                let via_frozen = decomposer.run(&frozen);
                match (direct, via_frozen) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(
                            a.canonical_bytes() == b.canonical_bytes(),
                            "{}/{} diverged between representations",
                            problem,
                            engine
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "{problem}/{engine}: one representation failed: \
                             direct ok = {}, frozen ok = {}",
                            a.is_ok(),
                            b.is_ok()
                        )));
                    }
                }
            }
        }
    }
}

/// Requests that exercise every RNG-consuming phase: the depth-modulo and
/// conditioned-sampling CUT rules with forced small radii (CUT actually
/// fires), plus the list pipeline (vertex-color splitting + palettes).
fn rng_heavy_requests() -> Vec<(&'static str, DecompositionRequest, MultiGraph)> {
    vec![
        (
            "forest/depth-modulo cut",
            DecompositionRequest::new(ProblemKind::Forest)
                .with_alpha(2)
                .with_epsilon(0.5)
                .with_radii(8, 4)
                .with_seed(1234),
            generators::fat_path(120, 2),
        ),
        (
            "forest/conditioned-sampling cut",
            DecompositionRequest::new(ProblemKind::Forest)
                .with_alpha(2)
                .with_epsilon(0.5)
                .with_cut(CutStrategyKind::ConditionedSampling)
                .with_radii(10, 5)
                .with_seed(99),
            generators::fat_path(80, 2),
        ),
        (
            "list-forest/random palettes",
            DecompositionRequest::new(ProblemKind::ListForest)
                .with_alpha(3)
                .with_epsilon(0.5)
                .with_palettes(PaletteSpec::Random { space: 24, size: 8 })
                .with_seed(7),
            generators::fat_path(60, 3),
        ),
    ]
}

/// Regression test for nondeterministic tie-breaking: historical versions
/// consumed the RNG in `HashMap` iteration order inside CUT and the
/// vertex-color splitting, so the same seed could produce different
/// removals across runs. Two runs of the same request must now be
/// byte-identical.
#[test]
fn same_seed_is_byte_identical_across_repeated_runs() {
    for (name, request, g) in rng_heavy_requests() {
        let decomposer = Decomposer::new(request);
        let first = decomposer.run(&g).unwrap_or_else(|e| {
            panic!("{name}: run failed: {e}");
        });
        for attempt in 0..3 {
            let again = decomposer.run(&g).unwrap();
            assert_eq!(
                first.canonical_bytes(),
                again.canonical_bytes(),
                "{name}: attempt {attempt} diverged from the first run"
            );
        }
    }
}

#[test]
fn frozen_graph_accessors_are_consistent() {
    let g = generators::grid(5, 5);
    let frozen = FrozenGraph::freeze(g.clone());
    assert_eq!(frozen.graph(), &g);
    assert_eq!(frozen.csr(), &CsrGraph::from_multigraph(&g));
    let input = frozen.input();
    assert_eq!(
        input.multigraph().map(forest_graph::MultiGraph::num_edges),
        Some(input.csr.num_edges())
    );
}
