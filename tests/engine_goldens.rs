//! Golden `canonical_bytes` hashes for every engine path of the facade.
//!
//! The representation tests (`tests/csr_equivalence.rs`,
//! `tests/graph_input.rs`) compare inputs with each other, so a change that
//! moved every representation at once would pass them. These pin the bytes
//! themselves — colorings, RNG consumption, ledgers, reported α and errors —
//! on the inputs that reach each branch of the engine dispatch:
//!
//! * every supported `(problem, engine)` pair on a planted simple graph and
//!   on an edgeless graph;
//! * the list-star-forest greedy completion;
//! * the three leftover routes of the list-forest pipeline;
//! * the simple-graph precondition of both star problems;
//! * a star problem over an mmap-backed CSR;
//! * `run_sharded` for every engine that solves forests.

use forest_decomp::api::{
    Decomposer, DecompositionReport, DecompositionRequest, Engine, GraphInput, PaletteSpec,
    ProblemKind,
};
use forest_decomp::FdError;
use forest_graph::{generators, CsrGraph, MultiGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a byte string, as in `tests/power_view.rs`.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn hash(report: &DecompositionReport) -> u64 {
    fnv(&report.canonical_bytes())
}

fn planted_simple(n: usize, alpha: usize, seed: u64) -> MultiGraph {
    generators::planted_simple_arboricity(n, alpha, &mut StdRng::seed_from_u64(seed))
        .graph()
        .clone()
}

fn request(problem: ProblemKind, engine: Engine, seed: u64) -> DecompositionRequest {
    DecompositionRequest::new(problem)
        .with_engine(engine)
        .with_seed(seed)
}

/// Labels of the ledger charges after Algorithm 2's absorbed block.
fn charges_after_algorithm2(report: &DecompositionReport) -> Vec<&str> {
    let charges = report.ledger.charges();
    let last = charges
        .iter()
        .rposition(|c| c.label.starts_with("algorithm2/"))
        .expect("Algorithm 2 charged the ledger");
    charges[last + 1..]
        .iter()
        .map(|c| c.label.as_str())
        .collect()
}

/// Runs every `(problem, engine)` pair on `g` with `seed`: unsupported
/// pairs must fail typed, supported ones must match `golden` (hash and
/// reported α), which lists exactly the supported pairs.
fn check_matrix(g: &MultiGraph, seed: u64, golden: &[(ProblemKind, Engine, usize, u64)]) {
    let mut supported = 0;
    for problem in ProblemKind::ALL {
        for engine in Engine::ALL {
            let result = Decomposer::new(request(problem, engine, seed)).run(g);
            let pinned = golden
                .iter()
                .find(|(p, e, _, _)| *p == problem && *e == engine);
            match (result, pinned) {
                (Ok(report), Some(&(_, _, alpha, h))) => {
                    supported += 1;
                    assert_eq!(report.arboricity, alpha, "{problem}/{engine}: α");
                    assert_eq!(hash(&report), h, "{problem}/{engine}: bytes");
                }
                (Err(FdError::UnsupportedCombination { .. }), None) => {}
                (other, _) => panic!("{problem}/{engine}: unexpected {other:?}"),
            }
        }
    }
    assert_eq!(supported, golden.len());
}

/// Golden: every supported pair on `planted_simple_arboricity(120, 4)`.
/// The HSV star-forest run recolors 106 unmatched edges as fresh stars.
#[test]
fn golden_every_supported_pair_on_a_planted_simple_graph() {
    use Engine::*;
    use ProblemKind::*;
    let g = planted_simple(120, 4, 3);
    check_matrix(
        &g,
        17,
        &[
            (Forest, HarrisSuVu, 4, 0x8e68adde96e3faf5),
            (ListForest, HarrisSuVu, 4, 0xc478f634f3c176fe),
            (StarForest, HarrisSuVu, 4, 0x008e86745eebc933),
            (ListStarForest, HarrisSuVu, 4, 0x3eb436aaeb70946b),
            (Orientation, HarrisSuVu, 4, 0xce58e0e456890178),
            (Forest, BarenboimElkin, 4, 0xb534b6dfee9d1a09),
            (Orientation, BarenboimElkin, 4, 0xa216efb216cfff0f),
            (StarForest, Folklore2Alpha, 4, 0x89f82a9b73882923),
            (Forest, ExactMatroid, 4, 0x61a7e1df6d301d3a),
            (Orientation, ExactMatroid, 4, 0x6c6adab8a5b5019b),
        ],
    );
    let star = Decomposer::new(request(StarForest, HarrisSuVu, 17))
        .run(&g)
        .unwrap();
    assert_eq!(star.leftover_edges, 106);
}

/// Golden: every supported pair on an edgeless graph. HSV reports α = 0
/// for the forest problems and 1 for the star problems; Barenboim–Elkin
/// floors its bound at 1.
#[test]
fn golden_every_supported_pair_on_an_edgeless_graph() {
    use Engine::*;
    use ProblemKind::*;
    check_matrix(
        &MultiGraph::new(5),
        17,
        &[
            (Forest, HarrisSuVu, 0, 0x122db8fd48e2bf1a),
            (ListForest, HarrisSuVu, 0, 0x34b291e759269549),
            (StarForest, HarrisSuVu, 1, 0xaaeac573079a3ca3),
            (ListStarForest, HarrisSuVu, 1, 0xfa07127abb216658),
            (Orientation, HarrisSuVu, 0, 0x94a8abe5378f0023),
            (Forest, BarenboimElkin, 1, 0x17ab37c50adedd40),
            (Orientation, BarenboimElkin, 1, 0x5459bffe95065b83),
            (StarForest, Folklore2Alpha, 0, 0xa3184055aa7755ba),
            (Forest, ExactMatroid, 0, 0x31c0919d7a534e1f),
            (Orientation, ExactMatroid, 0, 0xb182f0fc91d21da8),
        ],
    );
}

/// Golden: the list-star-forest matching leaves an edge unmatched, and the
/// greedy pass completes it from its palette. The edge counts once as a
/// leftover edge (the matching counts it; the completion adds nothing).
#[test]
fn golden_list_star_forest_greedy_completion() {
    let g = planted_simple(300, 6, 99);
    let report = Decomposer::new(
        request(ProblemKind::ListStarForest, Engine::HarrisSuVu, 99).with_epsilon(0.25),
    )
    .run(&g)
    .unwrap();
    assert_eq!(report.leftover_edges, 1);
    assert_eq!(hash(&report), 0x2dd4626f2799371a);
}

/// Golden: the three routes the list-forest leftover can take after
/// Algorithm 2 with forced small radii — completion by augmentation (no
/// ledger line), the Theorem 2.3 LSFD failing after its H-partition (only
/// that line) and succeeding (its class-by-class line too).
#[test]
fn golden_list_forest_leftover_routes() {
    let g = generators::fat_path(120, 2);
    let cases: [(usize, f64, &[&str], u64); 3] = [
        (20, 0.5, &[], 0x00119f20d82ab516),
        (100, 0.5, &["H-partition peeling"], 0x634df71fe1ba80c9),
        (
            100,
            0.9,
            &[
                "H-partition peeling",
                "Theorem 2.3 class-by-class list edge coloring",
            ],
            0x54f4a1bed10b8454,
        ),
    ];
    for (colors, epsilon, after, h) in cases {
        let report = Decomposer::new(
            request(ProblemKind::ListForest, Engine::HarrisSuVu, 17)
                .with_epsilon(epsilon)
                .with_radii(8, 4)
                .with_palettes(PaletteSpec::Uniform { colors }),
        )
        .run(&g)
        .unwrap();
        assert_eq!(report.leftover_edges, 16, "{colors} colors, ε = {epsilon}");
        assert_eq!(charges_after_algorithm2(&report), after);
        assert_eq!(hash(&report), h, "{colors} colors, ε = {epsilon}");
    }
}

/// Both star problems reject a multigraph with parallel edges, typed.
#[test]
fn star_problems_reject_parallel_edges() {
    let g = generators::planted_forest_union(60, 3, &mut StdRng::seed_from_u64(4));
    for problem in [ProblemKind::StarForest, ProblemKind::ListStarForest] {
        let result = Decomposer::new(request(problem, Engine::HarrisSuVu, 17)).run(&g);
        assert!(
            matches!(result, Err(FdError::NotSimple)),
            "{problem}: {result:?}"
        );
    }
}

/// Golden: a star problem over an mmap-backed CSR, which has no
/// adjacency-list form, gives the bytes of the in-memory run.
#[test]
fn golden_star_forest_from_mmap() {
    let g = planted_simple(120, 4, 3);
    let path = std::env::temp_dir().join(format!(
        "nash-williams-engine-goldens-{}.csr",
        std::process::id()
    ));
    CsrGraph::from_multigraph(&g).save(&path).unwrap();
    let input = GraphInput::from_mmap(&path).unwrap();
    let report = Decomposer::new(request(ProblemKind::StarForest, Engine::HarrisSuVu, 17))
        .run(input)
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(hash(&report), 0x008e86745eebc933);
}

/// Golden: `run_sharded` with 3 shards for every engine that solves
/// forests.
#[test]
fn golden_run_sharded_per_engine() {
    let g = planted_simple(120, 4, 3);
    for (engine, h) in [
        (Engine::HarrisSuVu, 0xc2606943bf2e25af),
        (Engine::BarenboimElkin, 0xdbbbdd0c9fb195a5),
        (Engine::ExactMatroid, 0x790455049311f325),
    ] {
        let report = Decomposer::new(request(ProblemKind::Forest, engine, 17))
            .run_sharded(&g, 3)
            .unwrap();
        assert_eq!(hash(&report), h, "{engine}");
    }
}
