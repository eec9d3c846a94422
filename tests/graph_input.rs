//! Storage-generic input contract tests: `CsrPartition::split` preserves
//! every edge exactly once, the on-disk CSR format round-trips
//! byte-identically through `save` → `load_mmap`, an mmap-loaded graph
//! decomposes to a byte-identical report for every `(problem, engine)`
//! combination, and `run_sharded` produces validated, deterministic
//! stitched decompositions.

use forest_decomp::api::{
    Decomposer, DecompositionRequest, Engine, GraphInput, ProblemKind, Validate, ValidationStatus,
};
use forest_decomp::FdError;
use forest_graph::{
    generators, CsrGraph, CsrPartition, GraphView, MmapCsr, MultiGraph, OwnedCsr, VertexId,
};
use proptest::prelude::*;
use std::path::PathBuf;

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

/// A unique temp-file path for on-disk round-trip tests.
fn temp_csr_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nash-williams-{tag}-{}-{:?}.csr",
        std::process::id(),
        std::thread::current().id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every edge of the input appears exactly once in a split: in exactly
    /// one shard's internal edge list (with consistently mapped endpoints)
    /// or in the boundary list (with endpoints in different shards).
    #[test]
    fn split_preserves_every_edge_exactly_once(
        (g, k) in (arb_multigraph(24, 80), 1usize..7)
    ) {
        let csr = CsrGraph::from_multigraph(&g);
        let part = CsrPartition::split(&csr, k);
        let mut seen = vec![0usize; g.num_edges()];
        for s in 0..part.num_shards() {
            let shard = part.shard(s);
            for (local, lu, lv) in shard.edges() {
                let e = part.global_edge(s, local);
                seen[e.index()] += 1;
                let (gu, gv) = g.endpoints(e);
                prop_assert_eq!(part.global_vertex(s, lu), gu);
                prop_assert_eq!(part.global_vertex(s, lv), gv);
                prop_assert_eq!(part.shard_of(gu), s);
                prop_assert_eq!(part.shard_of(gv), s);
            }
        }
        for &e in part.boundary_edges() {
            seen[e.index()] += 1;
            let (u, v) = g.endpoints(e);
            prop_assert!(part.shard_of(u) != part.shard_of(v));
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "shard-local U boundary must cover each edge once");
    }

    /// The on-disk format round-trips byte-identically: the saved file is
    /// exactly `to_bytes()`, and re-saving the mmap-loaded graph reproduces
    /// it bit for bit.
    #[test]
    fn save_load_mmap_roundtrips_byte_identically(g in arb_multigraph(20, 60)) {
        let csr = CsrGraph::from_multigraph(&g);
        let path = temp_csr_path("prop-roundtrip");
        csr.save(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        prop_assert_eq!(&on_disk, &csr.to_bytes());
        let mapped = MmapCsr::load_mmap(&path).unwrap();
        prop_assert_eq!(&mapped.to_bytes(), &on_disk);
        prop_assert_eq!(mapped.to_multigraph(), g.clone());
        prop_assert_eq!(OwnedCsr::from_bytes(&on_disk).unwrap(), csr);
        std::fs::remove_file(&path).unwrap();
    }
}

/// save → `load_mmap` → decompose is byte-identical (`canonical_bytes`) to
/// the owned-storage report for every problem × engine combination: storage
/// is a representation choice, never an algorithmic one.
#[test]
fn mmap_runs_match_owned_runs_for_every_problem_and_engine() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let g = generators::planted_forest_union(36, 3, &mut rng);
    let csr = CsrGraph::from_multigraph(&g);
    let path = temp_csr_path("matrix");
    csr.save(&path).unwrap();
    for &problem in &ProblemKind::ALL {
        for &engine in &Engine::ALL {
            let decomposer = Decomposer::new(
                DecompositionRequest::new(problem)
                    .with_engine(engine)
                    .with_epsilon(0.5)
                    .with_seed(914),
            );
            let owned = decomposer.run(&g);
            let mapped_input = GraphInput::from_mmap(&path).unwrap();
            let mapped = decomposer.run(mapped_input);
            match (owned, mapped) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.canonical_bytes(),
                        b.canonical_bytes(),
                        "{problem}/{engine}: mmap run diverged from owned run"
                    );
                    b.validate(&g).unwrap();
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "{problem}/{engine}: storages disagree on failure: owned ok = {}, mmap ok = {}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// `run_sharded` validates its stitched decomposition against the full
/// graph, is deterministic for a fixed shard count, and reports as
/// `leftover_edges` only the edges that actually went through a
/// leftover/recoloring phase (never more than the boundary plus per-shard
/// leftovers; boundary edges placed by the phase-1 fast path don't count).
#[test]
fn run_sharded_validates_and_is_deterministic() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(8);
    let g = generators::planted_forest_union(160, 3, &mut rng);
    let csr = CsrGraph::from_multigraph(&g);
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_alpha(3)
            .with_seed(77),
    );
    let unsharded = decomposer.run(&g).unwrap();
    for k in [2usize, 4, 8] {
        let part = CsrPartition::split(&csr, k);
        let report = decomposer.run_sharded(&g, k).unwrap();
        assert_eq!(report.validation, ValidationStatus::Validated);
        report.validate(&g).unwrap();
        // The phase-1 fast path places at least the first boundary edges it
        // sees (fresh shard forests are disconnected), so the stitch residue
        // is a strict subset of the boundary — and `leftover_edges` counts
        // only that residue plus per-shard leftovers (zero here), never the
        // whole boundary as the pre-PR-4 accounting did.
        assert!(
            report.leftover_edges < part.boundary_edges().len().max(1),
            "phase-1 stitching must place some boundary edges directly \
             (leftover {} vs boundary {})",
            report.leftover_edges,
            part.boundary_edges().len()
        );
        assert!(report.num_colors >= unsharded.arboricity);
        let again = decomposer.run_sharded(&g, k).unwrap();
        assert_eq!(
            report.canonical_bytes(),
            again.canonical_bytes(),
            "sharded runs must be deterministic (k = {k})"
        );
    }
}

/// Regression for the leftover accounting bug: on a cleanly stitched grid
/// every boundary edge lands in an existing shard forest through the phase-1
/// fast path, so `leftover_edges` must be exactly 0 (it used to report the
/// whole boundary count plus per-shard leftovers).
#[test]
fn run_sharded_grid_reports_zero_leftover() {
    let g = generators::grid(40, 25);
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(17),
    );
    for k in [2usize, 4] {
        let report = decomposer.run_sharded(&g, k).unwrap();
        report.validate(&g).unwrap();
        assert_eq!(
            report.leftover_edges, 0,
            "cleanly stitched grid must report zero leftover edges (k = {k})"
        );
    }
}

/// Regression for the color-span stitch bug: Harris–Su–Vu shard colorings
/// can leave color *index gaps* (leftover star colors skip indices), and the
/// stitcher must budget by max color index + 1, not by the distinct-color
/// count — otherwise gap-colored shard trees are invisible to the
/// connectivity cache and the stitch closes monochromatic cycles.
#[test]
fn run_sharded_handles_gap_colored_shard_decompositions() {
    use forest_graph::VertexId;
    // Two fat-path blocks joined by random bridges: each shard's HSV run
    // needs the leftover star-forest recoloring (which allocates
    // non-contiguous color ids), and the bridges force a real stitch.
    let block = generators::fat_path(50, 3);
    let n = block.num_vertices();
    let mut g = MultiGraph::new(2 * n);
    for (_, u, v) in block.edges() {
        g.add_edge(u, v).unwrap();
        g.add_edge(VertexId::new(u.index() + n), VertexId::new(v.index() + n))
            .unwrap();
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    for _ in 0..400 {
        let u = rand::Rng::gen_range(&mut rng, 0..n);
        let v = rand::Rng::gen_range(&mut rng, 0..n);
        g.add_edge(VertexId::new(u), VertexId::new(v + n)).unwrap();
    }
    for seed in [0u64, 1, 2, 3] {
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::HarrisSuVu)
                .with_epsilon(0.5)
                .with_seed(seed),
        );
        let report = decomposer.run_sharded(&g, 2).unwrap();
        assert_eq!(report.validation, ValidationStatus::Validated);
        report.validate(&g).unwrap();
    }
}

/// An mmap input drives the sharded path end to end: load from disk, split,
/// decompose per shard, stitch, validate — no owned CSR anywhere upstream.
#[test]
fn run_sharded_works_from_an_mmap_input() {
    let g = generators::grid(12, 9);
    let path = temp_csr_path("sharded-mmap");
    CsrGraph::from_multigraph(&g).save(&path).unwrap();
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(13),
    );
    let input = GraphInput::from_mmap(&path).unwrap();
    let sharded = decomposer.run_sharded(input, 3).unwrap();
    sharded.validate(&g).unwrap();
    let direct = decomposer.run_sharded(&g, 3).unwrap();
    assert_eq!(sharded.canonical_bytes(), direct.canonical_bytes());
    std::fs::remove_file(&path).unwrap();
}

/// Typed failures: non-forest sharding and malformed mmap files.
#[test]
fn sharded_and_mmap_failures_are_typed() {
    let g = generators::path(6);
    let decomposer = Decomposer::new(DecompositionRequest::new(ProblemKind::Orientation));
    assert!(matches!(
        decomposer.run_sharded(&g, 2),
        Err(FdError::ShardingUnsupported {
            problem: ProblemKind::Orientation
        })
    ));
    let path = temp_csr_path("bad");
    std::fs::write(&path, b"definitely not a CSR file").unwrap();
    assert!(matches!(
        GraphInput::from_mmap(&path),
        Err(FdError::Io { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}
