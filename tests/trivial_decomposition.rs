//! Algorithm 2 when the network decomposition is trivial.
//!
//! When `2(R+R')` reaches the diameter bound, the decomposition of
//! `G^{2(R+R')}` is one cluster per connected component, so CUT has
//! nothing to cut and every edge is colored by augmentation over its whole
//! component. The goldens here pin that path's full output — colors,
//! leftover (in order), fallback counters, ledger and report bytes — on
//! the inputs where a shortcut could go wrong:
//!
//! * palettes too small for the arboricity, so most augmentations fail and
//!   the failure fallback (unrestricted retry, then leftover) runs;
//! * several components whose vertex and edge ids interleave, so coloring
//!   edges in global id order differs from coloring them component by
//!   component, under both CUT rules;
//! * a planted graph built by the external sort and mapped from disk, the
//!   benchmark's `cold_random` path at a tenth of its size.
//!
//! A differential proptest covers the reuse of the exact partition: when
//! the request fixes no α, the facade hands the partition that found α to
//! the trivial pass, which adopts it when it is plain first-fit, and whose
//! measured diameter, when small enough, stands in for the component BFS
//! and for the report's measurement. A run with α computed must give the
//! bytes of the same run with that α fixed (which never adopts), for
//! Forest, Orientation and `run_sharded`, at radii where the diameter
//! certifies the pass, where the BFS decides it and where the cluster loop
//! runs, and with a diameter target.

use forest_decomp::algorithm2::{algorithm2_frozen, Algorithm2Config, Algorithm2Output};
use forest_decomp::api::{
    Decomposer, DecompositionReport, DecompositionRequest, Engine, GraphInput, ProblemKind,
};
use forest_decomp::{CutStrategyKind, DiameterTarget};
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, EdgeListFormat, ExtsortConfig,
};
use forest_graph::traversal::{bfs_distances, UNREACHABLE};
use forest_graph::{generators, matroid, CsrGraph, EdgeId, ListAssignment, MultiGraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
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

/// One hash over everything Algorithm 2 returns that a later phase reads:
/// every edge's color, the leftover in order, the counters and the ledger.
fn output_hash(out: &Algorithm2Output) -> u64 {
    let mut bytes = Vec::new();
    let mut word = |x: u64| bytes.extend_from_slice(&x.to_le_bytes());
    for e in 0..out.coloring.len() {
        word(
            out.coloring
                .color(EdgeId::new(e))
                .map_or(u64::MAX, |c| c.index() as u64),
        );
    }
    word(out.leftover.len() as u64);
    for e in &out.leftover {
        word(e.index() as u64);
    }
    for x in [
        out.fallback_unrestricted,
        out.fallback_uncolored,
        out.forced_cut_removals,
        out.max_cut_load,
        out.num_classes,
        out.num_clusters,
        out.radii.0,
        out.radii.1,
        usize::from(out.all_cuts_good),
    ] {
        word(x as u64);
    }
    for charge in out.ledger.charges() {
        bytes.extend_from_slice(charge.label.as_bytes());
        bytes.extend_from_slice(&(charge.rounds as u64).to_le_bytes());
    }
    fnv(&bytes)
}

/// Algorithm 2 with `palette`-color uniform palettes and the given α bound.
fn run_algorithm2(
    g: &MultiGraph,
    alpha: usize,
    palette: usize,
    cut: CutStrategyKind,
) -> Algorithm2Output {
    let lists = ListAssignment::uniform(g.num_edges(), palette);
    let mut config = Algorithm2Config::new(0.5, alpha);
    config.cut = cut;
    let csr = CsrGraph::from_multigraph(g);
    algorithm2_frozen(&csr, &lists, &config, &mut StdRng::seed_from_u64(5)).unwrap()
}

fn planted_60() -> MultiGraph {
    generators::planted_forest_union(60, 3, &mut StdRng::seed_from_u64(3))
}

/// Three `planted_forest_union(n, 3)` graphs on one vertex set, graph
/// `i`'s vertex `v` relabelled `3v + i`, their edges added in a seeded
/// shuffle: three components whose vertex ids and edge ids interleave.
fn interleaved_components(n: usize) -> MultiGraph {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..3 {
        let part = generators::planted_forest_union(n, 3, &mut StdRng::seed_from_u64(40 + i));
        for (_, u, v) in part.edges() {
            edges.push((3 * u.index() + i as usize, 3 * v.index() + i as usize));
        }
    }
    edges.shuffle(&mut StdRng::seed_from_u64(43));
    let mut g = MultiGraph::new(3 * n);
    for (u, v) in edges {
        g.add_edge(VertexId::new(u), VertexId::new(v)).unwrap();
    }
    g
}

fn forest_request(seed: u64) -> DecompositionRequest {
    DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::HarrisSuVu)
        .with_epsilon(0.5)
        .with_seed(seed)
}

/// Golden: with α = 1 the palettes hold 2 colors, too few for a planted
/// arboricity-3 graph, so 59 augmentations fail; each is retried without
/// restriction, fails again and joins the leftover.
#[test]
fn golden_augmentation_failure_fallback() {
    let g = planted_60();
    let out = run_algorithm2(&g, 1, 2, CutStrategyKind::DepthModulo);
    assert_eq!(out.leftover.len(), 59);
    assert_eq!(out.fallback_unrestricted, 59);
    assert_eq!(out.fallback_uncolored, 59);
    assert_eq!(out.num_classes, 1);
    assert!(out.all_cuts_good);
    assert_eq!(out.forced_cut_removals, 0);
    assert_eq!(out.max_cut_load, 0);
    assert_eq!(output_hash(&out), 0x354663aa9ca8dbc5);
    // The facade recolors those 59 edges as fresh star forests.
    let report = Decomposer::new(forest_request(7).with_alpha(1))
        .run(&g)
        .unwrap();
    assert_eq!(report.num_colors, 7);
    assert_eq!(report.leftover_edges, 59);
    assert_eq!(fnv(&report.canonical_bytes()), 0x8a59abbe1df55040);
}

/// Golden: components interleaved in vertex and edge ids, under both CUT
/// rules, through Algorithm 2 directly (one cluster per component, with
/// and without failing augmentations) and through the facade.
#[test]
fn golden_interleaved_components_under_both_cut_rules() {
    let g = interleaved_components(300);
    // Failing searches cost a whole-component growth each; a smaller
    // instance keeps the test fast.
    let small = interleaved_components(60);
    let cases = [
        (
            CutStrategyKind::DepthModulo,
            [
                0xf39d65352a4aa0e0u64,
                0x6c1ba489a8e91ba1,
                0x784590642a241ab9,
            ],
        ),
        (
            CutStrategyKind::ConditionedSampling,
            [0x3a3871f73ccf291b, 0xe8d77e6334d3d0a0, 0x220aa2bb7611a09f],
        ),
    ];
    for (cut, [colored, failing, report_hash]) in cases {
        let out = run_algorithm2(&g, 3, 5, cut);
        assert_eq!((out.num_classes, out.num_clusters), (1, 3), "{cut:?}");
        assert!(out.leftover.is_empty(), "{cut:?}");
        assert_eq!(output_hash(&out), colored, "{cut:?}");
        // Failures in every component: the leftover keeps its order.
        let out = run_algorithm2(&small, 1, 2, cut);
        assert_eq!(out.leftover.len(), 177, "{cut:?}");
        assert_eq!(out.fallback_unrestricted, 177, "{cut:?}");
        assert_eq!(out.fallback_uncolored, 177, "{cut:?}");
        assert_eq!(output_hash(&out), failing, "{cut:?}");
        let report = Decomposer::new(forest_request(11).with_cut(cut))
            .run(&g)
            .unwrap();
        assert_eq!(report.arboricity, 3, "{cut:?}");
        assert_eq!(fnv(&report.canonical_bytes()), report_hash, "{cut:?}");
    }
}

/// Golden: the default Forest request on `planted_forest_union(2000, 3)`,
/// written as a binary edge file, built into a CSR by the external sort
/// under a 64 KiB budget (so it spills) and mapped from disk. Exact α, the
/// uniform palettes and the trivial pass place every edge in the first
/// three forests, with nothing left over.
#[test]
fn golden_planted_union_through_extsort_and_mmap() {
    let n = 2000;
    let g = generators::planted_forest_union(n, 3, &mut StdRng::seed_from_u64(23));
    let stem = std::env::temp_dir().join(format!("nash-williams-trivial-{}", std::process::id()));
    let edges = stem.with_extension("edges");
    let csr = stem.with_extension("csr");
    write_binary_edge_file(&edges, g.edges().map(|(_, u, v)| (u.raw(), v.raw()))).unwrap();
    let config = ExtsortConfig::with_budget(64 << 10).num_vertices(n);
    let build = build_csr_from_edge_file(&edges, EdgeListFormat::BinaryU32, &csr, &config);
    let report = Decomposer::new(forest_request(31)).run(GraphInput::from_mmap(&csr).unwrap());
    std::fs::remove_file(&edges).unwrap();
    std::fs::remove_file(&csr).unwrap();
    assert!(build.unwrap().spilled_runs >= 2);
    let report = report.unwrap();
    assert_eq!(
        (report.arboricity, report.num_colors, report.leftover_edges),
        (3, 3, 0)
    );
    assert_eq!(fnv(&report.canonical_bytes()), 0x0889b0b2b908ee6d);
}

/// `parts` copies of `planted_forest_union(part_n, k)`, copy `i` on the
/// vertices `i·part_n..(i+1)·part_n`: its edges copy by copy in
/// generation order, or all of them in a seeded shuffle. Every copy has
/// exactly `k(part_n − 1)` edges and arboricity `k`, so splitting the
/// graph into `parts` shards, balanced by incidence count, cuts it at the
/// copies' boundaries and every shard resolves α = `k` itself.
fn planted_copies(parts: usize, part_n: usize, k: usize, seed: u64, shuffled: bool) -> MultiGraph {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..parts {
        let copy = generators::planted_forest_union(part_n, k, &mut rng);
        let base = i * part_n;
        edges.extend(
            copy.edges()
                .map(|(_, u, v)| (base + u.index(), base + v.index())),
        );
    }
    if shuffled {
        edges.shuffle(&mut rng);
    }
    let mut g = MultiGraph::new(parts * part_n);
    for (u, v) in edges {
        g.add_edge(VertexId::new(u), VertexId::new(v)).unwrap();
    }
    g
}

/// Twice the largest eccentricity of each component's minimum vertex: the
/// diameter bound of Algorithm 2's component BFS, which finds the
/// decomposition trivial exactly when `2(R+R')` reaches it.
fn bfs_diameter_bound(g: &MultiGraph) -> usize {
    let mut seen = vec![false; g.num_vertices()];
    let mut bound = 0;
    for r in g.vertices() {
        if seen[r.index()] {
            continue;
        }
        for (v, d) in bfs_distances(g, r, |_| true).into_iter().enumerate() {
            if d != UNREACHABLE {
                seen[v] = true;
                bound = bound.max(2 * d);
            }
        }
    }
    bound
}

/// The default HSV request for `problem`, seeded.
fn hsv_request(problem: ProblemKind, seed: u64) -> DecompositionRequest {
    DecompositionRequest::new(problem)
        .with_engine(Engine::HarrisSuVu)
        .with_seed(seed)
}

/// Runs `run` with α computed, then with the α that run reported fixed,
/// and compares the canonical bytes.
fn same_bytes_with_alpha_fixed(
    request: DecompositionRequest,
    run: impl Fn(&Decomposer) -> DecompositionReport,
    case: &str,
) -> Result<(), TestCaseError> {
    let computed = run(&Decomposer::new(request.clone()));
    let fixed = run(&Decomposer::new(request.with_alpha(computed.arboricity)));
    prop_assert!(
        computed.canonical_bytes() == fixed.canonical_bytes(),
        "{case}: α computed ({} colors) and α = {} fixed ({} colors) differ",
        computed.num_colors,
        computed.arboricity,
        fixed.num_colors
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Each case is a batch of graphs on at most 60 vertices, each in
    /// generation order (first-fit over α colors never misses) and
    /// shuffled (the exact partition needs exchanges). Forest and
    /// Orientation runs and `run_sharded` at the copy count must give the
    /// same bytes with α computed as with that α fixed, and every batch
    /// must cover both kinds of partition.
    ///
    /// Forest and Orientation also run at `2(R+R')` equal to the BFS
    /// bound `B` (trivial; unless twice the partition's diameter is also
    /// `B`, only the BFS says so), at `B − 2` (the cluster loop runs), and
    /// with a diameter target (which recolors, so the report must measure
    /// again). Every batch must hold a first-fit partition the BFS decides
    /// on and one the cluster loop ignores.
    #[test]
    fn computed_alpha_gives_the_bytes_of_fixed_alpha(
        batch in proptest::collection::vec((1..4usize, 2..21usize, 1..5usize, 0..u64::MAX), 6)
    ) {
        let (mut first_fit, mut exchanged) = (0, 0);
        let (mut bfs_decided, mut cluster_loop) = (0, 0);
        for (parts, part_n, k, seed) in batch {
            for shuffled in [false, true] {
                let g = planted_copies(parts, part_n, k, seed, shuffled);
                let exact = matroid::exact_forest_decomposition(&g);
                let half = bfs_diameter_bound(&g) / 2;
                if exact.exchanges == 0 {
                    first_fit += 1;
                    let diameter = exact.decomposition.max_diameter(&g).unwrap();
                    bfs_decided += usize::from(diameter > half);
                    cluster_loop += usize::from(half >= 3);
                } else {
                    exchanged += 1;
                }
                let case = format!("{parts} × planted({part_n}, {k}), seed {seed}, shuffled {shuffled}");
                for problem in [ProblemKind::Forest, ProblemKind::Orientation] {
                    let request = hsv_request(problem, seed);
                    let mut variants = vec![
                        ("default radii", request.clone()),
                        ("2(R+R') = B", request.clone().with_radii(half - 1, 1)),
                        (
                            "a diameter target",
                            request.clone().with_diameter_target(DiameterTarget::OneOverEpsilon),
                        ),
                    ];
                    if half >= 3 {
                        variants.push(("2(R+R') = B − 2", request.with_radii(half - 2, 1)));
                    }
                    for (what, request) in variants {
                        same_bytes_with_alpha_fixed(
                            request,
                            |d| d.run(&g).unwrap(),
                            &format!("{problem:?} at {what} on {case}"),
                        )?;
                    }
                }
                if parts > 1 {
                    same_bytes_with_alpha_fixed(
                        hsv_request(ProblemKind::Forest, seed),
                        |d| d.run_sharded(&g, parts).unwrap(),
                        &format!("run_sharded on {case}"),
                    )?;
                }
            }
        }
        prop_assert!(
            first_fit > 0 && exchanged > 0,
            "first-fit partitions {first_fit}, partitions with exchanges {exchanged}"
        );
        prop_assert!(
            bfs_decided > 0 && cluster_loop > 0,
            "first-fit partitions the BFS decides on {bfs_decided}, at B − 2 {cluster_loop}"
        );
    }
}
