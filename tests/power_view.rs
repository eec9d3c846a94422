//! The power path: decomposing `G^r` without building it, and byte-stability.
//!
//! Three contracts are pinned here:
//!
//! 1. **Differential decomposition** (proptest): `network_decomposition(&g,
//!    r, ..)`, which reads each power neighbourhood from a bounded BFS in
//!    `g`, returns exactly the decomposition of the materialized
//!    `power_graph(g, r)` at power 1 (classes, clusters and their order,
//!    ledger, ball count) on arbitrary multigraphs at radii `0..6` and
//!    beyond the diameter, and on a grid and a fat path at radii `1..=12`.
//! 2. **Power-path goldens**: the decomposition of `G^r` on three inputs,
//!    its ledger and its ball count, captured from the implementation that
//!    answered each adjacency query of `G^r` with a sorted ball.
//! 3. **Byte identity** (golden hashes): the engines' decomposition reports
//!    are byte-for-byte identical to the pre-virtual-power-graph
//!    implementation for fixed seeds. The FNV-1a hashes below were captured
//!    from the materializing implementation; any drift in clusters, CUT RNG
//!    consumption, coloring or ledger charges shows up here.

use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind, ReorderKind};
use forest_graph::{generators, CsrGraph, MultiGraph, VertexId};
use local_model::{network_decomposition, power_graph, NetworkDecomposition, RoundLedger};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Decomposes `g^r` from bounded balls in `g` and checks every field
/// against the decomposition of the materialized `power_graph(g, r)`.
fn assert_decomposes_like_materialized(g: &MultiGraph, r: usize) {
    let csr = CsrGraph::from_multigraph(g);
    let mut ledger = RoundLedger::new();
    let nd = network_decomposition(&csr, r, &mut ledger);
    let mut oracle_ledger = RoundLedger::new();
    let oracle = network_decomposition(&power_graph(g, r), 1, &mut oracle_ledger);
    assert_eq!(nd.num_classes, oracle.num_classes, "classes at radius {r}");
    assert_eq!(nd.class_of, oracle.class_of, "class_of at radius {r}");
    assert_eq!(nd.cluster_of, oracle.cluster_of, "cluster_of at radius {r}");
    assert_eq!(
        nd.cluster_class, oracle.cluster_class,
        "cluster_class at radius {r}"
    );
    assert_eq!(nd.clusters, oracle.clusters, "clusters at radius {r}");
    assert_eq!(ledger, oracle_ledger, "ledger at radius {r}");
    // The layers agree as sets, so both grow one ball per frontier vertex.
    assert_eq!(
        nd.ball_expansions, oracle.ball_expansions,
        "balls at radius {r}"
    );
}

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

    #[test]
    fn power_decomposition_equals_materialized(
        case in (arb_multigraph(18, 40), 0usize..6)
    ) {
        let (g, r) = case;
        assert_decomposes_like_materialized(&g, r);
    }

    #[test]
    fn power_decomposition_equals_materialized_beyond_diameter(g in arb_multigraph(12, 30)) {
        // Radius >= n exceeds any diameter: every ball saturates its
        // connected component.
        let n = g.num_vertices();
        assert_decomposes_like_materialized(&g, n);
        assert_decomposes_like_materialized(&g, 2 * n + 5);
    }
}

/// Large-diameter inputs: at small radii their power graphs split into many
/// clusters over several classes.
#[test]
fn power_decomposition_equals_materialized_on_grid_and_fat_path() {
    let grid = generators::grid(40, 12);
    let fat_path = generators::fat_path(120, 2);
    for r in 1..=12 {
        assert_decomposes_like_materialized(&grid, r);
        assert_decomposes_like_materialized(&fat_path, r);
    }
}

#[test]
fn power_zero_decomposes_into_singletons() {
    let g = generators::grid(5, 4);
    assert_decomposes_like_materialized(&g, 0);
    let csr = CsrGraph::from_multigraph(&g);
    let nd = network_decomposition(&csr, 0, &mut RoundLedger::new());
    assert_eq!((nd.num_classes, nd.clusters.len()), (1, g.num_vertices()));
}

// --- Golden decompositions of G^r (the power path itself) -----------------

/// FNV-1a of a network decomposition and the ledger it charged: the class
/// count, `class_of`, `cluster_of`, `cluster_class`, every cluster's members
/// in order, then each charge's label and rounds.
fn decomposition_hash(nd: &NetworkDecomposition, ledger: &RoundLedger) -> u64 {
    fn put(bytes: &mut Vec<u8>, x: usize) {
        bytes.extend_from_slice(&(x as u64).to_le_bytes());
    }
    let mut bytes = Vec::new();
    put(&mut bytes, nd.num_classes);
    for field in [&nd.class_of, &nd.cluster_of, &nd.cluster_class] {
        put(&mut bytes, field.len());
        for &x in field.iter() {
            put(&mut bytes, x);
        }
    }
    put(&mut bytes, nd.clusters.len());
    for cluster in &nd.clusters {
        put(&mut bytes, cluster.len());
        for v in cluster {
            put(&mut bytes, v.index());
        }
    }
    for charge in ledger.charges() {
        put(&mut bytes, charge.label.len());
        bytes.extend_from_slice(charge.label.as_bytes());
        put(&mut bytes, charge.rounds);
    }
    fnv(&bytes)
}

/// Decomposes `g^r` and checks it against values captured from the
/// implementation that answered adjacency in `G^r` through a sorted ball per
/// query: `(classes, clusters, balls)` — the class and cluster counts and
/// the number of bounded BFS balls grown — and the hash of the whole
/// decomposition and its ledger.
fn assert_power_golden(g: &MultiGraph, r: usize, counts: (usize, usize, u64), hash: u64) {
    let csr = CsrGraph::from_multigraph(g);
    let mut ledger = RoundLedger::new();
    let nd = network_decomposition(&csr, r, &mut ledger);
    let measured = (nd.num_classes, nd.clusters.len(), nd.ball_expansions);
    assert_eq!(measured, counts, "radius {r}");
    assert_eq!(decomposition_hash(&nd, &ledger), hash, "radius {r}");
}

/// `grid(120, 12)` at `2(R+R') = 96`, the power the default request derives
/// for this graph (the `cold_mesh` benchmark input).
#[test]
fn golden_power_decomposition_mesh() {
    let g = generators::grid(120, 12);
    assert_power_golden(&g, 96, (2, 2, 2_537), 0x2c7f3bff32e07f58);
}

#[test]
fn golden_power_decomposition_small_grid() {
    let g = generators::grid(40, 12);
    assert_power_golden(&g, 18, (3, 3, 883), 0x36bc7ca7f34c85cf);
}

#[test]
fn golden_power_decomposition_fat_path() {
    let g = generators::fat_path(300, 2);
    assert_power_golden(&g, 24, (2, 13, 595), 0xe5583d864db9f697);
}

// --- Golden canonical-bytes regressions (pre-virtual-power-graph captures) -

#[test]
fn golden_hsv_trivial_power_path() {
    let mut rng = StdRng::seed_from_u64(8);
    let g = generators::planted_forest_union(200, 3, &mut rng);
    let d = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(9),
    );
    let report = d.run(&g).unwrap();
    assert_eq!(fnv(&report.canonical_bytes()), 0x2b4e13de34bc341b);
}

#[test]
fn golden_hsv_forced_radii_engages_power_machinery() {
    let g = generators::fat_path(300, 2);
    let d = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(2)
            .with_radii(8, 4)
            .with_seed(9),
    );
    let report = d.run(&g).unwrap();
    assert_eq!(fnv(&report.canonical_bytes()), 0x7aad3faaa1352771);
}

#[test]
fn golden_hsv_sharded_rcm() {
    let mut rng = StdRng::seed_from_u64(33);
    let g = generators::planted_forest_union(2_000, 3, &mut rng);
    let frozen = CsrGraph::from_multigraph(&g);
    let d = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(17)
            .with_shard_reorder(ReorderKind::Rcm),
    );
    let report = d.run_sharded(&frozen, 4).unwrap();
    assert_eq!(fnv(&report.canonical_bytes()), 0x6c1767c7a3fd97a3);
}

#[test]
fn golden_hsv_grid_forced_radii() {
    let g = generators::grid(40, 12);
    let d = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(2)
            .with_radii(6, 3)
            .with_seed(21),
    );
    let report = d.run(&g).unwrap();
    assert_eq!(fnv(&report.canonical_bytes()), 0x024de31e7c1565d4);
}

#[test]
fn golden_barenboim_elkin_frontier_h_partition() {
    let mut rng = StdRng::seed_from_u64(8);
    let g = generators::planted_forest_union(200, 3, &mut rng);
    let d = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::BarenboimElkin)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(3),
    );
    let report = d.run(&g).unwrap();
    assert_eq!(fnv(&report.canonical_bytes()), 0x13a122e4ac9192be);
}

/// Adversarial sharded HSV through the power path: many
/// fragmented shard components, forced sharding of a graph whose derived
/// radii exceed most shard diameters. Sharded and unsharded runs must agree
/// on validity; this is the CI smoke for the ball-local pipeline.
#[test]
fn sharded_hsv_virtual_path_smoke() {
    let mut rng = StdRng::seed_from_u64(33);
    let g = generators::planted_forest_union(1_200, 3, &mut rng);
    let frozen = CsrGraph::from_multigraph(&g);
    let d = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(17),
    );
    let unsharded = d.run(&frozen).unwrap();
    assert!(unsharded.num_colors > 0);
    for k in [2usize, 4] {
        let sharded = d.run_sharded(&frozen, k).unwrap();
        // Both runs validated (the request default); the stitch may open a
        // few extra colors but must stay in the same quality regime.
        assert!(
            sharded.num_colors <= 2 * unsharded.num_colors + 2,
            "sharded k={k} used {} colors vs {} unsharded",
            sharded.num_colors,
            unsharded.num_colors
        );
    }
}
