//! The virtual power graph: equivalence and byte-stability.
//!
//! Two contracts are pinned here:
//!
//! 1. **Adjacency equivalence** (proptest): the lazy [`PowerView`] answers
//!    exactly the adjacency of the materialized `power_graph(g, r)` on
//!    arbitrary multigraphs, across radii including `0` and values beyond
//!    the diameter.
//! 2. **Byte identity** (golden hashes): the engines' decomposition reports
//!    are byte-for-byte identical to the pre-virtual-power-graph
//!    implementation for fixed seeds. The FNV-1a hashes below were captured
//!    from the materializing implementation; any drift in clusters, CUT RNG
//!    consumption, coloring or ledger charges shows up here.

use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind, ReorderKind};
use forest_graph::{generators, CsrGraph, GraphView, MultiGraph, VertexId};
use local_model::{power_graph, PowerView};
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

/// Sorted neighbor multiset of `v` (power graphs are simple per center, so
/// this is a set — but sorting keeps the comparison representation-free).
fn sorted_neighbors<G: GraphView>(g: &G, v: VertexId) -> Vec<VertexId> {
    let mut ns: Vec<VertexId> = g.neighbors(v).collect();
    ns.sort_unstable();
    ns.dedup();
    ns
}

fn assert_view_matches_materialized(g: &MultiGraph, r: usize) {
    let pv = PowerView::new(g, r);
    let pg = power_graph(g, r);
    for v in g.vertices() {
        let lazy = sorted_neighbors(&pv, v);
        let dense = sorted_neighbors(&pg, v);
        assert_eq!(lazy, dense, "neighbors of {v} differ at radius {r}");
        assert_eq!(pv.degree(v), lazy.len(), "degree of {v} at radius {r}");
    }
    // The lazy edge iterator enumerates each ball edge once.
    assert_eq!(
        pv.edges().count(),
        pg.num_edges(),
        "edge count at radius {r}"
    );
    for (e, u, w) in pv.edges() {
        let (eu, ew) = pv.endpoints(e);
        assert_eq!((eu, ew), (u, w), "edge-id round trip at radius {r}");
    }
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
    fn power_view_equals_materialized_power_graph(
        case in (arb_multigraph(18, 40), 0usize..6)
    ) {
        let (g, r) = case;
        assert_view_matches_materialized(&g, r);
    }

    #[test]
    fn power_view_equals_materialized_beyond_diameter(g in arb_multigraph(12, 30)) {
        // Radius >= n exceeds any diameter: every ball saturates its
        // connected component.
        let n = g.num_vertices();
        assert_view_matches_materialized(&g, n);
        assert_view_matches_materialized(&g, 2 * n + 5);
    }
}

#[test]
fn power_view_radius_zero_is_edgeless() {
    let g = generators::grid(5, 4);
    assert_view_matches_materialized(&g, 0);
    let pv = PowerView::new(&g, 0);
    assert_eq!(pv.edges().count(), 0);
}

// --- Golden canonical-bytes regressions (pre-PowerView captures) ---------

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

/// Adversarial sharded HSV through the virtual power-graph path: many
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
