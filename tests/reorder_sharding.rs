//! Locality-reordered sharding contract tests: BFS/RCM orders are valid
//! permutations, a permuted run is equivalent to the unpermuted run modulo
//! relabeling (edge ids round-trip untouched), sharded color counts stay
//! within the Theorem 4.6-style budget and are non-increasing in locality,
//! and the exact-α stitch closes the `α + 1` gap.

use forest_decomp::api::{
    Decomposer, DecompositionRequest, Engine, FrozenGraph, OocConfig, ProblemKind, ReorderKind,
    StitchPolicy, Validate,
};
use forest_decomp::FdError;
use forest_graph::reorder::{bfs_order, permute, rcm_order};
use forest_graph::{generators, CsrGraph, CsrPartition, GraphView, MultiGraph, VertexId};
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BFS and RCM orders are valid permutations: every vertex appears at
    /// exactly one position, and the two directions invert each other.
    #[test]
    fn bfs_and_rcm_orders_are_valid_permutations(g in arb_multigraph(40, 120)) {
        let csr = CsrGraph::from_multigraph(&g);
        for perm in [bfs_order(&csr), rcm_order(&csr)] {
            prop_assert_eq!(perm.len(), g.num_vertices());
            let mut hit = vec![false; g.num_vertices()];
            for v in g.vertices() {
                let new = perm.new_id(v);
                prop_assert!(!hit[new.index()], "two vertices mapped to {new}");
                hit[new.index()] = true;
                prop_assert_eq!(perm.old_id(new), v);
            }
            prop_assert!(hit.iter().all(|&h| h));
        }
    }

    /// A reordered run is the unreordered run modulo relabeling: `permute`
    /// keeps edge ids fixed while relabeling endpoints, so the exact-matroid
    /// run on the permuted graph produces the *same per-edge colors*, the
    /// same color count, and a decomposition that validates — and the edge
    /// multiset maps back through the permutation.
    #[test]
    fn permuted_run_is_equivalent_modulo_relabeling(g in arb_multigraph(28, 90)) {
        let csr = CsrGraph::from_multigraph(&g);
        let perm = rcm_order(&csr);
        let permuted_csr = permute(&csr, &perm);
        let permuted = permuted_csr.to_multigraph();
        // Edge multiset preserved: edge e's endpoints map exactly through
        // the permutation (edge ids round-trip as the identity).
        for (e, u, v) in csr.edges() {
            let (pu, pv) = permuted.endpoints(e);
            prop_assert_eq!((pu, pv), (perm.new_id(u), perm.new_id(v)));
        }
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .with_seed(3),
        );
        let original = decomposer.run(&g).unwrap();
        let relabeled = decomposer.run(&permuted).unwrap();
        original.validate(&g).unwrap();
        relabeled.validate(&permuted).unwrap();
        prop_assert_eq!(original.num_colors, relabeled.num_colors);
        let a = original.artifact.decomposition().unwrap();
        let b = relabeled.artifact.decomposition().unwrap();
        prop_assert_eq!(a.colors(), b.colors());
    }

    /// `run_sharded` with a BFS/RCM `ShardingSpec` still produces a valid,
    /// deterministic stitched decomposition on arbitrary graphs.
    #[test]
    fn reordered_sharded_runs_validate(
        (g, k) in (arb_multigraph(32, 100), 2usize..5)
    ) {
        for reorder in [ReorderKind::Bfs, ReorderKind::Rcm] {
            let decomposer = Decomposer::new(
                DecompositionRequest::new(ProblemKind::Forest)
                    .with_engine(Engine::ExactMatroid)
                    .with_seed(11)
                    .with_shard_reorder(reorder),
            );
            let report = decomposer.run_sharded(&g, k).unwrap();
            report.validate(&g).unwrap();
            let again = decomposer.run_sharded(&g, k).unwrap();
            prop_assert_eq!(report.canonical_bytes(), again.canonical_bytes());
        }
    }
}

/// Sharded color counts stay within the Theorem 4.6-style budget
/// (`2α + 2` for `ε = 0.5`) and are non-increasing in locality: the RCM
/// split never needs more colors than the identity split, and its boundary
/// fraction is strictly smaller on a randomly-labeled workload.
#[test]
fn sharded_colors_bounded_and_non_increasing_in_locality() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(33);
    let alpha = 3usize;
    let g = generators::planted_forest_union(2_000, alpha, &mut rng);
    let frozen = FrozenGraph::freeze(g);
    let base = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::HarrisSuVu)
        .with_epsilon(0.5)
        .with_alpha(alpha)
        .with_seed(17);
    for k in [2usize, 4] {
        let identity = CsrPartition::split(frozen.csr(), k);
        let rcm = CsrPartition::split_ordered(frozen.csr(), k, &rcm_order(frozen.csr()));
        assert!(
            rcm.boundary_fraction() < identity.boundary_fraction(),
            "k = {k}: rcm boundary fraction {} must beat identity {}",
            rcm.boundary_fraction(),
            identity.boundary_fraction()
        );
        let identity_report = Decomposer::new(base.clone())
            .run_sharded(&frozen, k)
            .unwrap();
        let rcm_report = Decomposer::new(base.clone().with_shard_reorder(ReorderKind::Rcm))
            .run_sharded(&frozen, k)
            .unwrap();
        identity_report.validate(frozen.graph()).unwrap();
        rcm_report.validate(frozen.graph()).unwrap();
        assert!(
            identity_report.num_colors <= 2 * alpha + 2,
            "k = {k}: identity colors {} beyond the Theorem 4.6-style budget",
            identity_report.num_colors
        );
        assert!(
            rcm_report.num_colors <= identity_report.num_colors,
            "k = {k}: colors must be non-increasing in locality ({} vs {})",
            rcm_report.num_colors,
            identity_report.num_colors
        );
    }
}

/// The exact-α stitch closes the α + 1 gap on the capacity-tight grid
/// workload: the greedy default settles above α, the
/// [`StitchPolicy::ExactAlpha`] pass exchanges the overflow back inside
/// the budget, and both reports validate.
#[test]
fn exact_alpha_stitch_closes_the_grid_gap() {
    let g = generators::grid(48, 48); // m ≈ 2n: arboricity exactly 2
    let frozen = FrozenGraph::freeze(g);
    let alpha = forest_graph::matroid::arboricity(frozen.csr());
    assert_eq!(alpha, 2, "the grid is the capacity-tight workload");
    for k in [2usize, 4] {
        let base = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(13);
        let greedy = Decomposer::new(base.clone())
            .run_sharded(&frozen, k)
            .unwrap();
        let exact = Decomposer::new(base.with_stitch_policy(StitchPolicy::ExactAlpha))
            .run_sharded(&frozen, k)
            .unwrap();
        greedy.validate(frozen.graph()).unwrap();
        exact.validate(frozen.graph()).unwrap();
        assert_eq!(
            exact.num_colors, alpha,
            "k = {k}: exact-α stitch must reach exactly α"
        );
        assert!(
            greedy.num_colors >= exact.num_colors,
            "k = {k}: the exchange pass never costs colors"
        );
        // The pass announces itself in the ledger.
        assert!(exact
            .ledger
            .charges()
            .iter()
            .any(|c| c.label.starts_with("exact-alpha stitch")));
        assert!(greedy
            .ledger
            .charges()
            .iter()
            .all(|c| !c.label.starts_with("exact-alpha stitch")));
        // Deterministic like every other facade path.
        let again = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .with_seed(13)
                .with_stitch_policy(StitchPolicy::ExactAlpha),
        )
        .run_sharded(&frozen, k)
        .unwrap();
        assert_eq!(exact.canonical_bytes(), again.canonical_bytes());
    }
}

/// The exact-α pass composes with locality reordering and stays within the
/// caller's α bound on non-grid workloads too (it may not always reach α,
/// but it never exceeds the greedy result and never invalidates).
#[test]
fn exact_alpha_stitch_composes_with_reordering() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(29);
    let alpha = 3usize;
    let g = generators::planted_forest_union(800, alpha, &mut rng);
    let frozen = FrozenGraph::freeze(g);
    let base = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_alpha(alpha)
        .with_seed(21)
        .with_shard_reorder(ReorderKind::Rcm);
    let greedy = Decomposer::new(base.clone())
        .run_sharded(&frozen, 4)
        .unwrap();
    let exact = Decomposer::new(base.with_stitch_policy(StitchPolicy::ExactAlpha))
        .run_sharded(&frozen, 4)
        .unwrap();
    exact.validate(frozen.graph()).unwrap();
    assert!(exact.num_colors <= greedy.num_colors);
    assert_eq!(exact.num_colors, alpha, "planted α is reachable");
}

/// Zero shards is a typed facade error on both sharded front doors (the
/// out-of-core driver checks before it opens the file), while the low-level
/// splitter keeps its documented clamp (covered in `forest_graph`'s
/// partition tests).
#[test]
fn zero_shards_is_a_typed_error() {
    let g = generators::path(8);
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest).with_engine(Engine::ExactMatroid),
    );
    assert!(matches!(
        decomposer.run_sharded(&g, 0),
        Err(FdError::InvalidShardCount { requested: 0 })
    ));
    assert!(matches!(
        decomposer.run_out_of_core(
            "/definitely/not/a/file.csr",
            &OocConfig::with_budget(1024).num_shards(0)
        ),
        Err(FdError::InvalidShardCount { requested: 0 })
    ));
}
