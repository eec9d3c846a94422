//! Cross-crate integration tests: the substrate crates (`forest-graph`,
//! `local-model`) and the algorithm crate (`forest-decomp`) working together
//! on several graph families, cross-validated against the exact centralized
//! baselines — all pipeline-level calls go through the `Decomposer` facade.

use bench::{families, Workload};
use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind};
use forest_graph::decomposition::validate_forest_decomposition;
use forest_graph::{generators, matroid, orientation, ForestDecomposition};
use local_model::RoundLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Exact centralized decomposition through the facade.
fn exact_fd(g: &forest_graph::MultiGraph) -> (ForestDecomposition, usize) {
    let report = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest).with_engine(Engine::ExactMatroid),
    )
    .run(g)
    .expect("exact matroid engine never fails");
    let fd = report
        .artifact
        .decomposition()
        .expect("forest requests produce decompositions")
        .clone();
    (fd, report.arboricity)
}

#[test]
fn exact_baseline_matches_nash_williams_lower_bound() {
    for Workload {
        name,
        graph: g,
        alpha_bound: bound,
    } in families(1)
    {
        let (fd, alpha) = exact_fd(&g);
        assert!(
            alpha <= bound,
            "{name}: alpha {alpha} above planted bound {bound}"
        );
        assert!(
            alpha >= matroid::arboricity_lower_bound(&g),
            "{name}: below whole-graph density bound"
        );
        assert!(
            alpha >= orientation::pseudoarboricity(&g),
            "{name}: alpha < alpha*"
        );
        validate_forest_decomposition(&g, &fd, Some(alpha)).unwrap();
    }
}

// The next four tests run one claim of `bench::CLAIMS` on the families
// alone; the bounds live in the claim, which `paper_claims` also prints.

#[test]
fn pipeline_beats_barenboim_elkin_on_colors() {
    // Table 1 at facade seed 3: Barenboim–Elkin within ⌊(2+ε)α*⌋ forests,
    // the paper's pipeline within ⌈(1+ε)α⌉ for the family's arboricity
    // bound α, every report validated.
    bench::table1(vec![(families(2), 3)]);
}

#[test]
fn corollary_1_1_orientation_from_every_family() {
    // The exact matroid decomposition oriented toward its roots has
    // out-degree at most α.
    bench::corollary_1_1(Vec::new(), families(3));
}

#[test]
fn theorem_2_1_star_forests_on_every_family() {
    // At ε = 0.5: the degree property, an acyclic orientation of
    // out-degree at most t, a validated 3t-SFD and the t-LFD.
    bench::theorem_2_1(vec![(families(4), &[0.5])]);
}

#[test]
fn folklore_two_alpha_star_bound_holds_everywhere() {
    // The folklore construction: a validated decomposition into at most
    // 2α star forests.
    bench::corollary_1_2(Vec::new(), families(5));
}

#[test]
fn network_decomposition_feeds_algorithm2_clusters() {
    // The local-model network decomposition must satisfy the properties
    // Algorithm 2 relies on, on the same workloads the pipeline uses.
    for Workload { name, graph: g, .. } in families(6) {
        let mut ledger = RoundLedger::new();
        let nd = local_model::network_decomposition(&g, 1, &mut ledger);
        assert!(nd.classes_separate_clusters(&g), "{name}");
        let n = g.num_vertices();
        let log2n = (usize::BITS - (n - 1).leading_zeros()) as usize;
        assert!(
            nd.num_classes <= log2n + 1,
            "{name}: {} classes",
            nd.num_classes
        );
        assert!(nd.max_weak_diameter(&g) <= 2 * log2n + 2, "{name}");
    }
}

#[test]
fn deterministic_under_fixed_seed() {
    let g = generators::planted_forest_union(60, 3, &mut StdRng::seed_from_u64(1));
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_seed(77),
    );
    let a = decomposer.run(&g).unwrap();
    let b = decomposer.run(&g).unwrap();
    assert_eq!(a.num_colors, b.num_colors);
    assert_eq!(a.max_diameter, b.max_diameter);
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    let (fd_a, fd_b) = (
        a.artifact.decomposition().unwrap(),
        b.artifact.decomposition().unwrap(),
    );
    for e in g.edge_ids() {
        assert_eq!(fd_a.color(e), fd_b.color(e));
    }
}
