//! Cross-crate integration tests: the substrate crates (`forest-graph`,
//! `local-model`) and the algorithm crate (`forest-decomp`) working together
//! on several graph families, cross-validated against the exact centralized
//! baselines — all pipeline-level calls go through the `Decomposer` facade.

use forest_decomp::api::{
    Artifact, Decomposer, DecompositionRequest, Engine, ProblemKind, Validate,
};
use forest_decomp::hpartition::{acyclic_orientation, h_partition, star_forest_decomposition};
use forest_graph::decomposition::{
    validate_forest_decomposition, validate_star_forest_decomposition,
};
use forest_graph::{generators, matroid, orientation, ForestDecomposition};
use local_model::RoundLedger;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn families(seed: u64) -> Vec<(String, forest_graph::MultiGraph, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            "planted-3".into(),
            generators::planted_forest_union(80, 3, &mut rng),
            3,
        ),
        ("fat-path-4".into(), generators::fat_path(60, 4), 4),
        ("grid-10x10".into(), generators::grid(10, 10), 2),
        ("hypercube-6".into(), generators::hypercube(6), 4),
        ("clique-14".into(), generators::complete_graph(14), 7),
    ]
}

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
    for (name, g, bound) in families(1) {
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

#[test]
fn pipeline_beats_barenboim_elkin_on_colors() {
    // The whole point of the paper: fewer forests than the (2+eps) baseline
    // whenever alpha is not tiny.
    for (name, g, bound) in families(2) {
        let alpha = matroid::arboricity(&g);
        let alpha_star = orientation::pseudoarboricity(&g);
        let result = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_epsilon(0.5)
                .with_alpha(bound)
                .with_seed(3),
        )
        .run(&g)
        .unwrap();
        result.validate(&g).unwrap();
        let baseline = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::BarenboimElkin)
                .with_epsilon(0.5)
                .with_alpha(alpha_star)
                .with_seed(3),
        )
        .run(&g)
        .unwrap();
        // The BE color budget is floor((2+eps) alpha*).
        let budget = (2.5 * alpha_star as f64).floor() as usize;
        assert!(
            baseline.num_colors <= budget,
            "{name}: baseline used {} colors vs budget {budget}",
            baseline.num_colors
        );
        assert!(
            result.num_colors <= budget.max(alpha + 2),
            "{name}: pipeline used {} colors vs baseline budget {}",
            result.num_colors,
            budget
        );
        if alpha >= 4 {
            assert!(
                result.num_colors < 2 * alpha,
                "{name}: expected fewer than 2*alpha = {} forests, got {}",
                2 * alpha,
                result.num_colors
            );
        }
    }
}

#[test]
fn corollary_1_1_orientation_from_every_family() {
    for (name, g, _) in families(3) {
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Orientation).with_engine(Engine::ExactMatroid),
        )
        .run(&g)
        .unwrap();
        let Artifact::Orientation { max_out_degree, .. } = &report.artifact else {
            panic!("{name}: orientation request must produce an orientation");
        };
        assert!(
            *max_out_degree <= report.arboricity,
            "{name}: out-degree above alpha"
        );
    }
}

#[test]
fn theorem_2_1_star_forests_on_every_family() {
    for (name, g, _) in families(4) {
        let alpha_star = orientation::pseudoarboricity(&g).max(1);
        let mut ledger = RoundLedger::new();
        let hp = h_partition(&g, 0.5, alpha_star, &mut ledger).unwrap();
        assert!(hp.satisfies_degree_property(&g), "{name}");
        let o = acyclic_orientation(&g, &hp);
        assert!(o.is_acyclic(&g), "{name}");
        let sfd = star_forest_decomposition(&g, &o, &mut ledger);
        validate_star_forest_decomposition(&g, &sfd, Some(3 * hp.degree_threshold))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn folklore_two_alpha_star_bound_holds_everywhere() {
    for (name, g, _) in families(5) {
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::StarForest).with_engine(Engine::Folklore2Alpha),
        )
        .run(&g)
        .unwrap();
        let stars = report.artifact.decomposition().unwrap();
        validate_star_forest_decomposition(&g, stars, Some(2 * report.arboricity))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn network_decomposition_feeds_algorithm2_clusters() {
    // The local-model network decomposition must satisfy the properties
    // Algorithm 2 relies on, on the same workloads the pipeline uses.
    for (name, g, _) in families(6) {
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
