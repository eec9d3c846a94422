//! End-to-end pipeline tests across epsilon values, list palettes, diameter
//! targets, CUT strategies and the star-forest algorithms — the configurations
//! reported in Table 1 and Theorem 5.4 — all driven through the `Decomposer`
//! facade.

use forest_decomp::api::{Decomposer, DecompositionRequest, PaletteSpec, ProblemKind, Validate};
use forest_decomp::{CutStrategyKind, DiameterTarget, FdError};
use forest_graph::decomposition::{
    validate_forest_decomposition, validate_list_coloring, validate_star_forest_decomposition,
};
use forest_graph::{generators, matroid, ListAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn forest_decomposition_across_epsilons() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = generators::planted_forest_union(100, 5, &mut rng);
    let alpha = matroid::arboricity(&g);
    for (i, epsilon) in [0.6, 0.4, 0.2].into_iter().enumerate() {
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_epsilon(epsilon)
                .with_alpha(alpha)
                .with_seed(i as u64),
        )
        .run(&g)
        .unwrap();
        report.validate(&g).unwrap();
        let budget = ((1.0 + epsilon) * alpha as f64).ceil() as usize;
        assert!(
            report.num_colors <= budget + ((epsilon * alpha as f64).ceil() as usize).max(2) + 3,
            "eps {epsilon}: {} colors vs budget {budget}",
            report.num_colors
        );
    }
}

#[test]
fn diameter_targets_are_respected() {
    let g = generators::fat_path(150, 4);
    for (target, bound_fn) in [
        (
            DiameterTarget::OneOverEpsilon,
            (|eps: f64| (2.0 * (2.0 / eps).ceil()) as usize) as fn(f64) -> usize,
        ),
        (DiameterTarget::LogOverEpsilon, |eps: f64| {
            (2.0 * ((150f64).ln().ceil() / eps).ceil()) as usize + 2
        }),
    ] {
        for epsilon in [0.5, 0.25] {
            let report = Decomposer::new(
                DecompositionRequest::new(ProblemKind::Forest)
                    .with_epsilon(epsilon)
                    .with_alpha(4)
                    .with_diameter_target(target)
                    .with_seed(2),
            )
            .run(&g)
            .unwrap();
            report.validate(&g).unwrap();
            assert!(
                report.max_diameter <= bound_fn(epsilon),
                "target {target:?}, eps {epsilon}: diameter {} above bound {}",
                report.max_diameter,
                bound_fn(epsilon)
            );
        }
    }
}

#[test]
fn conditioned_sampling_cut_pipeline() {
    let g = generators::fat_path(80, 3);
    let report = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_epsilon(0.5)
            .with_alpha(3)
            .with_cut(CutStrategyKind::ConditionedSampling)
            .with_radii(10, 5)
            .with_seed(3),
    )
    .run(&g)
    .unwrap();
    report.validate(&g).unwrap();
}

#[test]
fn list_forest_decomposition_with_tight_and_loose_palettes() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::planted_forest_union(70, 3, &mut rng);
    let alpha = matroid::arboricity(&g);
    for palette in [2 * (alpha + 1), 3 * (alpha + 1)] {
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::ListForest)
                .with_epsilon(0.5)
                .with_alpha(alpha)
                .with_palettes(PaletteSpec::Random {
                    space: 2 * palette,
                    size: palette,
                })
                .with_seed(palette as u64),
        )
        .run(&g)
        .unwrap();
        let fd = report.artifact.decomposition().unwrap();
        validate_forest_decomposition(&g, fd, Some(report.num_colors)).unwrap();
        let lists = report
            .lists
            .as_ref()
            .expect("list runs keep their palettes");
        validate_list_coloring(&g, &fd.to_partial(), lists).unwrap();
    }
}

#[test]
fn star_forest_pipelines_on_simple_graphs() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::planted_simple_arboricity(120, 6, &mut rng);
    let alpha = matroid::arboricity(g.graph());
    let sfd = Decomposer::new(
        DecompositionRequest::new(ProblemKind::StarForest)
            .with_epsilon(0.3)
            .with_alpha(alpha)
            .with_seed(5),
    )
    .run(g.graph())
    .unwrap();
    sfd.validate(g.graph()).unwrap();
    // alpha + O(sqrt(log Delta) + log alpha) primary colors plus the O(eps alpha)
    // leftover recoloring: allow a generous constant-factor envelope here (the
    // Corollary 1.2 and Theorem 5.4 rows of `bench::CLAIMS` print the
    // precise comparison).
    assert!(
        sfd.num_colors <= 3 * alpha + 4,
        "colors = {}",
        sfd.num_colors
    );

    let delta = g.graph().max_degree() as f64;
    let palette = alpha + 2 * (delta.log2().ceil() as usize) + 4;
    let lsfd = Decomposer::new(
        DecompositionRequest::new(ProblemKind::ListStarForest)
            .with_epsilon(0.3)
            .with_alpha(alpha)
            .with_palettes(PaletteSpec::Random {
                space: 2 * palette,
                size: palette,
            })
            .with_seed(6),
    )
    .run(g.graph())
    .unwrap();
    let stars = lsfd.artifact.decomposition().unwrap();
    validate_star_forest_decomposition(g.graph(), stars, None).unwrap();
    let lists = lsfd.lists.as_ref().expect("list runs keep their palettes");
    validate_list_coloring(g.graph(), &stars.to_partial(), lists).unwrap();
}

#[test]
fn disconnected_graphs_are_handled() {
    // Two components with different densities.
    let mut g = generators::complete_graph(8);
    let offset = g.num_vertices();
    for _ in 0..20 {
        g.add_vertex();
    }
    for i in 0..19usize {
        g.add_edge(
            forest_graph::VertexId::new(offset + i),
            forest_graph::VertexId::new(offset + i + 1),
        )
        .unwrap();
    }
    let alpha = matroid::arboricity(&g);
    let report = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_epsilon(0.5)
            .with_alpha(alpha)
            .with_seed(6),
    )
    .run(&g)
    .unwrap();
    report.validate(&g).unwrap();
}

#[test]
fn errors_are_reported_not_panicked() {
    let g = generators::fat_path(10, 3);
    // Epsilon out of range.
    assert!(matches!(
        Decomposer::new(DecompositionRequest::new(ProblemKind::Forest).with_epsilon(0.0)).run(&g),
        Err(FdError::InvalidEpsilon { .. })
    ));
    // Palettes below (1+eps) alpha.
    assert!(matches!(
        Decomposer::new(
            DecompositionRequest::new(ProblemKind::ListForest)
                .with_epsilon(0.5)
                .with_alpha(3)
                .with_palettes(PaletteSpec::Explicit(ListAssignment::uniform(
                    g.num_edges(),
                    2
                )))
        )
        .run(&g),
        Err(FdError::PaletteTooSmall { .. })
    ));
}
