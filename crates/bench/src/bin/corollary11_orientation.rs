//! Regenerates Corollary 1.1: (1+eps)alpha-orientations with linear 1/eps
//! dependence, compared against the exact flow orientation (alpha*) and the
//! Barenboim-Elkin baseline — both LOCAL rows driven through the `Decomposer`.

use bench::{multigraph_suite, TextTable};
use forest_decomp::api::{Artifact, Decomposer, DecompositionRequest, Engine, ProblemKind};
use forest_graph::{matroid, orientation, CsrGraph};

fn orientation_row(report: &forest_decomp::DecompositionReport) -> (usize, usize) {
    let Artifact::Orientation { max_out_degree, .. } = &report.artifact else {
        panic!("orientation requests produce orientation artifacts");
    };
    (*max_out_degree, report.ledger.total_rounds())
}

fn main() {
    let epsilon = 0.5;
    let mut table = TextTable::new(&[
        "workload",
        "alpha",
        "alpha*",
        "method",
        "max out-degree",
        "rounds",
    ]);
    for workload in multigraph_suite(17) {
        let g = &workload.graph;
        // One freeze per workload; both LOCAL rows run via `GraphInput`.
        let frozen = CsrGraph::from_multigraph(g);
        let alpha = matroid::arboricity(g);
        let alpha_star = orientation::pseudoarboricity(g);

        // Exact (centralized) minimum orientation.
        let (exact, opt) = orientation::min_max_outdegree_orientation(g);
        table.row(vec![
            workload.name.clone(),
            alpha.to_string(),
            alpha_star.to_string(),
            "exact flow (centralized)".into(),
            opt.to_string(),
            "-".into(),
        ]);
        assert_eq!(exact.max_out_degree(g), opt);

        // Barenboim-Elkin baseline: the (2+eps)a*-FD with each tree oriented
        // toward its root (the facade's BE orientation path; the pre-facade
        // bin measured the raw H-partition acyclic orientation instead).
        let be = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Orientation)
                .with_engine(Engine::BarenboimElkin)
                .with_epsilon(epsilon)
                .with_alpha(alpha_star)
                .with_seed(23),
        )
        .run(&frozen)
        .unwrap();
        let (be_deg, be_rounds) = orientation_row(&be);
        table.row(vec![
            workload.name.clone(),
            alpha.to_string(),
            alpha_star.to_string(),
            "BE10 FD + root orientation (2+eps)a*".into(),
            be_deg.to_string(),
            be_rounds.to_string(),
        ]);

        // Corollary 1.1: orientation from the (1+eps)alpha-FD.
        let result = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Orientation)
                .with_epsilon(epsilon)
                .with_alpha(workload.alpha_bound)
                .with_seed(23),
        )
        .run(&frozen)
        .unwrap();
        let (hsv_deg, hsv_rounds) = orientation_row(&result);
        table.row(vec![
            workload.name.clone(),
            alpha.to_string(),
            alpha_star.to_string(),
            "Cor 1.1 (1+eps)a".into(),
            hsv_deg.to_string(),
            hsv_rounds.to_string(),
        ]);
    }
    println!("Corollary 1.1 (measured): low out-degree orientations, eps = {epsilon}");
    println!("{}", table.render());
}
