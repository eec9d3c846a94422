//! Regenerates Table 1 of the paper: the trade-off matrix between excess
//! colors, list support, measured LOCAL rounds and forest diameter for the
//! `(1+eps)alpha`-FD / LFD algorithms, next to the Barenboim-Elkin baseline —
//! every row produced by the same `Decomposer` request shape.

use bench::{multigraph_suite, TextTable};
use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, PaletteSpec, ProblemKind};
use forest_decomp::DiameterTarget;
use forest_graph::{matroid, orientation, CsrGraph};

fn main() {
    let epsilon = 0.5;
    let mut table = TextTable::new(&[
        "workload",
        "algorithm",
        "lists",
        "alpha",
        "colors",
        "excess",
        "rounds",
        "diameter",
    ]);
    for workload in multigraph_suite(42) {
        let g = &workload.graph;
        // Freeze once per workload: all four rows below run through the
        // facade's `GraphInput` frozen path, sharing one CSR conversion.
        let frozen = CsrGraph::from_multigraph(g);
        let alpha = matroid::arboricity(g);
        let alpha_star = orientation::pseudoarboricity(g);
        let mut row = |label: &str, lists: &str, report: &forest_decomp::DecompositionReport| {
            table.row(vec![
                workload.name.clone(),
                label.into(),
                lists.into(),
                alpha.to_string(),
                report.num_colors.to_string(),
                format!("{:+}", report.num_colors as i64 - alpha as i64),
                report.ledger.total_rounds().to_string(),
                report.max_diameter.to_string(),
            ]);
        };

        // Baseline: Barenboim-Elkin (2+eps)alpha*-FD.
        let baseline = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::BarenboimElkin)
                .with_epsilon(epsilon)
                .with_alpha(alpha_star)
                .with_seed(7),
        )
        .run(&frozen)
        .unwrap();
        row("BE10 (2+eps)a*-FD", "no", &baseline);

        // Theorem 4.6: (1+eps)alpha-FD (unbounded diameter row of Table 1).
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_epsilon(epsilon)
            .with_alpha(workload.alpha_bound)
            .with_seed(7);
        let fd = Decomposer::new(request.clone()).run(&frozen).unwrap();
        row("Thm 4.6 (1+eps)a-FD", "no", &fd);

        // Theorem 4.6 + Corollary 2.5: bounded diameter O(1/eps).
        let fd = Decomposer::new(
            request
                .clone()
                .with_diameter_target(DiameterTarget::OneOverEpsilon),
        )
        .run(&frozen)
        .unwrap();
        row("Thm 4.6 + diam O(1/eps)", "no", &fd);

        // Theorem 4.10: list version with palettes of size 2(alpha+1).
        let lfd = Decomposer::new(
            DecompositionRequest::new(ProblemKind::ListForest)
                .with_epsilon(epsilon)
                .with_alpha(alpha)
                .with_palettes(PaletteSpec::Uniform {
                    colors: 2 * (alpha + 1),
                })
                .with_seed(7),
        )
        .run(&frozen)
        .unwrap();
        row("Thm 4.10 (1+eps)a-LFD", "yes", &lfd);
    }
    println!("Table 1 (measured): (1+eps)alpha forest decomposition trade-offs, eps = {epsilon}");
    println!("{}", table.render());
    println!("CSV:\n{}", table.render_csv());
}
