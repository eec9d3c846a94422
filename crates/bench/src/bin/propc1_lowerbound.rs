//! Regenerates the Proposition C.1 lower bound: on the fat-path multigraph,
//! any alpha(1+eps)-forest decomposition has a tree of diameter Omega(1/eps).
//! We sweep eps, run the bounded-diameter pipeline through the `Decomposer`,
//! and print the achieved diameter next to the theoretical 1/eps scale.

use bench::TextTable;
use forest_decomp::api::{Decomposer, DecompositionRequest, ProblemKind};
use forest_decomp::DiameterTarget;
use forest_graph::{generators, CsrGraph};

fn main() {
    let multiplicity = 4usize;
    // Freeze the fat path once for the whole eps sweep (the facade's
    // `GraphInput` frozen path; one CSR conversion instead of four).
    let frozen = CsrGraph::from_multigraph(&generators::fat_path(400, multiplicity));
    let mut table = TextTable::new(&[
        "eps",
        "colors used",
        "color budget (1+eps)alpha",
        "measured diameter",
        "1/(4 eps)",
    ]);
    for epsilon in [0.5f64, 0.25, 0.125, 0.0625] {
        let report = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_epsilon(epsilon)
                .with_alpha(multiplicity)
                .with_diameter_target(DiameterTarget::OneOverEpsilon)
                .with_seed(12345),
        )
        .run(&frozen)
        .unwrap();
        let budget = ((1.0 + epsilon) * multiplicity as f64).ceil() as usize;
        table.row(vec![
            format!("{epsilon}"),
            report.num_colors.to_string(),
            budget.to_string(),
            report.max_diameter.to_string(),
            format!("{:.1}", 1.0 / (4.0 * epsilon)),
        ]);
    }
    println!(
        "Proposition C.1 (measured): forest diameter vs eps on the fat path (alpha = {multiplicity})"
    );
    println!("(the measured diameter must sit at or above the Omega(1/eps) lower bound whenever");
    println!(" the color count stays near (1+eps)alpha)");
    println!("{}", table.render());
}
