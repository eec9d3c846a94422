//! Regenerates the Theorem 5.4 measurement: star-forest decomposition of
//! simple graphs with excess colors O(sqrt(log Delta) + log alpha), and the
//! list variant with excess O(log Delta); reports matching quality, leftover
//! sizes and the charged LLL round cost across the alpha regimes. Both
//! variants run through the `Decomposer` facade.

use bench::{simple_suite, TextTable};
use forest_decomp::api::{Decomposer, DecompositionRequest, PaletteSpec, ProblemKind};

use forest_graph::{matroid, CsrGraph};

fn main() {
    let mut table = TextTable::new(&[
        "workload",
        "variant",
        "eps",
        "alpha",
        "sqrt(logD)+log(a)",
        "colors",
        "excess",
        "leftover",
        "LLL charge",
        "rounds",
    ]);
    for (name, g, bound) in simple_suite(7) {
        let graph = g.graph();
        // One freeze per workload, shared by the whole eps sweep below via
        // the facade's `GraphInput` frozen path.
        let frozen = CsrGraph::from_multigraph(graph);
        let alpha = matroid::arboricity(graph);
        let delta = graph.max_degree() as f64;
        let reference = delta.log2().sqrt() + (alpha as f64).log2().max(0.0);
        for epsilon in [0.5f64, 0.25] {
            let sfd = Decomposer::new(
                DecompositionRequest::new(ProblemKind::StarForest)
                    .with_epsilon(epsilon)
                    .with_alpha(bound)
                    .with_seed(19),
            )
            .run(&frozen)
            .unwrap();
            let lll_charge = sfd.ledger.rounds_for(|label| label.contains("LLL"));
            table.row(vec![
                name.clone(),
                "SFD".into(),
                format!("{epsilon}"),
                alpha.to_string(),
                format!("{reference:.1}"),
                sfd.num_colors.to_string(),
                format!("{:+}", sfd.num_colors as i64 - alpha as i64),
                sfd.leftover_edges.to_string(),
                lll_charge.to_string(),
                sfd.ledger.total_rounds().to_string(),
            ]);
            // List variant with palettes of size alpha + O(log Delta).
            let palette = alpha + 2 * (delta.log2().ceil() as usize) + 4;
            let lsfd = Decomposer::new(
                DecompositionRequest::new(ProblemKind::ListStarForest)
                    .with_epsilon(epsilon)
                    .with_alpha(bound)
                    .with_palettes(PaletteSpec::Random {
                        space: 2 * palette,
                        size: palette,
                    })
                    .with_seed(19),
            )
            .run(&frozen);
            match lsfd {
                Ok(report) => {
                    let lll_charge = report.ledger.rounds_for(|label| label.contains("LLL"));
                    table.row(vec![
                        name.clone(),
                        "LSFD".into(),
                        format!("{epsilon}"),
                        alpha.to_string(),
                        format!("{reference:.1}"),
                        report.num_colors.to_string(),
                        format!("{:+}", report.num_colors as i64 - alpha as i64),
                        report.leftover_edges.to_string(),
                        lll_charge.to_string(),
                        report.ledger.total_rounds().to_string(),
                    ]);
                }
                Err(err) => {
                    table.row(vec![
                        name.clone(),
                        "LSFD".into(),
                        format!("{epsilon}"),
                        alpha.to_string(),
                        format!("{reference:.1}"),
                        format!("failed: {err}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    println!("Theorem 5.4 (measured): star-forest decompositions of simple graphs");
    println!("{}", table.render());
}
