//! Regenerates Corollary 1.2: star-arboricity bounds. For simple graphs the
//! paper shows alpha_star <= alpha + O(sqrt(log Delta) + log alpha) and
//! alpha_liststar <= alpha + O(log Delta); the folklore bounds are
//! alpha_star <= 2 alpha and alpha_liststar <= 4 alpha - 2. All three
//! constructions run through the `Decomposer` facade.

use bench::{simple_suite, TextTable};
use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, PaletteSpec, ProblemKind};
use forest_graph::{matroid, CsrGraph};

fn main() {
    let epsilon = 0.25;
    let mut table = TextTable::new(&[
        "workload",
        "alpha",
        "Delta",
        "method",
        "star forests",
        "excess over alpha",
    ]);
    for (name, g, bound) in simple_suite(99) {
        let graph = g.graph();
        // One freeze per workload; all three constructions share it through
        // the facade's `GraphInput` frozen path.
        let frozen = CsrGraph::from_multigraph(graph);
        let alpha = matroid::arboricity(graph);
        let delta = graph.max_degree();
        let mut row = |method: String, colors: String, excess: String| {
            table.row(vec![
                name.clone(),
                alpha.to_string(),
                delta.to_string(),
                method,
                colors,
                excess,
            ]);
        };

        // Folklore 2-alpha baseline.
        let naive = Decomposer::new(
            DecompositionRequest::new(ProblemKind::StarForest)
                .with_engine(Engine::Folklore2Alpha)
                .with_seed(31),
        )
        .run(&frozen)
        .unwrap();
        row(
            "2-coloring of exact FD (<= 2 alpha)".into(),
            naive.num_colors.to_string(),
            format!("{:+}", naive.num_colors as i64 - alpha as i64),
        );

        // Section 5 SFD: alpha + O(sqrt(log Delta) + log alpha).
        let sfd = Decomposer::new(
            DecompositionRequest::new(ProblemKind::StarForest)
                .with_epsilon(epsilon)
                .with_alpha(bound)
                .with_seed(31),
        )
        .run(&frozen)
        .unwrap();
        row(
            "Thm 5.4(1) SFD".into(),
            sfd.num_colors.to_string(),
            format!("{:+}", sfd.num_colors as i64 - alpha as i64),
        );

        // Section 5 LSFD with palettes of size about alpha + O(log Delta).
        let palette = alpha + 2 * ((delta as f64).log2().ceil() as usize) + 4;
        let lsfd = Decomposer::new(
            DecompositionRequest::new(ProblemKind::ListStarForest)
                .with_epsilon(epsilon)
                .with_alpha(bound)
                .with_palettes(PaletteSpec::Random {
                    space: 2 * palette,
                    size: palette,
                })
                .with_seed(31),
        )
        .run(&frozen);
        match lsfd {
            Ok(report) => row(
                format!("Thm 5.4(2) LSFD (palette {palette})"),
                report.num_colors.to_string(),
                format!("{:+}", report.num_colors as i64 - alpha as i64),
            ),
            Err(err) => row(
                format!("Thm 5.4(2) LSFD (palette {palette})"),
                format!("failed: {err}"),
                "-".into(),
            ),
        }
    }
    println!("Corollary 1.2 (measured): star-arboricity constructions, eps = {epsilon}");
    println!("{}", table.render());
}
