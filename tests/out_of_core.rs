//! Property-based coverage of the out-of-core pipeline: the external-sort
//! CSR builder must be byte-identical to freezing through a `MultiGraph`,
//! and `run_out_of_core` must reproduce the in-memory sharded run's
//! canonical report bytes, across arbitrary edge sets, shard counts and
//! memory budgets.

use forest_decomp::api::oocore::OocConfig;
use forest_decomp::api::{Decomposer, DecompositionRequest, Engine, ProblemKind, StitchPolicy};
use forest_graph::extsort::{
    build_csr_from_edge_file, write_binary_edge_file, EdgeListFormat, ExtsortConfig,
};
use forest_graph::{matroid, CsrGraph, MultiGraph, VertexId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nw-ooc-prop-{tag}-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Strategy: an arbitrary self-loop-free edge list over up to `max_n`
/// vertices — the file order is the edge-id order, so shuffled input order
/// is covered by construction.
fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n, 0..max_m).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0..n, 0..n), m).prop_map(move |pairs| {
            (
                n,
                pairs
                    .into_iter()
                    .filter(|(u, v)| u != v)
                    .collect::<Vec<_>>(),
            )
        })
    })
}

fn multigraph_of(n: u32, edges: &[(u32, u32)]) -> MultiGraph {
    let mut g = MultiGraph::new(n as usize);
    for &(u, v) in edges {
        g.add_edge(VertexId::new(u as usize), VertexId::new(v as usize))
            .unwrap();
    }
    g
}

/// The full out-of-core pipeline end to end — raw edge file, external-sort
/// CSR build, bounded-memory sharded decomposition — on a graph 8× larger
/// than the memory ceiling, with the ceiling asserted via the driver's own
/// resident-bytes accounting. CI runs this as the out-of-core smoke step.
#[test]
fn edge_file_to_csr_to_out_of_core_smoke() {
    use forest_graph::generators;

    // A banded graph: contiguous-id shards cut only O(k) edges, the
    // locality regime the out-of-core walk is designed for.
    let g = generators::fat_path(2000, 4);
    let edge_file = temp_path("smoke.edges");
    let csr_file = temp_path("smoke.csr");
    write_binary_edge_file(
        &edge_file,
        g.edges()
            .map(|(_, u, v)| (u.index() as u32, v.index() as u32)),
    )
    .unwrap();
    // The sort buffer gets a fraction of the output size, forcing spills.
    let build = build_csr_from_edge_file(
        &edge_file,
        EdgeListFormat::BinaryU32,
        &csr_file,
        &ExtsortConfig::with_budget(16 << 10),
    )
    .unwrap();
    assert!(build.spilled_runs >= 2, "budget must force spilled runs");
    let file_bytes = std::fs::metadata(&csr_file).unwrap().len() as usize;
    let budget = file_bytes / 8;
    let decomposer = Decomposer::new(
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::HarrisSuVu)
            .with_alpha(4)
            .with_seed(9),
    );
    let ooc = decomposer
        .run_out_of_core(&csr_file, &OocConfig::with_budget(budget))
        .unwrap();
    assert!(ooc.stats.num_shards > 1, "budget must force sharding");
    assert!(
        ooc.stats.peak_resident_bytes <= budget,
        "peak resident {} exceeds budget {budget}",
        ooc.stats.peak_resident_bytes
    );
    // Same decomposition as the in-memory sharded run at the derived k.
    let sharded = decomposer.run_sharded(&g, ooc.stats.num_shards).unwrap();
    assert_eq!(ooc.report.canonical_bytes(), sharded.canonical_bytes());
    for p in [&edge_file, &csr_file] {
        let _ = std::fs::remove_file(p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// External-sorting a shuffled edge file yields the exact bytes of
    /// `CsrGraph::from_multigraph(...).save(...)`, for any input and any
    /// memory budget (tiny budgets force multi-run spills).
    #[test]
    fn extsort_build_is_byte_identical_to_multigraph_save(
        input in (arb_edges(24, 70), 0usize..3)
    ) {
        let ((n, edges), budget_pick) = input;
        // Tiny budgets force multi-run spills; the large one stays in memory.
        let budget = [1usize, 256, 1 << 20][budget_pick];
        let edge_file = temp_path("edges");
        let sorted_csr = temp_path("sorted.csr");
        let frozen_csr = temp_path("frozen.csr");
        write_binary_edge_file(&edge_file, edges.iter().copied()).unwrap();
        let config = ExtsortConfig::with_budget(budget).num_vertices(n as usize);
        let stats = build_csr_from_edge_file(
            &edge_file,
            EdgeListFormat::BinaryU32,
            &sorted_csr,
            &config,
        )
        .unwrap();
        let g = multigraph_of(n, &edges);
        CsrGraph::from_multigraph(&g).save(&frozen_csr).unwrap();
        let sorted_bytes = std::fs::read(&sorted_csr).unwrap();
        let frozen_bytes = std::fs::read(&frozen_csr).unwrap();
        for p in [&edge_file, &sorted_csr, &frozen_csr] {
            let _ = std::fs::remove_file(p);
        }
        prop_assert_eq!(sorted_bytes, frozen_bytes);
        prop_assert_eq!(stats.num_vertices, n as usize);
        prop_assert_eq!(stats.num_edges, edges.len());
        // The one-pass watermark is the Nash-Williams density floor.
        prop_assert_eq!(stats.nash_williams_watermark, matroid::arboricity_lower_bound(&g));
    }

    /// An out-of-core run over the saved CSR reproduces the in-memory
    /// sharded run byte-for-byte, for any graph, shard count, engine and
    /// stitch policy: both drivers share one stitch and one report tail.
    #[test]
    fn out_of_core_canonical_bytes_match_run_sharded(
        input in (arb_edges(20, 50), 1usize..6, 0u64..500, 0usize..4)
    ) {
        let ((n, edges), num_shards, seed, pick) = input;
        let g = multigraph_of(n, &edges);
        let alpha = matroid::arboricity(&g).max(1);
        let csr_file = temp_path("parity.csr");
        CsrGraph::from_multigraph(&g).save(&csr_file).unwrap();
        let engine = [Engine::HarrisSuVu, Engine::ExactMatroid][pick % 2];
        let stitch = [StitchPolicy::Greedy, StitchPolicy::ExactAlpha][pick / 2];
        let decomposer = Decomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(engine)
                .with_alpha(alpha)
                .with_seed(seed)
                .with_stitch_policy(stitch),
        );
        let sharded = decomposer.run_sharded(&g, num_shards).unwrap();
        let ooc = decomposer
            .run_out_of_core(
                &csr_file,
                &OocConfig::with_budget(1 << 22).num_shards(num_shards),
            )
            .unwrap();
        let _ = std::fs::remove_file(&csr_file);
        prop_assert_eq!(ooc.report.canonical_bytes(), sharded.canonical_bytes());
        // Both drivers cut with one `ShardPlan`, which clamps k to the
        // vertex count.
        prop_assert!(ooc.stats.num_shards >= 1 && ooc.stats.num_shards <= num_shards);
    }
}
