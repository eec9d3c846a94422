//! Contract tests for the dynamic subsystem: per-color Euler-tour
//! connectivity agrees with a from-scratch per-color union-find under
//! arbitrary interleavings of inserts, exchanges and deletes, the streaming
//! [`DynamicDecomposer`] keeps a valid forest coloring alive through churn,
//! and its `snapshot()` is byte-identical to a cold [`Decomposer::run`] on
//! the same final graph — including after a 10k-update stream. Goldens pin
//! the live coloring itself.

use forest_decomp::api::{
    Decomposer, DecompositionRequest, DynamicDecomposer, EdgeUpdate, Engine, ProblemKind,
    UpdatePath, Validate,
};
use forest_decomp::FdError;
use forest_graph::decomposition::PartialEdgeColoring;
use forest_graph::matroid::try_augment_traced;
use forest_graph::{
    generators, Color, DynamicColorConnectivity, DynamicGraph, EdgeId, MultiGraph, UnionFind,
    VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted update: endpoints plus a delete bias; deletes resolve
/// against the currently-live edge list, so every script is applicable to
/// every state.
type Script = Vec<(usize, usize, bool)>;

fn arb_script(n: usize, len: usize) -> impl Strategy<Value = (usize, Script)> {
    (2..n, 1..len).prop_flat_map(move |(verts, m)| {
        proptest::collection::vec((0..verts, 0..verts, 0..100usize), m).prop_map(move |ops| {
            (
                verts,
                ops.into_iter().map(|(u, v, d)| (u, v, d < 45)).collect(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-color connectivity under a random script on at most 12
    /// vertices: each insert takes the first free color in `0..k`, else an
    /// exact exchange mirrored through `apply_exchange`, else the first
    /// color `≥ k` whose forest keeps its endpoints apart; deletes are
    /// random. After every step, `connected` agrees with a per-color
    /// `UnionFind` over the coloring on every vertex pair.
    #[test]
    fn dynamic_connectivity_agrees_with_union_find(
        ((n, script), k) in (arb_script(13, 60), 1..4usize)
    ) {
        let mut g = DynamicGraph::new(n);
        let mut coloring = PartialEdgeColoring::new_uncolored(0);
        let mut conn = DynamicColorConnectivity::new(n);
        let mut live: Vec<EdgeId> = Vec::new();
        for (u, v, delete) in script {
            if delete && !live.is_empty() {
                let e = live.swap_remove(u % live.len());
                g.delete_edge(e).unwrap();
                coloring.clear(e);
                conn.remove(e);
            } else if u != v {
                let (u, v) = (VertexId::new(u), VertexId::new(v));
                let e = g.insert_edge(u, v).unwrap();
                coloring.grow_to(g.edge_id_span());
                live.push(e);
                if let Some(c) = conn.first_free_color(k, u, v) {
                    coloring.set(e, c);
                    conn.insert(e, c, u, v);
                } else if let Some(steps) = try_augment_traced(&g, &mut coloring, e, k, usize::MAX)
                {
                    conn.apply_exchange(&g, &steps);
                } else {
                    let fresh = (k..)
                        .map(Color::new)
                        .find(|&c| !conn.connected(c, u, v))
                        .unwrap();
                    coloring.set(e, fresh);
                    conn.insert(e, fresh, u, v);
                }
            }
            let span = live
                .iter()
                .filter_map(|&e| coloring.color(e))
                .map(|c| c.index() + 1)
                .max()
                .unwrap_or(0);
            for c in (0..=span).map(Color::new) {
                let class = g
                    .live_edges()
                    .filter(|&(e, _, _)| coloring.color(e) == Some(c))
                    .map(|(_, a, b)| (a.index(), b.index()));
                let mut uf = UnionFind::from_edges(n, class);
                for a in 0..n {
                    for b in 0..n {
                        prop_assert_eq!(
                            conn.connected(c, VertexId::new(a), VertexId::new(b)),
                            uf.connected(a, b)
                        );
                    }
                }
            }
        }
    }

    /// The decomposer's live coloring stays a valid forest partition under
    /// the same scripted churn, and the final snapshot is byte-identical to
    /// the cold run on the independently reconstructed final graph.
    #[test]
    fn dynamic_decomposer_stays_valid_and_snapshots_cold((n, script) in arb_script(18, 80)) {
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(5);
        let mut dyn_dec = DynamicDecomposer::new(request.clone(), n).unwrap();
        let mut live: Vec<(EdgeId, usize, usize)> = Vec::new();
        for (u, v, delete) in script {
            if delete && !live.is_empty() {
                let slot = u % live.len();
                let (e, _, _) = live.swap_remove(slot);
                dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
            } else if u != v {
                let e = dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge;
                live.push((e, u, v));
            }
            dyn_dec.validate_live().unwrap();
        }
        live.sort_by_key(|&(e, _, _)| e);
        let mut expected = MultiGraph::new(n);
        for &(_, u, v) in &live {
            expected.add_edge(VertexId::new(u), VertexId::new(v)).unwrap();
        }
        let cold = Decomposer::new(request).run(&expected).unwrap();
        let snap = dyn_dec.snapshot().unwrap();
        prop_assert_eq!(cold.canonical_bytes(), snap.canonical_bytes());
    }
}

/// `snapshot()` equals the cold run's `canonical_bytes` for every engine
/// that can maintain forests; the rest of the problem × engine matrix fails
/// with the typed errors instead of panicking.
#[test]
fn snapshot_matches_cold_run_across_the_matrix() {
    let mut rng = StdRng::seed_from_u64(41);
    let n = 32;
    // One shared churn script so every engine sees the same final graph.
    let mut inserts: Vec<(usize, usize)> = Vec::new();
    for _ in 0..160 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            inserts.push((u, v));
        }
    }
    let delete_slots: Vec<usize> = (0..40).map(|_| rng.gen_range(0..inserts.len())).collect();
    for engine in [
        Engine::HarrisSuVu,
        Engine::BarenboimElkin,
        Engine::ExactMatroid,
    ] {
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(engine)
            .with_epsilon(0.5)
            .with_seed(23);
        let mut dyn_dec = DynamicDecomposer::new(request.clone(), n).unwrap();
        let mut ids = Vec::new();
        for &(u, v) in &inserts {
            ids.push(dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge);
        }
        let mut deleted = vec![false; ids.len()];
        for &slot in &delete_slots {
            if !deleted[slot] {
                dyn_dec.apply(EdgeUpdate::delete(ids[slot])).unwrap();
                deleted[slot] = true;
            }
        }
        dyn_dec.validate_live().unwrap();
        let mut expected = MultiGraph::new(n);
        for (slot, &(u, v)) in inserts.iter().enumerate() {
            if !deleted[slot] {
                expected
                    .add_edge(VertexId::new(u), VertexId::new(v))
                    .unwrap();
            }
        }
        let cold = Decomposer::new(request).run(&expected).unwrap();
        let snap = dyn_dec.snapshot().unwrap();
        assert_eq!(
            cold.canonical_bytes(),
            snap.canonical_bytes(),
            "snapshot != cold for {engine:?}"
        );
        snap.validate(&expected).unwrap();
    }
    // The unsupported rest of the matrix is typed, not a panic.
    for problem in [
        ProblemKind::ListForest,
        ProblemKind::StarForest,
        ProblemKind::ListStarForest,
        ProblemKind::Orientation,
    ] {
        assert!(matches!(
            DynamicDecomposer::new(DecompositionRequest::new(problem), 4),
            Err(FdError::DynamicUnsupported { .. })
        ));
    }
}

/// The acceptance-criteria stream: ≥ 10k random inserts/deletes, live
/// coloring valid throughout (spot-checked), snapshot byte-identical to the
/// cold run on the final graph.
#[test]
fn ten_thousand_update_stream_snapshots_byte_identical() {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(77);
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(9);
    let mut dyn_dec = DynamicDecomposer::new(request.clone(), n).unwrap();
    let mut live: Vec<(EdgeId, usize, usize)> = Vec::new();
    let mut applied = 0usize;
    while applied < 10_000 {
        let delete = !live.is_empty() && rng.gen_bool(0.45);
        if delete {
            let slot = rng.gen_range(0..live.len());
            let (e, _, _) = live.swap_remove(slot);
            dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
        } else {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let e = dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge;
            live.push((e, u, v));
        }
        applied += 1;
        if applied.is_multiple_of(1000) {
            dyn_dec.validate_live().unwrap();
        }
    }
    assert_eq!(dyn_dec.stats().updates, 10_000);
    dyn_dec.validate_live().unwrap();
    live.sort_by_key(|&(e, _, _)| e);
    let mut expected = MultiGraph::new(n);
    for &(_, u, v) in &live {
        expected
            .add_edge(VertexId::new(u), VertexId::new(v))
            .unwrap();
    }
    let cold = Decomposer::new(request).run(&expected).unwrap();
    let snap = dyn_dec.snapshot().unwrap();
    assert_eq!(cold.canonical_bytes(), snap.canonical_bytes());
    // The stream overwhelmingly rides the fast paths; fallbacks are the
    // exception, not the norm.
    assert!(
        dyn_dec.stats().fallback_rate() < 0.5,
        "fallback rate {}",
        dyn_dec.stats().fallback_rate()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `compact_ids` is invisible to the decomposition: after arbitrary
    /// churn, compacting renumbers the live edges densely (in insertion
    /// order) without changing `snapshot()` bytes, endpoints, colors or
    /// the validity of the live coloring.
    #[test]
    fn compact_ids_is_invisible_to_the_snapshot((n, script) in arb_script(16, 60)) {
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(11);
        let mut dyn_dec = DynamicDecomposer::new(request, n).unwrap();
        let mut live: Vec<(EdgeId, usize, usize)> = Vec::new();
        for (u, v, delete) in script {
            if delete && !live.is_empty() {
                let slot = u % live.len();
                let (e, _, _) = live.swap_remove(slot);
                dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
            } else if u != v {
                let e = dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge;
                live.push((e, u, v));
            }
        }
        let before = dyn_dec.snapshot().unwrap().canonical_bytes();
        let old_endpoints: Vec<(EdgeId, VertexId, VertexId)> =
            dyn_dec.live_graph().live_edges().collect();

        let remap = dyn_dec.compact_ids();

        // Dense renumbering in ascending-old-id (= insertion) order.
        prop_assert_eq!(remap.new_span(), old_endpoints.len());
        prop_assert_eq!(dyn_dec.live_graph().edge_id_span(), old_endpoints.len());
        let olds: Vec<EdgeId> = remap.iter().map(|(_, old)| old).collect();
        prop_assert!(olds.windows(2).all(|w| w[0] < w[1]), "old ids not ascending");
        // Endpoints ride along with the remap.
        let new_endpoints: Vec<(EdgeId, VertexId, VertexId)> =
            dyn_dec.live_graph().live_edges().collect();
        for &(old, u, v) in &old_endpoints {
            let new = remap.new_id(old).expect("live edge lost by compaction");
            prop_assert_eq!(remap.old_id(new), Some(old));
            let (ne, nu, nv) = new_endpoints[new.index()];
            prop_assert_eq!(ne, new);
            prop_assert_eq!((nu, nv), (u, v));
        }
        // The decomposition itself is untouched.
        dyn_dec.validate_live().unwrap();
        let after = dyn_dec.snapshot().unwrap().canonical_bytes();
        prop_assert_eq!(before, after);
    }
}

/// Deleting into a sparse regime drains and retires colors (the downward
/// half of budget tracking), and every delta report stays coherent.
#[test]
fn deletions_shrink_the_budget_on_a_thinning_graph() {
    let g = generators::fat_path(24, 3); // arboricity 3
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(3);
    let mut dyn_dec = DynamicDecomposer::from_graph(request, &g).unwrap();
    assert_eq!(dyn_dec.color_budget(), 3);
    // Delete two of every three parallel edges: the survivor is a path,
    // arboricity 1.
    let mut deletes = Vec::new();
    for (e, _, _) in dyn_dec.live_graph().live_edges() {
        if e.index() % 3 != 0 {
            deletes.push(e);
        }
    }
    for e in deletes {
        let delta = dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
        assert!(matches!(
            delta.path,
            UpdatePath::FastDelete | UpdatePath::Compact
        ));
        assert_eq!(delta.live_edges, dyn_dec.num_live_edges());
        dyn_dec.validate_live().unwrap();
    }
    assert_eq!(dyn_dec.num_live_edges(), g.num_edges() / 3);
    assert_eq!(dyn_dec.color_budget(), 1, "budget followed arboricity down");
    assert!(dyn_dec.stats().compactions > 0 || dyn_dec.stats().fast_deletes > 0);
}

/// FNV-1a over a byte string, as in `tests/power_view.rs`.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Golden: the live coloring itself, not a cold snapshot. A seeded churn on
/// `grid(12, 12)` thickens the grid with random edges, thins it almost to
/// nothing, then thickens it again; the hash covers every live edge's id
/// and color plus the eight
/// [`DynamicStats`](forest_decomp::api::DynamicStats) counters. The script
/// takes both exchange paths (insert and compaction drain), so any change
/// to how an exchange is mirrored into per-color connectivity that alters
/// a later `first_free_color` answer moves the hash.
#[test]
fn golden_live_coloring_after_grid_churn() {
    let g = generators::grid(12, 12);
    let n = g.num_vertices();
    let request = DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_seed(4);
    let mut dyn_dec = DynamicDecomposer::from_graph(request, &g).unwrap();
    let mut live: Vec<EdgeId> = dyn_dec
        .live_graph()
        .live_edges()
        .map(|(e, _, _)| e)
        .collect();
    let mut rng = StdRng::seed_from_u64(12);
    for (delete_bias, steps) in [(0.2, 600), (0.95, 800), (0.3, 400)] {
        for _ in 0..steps {
            if !live.is_empty() && rng.gen_bool(delete_bias) {
                let e = live.swap_remove(rng.gen_range(0..live.len()));
                dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    live.push(dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge);
                }
            }
        }
    }
    dyn_dec.validate_live().unwrap();
    let stats = dyn_dec.stats();
    assert!(
        stats.exchanges > 0,
        "the script must exercise insert exchanges"
    );
    assert!(
        stats.compactions > 0,
        "the script must exercise compaction drains"
    );
    let mut bytes = Vec::new();
    for (e, _, _) in dyn_dec.live_graph().live_edges() {
        let c = dyn_dec.live_coloring().color(e).unwrap();
        bytes.extend((e.index() as u64).to_le_bytes());
        bytes.extend((c.index() as u64).to_le_bytes());
    }
    for counter in [
        stats.updates,
        stats.fast_inserts,
        stats.exchanges,
        stats.exchange_recolorings,
        stats.budget_raises,
        stats.fast_deletes,
        stats.compactions,
        stats.compaction_recolorings,
    ] {
        bytes.extend((counter as u64).to_le_bytes());
    }
    assert_eq!(fnv(&bytes), 0xa04d8303dcfead14);
}
