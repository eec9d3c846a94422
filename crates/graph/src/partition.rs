//! Sharding of one frozen CSR graph: the one cut both sharded drivers of
//! the `Decomposer` facade decompose.
//!
//! [`ShardPlan::new`] cuts the vertex range of a [`CsrGraph`] into `k`
//! contiguous shards balanced by incidence count and keeps only the `k + 1`
//! shard bases, so shard ownership, local ids and global ids are all
//! arithmetic. An edge is *internal* to the shard holding both endpoints or
//! a *boundary* edge crossing two shards. [`ShardPlan::extract_shard`]
//! builds one shard's internal topology as a locally renumbered CSR plus
//! its local → global edge map, reading only that shard's incidence lists;
//! [`ShardPlan::boundary_edges`] lists the edges the stitch recolors, as
//! Harris–Su–Vu compose per-part partitions plus a small leftover. Every
//! global edge appears exactly once: in one shard's edge map or in the
//! boundary list.
//!
//! One plan serves both drivers: the in-memory `run_sharded` extracts its
//! shards in parallel, the out-of-core `run_out_of_core` one at a time off
//! a demand-paged file. Contiguous id ranges are adversarial when vertex
//! ids are random; a BFS or reverse Cuthill–McKee order from
//! [`crate::reorder`] restores small boundaries by relabelling the graph
//! first ([`permute`](crate::reorder::permute)): the identity split of the
//! relabelled graph is the split along the order.

use crate::csr::{CsrGraph, CsrStorage, OwnedCsr};
use crate::ids::{u32_of, EdgeId, VertexId};
use crate::view::GraphView;

/// A `k`-way cut of one frozen graph into contiguous vertex-id ranges,
/// `O(k)` resident: only the shard bases are kept.
///
/// Shards are built one at a time with [`ShardPlan::extract_shard`], which
/// touches only the shard's own incidence lists, so a plan works straight
/// off a demand-paged [`MmapCsr`](crate::MmapCsr) without ever holding the
/// graph. The plan cuts the identity order; to cut along a BFS or RCM
/// order, plan the graph [`permute`](crate::reorder::permute) relabels
/// along it.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard → first vertex id (shards are contiguous id ranges); length
    /// `k + 1`.
    vertex_base: Vec<u32>,
    num_vertices: usize,
}

/// One shard built from a [`ShardPlan`]: the locally renumbered internal
/// topology plus its local → global edge map.
#[derive(Clone, Debug)]
pub struct ExtractedShard {
    /// The shard's internal topology, vertices renumbered `0..shard_size`.
    pub csr: OwnedCsr,
    /// Local edge id → global edge id (ascending).
    pub global_edges: Vec<u32>,
}

impl ShardPlan {
    /// Plans the `k`-way split of `csr` in `O(n)` time and `O(k)` memory.
    ///
    /// `k` is clamped to `1..=max(n, 1)`, so the plan is always usable
    /// (callers wanting `k = 0` to be an error must check before calling;
    /// the `Decomposer` facade returns a typed `InvalidShardCount` for it).
    pub fn new<S: CsrStorage>(csr: &CsrGraph<S>, k: usize) -> ShardPlan {
        let n = csr.num_vertices();
        let k = k.clamp(1, n.max(1));
        let mut vertex_base = vec![0u32; k + 1];
        for s in assignment_walk(csr, k) {
            vertex_base[s + 1] += 1;
        }
        for s in 0..k {
            vertex_base[s + 1] += vertex_base[s];
        }
        ShardPlan {
            vertex_base,
            num_vertices: n,
        }
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.vertex_base.len() - 1
    }

    /// The shard owning global vertex `v`.
    pub fn shard_of(&self, v: VertexId) -> usize {
        debug_assert!(v.index() < self.num_vertices);
        // Last shard whose base is ≤ v: empty shards share a base with their
        // successor, and the search lands past all of them.
        self.vertex_base
            .partition_point(|&b| b as usize <= v.index())
            - 1
    }

    /// The local id of global vertex `v` inside its owning shard.
    pub fn local_vertex(&self, v: VertexId) -> VertexId {
        VertexId::new(v.index() - self.vertex_base[self.shard_of(v)] as usize)
    }

    /// The global vertex behind shard `s`'s local vertex `local`.
    pub fn global_vertex(&self, s: usize, local: VertexId) -> VertexId {
        VertexId::new(self.vertex_base[s] as usize + local.index())
    }

    /// Global vertex-id range `[start, end)` of shard `s`.
    fn vertex_range(&self, s: usize) -> std::ops::Range<usize> {
        self.vertex_base[s] as usize..self.vertex_base[s + 1] as usize
    }

    /// The global edges crossing shards, in ascending id order — computed by
    /// one streaming scan of the endpoint list (the plan does not store it).
    pub fn boundary_edges<S: CsrStorage>(&self, csr: &CsrGraph<S>) -> Vec<EdgeId> {
        csr.edges()
            .filter(|&(_, u, v)| self.shard_of(u) != self.shard_of(v))
            .map(|(e, _, _)| e)
            .collect()
    }

    /// Builds shard `s` alone: scans only shard `s`'s incidence lists (plus
    /// one endpoint lookup per internal edge), touching `O(shard)` bytes of
    /// a demand-paged source. Each shard row keeps the order of its parent
    /// row, so when the parent's rows ascend by edge id (every freeze of a
    /// [`MultiGraph`](crate::MultiGraph)) the shard equals the freeze of the
    /// thawed shard.
    pub fn extract_shard<S: CsrStorage>(&self, csr: &CsrGraph<S>, s: usize) -> ExtractedShard {
        let range = self.vertex_range(s);
        let base = range.start;
        // One pass over the shard's rows keeps its internal incidences in
        // row order, each tagged with its edge and slot. Sorting the tags
        // pairs the two slots of every edge (self-loops cannot occur) and
        // ranks the edges by ascending global id: the local ids.
        let mut offsets = Vec::with_capacity(range.len() + 1);
        let mut neighbors = Vec::new();
        let mut tags: Vec<(u32, u32)> = Vec::new();
        offsets.push(0u32);
        for v in range.clone() {
            for (nbr, ge) in csr.incidences(VertexId::new(v)) {
                if range.contains(&nbr.index()) {
                    tags.push((ge.raw(), u32_of(neighbors.len())));
                    neighbors.push(u32_of(nbr.index() - base));
                }
            }
            offsets.push(u32_of(neighbors.len()));
        }
        tags.sort_unstable_by_key(|&(ge, _)| ge);
        let mut edge_ids = vec![0u32; neighbors.len()];
        let mut global_edges = Vec::with_capacity(tags.len() / 2);
        let mut endpoints = Vec::with_capacity(neighbors.len());
        for pair in tags.chunks_exact(2) {
            let (ge, local) = (pair[0].0, u32_of(global_edges.len()));
            debug_assert_eq!(ge, pair[1].0, "each internal edge has two slots");
            global_edges.push(ge);
            edge_ids[pair[0].1 as usize] = local;
            edge_ids[pair[1].1 as usize] = local;
            let (u, v) = csr.endpoints(EdgeId::new(ge as usize));
            endpoints.push(u32_of(u.index() - base));
            endpoints.push(u32_of(v.index() - base));
        }
        ExtractedShard {
            csr: OwnedCsr::from_raw_parts(offsets, neighbors, edge_ids, endpoints),
            global_edges,
        }
    }

    /// Heap bytes this plan keeps resident (the `k + 1` base array) — the
    /// out-of-core driver's accounting hook.
    pub fn resident_bytes(&self) -> usize {
        self.vertex_base.len() * std::mem::size_of::<u32>()
    }
}

/// The assignment walk behind [`ShardPlan::new`]: yields each vertex's
/// shard in id order, assigning a vertex to the shard whose share of the
/// total incidence mass its prefix midpoint falls into (degenerating to an
/// even positional split on edgeless graphs). The midpoint rule keeps the
/// first/last shards from starving; the shard index is non-decreasing along
/// the walk, so shards are contiguous id ranges.
fn assignment_walk<S: CsrStorage>(csr: &CsrGraph<S>, k: usize) -> impl Iterator<Item = usize> + '_ {
    let n = csr.num_vertices();
    let total: u64 = 2 * csr.num_edges() as u64;
    let mut prefix: u64 = 0;
    (0..n).map(move |v| {
        let d = csr.degree(VertexId::new(v)) as u64;
        let s = if total == 0 {
            (v * k / n.max(1)) as u64
        } else {
            (prefix * 2 + d).min(2 * total - 1) * k as u64 / (2 * total)
        };
        prefix += d;
        (s as usize).min(k - 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::multigraph::MultiGraph;
    use crate::reorder::{bfs_order, permute, rcm_order, VertexPermutation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Checks `plan` against the graph it cut: a consistent local ↔ global
    /// vertex mapping, every edge exactly once (internal to one extracted
    /// shard with endpoints mapping back, or a boundary edge crossing
    /// shards), and every extracted CSR equal to the freeze of its thawed
    /// shard.
    fn check_partition<S: CsrStorage>(csr: &CsrGraph<S>, plan: &ShardPlan) {
        let k = plan.num_shards();
        assert!(plan.resident_bytes() <= 4 * (k + 1));
        for v in csr.vertices() {
            let s = plan.shard_of(v);
            assert!(s < k);
            assert_eq!(plan.global_vertex(s, plan.local_vertex(v)), v);
        }
        let mut seen = vec![0usize; csr.num_edges()];
        for s in 0..k {
            let shard = plan.extract_shard(csr, s);
            assert_eq!(shard.csr.num_vertices(), plan.vertex_range(s).len());
            assert_eq!(
                OwnedCsr::from_multigraph(&shard.csr.to_multigraph()),
                shard.csr
            );
            for (local, lu, lv) in shard.csr.edges() {
                let e = EdgeId::new(shard.global_edges[local.index()] as usize);
                seen[e.index()] += 1;
                let (gu, gv) = csr.endpoints(e);
                assert_eq!(plan.global_vertex(s, lu), gu);
                assert_eq!(plan.global_vertex(s, lv), gv);
            }
        }
        for e in plan.boundary_edges(csr) {
            seen[e.index()] += 1;
            let (u, v) = csr.endpoints(e);
            assert_ne!(
                plan.shard_of(u),
                plan.shard_of(v),
                "boundary edge crosses shards"
            );
        }
        assert!(seen.iter().all(|&c| c == 1), "each edge exactly once");
    }

    #[test]
    fn splits_preserve_every_edge_exactly_once() {
        let mut rng = StdRng::seed_from_u64(11);
        for g in [
            generators::path(17),
            generators::grid(6, 5),
            generators::fat_path(20, 3),
            generators::planted_forest_union(40, 3, &mut rng),
        ] {
            let csr = CsrGraph::from_multigraph(&g);
            for k in [1, 2, 3, 5, 100] {
                let plan = ShardPlan::new(&csr, k);
                assert!(plan.num_shards() >= 1);
                check_partition(&csr, &plan);
            }
        }
    }

    #[test]
    fn ordered_splits_preserve_every_edge_exactly_once() {
        let mut rng = StdRng::seed_from_u64(12);
        for g in [
            generators::grid(6, 5),
            generators::planted_forest_union(40, 3, &mut rng),
        ] {
            let csr = CsrGraph::from_multigraph(&g);
            for perm in [bfs_order(&csr), rcm_order(&csr)] {
                let relabelled = permute(&csr, &perm);
                for k in [1, 2, 4, 9] {
                    check_partition(&relabelled, &ShardPlan::new(&relabelled, k));
                }
            }
        }
    }

    #[test]
    fn rcm_split_beats_identity_on_a_shuffled_grid() {
        // Scramble a grid's vertex ids: contiguous-id splitting cuts almost
        // everything, splitting along an RCM relabelling restores a
        // near-minimal cut.
        let g = generators::grid(16, 16);
        let csr = CsrGraph::from_multigraph(&g);
        let n = g.num_vertices();
        let mut rng = StdRng::seed_from_u64(4);
        let mut shuffle: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..i + 1);
            shuffle.swap(i, j);
        }
        let scrambled = permute(&csr, &VertexPermutation::from_new_order(shuffle));
        let ordered = permute(&scrambled, &rcm_order(&scrambled));
        let identity_plan = ShardPlan::new(&scrambled, 4);
        let ordered_plan = ShardPlan::new(&ordered, 4);
        check_partition(&scrambled, &identity_plan);
        check_partition(&ordered, &ordered_plan);
        // Same edge count on both sides, so the boundary fractions compare
        // as counts.
        let identity_cut = identity_plan.boundary_edges(&scrambled).len();
        let ordered_cut = ordered_plan.boundary_edges(&ordered).len();
        assert!(
            4 * ordered_cut < identity_cut,
            "ordered {ordered_cut} vs identity {identity_cut} boundary edges"
        );
    }

    #[test]
    fn shard_plan_extracts_from_mmap_storage() {
        // The out-of-core shape: plan + extract straight off a loaded file.
        let g = generators::fat_path(30, 3);
        let csr = CsrGraph::from_multigraph(&g);
        let path = std::env::temp_dir().join(format!(
            "forest-graph-shard-plan-{}.csr",
            std::process::id()
        ));
        csr.save(&path).unwrap();
        let mapped = CsrGraph::load_mmap(&path).unwrap();
        let plan = ShardPlan::new(&mapped, 3);
        check_partition(&mapped, &plan);
        assert_eq!(plan.boundary_edges(&mapped), plan.boundary_edges(&csr));
        for s in 0..plan.num_shards() {
            let (from_file, owned) = (plan.extract_shard(&mapped, s), plan.extract_shard(&csr, s));
            assert_eq!(from_file.csr, owned.csr);
            assert_eq!(from_file.global_edges, owned.global_edges);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = generators::grid(4, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let plan = ShardPlan::new(&csr, 1);
        assert_eq!(plan.num_shards(), 1);
        assert!(plan.boundary_edges(&csr).is_empty());
        assert_eq!(plan.extract_shard(&csr, 0).csr.to_multigraph(), g);
    }

    #[test]
    fn shards_are_incidence_balanced_on_a_path() {
        let g = generators::path(100);
        let csr = CsrGraph::from_multigraph(&g);
        let plan = ShardPlan::new(&csr, 4);
        for s in 0..4 {
            let size = plan.vertex_range(s).len();
            assert!((15..=35).contains(&size), "shard {s} has {size} vertices");
        }
        // A path split into 4 contiguous ranges cuts exactly 3 edges.
        assert_eq!(plan.boundary_edges(&csr).len(), 3);
    }

    #[test]
    fn split_works_on_borrowed_and_empty_inputs() {
        let csr = CsrGraph::from_multigraph(&MultiGraph::new(5));
        let plan = ShardPlan::new(&csr.view(), 2);
        check_partition(&csr.view(), &plan);
        assert_eq!(plan.num_shards(), 2);
        let empty = CsrGraph::from_multigraph(&MultiGraph::new(0));
        let plan = ShardPlan::new(&empty, 3);
        assert_eq!(plan.num_shards(), 1);
        assert!(plan.boundary_edges(&empty).is_empty());
        check_partition(&empty, &plan);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        // The plan clamps (documented); the facade is the layer that
        // rejects k = 0 with a typed error.
        let csr = CsrGraph::from_multigraph(&generators::grid(3, 3));
        let plan = ShardPlan::new(&csr, 0);
        assert_eq!(plan.num_shards(), 1);
        assert!(plan.boundary_edges(&csr).is_empty());
        check_partition(&csr, &plan);
    }

    #[test]
    fn oversized_k_clamps_to_vertex_count() {
        let csr = CsrGraph::from_multigraph(&generators::path(3));
        let plan = ShardPlan::new(&csr, 50);
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.boundary_edges(&csr).len(), 2);
        check_partition(&csr, &plan);
    }
}
