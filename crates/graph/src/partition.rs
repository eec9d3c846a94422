//! Zero-copy sharding of one frozen CSR graph: the substrate for
//! shard-parallel decomposition.
//!
//! [`CsrPartition::split`] cuts the vertex range of a [`CsrGraph`] into `k`
//! contiguous shards balanced by incidence count, classifies every edge as
//! *internal* to the unique shard containing both endpoints or as a
//! *boundary* edge crossing two shards, and materializes each shard's
//! internal topology once as a locally-renumbered CSR (built directly from
//! the flat arrays — no adjacency-list intermediate). After the one `O(n +
//! m)` split, [`CsrPartition::shard`] hands out [`CsrRef`] views **without
//! copying**, so `k` workers can decompose their shards in parallel over
//! borrowed slices; the explicit [boundary edge list](CsrPartition::boundary_edges)
//! is what the stitching phase (the facade's `run_sharded`) recolors through
//! the leftover/augmenting machinery, exactly as Harris–Su–Vu compose
//! per-part partitions plus a small leftover.
//!
//! Contiguous-in-id ranges are adversarial when vertex ids are random (see
//! the boundary fractions in the bench snapshots): [`CsrPartition::split_ordered`]
//! accepts a [`VertexPermutation`](crate::reorder::VertexPermutation) — e.g.
//! a BFS or reverse Cuthill–McKee order from [`crate::reorder`] — and cuts
//! contiguous ranges of the *order* instead, which restores small boundaries
//! on locality-friendly topologies regardless of how their ids were drawn.
//!
//! The local↔global vertex renumbering is kept as dense index arrays
//! ([`shard_of`](CsrPartition::shard_of) / [`local_vertex`](CsrPartition::local_vertex)
//! one way, per-shard bases over the split order the other way); per-shard
//! edge renumbering is a small `local → global` array per shard. Every global
//! edge appears exactly once: in exactly one shard's internal edge list or in
//! the boundary list.

use crate::csr::{CsrGraph, CsrRef, CsrStorage, OwnedCsr};
use crate::ids::{u32_of, EdgeId, VertexId};
use crate::reorder::VertexPermutation;
use crate::view::GraphView;

/// A `k`-way sharding of one frozen graph: per-shard internal CSR topologies
/// (handed out as zero-copy [`CsrRef`] views) plus the boundary edges that
/// cross shards.
#[derive(Clone, Debug)]
pub struct CsrPartition {
    /// Per-shard internal topology, vertices renumbered `0..shard_size`.
    shards: Vec<OwnedCsr>,
    /// Global vertex → owning shard.
    shard_of: Vec<u32>,
    /// Global vertex → local id inside its owning shard.
    local_of: Vec<u32>,
    /// Shard → first split-order position (shards are contiguous ranges of
    /// the split order); length `k + 1`.
    vertex_base: Vec<u32>,
    /// Split-order position → global vertex id; `None` for the identity
    /// order, where position and id coincide.
    order: Option<Vec<u32>>,
    /// Shard → (local edge id → global edge id).
    edge_global: Vec<Vec<u32>>,
    /// Global edges whose endpoints live in different shards.
    boundary: Vec<EdgeId>,
}

/// The `O(k)`-resident sharding *plan*: where [`CsrPartition::split`] cuts,
/// without materializing any shard.
///
/// [`CsrPartition`] is the right tool when the whole graph is resident: it
/// builds every shard's CSR in one pass and hands out zero-copy views. The
/// out-of-core driver cannot afford that — the sum of all shards *is* the
/// graph — so `ShardPlan` keeps only the shard boundaries (`k + 1` words;
/// shards of the identity order are contiguous vertex-id ranges, so
/// ownership, local ids and global ids are all arithmetic) and rebuilds one
/// shard at a time with [`ShardPlan::extract_shard`], streaming straight off
/// a demand-paged [`MmapCsr`](crate::MmapCsr). The cut rule is byte-for-byte
/// the one [`CsrPartition::split`] uses (they share the assignment walk), so
/// for every shard `s`:
///
/// * `plan.extract_shard(&csr, s).csr` equals `partition.shard(s)`,
/// * `plan.extract_shard(&csr, s).global_edges` equals
///   `partition.global_edges(s)`, and
/// * [`ShardPlan::boundary_edges`] equals [`CsrPartition::boundary_edges`]
///
/// — pinned by this module's tests. Only the identity order is supported:
/// a BFS/RCM reorder needs the permutation array, which is exactly the
/// `O(n)` state this type exists to avoid.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard → first vertex id (shards are contiguous id ranges); length
    /// `k + 1`.
    vertex_base: Vec<u32>,
    num_vertices: usize,
}

/// One shard materialized from a [`ShardPlan`]: the locally-renumbered
/// internal topology plus its local → global edge map — the per-shard halves
/// of a [`CsrPartition`], built alone.
#[derive(Clone, Debug)]
pub struct ExtractedShard {
    /// The shard's internal topology, vertices renumbered `0..shard_size`.
    pub csr: OwnedCsr,
    /// Local edge id → global edge id (ascending).
    pub global_edges: Vec<u32>,
}

impl ShardPlan {
    /// Plans the identity-order `k`-way split of `csr` — the same cut as
    /// [`CsrPartition::split`] (same clamp of `k` to `1..=max(n, 1)`), in
    /// `O(n)` time and `O(k)` memory.
    pub fn new<S: CsrStorage>(csr: &CsrGraph<S>, k: usize) -> ShardPlan {
        let n = csr.num_vertices();
        let k = k.clamp(1, n.max(1));
        let mut vertex_base = vec![0u32; k + 1];
        for (_, s) in assignment_walk(csr, k, None) {
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

    /// Materializes shard `s` alone: scans only shard `s`'s incidence lists
    /// (plus one endpoint lookup per internal edge), touching `O(shard)`
    /// bytes of a demand-paged source. The result is byte-identical to the
    /// corresponding [`CsrPartition`] shard.
    pub fn extract_shard<S: CsrStorage>(&self, csr: &CsrGraph<S>, s: usize) -> ExtractedShard {
        let range = self.vertex_range(s);
        let base = range.start;
        let size = range.len();
        // Internal edges ascending: each is collected once, from its
        // smaller endpoint's incidence list (self-loops cannot occur).
        let mut global_edges: Vec<u32> = Vec::new();
        for v in range.clone() {
            for (nbr, ge) in csr.incidences(VertexId::new(v)) {
                if range.contains(&nbr.index()) && v < nbr.index() {
                    global_edges.push(ge.raw());
                }
            }
        }
        global_edges.sort_unstable();
        let slots = 2 * global_edges.len();
        let mut offsets = Vec::with_capacity(size + 1);
        let mut neighbors = Vec::with_capacity(slots);
        let mut edge_ids = Vec::with_capacity(slots);
        offsets.push(0u32);
        for v in range.clone() {
            for (nbr, ge) in csr.incidences(VertexId::new(v)) {
                if range.contains(&nbr.index()) {
                    neighbors.push(u32_of(nbr.index() - base));
                    let local = global_edges
                        .binary_search(&ge.raw())
                        .expect("internal incidences reference collected edges");
                    edge_ids.push(u32_of(local));
                }
            }
            offsets.push(u32_of(neighbors.len()));
        }
        let mut endpoints = Vec::with_capacity(slots);
        for &ge in &global_edges {
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

/// The shared assignment walk behind [`CsrPartition::split`] and
/// [`ShardPlan::new`]: yields `(position, shard)` along the split order,
/// assigning each position to the shard whose share of the total incidence
/// mass its prefix midpoint falls into (degenerating to an even positional
/// split on edgeless graphs). The midpoint rule keeps the first/last shards
/// from starving; the shard index is non-decreasing along the walk, so
/// shards are contiguous ranges of the order.
fn assignment_walk<'a, S: CsrStorage>(
    csr: &'a CsrGraph<S>,
    k: usize,
    perm: Option<&'a VertexPermutation>,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let n = csr.num_vertices();
    let total: u64 = 2 * csr.num_edges() as u64;
    let mut prefix: u64 = 0;
    (0..n).map(move |pos| {
        let v = match perm {
            None => VertexId::new(pos),
            Some(p) => p.old_id(VertexId::new(pos)),
        };
        let d = csr.degree(v) as u64;
        let s = if total == 0 {
            (pos * k / n.max(1)) as u64
        } else {
            (prefix * 2 + d).min(2 * total - 1) * k as u64 / (2 * total)
        };
        prefix += d;
        (pos, (s as usize).min(k - 1))
    })
}

impl CsrPartition {
    /// Splits `csr` into `k` shards: contiguous vertex-id ranges balanced by
    /// incidence count. One `O(n + m)` pass; after it,
    /// [`CsrPartition::shard`] is zero-copy.
    ///
    /// `k` is clamped to `1..=max(n, 1)` — this low-level splitter always
    /// produces a usable partition (callers wanting `k = 0` to be an error
    /// must check before calling; the `Decomposer` facade surfaces a typed
    /// `InvalidShardCount` for it).
    pub fn split<S: CsrStorage>(csr: &CsrGraph<S>, k: usize) -> CsrPartition {
        Self::split_impl(csr, k, None)
    }

    /// [`CsrPartition::split`] over a locality-improving order: shards are
    /// contiguous ranges of `perm`'s visit order instead of the raw id
    /// range, so a BFS/RCM permutation ([`crate::reorder`]) keeps neighbors
    /// co-sharded even when vertex ids are random. Shard-local topologies,
    /// edge classification and all accessors speak **global** ids exactly as
    /// with the identity order.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != csr.num_vertices()`.
    pub fn split_ordered<S: CsrStorage>(
        csr: &CsrGraph<S>,
        k: usize,
        perm: &VertexPermutation,
    ) -> CsrPartition {
        assert_eq!(
            perm.len(),
            csr.num_vertices(),
            "permutation length must match the vertex count"
        );
        Self::split_impl(csr, k, Some(perm))
    }

    fn split_impl<S: CsrStorage>(
        csr: &CsrGraph<S>,
        k: usize,
        perm: Option<&VertexPermutation>,
    ) -> CsrPartition {
        let n = csr.num_vertices();
        let m = csr.num_edges();
        let k = k.clamp(1, n.max(1));
        let vertex_at = |pos: usize| -> VertexId {
            match perm {
                None => VertexId::new(pos),
                Some(p) => p.old_id(VertexId::new(pos)),
            }
        };
        // The assignment walk is shared with ShardPlan so the streaming
        // splitter cuts in exactly the same places.
        let mut shard_of = vec![0u32; n];
        for (pos, s) in assignment_walk(csr, k, perm) {
            shard_of[vertex_at(pos).index()] = u32_of(s);
        }
        // Contiguity + monotonicity along the order hold by construction;
        // derive the position bases and local ids.
        let mut vertex_base = vec![0u32; k + 1];
        for &s in &shard_of {
            vertex_base[s as usize + 1] += 1;
        }
        for s in 0..k {
            vertex_base[s + 1] += vertex_base[s];
        }
        let mut local_of = vec![0u32; n];
        for pos in 0..n {
            let v = vertex_at(pos);
            local_of[v.index()] = u32_of(pos) - vertex_base[shard_of[v.index()] as usize];
        }
        // Classify edges in one pass: count per-shard internal edges and
        // same-shard degrees, record each internal edge's local id, and
        // collect the boundary — everything the streaming fill below needs.
        let mut internal = vec![0u32; k];
        let mut edge_local = vec![0u32; m];
        let mut boundary = Vec::new();
        let pairs = csr.endpoint_words();
        // Reserve for the balanced case up front: growth reallocations of
        // the per-shard edge lists are the splitter's main allocator cost.
        let per_shard_cap = m.checked_div(k).unwrap_or(0) + 16;
        let mut edge_global: Vec<Vec<u32>> =
            (0..k).map(|_| Vec::with_capacity(per_shard_cap)).collect();
        let mut endpoints: Vec<Vec<u32>> = (0..k)
            .map(|_| Vec::with_capacity(2 * per_shard_cap))
            .collect();
        for (e, uv) in pairs.chunks_exact(2).enumerate() {
            let (u, v) = (uv[0] as usize, uv[1] as usize);
            let su = shard_of[u];
            if su == shard_of[v] {
                let s = su as usize;
                edge_local[e] = internal[s];
                internal[s] += 1;
                edge_global[s].push(u32_of(e));
                endpoints[s].push(local_of[u]);
                endpoints[s].push(local_of[v]);
            } else {
                boundary.push(EdgeId::new(e));
            }
        }
        // Build each shard's CSR by streaming the parent's incidence lists:
        // vertices in local order, keeping same-shard incidences, which are
        // already sorted by ascending global (hence local) edge id — exactly
        // the layout freezing the thawed shard would give, written purely by
        // appends (no scatter pass, no zero-initialized scratch).
        let shards: Vec<OwnedCsr> = (0..k)
            .map(|s| {
                let size = (vertex_base[s + 1] - vertex_base[s]) as usize;
                let slots = 2 * internal[s] as usize;
                let mut offsets = Vec::with_capacity(size + 1);
                let mut neighbors = Vec::with_capacity(slots);
                let mut edge_ids = Vec::with_capacity(slots);
                offsets.push(0u32);
                for local in 0..size {
                    let v = vertex_at(vertex_base[s] as usize + local);
                    for (nbr, ge) in csr.incidences(v) {
                        if shard_of[nbr.index()] as usize == s {
                            neighbors.push(local_of[nbr.index()]);
                            edge_ids.push(edge_local[ge.index()]);
                        }
                    }
                    offsets.push(u32_of(neighbors.len()));
                }
                OwnedCsr::from_raw_parts(
                    offsets,
                    neighbors,
                    edge_ids,
                    std::mem::take(&mut endpoints[s]),
                )
            })
            .collect();
        let order = perm.map(|p| p.as_new_order().to_vec());
        CsrPartition {
            shards,
            shard_of,
            local_of,
            vertex_base,
            order,
            edge_global,
            boundary,
        }
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Zero-copy view of shard `s`'s internal topology (local vertex ids
    /// `0..shard_size`, local edge ids `0..internal_edge_count`).
    pub fn shard(&self, s: usize) -> CsrRef<'_> {
        self.shards[s].view()
    }

    /// The global edges crossing shards, in ascending id order.
    pub fn boundary_edges(&self) -> &[EdgeId] {
        &self.boundary
    }

    /// The shard owning global vertex `v`.
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.shard_of[v.index()] as usize
    }

    /// The local id of global vertex `v` inside its owning shard.
    pub fn local_vertex(&self, v: VertexId) -> VertexId {
        VertexId::new(self.local_of[v.index()] as usize)
    }

    /// The global vertex behind shard `s`'s local vertex `local`.
    pub fn global_vertex(&self, s: usize, local: VertexId) -> VertexId {
        let pos = self.vertex_base[s] as usize + local.index();
        match &self.order {
            None => VertexId::new(pos),
            Some(order) => VertexId::new(order[pos] as usize),
        }
    }

    /// Split-order position range `[start, end)` of shard `s`. With the
    /// identity order (plain [`CsrPartition::split`]) positions coincide
    /// with global vertex ids; under [`CsrPartition::split_ordered`] map a
    /// position through [`CsrPartition::global_vertex`].
    #[cfg(test)]
    fn vertex_range(&self, s: usize) -> std::ops::Range<usize> {
        self.vertex_base[s] as usize..self.vertex_base[s + 1] as usize
    }

    /// The global edge behind shard `s`'s local edge `local`.
    pub fn global_edge(&self, s: usize, local: EdgeId) -> EdgeId {
        EdgeId::new(self.edge_global[s][local.index()] as usize)
    }

    /// Shard `s`'s full local-to-global edge map (index = local edge id) —
    /// the bulk-merge fast path.
    pub fn global_edges(&self, s: usize) -> &[u32] {
        &self.edge_global[s]
    }

    /// Total number of internal (non-boundary) edges across all shards.
    fn num_internal_edges(&self) -> usize {
        self.edge_global.iter().map(|v| v.len()).sum()
    }

    /// Fraction of all edges that cross shards (0 for an edgeless graph) —
    /// the quantity that governs stitching cost and sharded color quality.
    pub fn boundary_fraction(&self) -> f64 {
        let m = self.num_internal_edges() + self.boundary.len();
        if m == 0 {
            0.0
        } else {
            self.boundary.len() as f64 / m as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::multigraph::MultiGraph;
    use crate::reorder::{bfs_order, rcm_order};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_partition(g: &MultiGraph, part: &CsrPartition) {
        let k = part.num_shards();
        // Every vertex belongs to exactly one shard with a consistent
        // local <-> global mapping.
        for v in g.vertices() {
            let s = part.shard_of(v);
            assert!(s < k);
            assert_eq!(part.global_vertex(s, part.local_vertex(v)), v);
        }
        // Every edge appears exactly once: internal to one shard or boundary.
        let mut seen = vec![0usize; g.num_edges()];
        for s in 0..k {
            let shard = part.shard(s);
            assert_eq!(shard.num_vertices(), part.vertex_range(s).len());
            // The shard CSR must be exactly the freeze of the thawed shard
            // (the direct construction path cuts the intermediate, not the
            // contract).
            assert_eq!(
                OwnedCsr::from_multigraph(&shard.to_multigraph()),
                part.shards[s]
            );
            for (local, lu, lv) in shard.edges() {
                let e = part.global_edge(s, local);
                seen[e.index()] += 1;
                let (gu, gv) = g.endpoints(e);
                assert_eq!(part.global_vertex(s, lu), gu);
                assert_eq!(part.global_vertex(s, lv), gv);
            }
        }
        for &e in part.boundary_edges() {
            seen[e.index()] += 1;
            let (u, v) = g.endpoints(e);
            assert_ne!(
                part.shard_of(u),
                part.shard_of(v),
                "boundary edge crosses shards"
            );
        }
        assert!(seen.iter().all(|&c| c == 1), "each edge exactly once");
        assert_eq!(
            part.num_internal_edges() + part.boundary_edges().len(),
            g.num_edges()
        );
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
                let part = CsrPartition::split(&csr, k);
                assert!(part.num_shards() >= 1);
                check_partition(&g, &part);
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
                for k in [1, 2, 4, 9] {
                    let part = CsrPartition::split_ordered(&csr, k, &perm);
                    check_partition(&g, &part);
                }
            }
        }
    }

    #[test]
    fn rcm_split_beats_identity_on_a_shuffled_grid() {
        // Scramble a grid's vertex ids: contiguous-id splitting cuts almost
        // everything, RCM-ordered splitting restores a near-minimal cut.
        let g = generators::grid(16, 16);
        let csr = CsrGraph::from_multigraph(&g);
        let n = g.num_vertices();
        let mut rng = StdRng::seed_from_u64(4);
        let mut shuffle: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..i + 1);
            shuffle.swap(i, j);
        }
        let scramble = crate::reorder::VertexPermutation::from_new_order(shuffle);
        let scrambled_csr = crate::reorder::permute(&csr, &scramble);
        let scrambled = scrambled_csr.to_multigraph();
        let identity = CsrPartition::split(&scrambled_csr, 4);
        let ordered = CsrPartition::split_ordered(&scrambled_csr, 4, &rcm_order(&scrambled_csr));
        check_partition(&scrambled, &identity);
        check_partition(&scrambled, &ordered);
        assert!(
            ordered.boundary_fraction() < identity.boundary_fraction() / 4.0,
            "ordered {} vs identity {}",
            ordered.boundary_fraction(),
            identity.boundary_fraction()
        );
    }

    #[test]
    fn shard_plan_matches_csr_partition_everywhere() {
        let mut rng = StdRng::seed_from_u64(21);
        for g in [
            generators::path(17),
            generators::grid(6, 5),
            generators::fat_path(20, 3),
            generators::planted_forest_union(40, 3, &mut rng),
            MultiGraph::new(5),
            MultiGraph::new(0),
        ] {
            let csr = CsrGraph::from_multigraph(&g);
            for k in [1, 2, 3, 5, 100] {
                let part = CsrPartition::split(&csr, k);
                let plan = ShardPlan::new(&csr, k);
                assert_eq!(plan.num_shards(), part.num_shards());
                assert_eq!(plan.boundary_edges(&csr), part.boundary_edges());
                for v in g.vertices() {
                    assert_eq!(plan.shard_of(v), part.shard_of(v));
                    assert_eq!(plan.local_vertex(v), part.local_vertex(v));
                    let s = plan.shard_of(v);
                    assert_eq!(plan.global_vertex(s, plan.local_vertex(v)), v);
                }
                for s in 0..part.num_shards() {
                    assert_eq!(plan.vertex_range(s), part.vertex_range(s));
                    let extracted = plan.extract_shard(&csr, s);
                    assert_eq!(extracted.csr, part.shards[s]);
                    assert_eq!(extracted.global_edges, part.global_edges(s));
                }
                assert!(plan.resident_bytes() <= 4 * (part.num_shards() + 1));
            }
        }
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
        let part = CsrPartition::split(&csr, 3);
        let plan = ShardPlan::new(&mapped, 3);
        assert_eq!(plan.boundary_edges(&mapped), part.boundary_edges());
        for s in 0..part.num_shards() {
            assert_eq!(plan.extract_shard(&mapped, s).csr, part.shards[s]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = generators::grid(4, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let part = CsrPartition::split(&csr, 1);
        assert_eq!(part.num_shards(), 1);
        assert!(part.boundary_edges().is_empty());
        assert_eq!(part.boundary_fraction(), 0.0);
        assert_eq!(part.shard(0).to_multigraph(), g);
    }

    #[test]
    fn shards_are_incidence_balanced_on_a_path() {
        let g = generators::path(100);
        let csr = CsrGraph::from_multigraph(&g);
        let part = CsrPartition::split(&csr, 4);
        for s in 0..4 {
            let size = part.vertex_range(s).len();
            assert!((15..=35).contains(&size), "shard {s} has {size} vertices");
        }
        // A path split into 4 contiguous ranges cuts exactly 3 edges.
        assert_eq!(part.boundary_edges().len(), 3);
    }

    #[test]
    fn split_works_on_borrowed_and_empty_inputs() {
        let g = MultiGraph::new(5);
        let csr = CsrGraph::from_multigraph(&g);
        let part = CsrPartition::split(&csr.view(), 2);
        check_partition(&g, &part);
        assert_eq!(part.num_shards(), 2);
        let empty = CsrGraph::from_multigraph(&MultiGraph::new(0));
        let part = CsrPartition::split(&empty, 3);
        assert_eq!(part.num_shards(), 1);
        assert!(part.boundary_edges().is_empty());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        // The low-level splitter clamps (documented); the facade is the
        // layer that rejects k = 0 with a typed error.
        let g = generators::grid(3, 3);
        let csr = CsrGraph::from_multigraph(&g);
        let part = CsrPartition::split(&csr, 0);
        assert_eq!(part.num_shards(), 1);
        assert!(part.boundary_edges().is_empty());
        check_partition(&g, &part);
    }

    #[test]
    fn oversized_k_clamps_to_vertex_count() {
        let g = generators::path(3);
        let csr = CsrGraph::from_multigraph(&g);
        let part = CsrPartition::split(&csr, 50);
        assert_eq!(part.num_shards(), 3);
        assert_eq!(part.boundary_edges().len(), 2);
        check_partition(&g, &part);
    }
}
