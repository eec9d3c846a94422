//! Locality-improving vertex orderings: BFS and reverse Cuthill–McKee.
//!
//! [`ShardPlan`](crate::ShardPlan) cuts contiguous vertex ranges, which is
//! optimal for banded/grid-like vertex ids and adversarial for random ids:
//! when neighbors carry unrelated identifiers, almost every edge crosses a
//! range boundary. The classical fix from the sparse-matrix world is a
//! cheap bandwidth-reducing reordering — visit the graph by BFS (or its
//! degree-sorted reverse Cuthill–McKee refinement) so that neighbors
//! receive nearby positions, relabel every vertex by its position with
//! [`permute`], *then* cut the relabelled graph into contiguous ranges.
//!
//! The module is built around [`VertexPermutation`], a validated bijection on
//! vertex ids that maps both ways in O(1). **Edge ids round-trip untouched**:
//! [`permute`] relabels vertices but emits edges in their original id order,
//! so edge id `e` means the same edge before and after — a decomposition
//! computed on the permuted graph applies to the original graph without any
//! translation of its per-edge color array.
//!
//! [`ReorderKind`] is the menu the `Decomposer` facade exposes (its
//! `ShardingSpec` knob): [`ReorderKind::Identity`] keeps the input order,
//! [`ReorderKind::Bfs`] / [`ReorderKind::Rcm`] compute an order here. All
//! orders are deterministic functions of the topology.

use crate::csr::{CsrGraph, CsrStorage, OwnedCsr};
use crate::ids::{u32_of, VertexId};
use crate::view::GraphView;
use std::collections::VecDeque;

/// A validated bijection on the vertex ids `0..n`, stored in both directions
/// so [`new_id`](VertexPermutation::new_id) and
/// [`old_id`](VertexPermutation::old_id) are O(1) array reads.
///
/// Permutations relabel **vertices only**; edge ids are deliberately outside
/// their domain (see the [module docs](self)), which is what lets per-edge
/// artifacts (colorings, orientations) round-trip across [`permute`] without
/// translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexPermutation {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<u32>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<u32>,
}

impl VertexPermutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<u32> = (0..u32_of(n)).collect();
        VertexPermutation {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Builds a permutation from a visit order: `order[pos]` is the old id of
    /// the vertex placed at new position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_new_order(order: Vec<u32>) -> Self {
        let n = order.len();
        let mut new_of_old = vec![u32::MAX; n];
        for (pos, &old) in order.iter().enumerate() {
            assert!((old as usize) < n, "vertex {old} out of range 0..{n}");
            assert!(
                new_of_old[old as usize] == u32::MAX,
                "vertex {old} appears twice in the order"
            );
            new_of_old[old as usize] = u32_of(pos);
        }
        VertexPermutation {
            new_of_old,
            old_of_new: order,
        }
    }

    /// Number of vertices the permutation acts on.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the permutation is empty (zero vertices).
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of old vertex `v`.
    pub fn new_id(&self, v: VertexId) -> VertexId {
        VertexId::new(self.new_of_old[v.index()] as usize)
    }

    /// The old vertex behind new id `v`.
    pub fn old_id(&self, v: VertexId) -> VertexId {
        VertexId::new(self.old_of_new[v.index()] as usize)
    }
}

/// Which locality-improving order to compute before splitting a graph into
/// contiguous shards. The facade's `ShardingSpec` carries one of these.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReorderKind {
    /// Keep the input vertex order (the pre-PR-4 behavior; optimal when ids
    /// are already banded, e.g. grids generated row-major).
    #[default]
    Identity,
    /// Plain breadth-first order: neighbors receive nearby positions.
    Bfs,
    /// Reverse Cuthill–McKee: BFS from a pseudo-peripheral start, visiting
    /// neighbors by ascending degree, then reversed — the standard
    /// bandwidth-reduction heuristic of the sparse-matrix literature.
    Rcm,
}

impl ReorderKind {
    /// Computes the order on `g`, or `None` for [`ReorderKind::Identity`]
    /// (callers skip the permutation machinery entirely).
    pub fn order<G: GraphView>(&self, g: &G) -> Option<VertexPermutation> {
        match self {
            ReorderKind::Identity => None,
            ReorderKind::Bfs => Some(bfs_order(g)),
            ReorderKind::Rcm => Some(rcm_order(g)),
        }
    }
}

/// Runs one BFS pass appending every vertex of `start`'s component to
/// `order`, visiting each vertex's neighbors in `neighbor_rank` order
/// (`None` = incidence order). Returns the last vertex popped (an
/// eccentricity witness used by the pseudo-peripheral search).
fn bfs_component<G: GraphView>(
    g: &G,
    start: VertexId,
    seen: &mut [bool],
    order: &mut Vec<u32>,
    sort_by_degree: bool,
    scratch: &mut Vec<VertexId>,
) -> VertexId {
    let mut queue = VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    let mut last = start;
    while let Some(v) = queue.pop_front() {
        order.push(v.raw());
        last = v;
        scratch.clear();
        for u in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                scratch.push(u);
            }
        }
        if sort_by_degree {
            scratch.sort_by_key(|&u| (g.degree(u), u.index()));
        }
        queue.extend(scratch.iter().copied());
    }
    last
}

/// Plain BFS order: components are visited in ascending order of their
/// lowest vertex id, each by breadth-first search in incidence order.
/// Deterministic; `O(n + m)`.
pub fn bfs_order<G: GraphView>(g: &G) -> VertexPermutation {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    for v in g.vertices() {
        if !seen[v.index()] {
            bfs_component(g, v, &mut seen, &mut order, false, &mut scratch);
        }
    }
    VertexPermutation::from_new_order(order)
}

/// Reverse Cuthill–McKee order: per component, start from a pseudo-peripheral
/// vertex (double-BFS from the minimum-degree vertex), BFS visiting neighbors
/// by ascending degree, and finally reverse the whole order. Deterministic;
/// `O(n + m)` plus the per-vertex neighbor sorts.
pub fn rcm_order<G: GraphView>(g: &G) -> VertexPermutation {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut scratch = Vec::new();
    let mut component = Vec::new();
    for v in g.vertices() {
        if seen[v.index()] {
            continue;
        }
        // Pseudo-peripheral start: BFS from the component's minimum-degree
        // vertex, then restart from the far end it finds.
        component.clear();
        bfs_component(g, v, &mut seen, &mut component, false, &mut scratch);
        let start = component
            .iter()
            .map(|&u| VertexId::new(u as usize))
            .min_by_key(|&u| (g.degree(u), u.index()))
            .expect("component is non-empty");
        for &u in &component {
            seen[u as usize] = false;
        }
        let mut probe = Vec::with_capacity(component.len());
        let far = bfs_component(g, start, &mut seen, &mut probe, true, &mut scratch);
        for &u in &probe {
            seen[u as usize] = false;
        }
        bfs_component(g, far, &mut seen, &mut order, true, &mut scratch);
    }
    order.reverse();
    VertexPermutation::from_new_order(order)
}

/// Applies `perm` to a frozen graph by relabelling its arrays directly:
/// row `p` of the result is row `perm.old_id(p)` of `csr`, in the same
/// order, with every neighbor mapped through [`VertexPermutation::new_id`];
/// edge ids are kept, and edge `e`'s endpoints are `csr`'s mapped in the
/// same order. `O(n + m)`, no re-sort: on a freeze of a
/// [`MultiGraph`](crate::MultiGraph) this equals freezing the relabelled
/// multigraph, and on any valid CSR a [`ShardPlan`](crate::ShardPlan) of
/// the result cuts along `perm`'s order.
///
/// # Panics
///
/// Panics if `perm.len() != csr.num_vertices()`.
pub fn permute<S: CsrStorage>(csr: &CsrGraph<S>, perm: &VertexPermutation) -> OwnedCsr {
    assert_eq!(
        perm.len(),
        csr.num_vertices(),
        "permutation length must match the vertex count"
    );
    let n = csr.num_vertices();
    let slots = 2 * csr.num_edges();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::with_capacity(slots);
    let mut edge_ids = Vec::with_capacity(slots);
    offsets.push(0u32);
    for p in 0..n {
        for (u, e) in csr.incidences(perm.old_id(VertexId::new(p))) {
            neighbors.push(perm.new_id(u).raw());
            edge_ids.push(e.raw());
        }
        offsets.push(u32_of(neighbors.len()));
    }
    let mut endpoints = Vec::with_capacity(slots);
    for (_, u, v) in csr.edges() {
        endpoints.push(perm.new_id(u).raw());
        endpoints.push(perm.new_id(v).raw());
    }
    OwnedCsr::from_raw_parts(offsets, neighbors, edge_ids, endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::ids::EdgeId;
    use crate::multigraph::MultiGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bandwidth<G: GraphView>(g: &G, perm: &VertexPermutation) -> usize {
        g.edges()
            .map(|(_, u, v)| {
                (perm.new_id(u).index() as isize - perm.new_id(v).index() as isize).unsigned_abs()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn identity_round_trips() {
        let p = VertexPermutation::identity(5);
        for i in 0..5 {
            let v = VertexId::new(i);
            assert_eq!(p.new_id(v), v);
            assert_eq!(p.old_id(v), v);
        }
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_order_is_rejected() {
        VertexPermutation::from_new_order(vec![0, 0, 1]);
    }

    #[test]
    fn bfs_and_rcm_are_permutations() {
        let mut rng = StdRng::seed_from_u64(3);
        for g in [
            generators::path(20),
            generators::grid(5, 7),
            generators::planted_forest_union(40, 3, &mut rng),
            MultiGraph::new(0),
            MultiGraph::new(4),
        ] {
            for perm in [bfs_order(&g), rcm_order(&g)] {
                assert_eq!(perm.len(), g.num_vertices());
                let mut hit = vec![false; g.num_vertices()];
                for v in g.vertices() {
                    let new = perm.new_id(v);
                    assert!(!hit[new.index()]);
                    hit[new.index()] = true;
                    assert_eq!(perm.old_id(new), v);
                }
            }
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_of_a_shuffled_grid() {
        // A grid whose vertex ids are scrambled: the identity order has huge
        // bandwidth, RCM restores a banded layout.
        let g = generators::grid(12, 12);
        let n = g.num_vertices();
        let mut rng = StdRng::seed_from_u64(9);
        let mut shuffle: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..i + 1);
            shuffle.swap(i, j);
        }
        let scramble = VertexPermutation::from_new_order(shuffle);
        let scrambled = permute(&crate::CsrGraph::from_multigraph(&g), &scramble);
        let identity = VertexPermutation::identity(n);
        let rcm = rcm_order(&scrambled);
        assert!(
            bandwidth(&scrambled, &rcm) < bandwidth(&scrambled, &identity) / 2,
            "rcm {} vs identity {}",
            bandwidth(&scrambled, &rcm),
            bandwidth(&scrambled, &identity)
        );
    }

    #[test]
    fn permute_preserves_edge_ids_and_structure() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::planted_forest_union(30, 2, &mut rng);
        let csr = crate::CsrGraph::from_multigraph(&g);
        let perm = rcm_order(&csr);
        let permuted = permute(&csr, &perm);
        assert_eq!(permuted.num_vertices(), g.num_vertices());
        assert_eq!(permuted.num_edges(), g.num_edges());
        for (e, u, v) in csr.edges() {
            let (pu, pv) = permuted.endpoints(e);
            assert_eq!((pu, pv), (perm.new_id(u), perm.new_id(v)));
        }
        // Degrees are carried along with the relabeling.
        for v in g.vertices() {
            assert_eq!(permuted.degree(perm.new_id(v)), g.degree(v));
        }
    }

    #[test]
    fn permute_keeps_each_rows_order() {
        // Vertex 0's row lists edge 1 before edge 0, which no freeze of a
        // MultiGraph does: relabelling must keep that order, not re-sort.
        let csr = OwnedCsr::from_raw_parts(
            vec![0, 2, 3, 4],
            vec![2, 1, 0, 0],
            vec![1, 0, 0, 1],
            vec![0, 1, 0, 2],
        );
        assert_eq!(permute(&csr, &VertexPermutation::identity(3)), csr);
        let swap = VertexPermutation::from_new_order(vec![2, 0, 1]);
        let permuted = permute(&csr, &swap);
        let row: Vec<_> = permuted.incidences(swap.new_id(VertexId::new(0))).collect();
        assert_eq!(
            row,
            [
                (swap.new_id(VertexId::new(2)), EdgeId::new(1)),
                (swap.new_id(VertexId::new(1)), EdgeId::new(0)),
            ]
        );
    }
}
