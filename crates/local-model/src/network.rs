//! A faithful synchronous message-passing simulator for the LOCAL model.
//!
//! Each vertex of the communication graph holds a private state and, in each
//! round, (1) computes one message per incident edge from its state, (2) the
//! messages are exchanged along the edges, and (3) each vertex updates its
//! state from the received messages. Message size is unbounded, exactly as in
//! the LOCAL model. The simulator counts rounds; algorithms that are simple
//! enough to express vertex-by-vertex (H-partition, Cole–Vishkin, the random
//! coin phases) run on this engine, which keeps their round counts honest
//! rather than formula-derived.
//!
//! # Topology and message plumbing
//!
//! The network freezes its communication graph into a [`CsrGraph`] at
//! construction. Messages live in one flat array with a slot per directed
//! incidence (`2m` slots total): composing writes slot-by-slot in CSR order
//! and delivery is a fixed permutation of that array
//! ([`CsrGraph::mirror_slots`]), so a round performs zero per-vertex
//! allocations.

use forest_graph::{CsrGraph, CsrStorage, EdgeId, GraphView, VertexId};

/// Identifier material available to a vertex: its id and a globally unique
/// `O(log n)`-bit label (here simply the vertex index, as permitted by the
/// model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// The vertex this node lives on.
    pub vertex: VertexId,
    /// Unique identifier (index-based).
    pub unique_id: u64,
    /// Degree of the vertex in the communication graph.
    pub degree: usize,
}

/// A synchronous network simulator over a frozen [`CsrGraph`] topology.
///
/// `S` is the per-node state; `St` is where the frozen topology's arrays
/// live ([`CsrStorage`]: owned by default, but a borrowed shard view or an
/// mmap-backed graph freezes just as well via [`SyncNetwork::from_csr`]).
/// The caller drives the simulation with [`SyncNetwork::round`], one
/// synchronous round per call.
#[derive(Debug)]
pub struct SyncNetwork<S, St: CsrStorage = Vec<u32>> {
    csr: CsrGraph<St>,
    /// Delivery permutation: slot `i` (sender side) lands in slot
    /// `mirror[i]` (receiver side).
    mirror: Vec<u32>,
    states: Vec<S>,
    rounds: usize,
}

impl<S> SyncNetwork<S> {
    /// Creates a network over any graph view, freezing the topology to an
    /// owned CSR; each vertex state is produced by `init`.
    pub fn new<G, F>(graph: &G, init: F) -> Self
    where
        G: GraphView,
        F: FnMut(NodeInfo) -> S,
    {
        Self::from_csr(CsrGraph::from_view(graph), init)
    }
}

impl<S, St: CsrStorage> SyncNetwork<S, St> {
    /// Creates a network over an already-frozen topology on any storage
    /// (owned, borrowed shard view, or mmap-backed).
    pub fn from_csr<F>(csr: CsrGraph<St>, mut init: F) -> Self
    where
        F: FnMut(NodeInfo) -> S,
    {
        let states = csr
            .vertices()
            .map(|v| {
                init(NodeInfo {
                    vertex: v,
                    unique_id: v.index() as u64,
                    degree: csr.degree(v),
                })
            })
            .collect();
        let mirror = csr.mirror_slots();
        SyncNetwork {
            csr,
            mirror,
            states,
            rounds: 0,
        }
    }

    /// The frozen communication topology.
    pub fn graph(&self) -> &CsrGraph<St> {
        &self.csr
    }

    /// Read-only access to every node state.
    #[cfg(test)]
    fn states(&self) -> &[S] {
        &self.states
    }

    /// Read-only access to one node state.
    pub fn state(&self, v: VertexId) -> &S {
        &self.states[v.index()]
    }

    /// Number of synchronous rounds executed so far.
    #[cfg(test)]
    fn rounds_executed(&self) -> usize {
        self.rounds
    }

    /// Executes one synchronous round.
    ///
    /// * `compose` is called once per (vertex, incident edge), in CSR slot
    ///   order, and produces the message sent along that edge by that vertex.
    /// * `update` is called once per vertex with all messages received this
    ///   round as `(edge, neighbor, message)` triples, ordered by the
    ///   receiver's own incidence order, and mutates the state.
    pub fn round<M, FCompose, FUpdate>(&mut self, mut compose: FCompose, mut update: FUpdate)
    where
        FCompose: FnMut(VertexId, &S, EdgeId, VertexId) -> M,
        FUpdate: FnMut(VertexId, &mut S, &[(EdgeId, VertexId, M)]),
    {
        // Compose all messages from the snapshot of current states into one
        // flat slot-indexed outbox.
        let slots = self.csr.num_incidences();
        let mut outbox: Vec<Option<M>> = Vec::with_capacity(slots);
        for v in self.csr.vertices() {
            let state = &self.states[v.index()];
            for (neighbor, edge) in self.csr.incidences(v) {
                outbox.push(Some(compose(v, state, edge, neighbor)));
            }
        }
        // Deliver and update, reusing one inbox buffer across vertices.
        let mut inbox: Vec<(EdgeId, VertexId, M)> = Vec::new();
        for v in self.csr.vertices() {
            inbox.clear();
            for slot in self.csr.incidence_range(v) {
                let msg = outbox[self.mirror[slot] as usize]
                    .take()
                    .expect("each slot is delivered exactly once");
                inbox.push((self.csr.slot_edge(slot), self.csr.slot_neighbor(slot), msg));
            }
            update(v, &mut self.states[v.index()], &inbox);
        }
        self.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;

    #[test]
    fn node_info_carries_degrees() {
        let g = generators::star(4);
        let net = SyncNetwork::new(&g, |info| info.degree);
        assert_eq!(*net.state(VertexId::new(0)), 4);
        assert_eq!(*net.state(VertexId::new(1)), 1);
        assert_eq!(net.rounds_executed(), 0);
        assert_eq!(net.graph().num_edges(), 4);
    }

    #[test]
    fn flooding_computes_bfs_distances() {
        // Each node keeps its best-known distance to vertex 0; one round of
        // flooding per BFS layer.
        let g = generators::path(6);
        let mut net = SyncNetwork::new(&g, |info| {
            if info.vertex.index() == 0 {
                Some(0usize)
            } else {
                None
            }
        });
        for _ in 0..5 {
            net.round(
                |_, state, _, _| *state,
                |_, state, inbox| {
                    for (_, _, msg) in inbox {
                        if let Some(d) = msg {
                            let candidate = d + 1;
                            if state.is_none() || state.unwrap() > candidate {
                                *state = Some(candidate);
                            }
                        }
                    }
                },
            );
        }
        assert_eq!(net.rounds_executed(), 5);
        for (i, s) in net.states().iter().enumerate() {
            assert_eq!(*s, Some(i));
        }
    }

    #[test]
    fn max_degree_via_one_round() {
        // A single LOCAL round suffices for every vertex to learn the maximum
        // degree in its 1-neighborhood.
        let g = generators::star(5);
        let mut net = SyncNetwork::new(&g, |info| info.degree);
        net.round(
            |_, state, _, _| *state,
            |_, state, inbox| {
                let best = inbox.iter().map(|(_, _, d)| *d).max().unwrap_or(0);
                *state = (*state).max(best);
            },
        );
        assert!(net.states().iter().all(|&d| d == 5));
        assert_eq!(net.rounds_executed(), 1);
    }

    /// One round of a nontrivial deterministic aggregation that is
    /// sensitive to message-to-edge attribution.
    fn gossip_round(net: &mut SyncNetwork<u64>) {
        let compose = |v: VertexId, state: &u64, e: EdgeId, u: VertexId| {
            state
                .wrapping_mul(31)
                .wrapping_add(e.index() as u64)
                .wrapping_add((v.index() as u64) << 8)
                .wrapping_add((u.index() as u64) << 4)
        };
        let update = |_: VertexId, state: &mut u64, inbox: &[(EdgeId, VertexId, u64)]| {
            for (e, u, m) in inbox {
                *state = state
                    .wrapping_mul(1_000_003)
                    .wrapping_add(*m)
                    .wrapping_add(e.index() as u64 ^ ((u.index() as u64) << 16));
            }
        };
        net.round(compose, update);
    }

    #[test]
    fn from_csr_matches_new() {
        let g = generators::grid(4, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let a = SyncNetwork::new(&g, |info| info.degree);
        let b = SyncNetwork::from_csr(csr, |info| info.degree);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn borrowed_storage_runs_bit_identically() {
        // The freeze path accepts any CsrStorage: a zero-copy borrowed view
        // produces the same rounds as the owned topology.
        let g = generators::grid(5, 4);
        let csr = CsrGraph::from_multigraph(&g);
        let mut owned = SyncNetwork::from_csr(csr.clone(), |info| info.unique_id);
        let mut borrowed = SyncNetwork::from_csr(csr.view(), |info| info.unique_id);
        for _ in 0..4 {
            gossip_round(&mut owned);
            let compose = |v: VertexId, state: &u64, e: EdgeId, u: VertexId| {
                state
                    .wrapping_mul(31)
                    .wrapping_add(e.index() as u64)
                    .wrapping_add((v.index() as u64) << 8)
                    .wrapping_add((u.index() as u64) << 4)
            };
            let update = |_: VertexId, state: &mut u64, inbox: &[(EdgeId, VertexId, u64)]| {
                for (e, u, m) in inbox {
                    *state = state
                        .wrapping_mul(1_000_003)
                        .wrapping_add(*m)
                        .wrapping_add(e.index() as u64 ^ ((u.index() as u64) << 16));
                }
            };
            borrowed.round(compose, update);
            assert_eq!(owned.states(), borrowed.states());
        }
    }
}
