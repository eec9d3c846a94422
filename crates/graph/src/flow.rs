//! Dinic maximum-flow solver.
//!
//! This is the exact-computation substrate used by
//! [`density`](crate::density) (exact pseudo-arboricity / maximum density)
//! and [`orientation`](crate::orientation) (exact minimum-out-degree
//! orientations). Capacities are `i64`; the graphs involved are the
//! edge/vertex bipartite gadgets of the Nash-Williams density tests, so the
//! solver is tuned for simplicity and correctness rather than raw speed.

/// Sentinel for "no capacity limit" in gadget constructions.
pub const INF_CAPACITY: i64 = i64::MAX / 4;

#[derive(Clone, Debug)]
struct FlowEdge {
    to: usize,
    cap: i64,
    /// Index of the reverse edge in `to`'s adjacency list.
    rev: usize,
}

/// A max-flow network on `n` nodes solved with Dinic's algorithm.
///
/// ```
/// use forest_graph::FlowNetwork;
/// let mut net = FlowNetwork::new(4);
/// net.add_edge(0, 1, 3);
/// net.add_edge(0, 2, 2);
/// net.add_edge(1, 3, 2);
/// net.add_edge(2, 3, 3);
/// net.add_edge(1, 2, 1);
/// assert_eq!(net.max_flow(0, 3), 5);
/// ```
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    adj: Vec<Vec<FlowEdge>>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl FlowNetwork {
    /// Creates an empty network on `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    /// Adds a directed edge `from -> to` with the given capacity and returns a
    /// handle `(from, index)` that can later be passed to [`Self::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> (usize, usize) {
        assert!(
            from < self.adj.len() && to < self.adj.len(),
            "node out of range"
        );
        assert!(cap >= 0, "capacity must be non-negative");
        let from_idx = self.adj[from].len();
        let to_idx = self.adj[to].len() + usize::from(from == to);
        self.adj[from].push(FlowEdge {
            to,
            cap,
            rev: to_idx,
        });
        self.adj[to].push(FlowEdge {
            to: from,
            cap: 0,
            rev: from_idx,
        });
        (from, from_idx)
    }

    /// Returns the amount of flow routed on the edge identified by `handle`
    /// (only meaningful after [`Self::max_flow`] has been called).
    pub fn flow_on(&self, handle: (usize, usize)) -> i64 {
        let (from, idx) = handle;
        let e = &self.adj[from][idx];
        // Flow pushed equals the capacity moved onto the reverse edge.
        self.adj[e.to][e.rev].cap
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for e in &self.adj[u] {
                if e.cap > 0 && self.level[e.to] < 0 {
                    self.level[e.to] = self.level[u] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: i64) -> i64 {
        if u == t {
            return pushed;
        }
        while self.iter[u] < self.adj[u].len() {
            let i = self.iter[u];
            let (to, cap, rev) = {
                let e = &self.adj[u][i];
                (e.to, e.cap, e.rev)
            };
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, t, pushed.min(cap));
                if d > 0 {
                    self.adj[u][i].cap -= d;
                    self.adj[to][rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Computes the maximum `s`-`t` flow.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either node is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "node out of range"
        );
        let mut flow = 0;
        while self.bfs(s, t) {
            self.iter.fill(0);
            loop {
                let pushed = self.dfs(s, t, INF_CAPACITY);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
        flow
    }

    /// After a call to [`Self::max_flow`], returns the set of nodes reachable
    /// from `s` in the residual network (the source side of a minimum cut).
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for e in &self.adj[u] {
                if e.cap > 0 && !seen[e.to] {
                    seen[e.to] = true;
                    queue.push_back(e.to);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_flow() {
        let mut net = FlowNetwork::new(2);
        let h = net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 1), 5);
        assert_eq!(net.flow_on(h), 5);
    }

    #[test]
    fn diamond_network() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 1);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn classic_textbook_instance() {
        // CLRS-style example with known max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn min_cut_matches_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 2);
        let f = net.max_flow(0, 3);
        assert_eq!(f, 2);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[3]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 1, 1);
        assert_eq!(net.max_flow(0, 1), 3);
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_sink_panics() {
        let mut net = FlowNetwork::new(2);
        net.max_flow(1, 1);
    }
}
