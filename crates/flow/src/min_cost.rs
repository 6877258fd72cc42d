//! Minimum-cost maximum-flow (successive shortest augmenting paths).
//!
//! The paper notes (Section 4) that the offline guide can additionally
//! minimise total travel cost by weighting worker→task edges with the travel
//! time and running a mincost-maxflow algorithm. This module provides that
//! solver; `ftoa-core::guide` exposes it behind the `GuideObjective::MinCost`
//! option, and [`crate::BipartiteGraph::min_cost_max_matching`] solves the
//! payoff-optimal batch rounds with it.
//!
//! Implementation: Bellman–Ford/SPFA-based successive shortest paths on the
//! residual network, which handles the (non-negative) travel costs used here
//! and tolerates the zero-cost source/sink edges.
//!
//! Layout: [`McmfNetwork`] only records its edges. A solve lays them out in
//! compressed sparse row form, so that the arcs leaving a node are
//! contiguous and in the order its edges were added, and keeps one distance
//! array, one in-queue flag array, one parent-arc array and one queue for
//! all of its shortest-path searches.

use std::collections::VecDeque;

/// Result of a min-cost max-flow computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmfResult {
    /// Value of the maximum flow.
    pub flow: i64,
    /// Total cost of that flow (sum over edges of `flow_e * cost_e`).
    pub cost: i64,
    /// Flow routed through each forward edge, indexed by insertion order of
    /// [`McmfNetwork::add_edge`].
    pub edge_flows: Vec<i64>,
}

/// The input of a min-cost max-flow solve: nodes and cost-carrying edges.
/// (Kept separate from [`crate::FlowNetwork`] so that the guide's max-flow
/// network, the largest in a replay, carries no cost column.)
#[derive(Debug, Clone, Default)]
pub struct McmfNetwork {
    num_nodes: usize,
    /// Edges in insertion order, as `(from, to, capacity, cost)`.
    edges: Vec<(u32, u32, i64, i64)>,
}

impl McmfNetwork {
    /// Create a network with `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many nodes");
        Self { num_nodes: n, edges: Vec::new() }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add a directed edge with capacity and non-negative cost; returns its
    /// public index (dense, in insertion order).
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        assert!(from < self.num_nodes && to < self.num_nodes, "edge endpoint out of range");
        assert!(cap >= 0, "negative capacity");
        assert!(cost >= 0, "negative cost not supported");
        assert!(2 * (self.edges.len() + 1) <= u32::MAX as usize, "too many edges");
        self.edges.push((from as u32, to as u32, cap, cost));
        self.edges.len() - 1
    }
}

/// The residual network of one solve. The arcs leaving node `v` are
/// `first[v]..first[v + 1]`: for each edge touching `v`, in insertion
/// order, its forward arc when `v` is the tail and its twin when `v` is the
/// head. A twin starts with capacity 0 and the negated cost.
struct Residual {
    first: Vec<usize>,
    head: Vec<u32>,
    twin: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    /// The forward arc of each edge.
    edge_arc: Vec<u32>,
}

impl Residual {
    fn lay_out(net: &McmfNetwork) -> Self {
        let n = net.num_nodes;
        let mut first = vec![0usize; n + 1];
        for &(from, to, _, _) in &net.edges {
            first[from as usize + 1] += 1;
            first[to as usize + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let arcs = first[n];
        let mut g = Residual {
            head: vec![0; arcs],
            twin: vec![0; arcs],
            cap: vec![0; arcs],
            cost: vec![0; arcs],
            edge_arc: Vec::with_capacity(net.edges.len()),
            first,
        };
        let mut next = g.first[..n].to_vec();
        for &(from, to, cap, cost) in &net.edges {
            let (from, to) = (from as usize, to as usize);
            let fwd = next[from];
            next[from] += 1;
            let rev = next[to];
            next[to] += 1;
            g.head[fwd] = to as u32;
            g.twin[fwd] = rev as u32;
            g.cap[fwd] = cap;
            g.cost[fwd] = cost;
            g.head[rev] = from as u32;
            g.twin[rev] = fwd as u32;
            g.cost[rev] = -cost;
            g.edge_arc.push(fwd as u32);
        }
        g
    }

    /// The tail of arc `a`.
    fn tail(&self, a: usize) -> usize {
        self.head[self.twin[a] as usize] as usize
    }
}

/// Compute the minimum-cost maximum flow from `source` to `sink`.
pub fn min_cost_max_flow(net: &McmfNetwork, source: usize, sink: usize) -> McmfResult {
    assert!(source < net.num_nodes() && sink < net.num_nodes(), "source/sink out of range");
    let n = net.num_nodes();
    let mut flow = 0i64;
    let mut cost = 0i64;
    if source == sink {
        return McmfResult { flow, cost, edge_flows: vec![0; net.edges.len()] };
    }
    let mut g = Residual::lay_out(net);
    let mut dist = vec![i64::MAX; n];
    // Every search empties the queue, which clears every flag it set, and
    // reads a parent arc only on nodes it reached, so neither array needs
    // resetting between searches.
    let mut in_queue = vec![false; n];
    let mut parent_arc = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    loop {
        // SPFA to find the cheapest augmenting path in the residual graph.
        dist.fill(i64::MAX);
        dist[source] = 0;
        queue.push_back(source);
        in_queue[source] = true;
        while let Some(v) = queue.pop_front() {
            in_queue[v] = false;
            for a in g.first[v]..g.first[v + 1] {
                if g.cap[a] > 0 {
                    let u = g.head[a] as usize;
                    let nd = dist[v] + g.cost[a];
                    if nd < dist[u] {
                        dist[u] = nd;
                        parent_arc[u] = a;
                        if !in_queue[u] {
                            in_queue[u] = true;
                            queue.push_back(u);
                        }
                    }
                }
            }
        }
        if dist[sink] == i64::MAX {
            break;
        }
        // Bottleneck along the path.
        let mut bottleneck = i64::MAX;
        let mut v = sink;
        while v != source {
            let a = parent_arc[v];
            bottleneck = bottleneck.min(g.cap[a]);
            v = g.tail(a);
        }
        // Augment.
        let mut v = sink;
        while v != source {
            let a = parent_arc[v];
            g.cap[a] -= bottleneck;
            g.cap[g.twin[a] as usize] += bottleneck;
            v = g.tail(a);
        }
        flow += bottleneck;
        cost += bottleneck * dist[sink];
    }
    // A twin's residual capacity is the flow pushed along its forward arc.
    let edge_flows = g.edge_arc.iter().map(|&a| g.cap[g.twin[a as usize] as usize]).collect();
    McmfResult { flow, cost, edge_flows }
}

/// The adjacency-list implementation the CSR solver replaced, kept as the
/// oracle it is checked against: one `Vec` of arc ids per node, and fresh
/// search buffers for every augmenting path.
#[cfg(test)]
fn min_cost_max_flow_adjacency(
    num_nodes: usize,
    edges: &[(usize, usize, i64, i64)],
    source: usize,
    sink: usize,
) -> McmfResult {
    let mut to = Vec::new();
    let mut cap = Vec::new();
    let mut arc_cost = Vec::new();
    let mut adj = vec![Vec::new(); num_nodes];
    for &(from, head, c, w) in edges {
        let arc = to.len();
        to.extend([head, from]);
        cap.extend([c, 0]);
        arc_cost.extend([w, -w]);
        adj[from].push(arc);
        adj[head].push(arc + 1);
    }
    let mut flow = 0i64;
    let mut cost = 0i64;
    if source == sink {
        return McmfResult { flow, cost, edge_flows: vec![0; edges.len()] };
    }
    loop {
        let mut dist = vec![i64::MAX; num_nodes];
        let mut in_queue = vec![false; num_nodes];
        let mut parent_arc = vec![usize::MAX; num_nodes];
        dist[source] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        in_queue[source] = true;
        while let Some(v) = queue.pop_front() {
            in_queue[v] = false;
            for &arc in &adj[v] {
                if cap[arc] > 0 {
                    let u = to[arc];
                    let nd = dist[v] + arc_cost[arc];
                    if nd < dist[u] {
                        dist[u] = nd;
                        parent_arc[u] = arc;
                        if !in_queue[u] {
                            in_queue[u] = true;
                            queue.push_back(u);
                        }
                    }
                }
            }
        }
        if dist[sink] == i64::MAX {
            break;
        }
        let mut bottleneck = i64::MAX;
        let mut v = sink;
        while v != source {
            let arc = parent_arc[v];
            bottleneck = bottleneck.min(cap[arc]);
            v = to[arc ^ 1];
        }
        let mut v = sink;
        while v != source {
            let arc = parent_arc[v];
            cap[arc] -= bottleneck;
            cap[arc ^ 1] += bottleneck;
            v = to[arc ^ 1];
        }
        flow += bottleneck;
        cost += bottleneck * dist[sink];
    }
    let edge_flows = (0..edges.len()).map(|e| cap[2 * e + 1]).collect();
    McmfResult { flow, cost, edge_flows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefers_cheaper_path_at_equal_flow() {
        // Two disjoint s->t paths of capacity 1: costs 5 and 1. Max flow 2,
        // min cost 6.
        let mut g = McmfNetwork::with_nodes(4);
        let e_a = g.add_edge(0, 1, 1, 5);
        g.add_edge(1, 3, 1, 0);
        let e_b = g.add_edge(0, 2, 1, 1);
        g.add_edge(2, 3, 1, 0);
        let r = min_cost_max_flow(&g, 0, 3);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 6);
        assert_eq!(r.edge_flows[e_a], 1);
        assert_eq!(r.edge_flows[e_b], 1);
    }

    #[test]
    fn cheap_path_is_used_first_when_capacity_limited() {
        // Single unit of demand, two paths with costs 1 and 10 — only the
        // cheap one carries flow.
        let mut g = McmfNetwork::with_nodes(4);
        let cheap = g.add_edge(0, 1, 1, 1);
        g.add_edge(1, 3, 1, 0);
        let dear = g.add_edge(0, 2, 1, 10);
        g.add_edge(2, 3, 1, 0);
        // Restrict the sink side to one unit total.
        let mut g2 = McmfNetwork::with_nodes(5);
        let cheap2 = g2.add_edge(0, 1, 1, 1);
        g2.add_edge(1, 3, 1, 0);
        let dear2 = g2.add_edge(0, 2, 1, 10);
        g2.add_edge(2, 3, 1, 0);
        g2.add_edge(3, 4, 1, 0);
        let r2 = min_cost_max_flow(&g2, 0, 4);
        assert_eq!(r2.flow, 1);
        assert_eq!(r2.cost, 1);
        assert_eq!(r2.edge_flows[cheap2], 1);
        assert_eq!(r2.edge_flows[dear2], 0);
        // Sanity: the unrestricted version uses both.
        let r = min_cost_max_flow(&g, 0, 3);
        assert_eq!(r.flow, 2);
        assert_eq!(r.edge_flows[cheap], 1);
        assert_eq!(r.edge_flows[dear], 1);
    }

    #[test]
    fn assignment_instance_picks_min_cost_perfect_matching() {
        // 2 workers, 2 tasks. Costs: w0-r0=1, w0-r1=5, w1-r0=5, w1-r1=1.
        // Min-cost perfect matching = 2 (diagonal).
        let mut g = McmfNetwork::with_nodes(6);
        let s = 0;
        let t = 5;
        g.add_edge(s, 1, 1, 0);
        g.add_edge(s, 2, 1, 0);
        g.add_edge(3, t, 1, 0);
        g.add_edge(4, t, 1, 0);
        g.add_edge(1, 3, 1, 1);
        g.add_edge(1, 4, 1, 5);
        g.add_edge(2, 3, 1, 5);
        g.add_edge(2, 4, 1, 1);
        let r = min_cost_max_flow(&g, s, t);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 2);
    }

    #[test]
    fn zero_flow_when_no_path() {
        let mut g = McmfNetwork::with_nodes(3);
        g.add_edge(0, 1, 5, 1);
        let r = min_cost_max_flow(&g, 0, 2);
        assert_eq!(r.flow, 0);
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn degenerate_source_equals_sink() {
        let mut g = McmfNetwork::with_nodes(2);
        g.add_edge(0, 1, 1, 1);
        let r = min_cost_max_flow(&g, 0, 0);
        assert_eq!(r.flow, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The CSR solver routes exactly the flow the adjacency-list solver
        /// routed: same value, cost and per-edge flows, on random networks
        /// with parallel edges, zero costs and positive costs.
        #[test]
        fn csr_solver_matches_the_adjacency_oracle(
            n in 2usize..9,
            raw in proptest::collection::vec((0usize..9, 0usize..9, 0i64..4, 0i64..6), 0..40)
        ) {
            let edges: Vec<(usize, usize, i64, i64)> = raw
                .iter()
                .map(|&(from, to, cap, cost)| (from % n, to % n, cap, (cost - 2).max(0)))
                .filter(|&(from, to, _, _)| from != to)
                .collect();
            let mut net = McmfNetwork::with_nodes(n);
            for &(from, to, cap, cost) in &edges {
                net.add_edge(from, to, cap, cost);
            }
            let csr = min_cost_max_flow(&net, 0, n - 1);
            prop_assert_eq!(csr, min_cost_max_flow_adjacency(n, &edges, 0, n - 1));
        }
    }
}
