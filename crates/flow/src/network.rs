//! Residual flow network with integer capacities.

use std::ops::Range;

/// Index of a node in a [`FlowNetwork`].
pub type NodeId = usize;

/// Index of a forward edge in a [`FlowNetwork`]: edges are numbered densely
/// in the order [`FlowNetwork::add_edge`] created them.
pub type EdgeId = usize;

/// Index of an arc (a forward edge or its residual twin) in the network's
/// compressed adjacency. Arcs leaving one node are contiguous.
pub(crate) type ArcId = usize;

/// A flow network stored in compressed sparse row (CSR) form.
///
/// Every call to [`FlowNetwork::add_edge`] creates a forward arc with the
/// given capacity and a residual twin with capacity 0; pushing flow along one
/// decrements its capacity and increments its twin's. Since the twin starts
/// at 0, the flow on a forward arc is its twin's residual capacity and the
/// original capacity is the sum of the two, so no copy of the capacities is
/// kept.
///
/// Layout: the arcs leaving node `v` are `first[v]..first[v + 1]`, in the
/// order the edges touching `v` were added (a forward arc when `v` is the
/// tail, a twin when it is the head). Per arc the network stores a `u32`
/// head, a `u32` twin index and an `i64` residual capacity: 16 bytes, so
/// 32 bytes per edge plus 4 for the edge-to-arc map. Edges are appended to a
/// pending list and laid out in one counting-sort pass when a solver first
/// needs the arcs; edges added after that are merged in the same way, after
/// each node's existing arcs.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    /// Offsets into the arc arrays, one per node plus a final end offset.
    first: Vec<usize>,
    head: Vec<u32>,
    twin: Vec<u32>,
    cap: Vec<i64>,
    /// The forward arc of each laid-out edge.
    edge_arc: Vec<u32>,
    /// Edges added since the last layout, as `(from, to, capacity)`.
    pending: Vec<(u32, u32, i64)>,
}

impl Default for FlowNetwork {
    fn default() -> Self {
        Self::with_nodes(0)
    }
}

impl FlowNetwork {
    /// Create a network with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many nodes");
        Self {
            first: vec![0; n + 1],
            head: Vec::new(),
            twin: Vec::new(),
            cap: Vec::new(),
            edge_arc: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a new node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        assert!(self.num_nodes() < u32::MAX as usize, "too many nodes");
        self.first.push(self.head.len());
        self.num_nodes() - 1
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of (forward) edges; residual twins are not counted.
    pub fn num_edges(&self) -> usize {
        self.edge_arc.len() + self.pending.len()
    }

    /// Add a directed edge `from -> to` with the given capacity and return
    /// its id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: i64) -> EdgeId {
        let n = self.num_nodes();
        assert!(from < n && to < n, "edge endpoint out of range");
        assert!(cap >= 0, "negative capacity");
        assert!(2 * (self.num_edges() + 1) <= u32::MAX as usize, "too many edges");
        self.pending.push((from as u32, to as u32, cap));
        self.num_edges() - 1
    }

    /// The flow currently routed through an edge.
    pub fn flow_on(&self, e: EdgeId) -> i64 {
        match self.laid_out_arc(e) {
            Some(a) => self.cap[self.twin[a] as usize],
            None => 0,
        }
    }

    /// Remaining capacity of an edge in its forward direction.
    pub fn residual_capacity(&self, e: EdgeId) -> i64 {
        self.original_capacity(e) - self.flow_on(e)
    }

    /// Original capacity of an edge.
    pub fn original_capacity(&self, e: EdgeId) -> i64 {
        match self.laid_out_arc(e) {
            Some(a) => self.cap[a] + self.cap[self.twin[a] as usize],
            None => self.pending[e - self.edge_arc.len()].2,
        }
    }

    /// Tail and head of an edge.
    fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        match self.laid_out_arc(e) {
            Some(a) => (self.arc_head(self.arc_twin(a)), self.arc_head(a)),
            None => {
                let (from, to, _) = self.pending[e - self.edge_arc.len()];
                (from as usize, to as usize)
            }
        }
    }

    /// Reset all flow to zero, restoring original capacities.
    pub fn reset_flow(&mut self) {
        for &a in &self.edge_arc {
            let (a, t) = (a as usize, self.twin[a as usize] as usize);
            self.cap[a] += self.cap[t];
            self.cap[t] = 0;
        }
    }

    /// Total flow out of `source` minus flow into it (i.e. the value of the
    /// current flow if `source` is the flow source).
    pub fn flow_value(&self, source: NodeId) -> i64 {
        self.iter_forward_edges()
            .map(|(from, to, _, flow)| {
                i64::from(from == source) * flow - i64::from(to == source) * flow
            })
            .sum()
    }

    /// Verify flow conservation at every node except `source` and `sink` and
    /// that no edge exceeds its capacity. Intended for tests and debugging.
    pub fn check_flow_conservation(&self, source: NodeId, sink: NodeId) -> bool {
        let n = self.num_nodes();
        let mut balance = vec![0i64; n];
        for (from, to, cap, f) in self.iter_forward_edges() {
            if f < 0 || f > cap {
                return false;
            }
            balance[from] -= f;
            balance[to] += f;
        }
        (0..n).all(|v| v == source || v == sink || balance[v] == 0)
    }

    /// Iterate over edges in creation order as `(from, to, capacity, flow)`
    /// tuples.
    pub fn iter_forward_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, i64, i64)> + '_ {
        (0..self.num_edges()).map(move |e| {
            let (from, to) = self.edge_endpoints(e);
            (from, to, self.original_capacity(e), self.flow_on(e))
        })
    }

    /// The arcs leaving `v`. Only meaningful once the network is laid out
    /// (every solver lays it out first).
    pub(crate) fn arcs(&self, v: NodeId) -> Range<ArcId> {
        self.first[v]..self.first[v + 1]
    }

    /// Head (target node) of an arc.
    pub(crate) fn arc_head(&self, a: ArcId) -> NodeId {
        self.head[a] as usize
    }

    /// The residual twin of an arc.
    pub(crate) fn arc_twin(&self, a: ArcId) -> ArcId {
        self.twin[a] as usize
    }

    /// Residual capacity of an arc.
    pub(crate) fn arc_residual(&self, a: ArcId) -> i64 {
        self.cap[a]
    }

    /// Push `amount` units of flow along arc `a` (and pull them back on its
    /// twin). Used by the max-flow algorithms.
    pub(crate) fn push(&mut self, a: ArcId, amount: i64) {
        debug_assert!(amount >= 0 && amount <= self.cap[a]);
        self.cap[a] -= amount;
        let t = self.twin[a] as usize;
        self.cap[t] += amount;
    }

    /// Has every edge been laid out into the arc arrays?
    pub(crate) fn is_laid_out(&self) -> bool {
        self.pending.is_empty()
    }

    fn laid_out_arc(&self, e: EdgeId) -> Option<ArcId> {
        assert!(e < self.num_edges(), "edge id out of range");
        self.edge_arc.get(e).map(|&a| a as usize)
    }

    /// Lay the pending edges out into the arc arrays: each node keeps its
    /// existing arcs (with their residual capacities) and gets its new arcs
    /// appended in creation order.
    pub(crate) fn lay_out(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.num_nodes();
        // New offsets: old degree plus the pending arcs of each node.
        let mut first = vec![0usize; n + 1];
        for v in 0..n {
            first[v + 1] = self.first[v + 1] - self.first[v];
        }
        for &(from, to, _) in &self.pending {
            first[from as usize + 1] += 1;
            first[to as usize + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let arcs = first[n];
        let mut head = vec![0u32; arcs];
        let mut twin = vec![0u32; arcs];
        let mut cap = vec![0i64; arcs];
        // Existing arcs move by their node's shift; new arcs follow them.
        let moved = |old: usize| {
            let owner = self.head[self.twin[old] as usize] as usize;
            first[owner] + (old - self.first[owner])
        };
        for old in 0..self.head.len() {
            let new = moved(old);
            head[new] = self.head[old];
            twin[new] = moved(self.twin[old] as usize) as u32;
            cap[new] = self.cap[old];
        }
        for a in &mut self.edge_arc {
            *a = moved(*a as usize) as u32;
        }
        let mut next: Vec<usize> =
            (0..n).map(|v| first[v] + (self.first[v + 1] - self.first[v])).collect();
        self.edge_arc.reserve_exact(self.pending.len());
        for &(from, to, c) in &self.pending {
            let (from, to) = (from as usize, to as usize);
            let fwd = next[from];
            next[from] += 1;
            let rev = next[to];
            next[to] += 1;
            head[fwd] = to as u32;
            twin[fwd] = rev as u32;
            cap[fwd] = c;
            head[rev] = from as u32;
            twin[rev] = fwd as u32;
            self.edge_arc.push(fwd as u32);
        }
        self.pending = Vec::new();
        self.first = first;
        self.head = head;
        self.twin = twin;
        self.cap = cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_creates_residual_twin() {
        let mut g = FlowNetwork::with_nodes(2);
        let e = g.add_edge(0, 1, 5);
        assert_eq!(e, 0);
        assert_eq!(g.residual_capacity(e), 5);
        assert_eq!(g.edge_endpoints(e), (0, 1));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_nodes(), 2);
        g.lay_out();
        let a = g.arcs(0).start;
        let t = g.arc_twin(a);
        assert_eq!((g.arc_residual(a), g.arc_residual(t)), (5, 0));
        assert_eq!((g.arc_head(a), g.arc_head(t)), (1, 0));
        assert_eq!(g.arc_twin(t), a);
        assert_eq!(g.residual_capacity(e), 5);
        assert_eq!(g.edge_endpoints(e), (0, 1));
    }

    #[test]
    fn push_moves_capacity_to_twin() {
        let mut g = FlowNetwork::with_nodes(2);
        let e = g.add_edge(0, 1, 5);
        g.lay_out();
        let a = g.arcs(0).start;
        g.push(a, 3);
        assert_eq!(g.residual_capacity(e), 2);
        assert_eq!(g.arc_residual(g.arc_twin(a)), 3);
        assert_eq!(g.flow_on(e), 3);
        g.reset_flow();
        assert_eq!(g.flow_on(e), 0);
        assert_eq!(g.residual_capacity(e), 5);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = FlowNetwork::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!((a, b), (0, 1));
        g.add_edge(a, b, 1);
        g.lay_out();
        assert_eq!(g.arcs(a).len(), 1);
        assert_eq!(g.arcs(b).len(), 1); // residual twin
        let c = g.add_node();
        assert_eq!(c, 2);
        assert!(g.arcs(c).is_empty());
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_panics() {
        let mut g = FlowNetwork::with_nodes(1);
        g.add_edge(0, 1, 1);
    }

    #[test]
    fn conservation_check_on_simple_path() {
        let mut g = FlowNetwork::with_nodes(3);
        g.add_edge(0, 1, 4);
        g.add_edge(1, 2, 4);
        g.lay_out();
        let (a1, a2) = (g.arcs(0).start, g.arcs(1).start + 1);
        assert_eq!((g.arc_head(a1), g.arc_head(a2)), (1, 2));
        g.push(a1, 2);
        g.push(a2, 2);
        assert!(g.check_flow_conservation(0, 2));
        assert_eq!(g.flow_value(0), 2);
        // Unbalanced intermediate node must be detected; the new edge is laid
        // out after the existing arcs, which keep their flow.
        let e3 = g.add_edge(0, 1, 1);
        g.lay_out();
        let a3 = g.arcs(0).start + 1;
        assert_eq!(g.arc_head(a3), 1);
        g.push(a3, 1);
        assert_eq!((g.flow_on(0), g.flow_on(1), g.flow_on(e3)), (2, 2, 1));
        assert!(!g.check_flow_conservation(0, 2));
    }

    #[test]
    fn iter_forward_edges_reports_flow() {
        let mut g = FlowNetwork::with_nodes(2);
        g.add_edge(0, 1, 7);
        g.lay_out();
        let a = g.arcs(0).start;
        g.push(a, 4);
        let edges: Vec<_> = g.iter_forward_edges().collect();
        assert_eq!(edges, vec![(0, 1, 7, 4)]);
    }

    #[test]
    fn arcs_keep_the_per_node_creation_order() {
        // Node 1 sees: twin of 0->1, then 1->2, then twin of 2->1, then 1->3.
        let mut g = FlowNetwork::with_nodes(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.lay_out();
        g.add_edge(2, 1, 3);
        g.add_edge(1, 3, 4);
        g.lay_out();
        let heads: Vec<NodeId> = g.arcs(1).map(|a| g.arc_head(a)).collect();
        assert_eq!(heads, vec![0, 2, 2, 3]);
        for v in 0..4 {
            for a in g.arcs(v) {
                assert_eq!(g.arc_twin(g.arc_twin(a)), a);
                assert_eq!(g.arc_head(g.arc_twin(a)), v);
            }
        }
        let caps: Vec<i64> = (0..4).map(|e| g.original_capacity(e)).collect();
        assert_eq!(caps, vec![1, 2, 3, 4]);
    }
}
