//! Bipartite-matching convenience layer.
//!
//! [`BipartiteGraph`] hides the source/sink plumbing of the flow formulation
//! used by Algorithm 1 of the paper and returns matchings as plain
//! `(left, right)` index pairs, which is the shape the guide generator and
//! the OPT oracle in `ftoa-core` consume.

use crate::dinic::dinic;
use crate::edmonds_karp::edmonds_karp;
use crate::hopcroft_karp::hopcroft_karp_csr;
use crate::min_cost::{min_cost_max_flow, McmfNetwork};
use crate::network::FlowNetwork;

/// Which max-flow engine to use when computing a matching through the flow
/// formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFlowEngine {
    /// BFS Ford–Fulkerson, as cited in the paper (Algorithm 1, line 10).
    EdmondsKarp,
    /// Dinic's algorithm (default for large instances).
    Dinic,
    /// Hopcroft–Karp, bypassing the explicit flow network entirely.
    HopcroftKarp,
}

/// A matching between the left and right vertex sets of a bipartite graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// Matched pairs `(left, right)`.
    pub pairs: Vec<(usize, usize)>,
    /// For each left vertex, the matched right vertex (if any).
    pub left_to_right: Vec<Option<usize>>,
    /// For each right vertex, the matched left vertex (if any).
    pub right_to_left: Vec<Option<usize>>,
    /// Total cost of the matching when costs were supplied, otherwise 0.
    pub total_cost: i64,
}

impl Matching {
    /// No pairs yet, between `n_left` and `n_right` vertices.
    fn empty(n_left: usize, n_right: usize) -> Self {
        Self {
            pairs: Vec::new(),
            left_to_right: vec![None; n_left],
            right_to_left: vec![None; n_right],
            total_cost: 0,
        }
    }

    /// Record the pair `(l, r)`.
    fn push(&mut self, l: usize, r: usize) {
        self.pairs.push((l, r));
        self.left_to_right[l] = Some(r);
        self.right_to_left[r] = Some(l);
    }

    /// Cardinality of the matching.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is the matching empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Is the matching internally consistent (both direction maps agree with
    /// `pairs`, no vertex matched twice)?
    pub fn is_consistent(&self) -> bool {
        let mut seen_l = vec![false; self.left_to_right.len()];
        let mut seen_r = vec![false; self.right_to_left.len()];
        for &(l, r) in &self.pairs {
            if l >= seen_l.len() || r >= seen_r.len() || seen_l[l] || seen_r[r] {
                return false;
            }
            seen_l[l] = true;
            seen_r[r] = true;
            if self.left_to_right[l] != Some(r) || self.right_to_left[r] != Some(l) {
                return false;
            }
        }
        let matched_l = self.left_to_right.iter().filter(|x| x.is_some()).count();
        let matched_r = self.right_to_left.iter().filter(|x| x.is_some()).count();
        matched_l == self.pairs.len() && matched_r == self.pairs.len()
    }
}

/// A bipartite graph with `n_left` left vertices, `n_right` right vertices and
/// optionally cost-weighted edges.
///
/// Edges are stored as added, 16 bytes each. A solve lays them out per left
/// vertex in one stable counting-sort pass, so a left vertex's edges keep
/// the order they were added in, whatever order the left vertices were
/// added in.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    /// `(left, right, cost)` in insertion order.
    edges: Vec<(u32, u32, i64)>,
}

impl BipartiteGraph {
    /// Create a bipartite graph with the given side sizes and no edges.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        assert!(n_left < u32::MAX as usize && n_right < u32::MAX as usize, "too many vertices");
        Self { n_left, n_right, edges: Vec::new() }
    }

    /// Number of left vertices.
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices.
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add an (uncosted) edge between left vertex `l` and right vertex `r`.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        self.add_edge_with_cost(l, r, 0);
    }

    /// Add a cost-weighted edge (cost must be non-negative).
    pub fn add_edge_with_cost(&mut self, l: usize, r: usize, cost: i64) {
        assert!(l < self.n_left, "left vertex out of range");
        assert!(r < self.n_right, "right vertex out of range");
        assert!(cost >= 0, "negative edge cost");
        self.edges.push((l as u32, r as u32, cost));
    }

    /// Compute a maximum-cardinality matching with the requested engine.
    pub fn max_matching_with(&self, engine: MaxFlowEngine) -> Matching {
        match engine {
            MaxFlowEngine::HopcroftKarp => self.matching_hopcroft_karp(),
            MaxFlowEngine::EdmondsKarp | MaxFlowEngine::Dinic => self.matching_via_flow(engine),
        }
    }

    /// Compute a maximum-cardinality matching with the default engine
    /// (Hopcroft–Karp).
    pub fn max_matching(&self) -> Matching {
        self.max_matching_with(MaxFlowEngine::HopcroftKarp)
    }

    /// Compute a maximum-cardinality matching of minimum total edge cost
    /// (min-cost max-flow formulation). Ties in cardinality are broken by
    /// cost; cardinality is never sacrificed for cost.
    pub fn min_cost_max_matching(&self) -> Matching {
        let (first, slots) = self.lay_out(|&(_, r, cost)| (r, cost));
        // Node layout: 0 = source, 1..=n_left = left, then right, then sink.
        let s = 0usize;
        let left_base = 1usize;
        let right_base = 1 + self.n_left;
        let t = 1 + self.n_left + self.n_right;
        let mut net = McmfNetwork::with_nodes(t + 1);
        for l in 0..self.n_left {
            net.add_edge(s, left_base + l, 1, 0);
        }
        for r in 0..self.n_right {
            net.add_edge(right_base + r, t, 1, 0);
        }
        let pair_base = self.n_left + self.n_right;
        for (l, k) in positions(&first) {
            let (r, cost) = slots[k];
            net.add_edge(left_base + l, right_base + r as usize, 1, cost);
        }
        let result = min_cost_max_flow(&net, s, t);
        let mut m = Matching::empty(self.n_left, self.n_right);
        for (l, k) in positions(&first) {
            if result.edge_flows[pair_base + k] > 0 {
                let (r, cost) = slots[k];
                m.push(l, r as usize);
                m.total_cost += cost;
            }
        }
        m
    }

    /// Lay the edges out per left vertex, keeping their insertion order
    /// within each vertex: left vertex `l`'s edges are
    /// `slots[first[l]..first[l + 1]]`, each projected through `slot`.
    fn lay_out<T: Copy + Default>(
        &self,
        slot: impl Fn(&(u32, u32, i64)) -> T,
    ) -> (Vec<usize>, Vec<T>) {
        let mut first = vec![0usize; self.n_left + 1];
        for &(l, _, _) in &self.edges {
            first[l as usize + 1] += 1;
        }
        for l in 0..self.n_left {
            first[l + 1] += first[l];
        }
        let mut next = first[..self.n_left].to_vec();
        let mut slots = vec![T::default(); self.edges.len()];
        for edge in &self.edges {
            let l = edge.0 as usize;
            slots[next[l]] = slot(edge);
            next[l] += 1;
        }
        (first, slots)
    }

    fn matching_hopcroft_karp(&self) -> Matching {
        let (first, right) = self.lay_out(|&(_, r, _)| r);
        let (_size, match_left, _) = hopcroft_karp_csr(self.n_right, &first, &right);
        let mut m = Matching::empty(self.n_left, self.n_right);
        for (l, &r) in match_left.iter().enumerate() {
            if r != u32::MAX {
                m.push(l, r as usize);
            }
        }
        m
    }

    fn matching_via_flow(&self, engine: MaxFlowEngine) -> Matching {
        let (first, right) = self.lay_out(|&(_, r, _)| r);
        let s = 0usize;
        let left_base = 1usize;
        let right_base = 1 + self.n_left;
        let t = 1 + self.n_left + self.n_right;
        let mut net = FlowNetwork::with_nodes(t + 1);
        for l in 0..self.n_left {
            net.add_edge(s, left_base + l, 1);
        }
        for r in 0..self.n_right {
            net.add_edge(right_base + r, t, 1);
        }
        let pair_base = self.n_left + self.n_right;
        for (l, k) in positions(&first) {
            net.add_edge(left_base + l, right_base + right[k] as usize, 1);
        }
        match engine {
            MaxFlowEngine::EdmondsKarp => edmonds_karp(&mut net, s, t),
            _ => dinic(&mut net, s, t),
        };
        let mut m = Matching::empty(self.n_left, self.n_right);
        for (l, k) in positions(&first) {
            if net.flow_on(pair_base + k) > 0 {
                m.push(l, right[k] as usize);
            }
        }
        m
    }
}

/// `(left vertex, position)` of every laid-out edge, in layout order, given
/// the layout's per-vertex offsets.
fn positions(first: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    first.windows(2).enumerate().flat_map(|(l, span)| (span[0]..span[1]).map(move |k| (l, k)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> BipartiteGraph {
        // l0: {r0, r1}, l1: {r0}, l2: {r2}. Max matching 3.
        let mut g = BipartiteGraph::new(3, 3);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        g
    }

    #[test]
    fn all_engines_agree_on_cardinality() {
        let g = sample_graph();
        let hk = g.max_matching_with(MaxFlowEngine::HopcroftKarp);
        let ek = g.max_matching_with(MaxFlowEngine::EdmondsKarp);
        let di = g.max_matching_with(MaxFlowEngine::Dinic);
        assert_eq!(hk.len(), 3);
        assert_eq!(ek.len(), 3);
        assert_eq!(di.len(), 3);
        assert!(hk.is_consistent());
        assert!(ek.is_consistent());
        assert!(di.is_consistent());
    }

    #[test]
    fn min_cost_matching_prefers_cheap_edges_without_losing_cardinality() {
        let mut g = BipartiteGraph::new(2, 2);
        // Perfect matching must use the diagonal (cost 1 + 1 = 2) instead of
        // the tempting cheap edge (0,0) of cost 0 which would block it.
        g.add_edge_with_cost(0, 0, 0);
        g.add_edge_with_cost(0, 1, 1);
        g.add_edge_with_cost(1, 0, 1);
        let m = g.min_cost_max_matching();
        assert_eq!(m.len(), 2);
        assert_eq!(m.total_cost, 2);
        assert!(m.is_consistent());
    }

    #[test]
    fn empty_graph_yields_empty_matching() {
        let g = BipartiteGraph::new(0, 0);
        assert_eq!(g.max_matching().len(), 0);
        assert_eq!(g.min_cost_max_matching().len(), 0);
        let g2 = BipartiteGraph::new(3, 3);
        assert_eq!(g2.max_matching().len(), 0);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn layout_keeps_insertion_order_per_left_vertex() {
        // Added right-major: r2's edges, then r0's, then r1's.
        let mut g = BipartiteGraph::new(3, 3);
        for (l, r) in [(2, 2), (0, 2), (1, 0), (0, 0), (2, 1), (0, 1)] {
            g.add_edge_with_cost(l, r, (10 * l + r) as i64);
        }
        assert_eq!((g.n_left(), g.n_right(), g.num_edges()), (3, 3, 6));
        let (first, slots) = g.lay_out(|&(_, r, cost)| (r, cost));
        assert_eq!(first, vec![0, 3, 4, 6]);
        assert_eq!(slots, vec![(2, 2), (0, 0), (1, 1), (0, 10), (2, 22), (1, 21)]);
    }

    #[test]
    #[should_panic(expected = "left vertex out of range")]
    fn out_of_range_edge_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(1, 0);
    }

    #[test]
    fn matching_is_maximum_on_crown_graph() {
        // Crown-like graph where greedy can get stuck at n/2 but maximum is n.
        let n = 6;
        let mut g = BipartiteGraph::new(n, n);
        for l in 0..n {
            for r in 0..n {
                if l != r {
                    g.add_edge(l, r);
                }
            }
        }
        assert_eq!(g.max_matching().len(), n);
        assert_eq!(g.max_matching_with(MaxFlowEngine::Dinic).len(), n);
    }
}
