//! Minimum s–t cut extraction from a residual network.
//!
//! After running a max-flow algorithm, the set `S` of nodes reachable from the
//! source in the residual graph and its complement `T` form a minimum cut
//! (max-flow/min-cut theorem). The paper uses exactly this "canonical
//! reachability cut" in the proof of Lemma 2 to bound `OPT`; here it is also
//! exposed for diagnostics (which guide nodes are saturated) and tests.

use crate::network::{FlowNetwork, NodeId};

/// A minimum s–t cut `(S, T)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCut {
    /// `in_source_side[v]` is true iff `v` is reachable from the source in the
    /// residual network (i.e. `v ∈ S`).
    pub in_source_side: Vec<bool>,
    /// Total capacity of the cut edges (edges from `S` to `T`).
    pub capacity: i64,
    /// The cut edges as `(from, to, capacity)` triples.
    pub cut_edges: Vec<(NodeId, NodeId, i64)>,
}

/// Extract the canonical minimum cut from a network on which a max-flow
/// algorithm has already been run (i.e. whose residual capacities reflect a
/// maximum flow).
///
/// # Panics
/// Panics if edges were added after the last max-flow run.
pub fn min_cut_from_residual(net: &FlowNetwork, source: NodeId) -> MinCut {
    assert!(net.is_laid_out(), "run a max-flow solver before extracting the cut");
    let n = net.num_nodes();
    let mut reachable = vec![false; n];
    if n == 0 {
        return MinCut { in_source_side: reachable, capacity: 0, cut_edges: vec![] };
    }
    reachable[source] = true;
    let mut queue = vec![source];
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for a in net.arcs(v) {
            let to = net.arc_head(a);
            if net.arc_residual(a) > 0 && !reachable[to] {
                reachable[to] = true;
                queue.push(to);
            }
        }
    }
    let mut capacity = 0;
    let mut cut_edges = Vec::new();
    for (from, to, cap, _flow) in net.iter_forward_edges() {
        if reachable[from] && !reachable[to] {
            capacity += cap;
            cut_edges.push((from, to, cap));
        }
    }
    MinCut { in_source_side: reachable, capacity, cut_edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::dinic;
    use crate::edmonds_karp::edmonds_karp;

    #[test]
    fn min_cut_equals_max_flow_on_clrs_example() {
        let mut g = FlowNetwork::with_nodes(6);
        let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
        g.add_edge(s, v1, 16);
        g.add_edge(s, v2, 13);
        g.add_edge(v1, v3, 12);
        g.add_edge(v2, v1, 4);
        g.add_edge(v2, v4, 14);
        g.add_edge(v3, v2, 9);
        g.add_edge(v3, t, 20);
        g.add_edge(v4, v3, 7);
        g.add_edge(v4, t, 4);
        let flow = dinic(&mut g, s, t);
        let cut = min_cut_from_residual(&g, s);
        assert_eq!(flow, 23);
        assert_eq!(cut.capacity, 23);
        assert!(cut.in_source_side[s]);
        assert!(!cut.in_source_side[t]);
    }

    #[test]
    fn bipartite_cut_matches_koenig_vertex_cover_size() {
        // Unit-capacity bipartite instance with maximum matching 2: the cut
        // capacity equals the matching size (König's theorem via max-flow).
        let mut g = FlowNetwork::with_nodes(8);
        let s = 0;
        let t = 7;
        for l in 1..=3 {
            g.add_edge(s, l, 1);
        }
        for r in 4..=6 {
            g.add_edge(r, t, 1);
        }
        g.add_edge(1, 4, 1);
        g.add_edge(2, 4, 1);
        g.add_edge(2, 5, 1);
        g.add_edge(3, 5, 1);
        let flow = edmonds_karp(&mut g, s, t);
        let cut = min_cut_from_residual(&g, s);
        assert_eq!(flow, 2);
        assert_eq!(cut.capacity, 2);
        assert_eq!(cut.cut_edges.iter().map(|&(_, _, c)| c).sum::<i64>(), 2);
    }

    #[test]
    fn cut_on_zero_flow_network_is_zero_when_source_isolated() {
        let mut g = FlowNetwork::with_nodes(3);
        g.add_edge(1, 2, 5);
        let flow = dinic(&mut g, 0, 2);
        let cut = min_cut_from_residual(&g, 0);
        assert_eq!(flow, 0);
        assert_eq!(cut.capacity, 0);
        assert!(cut.cut_edges.is_empty());
    }

    #[test]
    fn empty_network() {
        let g = FlowNetwork::with_nodes(0);
        let cut = min_cut_from_residual(&g, 0);
        assert_eq!(cut.capacity, 0);
    }
}
