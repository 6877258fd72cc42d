//! Edmonds–Karp: Ford–Fulkerson with BFS augmenting paths.
//!
//! This is the algorithm the paper cites for line 10 of Algorithm 1 (offline
//! guide generation). Complexity `O(V * E^2)` in general, `O(min(m, n) * E)`
//! on unit-capacity bipartite instances (each augmentation adds one unit).

use crate::network::{ArcId, FlowNetwork, NodeId};

/// Compute the maximum flow from `source` to `sink`, mutating the residual
/// capacities of `net` in place. Returns the value of the maximum flow.
pub fn edmonds_karp(net: &mut FlowNetwork, source: NodeId, sink: NodeId) -> i64 {
    assert!(source < net.num_nodes() && sink < net.num_nodes(), "source/sink out of range");
    if source == sink {
        return 0;
    }
    net.lay_out();
    let n = net.num_nodes();
    let mut total = 0i64;
    // parent_arc[v] = arc used to reach v in the BFS tree.
    let mut parent_arc: Vec<Option<ArcId>> = vec![None; n];
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    loop {
        parent_arc.fill(None);
        // BFS over residual arcs.
        queue.clear();
        queue.push(source);
        let mut head = 0;
        let mut reached_sink = false;
        'bfs: while head < queue.len() {
            let v = queue[head];
            head += 1;
            for a in net.arcs(v) {
                let to = net.arc_head(a);
                if net.arc_residual(a) > 0 && parent_arc[to].is_none() && to != source {
                    parent_arc[to] = Some(a);
                    if to == sink {
                        reached_sink = true;
                        break 'bfs;
                    }
                    queue.push(to);
                }
            }
        }
        if !reached_sink {
            break;
        }
        // Find the bottleneck along the path sink -> source.
        let mut bottleneck = i64::MAX;
        let mut v = sink;
        while v != source {
            let a = parent_arc[v].expect("path arc");
            bottleneck = bottleneck.min(net.arc_residual(a));
            v = net.arc_head(net.arc_twin(a));
        }
        // Augment.
        let mut v = sink;
        while v != source {
            let a = parent_arc[v].expect("path arc");
            net.push(a, bottleneck);
            v = net.arc_head(net.arc_twin(a));
        }
        total += bottleneck;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CLRS example network with max flow 23.
    fn clrs_network() -> (FlowNetwork, NodeId, NodeId) {
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
        (g, s, t)
    }

    #[test]
    fn clrs_example_has_flow_23() {
        let (mut g, s, t) = clrs_network();
        assert_eq!(edmonds_karp(&mut g, s, t), 23);
        assert!(g.check_flow_conservation(s, t));
        assert_eq!(g.flow_value(s), 23);
    }

    #[test]
    fn disconnected_graph_has_zero_flow() {
        let mut g = FlowNetwork::with_nodes(4);
        g.add_edge(0, 1, 10);
        g.add_edge(2, 3, 10);
        assert_eq!(edmonds_karp(&mut g, 0, 3), 0);
    }

    #[test]
    fn same_source_and_sink_is_zero() {
        let mut g = FlowNetwork::with_nodes(2);
        g.add_edge(0, 1, 3);
        assert_eq!(edmonds_karp(&mut g, 0, 0), 0);
    }

    #[test]
    fn parallel_edges_add_up() {
        let mut g = FlowNetwork::with_nodes(2);
        g.add_edge(0, 1, 3);
        g.add_edge(0, 1, 4);
        assert_eq!(edmonds_karp(&mut g, 0, 1), 7);
    }

    #[test]
    fn flow_respects_bottleneck() {
        // s -> a -> t with capacities 10 and 1.
        let mut g = FlowNetwork::with_nodes(3);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 1);
        assert_eq!(edmonds_karp(&mut g, 0, 2), 1);
    }

    #[test]
    fn rerun_after_reset_gives_same_value() {
        let (mut g, s, t) = clrs_network();
        assert_eq!(edmonds_karp(&mut g, s, t), 23);
        g.reset_flow();
        assert_eq!(edmonds_karp(&mut g, s, t), 23);
    }
}
