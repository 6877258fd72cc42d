//! Dinic's algorithm: level graphs + blocking flows.
//!
//! `O(E * sqrt(V))` on unit-capacity bipartite networks, which is exactly the
//! shape of the offline-guide and OPT instances; this is the default solver
//! used by `ftoa-core` for large instances.

use crate::network::{ArcId, FlowNetwork, NodeId};

/// Compute the maximum flow from `source` to `sink` with Dinic's algorithm,
/// mutating residual capacities in place. Returns the flow value.
pub fn dinic(net: &mut FlowNetwork, source: NodeId, sink: NodeId) -> i64 {
    assert!(source < net.num_nodes() && sink < net.num_nodes(), "source/sink out of range");
    if source == sink {
        return 0;
    }
    net.lay_out();
    let n = net.num_nodes();
    let mut level = vec![-1i32; n];
    // Current-arc pointer of each node within its arc range.
    let mut next_arc: Vec<ArcId> = vec![0; n];
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    let mut path: Vec<ArcId> = Vec::new();
    let mut total = 0i64;

    while build_levels(net, source, sink, &mut level, &mut queue) {
        for (v, arc) in next_arc.iter_mut().enumerate() {
            *arc = net.arcs(v).start;
        }
        // Repeatedly find augmenting paths in the level graph (blocking flow)
        // using an iterative DFS to avoid recursion-depth issues on the very
        // large scalability instances (|W| = |R| = 1M).
        loop {
            let pushed = dfs_augment(net, source, sink, &level, &mut next_arc, &mut path);
            if pushed == 0 {
                break;
            }
            total += pushed;
        }
    }
    total
}

/// Label every node with its BFS distance from `source` over arcs with
/// residual capacity; returns whether `sink` is reachable. The search stops
/// once the sink's level is complete: a node at or past that level never lies
/// on a shortest augmenting path, so the DFS would only find it a dead end.
fn build_levels(
    net: &FlowNetwork,
    source: NodeId,
    sink: NodeId,
    level: &mut [i32],
    queue: &mut Vec<NodeId>,
) -> bool {
    level.fill(-1);
    level[source] = 0;
    queue.clear();
    queue.push(source);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        if level[sink] >= 0 && level[v] >= level[sink] {
            break;
        }
        for a in net.arcs(v) {
            let to = net.arc_head(a);
            if level[to] < 0 && net.arc_residual(a) > 0 {
                level[to] = level[v] + 1;
                queue.push(to);
            }
        }
    }
    level[sink] >= 0
}

/// Iterative DFS that pushes one augmenting path worth of flow through the
/// level graph. Returns the amount pushed (0 if no path exists). `path` is a
/// reused buffer for the arcs of the current path.
fn dfs_augment(
    net: &mut FlowNetwork,
    source: NodeId,
    sink: NodeId,
    level: &[i32],
    next_arc: &mut [ArcId],
    path: &mut Vec<ArcId>,
) -> i64 {
    path.clear();
    let mut current = source;
    loop {
        if current == sink {
            // Found a path; compute bottleneck and push.
            let bottleneck = path.iter().map(|&a| net.arc_residual(a)).min().unwrap_or(0);
            for &a in path.iter() {
                net.push(a, bottleneck);
            }
            return bottleneck;
        }
        let end = net.arcs(current).end;
        let mut advanced = false;
        while next_arc[current] < end {
            let a = next_arc[current];
            let to = net.arc_head(a);
            if net.arc_residual(a) > 0 && level[to] == level[current] + 1 {
                path.push(a);
                current = to;
                advanced = true;
                break;
            }
            next_arc[current] += 1;
        }
        if advanced {
            continue;
        }
        // Dead end: retreat.
        if current == source {
            return 0;
        }
        let a = path.pop().expect("non-source dead end has a parent arc");
        let parent = net.arc_head(net.arc_twin(a));
        // Exhaust this arc at the parent so we do not retry it.
        next_arc[parent] += 1;
        current = parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edmonds_karp::edmonds_karp;

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
        assert_eq!(dinic(&mut g, s, t), 23);
        assert!(g.check_flow_conservation(s, t));
    }

    #[test]
    fn agrees_with_edmonds_karp_on_random_graphs() {
        // Deterministic pseudo-random graphs via a simple LCG so the test does
        // not need an RNG dependency here.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..20 {
            let n = 4 + (trial % 8);
            let mut a = FlowNetwork::with_nodes(n);
            let mut b = FlowNetwork::with_nodes(n);
            for _ in 0..(2 * n) {
                let from = (next() as usize) % n;
                let to = (next() as usize) % n;
                if from == to {
                    continue;
                }
                let cap = (next() % 20) as i64;
                a.add_edge(from, to, cap);
                b.add_edge(from, to, cap);
            }
            let fa = dinic(&mut a, 0, n - 1);
            let fb = edmonds_karp(&mut b, 0, n - 1);
            assert_eq!(fa, fb, "trial {trial}");
            assert!(a.check_flow_conservation(0, n - 1));
        }
    }

    #[test]
    fn unit_capacity_bipartite_instance() {
        // 3 left, 3 right, perfect matching exists.
        // Nodes: 0 = s, 1..=3 left, 4..=6 right, 7 = t.
        let mut g = FlowNetwork::with_nodes(8);
        for l in 1..=3 {
            g.add_edge(0, l, 1);
        }
        for r in 4..=6 {
            g.add_edge(r, 7, 1);
        }
        g.add_edge(1, 4, 1);
        g.add_edge(1, 5, 1);
        g.add_edge(2, 5, 1);
        g.add_edge(3, 6, 1);
        assert_eq!(dinic(&mut g, 0, 7), 3);
    }

    #[test]
    fn empty_network_has_zero_flow() {
        let mut g = FlowNetwork::with_nodes(2);
        assert_eq!(dinic(&mut g, 0, 1), 0);
        assert_eq!(dinic(&mut g, 0, 0), 0);
    }

    #[test]
    fn long_chain_does_not_overflow_stack() {
        // A 100k-node chain exercises the iterative DFS.
        let n = 100_000;
        let mut g = FlowNetwork::with_nodes(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, 2);
        }
        assert_eq!(dinic(&mut g, 0, n - 1), 2);
    }
}
