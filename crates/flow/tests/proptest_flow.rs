//! Property-based tests for the flow substrate.

use flow::{
    dinic, edmonds_karp, hopcroft_karp, min_cut_from_residual, BipartiteGraph, FlowNetwork,
    MaxFlowEngine,
};
use proptest::prelude::*;

/// Strategy: a random bipartite graph as (n_left, n_right, edges).
fn bipartite_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize)>)> {
    (1usize..12, 1usize..12).prop_flat_map(|(nl, nr)| {
        let edges = proptest::collection::vec((0..nl, 0..nr), 0..60);
        (Just(nl), Just(nr), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-flow (both engines) and Hopcroft-Karp agree on the maximum matching size.
    #[test]
    fn maxflow_equals_hopcroft_karp((nl, nr, edges) in bipartite_strategy()) {
        let mut g = BipartiteGraph::new(nl, nr);
        let mut adj = vec![vec![]; nl];
        for &(l, r) in &edges {
            g.add_edge(l, r);
            adj[l].push(r);
        }
        let (hk_size, _, _) = hopcroft_karp(nl, nr, &adj);
        let ek = g.max_matching_with(MaxFlowEngine::EdmondsKarp);
        let di = g.max_matching_with(MaxFlowEngine::Dinic);
        prop_assert_eq!(ek.len(), hk_size);
        prop_assert_eq!(di.len(), hk_size);
        prop_assert!(ek.is_consistent());
        prop_assert!(di.is_consistent());
    }

    /// Min-cost matching has the same cardinality as the plain maximum matching.
    #[test]
    fn min_cost_matching_preserves_cardinality((nl, nr, edges) in bipartite_strategy()) {
        let mut g = BipartiteGraph::new(nl, nr);
        for (i, &(l, r)) in edges.iter().enumerate() {
            g.add_edge_with_cost(l, r, (i % 7) as i64);
        }
        let plain = g.max_matching();
        let cheap = g.min_cost_max_matching();
        prop_assert_eq!(plain.len(), cheap.len());
        prop_assert!(cheap.is_consistent());
    }

    /// On arbitrary small flow networks: Dinic == Edmonds-Karp, flow conservation
    /// holds, and the residual min-cut capacity equals the flow value.
    #[test]
    fn maxflow_mincut_duality(
        n in 2usize..10,
        raw_edges in proptest::collection::vec((0usize..10, 0usize..10, 0i64..25), 0..40)
    ) {
        let mut a = FlowNetwork::with_nodes(n);
        let mut b = FlowNetwork::with_nodes(n);
        for &(from, to, cap) in &raw_edges {
            let (from, to) = (from % n, to % n);
            if from == to { continue; }
            a.add_edge(from, to, cap);
            b.add_edge(from, to, cap);
        }
        let source = 0;
        let sink = n - 1;
        let fa = dinic(&mut a, source, sink);
        let fb = edmonds_karp(&mut b, source, sink);
        prop_assert_eq!(fa, fb);
        prop_assert!(a.check_flow_conservation(source, sink));
        prop_assert!(b.check_flow_conservation(source, sink));
        let cut = min_cut_from_residual(&a, source);
        prop_assert_eq!(cut.capacity, fa);
        prop_assert!(cut.in_source_side[source]);
        if fa < i64::MAX { prop_assert!(!cut.in_source_side[sink] || fa == 0); }
    }

    /// A round graph's edges may arrive in any order across left vertices:
    /// the same edge set added right-major and left-major, each in sorted
    /// order, lays out identically, so both solvers return the identical
    /// matching (pairs, both maps and total cost).
    #[test]
    fn insertion_order_across_left_vertices_does_not_change_the_matching(
        (nl, nr, edges) in bipartite_strategy()
    ) {
        let mut costed: Vec<(usize, usize, i64)> =
            edges.iter().enumerate().map(|(i, &(l, r))| (l, r, (i % 4) as i64)).collect();
        costed.sort_unstable();
        let mut left_major = BipartiteGraph::new(nl, nr);
        for &(l, r, cost) in &costed {
            left_major.add_edge_with_cost(l, r, cost);
        }
        costed.sort_by_key(|&(l, r, cost)| (r, l, cost));
        let mut right_major = BipartiteGraph::new(nl, nr);
        for &(l, r, cost) in &costed {
            right_major.add_edge_with_cost(l, r, cost);
        }
        prop_assert_eq!(right_major.max_matching(), left_major.max_matching());
        prop_assert_eq!(right_major.min_cost_max_matching(), left_major.min_cost_max_matching());
    }

    /// Matching size never exceeds min(|L|, |R|) and is monotone in edge additions.
    #[test]
    fn matching_size_bounds((nl, nr, edges) in bipartite_strategy()) {
        let mut g = BipartiteGraph::new(nl, nr);
        let mut prev = 0;
        for &(l, r) in &edges {
            g.add_edge(l, r);
            let m = g.max_matching().len();
            prop_assert!(m >= prev, "matching size must be monotone");
            prop_assert!(m <= nl.min(nr));
            prev = m;
        }
    }
}
