//! Hopcroft–Karp maximum bipartite matching.
//!
//! Runs in `O(E * sqrt(V))`. OPT solves its offline matching with
//! [`hopcroft_karp`] on the CSR graph it lays out itself;
//! [`crate::BipartiteGraph::max_matching`] runs the same search for the
//! benchmark's flow probe and for the debug-build check of every batch
//! round; and both serve as an independent oracle to cross-check the
//! max-flow based matchings in tests and property tests.
//!
//! The solver works on the graph in compressed sparse row form: left vertex
//! `l`'s neighbours are `right[first[l]..first[l + 1]]`. Match and distance
//! arrays are `u32`, and one queue serves every BFS phase of a solve.

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// Compute a maximum matching of a bipartite graph in CSR form: `first` has
/// one offset per left vertex plus the end offset, and `right` holds every
/// right vertex index (each below `n_right`), so left vertex `l`'s
/// neighbours are `right[first[l]..first[l + 1]]`.
///
/// Returns `(size, match_left, match_right)`, where `match_left[l]` is the
/// right vertex matched to `l` and symmetrically for `match_right`, with
/// `u32::MAX` marking an unmatched vertex.
pub fn hopcroft_karp(
    n_right: usize,
    first: &[usize],
    right: &[u32],
) -> (usize, Vec<u32>, Vec<u32>) {
    let n_left = first.len() - 1;
    assert!(n_left < NIL as usize && n_right < NIL as usize, "too many vertices");
    let mut state = Search {
        first,
        right,
        match_left: vec![NIL; n_left],
        match_right: vec![NIL; n_right],
        dist: vec![INF; n_left],
    };
    let mut queue: Vec<u32> = Vec::with_capacity(n_left);
    let mut size = 0usize;
    loop {
        // BFS phase: compute layered distances from free left vertices.
        queue.clear();
        for l in 0..n_left {
            if state.match_left[l] == NIL {
                state.dist[l] = 0;
                queue.push(l as u32);
            } else {
                state.dist[l] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        let mut head = 0;
        while let Some(&l) = queue.get(head) {
            head += 1;
            let l = l as usize;
            for &r in &right[first[l]..first[l + 1]] {
                let next = state.match_right[r as usize];
                if next == NIL {
                    found_augmenting_layer = true;
                } else if state.dist[next as usize] == INF {
                    state.dist[next as usize] = state.dist[l] + 1;
                    queue.push(next);
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS phase: find a maximal set of vertex-disjoint shortest augmenting paths.
        for l in 0..n_left {
            if state.match_left[l] == NIL && state.augment(l) {
                size += 1;
            }
        }
    }
    (size, state.match_left, state.match_right)
}

/// The graph and the per-solve state of one Hopcroft–Karp run.
struct Search<'a> {
    first: &'a [usize],
    right: &'a [u32],
    match_left: Vec<u32>,
    match_right: Vec<u32>,
    dist: Vec<u32>,
}

impl Search<'_> {
    /// Look for a shortest augmenting path from `l` along the BFS layers
    /// and flip it; a vertex that leads nowhere is dropped from the layers.
    fn augment(&mut self, l: usize) -> bool {
        for i in self.first[l]..self.first[l + 1] {
            let r = self.right[i];
            let next = self.match_right[r as usize];
            if next == NIL
                || (self.dist[next as usize] == self.dist[l] + 1 && self.augment(next as usize))
            {
                self.match_left[l] = r;
                self.match_right[r as usize] = l as u32;
                return true;
            }
        }
        self.dist[l] = INF;
        false
    }
}

/// The adjacency-list implementation the CSR solver replaced, kept as the
/// oracle it is checked against. Unmatched vertices are `usize::MAX`.
#[cfg(test)]
fn hopcroft_karp_adjacency(
    n_left: usize,
    n_right: usize,
    adj: &[Vec<usize>],
) -> (usize, Vec<usize>, Vec<usize>) {
    use std::collections::VecDeque;
    const NIL: usize = usize::MAX;

    fn dfs(
        l: usize,
        adj: &[Vec<usize>],
        match_left: &mut [usize],
        match_right: &mut [usize],
        dist: &mut [u32],
    ) -> bool {
        for &r in &adj[l] {
            let next = match_right[r];
            if next == NIL
                || (dist[next] == dist[l] + 1 && dfs(next, adj, match_left, match_right, dist))
            {
                match_left[l] = r;
                match_right[r] = l;
                return true;
            }
        }
        dist[l] = INF;
        false
    }

    let mut match_left = vec![NIL; n_left];
    let mut match_right = vec![NIL; n_right];
    let mut dist = vec![INF; n_left];
    let mut size = 0usize;
    loop {
        let mut queue = VecDeque::new();
        for l in 0..n_left {
            if match_left[l] == NIL {
                dist[l] = 0;
                queue.push_back(l);
            } else {
                dist[l] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        while let Some(l) = queue.pop_front() {
            for &r in &adj[l] {
                let next = match_right[r];
                if next == NIL {
                    found_augmenting_layer = true;
                } else if dist[next] == INF {
                    dist[next] = dist[l] + 1;
                    queue.push_back(next);
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        for l in 0..n_left {
            if match_left[l] == NIL && dfs(l, adj, &mut match_left, &mut match_right, &mut dist) {
                size += 1;
            }
        }
    }
    (size, match_left, match_right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lay `adj` out in CSR form, solve it, and widen the result to the
    /// oracle's `usize` form.
    fn solve(n_right: usize, adj: &[Vec<usize>]) -> (usize, Vec<usize>, Vec<usize>) {
        let mut first = vec![0];
        let mut right = Vec::new();
        for nbrs in adj {
            right.extend(nbrs.iter().map(|&r| r as u32));
            first.push(right.len());
        }
        let (size, match_left, match_right) = hopcroft_karp(n_right, &first, &right);
        let widen = |m: Vec<u32>| -> Vec<usize> {
            m.into_iter().map(|v| if v == NIL { usize::MAX } else { v as usize }).collect()
        };
        (size, widen(match_left), widen(match_right))
    }

    #[test]
    fn perfect_matching_on_complete_graph() {
        let adj: Vec<Vec<usize>> = (0..4).map(|_| (0..4).collect()).collect();
        let (size, ml, mr) = solve(4, &adj);
        assert_eq!(size, 4);
        // Every left vertex matched, matching is consistent.
        for (l, &r) in ml.iter().enumerate() {
            assert_ne!(r, usize::MAX);
            assert_eq!(mr[r], l);
        }
    }

    #[test]
    fn empty_graph_has_empty_matching() {
        let adj: Vec<Vec<usize>> = vec![vec![]; 3];
        let (size, ml, _) = solve(2, &adj);
        assert_eq!(size, 0);
        assert!(ml.iter().all(|&r| r == usize::MAX));
    }

    #[test]
    fn requires_augmenting_path_to_improve_greedy() {
        // Greedy that matches l0-r0 first would block the perfect matching;
        // Hopcroft-Karp must find it via an augmenting path.
        // l0: {r0, r1}, l1: {r0}
        let adj = vec![vec![0, 1], vec![0]];
        let (size, ml, _) = solve(2, &adj);
        assert_eq!(size, 2);
        assert_eq!(ml[1], 0);
        assert_eq!(ml[0], 1);
    }

    #[test]
    fn unbalanced_sides() {
        // 5 left vertices all adjacent only to r0.
        let adj = vec![vec![0]; 5];
        let (size, _, mr) = solve(1, &adj);
        assert_eq!(size, 1);
        assert_ne!(mr[0], usize::MAX);
    }

    #[test]
    fn zero_sized_sides() {
        let (size, ml, mr) = solve(0, &[]);
        assert_eq!(size, 0);
        assert!(ml.is_empty());
        assert!(mr.is_empty());
    }

    #[test]
    fn koenig_style_instance() {
        // A 3x3 instance whose maximum matching is 2.
        // l0: {r0}, l1: {r0, r1}, l2: {r1}
        let adj = vec![vec![0], vec![0, 1], vec![1]];
        let (size, _, _) = solve(3, &adj);
        assert_eq!(size, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The CSR solver finds exactly the matching the adjacency-list
        /// solver found, on random graphs with parallel edges and isolated
        /// vertices.
        #[test]
        fn csr_solver_matches_the_adjacency_oracle(
            (nl, nr, edges) in (1usize..12, 1usize..12).prop_flat_map(|(nl, nr)| {
                (Just(nl), Just(nr), proptest::collection::vec((0..nl, 0..nr), 0..60))
            })
        ) {
            let mut adj = vec![vec![]; nl];
            for &(l, r) in &edges {
                adj[l].push(r);
            }
            prop_assert_eq!(solve(nr, &adj), hopcroft_karp_adjacency(nl, nr, &adj));
        }
    }
}
