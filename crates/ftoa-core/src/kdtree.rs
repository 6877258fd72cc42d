//! Static 2-D KD-tree for nearest-neighbour queries.
//!
//! Built once over a point set and queried many times: exact filtered
//! nearest-neighbour search inside a radius, and radius range queries. The
//! engine's [`crate::engine::index::KdCandidateIndex`] backend is its one
//! user; it makes the tree dynamic through epoch rebuilds.

use ftoa_types::Location;

#[derive(Debug, Clone)]
struct Node {
    /// Index into the `points` array of the point stored at this node.
    point: usize,
    left: Option<usize>,
    right: Option<usize>,
    /// Splitting axis: 0 = x, 1 = y.
    axis: u8,
}

/// A static KD-tree over `(Location, payload)` pairs.
#[derive(Debug, Clone)]
pub struct KdTree<T> {
    points: Vec<(Location, T)>,
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl<T> KdTree<T> {
    /// Build a KD-tree from a list of points.
    pub fn build(points: Vec<(Location, T)>) -> Self {
        let n = points.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut tree = Self { points, nodes: Vec::with_capacity(n), root: None };
        if n > 0 {
            let root = tree.build_rec(&mut indices, 0);
            tree.root = Some(root);
        }
        tree
    }

    fn build_rec(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let axis = (depth % 2) as u8;
        indices.sort_unstable_by(|&a, &b| {
            let ka = if axis == 0 { self.points[a].0.x } else { self.points[a].0.y };
            let kb = if axis == 0 { self.points[b].0.x } else { self.points[b].0.y };
            ka.total_cmp(&kb)
        });
        let mid = indices.len() / 2;
        let point = indices[mid];
        let node_id = self.nodes.len();
        self.nodes.push(Node { point, left: None, right: None, axis });
        // Recurse. Split the slice to satisfy the borrow checker.
        let (left_slice, rest) = indices.split_at_mut(mid);
        let right_slice = &mut rest[1..];
        if !left_slice.is_empty() {
            let l = self.build_rec(left_slice, depth + 1);
            self.nodes[node_id].left = Some(l);
        }
        if !right_slice.is_empty() {
            let r = self.build_rec(right_slice, depth + 1);
            self.nodes[node_id].right = Some(r);
        }
        node_id
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Exact nearest neighbour within `max_radius` of `query` (inclusive)
    /// among points accepted by `feasible`. Returns `(location, payload,
    /// distance)`.
    ///
    /// The radius seeds the branch-pruning bound *before* any candidate is
    /// found, so a query with no feasible point inside the disk terminates
    /// after visiting only the subtrees overlapping it instead of the whole
    /// tree. This is the reachable-disk pruning online assignment uses: a
    /// candidate farther than the disk radius can never meet the deadline
    /// constraint, so the search never needs to look past it.
    pub fn nearest_within_where<F>(
        &self,
        query: &Location,
        max_radius: f64,
        mut feasible: F,
    ) -> Option<(&Location, &T, f64)>
    where
        F: FnMut(&T, &Location) -> bool,
    {
        let root = self.root?;
        if max_radius < 0.0 {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        self.search(root, query, max_radius * max_radius, &mut feasible, &mut best);
        best.map(|(idx, d)| (&self.points[idx].0, &self.points[idx].1, d.sqrt()))
    }

    fn search<F>(
        &self,
        node_id: usize,
        query: &Location,
        max_r2: f64,
        feasible: &mut F,
        best: &mut Option<(usize, f64)>,
    ) where
        F: FnMut(&T, &Location) -> bool,
    {
        let node = &self.nodes[node_id];
        let (loc, payload) = &self.points[node.point];
        let d2 = query.distance_sq(loc);
        if d2 <= max_r2 && feasible(payload, loc) && best.is_none_or(|(_, bd)| d2 < bd) {
            *best = Some((node.point, d2));
        }
        let diff = if node.axis == 0 { query.x - loc.x } else { query.y - loc.y };
        let (near, far) =
            if diff <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        if let Some(n) = near {
            self.search(n, query, max_r2, feasible, best);
        }
        // Only descend into the far side if the splitting plane is closer
        // than the pruning bound: the current best distance, capped by the
        // query radius (`<=` because the radius is inclusive).
        let bound = best.map_or(max_r2, |(_, bd)| bd.min(max_r2));
        if diff * diff <= bound {
            if let Some(f) = far {
                self.search(f, query, max_r2, feasible, best);
            }
        }
    }

    /// All points within `radius` of `query`, as `(location, payload, distance)`.
    pub fn within_radius(&self, query: &Location, radius: f64) -> Vec<(&Location, &T, f64)> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_search(root, query, radius, &mut out);
        }
        out
    }

    fn range_search<'a>(
        &'a self,
        node_id: usize,
        query: &Location,
        radius: f64,
        out: &mut Vec<(&'a Location, &'a T, f64)>,
    ) {
        let node = &self.nodes[node_id];
        let (loc, payload) = &self.points[node.point];
        let d = query.distance(loc);
        if d <= radius {
            out.push((loc, payload, d));
        }
        let diff = if node.axis == 0 { query.x - loc.x } else { query.y - loc.y };
        let (near, far) =
            if diff <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        if let Some(n) = near {
            self.range_search(n, query, radius, out);
        }
        if diff.abs() <= radius {
            if let Some(f) = far {
                self.range_search(f, query, radius, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_points() -> Vec<(Location, usize)> {
        let mut pts = Vec::new();
        let mut id = 0;
        for x in 0..10 {
            for y in 0..10 {
                pts.push((Location::new(x as f64, y as f64), id));
                id += 1;
            }
        }
        pts
    }

    #[test]
    fn empty_tree_returns_none() {
        let t: KdTree<usize> = KdTree::build(vec![]);
        assert_eq!(t.len(), 0);
        assert!(t.nearest_within_where(&Location::ORIGIN, f64::INFINITY, |_, _| true).is_none());
        assert!(t.within_radius(&Location::ORIGIN, 10.0).is_empty());
    }

    #[test]
    fn nearest_on_grid_points() {
        let t = KdTree::build(grid_points());
        assert_eq!(t.len(), 100);
        let (loc, _, d) =
            t.nearest_within_where(&Location::new(3.2, 6.9), f64::INFINITY, |_, _| true).unwrap();
        assert_eq!(*loc, Location::new(3.0, 7.0));
        assert!((d - (0.04f64 + 0.01).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = grid_points();
        let t = KdTree::build(pts.clone());
        for q in [
            Location::new(-1.0, -1.0),
            Location::new(4.5, 4.5),
            Location::new(20.0, 3.0),
            Location::new(0.49, 8.51),
        ] {
            let brute = pts.iter().map(|(l, _)| q.distance(l)).fold(f64::INFINITY, f64::min);
            let (_, _, d) = t.nearest_within_where(&q, f64::INFINITY, |_, _| true).unwrap();
            assert!((d - brute).abs() < 1e-9, "query {q}");
        }
    }

    #[test]
    fn filtered_nearest_skips_infeasible_points() {
        let t = KdTree::build(grid_points());
        // Only points with odd payload are feasible.
        let (_, &payload, _) = t
            .nearest_within_where(&Location::new(0.1, 0.1), f64::INFINITY, |&p, _| p % 2 == 1)
            .unwrap();
        assert_eq!(payload % 2, 1);
        assert!(t.nearest_within_where(&Location::ORIGIN, f64::INFINITY, |_, _| false).is_none());
    }

    #[test]
    fn radius_bounded_nearest_matches_brute_force() {
        let pts = grid_points();
        let t = KdTree::build(pts.clone());
        for q in [Location::new(4.3, 4.8), Location::new(-0.6, 3.2), Location::new(9.9, 0.1)] {
            for radius in [0.25, 0.5, 1.0, 3.0] {
                let brute = pts
                    .iter()
                    .map(|(l, _)| q.distance(l))
                    .filter(|&d| d <= radius)
                    .fold(f64::INFINITY, f64::min);
                match t.nearest_within_where(&q, radius, |_, _| true) {
                    Some((_, _, d)) => assert!((d - brute).abs() < 1e-9, "query {q} r={radius}"),
                    None => assert_eq!(brute, f64::INFINITY, "query {q} r={radius}"),
                }
            }
        }
        // Negative radius never matches anything.
        assert!(t.nearest_within_where(&Location::ORIGIN, -1.0, |_, _| true).is_none());
    }

    #[test]
    fn radius_bound_prunes_the_search() {
        let t = KdTree::build(grid_points());
        let mut visited_bounded = 0usize;
        let _ = t.nearest_within_where(&Location::new(5.1, 5.1), 1.0, |_, _| {
            visited_bounded += 1;
            false // feasibility never satisfied: the worst case for pruning
        });
        let mut visited_unbounded = 0usize;
        let _ = t.nearest_within_where(&Location::new(5.1, 5.1), f64::INFINITY, |_, _| {
            visited_unbounded += 1;
            false
        });
        assert_eq!(visited_unbounded, 100, "unbounded infeasible search scans everything");
        assert!(
            visited_bounded < visited_unbounded / 5,
            "radius bound failed to prune: {visited_bounded} vs {visited_unbounded}"
        );
    }

    #[test]
    fn within_radius_collects_all_close_points() {
        let t = KdTree::build(grid_points());
        let found = t.within_radius(&Location::new(5.0, 5.0), 1.0);
        // (5,5), (4,5), (6,5), (5,4), (5,6)
        assert_eq!(found.len(), 5);
        assert!(found.iter().all(|&(_, _, d)| d <= 1.0));
    }

    #[test]
    fn duplicate_points_are_handled() {
        let pts = vec![
            (Location::new(1.0, 1.0), 0),
            (Location::new(1.0, 1.0), 1),
            (Location::new(2.0, 2.0), 2),
        ];
        let t = KdTree::build(pts);
        let (_, _, d) =
            t.nearest_within_where(&Location::new(1.0, 1.0), f64::INFINITY, |_, _| true).unwrap();
        assert_eq!(d, 0.0);
        assert_eq!(t.within_radius(&Location::new(1.0, 1.0), 0.1).len(), 2);
    }

    fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
        proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..120)
    }

    fn tree_of(pts: &[(f64, f64)]) -> KdTree<usize> {
        KdTree::build(pts.iter().enumerate().map(|(i, &(x, y))| (Location::new(x, y), i)).collect())
    }

    /// Distance from `q` to the nearest point whose index `keep` accepts.
    fn brute_nearest(pts: &[(f64, f64)], q: &Location, keep: impl Fn(usize) -> bool) -> f64 {
        pts.iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .map(|(_, &(x, y))| q.distance(&Location::new(x, y)))
            .fold(f64::INFINITY, f64::min)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn kdtree_nearest_matches_brute_force(
            pts in points_strategy(),
            qx in -10.0f64..110.0,
            qy in -10.0f64..110.0,
        ) {
            let q = Location::new(qx, qy);
            let (_, _, d) =
                tree_of(&pts).nearest_within_where(&q, f64::INFINITY, |_, _| true).unwrap();
            let brute = brute_nearest(&pts, &q, |_| true);
            prop_assert!((d - brute).abs() < 1e-9);
        }

        #[test]
        fn kdtree_radius_query_matches_brute_force(
            pts in points_strategy(),
            qx in 0.0f64..100.0,
            qy in 0.0f64..100.0,
            radius in 0.0f64..60.0,
        ) {
            let q = Location::new(qx, qy);
            let found = tree_of(&pts).within_radius(&q, radius).len();
            let brute = pts
                .iter()
                .filter(|&&(x, y)| q.distance(&Location::new(x, y)) <= radius)
                .count();
            prop_assert_eq!(found, brute);
        }

        #[test]
        fn kdtree_filtered_nearest_matches_brute_force(
            pts in points_strategy(),
            qx in 0.0f64..100.0,
            qy in 0.0f64..100.0,
            modulus in 2usize..5,
        ) {
            let q = Location::new(qx, qy);
            let kd = tree_of(&pts)
                .nearest_within_where(&q, f64::INFINITY, |&p, _| p % modulus == 0)
                .map(|(_, _, d)| d);
            let brute = brute_nearest(&pts, &q, |i| i % modulus == 0);
            match kd {
                Some(d) => prop_assert!((d - brute).abs() < 1e-9, "kd {} vs brute {}", d, brute),
                None => prop_assert!(brute.is_infinite(), "kd found nothing, brute {}", brute),
            }
        }
    }
}
