//! The KD-tree backend: the crate's static `KdTree` (module `kdtree`) made
//! dynamic through epoch rebuilds.
//!
//! The KD-tree is build-once, but the engine's pools mutate on every event.
//! This wrapper bridges the gap the classic way:
//!
//! * **removals tombstone**: tree payloads are arena `(slot, generation)`
//!   stamps, and the arena bumps a slot's generation whenever the object
//!   leaves — so a stale tree entry is detected by a single generation
//!   compare, with no bookkeeping here beyond a dirty counter;
//! * **insertions buffer**: new items go into a small struct-of-arrays
//!   `fresh` overflow list that queries scan with the batched distance
//!   kernels alongside the tree;
//! * when the dirty work (`stale + fresh`) crosses a threshold proportional
//!   to the live size, the tree is **rebuilt** over the arena's live set and
//!   both lists reset — amortising the O(n log n) build over Ω(n) mutations.
//!   The threshold is checked **lazily, at query time**, not on every
//!   mutation: queries are what pay for dirty state (fresh entries scanned,
//!   tombstones filtered), so a pool that mutates heavily but is queried
//!   rarely — the KD-tree half of the hybrid backend under dense routing —
//!   never rebuilds a tree nobody asks, and the mutation path stays O(1).
//!
//! Queries are exact at every instant (tree hits and fresh hits are merged,
//! dead stamps are filtered), so the backend agrees with the linear-scan
//! oracle on every query — pinned by the backend-agreement tests and the CI
//! replay gate.

use crate::engine::arena::ItemArena;
use crate::engine::index::CandidateIndex;
use crate::engine::item::SpatialItem;
use crate::engine::kernels;
use crate::kdtree::KdTree;
use crate::memory::vec_bytes;
use ftoa_types::{Candidate, Location, PoolHandle};
use std::marker::PhantomData;

/// Rebuild once the dirty work exceeds `REBUILD_BASE + live / 8`: the
/// constant absorbs churn in tiny pools, the fraction keeps the per-query
/// overhead (fresh entries kernel-scanned + in-disk tombstones) bounded by
/// ~an eighth of the live set, so the backend's examined-candidates count
/// stays below the exhaustive scan even on small fixtures.
const REBUILD_BASE: usize = 8;

/// Dynamic KD-tree pool: a static tree over a past epoch plus generation
/// filtering, a fresh-insert buffer and threshold-triggered rebuilds.
pub struct KdCandidateIndex<T> {
    /// Snapshot of a past epoch; payloads are arena `(slot, generation)`
    /// stamps and entries whose generation no longer matches are dead.
    tree: KdTree<(u32, u32)>,
    /// Insertions since the last rebuild (never in `tree`), struct-of-arrays
    /// so queries can kernel-scan the coordinates.
    fresh_xs: Vec<f64>,
    fresh_ys: Vec<f64>,
    fresh_stamps: Vec<(u32, u32)>,
    /// Tree entries invalidated by a removal since the last rebuild.
    stale: usize,
    examined: u64,
    _items: PhantomData<T>,
}

impl<T: SpatialItem> KdCandidateIndex<T> {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self {
            tree: KdTree::build(Vec::new()),
            fresh_xs: Vec::new(),
            fresh_ys: Vec::new(),
            fresh_stamps: Vec::new(),
            stale: 0,
            examined: 0,
            _items: PhantomData,
        }
    }

    /// Entries whose work queries must absorb until the next rebuild.
    fn dirty(&self) -> usize {
        self.stale + self.fresh_stamps.len()
    }

    fn maybe_rebuild(&mut self, arena: &ItemArena<T>) {
        if self.dirty() > REBUILD_BASE + arena.len() / 8 {
            let points: Vec<(Location, (u32, u32))> = (0..arena.slot_count())
                .filter_map(|slot| {
                    arena.slot_item(slot).map(|item| {
                        let handle = arena.handle_at_slot(slot);
                        (item.item_location(), (handle.slot(), handle.generation()))
                    })
                })
                .collect();
            self.tree = KdTree::build(points);
            self.fresh_xs.clear();
            self.fresh_ys.clear();
            self.fresh_stamps.clear();
            self.stale = 0;
        }
    }
}

impl<T: SpatialItem> Default for KdCandidateIndex<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SpatialItem> CandidateIndex<T> for KdCandidateIndex<T> {
    fn insert(&mut self, arena: &ItemArena<T>, handle: PoolHandle) {
        let slot = handle.slot() as usize;
        self.fresh_xs.push(arena.xs()[slot]);
        self.fresh_ys.push(arena.ys()[slot]);
        self.fresh_stamps.push((handle.slot(), handle.generation()));
    }

    fn remove(&mut self, _arena: &ItemArena<T>, _handle: PoolHandle) {
        // The copy (in the tree or in `fresh`) dies via the arena's
        // generation bump; only the dirty counter needs to know. Rebuilds
        // happen lazily at the next query.
        self.stale += 1;
    }

    fn nearest_within(
        &mut self,
        arena: &ItemArena<T>,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate> {
        self.maybe_rebuild(arena);
        let mut scanned = 0u64;
        // The radius bound prunes the tree search itself (subtrees beyond
        // the reachable disk are never entered), so `scanned` counts only
        // in-disk tree candidates plus the fresh buffer — the same
        // disk-proportional work profile as the grid backend.
        let tree_best = self
            .tree
            .nearest_within_where(query, max_radius, |&(slot, generation), _| {
                scanned += 1;
                match arena.stamped_item(slot as usize, generation) {
                    Some(item) => feasible(item),
                    None => false,
                }
            })
            .map(|(_, &(slot, _), d)| (slot as usize, d));
        // Merge with the not-yet-indexed fresh buffer; strict `<` keeps the
        // tree hit on exact ties, which is deterministic for a fixed epoch
        // history.
        scanned += self.fresh_stamps.len() as u64;
        let max_r2 = if max_radius < 0.0 { f64::NEG_INFINITY } else { max_radius * max_radius };
        let mut best = tree_best;
        let stamps = &self.fresh_stamps;
        kernels::for_each_within_sq(
            &self.fresh_xs,
            &self.fresh_ys,
            query.x,
            query.y,
            max_r2,
            &mut |pos, d2| {
                let (slot, generation) = stamps[pos];
                let Some(item) = arena.stamped_item(slot as usize, generation) else { return };
                let d = d2.sqrt();
                if best.is_some_and(|(_, best_d)| d >= best_d) {
                    return;
                }
                if feasible(item) {
                    best = Some((slot as usize, d));
                }
            },
        );
        self.examined += scanned;
        // The merge above tracks true distances (the tree returns them
        // directly); square back for the candidate's `dist_sq` field.
        best.map(|(slot, d)| arena.candidate_at_slot(slot, d * d))
    }

    fn for_each_within(
        &mut self,
        arena: &ItemArena<T>,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    ) {
        self.maybe_rebuild(arena);
        let mut scanned = 0u64;
        for (_, &(slot, generation), d) in self.tree.within_radius(center, radius) {
            scanned += 1;
            if let Some(item) = arena.stamped_item(slot as usize, generation) {
                visit(arena.candidate_at_slot(slot as usize, d * d), item);
            }
        }
        scanned += self.fresh_stamps.len() as u64;
        let r2 = if radius < 0.0 { f64::NEG_INFINITY } else { radius * radius };
        let stamps = &self.fresh_stamps;
        kernels::for_each_within_sq(
            &self.fresh_xs,
            &self.fresh_ys,
            center.x,
            center.y,
            r2,
            &mut |pos, d2| {
                let (slot, generation) = stamps[pos];
                if let Some(item) = arena.stamped_item(slot as usize, generation) {
                    visit(arena.candidate_at_slot(slot as usize, d2), item);
                }
            },
        );
        self.examined += scanned;
    }

    fn candidates_examined(&self) -> u64 {
        self.examined
    }

    fn structure_bytes(&self) -> usize {
        // Fresh buffer + tree points and nodes (the node layout is private
        // to `kdtree`; approximate it with one pointer-and-axis record per
        // stored point).
        vec_bytes::<f64>(self.fresh_xs.capacity())
            + vec_bytes::<f64>(self.fresh_ys.capacity())
            + vec_bytes::<(u32, u32)>(self.fresh_stamps.capacity())
            + vec_bytes::<(Location, (u32, u32))>(self.tree.len())
            + vec_bytes::<(usize, usize, usize, u8)>(self.tree.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::index::linear::LinearScanIndex;
    use ftoa_types::{TimeDelta, TimeStamp, Worker, WorkerId};

    fn worker(i: usize, x: f64, y: f64) -> Worker {
        Worker::new(WorkerId(i), Location::new(x, y), TimeStamp::ZERO, TimeDelta::minutes(60.0))
    }

    /// Deterministic scatter with no duplicate distances from the queries.
    fn coords(i: usize) -> (f64, f64) {
        (((i * 37) % 101) as f64 * 0.37, ((i * 59) % 89) as f64 * 0.53)
    }

    /// Heavy insert/remove churn (forcing several epoch rebuilds) never makes
    /// the kd backend disagree with the exhaustive linear oracle.
    #[test]
    fn churn_agrees_with_the_linear_oracle() {
        let mut arena: ItemArena<Worker> = ItemArena::new();
        let mut kd: KdCandidateIndex<Worker> = KdCandidateIndex::new();
        let mut oracle: LinearScanIndex<Worker> = LinearScanIndex::new();
        let mut handles = Vec::new();

        for round in 0..200 {
            let (x, y) = coords(round);
            let handle = arena.insert(worker(round, x, y));
            kd.insert(&arena, handle);
            oracle.insert(&arena, handle);
            handles.push(handle);
            if round % 3 == 2 {
                // Remove the oldest still-live handle: plenty of tombstones.
                let victim = handles.remove(0);
                kd.remove(&arena, victim);
                oracle.remove(&arena, victim);
                arena.remove(victim);
            }

            let query = Location::new((round % 7) as f64 * 4.1, (round % 5) as f64 * 6.3);
            for radius in [3.0, 12.0, f64::INFINITY] {
                let got = kd.nearest_within(&arena, &query, radius, &mut |_| true);
                let want = oracle.nearest_within(&arena, &query, radius, &mut |_| true);
                assert_eq!(
                    got.map(|c| c.handle),
                    want.map(|c| c.handle),
                    "round {round}, radius {radius}"
                );

                let mut got_ids: Vec<usize> = Vec::new();
                kd.for_each_within(&arena, &query, radius, &mut |_, w| got_ids.push(w.id.index()));
                let mut want_ids: Vec<usize> = Vec::new();
                oracle.for_each_within(&arena, &query, radius, &mut |_, w| {
                    want_ids.push(w.id.index())
                });
                got_ids.sort_unstable();
                want_ids.sort_unstable();
                assert_eq!(got_ids, want_ids, "round {round}, radius {radius}");
            }
        }
    }

    /// A removed object disappears from queries immediately, and a new
    /// insertion into its recycled slot is visible immediately — both before
    /// any rebuild happens.
    #[test]
    fn removal_and_slot_reuse_are_visible_before_a_rebuild() {
        let mut arena: ItemArena<Worker> = ItemArena::new();
        let mut kd: KdCandidateIndex<Worker> = KdCandidateIndex::new();

        let h0 = arena.insert(worker(0, 1.0, 1.0));
        kd.insert(&arena, h0);
        let query = Location::new(0.0, 0.0);
        assert!(kd.nearest_within(&arena, &query, 10.0, &mut |_| true).is_some());

        kd.remove(&arena, h0);
        arena.remove(h0);
        assert!(
            kd.nearest_within(&arena, &query, 10.0, &mut |_| true).is_none(),
            "tombstoned entry must not be returned"
        );

        let h1 = arena.insert(worker(1, 2.0, 2.0));
        kd.insert(&arena, h1);
        assert_eq!(h1.slot(), h0.slot(), "slot is recycled");
        let hit = kd.nearest_within(&arena, &query, 10.0, &mut |_| true).expect("fresh hit");
        assert_eq!(hit.handle, h1);
        let mut seen = Vec::new();
        kd.for_each_within(&arena, &query, 10.0, &mut |_, w| seen.push(w.id.index()));
        assert_eq!(seen, vec![1]);
    }

    /// Rebuilds are lazy: mutations only accumulate dirty state, and the
    /// first query past the threshold drains the fresh buffer into the tree.
    #[test]
    fn rebuilds_are_lazy_and_drain_the_fresh_buffer_at_query_time() {
        let mut arena: ItemArena<Worker> = ItemArena::new();
        let mut kd: KdCandidateIndex<Worker> = KdCandidateIndex::new();
        for i in 0..64 {
            let (x, y) = coords(i);
            let handle = arena.insert(worker(i, x, y));
            kd.insert(&arena, handle);
        }
        // 64 inserts are far past the rebuild threshold (8 + len/8), but no
        // query has run yet: the mutation path never rebuilds.
        assert_eq!(kd.dirty(), 64, "inserts alone must not trigger a rebuild");
        assert_eq!(kd.tree.len(), 0, "the tree is untouched until a query needs it");
        // The first query pays the rebuild and resets the dirty bookkeeping.
        let hit = kd.nearest_within(&arena, &Location::new(0.0, 0.0), f64::INFINITY, &mut |_| true);
        assert!(hit.is_some());
        assert!(kd.dirty() <= REBUILD_BASE + arena.len() / 8);
        assert!(kd.tree.len() > 0, "the query-time rebuild moved fresh entries into the tree");
    }
}
