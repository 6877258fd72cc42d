//! The generational struct-of-arrays arena backing the engine's live pools.
//!
//! Every live worker / pending task is stored once, in an [`ItemArena`]:
//! coordinates live in parallel `Vec<f64>`s (the layout the
//! [`crate::engine::kernels`] distance loops consume), the full `Copy` item
//! sits alongside in a slot vector, a `u32` column holds each object's
//! undebited matching capacity, and freed slots are recycled through a
//! free-list so the event loop stops allocating once the pools reach their
//! high-water mark. A [`PoolHandle`] names one insertion (slot + generation
//! stamp); generations follow a parity convention — odd is live, even is
//! vacant — and are bumped on both insert and remove, so a stale handle can
//! never observe a later occupant of the same slot.
//!
//! Vacant slots keep NaN coordinates. The distance kernels' `d² <= r²`
//! comparison is false for NaN, so the dense coordinate slices can be
//! scanned whole without a per-slot liveness branch.

use crate::engine::item::SpatialItem;
use crate::memory::vec_bytes;
use ftoa_types::{Candidate, PoolHandle};

/// Struct-of-arrays storage for one pool of spatial items.
#[derive(Debug, Clone)]
pub struct ItemArena<T> {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Undebited matching capacity per slot (0 on vacant slots). The engine
    /// debits this column as assignments are committed; the items keep their
    /// arrival-time capacity.
    remaining: Vec<u32>,
    items: Vec<Option<T>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    /// Dense item index (`WorkerId` / `TaskId`) → current live handle.
    by_index: Vec<Option<PoolHandle>>,
    live: usize,
}

impl<T: SpatialItem> ItemArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty arena with room for `capacity` simultaneously-live items
    /// (and dense indexes up to `capacity`), so a stream of known size runs
    /// without growing any of the parallel vectors.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            xs: Vec::with_capacity(capacity),
            ys: Vec::with_capacity(capacity),
            remaining: Vec::with_capacity(capacity),
            items: Vec::with_capacity(capacity),
            generations: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            by_index: Vec::with_capacity(capacity),
            live: 0,
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots the arena has ever used (live + vacant). The
    /// coordinate slices returned by [`Self::xs`] / [`Self::ys`] have this
    /// length.
    pub fn slot_count(&self) -> usize {
        self.xs.len()
    }

    /// The dense x-coordinate slice (NaN on vacant slots).
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The dense y-coordinate slice (NaN on vacant slots).
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Insert an item, returning the handle of this insertion.
    ///
    /// Panics if an item with the same dense index is already live — the
    /// engine admits each arriving object exactly once.
    pub fn insert(&mut self, item: T) -> PoolHandle {
        let index = item.item_index();
        if index >= self.by_index.len() {
            self.by_index.resize(index + 1, None);
        }
        assert!(
            self.by_index[index].is_none(),
            "arena already holds a live item with dense index {index}"
        );
        let location = item.item_location();
        let capacity = item.item_capacity();
        let slot = match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.xs[slot] = location.x;
                self.ys[slot] = location.y;
                self.remaining[slot] = capacity;
                self.items[slot] = Some(item);
                self.generations[slot] += 1; // even (vacant) -> odd (live)
                slot
            }
            None => {
                self.xs.push(location.x);
                self.ys.push(location.y);
                self.remaining.push(capacity);
                self.items.push(Some(item));
                self.generations.push(1);
                self.xs.len() - 1
            }
        };
        debug_assert!(self.generations[slot] % 2 == 1, "live slots carry odd generations");
        let handle = PoolHandle::new(slot as u32, self.generations[slot]);
        self.by_index[index] = Some(handle);
        self.live += 1;
        handle
    }

    /// Remove the insertion named by `handle`, returning the item. Stale
    /// handles (the slot was freed, or freed and reused) return `None`.
    pub fn remove(&mut self, handle: PoolHandle) -> Option<T> {
        if !self.is_live(handle) {
            return None;
        }
        let slot = handle.slot() as usize;
        self.generations[slot] += 1; // odd (live) -> even (vacant)
        self.xs[slot] = f64::NAN;
        self.ys[slot] = f64::NAN;
        self.remaining[slot] = 0;
        let item = self.items[slot].take().expect("live slot holds an item");
        self.by_index[item.item_index()] = None;
        self.free.push(slot as u32);
        self.live -= 1;
        Some(item)
    }

    /// Is `handle` still the current insertion of its slot?
    pub fn is_live(&self, handle: PoolHandle) -> bool {
        handle.generation() % 2 == 1
            && self.generations.get(handle.slot() as usize) == Some(&handle.generation())
    }

    /// The item behind a (live) handle.
    pub fn get(&self, handle: PoolHandle) -> Option<&T> {
        if !self.is_live(handle) {
            return None;
        }
        self.items[handle.slot() as usize].as_ref()
    }

    /// The current handle for a dense item index, if that object is live.
    pub fn handle_of(&self, index: usize) -> Option<PoolHandle> {
        self.by_index.get(index).copied().flatten()
    }

    /// Is an object with this dense index live?
    pub fn contains_index(&self, index: usize) -> bool {
        self.handle_of(index).is_some()
    }

    /// The live item stored in `slot` (indexes returned by the kernels).
    pub fn slot_item(&self, slot: usize) -> Option<&T> {
        self.items.get(slot)?.as_ref()
    }

    /// The live item stored in `slot`, but only if the slot still carries
    /// the generation `generation` (used by the kd backend to filter
    /// tombstoned tree entries).
    pub fn stamped_item(&self, slot: usize, generation: u32) -> Option<&T> {
        if self.generations.get(slot) != Some(&generation) {
            return None;
        }
        self.items[slot].as_ref()
    }

    /// Reconstruct the handle of a currently-live slot.
    pub fn handle_at_slot(&self, slot: usize) -> PoolHandle {
        debug_assert!(self.generations[slot] % 2 == 1, "slot {slot} is vacant");
        PoolHandle::new(slot as u32, self.generations[slot])
    }

    /// The deadline (minutes) behind a live handle.
    pub fn deadline_of(&self, handle: PoolHandle) -> Option<f64> {
        self.get(handle).map(|item| item.item_deadline().as_minutes())
    }

    /// The undebited matching capacity behind a live handle.
    pub fn remaining_of(&self, handle: PoolHandle) -> Option<u32> {
        if !self.is_live(handle) {
            return None;
        }
        Some(self.remaining[handle.slot() as usize])
    }

    /// Debit one unit of matching capacity from a live handle, returning the
    /// capacity left afterwards. `None` for stale handles; panics if the
    /// slot's capacity is already exhausted (the engine removes saturated
    /// items from the pool before that can happen).
    pub fn debit_capacity(&mut self, handle: PoolHandle) -> Option<u32> {
        if !self.is_live(handle) {
            return None;
        }
        let slot = handle.slot() as usize;
        assert!(self.remaining[slot] > 0, "slot {slot} has no capacity left to debit");
        self.remaining[slot] -= 1;
        Some(self.remaining[slot])
    }

    /// Assemble the [`Candidate`] for a currently-live slot hit by an index
    /// query at squared distance `dist_sq`.
    pub fn candidate_at_slot(&self, slot: usize, dist_sq: f64) -> Candidate {
        Candidate { handle: self.handle_at_slot(slot), dist_sq }
    }

    /// Visit every live item in ascending dense-index order (the canonical
    /// deterministic iteration order policies rely on).
    pub fn for_each_ordered(&self, visit: &mut (impl FnMut(&T) + ?Sized)) {
        for handle in self.by_index.iter().flatten() {
            let item =
                self.items[handle.slot() as usize].as_ref().expect("by_index points at live slots");
            visit(item);
        }
    }

    /// Visit every live item in slot order. Slot order depends on the
    /// free-list history, so it is deterministic for a fixed event sequence
    /// but **not** the canonical dense-index order — use this only when the
    /// caller imposes its own total order afterwards (e.g. batch flushes
    /// that sort what they collect). Unlike [`Self::for_each_ordered`] the
    /// cost is proportional to the slot high-water mark, not to the number
    /// of dense indexes ever seen.
    pub fn for_each_unordered(&self, visit: &mut (impl FnMut(&T) + ?Sized)) {
        for item in self.items.iter().flatten() {
            visit(item);
        }
    }

    /// Estimated bytes held by the arena, from vector *capacities*: the
    /// measure is monotone over a run (capacity never shrinks), which is
    /// what the engine's peak-memory accounting folds in at finish.
    pub fn structure_bytes(&self) -> usize {
        vec_bytes::<f64>(self.xs.capacity())
            + vec_bytes::<f64>(self.ys.capacity())
            + vec_bytes::<u32>(self.remaining.capacity())
            + vec_bytes::<Option<T>>(self.items.capacity())
            + vec_bytes::<u32>(self.generations.capacity())
            + vec_bytes::<u32>(self.free.capacity())
            + vec_bytes::<Option<PoolHandle>>(self.by_index.capacity())
    }
}

impl<T: SpatialItem> Default for ItemArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_types::{Location, TimeDelta, TimeStamp, Worker, WorkerId};

    fn worker(i: usize, x: f64, y: f64) -> Worker {
        Worker::new(WorkerId(i), Location::new(x, y), TimeStamp::ZERO, TimeDelta::minutes(10.0))
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut arena = ItemArena::new();
        let h = arena.insert(worker(3, 1.0, 2.0));
        assert_eq!(arena.len(), 1);
        assert!(arena.is_live(h));
        assert!(arena.contains_index(3));
        assert_eq!(arena.get(h).unwrap().id, WorkerId(3));
        assert_eq!(arena.handle_of(3), Some(h));
        assert_eq!(arena.deadline_of(h), Some(10.0));
        let removed = arena.remove(h).unwrap();
        assert_eq!(removed.id, WorkerId(3));
        assert!(arena.is_empty());
        assert!(!arena.is_live(h));
        assert!(arena.remove(h).is_none(), "double remove must be a no-op");
    }

    #[test]
    fn slot_reuse_invalidates_old_handles() {
        let mut arena = ItemArena::new();
        let h0 = arena.insert(worker(0, 1.0, 1.0));
        arena.remove(h0);
        let h1 = arena.insert(worker(1, 5.0, 5.0));
        assert_eq!(h1.slot(), h0.slot(), "the freed slot is recycled");
        assert_ne!(h1.generation(), h0.generation());
        assert!(arena.get(h0).is_none(), "stale handle must not see the new occupant");
        assert_eq!(arena.get(h1).unwrap().id, WorkerId(1));
    }

    #[test]
    fn vacant_slots_carry_nan_coordinates() {
        let mut arena = ItemArena::new();
        let h = arena.insert(worker(0, 3.0, 4.0));
        assert_eq!(arena.xs()[0], 3.0);
        arena.remove(h);
        assert!(arena.xs()[0].is_nan());
        assert!(arena.ys()[0].is_nan());
    }

    #[test]
    fn ordered_iteration_follows_dense_indexes() {
        let mut arena = ItemArena::new();
        for i in [4usize, 0, 2, 9, 1] {
            arena.insert(worker(i, i as f64, 0.0));
        }
        let mut seen = Vec::new();
        arena.for_each_ordered(&mut |w| seen.push(w.id.index()));
        assert_eq!(seen, vec![0, 1, 2, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "already holds a live item")]
    fn double_insert_of_one_index_panics() {
        let mut arena = ItemArena::new();
        arena.insert(worker(0, 1.0, 1.0));
        arena.insert(worker(0, 2.0, 2.0));
    }

    #[test]
    fn capacity_column_tracks_inserts_and_debits() {
        let mut arena = ItemArena::new();
        let h = arena.insert(worker(0, 1.0, 2.0).with_capacity(2));
        assert_eq!(arena.remaining_of(h), Some(2));
        let c = arena.candidate_at_slot(h.slot() as usize, 4.0);
        assert_eq!(c.handle, h);
        assert_eq!(c.dist_sq, 4.0);
        assert_eq!(arena.debit_capacity(h), Some(1));
        assert_eq!(arena.remaining_of(h), Some(1));
        arena.remove(h);
        assert_eq!(arena.remaining_of(h), None);
        assert_eq!(arena.debit_capacity(h), None, "stale handles cannot debit");
    }

    #[test]
    fn structure_bytes_is_monotone_under_churn() {
        let mut arena = ItemArena::with_capacity(4);
        let mut last = arena.structure_bytes();
        for round in 0..50 {
            let h = arena.insert(worker(round % 3, round as f64, 1.0));
            let grown = arena.structure_bytes();
            assert!(grown >= last, "round {round}");
            last = grown;
            arena.remove(h);
            let shrunk = arena.structure_bytes();
            assert!(shrunk >= last, "capacity-based accounting never shrinks");
            last = shrunk;
        }
    }
}
