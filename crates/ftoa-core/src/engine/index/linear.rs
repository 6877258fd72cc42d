//! The exhaustive linear-scan backend (reference / oracle).

use crate::engine::arena::ItemArena;
use crate::engine::index::CandidateIndex;
use crate::engine::item::SpatialItem;
use crate::engine::kernels;
use ftoa_types::{Candidate, Location, PoolHandle};
use std::marker::PhantomData;

/// Reference backend: every query runs the distance kernels over the
/// arena's *entire* coordinate slices (vacant slots fall out via their NaN
/// coordinates). O(n) per query with no spatial pruning — the oracle the
/// indexed backends are tested against. The index itself holds no spatial
/// structure at all; the arena is the storage.
#[derive(Debug, Clone)]
pub struct LinearScanIndex<T> {
    examined: u64,
    _items: PhantomData<T>,
}

impl<T: SpatialItem> LinearScanIndex<T> {
    /// Create the (stateless) scanner.
    pub fn new() -> Self {
        Self { examined: 0, _items: PhantomData }
    }
}

impl<T: SpatialItem> Default for LinearScanIndex<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SpatialItem> CandidateIndex<T> for LinearScanIndex<T> {
    fn insert(&mut self, _arena: &ItemArena<T>, _handle: PoolHandle) {}

    fn remove(&mut self, _arena: &ItemArena<T>, _handle: PoolHandle) {}

    fn nearest_within(
        &mut self,
        arena: &ItemArena<T>,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate> {
        // The scan touches every live entry, exactly like the pre-arena
        // dense-slot loop did.
        self.examined += arena.len() as u64;
        // A negative radius admits nothing (squaring would lose the sign).
        let max_r2 = if max_radius < 0.0 { f64::NEG_INFINITY } else { max_radius * max_radius };
        let best = kernels::nearest_within_sq(
            arena.xs(),
            arena.ys(),
            query.x,
            query.y,
            max_r2,
            &mut |slot| feasible(arena.slot_item(slot).expect("kernel hits are live slots")),
        );
        best.map(|(slot, d2)| arena.candidate_at_slot(slot, d2))
    }

    fn for_each_within(
        &mut self,
        arena: &ItemArena<T>,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    ) {
        self.examined += arena.len() as u64;
        let r2 = if radius < 0.0 { f64::NEG_INFINITY } else { radius * radius };
        kernels::for_each_within_sq(
            arena.xs(),
            arena.ys(),
            center.x,
            center.y,
            r2,
            &mut |slot, d2| {
                visit(
                    arena.candidate_at_slot(slot, d2),
                    arena.slot_item(slot).expect("kernel hits are live slots"),
                );
            },
        );
    }

    fn candidates_examined(&self) -> u64 {
        self.examined
    }

    fn structure_bytes(&self) -> usize {
        // The arena owns the storage; the scanner adds nothing.
        std::mem::size_of::<Self>()
    }
}
