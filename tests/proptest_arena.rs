//! Property tests for the generational `ItemArena` backing the engine pools.
//!
//! A random insert/remove/reinsert workload is replayed against a plain
//! `BTreeMap` model. The properties pin the two guarantees every candidate
//! backend builds on:
//!
//! * **handles are never stale**: a handle returned by an insert resolves to
//!   exactly that insertion until it is removed, and never again afterwards —
//!   even when the slot is recycled by a later insert;
//! * **ordered iteration is dense-index order**: `for_each_ordered` visits
//!   the live items in ascending `WorkerId` order regardless of the slot
//!   permutation the free-list produced.
//!
//! The same churn then drives the grid backend and the linear-scan oracle
//! side by side: after every step both must answer a nearest query with the
//! same distance and a range query with the same slots and distances. The
//! coordinates sit on a quarter-unit lattice that reaches past the grid's
//! bounds, and the grid runs from 1×1 to 64×64 buckets, so exact ties,
//! members clamped into edge buckets, buckets whose boxes outlive removed
//! members, and buckets emptied and refilled all occur.

use ftoa::core_algorithms::{CandidateIndex, GridCandidateIndex, ItemArena, LinearScanIndex};
use ftoa::types::{
    BoundingBox, GridPartition, Location, PoolHandle, ProblemConfig, SlotPartition, TimeDelta,
    TimeStamp, Worker, WorkerId,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of the random workload, interpreted against the current state:
/// `Insert` admits the first non-live index derived from `index_seed`;
/// `Remove` drops the live object whose position (in dense order) is
/// `pick % live`.
#[derive(Debug, Clone)]
enum Op {
    Insert { index_seed: usize, x: f64, y: f64 },
    Remove { pick: usize },
}

/// Ops whose inserts draw both coordinates from `coord`.
fn churn_strategy(coord: impl Strategy<Value = f64> + Clone) -> impl Strategy<Value = Op> {
    // ~60% inserts, ~40% removes (the shimmed proptest has no `prop_oneof`,
    // so the choice is folded into one mapped tuple).
    (0u32..5, 0usize..24, coord.clone(), coord).prop_map(|(kind, seed, x, y)| {
        if kind < 3 {
            Op::Insert { index_seed: seed, x, y }
        } else {
            Op::Remove { pick: seed }
        }
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    churn_strategy(-50.0f64..50.0)
}

/// An op resolved against the live set.
enum Step {
    Insert(Worker),
    Remove(usize),
}

/// What `op` does to the live set `model` (dense index → handle, item):
/// admit a worker under the first index from `index_seed` that is not live,
/// or remove the live index at position `pick % live`; `None` when every
/// index is live (insert) or none is (remove).
fn resolve(op: &Op, model: &BTreeMap<usize, (PoolHandle, Worker)>) -> Option<Step> {
    match *op {
        Op::Insert { index_seed, x, y } => (index_seed..index_seed + 24)
            .map(|i| i % 24)
            .find(|i| !model.contains_key(i))
            .map(|index| Step::Insert(worker(index, x, y))),
        Op::Remove { pick } => {
            let live = model.len();
            (live > 0).then(|| Step::Remove(*model.keys().nth(pick % live).expect("pick < live")))
        }
    }
}

/// A quarter-unit lattice over `[-2, 18)`, past both edges of the grid's
/// `[0, 16]` world.
fn lattice() -> impl Strategy<Value = f64> + Clone {
    (-8i64..72).prop_map(|k| k as f64 / 4.0)
}

/// A query after each churn step: point, radius (0, finite or infinite) and
/// the feasibility filter "id is a multiple of `keep`".
fn query_strategy() -> impl Strategy<Value = (Location, f64, usize)> {
    (lattice(), lattice(), 0u32..4, 0i64..48, 1usize..4).prop_map(|(x, y, kind, r, keep)| {
        let radius = match kind {
            0 => 0.0,
            1 => f64::INFINITY,
            _ => r as f64 / 4.0,
        };
        (Location::new(x, y), radius, keep)
    })
}

fn worker(index: usize, x: f64, y: f64) -> Worker {
    Worker::new(WorkerId(index), Location::new(x, y), TimeStamp::ZERO, TimeDelta::minutes(30.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_agrees_with_a_map_model_under_churn(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut arena: ItemArena<Worker> = ItemArena::new();
        // Dense index -> (current handle, item) for the live set.
        let mut model: BTreeMap<usize, (PoolHandle, Worker)> = BTreeMap::new();
        // Every handle ever retired, with the slot it occupied.
        let mut retired: Vec<PoolHandle> = Vec::new();

        for op in ops {
            // Skip the step when every index is live or none is.
            let Some(step) = resolve(&op, &model) else {
                continue;
            };
            match step {
                Step::Insert(item) => {
                    let handle = arena.insert(item);
                    prop_assert!(arena.is_live(handle));
                    prop_assert_eq!(arena.handle_of(item.id.index()), Some(handle));
                    model.insert(item.id.index(), (handle, item));
                }
                Step::Remove(index) => {
                    let (handle, item) = model.remove(&index).expect("picked a live index");
                    let removed = arena.remove(handle).expect("live handle removes");
                    prop_assert_eq!(removed.id, item.id);
                    prop_assert!(!arena.is_live(handle));
                    prop_assert!(arena.remove(handle).is_none(), "double remove is a no-op");
                    retired.push(handle);
                }
            }

            // The live set matches the model exactly.
            prop_assert_eq!(arena.len(), model.len());
            for (&index, &(handle, item)) in model.iter() {
                prop_assert_eq!(arena.handle_of(index), Some(handle));
                let got = arena.get(handle).expect("live handle resolves");
                prop_assert_eq!(got.id, item.id);
                prop_assert_eq!(got.location, item.location);
            }

            // No retired handle ever resolves again, even after its slot was
            // recycled by a later insertion.
            for &stale in retired.iter() {
                prop_assert!(!arena.is_live(stale));
                prop_assert!(arena.get(stale).is_none());
                prop_assert!(arena.deadline_of(stale).is_none());
            }

            // Ordered iteration = ascending dense-index order, independent of
            // the slot permutation the free-list produced.
            let mut seen = Vec::new();
            arena.for_each_ordered(&mut |w: &Worker| seen.push(w.id.index()));
            let expected: Vec<usize> = model.keys().copied().collect();
            prop_assert_eq!(seen, expected);

            // Vacant slots carry NaN coordinates (what keeps the distance
            // kernels from ever surfacing them).
            let live_slots: Vec<usize> =
                model.values().map(|&(h, _)| h.slot() as usize).collect();
            for slot in 0..arena.slot_count() {
                if !live_slots.contains(&slot) {
                    prop_assert!(arena.xs()[slot].is_nan());
                    prop_assert!(arena.ys()[slot].is_nan());
                }
            }
        }
    }
}

/// Every `(slot, dist_sq bits)` a range query visits, sorted.
fn range_hits(
    index: &mut dyn CandidateIndex<Worker>,
    arena: &ItemArena<Worker>,
    center: &Location,
    radius: f64,
) -> Vec<(u32, u64)> {
    let mut hits = Vec::new();
    index.for_each_within(arena, center, radius, &mut |c, _| {
        hits.push((c.handle.slot(), c.dist_sq.to_bits()))
    });
    hits.sort_unstable();
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grid_agrees_with_the_linear_oracle_under_churn(
        (nx, ny) in (1usize..65, 1usize..65),
        steps in proptest::collection::vec((churn_strategy(lattice()), query_strategy()), 1..300),
    ) {
        let grid_cells = GridPartition::new(BoundingBox::square(16.0), nx, ny).unwrap();
        let config = ProblemConfig::new(
            grid_cells,
            SlotPartition::over_horizon(TimeDelta::minutes(60.0), 4).unwrap(),
            1.0,
            TimeDelta::minutes(10.0),
            TimeDelta::minutes(5.0),
        );
        let mut arena: ItemArena<Worker> = ItemArena::new();
        let mut grid = GridCandidateIndex::for_config(&config);
        let mut linear = LinearScanIndex::new();
        let mut model: BTreeMap<usize, (PoolHandle, Worker)> = BTreeMap::new();

        for (op, (q, radius, keep)) in steps {
            match resolve(&op, &model) {
                Some(Step::Insert(item)) => {
                    let handle = arena.insert(item);
                    grid.insert(&arena, handle);
                    linear.insert(&arena, handle);
                    model.insert(item.id.index(), (handle, item));
                }
                Some(Step::Remove(index)) => {
                    let (handle, _) = model.remove(&index).expect("picked a live index");
                    grid.remove(&arena, handle);
                    linear.remove(&arena, handle);
                    arena.remove(handle).expect("live handle removes");
                }
                None => {}
            }

            let mut feasible = |w: &Worker| w.id.index().is_multiple_of(keep);
            let near = |index: &mut dyn CandidateIndex<Worker>, feasible: &mut dyn FnMut(&Worker) -> bool| {
                index.nearest_within(&arena, &q, radius, feasible).map(|c| c.dist_sq.to_bits())
            };
            prop_assert_eq!(near(&mut grid, &mut feasible), near(&mut linear, &mut feasible));
            prop_assert_eq!(
                range_hits(&mut grid, &arena, &q, radius),
                range_hits(&mut linear, &arena, &q, radius)
            );
        }
    }
}
