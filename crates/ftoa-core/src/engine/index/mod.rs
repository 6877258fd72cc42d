//! Candidate generation: the [`CandidateIndex`] trait and its backends.
//!
//! The online algorithms ask two spatial questions about the live pools —
//! *nearest feasible object* and *all objects within a reachable disk* —
//! and every backend must answer them deterministically so runs are
//! reproducible. Since the arena refactor, object *storage* lives in the
//! [`crate::engine::arena::ItemArena`] (struct-of-arrays coordinates the distance
//! kernels consume directly); a backend only maintains whatever acceleration
//! structure it needs over arena slots, and every query threads the arena
//! through by reference. Four interchangeable backends implement the trait:
//!
//! * [`LinearScanIndex`] (`linear.rs`) — kernel sweep over the arena's
//!   entire coordinate slices; O(n) per query, no pruning. The
//!   reference/oracle.
//! * [`GridCandidateIndex`] (`grid.rs`) — uniform-grid buckets of
//!   interleaved members: nearest queries expand ring by ring, range queries
//!   touch only overlapping buckets; occupancy masks skip the empty buckets
//!   and per-bucket bounding boxes the ones that cannot hold an answer, and
//!   each opened bucket is scanned by an inline loop.
//! * [`KdCandidateIndex`] (`kd.rs`) — an epoch-rebuild wrapper around the
//!   crate's static KD-tree: removals tombstone via arena generations,
//!   inserts buffer until a dirty threshold triggers a rebuild.
//! * [`HybridCandidateIndex`] (`hybrid.rs`) — maintains grid *and* KD-tree
//!   and routes each query by coarse-region occupancy: dense regions to the
//!   grid, sparse ones to the tree.
//!
//! [`IndexBackend`] is the runtime knob selecting among them; the engine
//! holds the selected backend in the monomorphised [`EngineIndex`] enum, so
//! the hot path dispatches with a four-way match instead of a virtual call.

pub mod grid;
pub mod hybrid;
pub mod kd;
pub mod linear;

pub use grid::GridCandidateIndex;
pub use hybrid::HybridCandidateIndex;
pub use kd::KdCandidateIndex;
pub use linear::LinearScanIndex;

use crate::engine::arena::ItemArena;
use crate::engine::item::SpatialItem;
use ftoa_types::{Candidate, Location, PoolHandle, ProblemConfig};

/// An acceleration structure over one [`ItemArena`] answering the two
/// candidate queries the online algorithms need: *nearest feasible* and
/// *all within a reachable disk*. The arena owns the objects; the index is
/// notified of every insert/remove (by handle, while the arena still holds
/// the item) and answers queries against the arena's coordinate columns.
/// Implementations must visit candidates deterministically so runs are
/// reproducible; they additionally count how many candidates each query
/// examines, which is the backend-independent measure of pruning quality
/// reported in [`crate::result::EngineStats`].
pub trait CandidateIndex<T: SpatialItem> {
    /// Note that `handle` was just inserted into `arena`.
    fn insert(&mut self, arena: &ItemArena<T>, handle: PoolHandle);

    /// Note that `handle` is about to be removed from `arena` (the arena
    /// still holds the item, so its coordinates are readable).
    fn remove(&mut self, arena: &ItemArena<T>, handle: PoolHandle);

    /// The nearest live object (Euclidean distance from `query`) within
    /// `max_radius` (inclusive) accepted by `feasible`, as a [`Candidate`]
    /// carrying the handle and squared distance.
    /// Policies pass the reachable-disk radius implied by the deadline
    /// constraint so that hopeless queries terminate without examining
    /// distant candidates.
    fn nearest_within(
        &mut self,
        arena: &ItemArena<T>,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate>;

    /// Visit every live object within `radius` of `center` (inclusive),
    /// handing the visitor both the [`Candidate`] and the item.
    fn for_each_within(
        &mut self,
        arena: &ItemArena<T>,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    );

    /// Stored entries *examined* by queries so far: those whose distance a
    /// query computed. The linear backend examines every live entry per
    /// query; the grid backend examines the members of the buckets a query
    /// *opens*, the non-empty buckets of its ring or range span whose
    /// bounding box could still hold an answer — the ratio between the two
    /// is the pruning factor, independent of machine speed.
    fn candidates_examined(&self) -> u64;

    /// Estimated bytes held by the index structure itself (excluding the
    /// arena's storage, which the engine accounts for separately).
    fn structure_bytes(&self) -> usize;
}

/// Which [`CandidateIndex`] backend the engine instantiates for its pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// Exhaustive linear scan (reference / oracle).
    LinearScan,
    /// Uniform-grid bucket index with ring and range pruning.
    #[default]
    Grid,
    /// KD-tree with epoch rebuilds (tombstoned removals, buffered inserts).
    Kd,
    /// Adaptive grid/KD pair routed per query by coarse-region density.
    Hybrid,
}

impl IndexBackend {
    /// Every backend, in the canonical comparison order (reference first).
    pub const ALL: [IndexBackend; 4] =
        [IndexBackend::LinearScan, IndexBackend::Grid, IndexBackend::Kd, IndexBackend::Hybrid];

    /// Short display name (used in stats and bench output).
    pub fn name(self) -> &'static str {
        match self {
            IndexBackend::LinearScan => "linear-scan",
            IndexBackend::Grid => "grid-index",
            IndexBackend::Kd => "kd-tree",
            IndexBackend::Hybrid => "hybrid",
        }
    }

    /// Parse a (case-insensitive) backend name as accepted by the CLIs.
    pub fn parse(s: &str) -> Option<IndexBackend> {
        match s.to_ascii_lowercase().as_str() {
            "linear" | "linear-scan" | "linearscan" => Some(IndexBackend::LinearScan),
            "grid" | "grid-index" | "gridindex" => Some(IndexBackend::Grid),
            "kd" | "kd-tree" | "kdtree" => Some(IndexBackend::Kd),
            "hybrid" | "adaptive" => Some(IndexBackend::Hybrid),
            _ => None,
        }
    }

    /// Instantiate the backend as an [`EngineIndex`] over `config`'s grid.
    pub(crate) fn build<T: SpatialItem>(self, config: &ProblemConfig) -> EngineIndex<T> {
        match self {
            IndexBackend::LinearScan => EngineIndex::Linear(LinearScanIndex::new()),
            IndexBackend::Grid => EngineIndex::Grid(GridCandidateIndex::for_config(config)),
            IndexBackend::Kd => EngineIndex::Kd(KdCandidateIndex::new()),
            IndexBackend::Hybrid => EngineIndex::Hybrid(HybridCandidateIndex::for_config(config)),
        }
    }
}

/// The engine's monomorphised backend holder: one enum variant per backend,
/// dispatched with a `match` instead of a `Box<dyn ...>` virtual call, so
/// query closures inline into the kernel loops on the hot path.
#[allow(clippy::large_enum_variant, reason = "one per engine run, never stored per item")]
pub enum EngineIndex<T> {
    /// See [`LinearScanIndex`].
    Linear(LinearScanIndex<T>),
    /// See [`GridCandidateIndex`].
    Grid(GridCandidateIndex<T>),
    /// See [`KdCandidateIndex`].
    Kd(KdCandidateIndex<T>),
    /// See [`HybridCandidateIndex`].
    Hybrid(HybridCandidateIndex<T>),
}

macro_rules! dispatch {
    ($self:expr, $idx:ident => $body:expr) => {
        match $self {
            EngineIndex::Linear($idx) => $body,
            EngineIndex::Grid($idx) => $body,
            EngineIndex::Kd($idx) => $body,
            EngineIndex::Hybrid($idx) => $body,
        }
    };
}

impl<T: SpatialItem> CandidateIndex<T> for EngineIndex<T> {
    fn insert(&mut self, arena: &ItemArena<T>, handle: PoolHandle) {
        dispatch!(self, idx => idx.insert(arena, handle))
    }

    fn remove(&mut self, arena: &ItemArena<T>, handle: PoolHandle) {
        dispatch!(self, idx => idx.remove(arena, handle))
    }

    fn nearest_within(
        &mut self,
        arena: &ItemArena<T>,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate> {
        dispatch!(self, idx => idx.nearest_within(arena, query, max_radius, feasible))
    }

    fn for_each_within(
        &mut self,
        arena: &ItemArena<T>,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    ) {
        dispatch!(self, idx => idx.for_each_within(arena, center, radius, visit))
    }

    fn candidates_examined(&self) -> u64 {
        dispatch!(self, idx => idx.candidates_examined())
    }

    fn structure_bytes(&self) -> usize {
        dispatch!(self, idx => idx.structure_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_types::{
        GridPartition, Location, SlotPartition, TimeDelta, TimeStamp, Worker, WorkerId,
    };

    fn config() -> ProblemConfig {
        ProblemConfig::new(
            GridPartition::square(10.0, 5).unwrap(),
            SlotPartition::over_horizon(TimeDelta::minutes(60.0), 4).unwrap(),
            1.0,
            TimeDelta::minutes(10.0),
            TimeDelta::minutes(5.0),
        )
    }

    fn worker(i: usize, x: f64, y: f64, t: f64) -> Worker {
        Worker::new(
            WorkerId(i),
            Location::new(x, y),
            TimeStamp::minutes(t),
            TimeDelta::minutes(10.0),
        )
    }

    /// One (arena, index) pair per backend.
    fn pools() -> Vec<(ItemArena<Worker>, EngineIndex<Worker>)> {
        IndexBackend::ALL.iter().map(|b| (ItemArena::new(), b.build::<Worker>(&config()))).collect()
    }

    fn admit(
        arena: &mut ItemArena<Worker>,
        idx: &mut EngineIndex<Worker>,
        w: Worker,
    ) -> PoolHandle {
        let h = arena.insert(w);
        idx.insert(arena, h);
        h
    }

    fn evict(
        arena: &mut ItemArena<Worker>,
        idx: &mut EngineIndex<Worker>,
        h: PoolHandle,
    ) -> Worker {
        idx.remove(arena, h);
        arena.remove(h).expect("handle is live")
    }

    #[test]
    fn backend_names_parse_round_trip() {
        for backend in IndexBackend::ALL {
            assert_eq!(IndexBackend::parse(backend.name()), Some(backend), "{}", backend.name());
        }
        assert_eq!(IndexBackend::parse("KD"), Some(IndexBackend::Kd));
        assert_eq!(IndexBackend::parse("Hybrid"), Some(IndexBackend::Hybrid));
        assert_eq!(IndexBackend::parse("nope"), None);
    }

    #[test]
    fn all_backends_support_insert_remove_via_the_arena() {
        for (mut arena, mut idx) in pools() {
            assert!(arena.is_empty());
            let h3 = admit(&mut arena, &mut idx, worker(3, 1.0, 1.0, 0.0));
            admit(&mut arena, &mut idx, worker(7, 9.0, 9.0, 0.0));
            assert_eq!(arena.len(), 2);
            assert!(arena.contains_index(3));
            assert!(!arena.contains_index(5));
            let w = evict(&mut arena, &mut idx, h3);
            assert_eq!(w.id, WorkerId(3));
            assert!(arena.remove(h3).is_none(), "stale handle removes nothing");
            assert_eq!(arena.len(), 1);
        }
    }

    #[test]
    fn nearest_query_agrees_between_backends() {
        for (mut arena, mut idx) in pools() {
            for (i, (x, y)) in [(1.0, 1.0), (5.0, 5.0), (9.0, 2.0)].iter().enumerate() {
                admit(&mut arena, &mut idx, worker(i, *x, *y, 0.0));
            }
            let q = Location::new(4.5, 4.5);
            let best = idx.nearest_within(&arena, &q, f64::INFINITY, &mut |_| true).unwrap();
            assert_eq!(arena.get(best.handle).unwrap().id, WorkerId(1));
            assert!((best.distance() - Location::new(5.0, 5.0).distance(&q)).abs() < 1e-12);
            // Filtered query skips the nearest.
            let second =
                idx.nearest_within(&arena, &q, f64::INFINITY, &mut |w| w.id.index() != 1).unwrap();
            assert_eq!(arena.get(second.handle).unwrap().id, WorkerId(0));
            assert!(idx.candidates_examined() > 0);
        }
    }

    #[test]
    fn range_query_agrees_between_backends() {
        for (mut arena, mut idx) in pools() {
            for i in 0..20 {
                admit(
                    &mut arena,
                    &mut idx,
                    worker(i, (i % 5) as f64 * 2.0, (i / 5) as f64 * 2.0, 0.0),
                );
            }
            let mut found = Vec::new();
            idx.for_each_within(&arena, &Location::new(0.0, 0.0), 2.5, &mut |c, w| {
                assert!(c.dist_sq <= 2.5 * 2.5 + 1e-12);
                assert_eq!(arena.get(c.handle).unwrap().id, w.id);
                found.push(w.id.index())
            });
            found.sort_unstable();
            // (0,0), (2,0), (0,2) are within 2.5; (2,2) is at 2.83.
            assert_eq!(found, vec![0, 1, 5]);
        }
    }

    #[test]
    fn nearest_within_respects_the_radius_on_every_backend() {
        for (mut arena, mut idx) in pools() {
            admit(&mut arena, &mut idx, worker(0, 1.0, 1.0, 0.0));
            admit(&mut arena, &mut idx, worker(1, 8.0, 8.0, 0.0));
            let q = Location::new(2.0, 1.0);
            let hit = idx.nearest_within(&arena, &q, 1.5, &mut |_| true);
            assert_eq!(hit.map(|c| arena.get(c.handle).unwrap().id), Some(WorkerId(0)));
            let miss = idx.nearest_within(&arena, &Location::new(4.5, 4.5), 2.0, &mut |_| true);
            assert!(miss.is_none());
            let negative = idx.nearest_within(&arena, &q, -1.0, &mut |_| true);
            assert!(negative.is_none(), "negative radius admits nothing");
        }
    }

    /// [`pools`] labelled with each backend's name, for assertion messages.
    fn named_pools() -> Vec<(&'static str, ItemArena<Worker>, EngineIndex<Worker>)> {
        IndexBackend::ALL
            .iter()
            .zip(pools())
            .map(|(b, (arena, idx))| (b.name(), arena, idx))
            .collect()
    }

    /// A zero radius admits exactly the co-located objects: `d² <= 0` holds
    /// only at distance zero, so a worker a hair away is out of reach.
    #[test]
    fn zero_radius_finds_only_a_co_located_worker_on_every_backend() {
        for (name, mut arena, mut idx) in named_pools() {
            admit(&mut arena, &mut idx, worker(0, 3.0, 3.0, 0.0));
            admit(&mut arena, &mut idx, worker(1, 3.0 + 1e-9, 3.0, 0.0));
            admit(&mut arena, &mut idx, worker(2, 7.0, 7.0, 0.0));
            let q = Location::new(3.0, 3.0);
            let hit = idx.nearest_within(&arena, &q, 0.0, &mut |_| true).unwrap();
            assert_eq!(arena.get(hit.handle).unwrap().id, WorkerId(0), "{name}");
            assert_eq!(hit.dist_sq, 0.0, "{name}");
            let mut found = Vec::new();
            idx.for_each_within(&arena, &q, 0.0, &mut |c, w| {
                assert_eq!(c.dist_sq, 0.0, "{name}");
                found.push(w.id.index())
            });
            assert_eq!(found, vec![0], "{name}: only the co-located worker");
            let off = Location::new(5.0, 5.0);
            assert!(idx.nearest_within(&arena, &off, 0.0, &mut |_| true).is_none(), "{name}");
            let mut none = Vec::new();
            idx.for_each_within(&arena, &off, 0.0, &mut |_, w| none.push(w.id.index()));
            assert!(none.is_empty(), "{name}: nobody sits at the query point: {none:?}");
        }
    }

    /// An infinite radius is a full sweep: every backend must behave as if
    /// no radius bound were given at all.
    #[test]
    fn infinite_radius_sweeps_everything_on_every_backend() {
        for (name, mut arena, mut idx) in named_pools() {
            for (i, (x, y)) in [(1.0, 1.0), (5.0, 5.0), (9.0, 2.0)].iter().enumerate() {
                admit(&mut arena, &mut idx, worker(i, *x, *y, 0.0));
            }
            let q = Location::new(0.0, 0.0);
            let best = idx.nearest_within(&arena, &q, f64::INFINITY, &mut |_| true);
            assert_eq!(
                best.map(|c| arena.get(c.handle).unwrap().id),
                Some(WorkerId(0)),
                "{name}: infinite radius finds the nearest"
            );
            let mut found = Vec::new();
            idx.for_each_within(&arena, &q, f64::INFINITY, &mut |_, w| found.push(w.id.index()));
            found.sort_unstable();
            assert_eq!(found, vec![0, 1, 2], "{name}: infinite radius visits everyone");
        }
    }

    /// A NaN radius admits nothing — `d² <= NaN²` is false for every
    /// candidate — and must return empty without panicking on every
    /// backend. The hybrid used to be the outlier: its router clamped the
    /// NaN disk corners to region (0, 0) and could route the query into a
    /// sub-index sweep instead of short-circuiting.
    #[test]
    fn nan_radius_is_empty_and_panic_free_on_every_backend() {
        for (name, mut arena, mut idx) in named_pools() {
            for (i, (x, y)) in [(0.2, 0.1), (5.0, 5.0), (9.0, 2.0)].iter().enumerate() {
                admit(&mut arena, &mut idx, worker(i, *x, *y, 0.0));
            }
            // Query inside region (0, 0), which is occupied — the spot the
            // hybrid's clamped corners used to collapse to.
            let q = Location::new(0.1, 0.1);
            assert!(
                idx.nearest_within(&arena, &q, f64::NAN, &mut |_| true).is_none(),
                "{name}: NaN radius must find nothing"
            );
            let mut found = Vec::new();
            idx.for_each_within(&arena, &q, f64::NAN, &mut |_, w| found.push(w.id.index()));
            assert!(found.is_empty(), "{name}: NaN radius must visit nothing: {found:?}");
        }
    }

    /// Equidistant candidates come back in the grid's ring order: ring by
    /// ring, the columns of the ring's lower and upper rows left to right
    /// (lower row first in each column), then its side columns bottom to top
    /// (left column first in each row). The insertion order is the reverse,
    /// so a walk that followed slots or rows the other way round would fail.
    #[test]
    fn grid_returns_exact_ties_in_ring_order() {
        let config = ProblemConfig::new(
            GridPartition::square(64.0, 64).unwrap(),
            SlotPartition::over_horizon(TimeDelta::minutes(60.0), 4).unwrap(),
            1.0,
            TimeDelta::minutes(10.0),
            TimeDelta::minutes(5.0),
        );
        let mut arena = ItemArena::new();
        let mut idx = IndexBackend::Grid.build::<Worker>(&config);
        for (i, (x, y)) in [(11.5, 10.5), (9.5, 10.5), (10.5, 11.5), (10.5, 9.5)].iter().enumerate()
        {
            admit(&mut arena, &mut idx, worker(i, *x, *y, 0.0));
        }
        let q = Location::new(10.5, 10.5);
        let mut order = Vec::new();
        while let Some(c) = idx.nearest_within(&arena, &q, f64::INFINITY, &mut |_| true) {
            assert_eq!(c.dist_sq, 1.0);
            order.push(evict(&mut arena, &mut idx, c.handle).location);
        }
        let want = [(10.5, 9.5), (10.5, 11.5), (9.5, 10.5), (11.5, 10.5)];
        assert_eq!(order, want.map(|(x, y)| Location::new(x, y)));
    }

    #[test]
    fn queries_stay_exact_after_slot_reuse() {
        for (mut arena, mut idx) in pools() {
            let h0 = admit(&mut arena, &mut idx, worker(0, 1.0, 1.0, 0.0));
            admit(&mut arena, &mut idx, worker(1, 8.0, 8.0, 0.0));
            evict(&mut arena, &mut idx, h0);
            // Slot 0 is recycled for a different worker at a new location.
            admit(&mut arena, &mut idx, worker(2, 4.0, 4.0, 0.0));
            let q = Location::new(4.1, 4.1);
            let best = idx.nearest_within(&arena, &q, f64::INFINITY, &mut |_| true).unwrap();
            assert_eq!(arena.get(best.handle).unwrap().id, WorkerId(2));
            let mut found = Vec::new();
            idx.for_each_within(&arena, &Location::new(1.0, 1.0), 0.5, &mut |_, w| {
                found.push(w.id.index())
            });
            assert!(found.is_empty(), "the removed worker at (1,1) must be gone: {found:?}");
        }
    }
}
