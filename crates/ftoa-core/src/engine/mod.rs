//! The unified streaming simulation engine.
//!
//! Every online algorithm of the paper processes the same kind of arrival
//! stream: workers and tasks appear one by one, decisions are irrevocable,
//! and objects silently leave the platform when their deadlines pass. The
//! seed implementation repeated that event loop — stream iteration, pool
//! bookkeeping, expiry handling, runtime/memory accounting — inside every
//! algorithm. [`driver::SimulationEngine`] extracts the loop into one place, and the
//! engine itself is decomposed into one module per responsibility:
//!
//! * [`item`] — the [`item::SpatialItem`] trait: anything (worker or task) that
//!   can live in a candidate pool, keyed by dense index, located in space
//!   and bounded by a deadline;
//! * [`arena`] — the [`arena::ItemArena`]: generational struct-of-arrays storage
//!   for one pool. Coordinates live in parallel `Vec<f64>`s beside a
//!   debitable remaining-capacity column, freed slots recycle through a
//!   free-list, and [`ftoa_types::PoolHandle`] stamps (slot + generation)
//!   make stale references structurally unobservable;
//! * [`kernels`] — batched squared-distance kernels over the arena's
//!   coordinate slices, with explicit AVX2/NEON implementations selected at
//!   runtime (`FTOA_KERNEL`, see [`kernels::KernelKind`]) and a portable
//!   chunked scalar fallback that doubles as the bit-exactness oracle; the
//!   linear, kd and hybrid backends funnel their candidate scans through
//!   these two ops (`for_each_within_sq`, `nearest_within_sq`);
//! * [`index`] — the [`index::CandidateIndex`] trait plus its four backends: the
//!   exhaustive [`index::LinearScanIndex`] (reference/oracle), the struct-of-arrays
//!   [`index::GridCandidateIndex`] with ring and reachable-disk range queries, the
//!   [`index::KdCandidateIndex`] epoch-rebuild wrapper around a static
//!   KD-tree, and the adaptive [`index::HybridCandidateIndex`] routing
//!   each query to grid or tree by coarse-region density. The engine holds
//!   the selection in the monomorphised [`index::EngineIndex`] enum — a four-way
//!   match on the hot path instead of a virtual call;
//! * [`context`] — the [`context::EngineContext`] a policy sees while handling one
//!   event: the idle-worker/pending-task pools (each an arena + index pair
//!   surfaced as a [`context::PoolView`]), deadline-expiry queues, committed
//!   assignments and memory accounting;
//! * [`driver`] — the [`driver::OnlinePolicy`] trait (an algorithm shrunk to a
//!   handful of incremental callbacks) and the [`driver::SimulationEngine`] that
//!   drives a policy over a stream and assembles the
//!   [`crate::result::AlgorithmResult`].
//!
//! A run is serial by construction: every commit changes the pool the next
//! query sees, so the engine decides one event at a time on one thread.
//! Parallelism lives a level up, across independent runs (the experiment
//! runner fans algorithms and sweep cells out over a job pool).
//!
//! The existing [`crate::algorithms::OnlineAlgorithm::run`] entry points are
//! thin adapters that instantiate a policy and hand it to the engine, so all
//! previous callers keep working unchanged. Equivalence between the index
//! backends — and against straight ports of the pre-refactor event loops —
//! is enforced by the property tests in
//! `tests/proptest_engine_equivalence.rs` at the workspace root.

pub mod arena;
pub mod clock;
pub mod context;
pub mod driver;
pub mod index;
pub mod item;
pub mod kernels;
