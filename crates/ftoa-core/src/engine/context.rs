//! The engine-owned state a policy sees while handling one event.
//!
//! Since the arena refactor the pools are split in two: an [`ItemArena`]
//! per side owns the objects (struct-of-arrays coordinates + remaining
//! capacities + the `Copy` items, recycled through a free-list), and an
//! [`EngineIndex`] per side maintains whatever acceleration structure the
//! selected backend needs over the arena's slots. Policies see both
//! through a [`PoolView`], and claim objects by [`PoolHandle`] — a slot +
//! generation stamp that can never resurrect a freed or recycled object,
//! which is what makes double-release a structural impossibility rather
//! than a bookkeeping convention.

use crate::engine::arena::ItemArena;
use crate::engine::driver::OnlinePolicy;
use crate::engine::index::{CandidateIndex, EngineIndex, IndexBackend};
use crate::engine::item::SpatialItem;
use crate::memory::MemoryTracker;
use crate::result::EngineStats;
use ftoa_types::{
    Assignment, AssignmentSet, Candidate, EventStream, Location, PoolHandle, ProblemConfig, Task,
    TaskId, TimeStamp, Worker, WorkerId,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A policy's irrevocable matching decision: which worker serves which task,
/// and (for offline/batch policies that reconstruct a matching after the
/// fact) at what instant. Built with [`AssignmentDecision::new`] and
/// committed through [`EngineContext::commit`], which owns all the weighted
/// bookkeeping — capacity debiting, payoff accrual, pool release — so no
/// policy re-implements it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentDecision {
    /// The worker being dispatched.
    pub worker: WorkerId,
    /// The task being served.
    pub task: TaskId,
    /// Explicit assignment instant; `None` means the engine's current time.
    pub at: Option<TimeStamp>,
}

impl AssignmentDecision {
    /// A decision committed at the engine's current time.
    pub fn new(worker: WorkerId, task: TaskId) -> Self {
        Self { worker, task, at: None }
    }

    /// Override the assignment instant (offline and batch policies date
    /// their assignments at the batch boundary, not the commit call).
    pub fn at(mut self, at: TimeStamp) -> Self {
        self.at = Some(at);
        self
    }
}

/// What [`EngineContext::commit`] did: the utility accrued and how the
/// pools changed. Policies that track their own side structures (e.g. guide
/// nodes) read this instead of re-deriving pool state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchOutcome {
    /// The payoff accrued by this assignment (the task's weight; `1.0`
    /// throughout unweighted streams).
    pub payoff: f64,
    /// The worker's remaining capacity after this assignment (`0` when the
    /// worker left the pool).
    pub worker_remaining: u32,
    /// Did the worker leave the idle pool (capacity exhausted, or it was
    /// already gone)?
    pub worker_released: bool,
    /// Was the task removed from the pending pool by this commit? (`false`
    /// when the policy had already claimed it.)
    pub task_released: bool,
    /// The instant the assignment was dated at.
    pub assigned_at: TimeStamp,
}

/// A read/query view over one pool: the arena that owns the objects plus
/// the backend index that accelerates the candidate queries. The two
/// queries are the paper's: the nearest feasible object
/// ([`Self::nearest_within`]) and every object in a disk
/// ([`Self::for_each_within`]); a policy that ranks candidates some other
/// way (by payoff, say) folds its argmax into the range visitor. Queries
/// take `&mut self` because they advance the index's examined counter;
/// object lookups are plain reads.
pub struct PoolView<'p, T: SpatialItem> {
    arena: &'p ItemArena<T>,
    index: &'p mut EngineIndex<T>,
}

impl<'p, T: SpatialItem> PoolView<'p, T> {
    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Is an object with this dense index (`WorkerId` / `TaskId`) live?
    pub fn contains(&self, index: usize) -> bool {
        self.arena.contains_index(index)
    }

    /// The object behind a (live) handle.
    pub fn get(&self, handle: PoolHandle) -> Option<&T> {
        self.arena.get(handle)
    }

    /// The current handle for a dense index, if that object is live.
    pub fn handle_of(&self, index: usize) -> Option<PoolHandle> {
        self.arena.handle_of(index)
    }

    /// The remaining assignment capacity behind a (live) handle.
    pub fn remaining_capacity(&self, handle: PoolHandle) -> Option<u32> {
        self.arena.remaining_of(handle)
    }

    /// The nearest live object (Euclidean distance from `query`) within
    /// `max_radius` of `query` (inclusive) accepted by `feasible`. Policies
    /// pass the reachable-disk radius implied by the deadline constraint so
    /// that hopeless queries terminate without examining distant candidates;
    /// `f64::INFINITY` searches the whole pool.
    pub fn nearest_within(
        &mut self,
        query: &Location,
        max_radius: f64,
        feasible: &mut dyn FnMut(&T) -> bool,
    ) -> Option<Candidate> {
        self.index.nearest_within(self.arena, query, max_radius, feasible)
    }

    /// Visit every live object within `radius` of `center` (inclusive),
    /// with its [`Candidate`] record.
    pub fn for_each_within(
        &mut self,
        center: &Location,
        radius: f64,
        visit: &mut dyn FnMut(Candidate, &T),
    ) {
        self.index.for_each_within(self.arena, center, radius, visit);
    }

    /// Visit every live object in ascending dense-index order (the
    /// canonical deterministic iteration order; served straight from the
    /// arena, no backend involvement).
    pub fn for_each(&self, visit: &mut dyn FnMut(&T)) {
        self.arena.for_each_ordered(visit);
    }

    /// Visit every live object in arena slot order — deterministic for a
    /// fixed event history but *not* the canonical order, so callers must
    /// impose their own total order on what they collect (batch flushes
    /// sort by arrival). Costs O(peak live) instead of O(ids ever seen).
    pub fn for_each_unordered(&self, visit: &mut dyn FnMut(&T)) {
        self.arena.for_each_unordered(visit);
    }
}

/// The engine-owned state a policy sees while handling one event.
pub struct EngineContext<'a> {
    /// Problem configuration (grid, slots, velocity, default deadlines).
    pub config: &'a ProblemConfig,
    /// The full stream (for id → object lookups; policies must not iterate
    /// ahead of the current event — the engine drives the iteration).
    pub stream: &'a EventStream,
    now: TimeStamp,
    workers: ItemArena<Worker>,
    tasks: ItemArena<Task>,
    worker_index: EngineIndex<Worker>,
    task_index: EngineIndex<Task>,
    assignments: AssignmentSet,
    memory: MemoryTracker,
    worker_expiry: BinaryHeap<Reverse<(TimeStamp, usize)>>,
    task_expiry: BinaryHeap<Reverse<(TimeStamp, usize)>>,
    stats: EngineStats,
    total_payoff: f64,
}

impl<'a> EngineContext<'a> {
    /// Fresh context over a stream, with the pools instantiated on the given
    /// backend. The arenas pre-reserve room for the whole stream so the
    /// event loop runs without growing them. Only the driver constructs
    /// contexts.
    pub(crate) fn new(
        config: &'a ProblemConfig,
        stream: &'a EventStream,
        backend: IndexBackend,
        assignment_capacity: usize,
    ) -> Self {
        Self {
            config,
            stream,
            now: TimeStamp::ZERO,
            workers: ItemArena::with_capacity(stream.num_workers()),
            tasks: ItemArena::with_capacity(stream.num_tasks()),
            worker_index: backend.build::<Worker>(config),
            task_index: backend.build::<Task>(config),
            assignments: AssignmentSet::with_capacity(assignment_capacity),
            memory: MemoryTracker::new(),
            worker_expiry: BinaryHeap::with_capacity(stream.num_workers()),
            task_expiry: BinaryHeap::with_capacity(stream.num_tasks()),
            stats: EngineStats { backend: backend.name(), ..EngineStats::default() },
            total_payoff: 0.0,
        }
    }

    /// The current simulation time (the arrival time of the event being
    /// processed; after the stream ends, the time of the last event).
    pub fn now(&self) -> TimeStamp {
        self.now
    }

    pub(crate) fn set_now(&mut self, now: TimeStamp) {
        self.now = now;
    }

    pub(crate) fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// The shared worker velocity.
    pub fn velocity(&self) -> f64 {
        self.config.velocity
    }

    /// Admit a worker into the idle pool (it will be offered as a candidate
    /// and expired automatically when its deadline passes). Returns the
    /// handle naming this admission.
    pub fn admit_worker(&mut self, worker: &Worker) -> PoolHandle {
        let handle = self.workers.insert(*worker);
        self.worker_index.insert(&self.workers, handle);
        self.worker_expiry.push(Reverse((worker.deadline(), worker.id.index())));
        handle
    }

    /// Admit a task into the pending pool.
    pub fn admit_task(&mut self, task: &Task) -> PoolHandle {
        let handle = self.tasks.insert(*task);
        self.task_index.insert(&self.tasks, handle);
        self.task_expiry.push(Reverse((task.deadline(), task.id.index())));
        handle
    }

    /// The idle-worker pool.
    pub fn idle_workers(&mut self) -> PoolView<'_, Worker> {
        PoolView { arena: &self.workers, index: &mut self.worker_index }
    }

    /// The pending-task pool.
    pub fn pending_tasks(&mut self) -> PoolView<'_, Task> {
        PoolView { arena: &self.tasks, index: &mut self.task_index }
    }

    /// Remove a worker from the idle pool (e.g. because it was matched).
    /// A stale handle — the worker already claimed, expired, or its slot
    /// recycled — returns `None` and changes nothing.
    pub fn claim_worker(&mut self, handle: PoolHandle) -> Option<Worker> {
        if !self.workers.is_live(handle) {
            return None;
        }
        // The index is told first, while the arena still holds the item
        // (the hybrid backend reads the coordinates to maintain its region
        // counters).
        self.worker_index.remove(&self.workers, handle);
        self.workers.remove(handle)
    }

    /// Remove a task from the pending pool.
    pub fn claim_task(&mut self, handle: PoolHandle) -> Option<Task> {
        if !self.tasks.is_live(handle) {
            return None;
        }
        self.task_index.remove(&self.tasks, handle);
        self.tasks.remove(handle)
    }

    /// Claim a worker by dense id index, if it is live.
    pub fn claim_worker_by_index(&mut self, index: usize) -> Option<Worker> {
        self.workers.handle_of(index).and_then(|h| self.claim_worker(h))
    }

    /// Claim a task by dense id index, if it is live.
    pub fn claim_task_by_index(&mut self, index: usize) -> Option<Task> {
        self.tasks.handle_of(index).and_then(|h| self.claim_task(h))
    }

    /// Commit an irrevocable [`AssignmentDecision`]. This is the single
    /// mutation point of the objective: the engine — not the policy —
    /// debits the worker's capacity (releasing the worker from the idle
    /// pool only when the last unit is spent), removes the task from the
    /// pending pool, and accrues the task's payoff into the run's total.
    ///
    /// Claiming goes through the generational handles, so a side the policy
    /// already claimed is simply absent (idempotent). In debug builds this
    /// additionally asserts that neither claimed object's deadline has
    /// strictly passed at the assignment instant — a policy assigning an
    /// expired object is a bug the release build would silently accept.
    /// Panics if the decision re-assigns an already-served task or pushes a
    /// worker past its capacity — policies guarantee both by construction.
    pub fn commit(&mut self, decision: AssignmentDecision) -> MatchOutcome {
        let at = decision.at.unwrap_or(self.now);
        let (worker, task) = (decision.worker, decision.task);

        let mut worker_released = true;
        let mut worker_remaining = 0;
        if let Some(h) = self.workers.handle_of(worker.index()) {
            debug_assert!(
                self.workers.deadline_of(h).expect("handle is live") >= at.as_minutes(),
                "assignment at t={} claims worker {} expired at t={}",
                at.as_minutes(),
                worker.index(),
                self.workers.deadline_of(h).unwrap_or(f64::NAN),
            );
            let remaining = self.workers.remaining_of(h).expect("handle is live");
            if remaining <= 1 {
                self.claim_worker(h);
            } else {
                worker_remaining = self.workers.debit_capacity(h).expect("handle is live");
                worker_released = false;
            }
        }
        let mut task_released = false;
        if let Some(h) = self.tasks.handle_of(task.index()) {
            debug_assert!(
                self.tasks.deadline_of(h).expect("handle is live") >= at.as_minutes(),
                "assignment at t={} claims task {} expired at t={}",
                at.as_minutes(),
                task.index(),
                self.tasks.deadline_of(h).unwrap_or(f64::NAN),
            );
            self.claim_task(h);
            task_released = true;
        }

        // The stream's dense id rewrite makes `id.index()` the authoritative
        // lookup for the arrival-time weight fields, whether or not the
        // object still sits in a pool.
        let payoff = self.stream.tasks().get(task.index()).map_or(1.0, |t| t.payoff);
        let capacity = self.stream.workers().get(worker.index()).map_or(1, |w| w.capacity);
        self.assignments
            .push_with_capacity(Assignment::new(worker, task, at), capacity)
            .expect("policy must not re-assign a task or exceed a worker's capacity");
        self.total_payoff += payoff;

        MatchOutcome { payoff, worker_remaining, worker_released, task_released, assigned_at: at }
    }

    /// The assignments committed so far.
    pub fn assignments(&self) -> &AssignmentSet {
        &self.assignments
    }

    /// The weighted utility accrued so far (`Σ payoff` over committed
    /// assignments; equals the matching size on unweighted streams).
    pub fn total_payoff(&self) -> f64 {
        self.total_payoff
    }

    /// The engine's memory tracker, for policy-specific structures.
    pub fn memory_mut(&mut self) -> &mut MemoryTracker {
        &mut self.memory
    }

    /// Expire due objects: pop everything with a deadline strictly before
    /// `now` from the expiry queues, remove it from the pools and inform the
    /// policy. Objects whose deadline equals `now` remain live (deadlines are
    /// inclusive throughout the model).
    pub(crate) fn run_expiries(&mut self, now: TimeStamp, policy: &mut dyn OnlinePolicy) {
        while let Some(&Reverse((deadline, index))) = self.worker_expiry.peek() {
            if deadline >= now {
                break;
            }
            self.worker_expiry.pop();
            if let Some(worker) = self.claim_worker_by_index(index) {
                self.stats.expired_workers += 1;
                policy.on_worker_expiry(self, &worker);
            }
        }
        while let Some(&Reverse((deadline, index))) = self.task_expiry.peek() {
            if deadline >= now {
                break;
            }
            self.task_expiry.pop();
            if let Some(task) = self.claim_task_by_index(index) {
                self.stats.expired_tasks += 1;
                policy.on_task_expiry(self, &task);
            }
        }
    }

    /// Close the run: fold the storage (arenas) and index structures into
    /// the peak footprint and the per-pool candidate counters into the
    /// stats, then hand the parts back to the driver.
    ///
    /// Charging the arenas here — from vector *capacities*, which never
    /// shrink — replaces the old per-object admit/claim charges, whose
    /// pairing drifted whenever an object was released twice (claimed and
    /// then expired). The capacity measure is monotone over the run, so the
    /// reported peak is exact for the storage layer by construction.
    pub(crate) fn finish(mut self) -> (AssignmentSet, usize, EngineStats, f64) {
        self.memory.allocate(
            self.workers.structure_bytes()
                + self.tasks.structure_bytes()
                + self.worker_index.structure_bytes()
                + self.task_index.structure_bytes(),
        );
        self.stats.candidates_examined =
            self.worker_index.candidates_examined() + self.task_index.candidates_examined();
        (self.assignments, self.memory.peak_with_overhead(), self.stats, self.total_payoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_types::{GridPartition, Location, SlotPartition, TimeDelta};

    fn config() -> ProblemConfig {
        ProblemConfig::new(
            GridPartition::square(10.0, 5).unwrap(),
            SlotPartition::over_horizon(TimeDelta::minutes(60.0), 4).unwrap(),
            1.0,
            TimeDelta::minutes(10.0),
            TimeDelta::minutes(5.0),
        )
    }

    fn worker(i: usize, t: f64, patience: f64) -> Worker {
        Worker::new(
            WorkerId(i),
            Location::new(1.0, 1.0),
            TimeStamp::minutes(t),
            TimeDelta::minutes(patience),
        )
    }

    fn task(i: usize, t: f64, patience: f64) -> Task {
        Task::new(
            TaskId(i),
            Location::new(2.0, 1.0),
            TimeStamp::minutes(t),
            TimeDelta::minutes(patience),
        )
    }

    /// No-op policy for driving `run_expiries` directly.
    struct Inert;
    impl OnlinePolicy for Inert {
        fn name(&self) -> &'static str {
            "inert"
        }
        fn on_worker_arrival(&mut self, _: &mut EngineContext<'_>, _: &Worker) {}
        fn on_task_arrival(&mut self, _: &mut EngineContext<'_>, _: &Task) {}
    }

    #[test]
    fn claiming_a_handle_twice_returns_none_the_second_time() {
        let cfg = config();
        let stream = EventStream::new(vec![worker(0, 0.0, 10.0)], vec![]);
        let mut ctx = EngineContext::new(&cfg, &stream, IndexBackend::Grid, 4);
        let h = ctx.admit_worker(&stream.workers()[0]);
        assert!(ctx.claim_worker(h).is_some());
        assert!(ctx.claim_worker(h).is_none(), "second claim of the same handle is a no-op");
        assert!(ctx.claim_worker_by_index(0).is_none());
    }

    #[test]
    fn stale_handle_cannot_claim_a_recycled_slot() {
        let cfg = config();
        let stream = EventStream::new(vec![worker(0, 0.0, 10.0), worker(1, 0.0, 10.0)], vec![]);
        let mut ctx = EngineContext::new(&cfg, &stream, IndexBackend::Grid, 4);
        let h0 = ctx.admit_worker(&stream.workers()[0]);
        ctx.claim_worker(h0);
        // Worker 1 recycles worker 0's slot; the old handle must not see it.
        let h1 = ctx.admit_worker(&stream.workers()[1]);
        assert_eq!(h1.slot(), h0.slot());
        assert!(ctx.claim_worker(h0).is_none(), "stale handle must not claim the new occupant");
        assert_eq!(ctx.claim_worker(h1).map(|w| w.id), Some(WorkerId(1)));
    }

    /// Satellite regression: deadlines are inclusive, so an assignment at
    /// exactly the deadline instant is legal — expiry only claims strictly
    /// earlier deadlines, and the `assign_at` debug assertion accepts
    /// equality.
    #[test]
    fn assignment_at_the_deadline_instant_is_legal() {
        let cfg = config();
        // Worker deadline = 0 + 5 = 5.0; task deadline = 1 + 4 = 5.0.
        let stream = EventStream::new(vec![worker(0, 0.0, 5.0)], vec![task(0, 1.0, 4.0)]);
        let mut ctx = EngineContext::new(&cfg, &stream, IndexBackend::Grid, 4);
        ctx.admit_worker(&stream.workers()[0]);
        ctx.admit_task(&stream.tasks()[0]);
        // At t == deadline both objects are still live (inclusive model).
        ctx.run_expiries(TimeStamp::minutes(5.0), &mut Inert);
        assert!(ctx.idle_workers().contains(0));
        assert!(ctx.pending_tasks().contains(0));
        // …and assigning at that instant passes the expiry debug assertion.
        ctx.commit(AssignmentDecision::new(WorkerId(0), TaskId(0)).at(TimeStamp::minutes(5.0)));
        assert_eq!(ctx.assignments().len(), 1);
        assert!(!ctx.idle_workers().contains(0));
        assert!(!ctx.pending_tasks().contains(0));
    }

    #[test]
    fn expiry_claims_strictly_past_deadlines_only() {
        let cfg = config();
        let stream = EventStream::new(vec![worker(0, 0.0, 5.0)], vec![]);
        let mut ctx = EngineContext::new(&cfg, &stream, IndexBackend::Grid, 4);
        ctx.admit_worker(&stream.workers()[0]);
        ctx.run_expiries(TimeStamp::minutes(5.0), &mut Inert);
        assert!(ctx.idle_workers().contains(0), "deadline == cutoff stays live");
        ctx.run_expiries(TimeStamp::minutes(5.0 + 1e-9), &mut Inert);
        assert!(!ctx.idle_workers().contains(0), "deadline < cutoff expires");
    }

    /// Satellite regression for the memory-accounting drift: the reported
    /// peak is charged from arena capacities at `finish`, so admit / claim /
    /// expire churn — including objects released twice under the old
    /// pairing (claimed by a policy, then popped by the expiry queue) — can
    /// never push the measure backwards.
    #[test]
    fn peak_memory_is_monotone_under_admit_claim_expire_churn() {
        let cfg = config();
        let workers: Vec<Worker> = (0..16).map(|i| worker(i, i as f64, 1.0)).collect();
        let tasks: Vec<Task> = (0..16).map(|i| task(i, i as f64, 1.0)).collect();
        let stream = EventStream::new(workers, tasks);
        let mut ctx = EngineContext::new(&cfg, &stream, IndexBackend::Grid, 16);
        let mut last_footprint = 0usize;
        for i in 0..16 {
            let h = ctx.admit_worker(&stream.workers()[i]);
            ctx.admit_task(&stream.tasks()[i]);
            if i % 3 == 0 {
                // Claim, then let the expiry queue find the same worker gone
                // — the double-release case that drifted under per-object
                // charges.
                ctx.claim_worker(h);
            }
            ctx.run_expiries(TimeStamp::minutes(i as f64), &mut Inert);
            let footprint = ctx.workers.structure_bytes()
                + ctx.tasks.structure_bytes()
                + ctx.worker_index.structure_bytes()
                + ctx.task_index.structure_bytes()
                + ctx.memory.peak_with_overhead();
            assert!(footprint >= last_footprint, "round {i}: {footprint} < {last_footprint}");
            last_footprint = footprint;
        }
        let (_, peak, _, _) = ctx.finish();
        assert!(peak >= last_footprint, "finish folds the structures into the peak");
    }

    /// Tentpole regression: committing against a multi-capacity worker
    /// debits capacity in place and only releases the worker on the last
    /// unit, while payoff accrues from the task weights.
    #[test]
    fn commit_debits_capacity_and_accrues_payoff() {
        let cfg = config();
        let cap2 = worker(0, 0.0, 30.0).with_capacity(2);
        let tasks = vec![task(0, 1.0, 20.0).with_payoff(2.5), task(1, 1.0, 20.0).with_payoff(0.25)];
        let stream = EventStream::new(vec![cap2], tasks);
        let mut ctx = EngineContext::new(&cfg, &stream, IndexBackend::Grid, 4);
        let h = ctx.admit_worker(&stream.workers()[0]);
        ctx.admit_task(&stream.tasks()[0]);
        ctx.admit_task(&stream.tasks()[1]);
        ctx.set_now(TimeStamp::minutes(2.0));

        let first = ctx.commit(AssignmentDecision::new(WorkerId(0), TaskId(0)));
        assert_eq!(first.worker_remaining, 1);
        assert!(!first.worker_released, "one unit of capacity left");
        assert!(first.task_released);
        assert_eq!(first.payoff, 2.5);
        assert_eq!(first.assigned_at, TimeStamp::minutes(2.0));
        assert!(ctx.idle_workers().contains(0), "worker stays poolable");
        assert_eq!(ctx.idle_workers().remaining_capacity(h), Some(1));

        let second = ctx.commit(AssignmentDecision::new(WorkerId(0), TaskId(1)));
        assert!(second.worker_released, "capacity exhausted");
        assert_eq!(second.worker_remaining, 0);
        assert!(!ctx.idle_workers().contains(0));
        assert_eq!(ctx.assignments().len(), 2);
        assert_eq!(ctx.total_payoff(), 2.75);
    }
}
