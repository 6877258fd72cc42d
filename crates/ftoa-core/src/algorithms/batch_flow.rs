//! Batch rounds: one maximum matching per Δt window for GR and the two
//! flow-backed policies, grown task by task with augmenting paths.
//!
//! All three policies gather the objects arriving within a Δt window, match
//! everything still alive at the window boundary in one round, and repeat.
//! [`BatchFlowPolicy`] runs that loop for all of them. They differ only in
//! how many *units* a worker brings to a round and in the order the round
//! takes its tasks:
//!
//! * GR ([`crate::algorithms::BatchGreedy`]) gives each worker one unit,
//!   whatever its remaining capacity, and takes tasks in arrival order;
//! * [`BatchMaxFlow`] gives a worker one unit per remaining unit of
//!   capacity, which makes the round a b-matching, and takes tasks in
//!   arrival order;
//! * [`BatchHungarian`] uses the same units and takes tasks by payoff,
//!   highest first, keeping arrival order among equal payoffs.
//!
//! A round is Kuhn's algorithm over the worker index; no round graph is
//! built. Each task asks the index once, for its *reachable disk*: a worker
//! can reach task `r` departing at the batch instant `t` iff it lies within
//! `velocity · (deadline_r − t)` of `L_r`. The feasible workers go into one
//! flat neighbour list, and the task takes the oldest of them (smallest
//! `(start, id)`) that has a free unit. Only when none has one does it run
//! one augmenting-path search, which re-seats earlier tasks and tries each
//! task's workers oldest first.
//!
//! Why a round is exact:
//!
//! * one complete search per task, taken in any order, yields a maximum
//!   matching (Kuhn); a search that offers a worker's units in turn does the
//!   same for the b-matching;
//! * the workers a failed search visits are full, and the tasks they hold
//!   reach only workers it visited, so no path through them reaches a free
//!   unit until the matching grows; their marks stay until the next search
//!   succeeds;
//! * the task sets a round can serve form a transversal matroid, whose
//!   bases are the task sets of its maximum matchings. Taking tasks in
//!   payoff order, with a complete search for each, is the matroid's greedy
//!   algorithm, so it ends on a maximum-payoff basis: a payoff-maximal
//!   maximum matching, the min-cost max-flow objective with costs
//!   `P_max − payoff`.
//!
//! Workers and tasks are sorted by arrival, a direct take picks the oldest
//! free worker, and a neighbour list is sorted before its first search, so
//! the matching depends on neither the pools' slot order nor the index
//! backend. Debug builds re-solve every round with the `flow` crate's
//! Hopcroft–Karp and min-cost flow and assert the same size and cost.
//!
//! The engine's [`EngineContext::commit`] surface debits capacity one
//! committed pair at a time.

use crate::algorithms::OnlineAlgorithm;
use crate::engine::context::{AssignmentDecision, EngineContext};
use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::instance::Instance;
use crate::memory::vec_bytes;
use crate::result::AlgorithmResult;
use ftoa_types::{Task, TimeDelta, TimeStamp, Worker};
use std::ops::Range;

/// A free unit, or a worker absent from the round in `worker_slot`.
const NONE: u32 = u32::MAX;

/// What a round gives each worker and in which order it takes tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundObjective {
    /// One unit per worker, tasks in arrival order: maximum cardinality (GR).
    WorkerCardinality,
    /// One unit per remaining unit of capacity, tasks in arrival order:
    /// maximum cardinality.
    Cardinality,
    /// One unit per remaining unit of capacity, tasks by payoff: maximum
    /// payoff among the maximum-cardinality matchings.
    Payoff,
}

/// The max-flow batch baseline: a maximum b-matching every Δt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMaxFlow {
    /// Length of a batching window in minutes (same default as GR).
    pub window_minutes: f64,
}

impl Default for BatchMaxFlow {
    fn default() -> Self {
        Self { window_minutes: 3.0 }
    }
}

impl BatchMaxFlow {
    /// The incremental policy implementing the max-flow rounds.
    pub fn policy(&self) -> BatchFlowPolicy {
        BatchFlowPolicy::new("BATCH-MF", RoundObjective::Cardinality, self.window_minutes)
    }
}

/// The weighted batch baseline: payoff-optimal rounds every Δt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchHungarian {
    /// Length of a batching window in minutes (same default as GR).
    pub window_minutes: f64,
}

impl Default for BatchHungarian {
    fn default() -> Self {
        Self { window_minutes: 3.0 }
    }
}

impl BatchHungarian {
    /// The incremental policy implementing the payoff-optimal rounds.
    pub fn policy(&self) -> BatchFlowPolicy {
        BatchFlowPolicy::new("BATCH-HUN", RoundObjective::Payoff, self.window_minutes)
    }
}

/// Reusable per-round buffers: cleared, not dropped, between rounds, so the
/// steady-state event loop allocates nothing once they reach their
/// high-water marks.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    workers: Vec<Worker>,
    tasks: Vec<Task>,
    /// Dense worker id → position in `workers` for the current round
    /// (`NONE` when absent). Grow-only; entries used by a round are reset
    /// on its way out.
    worker_slot: Vec<u32>,
    matching: RoundMatching,
}

/// One round's b-matching between worker units and tasks, grown by Kuhn's
/// algorithm. A worker is named by its position in arrival order, a task
/// by its position in the order the round takes tasks.
#[derive(Debug, Clone, Default)]
struct RoundMatching {
    /// Worker `w`'s units are `first_unit[w]..first_unit[w + 1]`.
    first_unit: Vec<usize>,
    /// Worker `w`'s first free unit (`first_unit[w + 1]` once it is full).
    /// Units fill in order and stay filled for the rest of the round.
    next_free: Vec<usize>,
    /// The task seated in each unit, `NONE` while it is free.
    unit_task: Vec<u32>,
    /// Task `p`'s feasible workers are
    /// `neighbours[first_neighbour[p]..first_neighbour[p + 1]]`, in the
    /// order the index reported them until a search first reaches `p` and
    /// sorts them (`sorted[p]`).
    neighbours: Vec<u32>,
    first_neighbour: Vec<usize>,
    sorted: Vec<bool>,
    /// `visited[w] == stamp`: a search visited worker `w` since the last
    /// search that succeeded.
    visited: Vec<u32>,
    stamp: u32,
    /// The explicit stack of the running search.
    stack: Vec<Frame>,
}

/// One level of a search: `task` is looking for a seat,
/// `neighbours[cursor..]` holds its workers not yet tried, and the worker
/// being tried still offers its units `unit..unit_end`. While the next level
/// tries to re-seat the task of one of those units, that unit is `unit - 1`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    task: u32,
    cursor: usize,
    unit: usize,
    unit_end: usize,
}

impl RoundMatching {
    /// Start a round over workers bringing `units` units each, in order.
    fn reset(&mut self, units: impl Iterator<Item = usize>) {
        self.first_unit.clear();
        self.first_unit.push(0);
        let mut total = 0;
        for n in units {
            total += n;
            self.first_unit.push(total);
        }
        let workers = self.first_unit.len() - 1;
        self.next_free.clear();
        self.next_free.extend_from_slice(&self.first_unit[..workers]);
        self.unit_task.clear();
        self.unit_task.resize(total, NONE);
        self.neighbours.clear();
        self.first_neighbour.clear();
        self.first_neighbour.push(0);
        self.sorted.clear();
        self.visited.clear();
        self.visited.resize(workers, 0);
        self.stamp = 1;
    }

    fn has_free_unit(&self, w: usize) -> bool {
        self.next_free[w] < self.first_unit[w + 1]
    }

    /// The tasks seated at worker `w`, in unit order.
    fn seated(&self, w: usize) -> &[u32] {
        &self.unit_task[self.first_unit[w]..self.next_free[w]]
    }

    /// Close the neighbour list of the next task (its feasible workers were
    /// just pushed) and seat the task: in `oldest_free`, the oldest feasible
    /// worker with a free unit, when there is one, else by one search.
    fn add_task(&mut self, oldest_free: Option<usize>) {
        let task = self.sorted.len() as u32;
        self.first_neighbour.push(self.neighbours.len());
        self.sorted.push(false);
        match oldest_free {
            Some(w) => self.seat(task, w),
            None => self.augment(task),
        }
    }

    /// Put `task` in worker `w`'s first free unit.
    fn seat(&mut self, task: u32, w: usize) {
        self.unit_task[self.next_free[w]] = task;
        self.next_free[w] += 1;
    }

    /// Where `task`'s workers sit in `neighbours`, sorted oldest first the
    /// first time a search reaches the task.
    fn search_range(&mut self, task: u32) -> Range<usize> {
        let p = task as usize;
        let range = self.first_neighbour[p]..self.first_neighbour[p + 1];
        if !self.sorted[p] {
            self.neighbours[range.clone()].sort_unstable();
            self.sorted[p] = true;
        }
        range
    }

    /// Kuhn's search from `root`, which no free unit can take directly.
    /// Each level first seats its task in the first of its workers with a
    /// free unit. Failing that, it marks each unvisited worker in turn and
    /// tries to re-seat the task of each of its units one level down. A
    /// success shifts every task on the path into the unit its level was
    /// re-seating and clears the visited marks; a failure keeps them. The
    /// stack is explicit: a path can be as long as the round has workers.
    fn augment(&mut self, root: u32) {
        let cursor = self.search_range(root).start;
        self.stack.clear();
        self.stack.push(Frame { task: root, cursor, unit: 0, unit_end: 0 });
        while let Some(&Frame { task, cursor, unit, unit_end }) = self.stack.last() {
            let top = self.stack.len() - 1;
            if unit < unit_end {
                self.stack[top].unit += 1;
                let held = self.unit_task[unit];
                let range = self.search_range(held);
                // A visited worker is full, so a free one is unvisited.
                let free = self.neighbours[range.clone()]
                    .iter()
                    .map(|&w| w as usize)
                    .find(|&w| self.has_free_unit(w));
                if let Some(w) = free {
                    self.seat(held, w);
                    for frame in self.stack.drain(..) {
                        self.unit_task[frame.unit - 1] = frame.task;
                    }
                    self.stamp += 1;
                    return;
                }
                self.stack.push(Frame { task: held, cursor: range.start, unit: 0, unit_end: 0 });
                continue;
            }
            let end = self.first_neighbour[task as usize + 1];
            match (cursor..end).find(|&i| self.visited[self.neighbours[i] as usize] != self.stamp) {
                Some(i) => {
                    let w = self.neighbours[i] as usize;
                    self.visited[w] = self.stamp;
                    self.stack[top] = Frame {
                        task,
                        cursor: i + 1,
                        unit: self.first_unit[w],
                        unit_end: self.first_unit[w + 1],
                    };
                }
                None => {
                    self.stack.pop();
                }
            }
        }
    }
}

/// Per-event batching logic of GR, BATCH-MF and BATCH-HUN.
#[derive(Debug, Clone)]
pub struct BatchFlowPolicy {
    name: &'static str,
    objective: RoundObjective,
    window: TimeDelta,
    /// End of the currently open window (`None` until the first arrival).
    window_end: Option<TimeStamp>,
    scratch: RoundScratch,
}

impl BatchFlowPolicy {
    pub(crate) fn new(name: &'static str, objective: RoundObjective, window_minutes: f64) -> Self {
        Self {
            name,
            objective,
            window: TimeDelta::minutes(window_minutes.max(1e-6)),
            window_end: None,
            scratch: RoundScratch::default(),
        }
    }

    /// Process every window that closed before `now`.
    fn catch_up(&mut self, ctx: &mut EngineContext<'_>, now: TimeStamp) {
        let mut window_end = match self.window_end {
            Some(t) => t,
            None => {
                self.window_end = Some(now + self.window);
                return;
            }
        };
        while now >= window_end {
            solve_round(ctx, window_end, self.objective, &mut self.scratch);
            window_end += self.window;
        }
        self.window_end = Some(window_end);
    }
}

impl OnlinePolicy for BatchFlowPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
        self.catch_up(ctx, ctx.now());
        ctx.admit_worker(w);
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
        self.catch_up(ctx, ctx.now());
        ctx.admit_task(r);
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        if let Some(window_end) = self.window_end {
            solve_round(ctx, window_end, self.objective, &mut self.scratch);
        }
    }

    fn expiry_cutoff(&self, now: TimeStamp) -> TimeStamp {
        // Objects that were alive at the pending round boundary must stay
        // visible to its round even if their deadline passes before the
        // event that triggers it.
        self.window_end.unwrap_or(now)
    }
}

/// Solve and commit one round at the batch instant `t`.
///
/// Workers enter in arrival order (the event stream breaks time ties by
/// id), tasks in the order the objective takes them, and the committed
/// pairs come out by worker, then unit, so the matching depends on neither
/// the pools' slot order nor the index backend.
fn solve_round(
    ctx: &mut EngineContext<'_>,
    t: TimeStamp,
    objective: RoundObjective,
    scratch: &mut RoundScratch,
) {
    let velocity = ctx.velocity();
    let RoundScratch { workers, tasks, worker_slot, matching } = scratch;
    workers.clear();
    ctx.idle_workers().for_each_unordered(&mut |w| {
        if w.deadline() >= t {
            workers.push(*w);
        }
    });
    if workers.is_empty() {
        return;
    }
    tasks.clear();
    ctx.pending_tasks().for_each_unordered(&mut |r| {
        if r.deadline() >= t {
            tasks.push(*r);
        }
    });
    if tasks.is_empty() {
        return;
    }
    workers.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
    tasks.sort_by(|a, b| a.release.cmp(&b.release).then(a.id.cmp(&b.id)));
    if objective == RoundObjective::Payoff {
        // Stable, so equal payoffs keep arrival order.
        tasks.sort_by(|a, b| b.payoff.total_cmp(&a.payoff));
    }

    {
        let pool = ctx.idle_workers();
        // A worker serves at most one task per unit and a round has
        // `tasks.len()` tasks, which bounds the units a trace's capacity
        // can make a round allocate.
        matching.reset(workers.iter().map(|w| match objective {
            RoundObjective::WorkerCardinality => 1,
            RoundObjective::Cardinality | RoundObjective::Payoff => {
                let remaining =
                    pool.handle_of(w.id.index()).and_then(|h| pool.remaining_capacity(h));
                (remaining.unwrap_or(0).max(1) as usize).min(tasks.len())
            }
        }));
    }
    for (wi, w) in workers.iter().enumerate() {
        let id = w.id.index();
        if id >= worker_slot.len() {
            worker_slot.resize(id + 1, NONE);
        }
        worker_slot[id] = wi as u32;
    }

    for r in tasks.iter() {
        let radius = r.reach_radius_at(t, velocity);
        let location = r.location;
        let deadline = r.deadline();
        let mut oldest_free = None;
        // The range query prunes the candidates; the exact travel-time
        // check keeps exactly the feasible pairs.
        ctx.idle_workers().for_each_within(&location, radius, &mut |_, w| {
            match worker_slot.get(w.id.index()) {
                // The pool can hold workers already past the batch instant
                // (the batched expiry cutoff keeps them for *earlier*
                // rounds); those never made it into `workers`.
                Some(&wi)
                    if wi != NONE
                        && t + w.location.travel_time(&location, velocity) <= deadline =>
                {
                    matching.neighbours.push(wi);
                    let wi = wi as usize;
                    if matching.has_free_unit(wi) && oldest_free.is_none_or(|o| wi < o) {
                        oldest_free = Some(wi);
                    }
                }
                _ => {}
            }
        });
        matching.add_task(oldest_free);
    }
    #[cfg(debug_assertions)]
    check_round(objective, tasks, matching);

    let list_bytes = vec_bytes::<u32>(matching.neighbours.len());
    ctx.memory_mut().allocate(list_bytes);
    for (wi, w) in workers.iter().enumerate() {
        for &p in matching.seated(wi) {
            ctx.commit(AssignmentDecision::new(w.id, tasks[p as usize].id).at(t));
        }
    }
    ctx.memory_mut().release(list_bytes);
    // Reset the sentinel map for the next round.
    for w in workers.iter() {
        worker_slot[w.id.index()] = NONE;
    }
}

/// Re-solve a round from its neighbour lists with the `flow` crate, one left
/// vertex per unit, and check the search's result against it: every seated
/// pair is feasible, no task is seated twice, the size is Hopcroft–Karp's
/// and, under [`RoundObjective::Payoff`], the summed cost `P_max − payoff`
/// is min-cost max-flow's.
#[cfg(debug_assertions)]
fn check_round(objective: RoundObjective, tasks: &[Task], matching: &RoundMatching) {
    /// Fixed-point scale turning payoffs into the integral edge costs the
    /// min-cost solver consumes: six decimal digits.
    const PAYOFF_COST_SCALE: f64 = 1e6;
    let max_payoff = tasks.iter().fold(0.0f64, |m, r| m.max(r.payoff));
    let cost = |p: usize| ((max_payoff - tasks[p].payoff) * PAYOFF_COST_SCALE).round() as i64;
    let neighbours_of = |p: usize| {
        &matching.neighbours[matching.first_neighbour[p]..matching.first_neighbour[p + 1]]
    };
    let mut graph = flow::BipartiteGraph::new(matching.unit_task.len(), tasks.len());
    for p in 0..tasks.len() {
        for &w in neighbours_of(p) {
            let w = w as usize;
            for unit in matching.first_unit[w]..matching.first_unit[w + 1] {
                graph.add_edge_with_cost(unit, p, cost(p));
            }
        }
    }
    let mut served = vec![false; tasks.len()];
    let (mut size, mut total_cost) = (0, 0);
    for w in 0..matching.first_unit.len() - 1 {
        for &p in matching.seated(w) {
            let p = p as usize;
            assert!(!std::mem::replace(&mut served[p], true), "task {p} seated twice");
            assert!(
                neighbours_of(p).contains(&(w as u32)),
                "task {p} seated at infeasible worker {w}"
            );
            size += 1;
            total_cost += cost(p);
        }
    }
    assert_eq!(size, graph.max_matching().len(), "the round is not a maximum matching");
    if objective == RoundObjective::Payoff {
        assert_eq!(
            total_cost,
            graph.min_cost_max_matching().total_cost,
            "the round is not payoff-maximal among the maximum matchings"
        );
    }
}

impl OnlineAlgorithm for BatchMaxFlow {
    fn name(&self) -> &'static str {
        "BATCH-MF"
    }

    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy())
    }
}

impl OnlineAlgorithm for BatchHungarian {
    fn name(&self) -> &'static str {
        "BATCH-HUN"
    }

    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{example1, BatchGreedy};
    use crate::instance::Instance;
    use ftoa_types::{EventStream, Location, TaskId, WorkerId};

    fn run_example(algo: &dyn OnlineAlgorithm) -> AlgorithmResult {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        algo.run(&instance)
    }

    #[test]
    fn max_flow_rounds_match_gr_cardinality_on_unit_streams() {
        // Same window, same feasibility graph, both solvers exact: on a
        // unit-capacity stream the round cardinalities must coincide.
        let gr = run_example(&BatchGreedy { window_minutes: 1.0 });
        let mf = run_example(&BatchMaxFlow { window_minutes: 1.0 });
        assert_eq!(mf.matching_size(), gr.matching_size());
        assert_eq!(mf.total_payoff, gr.total_payoff);
    }

    #[test]
    fn hungarian_rounds_preserve_cardinality_on_unit_payoffs() {
        let mf = run_example(&BatchMaxFlow { window_minutes: 1.0 });
        let hun = run_example(&BatchHungarian { window_minutes: 1.0 });
        assert_eq!(hun.matching_size(), mf.matching_size());
    }

    #[test]
    fn hungarian_prefers_the_high_payoff_task() {
        // One worker, two reachable tasks in the same round, one of them
        // three times as valuable: the payoff objective must take it.
        let config = example1::config();
        let worker = Worker::new(
            WorkerId(0),
            Location::new(4.0, 4.0),
            TimeStamp::minutes(0.0),
            TimeDelta::minutes(30.0),
        );
        let tasks = vec![
            Task::new(
                TaskId(0),
                Location::new(4.2, 4.0),
                TimeStamp::minutes(0.1),
                TimeDelta::minutes(5.0),
            ),
            Task::new(
                TaskId(1),
                Location::new(3.8, 4.0),
                TimeStamp::minutes(0.2),
                TimeDelta::minutes(5.0),
            )
            .with_payoff(3.0),
        ];
        let stream = EventStream::new(vec![worker], tasks);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = BatchHungarian { window_minutes: 1.0 }.run(&instance);
        assert_eq!(result.matching_size(), 1);
        assert_eq!(result.total_payoff, 3.0);
        assert_eq!(result.assignments.pairs()[0].task, TaskId(1));
    }

    #[test]
    fn capacity_replication_lets_one_worker_serve_a_full_round() {
        // A capacity-2 worker and two tasks in one round: both flow policies
        // must serve both tasks through the replicated left vertices.
        let config = example1::config();
        let worker = Worker::new(
            WorkerId(0),
            Location::new(4.0, 4.0),
            TimeStamp::minutes(0.0),
            TimeDelta::minutes(30.0),
        )
        .with_capacity(2);
        let tasks = vec![
            Task::new(
                TaskId(0),
                Location::new(4.2, 4.0),
                TimeStamp::minutes(0.1),
                TimeDelta::minutes(5.0),
            ),
            Task::new(
                TaskId(1),
                Location::new(3.8, 4.0),
                TimeStamp::minutes(0.2),
                TimeDelta::minutes(5.0),
            ),
        ];
        let stream = EventStream::new(vec![worker], tasks);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        for result in [
            BatchMaxFlow { window_minutes: 1.0 }.run(&instance),
            BatchHungarian { window_minutes: 1.0 }.run(&instance),
        ] {
            assert_eq!(result.matching_size(), 2, "{}", result.algorithm);
            assert_eq!(result.total_payoff, 2.0, "{}", result.algorithm);
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let config = example1::config();
        let stream = EventStream::new(vec![], vec![]);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        assert_eq!(BatchMaxFlow::default().run(&instance).matching_size(), 0);
        assert_eq!(BatchHungarian::default().run(&instance).matching_size(), 0);
    }

    /// A worker at `(x, 4)` arriving at `start` minutes, on shift for 30.
    fn worker_at(x: f64, start: f64) -> Worker {
        Worker::new(
            WorkerId(0),
            Location::new(x, 4.0),
            TimeStamp::minutes(start),
            TimeDelta::minutes(30.0),
        )
    }

    /// A task at `(x, 4)` released at `release` minutes whose reach radius
    /// at the round instant `t = 1` is `reach` (velocity 1).
    fn task_at(x: f64, release: f64, reach: f64) -> Task {
        Task::new(
            TaskId(0),
            Location::new(x, 4.0),
            TimeStamp::minutes(release),
            TimeDelta::minutes(1.0 + reach - release),
        )
    }

    /// Run `policy` over one round: 1-minute windows, the first worker
    /// arriving at 0 and every object before 1, so the only round runs at
    /// `t = 1`. Returns the committed `(worker, task)` indices in commit
    /// order.
    fn round_pairs(
        mut policy: BatchFlowPolicy,
        workers: &[Worker],
        tasks: &[Task],
    ) -> Vec<(usize, usize)> {
        let config = example1::config();
        let stream = EventStream::new(workers.to_vec(), tasks.to_vec());
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = SimulationEngine::default().run(&instance, &mut policy);
        result
            .assignments
            .pairs()
            .iter()
            .map(|a| {
                assert_eq!(a.assigned_at, TimeStamp::minutes(1.0));
                (a.worker.index(), a.task.index())
            })
            .collect()
    }

    fn gr() -> BatchFlowPolicy {
        BatchGreedy { window_minutes: 1.0 }.policy()
    }

    fn mf() -> BatchFlowPolicy {
        BatchMaxFlow { window_minutes: 1.0 }.policy()
    }

    fn hun() -> BatchFlowPolicy {
        BatchHungarian { window_minutes: 1.0 }.policy()
    }

    #[test]
    fn a_search_re_seats_tasks_along_a_path_of_length_five() {
        // r0 reaches w0 and w1, r1 reaches w1 and w2, r2 only w0. r0 and r1
        // take their oldest free workers, w0 and w1, which leaves r2
        // nothing free: only the path r2–w0–r0–w1–r1–w2 serves all three.
        let workers = [worker_at(1.0, 0.0), worker_at(3.0, 0.01), worker_at(5.0, 0.02)];
        let tasks = [task_at(2.0, 0.1, 1.5), task_at(4.0, 0.2, 1.5), task_at(1.0, 0.3, 0.5)];
        assert_eq!(round_pairs(gr(), &workers, &tasks), [(0, 2), (1, 0), (2, 1)]);
    }

    #[test]
    fn a_capacity_two_worker_hands_a_unit_to_a_later_task() {
        // w0 has two units. r0 and r1 reach both workers and fill w0's
        // units; r2 reaches only w0, so the search moves r0 from w0's first
        // unit to w1 and seats r2 there. GR, with one unit per worker,
        // cannot serve r2 as well.
        let workers = [worker_at(2.0, 0.0).with_capacity(2), worker_at(4.0, 0.01)];
        let tasks = [task_at(3.0, 0.1, 1.5), task_at(3.0, 0.2, 1.5), task_at(1.5, 0.3, 1.0)];
        assert_eq!(round_pairs(mf(), &workers, &tasks), [(0, 2), (0, 1), (1, 0)]);
        assert_eq!(round_pairs(gr(), &workers, &tasks), [(0, 0), (1, 1)]);
    }

    #[test]
    fn a_later_higher_payoff_wins_and_equal_payoffs_keep_arrival_order() {
        // r0 (payoff 1) reaches only w0; r1 and r2 (payoff 3 each) reach
        // both workers. BATCH-HUN takes r1, then r2, then r0: r1 wins w0,
        // r2 gets w1, and r0 is left out. GR takes arrival order and serves
        // r0 and r1 instead.
        let workers = [worker_at(2.0, 0.0), worker_at(4.0, 0.01)];
        let tasks = [
            task_at(1.5, 0.1, 1.0),
            task_at(3.0, 0.2, 1.5).with_payoff(3.0),
            task_at(3.1, 0.3, 1.5).with_payoff(3.0),
        ];
        assert_eq!(round_pairs(hun(), &workers, &tasks), [(0, 1), (1, 2)]);
        assert_eq!(round_pairs(gr(), &workers, &tasks), [(0, 0), (1, 1)]);
    }

    #[test]
    fn a_task_due_at_the_round_instant_is_served_from_its_own_location() {
        // The task's deadline is the round instant, so its reach radius is
        // 0: the older worker 0.1 away cannot serve it, the co-located one
        // can.
        let workers = [worker_at(4.1, 0.0), worker_at(4.0, 0.01)];
        let tasks = [task_at(4.0, 0.5, 0.0)];
        assert_eq!(tasks[0].deadline(), TimeStamp::minutes(1.0));
        for policy in [gr(), mf(), hun()] {
            assert_eq!(round_pairs(policy, &workers, &tasks), [(1, 0)]);
        }
    }

    #[test]
    fn a_huge_capacity_brings_no_more_units_than_the_round_has_tasks() {
        let workers = [worker_at(4.0, 0.0).with_capacity(u32::MAX)];
        let tasks = [task_at(4.2, 0.1, 1.0), task_at(3.8, 0.2, 1.0)];
        for policy in [mf(), hun()] {
            assert_eq!(round_pairs(policy, &workers, &tasks), [(0, 0), (0, 1)]);
        }
    }
}
