//! Batch rounds: windowed bipartite matchings solved with the `flow`
//! crate's exact matchers, for GR and the two flow-backed policies.
//!
//! All three policies gather the objects arriving within a Δt window,
//! solve one bipartite round over everything still alive at the window
//! boundary, and repeat. [`BatchFlowPolicy`] runs that loop for all of
//! them; they differ only in the left vertices a worker gets and in the
//! objective of the round:
//!
//! * GR ([`crate::algorithms::BatchGreedy`]) gives each worker one left
//!   vertex, whatever its remaining capacity, and maximises cardinality
//!   with Hopcroft–Karp ([`flow::BipartiteGraph::max_matching`]);
//! * [`BatchMaxFlow`] gives a worker with `c` remaining units of capacity
//!   `c` left vertices, which reduces the capacitated round to plain
//!   bipartite matching, and maximises cardinality the same way;
//! * [`BatchHungarian`] uses the same replicated vertices and maximises
//!   the round's *payoff* among the maximum-cardinality matchings via
//!   min-cost max-flow ([`flow::BipartiteGraph::min_cost_max_matching`]),
//!   the assignment-problem (Hungarian) objective expressed as costs
//!   `P_max − payoff`.
//!
//! The engine's [`EngineContext::commit`] surface debits capacity one
//! committed pair at a time.
//!
//! A round's feasibility graph comes from per-task *reachable disk* range
//! queries on the worker index instead of a scan of every worker×task
//! pair: a worker can reach task `r` departing at the batch instant `t`
//! iff it lies within `velocity · (deadline_r − t)` of `L_r`. Tasks are
//! queried in arrival order and their edges go straight into the round's
//! [`flow::BipartiteGraph`], which lays them out per left vertex in
//! insertion order. Each worker×task pair is found once, so a worker's
//! edges list its tasks in arrival order whatever order the index reports
//! workers in, and the matching never depends on the index backend.

use crate::algorithms::OnlineAlgorithm;
use crate::engine::context::{AssignmentDecision, EngineContext};
use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::instance::Instance;
use crate::memory::vec_bytes;
use crate::result::AlgorithmResult;
use flow::BipartiteGraph;
use ftoa_types::{Task, TimeDelta, TimeStamp, Worker};

/// Fixed-point scale turning payoffs into the integral edge costs the
/// min-cost solver consumes. Payoffs are user weights of moderate magnitude
/// (fares, priorities), so six decimal digits preserve every practically
/// distinguishable difference without overflowing `i64` on realistic rounds.
const PAYOFF_COST_SCALE: f64 = 1e6;

/// What a round gives each worker and what it optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundObjective {
    /// One left vertex per worker, maximum cardinality (GR).
    WorkerCardinality,
    /// One left vertex per remaining unit of capacity, maximum cardinality.
    Cardinality,
    /// One left vertex per remaining unit of capacity, maximum payoff among
    /// the maximum-cardinality matchings (min-cost max-flow with costs
    /// `P_max − payoff`).
    Payoff,
}

/// The max-flow batch baseline: Hopcroft–Karp rounds every Δt.
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
/// steady-state event loop allocates only the round graph once the buffers
/// reach their high-water marks.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    workers: Vec<Worker>,
    tasks: Vec<Task>,
    /// `workers[i]`'s left vertices are `first_left[i]..first_left[i + 1]`.
    first_left: Vec<usize>,
    /// Dense worker id → position in `workers` for the current round
    /// (`u32::MAX` when absent). Grow-only; entries used by a round are
    /// reset on its way out.
    worker_slot: Vec<u32>,
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

/// Solve and commit one bipartite round at the batch instant `t`.
///
/// Workers and tasks enter in arrival order (the event stream breaks time
/// ties by id), and the committed pairs come out sorted by left vertex, so
/// the matching depends on neither the pools' slot order nor the index
/// backend.
fn solve_round(
    ctx: &mut EngineContext<'_>,
    t: TimeStamp,
    objective: RoundObjective,
    scratch: &mut RoundScratch,
) {
    let velocity = ctx.velocity();
    let RoundScratch { workers, tasks, first_left, worker_slot } = scratch;
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

    first_left.clear();
    first_left.push(0);
    let mut lefts = 0;
    {
        let pool = ctx.idle_workers();
        for w in workers.iter() {
            lefts += match objective {
                RoundObjective::WorkerCardinality => 1,
                RoundObjective::Cardinality | RoundObjective::Payoff => {
                    pool.handle_of(w.id.index())
                        .and_then(|h| pool.remaining_capacity(h))
                        .unwrap_or(0)
                        .max(1) as usize
                }
            };
            first_left.push(lefts);
        }
    }
    for (wi, w) in workers.iter().enumerate() {
        let id = w.id.index();
        if id >= worker_slot.len() {
            worker_slot.resize(id + 1, u32::MAX);
        }
        worker_slot[id] = wi as u32;
    }

    // The cost of serving `r`: cheapest for the highest payoff, so the
    // min-cost maximum matching is the payoff-maximal one. Costs must be
    // non-negative, hence the `P_max − payoff` shift.
    let max_payoff = tasks.iter().fold(0.0f64, |m, r| m.max(r.payoff));
    let mut graph = BipartiteGraph::new(lefts, tasks.len());
    for (ri, r) in tasks.iter().enumerate() {
        let radius = r.reach_radius_at(t, velocity);
        let location = r.location;
        let deadline = r.deadline();
        let cost = match objective {
            RoundObjective::Payoff => ((max_payoff - r.payoff) * PAYOFF_COST_SCALE).round() as i64,
            RoundObjective::WorkerCardinality | RoundObjective::Cardinality => 0,
        };
        // The range query prunes the candidate pairs; the exact travel-time
        // check keeps the edge set identical to the full double loop.
        ctx.idle_workers().for_each_within(&location, radius, &mut |_, w| {
            match worker_slot.get(w.id.index()) {
                // The pool can hold workers already past the batch instant
                // (the batched expiry cutoff keeps them for *earlier*
                // rounds); those never made it into `workers`.
                Some(&wi)
                    if wi != u32::MAX
                        && t + w.location.travel_time(&location, velocity) <= deadline =>
                {
                    let wi = wi as usize;
                    for left in first_left[wi]..first_left[wi + 1] {
                        graph.add_edge_with_cost(left, ri, cost);
                    }
                }
                _ => {}
            }
        });
    }
    let graph_bytes = vec_bytes::<(u32, u32, i64)>(graph.num_edges());
    ctx.memory_mut().allocate(graph_bytes);
    let matching = match objective {
        RoundObjective::WorkerCardinality | RoundObjective::Cardinality => graph.max_matching(),
        RoundObjective::Payoff => graph.min_cost_max_matching(),
    };
    for &(left, ri) in &matching.pairs {
        let wi = first_left.partition_point(|&f| f <= left) - 1;
        ctx.commit(AssignmentDecision::new(workers[wi].id, tasks[ri].id).at(t));
    }
    ctx.memory_mut().release(graph_bytes);
    // Reset the sentinel map for the next round.
    for w in workers.iter() {
        worker_slot[w.id.index()] = u32::MAX;
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
}
