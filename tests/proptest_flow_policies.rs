//! Batch policies vs the offline optimum, and vs the stream.
//!
//! On an instance whose arrivals all fall inside one batching window, the
//! batch policies solve exactly one round — over every object alive at the
//! window boundary — so their matching must equal the *offline* optimum of
//! that round's feasibility graph, computed independently here with the
//! `flow` crate: GR's size is Hopcroft–Karp's with one left vertex per
//! worker, BATCH-MF's the same over capacity-replicated worker vertices, and
//! BATCH-HUN's payoff is min-cost max-flow's over those vertices. On an
//! instance whose arrivals spread over about five windows, every policy's
//! assignments are checked against the stream alone: both objects alive at
//! the assignment instant, the task reachable by its deadline, each task
//! served once, each worker within its capacity. The tests run as a debug
//! build, so each of those random rounds is also checked against
//! Hopcroft–Karp and min-cost flow inside the policy. These properties pin
//! that on random weighted instances: random positions, arrival times,
//! capacities and payoffs.

use ftoa::core_algorithms::{
    AlgorithmResult, BatchGreedy, BatchHungarian, BatchMaxFlow, Instance, OnlineAlgorithm,
};
use ftoa::flow::BipartiteGraph;
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{
    EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, Worker, WorkerId,
};
use proptest::prelude::*;

const WINDOW_MINUTES: f64 = 2.0;
const VELOCITY: f64 = 1.0;

/// `(x, y, arrival_min, window_min, capacity_or_payoff_knob)` per object.
type RawObject = (f64, f64, f64, f64, u32);

fn config() -> ProblemConfig {
    ProblemConfig::new(
        GridPartition::square(10.0, 4).expect("valid grid"),
        SlotPartition::over_horizon(TimeDelta::minutes(60.0), 4).expect("valid slots"),
        VELOCITY,
        TimeDelta::minutes(30.0),
        TimeDelta::minutes(30.0),
    )
}

/// Build a stream from raw objects, with every arrival time scaled by
/// `spread` minutes. With `spread = 1` all arrivals fall in `[0, 1]`
/// minutes — strictly inside the first `WINDOW_MINUTES` batching window, so
/// the batch policies solve exactly one round at
/// `t* = first_arrival + window`.
fn build_stream(raw_workers: &[RawObject], raw_tasks: &[RawObject], spread: f64) -> EventStream {
    let workers = raw_workers
        .iter()
        .map(|&(x, y, t, wait, knob)| {
            Worker::new(
                WorkerId(0),
                Location::new(x, y),
                TimeStamp::minutes(t * spread),
                TimeDelta::minutes(10.0 + wait),
            )
            .with_capacity(1 + knob % 3)
        })
        .collect();
    let tasks = raw_tasks
        .iter()
        .map(|&(x, y, t, patience, knob)| {
            Task::new(
                TaskId(0),
                Location::new(x, y),
                TimeStamp::minutes(t * spread),
                TimeDelta::minutes(5.0 + patience),
            )
            .with_payoff(0.5 + f64::from(knob % 7) * 0.4)
        })
        .collect();
    EventStream::new(workers, tasks)
}

fn raw_objects(max: usize) -> impl Strategy<Value = Vec<RawObject>> {
    proptest::collection::vec(
        (0.0..10.0f64, 0.0..10.0f64, 0.0..1.0f64, 0.0..20.0f64, 0u32..64),
        1..max,
    )
}

/// The single round instant both policies solve at: the first arrival plus
/// one batching window.
fn round_instant(stream: &EventStream) -> TimeStamp {
    let first_worker = stream.workers().iter().map(|w| w.start).min();
    let first_task = stream.tasks().iter().map(|r| r.release).min();
    let first = match (first_worker, first_task) {
        (Some(w), Some(t)) => w.min(t),
        (Some(w), None) => w,
        (None, Some(t)) => t,
        (None, None) => TimeStamp::ZERO,
    };
    first + TimeDelta::minutes(WINDOW_MINUTES)
}

/// The round at `t_star`, built from scratch: the tasks alive at the
/// boundary, and one row of feasible task positions per left vertex, with
/// `units(w)` left vertices for each worker alive at the boundary. An edge
/// exists exactly when departing at `t_star` reaches the task before its
/// deadline (the policies' own feasibility predicate, evaluated with the
/// same float expressions).
fn offline_round(
    stream: &EventStream,
    t_star: TimeStamp,
    units: impl Fn(&Worker) -> u32,
) -> (Vec<Task>, Vec<Vec<usize>>) {
    let tasks: Vec<Task> =
        stream.tasks().iter().filter(|r| r.deadline() >= t_star).copied().collect();
    let mut adj: Vec<Vec<usize>> = Vec::new();
    for w in stream.workers().iter().filter(|w| w.deadline() >= t_star) {
        let row: Vec<usize> = tasks
            .iter()
            .enumerate()
            .filter(|(_, r)| t_star + w.location.travel_time(&r.location, VELOCITY) <= r.deadline())
            .map(|(ri, _)| ri)
            .collect();
        for _ in 0..units(w) {
            adj.push(row.clone());
        }
    }
    (tasks, adj)
}

/// The size of a maximum matching of the round (Hopcroft–Karp).
fn max_matching_size(tasks: &[Task], adj: &[Vec<usize>]) -> usize {
    let mut first = vec![0];
    let mut right = Vec::new();
    for row in adj {
        right.extend(row.iter().map(|&ri| ri as u32));
        first.push(right.len());
    }
    ftoa::flow::hopcroft_karp(tasks.len(), &first, &right).0
}

/// The highest payoff of a maximum matching of the round: min-cost
/// max-flow with costs `P_max − payoff` in fixed point.
fn max_matching_payoff(tasks: &[Task], adj: &[Vec<usize>]) -> f64 {
    let p_max = tasks.iter().fold(0.0f64, |m, r| m.max(r.payoff));
    let mut graph = BipartiteGraph::new(adj.len(), tasks.len());
    for (left, row) in adj.iter().enumerate() {
        for &ri in row {
            graph.add_edge_with_cost(left, ri, ((p_max - tasks[ri].payoff) * 1e6).round() as i64);
        }
    }
    graph.min_cost_max_matching().pairs.iter().map(|&(_, ri)| tasks[ri].payoff).sum()
}

/// Check a result against the stream alone: each assignment pairs objects
/// both alive at its instant, the worker reaches the task by its deadline
/// departing then, no task is served twice, no worker beyond its capacity,
/// and `total_payoff` sums exactly the served payoffs.
fn check_against_stream(
    result: &AlgorithmResult,
    stream: &EventStream,
) -> Result<(), TestCaseError> {
    let name = &result.algorithm;
    let mut served = vec![false; stream.num_tasks()];
    let mut load = vec![0u32; stream.num_workers()];
    let mut payoff = 0.0;
    for a in result.assignments.pairs() {
        let (w, r, at) =
            (&stream.workers()[a.worker.index()], &stream.tasks()[a.task.index()], a.assigned_at);
        prop_assert!(
            w.start <= at && at <= w.deadline(),
            "{}: worker {} not alive at {:?}",
            name,
            a.worker.index(),
            at
        );
        prop_assert!(
            r.release <= at && at <= r.deadline(),
            "{}: task {} not alive at {:?}",
            name,
            a.task.index(),
            at
        );
        prop_assert!(
            at + w.location.travel_time(&r.location, VELOCITY) <= r.deadline(),
            "{}: worker {} cannot reach task {} by its deadline",
            name,
            a.worker.index(),
            a.task.index()
        );
        prop_assert!(
            !std::mem::replace(&mut served[a.task.index()], true),
            "{}: task {} served twice",
            name,
            a.task.index()
        );
        load[a.worker.index()] += 1;
        prop_assert!(
            load[a.worker.index()] <= w.capacity,
            "{}: worker {} over capacity",
            name,
            a.worker.index()
        );
        payoff += r.payoff;
    }
    prop_assert!(
        (result.total_payoff - payoff).abs() < 1e-9,
        "{}: total_payoff {} != served {}",
        name,
        result.total_payoff,
        payoff
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_round_batch_flow_equals_the_offline_maximum_matching(
        raw_workers in raw_objects(8),
        raw_tasks in raw_objects(8),
        spread_workers in raw_objects(16),
        spread_tasks in raw_objects(16),
    ) {
        let config = config();
        let zeros = SpatioTemporalMatrix::zeros(
            config.slots.num_slots(),
            config.grid.num_cells(),
        );
        let run_all = |stream: &EventStream| {
            let instance = Instance::new(&config, stream, &zeros, &zeros);
            [
                BatchGreedy { window_minutes: WINDOW_MINUTES }.run(&instance),
                BatchMaxFlow { window_minutes: WINDOW_MINUTES }.run(&instance),
                BatchHungarian { window_minutes: WINDOW_MINUTES }.run(&instance),
            ]
        };

        let stream = build_stream(&raw_workers, &raw_tasks, 1.0);
        let t_star = round_instant(&stream);
        let (tasks, per_worker) = offline_round(&stream, t_star, |_| 1);
        let (_, per_unit) = offline_round(&stream, t_star, |w| w.capacity);
        let [gr, mf, hun] = run_all(&stream);

        prop_assert_eq!(
            gr.matching_size(), max_matching_size(&tasks, &per_worker),
            "GR diverged from the offline Hopcroft–Karp optimum"
        );
        let expected = max_matching_size(&tasks, &per_unit);
        prop_assert_eq!(
            mf.matching_size(), expected,
            "BATCH-MF diverged from the offline Hopcroft–Karp optimum"
        );
        prop_assert_eq!(
            hun.matching_size(), expected,
            "BATCH-HUN sacrificed cardinality for payoff"
        );
        // Among max-cardinality matchings BATCH-HUN maximises payoff: it
        // collects the min-cost flow optimum, so never less than the
        // cardinality-only solver.
        let best = max_matching_payoff(&tasks, &per_unit);
        prop_assert!(
            (hun.total_payoff - best).abs() < 1e-9,
            "BATCH-HUN payoff {} differs from the min-cost flow optimum {}",
            hun.total_payoff,
            best
        );
        prop_assert!(
            hun.total_payoff >= mf.total_payoff - 1e-9,
            "BATCH-HUN payoff {} below BATCH-MF payoff {}",
            hun.total_payoff,
            mf.total_payoff
        );
        for result in [&gr, &mf, &hun] {
            check_against_stream(result, &stream)?;
        }

        // Arrivals over about five windows: several rounds, with objects
        // left over from one round carried into the next.
        let spread = build_stream(&spread_workers, &spread_tasks, 5.0 * WINDOW_MINUTES);
        for result in run_all(&spread).iter() {
            check_against_stream(result, &spread)?;
        }
    }
}
