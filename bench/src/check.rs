//! Output checks that do not trust the engine.
//!
//! Each check recomputes its verdict from the parsed trace alone: the
//! worker and task records the trace file holds, never the engine's pools,
//! its capacity bookkeeping or the `AssignmentSet`'s own duplicate guard.
//! A bug in the shared `EngineContext::commit` path therefore shows here
//! even though every backend and every policy would agree on it.

use ftoa_core::AlgorithmResult;
use ftoa_types::{Assignment, EventStream};

/// At most this many failures are spelled out per result.
const MAX_REPORTED: usize = 5;

/// Every failure found in `result`, recomputed from `stream`.
/// `wait_in_place` selects the stricter feasibility model of the greedy and
/// batch policies; the guided policies are checked under the flexible one.
pub fn check_result(
    stream: &EventStream,
    velocity: f64,
    wait_in_place: bool,
    result: &AlgorithmResult,
) -> Vec<String> {
    check_pairs(stream, velocity, wait_in_place, result.assignments.pairs(), result.total_payoff)
        .into_iter()
        .map(|message| format!("{}: {message}", result.algorithm))
        .collect()
}

/// The checks behind [`check_result`], over a raw pair list (which, unlike
/// an `AssignmentSet`, can hold a duplicate task).
pub fn check_pairs(
    stream: &EventStream,
    velocity: f64,
    wait_in_place: bool,
    pairs: &[Assignment],
    total_payoff: f64,
) -> Vec<String> {
    let workers = stream.workers();
    let tasks = stream.tasks();
    let mut failures = Vec::new();
    let mut load = vec![0u32; workers.len()];
    let mut served = vec![false; tasks.len()];
    let mut payoff = 0.0f64;
    for a in pairs {
        let (Some(w), Some(r)) = (workers.get(a.worker.index()), tasks.get(a.task.index())) else {
            failures.push(format!("pair {:?} names an id the trace does not hold", a));
            continue;
        };
        payoff += r.payoff;
        load[a.worker.index()] += 1;
        if load[a.worker.index()] == w.capacity + 1 {
            failures.push(format!("worker {} serves more than its capacity {}", w.id, w.capacity));
        }
        if std::mem::replace(&mut served[a.task.index()], true) {
            failures.push(format!("task {} is assigned twice", r.id));
        }
        let t = a.assigned_at;
        if t < w.start || t > w.deadline() {
            failures.push(format!(
                "worker {} is not alive at {t} (alive {}..{})",
                w.id,
                w.start,
                w.deadline()
            ));
        }
        if t < r.release || t > r.deadline() {
            failures.push(format!(
                "task {} is not pending at {t} (pending {}..{})",
                r.id,
                r.release,
                r.deadline()
            ));
        }
        let travel = w.location.travel_time(&r.location, velocity);
        // Wait in place: the worker leaves its own location at `t`.
        // Flexible: it may have moved towards the task since it appeared.
        let departure = if wait_in_place { t } else { w.start };
        if departure + travel > r.deadline() {
            failures.push(format!(
                "worker {} cannot reach task {} by {} (departs {departure}, travels {travel})",
                w.id,
                r.id,
                r.deadline()
            ));
        }
    }
    if payoff.to_bits() != total_payoff.to_bits() {
        failures.push(format!(
            "total_payoff {total_payoff} differs from the trace payoffs summed in assignment \
             order ({payoff})"
        ));
    }
    if failures.len() > MAX_REPORTED {
        let more = failures.len() - MAX_REPORTED;
        failures.truncate(MAX_REPORTED);
        failures.push(format!("... and {more} more"));
    }
    failures
}

/// Do two utilities agree bit for bit? Replays are deterministic, so any
/// difference between repetitions or passes is a failure.
pub fn same_utility(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_core::EngineStats;
    use ftoa_types::{
        AssignmentSet, Location, Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId,
    };
    use std::time::Duration;

    const VELOCITY: f64 = 1.0;

    /// Two workers (the second with capacity 2) and three tasks; every task
    /// is one unit from worker 0's or worker 1's spot.
    fn stream() -> EventStream {
        let worker = |i: usize, x: f64, capacity: u32| {
            Worker::new(
                WorkerId(i),
                Location::new(x, 0.0),
                TimeStamp::minutes(0.0),
                TimeDelta::minutes(10.0),
            )
            .with_capacity(capacity)
        };
        let task = |i: usize, x: f64, payoff: f64| {
            Task::new(
                TaskId(i),
                Location::new(x, 1.0),
                TimeStamp::minutes(1.0),
                TimeDelta::minutes(5.0),
            )
            .with_payoff(payoff)
        };
        EventStream::new(
            vec![worker(0, 0.0, 1), worker(1, 50.0, 2)],
            vec![task(0, 0.0, 0.1), task(1, 50.0, 0.2), task(2, 50.0, 0.3)],
        )
    }

    fn pair(worker: usize, task: usize, at: f64) -> Assignment {
        Assignment::new(WorkerId(worker), TaskId(task), TimeStamp::minutes(at))
    }

    fn result(pairs: &[Assignment], total_payoff: f64) -> AlgorithmResult {
        let mut assignments = AssignmentSet::new();
        for &a in pairs {
            assignments.push_with_capacity(a, u32::MAX).expect("distinct tasks");
        }
        AlgorithmResult {
            algorithm: "test".into(),
            assignments,
            total_payoff,
            preprocessing: Duration::ZERO,
            runtime: Duration::ZERO,
            memory_bytes: 0,
            stats: EngineStats::default(),
        }
    }

    /// Worker 0 serves task 0, worker 1 serves tasks 1 and 2.
    fn valid() -> Vec<Assignment> {
        vec![pair(0, 0, 1.0), pair(1, 1, 2.0), pair(1, 2, 2.0)]
    }

    fn valid_payoff() -> f64 {
        0.1 + 0.2 + 0.3
    }

    fn failures(pairs: &[Assignment], payoff: f64) -> Vec<String> {
        check_result(&stream(), VELOCITY, true, &result(pairs, payoff))
    }

    #[test]
    fn a_valid_result_passes() {
        assert_eq!(failures(&valid(), valid_payoff()), Vec::<String>::new());
    }

    #[test]
    fn unreachable_pair_fires() {
        // Worker 0 is 50 units from task 1: 50 minutes of travel, 5 of patience.
        let mut pairs = valid();
        pairs[1] = pair(0, 1, 2.0);
        pairs.remove(0);
        let f = failures(&pairs, 0.2 + 0.3);
        assert!(f.iter().any(|m| m.contains("cannot reach")), "{f:?}");
    }

    #[test]
    fn wait_in_place_is_stricter_than_flexible() {
        // Assigned at t = 5.5: one unit of travel lands after the deadline 6
        // from the worker's own spot, but a worker that pre-moved from t = 0
        // is already there.
        let pairs = [pair(0, 0, 5.5)];
        let late = result(&pairs, 0.1);
        let strict = check_result(&stream(), VELOCITY, true, &late);
        assert!(strict.iter().any(|m| m.contains("cannot reach")), "{strict:?}");
        assert!(check_result(&stream(), VELOCITY, false, &late).is_empty());
    }

    #[test]
    fn assignment_outside_the_lifetimes_fires() {
        let early = failures(&[pair(0, 0, 0.5)], 0.1);
        assert!(early.iter().any(|m| m.contains("task r0 is not pending")), "{early:?}");
        let late = failures(&[pair(0, 0, 11.0)], 0.1);
        assert!(late.iter().any(|m| m.contains("worker w0 is not alive")), "{late:?}");
    }

    #[test]
    fn capacity_overrun_fires() {
        // Worker 0 has capacity 1 but serves two tasks.
        let pairs = [pair(0, 0, 1.0), pair(0, 1, 1.0)];
        let f = check_pairs(&stream(), 100.0, true, &pairs, 0.1 + 0.2);
        assert!(f.iter().any(|m| m.contains("more than its capacity 1")), "{f:?}");
    }

    #[test]
    fn duplicate_task_fires() {
        // An AssignmentSet refuses the duplicate, so feed the raw pairs.
        let pairs = [pair(1, 1, 2.0), pair(1, 1, 2.0)];
        let f = check_pairs(&stream(), VELOCITY, true, &pairs, 0.2 + 0.2);
        assert!(f.iter().any(|m| m.contains("task r1 is assigned twice")), "{f:?}");
    }

    #[test]
    fn payoff_mismatch_fires_at_one_ulp() {
        let off = f64::from_bits(valid_payoff().to_bits() + 1);
        let f = failures(&valid(), off);
        assert!(f.iter().any(|m| m.contains("total_payoff")), "{f:?}");
        // Summed in another order, the same payoffs differ in the last bit:
        // the check pins assignment order, not just the multiset.
        assert_ne!((0.3 + 0.2 + 0.1f64).to_bits(), valid_payoff().to_bits());
        let f = failures(&valid(), 0.3 + 0.2 + 0.1);
        assert!(f.iter().any(|m| m.contains("total_payoff")), "{f:?}");
    }

    #[test]
    fn unknown_id_fires() {
        let f = failures(&[pair(7, 0, 1.0)], 0.0);
        assert!(f.iter().any(|m| m.contains("does not hold")), "{f:?}");
    }

    #[test]
    fn utility_comparison_is_bitwise() {
        assert!(same_utility(0.1 + 0.2, 0.1 + 0.2));
        assert!(!same_utility(0.1 + 0.2, 0.3));
    }
}
