//! SimpleGreedy (Section 2.2): the baseline extended from the wait-in-place
//! online model.
//!
//! For every newly arrived object (worker or task) it asks the engine's
//! candidate index for the nearest available object of the other side that
//! satisfies the deadline constraint, and assigns it. Unmatched workers wait
//! at their appearance location; unmatched tasks wait until their deadline.
//! All pool and expiry bookkeeping lives in the
//! [`crate::engine::driver::SimulationEngine`]; this module only contains the
//! per-event greedy decision ([`GreedyPolicy`]).

use crate::algorithms::OnlineAlgorithm;
use crate::engine::context::{AssignmentDecision, EngineContext};
use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::instance::Instance;
use crate::result::AlgorithmResult;
use ftoa_types::{Task, TimeStamp, Worker};

/// The SimpleGreedy baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimpleGreedy;

impl SimpleGreedy {
    /// The incremental policy implementing SimpleGreedy on the engine.
    pub fn policy(&self) -> GreedyPolicy {
        GreedyPolicy::default()
    }
}

/// Per-event decision logic of SimpleGreedy.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPolicy {
    /// Largest patience among the tasks that have arrived: bounds the
    /// reachable disk of worker-arrival queries, since every pending task
    /// has arrived, was released no later than `now` and therefore expires
    /// within `max_patience` of it.
    max_patience: ftoa_types::TimeDelta,
}

impl OnlinePolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "SimpleGreedy"
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
        let now = ctx.now();
        let velocity = ctx.velocity();
        // Nearest pending task this worker can still reach in time. A worker
        // with zero waiting time is already past its (strict) deadline. Any
        // feasible pending task lies within `v · max_patience` of the worker
        // (its deadline is at most `now + max_patience`), so the search is
        // bounded to that disk.
        let radius = velocity * self.max_patience.as_minutes();
        let found = if now < w.deadline() {
            let origin = w.location;
            ctx.pending_tasks().nearest_within(&origin, radius, &mut |task| {
                task_still_feasible(task, &origin, now, velocity)
            })
        } else {
            None
        };
        if let Some(candidate) = found {
            let task = ctx.claim_task(candidate.handle).expect("candidate came from the pool");
            ctx.commit(AssignmentDecision::new(w.id, task.id));
        } else {
            ctx.admit_worker(w);
        }
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
        self.max_patience = self.max_patience.max(r.patience);
        let now = ctx.now();
        let velocity = ctx.velocity();
        // A serving worker must depart now and arrive by the task deadline:
        // it lies inside the task's reachable disk at `now`.
        let radius = r.reach_radius_at(now, velocity);
        let found = ctx.idle_workers().nearest_within(&r.location, radius, &mut |worker| {
            worker_can_serve_now(worker, r, now, velocity)
        });
        if let Some(candidate) = found {
            let worker = ctx.claim_worker(candidate.handle).expect("candidate came from the pool");
            ctx.commit(AssignmentDecision::new(worker.id, r.id));
        } else {
            ctx.admit_task(r);
        }
    }
}

impl OnlineAlgorithm for SimpleGreedy {
    fn name(&self) -> &'static str {
        "SimpleGreedy"
    }

    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy())
    }
}

/// A waiting worker (wait-in-place model) can serve a newly released task if
/// it has not left the platform and can reach the task before its deadline,
/// departing now from where it waits.
fn worker_can_serve_now(worker: &Worker, task: &Task, now: TimeStamp, velocity: f64) -> bool {
    if now > worker.deadline() {
        return false;
    }
    now + worker.location.travel_time(&task.location, velocity) <= task.deadline()
}

/// A pending task is still feasible for a newly arrived worker if its
/// deadline allows the worker to travel there starting now.
fn task_still_feasible(
    task: &Task,
    worker_loc: &ftoa_types::Location,
    now: TimeStamp,
    velocity: f64,
) -> bool {
    now + worker_loc.travel_time(&task.location, velocity) <= task.deadline()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::example1;
    use crate::engine::index::IndexBackend;
    use crate::instance::Instance;

    #[test]
    fn paper_example_yields_two_assignments() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = SimpleGreedy.run(&instance);
        // Example 2 of the paper: the wait-in-place greedy only serves the
        // two tasks released near the initial workers.
        assert_eq!(result.matching_size(), 2);
        assert!(result
            .assignments
            .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
            .is_ok());
    }

    #[test]
    fn assignments_satisfy_the_static_model() {
        // SimpleGreedy never moves workers in advance, so its matching must
        // also be valid under the stricter wait-in-place validation.
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = SimpleGreedy.run(&instance);
        assert!(result
            .assignments
            .validate_static(stream.workers(), stream.tasks(), config.velocity)
            .is_ok());
    }

    #[test]
    fn both_index_backends_serve_the_same_number_of_tasks() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let linear = SimulationEngine::new(IndexBackend::LinearScan)
            .run(&instance, &mut GreedyPolicy::default());
        let grid =
            SimulationEngine::new(IndexBackend::Grid).run(&instance, &mut GreedyPolicy::default());
        assert_eq!(linear.matching_size(), grid.matching_size());
        assert_eq!(linear.stats.backend, "linear-scan");
        assert_eq!(grid.stats.backend, "grid-index");
    }

    #[test]
    fn empty_stream_gives_empty_result() {
        let config = example1::config();
        let stream = ftoa_types::EventStream::new(vec![], vec![]);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = SimpleGreedy.run(&instance);
        assert_eq!(result.matching_size(), 0);
        assert!(result.memory_bytes > 0);
    }

    #[test]
    fn worker_arriving_after_task_can_still_serve_it() {
        use ftoa_types::{Location, Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId};
        let config = example1::config();
        // Task released at t=0 with 2 min patience; worker appears at t=1
        // right next to it.
        let tasks = vec![Task::new(
            TaskId(0),
            Location::new(1.0, 1.0),
            TimeStamp::minutes(0.0),
            TimeDelta::minutes(2.0),
        )];
        let workers = vec![Worker::new(
            WorkerId(0),
            Location::new(1.5, 1.0),
            TimeStamp::minutes(1.0),
            TimeDelta::minutes(30.0),
        )];
        let stream = ftoa_types::EventStream::new(workers, tasks);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        assert_eq!(SimpleGreedy.run(&instance).matching_size(), 1);
    }

    #[test]
    fn expired_tasks_are_never_assigned() {
        use ftoa_types::{Location, Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId};
        let config = example1::config();
        let tasks = vec![Task::new(
            TaskId(0),
            Location::new(1.0, 1.0),
            TimeStamp::minutes(0.0),
            TimeDelta::minutes(1.0),
        )];
        // Worker appears long after the task deadline.
        let workers = vec![Worker::new(
            WorkerId(0),
            Location::new(1.0, 1.0),
            TimeStamp::minutes(5.0),
            TimeDelta::minutes(30.0),
        )];
        let stream = ftoa_types::EventStream::new(workers, tasks);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = SimpleGreedy.run(&instance);
        assert_eq!(result.matching_size(), 0);
        // The engine's expiry queue removed the task before the worker event.
        assert_eq!(result.stats.expired_tasks, 1);
    }
}
