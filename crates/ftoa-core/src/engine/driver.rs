//! The [`OnlinePolicy`] trait and the [`SimulationEngine`] driver.

use crate::engine::clock::Stopwatch;
use crate::engine::context::EngineContext;
use crate::engine::index::IndexBackend;
use crate::instance::Instance;
use crate::result::AlgorithmResult;
use ftoa_types::{Event, Task, TimeStamp, Worker};

/// An online task-assignment policy: the algorithm-specific reaction to each
/// event of the stream. All pool/queue/metric bookkeeping lives in the
/// engine; the policy only decides.
pub trait OnlinePolicy {
    /// Display name (becomes [`AlgorithmResult::algorithm`]).
    fn name(&self) -> &'static str;

    /// A worker appeared.
    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, worker: &Worker);

    /// A task was released.
    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, task: &Task);

    /// A pooled worker's deadline passed (it has already been removed from
    /// the pool when this is called).
    fn on_worker_expiry(&mut self, _ctx: &mut EngineContext<'_>, _worker: &Worker) {}

    /// A pooled task's deadline passed.
    fn on_task_expiry(&mut self, _ctx: &mut EngineContext<'_>, _task: &Task) {}

    /// The stream ended (flush batches, solve offline, final accounting).
    fn on_finish(&mut self, _ctx: &mut EngineContext<'_>) {}

    /// Up to which instant the engine may expire pooled objects before
    /// handing over the event at `now`. The default (`now`) removes
    /// everything whose deadline has strictly passed. Batched policies
    /// return their last unprocessed batch boundary so objects that were
    /// still alive *at the batch instant* remain visible to the flush.
    fn expiry_cutoff(&self, now: TimeStamp) -> TimeStamp {
        now
    }
}

/// The unified streaming simulation engine. See the module docs
/// ([`crate::engine`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulationEngine {
    /// Candidate-index backend used for the active pools.
    pub backend: IndexBackend,
}

impl SimulationEngine {
    /// An engine using the given backend.
    pub fn new(backend: IndexBackend) -> Self {
        Self { backend }
    }

    /// Drive `policy` over the instance's arrival stream and assemble the
    /// result (assignments, runtime, memory and
    /// [`crate::result::EngineStats`]).
    pub fn run(&self, instance: &Instance<'_>, policy: &mut dyn OnlinePolicy) -> AlgorithmResult {
        let clock = Stopwatch::start();
        let mut ctx = EngineContext::new(
            instance.config,
            instance.stream,
            self.backend,
            instance.num_workers().min(instance.num_tasks()),
        );

        for event in instance.stream.iter() {
            let now = event.time();
            ctx.set_now(now);
            let cutoff = policy.expiry_cutoff(now).min(now);
            ctx.run_expiries(cutoff, policy);
            ctx.stats_mut().events += 1;
            match event {
                Event::WorkerArrival(w) => policy.on_worker_arrival(&mut ctx, w),
                Event::TaskArrival(r) => policy.on_task_arrival(&mut ctx, r),
            }
        }
        policy.on_finish(&mut ctx);

        let (assignments, memory_bytes, stats, total_payoff) = ctx.finish();
        AlgorithmResult {
            algorithm: policy.name().to_string(),
            assignments,
            total_payoff,
            preprocessing: std::time::Duration::ZERO,
            runtime: clock.elapsed(),
            memory_bytes,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_types::{
        EventStream, GridPartition, Location, ProblemConfig, SlotPartition, TaskId, TimeDelta,
        WorkerId,
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

    fn task(i: usize, x: f64, y: f64, t: f64) -> Task {
        Task::new(TaskId(i), Location::new(x, y), TimeStamp::minutes(t), TimeDelta::minutes(5.0))
    }

    struct CountingPolicy {
        arrivals: usize,
        expiries: usize,
        finished: bool,
    }

    impl OnlinePolicy for CountingPolicy {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
            self.arrivals += 1;
            ctx.admit_worker(w);
        }
        fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
            self.arrivals += 1;
            ctx.admit_task(r);
        }
        fn on_worker_expiry(&mut self, _ctx: &mut EngineContext<'_>, _w: &Worker) {
            self.expiries += 1;
        }
        fn on_task_expiry(&mut self, _ctx: &mut EngineContext<'_>, _r: &Task) {
            self.expiries += 1;
        }
        fn on_finish(&mut self, _ctx: &mut EngineContext<'_>) {
            self.finished = true;
        }
    }

    #[test]
    fn engine_drives_arrivals_and_expiries_in_order() {
        let cfg = config();
        // Worker at t=0 (deadline 10), task at t=3 (deadline 8), and a late
        // worker at t=20 by which time both earlier objects have expired.
        let stream = EventStream::new(
            vec![worker(0, 1.0, 1.0, 0.0), worker(0, 2.0, 2.0, 20.0)],
            vec![task(0, 5.0, 5.0, 3.0)],
        );
        let pw = prediction::SpatioTemporalMatrix::zeros(4, 25);
        let instance = Instance::new(&cfg, &stream, &pw, &pw);
        let mut policy = CountingPolicy { arrivals: 0, expiries: 0, finished: false };
        let result = SimulationEngine::new(IndexBackend::Grid).run(&instance, &mut policy);
        assert_eq!(policy.arrivals, 3);
        assert_eq!(policy.expiries, 2, "first worker and the task expire before t=20");
        assert!(policy.finished);
        assert_eq!(result.stats.events, 3);
        assert_eq!(result.stats.expired_workers, 1);
        assert_eq!(result.stats.expired_tasks, 1);
        assert_eq!(result.stats.backend, "grid-index");
    }

    #[test]
    fn assign_removes_both_sides_from_pools() {
        let cfg = config();
        let stream = EventStream::new(vec![worker(0, 1.0, 1.0, 0.0)], vec![task(0, 1.5, 1.0, 1.0)]);
        let pw = prediction::SpatioTemporalMatrix::zeros(4, 25);
        let instance = Instance::new(&cfg, &stream, &pw, &pw);

        struct AssignOnce;
        impl OnlinePolicy for AssignOnce {
            fn name(&self) -> &'static str {
                "assign-once"
            }
            fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
                ctx.admit_worker(w);
            }
            fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
                let mut pool = ctx.idle_workers();
                let found = pool
                    .nearest_within(&r.location, f64::INFINITY, &mut |_| true)
                    .map(|c| pool.get(c.handle).expect("fresh handle").id);
                if let Some(worker_id) = found {
                    ctx.commit(crate::engine::context::AssignmentDecision::new(worker_id, r.id));
                }
            }
        }
        let result = SimulationEngine::default().run(&instance, &mut AssignOnce);
        assert_eq!(result.matching_size(), 1);
        assert_eq!(result.total_payoff, 1.0, "unit weights: payoff == matching size");
        assert_eq!(result.assignments.pairs()[0].assigned_at, TimeStamp::minutes(1.0));
    }

    /// The same tiny scenario must drive identically through every backend.
    #[test]
    fn every_backend_runs_the_counting_policy_identically() {
        let cfg = config();
        let stream = EventStream::new(
            vec![worker(0, 1.0, 1.0, 0.0), worker(1, 8.0, 8.0, 2.0)],
            vec![task(0, 5.0, 5.0, 3.0), task(1, 2.0, 2.0, 25.0)],
        );
        let pw = prediction::SpatioTemporalMatrix::zeros(4, 25);
        let instance = Instance::new(&cfg, &stream, &pw, &pw);
        for backend in IndexBackend::ALL {
            let mut policy = CountingPolicy { arrivals: 0, expiries: 0, finished: false };
            let result = SimulationEngine::new(backend).run(&instance, &mut policy);
            assert_eq!(policy.arrivals, 4, "{}", backend.name());
            assert_eq!(result.stats.events, 4, "{}", backend.name());
            assert_eq!(result.stats.backend, backend.name());
        }
    }
}
