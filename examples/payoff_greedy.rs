//! Weighted greedy as a custom policy over the engine's range query.
//!
//! On a weighted stream the nearest pending task is not necessarily the most
//! valuable one. This example defines a small custom [`OnlinePolicy`] that,
//! on every worker arrival, visits the reachable pending tasks with
//! `PoolView::for_each_within` and keeps the **highest-payoff** feasible
//! one. It compares the utility that policy accrues against the
//! payoff-oblivious SimpleGreedy baseline on all four index backends, and
//! asserts that every backend produces the same assignments.
//!
//! Run with: `cargo run --release --example payoff_greedy`

use ftoa::core_algorithms::{
    AlgorithmResult, AssignmentDecision, EngineContext, IndexBackend, OnlinePolicy, SimpleGreedy,
    SimulationEngine,
};
use ftoa::types::{Assignment, Candidate, Task, TimeDelta, Worker};
use ftoa::workload::SyntheticConfig;

/// Greedy over task *payoffs*: each arriving worker grabs the most valuable
/// pending task it can still reach (ties toward the nearest); each arriving
/// task falls back to the nearest idle worker that can serve it.
#[derive(Default)]
struct PayoffGreedyPolicy {
    /// Largest patience among the tasks that have arrived, bounding the
    /// reachable disk of worker-arrival queries exactly as SimpleGreedy does.
    max_patience: TimeDelta,
}

impl OnlinePolicy for PayoffGreedyPolicy {
    fn name(&self) -> &'static str {
        "PayoffGreedy"
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
        let now = ctx.now();
        let velocity = ctx.velocity();
        let radius = velocity * self.max_patience.as_minutes();
        let mut best: Option<(Candidate, f64)> = None;
        if now < w.deadline() {
            let origin = w.location;
            // The weighted twist: argmax payoff within the reachable disk,
            // ties toward the smaller distance, and an exact tie keeps the
            // candidate the backend visited first. Feasibility is checked
            // only for candidates that would improve on the best so far.
            ctx.pending_tasks().for_each_within(&origin, radius, &mut |candidate, task| {
                let improves = best.is_none_or(|(incumbent, payoff)| {
                    task.payoff > payoff
                        || (task.payoff == payoff && candidate.dist_sq < incumbent.dist_sq)
                });
                if improves && now + origin.travel_time(&task.location, velocity) <= task.deadline()
                {
                    best = Some((candidate, task.payoff));
                }
            });
        }
        if let Some((candidate, _)) = best {
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
        let radius = r.reach_radius_at(now, velocity);
        let found = ctx.idle_workers().nearest_within(&r.location, radius, &mut |worker| {
            now <= worker.deadline()
                && now + worker.location.travel_time(&r.location, velocity) <= r.deadline()
        });
        if let Some(candidate) = found {
            let worker = ctx.claim_worker(candidate.handle).expect("candidate came from the pool");
            ctx.commit(AssignmentDecision::new(worker.id, r.id));
        } else {
            ctx.admit_task(r);
        }
    }
}

/// What must not depend on the backend: the assignment pairs, in commit
/// order, and the bits of the accrued payoff.
fn outcome(result: &AlgorithmResult) -> (Vec<Assignment>, u64) {
    (result.assignments.pairs().to_vec(), result.total_payoff.to_bits())
}

fn main() {
    // A worker-scarce weighted day: few patient workers, many pending tasks
    // with payoffs drawn from [1, 10] — so each arriving worker genuinely
    // chooses among alternatives, and value and proximity disagree often.
    let scenario = SyntheticConfig {
        num_workers: 500,
        num_tasks: 4_000,
        dr_slots: 4.0,
        task_payoff: Some((1.0, 10.0)),
        ..SyntheticConfig::default()
    }
    .generate(2017);
    let instance = ftoa::core_algorithms::Instance::new(
        &scenario.config,
        &scenario.stream,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );

    println!(
        "{:<14}{:<14}{:>10}{:>14}{:>12}",
        "policy", "backend", "matching", "total payoff", "time (ms)"
    );
    // The first backend's outcome per policy, which every other backend
    // must reproduce.
    let mut reference: Vec<(Vec<Assignment>, u64)> = Vec::new();
    for backend in IndexBackend::ALL {
        let engine = SimulationEngine::new(backend);
        let mut weighted = PayoffGreedyPolicy::default();
        let mut nearest = SimpleGreedy.policy();
        let results = [engine.run(&instance, &mut weighted), engine.run(&instance, &mut nearest)];
        for (policy, result) in results.iter().enumerate() {
            println!(
                "{:<14}{:<14}{:>10}{:>14.1}{:>12.2}",
                result.algorithm,
                result.stats.backend,
                result.matching_size(),
                result.total_payoff,
                result.runtime.as_secs_f64() * 1000.0
            );
            match reference.get(policy) {
                None => reference.push(outcome(result)),
                Some(first) => assert!(
                    outcome(result) == *first,
                    "{} on {} diverged from {} on {}",
                    result.algorithm,
                    result.stats.backend,
                    result.algorithm,
                    IndexBackend::ALL[0].name()
                ),
            }
        }
    }
    println!("\nSame matching size, substantially higher utility — and identical assignments");
    println!("and payoff bits on every backend.");
}
