//! POLAR-OP (Algorithm 3): POLAR with node reuse.
//!
//! The only difference to POLAR is that a guide node can be *associated* with
//! multiple real objects instead of being occupied by at most one. When the
//! offline prediction under-estimates a type, the surplus real objects are
//! associated with the existing nodes of that type and can still be matched
//! through the node's guide partner, which is what lifts the competitive
//! ratio from `(1 − 1/e)² ≈ 0.40` to `≈ 0.47` (Lemma 3 / Theorem 2).
//!
//! As in [`super::polar::Polar`], real-world feasibility is verified at
//! assignment time by default. Like POLAR, the policy never queries the
//! engine's candidate indexes; the engine still owns stream iteration,
//! timing and accounting. An arrival costs `O(1)` apart from scanning the
//! one waiting list of its partner node: the node is picked from dense
//! per-type tables, and the waiting totals behind `peak_waiting` are running
//! counts, adjusted by exactly the entries each push or scan adds or drops.

use crate::algorithms::polar::object_key;
use crate::algorithms::OnlineAlgorithm;
use crate::engine::clock::Stopwatch;
use crate::engine::context::{AssignmentDecision, EngineContext};
use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::guide::{GuideNode, GuideObjective, OfflineGuide};
use crate::instance::Instance;
use crate::memory::vec_bytes;
use crate::movement::WorkerPlan;
use crate::result::AlgorithmResult;
use ftoa_types::{Task, Worker};
use std::ops::Range;

/// The POLAR-OP algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolarOp {
    /// Objective of the offline guide.
    pub objective: GuideObjective,
    /// Verify real-world feasibility before committing an assignment.
    pub strict_feasibility: bool,
}

impl Default for PolarOp {
    fn default() -> Self {
        Self { objective: GuideObjective::MaxCardinality, strict_feasibility: true }
    }
}

impl PolarOp {
    /// The incremental policy implementing POLAR-OP against a pre-built
    /// guide.
    pub fn policy<'g>(
        &self,
        instance: &Instance<'_>,
        guide: &'g OfflineGuide,
    ) -> PolarOpPolicy<'g> {
        PolarOpPolicy {
            strict_feasibility: self.strict_feasibility,
            guide,
            matched_w: MatchedNodes::new(guide, guide.worker_nodes()),
            matched_r: MatchedNodes::new(guide, guide.task_nodes()),
            waiting_workers_at: vec![Vec::new(); guide.num_worker_nodes()],
            waiting_tasks_at: vec![Vec::new(); guide.num_task_nodes()],
            waiting_workers: 0,
            waiting_tasks: 0,
            plans: vec![None; instance.stream.num_workers()],
            peak_waiting: 0,
        }
    }

    /// Run POLAR-OP against a pre-built offline guide.
    pub fn run_with_guide(&self, instance: &Instance<'_>, guide: &OfflineGuide) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy(instance, guide))
    }
}

/// Per-event decision logic of POLAR-OP.
pub struct PolarOpPolicy<'g> {
    strict_feasibility: bool,
    guide: &'g OfflineGuide,
    matched_w: MatchedNodes,
    matched_r: MatchedNodes,
    /// Unmatched real objects currently associated with each node.
    waiting_workers_at: Vec<Vec<usize>>,
    waiting_tasks_at: Vec<Vec<usize>>,
    /// Running totals of the two waiting lists above.
    waiting_workers: usize,
    waiting_tasks: usize,
    plans: Vec<Option<WorkerPlan>>,
    peak_waiting: usize,
}

impl OnlinePolicy for PolarOpPolicy<'_> {
    fn name(&self) -> &'static str {
        "POLAR-OP"
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
        let now = ctx.now();
        let velocity = ctx.velocity();
        let key = object_key(ctx.config, now, &w.location);
        let nodes = self.guide.worker_nodes_of_type(key);
        let Some(node) = self.matched_w.pick(self.guide.type_index(key), nodes) else {
            // No matched node of this type exists: the worker can never be
            // assigned through the guide; it waits in place (and, like in
            // POLAR, is effectively ignored).
            self.plans[w.id.index()] = Some(WorkerPlan::wait(w));
            return;
        };
        let r_node = self.guide.worker_nodes()[node].partner.expect("only matched nodes picked");
        // Any unmatched task already associated with the partner?
        let plan_here = WorkerPlan::wait(w);
        let strict = self.strict_feasibility;
        let assignments = ctx.assignments();
        let stream = ctx.stream;
        let waiting = &mut self.waiting_tasks_at[r_node];
        let before = waiting.len();
        let picked = take_first_feasible(
            waiting,
            |&task_idx| {
                let task = &stream.tasks()[task_idx];
                !assignments.task_matched(task.id)
                    && (!strict
                        || plan_here.can_reach(
                            now,
                            w.deadline(),
                            &task.location,
                            task.deadline(),
                            velocity,
                        ))
            },
            |&task_idx| stream.tasks()[task_idx].deadline() < now,
        );
        self.waiting_tasks -= before - waiting.len();
        if let Some(task_idx) = picked {
            self.plans[w.id.index()] = Some(plan_here);
            ctx.commit(AssignmentDecision::new(w.id, stream.tasks()[task_idx].id));
        } else {
            // Dispatch towards the partner's area and wait there.
            let target_key = self.guide.task_nodes()[r_node].key;
            let target = ctx.config.grid.cell_center(target_key.cell);
            self.plans[w.id.index()] = Some(WorkerPlan::move_to(w, target, w.start, velocity));
            self.waiting_workers_at[node].push(w.id.index());
            self.waiting_workers += 1;
            self.peak_waiting = self.peak_waiting.max(self.waiting_workers);
        }
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
        let now = ctx.now();
        let velocity = ctx.velocity();
        let key = object_key(ctx.config, now, &r.location);
        let nodes = self.guide.task_nodes_of_type(key);
        let Some(node) = self.matched_r.pick(self.guide.type_index(key), nodes) else {
            return;
        };
        let w_node = self.guide.task_nodes()[node].partner.expect("only matched nodes picked");
        let strict = self.strict_feasibility;
        let assignments = ctx.assignments();
        let stream = ctx.stream;
        let plans = &self.plans;
        let waiting = &mut self.waiting_workers_at[w_node];
        let before = waiting.len();
        let picked = take_first_feasible(
            waiting,
            |&worker_idx| {
                let worker = &stream.workers()[worker_idx];
                let plan = plans[worker_idx].unwrap_or(WorkerPlan::wait(worker));
                !assignments.worker_matched(worker.id)
                    && (!strict
                        || plan.can_reach(
                            now,
                            worker.deadline(),
                            &r.location,
                            r.deadline(),
                            velocity,
                        ))
            },
            |&worker_idx| stream.workers()[worker_idx].deadline() < now,
        );
        self.waiting_workers -= before - waiting.len();
        if let Some(worker_idx) = picked {
            ctx.commit(AssignmentDecision::new(stream.workers()[worker_idx].id, r.id));
        } else {
            self.waiting_tasks_at[node].push(r.id.index());
            self.waiting_tasks += 1;
            self.peak_waiting = self.peak_waiting.max(self.waiting_tasks);
        }
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        ctx.memory_mut().allocate(
            self.guide.memory_bytes()
                + vec_bytes::<Vec<usize>>(
                    self.waiting_workers_at.len() + self.waiting_tasks_at.len(),
                )
                + vec_bytes::<usize>(self.peak_waiting)
                + vec_bytes::<Option<WorkerPlan>>(self.plans.len())
                + self.matched_w.memory_bytes()
                + self.matched_r.memory_bytes(),
        );
    }
}

impl OnlineAlgorithm for PolarOp {
    fn name(&self) -> &'static str {
        "POLAR-OP"
    }

    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult {
        let pre_start = Stopwatch::start();
        let guide = OfflineGuide::build_with(
            instance.config,
            instance.predicted_workers,
            instance.predicted_tasks,
            self.objective,
        );
        let preprocessing = pre_start.elapsed();
        let mut result = self.run_with_guide(instance, &guide);
        result.preprocessing = preprocessing;
        result
    }
}

/// One side's matched guide nodes, reused round-robin, per dense type index.
struct MatchedNodes {
    /// How many nodes of each type have a guide partner: the guide fills a
    /// type's partners front to back, so these are a prefix of its range.
    count: Vec<usize>,
    /// Round-robin cursor of each type.
    cursor: Vec<usize>,
}

impl MatchedNodes {
    fn new(guide: &OfflineGuide, nodes: &[GuideNode]) -> Self {
        let mut count = vec![0; guide.num_types()];
        for node in nodes.iter().filter(|n| n.partner.is_some()) {
            count[guide.type_index(node.key)] += 1;
        }
        Self { cursor: vec![0; count.len()], count }
    }

    /// The next matched node of type `t`, whose nodes are `nodes`, in
    /// round-robin order, or `None` when the type has no matched node.
    fn pick(&mut self, t: usize, nodes: Range<usize>) -> Option<usize> {
        let matched = *self.count.get(t)?;
        if matched == 0 {
            return None;
        }
        let cur = &mut self.cursor[t];
        let node = nodes.start + *cur;
        *cur = (*cur + 1) % matched;
        Some(node)
    }

    fn memory_bytes(&self) -> usize {
        vec_bytes::<usize>(self.count.len() + self.cursor.len())
    }
}

/// Remove and return the first element accepted by `feasible`, additionally
/// dropping every element accepted by `expired` along the way (lazy cleanup
/// of objects whose deadlines have passed).
fn take_first_feasible<T, F, E>(list: &mut Vec<T>, mut feasible: F, mut expired: E) -> Option<T>
where
    F: FnMut(&T) -> bool,
    E: FnMut(&T) -> bool,
{
    let mut i = 0;
    while i < list.len() {
        if expired(&list[i]) {
            list.swap_remove(i);
            continue;
        }
        if feasible(&list[i]) {
            return Some(list.swap_remove(i));
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::example1;
    use crate::algorithms::{Opt, Polar, SimpleGreedy};
    use crate::instance::Instance;

    #[test]
    fn example_polar_op_is_at_least_as_good_as_polar() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let polar = Polar::default().run(&instance).matching_size();
        let polar_op = PolarOp::default().run(&instance).matching_size();
        let opt = Opt::exact().run(&instance).matching_size();
        let greedy = SimpleGreedy.run(&instance).matching_size();
        assert!(polar_op >= polar, "POLAR-OP {polar_op} < POLAR {polar}");
        assert!(polar_op <= opt);
        assert!(polar_op > greedy);
    }

    #[test]
    fn assignments_satisfy_flexible_feasibility() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = PolarOp::default().run(&instance);
        assert!(result
            .assignments
            .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
            .is_ok());
    }

    #[test]
    fn node_reuse_recovers_from_under_prediction() {
        // Prediction sees only ONE worker and ONE task per type, but two real
        // workers and two real tasks of the same types arrive. POLAR matches
        // one pair (second objects fail to occupy); POLAR-OP reuses the node
        // and matches both.
        use ftoa_types::{Location, Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId};
        let config = example1::config();
        let workers = vec![
            Worker::new(
                WorkerId(0),
                Location::new(1.0, 1.0),
                TimeStamp::minutes(0.0),
                TimeDelta::minutes(30.0),
            ),
            Worker::new(
                WorkerId(1),
                Location::new(1.2, 1.0),
                TimeStamp::minutes(0.5),
                TimeDelta::minutes(30.0),
            ),
        ];
        let tasks = vec![
            Task::new(
                TaskId(0),
                Location::new(1.1, 1.0),
                TimeStamp::minutes(1.0),
                TimeDelta::minutes(2.0),
            ),
            Task::new(
                TaskId(1),
                Location::new(1.3, 1.0),
                TimeStamp::minutes(1.5),
                TimeDelta::minutes(2.0),
            ),
        ];
        let stream = ftoa_types::EventStream::new(workers, tasks);
        let mut pw = prediction::SpatioTemporalMatrix::zeros(2, 4);
        let mut pt = prediction::SpatioTemporalMatrix::zeros(2, 4);
        pw.set(0, 0, 1.0);
        pt.set(0, 0, 1.0);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let polar = Polar::default().run(&instance).matching_size();
        let polar_op = PolarOp::default().run(&instance).matching_size();
        assert_eq!(polar, 1);
        assert_eq!(polar_op, 2);
    }

    #[test]
    fn no_matched_nodes_means_no_assignments() {
        // A guide whose predictions make every pair infeasible (all tasks far
        // in the future) produces no matched nodes; POLAR-OP must not crash
        // and must return an empty matching.
        let config = example1::config();
        let stream = example1::stream();
        let mut pw = prediction::SpatioTemporalMatrix::zeros(2, 4);
        let mut pt = prediction::SpatioTemporalMatrix::zeros(2, 4);
        pw.set(0, 0, 3.0);
        // No predicted tasks at all.
        pt.set(0, 0, 0.0);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        assert_eq!(PolarOp::default().run(&instance).matching_size(), 0);
    }

    fn total_len(lists: &[Vec<usize>]) -> usize {
        lists.iter().map(Vec::len).sum()
    }

    /// Forwards every callback to a POLAR-OP policy and recounts its waiting
    /// lists after each one.
    struct Recount<'p, 'g> {
        inner: &'p mut PolarOpPolicy<'g>,
        /// The largest recounted total of either side after any event.
        peak: usize,
        events: usize,
        /// Expired entries dropped from the worker / task lists by a scan.
        dropped: (usize, usize),
    }

    impl Recount<'_, '_> {
        /// Recount both sides and check the running counts against them.
        fn check(&mut self) -> (usize, usize) {
            let workers = total_len(&self.inner.waiting_workers_at);
            let tasks = total_len(&self.inner.waiting_tasks_at);
            assert_eq!(self.inner.waiting_workers, workers, "after event {}", self.events);
            assert_eq!(self.inner.waiting_tasks, tasks, "after event {}", self.events);
            self.peak = self.peak.max(workers).max(tasks);
            self.events += 1;
            (workers, tasks)
        }
    }

    impl OnlinePolicy for Recount<'_, '_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
            let tasks = total_len(&self.inner.waiting_tasks_at);
            let matched = ctx.assignments().len();
            self.inner.on_worker_arrival(ctx, w);
            let picked = ctx.assignments().len() - matched;
            self.dropped.1 += tasks - self.check().1 - picked;
        }
        fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
            let workers = total_len(&self.inner.waiting_workers_at);
            let matched = ctx.assignments().len();
            self.inner.on_task_arrival(ctx, r);
            let picked = ctx.assignments().len() - matched;
            self.dropped.0 += workers - self.check().0 - picked;
        }
        fn on_worker_expiry(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
            self.inner.on_worker_expiry(ctx, w);
            self.check();
        }
        fn on_task_expiry(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
            self.inner.on_task_expiry(ctx, r);
            self.check();
        }
        fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
            self.inner.on_finish(ctx);
        }
    }

    #[test]
    fn running_waiting_counts_equal_a_recount_after_every_event() {
        let scenario = workload::SyntheticConfig {
            num_workers: 3_000,
            num_tasks: 3_000,
            grid_n: 8,
            num_slots: 24,
            dr_slots: 1.0,
            dw_slots: 0.5,
            ..Default::default()
        }
        .generate(11)
        .with_prediction_noise(0.6, 3);
        let instance = Instance::new(
            &scenario.config,
            &scenario.stream,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let guide = OfflineGuide::build(
            &scenario.config,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let mut policy = PolarOp::default().policy(&instance, &guide);
        let mut recount = Recount { inner: &mut policy, peak: 0, events: 0, dropped: (0, 0) };
        let result = SimulationEngine::default().run(&instance, &mut recount);
        let (peak, events, dropped) = (recount.peak, recount.events, recount.dropped);
        assert_eq!(events, 6_000);
        assert!(result.matching_size() > 0);
        // Both kinds of lazy cleanup happened, so the counts were checked
        // against drops as well as picks.
        assert!(dropped.0 > 0 && dropped.1 > 0, "dropped {dropped:?}");
        // Each side's total only grows by a push, so its maximum over all
        // events is the maximum right after a push: what `peak_waiting`
        // records.
        assert!(peak > 0);
        assert_eq!(policy.peak_waiting, peak);
    }

    #[test]
    fn expired_waiting_objects_are_cleaned_up_lazily() {
        let mut list = vec![1, 2, 4];
        // 1 is expired, 4 is feasible, 2 is neither.
        let taken = take_first_feasible(&mut list, |&x| x == 4, |&x| x == 1);
        assert_eq!(taken, Some(4));
        assert_eq!(list, vec![2]);
        // Nothing feasible: everything expired gets dropped, None returned.
        let mut list2 = vec![1, 3, 5];
        assert_eq!(take_first_feasible(&mut list2, |_| false, |&x| x % 2 == 1), None);
        assert!(list2.is_empty());
    }
}
