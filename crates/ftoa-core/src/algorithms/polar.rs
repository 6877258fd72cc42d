//! POLAR (Algorithm 2): Prediction-oriented OnLine task Assignment in
//! Real-time spatial data.
//!
//! Every arriving real object *occupies* an unoccupied guide node of its
//! `(slot, cell)` type (at most one object per node; objects that find no
//! free node are ignored). If the occupied node is matched in the offline
//! guide and its partner node is already occupied, the two real objects are
//! assigned to each other; otherwise a worker is dispatched towards the area
//! of its partner node (to be ready for the predicted future task) and a task
//! simply waits until its deadline. Each arrival is processed in `O(1)` time,
//! so [`PolarPolicy`] never queries the engine's candidate indexes — the
//! guide *is* its index.
//!
//! The theoretical analysis (Lemmas 1–2) assumes every guide-matched pair is
//! feasible in reality. By default this implementation *verifies* real
//! feasibility at assignment time using the worker movement model — workers
//! guided to an area can only serve a task if they can physically reach it
//! before its deadline — which makes the reported matching sizes honest;
//! set [`Polar::strict_feasibility`] to `false` to reproduce the idealised
//! accounting of the analysis.

use crate::algorithms::OnlineAlgorithm;
use crate::engine::clock::Stopwatch;
use crate::engine::context::{AssignmentDecision, EngineContext};
use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::guide::{GuideObjective, OfflineGuide};
use crate::instance::Instance;
use crate::memory::vec_bytes;
use crate::movement::WorkerPlan;
use crate::result::AlgorithmResult;
use ftoa_types::{Task, TimeStamp, TypeKey, Worker};
use std::ops::Range;

/// The POLAR algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Polar {
    /// Objective of the offline guide.
    pub objective: GuideObjective,
    /// Verify real-world feasibility before committing an assignment.
    pub strict_feasibility: bool,
}

impl Default for Polar {
    fn default() -> Self {
        Self { objective: GuideObjective::MaxCardinality, strict_feasibility: true }
    }
}

impl Polar {
    /// The incremental policy implementing POLAR against a pre-built guide.
    pub fn policy<'g>(&self, instance: &Instance<'_>, guide: &'g OfflineGuide) -> PolarPolicy<'g> {
        PolarPolicy {
            strict_feasibility: self.strict_feasibility,
            guide,
            worker_occupant: vec![None; guide.num_worker_nodes()],
            task_occupant: vec![None; guide.num_task_nodes()],
            cursor_w: vec![0; guide.num_types()],
            cursor_r: vec![0; guide.num_types()],
            plans: vec![None; instance.stream.num_workers()],
        }
    }

    /// Run POLAR against a pre-built offline guide (lets callers share one
    /// guide between POLAR and POLAR-OP; the paper excludes guide
    /// construction from the online running time).
    pub fn run_with_guide(&self, instance: &Instance<'_>, guide: &OfflineGuide) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy(instance, guide))
    }
}

/// Per-event decision logic of POLAR.
pub struct PolarPolicy<'g> {
    strict_feasibility: bool,
    guide: &'g OfflineGuide,
    worker_occupant: Vec<Option<usize>>,
    task_occupant: Vec<Option<usize>>,
    /// Per dense type index: how many of the type's nodes are occupied.
    cursor_w: Vec<usize>,
    cursor_r: Vec<usize>,
    plans: Vec<Option<WorkerPlan>>,
}

impl PolarPolicy<'_> {
    fn try_assign(
        &self,
        ctx: &mut EngineContext<'_>,
        worker: &Worker,
        plan: &WorkerPlan,
        task: &Task,
        now: TimeStamp,
    ) {
        if ctx.assignments().worker_matched(worker.id) || ctx.assignments().task_matched(task.id) {
            return;
        }
        let feasible = !self.strict_feasibility
            || plan.can_reach(
                now,
                worker.deadline(),
                &task.location,
                task.deadline(),
                ctx.velocity(),
            );
        if feasible {
            ctx.commit(AssignmentDecision::new(worker.id, task.id));
        }
    }
}

impl OnlinePolicy for PolarPolicy<'_> {
    fn name(&self) -> &'static str {
        "POLAR"
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
        let now = ctx.now();
        let key = object_key(ctx.config, now, &w.location);
        let nodes = self.guide.worker_nodes_of_type(key);
        let Some(node) = occupy(&mut self.cursor_w, self.guide.type_index(key), nodes) else {
            // Prediction under-estimated this type: the worker is ignored by
            // POLAR (Algorithm 2, line 3 comment).
            return;
        };
        self.worker_occupant[node] = Some(w.id.index());
        match self.guide.worker_nodes()[node].partner {
            None => {
                self.plans[w.id.index()] = Some(WorkerPlan::wait(w));
            }
            Some(r_node) => {
                if let Some(task_idx) = self.task_occupant[r_node] {
                    // The predicted task has already arrived and is waiting:
                    // assign immediately.
                    let plan = WorkerPlan::wait(w);
                    self.plans[w.id.index()] = Some(plan);
                    let task = ctx.stream.tasks()[task_idx];
                    self.try_assign(ctx, w, &plan, &task, now);
                } else {
                    // Dispatch the worker to the area of the predicted
                    // partner task.
                    let target_key = self.guide.task_nodes()[r_node].key;
                    let target = ctx.config.grid.cell_center(target_key.cell);
                    self.plans[w.id.index()] =
                        Some(WorkerPlan::move_to(w, target, w.start, ctx.velocity()));
                }
            }
        }
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
        let now = ctx.now();
        let key = object_key(ctx.config, now, &r.location);
        let nodes = self.guide.task_nodes_of_type(key);
        let Some(node) = occupy(&mut self.cursor_r, self.guide.type_index(key), nodes) else {
            return;
        };
        self.task_occupant[node] = Some(r.id.index());
        if let Some(w_node) = self.guide.task_nodes()[node].partner {
            if let Some(worker_idx) = self.worker_occupant[w_node] {
                let worker = ctx.stream.workers()[worker_idx];
                if let Some(plan) = self.plans[worker_idx] {
                    self.try_assign(ctx, &worker, &plan, r, now);
                }
            }
        }
        // Otherwise the task waits until its deadline (line 13).
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        // POLAR's own structures dominate its footprint (it never pools
        // objects in the engine's candidate indexes).
        ctx.memory_mut().allocate(
            self.guide.memory_bytes()
                + vec_bytes::<Option<usize>>(self.worker_occupant.len() + self.task_occupant.len())
                + vec_bytes::<Option<WorkerPlan>>(self.plans.len())
                + vec_bytes::<usize>(self.cursor_w.len() + self.cursor_r.len()),
        );
    }
}

impl OnlineAlgorithm for Polar {
    fn name(&self) -> &'static str {
        "POLAR"
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

/// The next unoccupied node among a type's `nodes`, advancing the type's
/// cursor, or `None` when every node of the type is occupied.
fn occupy(cursors: &mut [usize], type_index: usize, nodes: Range<usize>) -> Option<usize> {
    let cur = cursors.get_mut(type_index)?;
    let node = nodes.start + *cur;
    if node >= nodes.end {
        return None;
    }
    *cur += 1;
    Some(node)
}

/// The `(slot, cell)` type of a real object.
pub(crate) fn object_key(
    config: &ftoa_types::ProblemConfig,
    time: TimeStamp,
    location: &ftoa_types::Location,
) -> TypeKey {
    TypeKey::new(config.slots.slot_of(time), config.grid.cell_of(location))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::example1;
    use crate::algorithms::{Opt, SimpleGreedy};
    use crate::instance::Instance;

    fn example_instance() -> (ftoa_types::ProblemConfig, ftoa_types::EventStream) {
        (example1::config(), example1::stream())
    }

    #[test]
    fn paper_example_polar_achieves_four() {
        let (config, stream) = example_instance();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = Polar::default().run(&instance);
        // Example 5 of the paper: POLAR reaches a matching size of 4 on the
        // running example (with realistic movement feasibility).
        assert_eq!(result.matching_size(), 4);
        assert!(result
            .assignments
            .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
            .is_ok());
    }

    #[test]
    fn polar_beats_simple_greedy_and_is_bounded_by_opt_on_the_example() {
        let (config, stream) = example_instance();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let polar = Polar::default().run(&instance).matching_size();
        let greedy = SimpleGreedy.run(&instance).matching_size();
        let opt = Opt.run(&instance).matching_size();
        assert!(polar > greedy);
        assert!(polar <= opt);
    }

    #[test]
    fn idealised_mode_never_reports_less_than_strict_mode() {
        let (config, stream) = example_instance();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let strict = Polar::default().run(&instance).matching_size();
        let ideal =
            Polar { strict_feasibility: false, ..Polar::default() }.run(&instance).matching_size();
        assert!(ideal >= strict);
    }

    #[test]
    fn shared_guide_produces_identical_results() {
        let (config, stream) = example_instance();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let polar = Polar::default();
        let guide = OfflineGuide::build(&config, &pw, &pt);
        let a = polar.run(&instance);
        let b = polar.run_with_guide(&instance, &guide);
        assert_eq!(a.matching_size(), b.matching_size());
        assert_eq!(a.assignments.pairs().len(), b.assignments.pairs().len());
    }

    #[test]
    fn under_prediction_makes_polar_ignore_extra_objects() {
        let (config, stream) = example_instance();
        // A prediction with only one worker and one task node in total: POLAR
        // can match at most one pair.
        let mut pw = prediction::SpatioTemporalMatrix::zeros(2, 4);
        let mut pt = prediction::SpatioTemporalMatrix::zeros(2, 4);
        pw.set(0, 2, 1.0);
        pt.set(0, 2, 1.0);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = Polar::default().run(&instance);
        assert!(result.matching_size() <= 1);
    }

    #[test]
    fn empty_guide_yields_empty_matching() {
        let (config, stream) = example_instance();
        let zero = prediction::SpatioTemporalMatrix::zeros(2, 4);
        let instance = Instance::new(&config, &stream, &zero, &zero);
        assert_eq!(Polar::default().run(&instance).matching_size(), 0);
    }
}
