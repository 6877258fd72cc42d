//! Assignments and assignment sets (the matching `M` of Definition 4).

use crate::error::TypeError;
use crate::ids::{TaskId, WorkerId};
use crate::task::Task;
use crate::time::TimeStamp;
use crate::worker::Worker;
#[allow(clippy::disallowed_types, reason = "`AssignmentSet`'s lookup-only indexes")]
use std::collections::HashMap;

/// One assigned worker–task pair, together with when the platform committed
/// to it (assignments are irrevocable — the "invariable constraint").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The assigned worker.
    pub worker: WorkerId,
    /// The assigned task.
    pub task: TaskId,
    /// The time at which the platform made the (irrevocable) assignment.
    pub assigned_at: TimeStamp,
}

impl Assignment {
    /// Create an assignment.
    pub fn new(worker: WorkerId, task: TaskId, assigned_at: TimeStamp) -> Self {
        Self { worker, task, assigned_at }
    }
}

/// A set of assignments forming a (partial) matching between workers and
/// tasks. The value of the FTOA objective, `MaxSum(M)`, is simply
/// [`AssignmentSet::len`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentSet {
    pairs: Vec<Assignment>,
    // Lookup-only indexes: all ordered traversal goes through `pairs`, which
    // preserves assignment order. The type allows below cover the fields
    // only; iterating either map still fails `clippy::iter_over_hash_type`
    // or `clippy.toml`'s banned methods. Workers map to their first
    // assignment plus their load, since a capacity-`c` worker may carry up
    // to `c` pairs.
    #[allow(clippy::disallowed_types, reason = "lookup only, never iterated")]
    by_worker: HashMap<WorkerId, (usize, u32)>,
    #[allow(clippy::disallowed_types, reason = "lookup only, never iterated")]
    by_task: HashMap<TaskId, usize>,
}

impl AssignmentSet {
    /// Create an empty assignment set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty set with capacity for `n` pairs.
    #[allow(clippy::disallowed_types, reason = "sizes the two lookup-only indexes")]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pairs: Vec::with_capacity(n),
            by_worker: HashMap::with_capacity(n),
            by_task: HashMap::with_capacity(n),
        }
    }

    /// Add an assignment under the paper's single-assignment model. Returns
    /// an error if either side is already matched (a matching assigns each
    /// worker and each task at most once).
    pub fn push(&mut self, a: Assignment) -> Result<(), TypeError> {
        self.push_with_capacity(a, 1)
    }

    /// Add an assignment for a worker that may serve up to
    /// `worker_capacity` tasks. Returns [`TypeError::DuplicateWorker`] when
    /// the worker's load has already reached that capacity, and
    /// [`TypeError::DuplicateTask`] when the task is already served (tasks
    /// are always single-assignment).
    pub fn push_with_capacity(
        &mut self,
        a: Assignment,
        worker_capacity: u32,
    ) -> Result<(), TypeError> {
        if let Some(&(_, load)) = self.by_worker.get(&a.worker) {
            if load >= worker_capacity {
                return Err(TypeError::DuplicateWorker(a.worker));
            }
        }
        if self.by_task.contains_key(&a.task) {
            return Err(TypeError::DuplicateTask(a.task));
        }
        let idx = self.pairs.len();
        self.by_worker.entry(a.worker).and_modify(|e| e.1 += 1).or_insert((idx, 1));
        self.by_task.insert(a.task, idx);
        self.pairs.push(a);
        Ok(())
    }

    /// How many tasks the worker currently serves in this matching.
    pub fn worker_load(&self, w: WorkerId) -> u32 {
        self.by_worker.get(&w).map_or(0, |&(_, load)| load)
    }

    /// The number of assigned pairs — the paper's `MaxSum(M)` objective.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is the matching empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// All assigned pairs in insertion (assignment) order.
    pub fn pairs(&self) -> &[Assignment] {
        &self.pairs
    }

    /// The (first) assignment of a given worker, if any.
    pub fn assignment_of_worker(&self, w: WorkerId) -> Option<&Assignment> {
        self.by_worker.get(&w).map(|&(i, _)| &self.pairs[i])
    }

    /// The assignment of a given task, if any.
    pub fn assignment_of_task(&self, r: TaskId) -> Option<&Assignment> {
        self.by_task.get(&r).map(|&i| &self.pairs[i])
    }

    /// Is the worker matched (serving at least one task)? Under the
    /// single-assignment model this also means the worker is saturated.
    pub fn worker_matched(&self, w: WorkerId) -> bool {
        self.by_worker.contains_key(&w)
    }

    /// Is the task matched?
    pub fn task_matched(&self, r: TaskId) -> bool {
        self.by_task.contains_key(&r)
    }

    /// Validate referential integrity against the worker and task sets:
    /// every referenced id exists and ids are within range. Duplicates are
    /// impossible by construction of `push`.
    pub fn validate_ids(&self, workers: &[Worker], tasks: &[Task]) -> Result<(), TypeError> {
        for a in &self.pairs {
            if a.worker.index() >= workers.len() {
                return Err(TypeError::UnknownWorker(a.worker));
            }
            if a.task.index() >= tasks.len() {
                return Err(TypeError::UnknownTask(a.task));
            }
        }
        Ok(())
    }

    /// Validate the deadline constraint of Definition 4 under the assumption
    /// that every worker may move freely (at the given velocity) from the
    /// moment it appears — i.e. the *flexible* (FTOA) feasibility used by the
    /// offline optimum and by guided algorithms. A pair `(w, r)` is feasible
    /// iff the task is released before the worker leaves, and departing from
    /// the worker's initial location no earlier than `max(S_w, S_r)` — or
    /// earlier, if the worker pre-moves, which can only help — the worker can
    /// reach `L_r` by `S_r + D_r`. Pre-movement is bounded by physics: the
    /// worker cannot be farther ahead than `velocity * (t - S_w)`, so the
    /// arrival time is at least `max(S_r, S_w + d(L_w, L_r)/v)`.
    pub fn validate_flexible(
        &self,
        workers: &[Worker],
        tasks: &[Task],
        velocity: f64,
    ) -> Result<(), TypeError> {
        self.validate_ids(workers, tasks)?;
        for a in &self.pairs {
            let w = &workers[a.worker.index()];
            let r = &tasks[a.task.index()];
            if r.release >= w.deadline() {
                return Err(TypeError::InfeasiblePair {
                    worker: a.worker,
                    task: a.task,
                    reason: format!(
                        "task released at {} after worker deadline {}",
                        r.release,
                        w.deadline()
                    ),
                });
            }
            let travel = w.location.travel_time(&r.location, velocity);
            let earliest_arrival = (w.start + travel).max(r.release);
            if earliest_arrival > r.deadline() {
                return Err(TypeError::InfeasiblePair {
                    worker: a.worker,
                    task: a.task,
                    reason: format!(
                        "earliest arrival {} after task deadline {}",
                        earliest_arrival,
                        r.deadline()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Validate under the *static* model of prior work: workers wait at their
    /// initial location and may only start travelling once the task has been
    /// released (no pre-movement). This is the stricter of the two checks.
    pub fn validate_static(
        &self,
        workers: &[Worker],
        tasks: &[Task],
        velocity: f64,
    ) -> Result<(), TypeError> {
        self.validate_ids(workers, tasks)?;
        for a in &self.pairs {
            let w = &workers[a.worker.index()];
            let r = &tasks[a.task.index()];
            if !w.can_serve(r, velocity) {
                return Err(TypeError::InfeasiblePair {
                    worker: a.worker,
                    task: a.task,
                    reason: "infeasible under wait-in-place model".into(),
                });
            }
        }
        Ok(())
    }

    /// Iterate over `(worker, task)` id pairs.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (WorkerId, TaskId)> + '_ {
        self.pairs.iter().map(|a| (a.worker, a.task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;
    use crate::time::TimeDelta;

    fn worker(id: usize, x: f64, y: f64, start: f64, wait: f64) -> Worker {
        Worker::new(
            WorkerId(id),
            Location::new(x, y),
            TimeStamp::minutes(start),
            TimeDelta::minutes(wait),
        )
    }

    fn task(id: usize, x: f64, y: f64, release: f64, patience: f64) -> Task {
        Task::new(
            TaskId(id),
            Location::new(x, y),
            TimeStamp::minutes(release),
            TimeDelta::minutes(patience),
        )
    }

    #[test]
    fn push_rejects_duplicates() {
        let mut m = AssignmentSet::new();
        m.push(Assignment::new(WorkerId(0), TaskId(0), TimeStamp::ZERO)).unwrap();
        assert_eq!(
            m.push(Assignment::new(WorkerId(0), TaskId(1), TimeStamp::ZERO)),
            Err(TypeError::DuplicateWorker(WorkerId(0)))
        );
        assert_eq!(
            m.push(Assignment::new(WorkerId(1), TaskId(0), TimeStamp::ZERO)),
            Err(TypeError::DuplicateTask(TaskId(0)))
        );
        assert_eq!(m.len(), 1);
        assert!(m.worker_matched(WorkerId(0)));
        assert!(m.task_matched(TaskId(0)));
        assert!(!m.worker_matched(WorkerId(1)));
    }

    #[test]
    fn push_with_capacity_allows_load_up_to_capacity() {
        let mut m = AssignmentSet::new();
        m.push_with_capacity(Assignment::new(WorkerId(0), TaskId(0), TimeStamp::ZERO), 2).unwrap();
        assert_eq!(m.worker_load(WorkerId(0)), 1);
        m.push_with_capacity(Assignment::new(WorkerId(0), TaskId(1), TimeStamp::ZERO), 2).unwrap();
        assert_eq!(m.worker_load(WorkerId(0)), 2);
        assert_eq!(
            m.push_with_capacity(Assignment::new(WorkerId(0), TaskId(2), TimeStamp::ZERO), 2),
            Err(TypeError::DuplicateWorker(WorkerId(0)))
        );
        // Tasks stay single-assignment regardless of worker capacity.
        assert_eq!(
            m.push_with_capacity(Assignment::new(WorkerId(1), TaskId(1), TimeStamp::ZERO), 2),
            Err(TypeError::DuplicateTask(TaskId(1)))
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m.worker_load(WorkerId(1)), 0);
        // The worker's first assignment is the lookup result.
        assert_eq!(m.assignment_of_worker(WorkerId(0)).unwrap().task, TaskId(0));
    }

    #[test]
    fn lookup_by_side() {
        let mut m = AssignmentSet::with_capacity(2);
        m.push(Assignment::new(WorkerId(3), TaskId(5), TimeStamp::minutes(1.0))).unwrap();
        assert_eq!(m.assignment_of_worker(WorkerId(3)).unwrap().task, TaskId(5));
        assert_eq!(m.assignment_of_task(TaskId(5)).unwrap().worker, WorkerId(3));
        assert!(m.assignment_of_worker(WorkerId(0)).is_none());
        let pairs: Vec<_> = m.iter_pairs().collect();
        assert_eq!(pairs, vec![(WorkerId(3), TaskId(5))]);
    }

    #[test]
    fn validate_ids_detects_out_of_range() {
        let workers = vec![worker(0, 0.0, 0.0, 0.0, 10.0)];
        let tasks = vec![task(0, 1.0, 0.0, 0.0, 5.0)];
        let mut m = AssignmentSet::new();
        m.push(Assignment::new(WorkerId(1), TaskId(0), TimeStamp::ZERO)).unwrap();
        assert_eq!(m.validate_ids(&workers, &tasks), Err(TypeError::UnknownWorker(WorkerId(1))));
    }

    #[test]
    fn flexible_validation_accepts_pre_movement() {
        // Worker appears at t=0 at the origin; task appears at t=12, 10 units
        // away, with only 2 minutes of patience. Under the static model this
        // is infeasible; under the flexible model the worker can pre-move.
        let workers = vec![worker(0, 0.0, 0.0, 0.0, 30.0)];
        let tasks = vec![task(0, 10.0, 0.0, 12.0, 2.0)];
        let mut m = AssignmentSet::new();
        m.push(Assignment::new(WorkerId(0), TaskId(0), TimeStamp::ZERO)).unwrap();
        assert!(m.validate_flexible(&workers, &tasks, 1.0).is_ok());
        assert!(m.validate_static(&workers, &tasks, 1.0).is_err());
    }

    #[test]
    fn flexible_validation_rejects_unreachable_pairs() {
        // Even with pre-movement the worker (appearing at t=10) cannot cover
        // 100 units before the task deadline at t=15.
        let workers = vec![worker(0, 0.0, 0.0, 10.0, 30.0)];
        let tasks = vec![task(0, 100.0, 0.0, 12.0, 3.0)];
        let mut m = AssignmentSet::new();
        m.push(Assignment::new(WorkerId(0), TaskId(0), TimeStamp::ZERO)).unwrap();
        assert!(m.validate_flexible(&workers, &tasks, 1.0).is_err());
    }

    #[test]
    fn flexible_validation_rejects_task_after_worker_deadline() {
        let workers = vec![worker(0, 0.0, 0.0, 0.0, 5.0)];
        let tasks = vec![task(0, 0.0, 0.0, 6.0, 3.0)];
        let mut m = AssignmentSet::new();
        m.push(Assignment::new(WorkerId(0), TaskId(0), TimeStamp::ZERO)).unwrap();
        assert!(m.validate_flexible(&workers, &tasks, 1.0).is_err());
    }
}
