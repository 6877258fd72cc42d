//! Online arrival events and event streams.
//!
//! The FTOA problem is an *online* problem: workers and tasks appear on the
//! platform one by one at arbitrary times (Definition 4). An [`EventStream`]
//! is the canonical representation of one problem instance as seen by an
//! online algorithm: a time-ordered sequence of arrivals.

use crate::task::Task;
use crate::time::TimeStamp;
use crate::worker::Worker;

/// What kind of object arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A worker appeared on the platform.
    Worker,
    /// A task was released on the platform.
    Task,
}

/// A single arrival event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A worker appeared on the platform.
    WorkerArrival(Worker),
    /// A task was released on the platform.
    TaskArrival(Task),
}

impl Event {
    /// The time at which the event occurs.
    pub fn time(&self) -> TimeStamp {
        match self {
            Event::WorkerArrival(w) => w.start,
            Event::TaskArrival(r) => r.release,
        }
    }

    /// The kind of the event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::WorkerArrival(_) => EventKind::Worker,
            Event::TaskArrival(_) => EventKind::Task,
        }
    }

    /// The worker, if this is a worker arrival.
    pub fn as_worker(&self) -> Option<&Worker> {
        match self {
            Event::WorkerArrival(w) => Some(w),
            Event::TaskArrival(_) => None,
        }
    }

    /// The task, if this is a task arrival.
    pub fn as_task(&self) -> Option<&Task> {
        match self {
            Event::TaskArrival(r) => Some(r),
            Event::WorkerArrival(_) => None,
        }
    }
}

/// A complete problem instance: the sets `W` and `R` together with their
/// arrival order. The stream owns the workers and tasks and exposes them both
/// as indexed sets (for offline algorithms such as OPT) and as a time-ordered
/// event sequence (for online algorithms).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventStream {
    workers: Vec<Worker>,
    tasks: Vec<Task>,
    /// Indices into `workers` / `tasks`, sorted by arrival time.
    order: Vec<Event>,
}

impl EventStream {
    /// Build a stream from workers and tasks. Ids are rewritten to be dense
    /// (0-based, in the order given); the event order is sorted by time with
    /// ties broken by kind (workers first, matching the paper's toy example
    /// where `w1` arrives at 9:00 together with `r1`) and then by id.
    pub fn new(mut workers: Vec<Worker>, mut tasks: Vec<Task>) -> Self {
        for (i, w) in workers.iter_mut().enumerate() {
            w.id = crate::ids::WorkerId(i);
        }
        for (i, r) in tasks.iter_mut().enumerate() {
            r.id = crate::ids::TaskId(i);
        }
        let mut order: Vec<Event> = workers
            .iter()
            .copied()
            .map(Event::WorkerArrival)
            .chain(tasks.iter().copied().map(Event::TaskArrival))
            .collect();
        order.sort_by(|a, b| {
            a.time().cmp(&b.time()).then_with(|| match (a, b) {
                (Event::WorkerArrival(_), Event::TaskArrival(_)) => std::cmp::Ordering::Less,
                (Event::TaskArrival(_), Event::WorkerArrival(_)) => std::cmp::Ordering::Greater,
                (Event::WorkerArrival(x), Event::WorkerArrival(y)) => x.id.cmp(&y.id),
                (Event::TaskArrival(x), Event::TaskArrival(y)) => x.id.cmp(&y.id),
            })
        });
        Self { workers, tasks, order }
    }

    /// Merge two streams into one instance: the union of both worker and
    /// task sets, re-sorted into a single arrival order (ids are rewritten
    /// dense, `self`'s objects first). Workload generators use this to
    /// compose structured scenarios — e.g. a rush-hour trace as the union of
    /// a morning and an evening burst.
    pub fn merge(&self, other: &EventStream) -> EventStream {
        let workers = self.workers.iter().chain(&other.workers).copied().collect();
        let tasks = self.tasks.iter().chain(&other.tasks).copied().collect();
        EventStream::new(workers, tasks)
    }

    /// All workers, indexed by `WorkerId`.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// All tasks, indexed by `TaskId`.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of workers `|W|`.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of tasks `|R|`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The time-ordered arrival events.
    pub fn events(&self) -> &[Event] {
        &self.order
    }

    /// Iterate over the events in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.order.iter()
    }

    /// The time of the last event, or `None` if the stream is empty.
    pub fn end_time(&self) -> Option<TimeStamp> {
        self.order.last().map(|e| e.time())
    }

    /// Is the stream empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total number of events `|W| + |R|`.
    pub fn len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{TaskId, WorkerId};
    use crate::location::Location;
    use crate::time::{TimeDelta, TimeStamp};

    fn w(start: f64) -> Worker {
        Worker::new(
            WorkerId(0),
            Location::ORIGIN,
            TimeStamp::minutes(start),
            TimeDelta::minutes(30.0),
        )
    }

    fn r(start: f64) -> Task {
        Task::new(TaskId(0), Location::ORIGIN, TimeStamp::minutes(start), TimeDelta::minutes(2.0))
    }

    #[test]
    fn events_are_sorted_by_time() {
        let s = EventStream::new(vec![w(5.0), w(1.0)], vec![r(3.0), r(0.5)]);
        let times: Vec<f64> = s.iter().map(|e| e.time().as_minutes()).collect();
        assert_eq!(times, vec![0.5, 1.0, 3.0, 5.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.num_workers(), 2);
        assert_eq!(s.num_tasks(), 2);
        assert_eq!(s.end_time(), Some(TimeStamp::minutes(5.0)));
    }

    #[test]
    fn ids_are_rewritten_dense() {
        let s = EventStream::new(vec![w(5.0), w(1.0)], vec![r(3.0)]);
        assert_eq!(s.workers()[0].id, WorkerId(0));
        assert_eq!(s.workers()[1].id, WorkerId(1));
        assert_eq!(s.tasks()[0].id, TaskId(0));
    }

    #[test]
    fn ties_put_workers_before_tasks() {
        let s = EventStream::new(vec![w(1.0)], vec![r(1.0)]);
        assert_eq!(s.events()[0].kind(), EventKind::Worker);
        assert_eq!(s.events()[1].kind(), EventKind::Task);
        assert!(s.events()[0].as_worker().is_some());
        assert!(s.events()[0].as_task().is_none());
        assert!(s.events()[1].as_task().is_some());
    }

    #[test]
    fn merge_unions_and_resorts() {
        let a = EventStream::new(vec![w(5.0)], vec![r(3.0)]);
        let b = EventStream::new(vec![w(1.0)], vec![r(4.0)]);
        let m = a.merge(&b);
        assert_eq!(m.num_workers(), 2);
        assert_eq!(m.num_tasks(), 2);
        let times: Vec<f64> = m.iter().map(|e| e.time().as_minutes()).collect();
        assert_eq!(times, vec![1.0, 3.0, 4.0, 5.0]);
        // Ids are rewritten dense across the union.
        assert_eq!(m.workers()[0].id, WorkerId(0));
        assert_eq!(m.workers()[1].id, WorkerId(1));
        assert_eq!(m.tasks()[1].id, TaskId(1));
    }

    #[test]
    fn empty_stream() {
        let s = EventStream::new(vec![], vec![]);
        assert!(s.is_empty());
        assert_eq!(s.end_time(), None);
    }
}
