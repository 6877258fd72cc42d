//! The online task-assignment algorithms evaluated in the paper.

pub mod batch_flow;
pub mod batch_greedy;
pub mod opt;
pub mod polar;
pub mod polar_op;
pub mod simple_greedy;

pub use batch_flow::{BatchHungarian, BatchMaxFlow};
pub use batch_greedy::BatchGreedy;
pub use opt::{Opt, OptMode};
pub use polar::Polar;
pub use polar_op::PolarOp;
pub use simple_greedy::SimpleGreedy;

use crate::instance::Instance;
use crate::result::AlgorithmResult;

/// A (two-sided) online task-assignment algorithm.
///
/// Implementations process the arrival stream of an [`Instance`] and return
/// an irrevocable matching together with runtime/memory accounting. All
/// algorithms are deterministic for a fixed instance.
pub trait OnlineAlgorithm {
    /// Display name (as used in the paper's plots: `SimpleGreedy`, `GR`,
    /// `POLAR`, `POLAR-OP`, `OPT`).
    fn name(&self) -> &'static str;

    /// Run the algorithm on the instance.
    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult;
}

/// Shared fixtures for algorithm tests: the paper's running example
/// (Example 1 / Table 1 / Figure 1).
#[cfg(test)]
pub(crate) mod example1 {
    use ftoa_types::{
        EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId,
        TimeDelta, TimeStamp, Worker, WorkerId,
    };
    use prediction::SpatioTemporalMatrix;

    /// The configuration of the running example: an 8×8 region split into
    /// 2×2 areas, two 5-minute slots, speed 1 unit/min, `D_w` = 30 min,
    /// `D_r` = 2 min.
    pub fn config() -> ProblemConfig {
        ProblemConfig::new(
            GridPartition::square(8.0, 2).unwrap(),
            SlotPartition::over_horizon(TimeDelta::minutes(10.0), 2).unwrap(),
            1.0,
            TimeDelta::minutes(30.0),
            TimeDelta::minutes(2.0),
        )
    }

    /// Arrival times are minutes after 9:00 (Table 1); locations follow
    /// Figure 1a. Worker/task indices match the paper (w1..w7, r1..r6 map to
    /// ids 0..6 and 0..5).
    pub fn stream() -> EventStream {
        let dw = TimeDelta::minutes(30.0);
        let dr = TimeDelta::minutes(2.0);
        let w = |x: f64, y: f64, t: f64| {
            Worker::new(WorkerId(0), Location::new(x, y), TimeStamp::minutes(t), dw)
        };
        let r = |x: f64, y: f64, t: f64| {
            Task::new(TaskId(0), Location::new(x, y), TimeStamp::minutes(t), dr)
        };
        let workers = vec![
            w(1.0, 6.0, 0.0), // w1 at 9:00
            w(1.0, 8.0, 1.0), // w2 at 9:01
            w(3.0, 7.0, 1.0), // w3 at 9:01
            w(5.0, 6.0, 3.0), // w4 at 9:03
            w(6.0, 5.0, 3.0), // w5 at 9:03
            w(6.0, 7.0, 3.0), // w6 at 9:03
            w(7.0, 6.0, 4.0), // w7 at 9:04
        ];
        let tasks = vec![
            r(3.0, 6.0, 0.0), // r1 at 9:00
            r(3.5, 5.5, 2.0), // r2 at 9:02
            r(5.0, 3.0, 5.0), // r3 at 9:05
            r(4.0, 1.0, 6.0), // r4 at 9:06
            r(8.0, 2.0, 7.0), // r5 at 9:07
            r(6.0, 1.0, 8.0), // r6 at 9:08
        ];
        EventStream::new(workers, tasks)
    }

    /// A prediction consistent with the actual arrivals of the example
    /// (derived from the stream itself, analogous to Figure 1d's guide).
    pub fn prediction(
        config: &ProblemConfig,
        stream: &EventStream,
    ) -> (SpatioTemporalMatrix, SpatioTemporalMatrix) {
        let slots = config.slots.num_slots();
        let cells = config.grid.num_cells();
        let mut workers = SpatioTemporalMatrix::zeros(slots, cells);
        let mut tasks = SpatioTemporalMatrix::zeros(slots, cells);
        for w in stream.workers() {
            let key = ftoa_types::TypeKey::new(
                config.slots.slot_of(w.start),
                config.grid.cell_of(&w.location),
            );
            workers.increment_key(key);
        }
        for r in stream.tasks() {
            let key = ftoa_types::TypeKey::new(
                config.slots.slot_of(r.release),
                config.grid.cell_of(&r.location),
            );
            tasks.increment_key(key);
        }
        (workers, tasks)
    }
}
