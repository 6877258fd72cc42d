//! GR: the batched dynamic task-assignment baseline (To et al. 2015).
//!
//! GR gathers the objects arriving within a time window and, at the end of
//! each window, computes a maximum matching between the workers and tasks
//! that are available at that moment (workers still on the platform, tasks
//! not yet expired), under the wait-in-place feasibility model. Objects left
//! unmatched stay available for later windows until they expire.
//!
//! Each window is one round of the batch policy GR shares with the
//! flow-backed baselines ([`BatchFlowPolicy`]): every worker is one left
//! vertex, and Hopcroft–Karp finds the maximum matching. The module docs of
//! [`crate::algorithms::batch_flow`] describe how a round's graph is built.

use crate::algorithms::batch_flow::{BatchFlowPolicy, RoundObjective};
use crate::algorithms::OnlineAlgorithm;
use crate::engine::driver::SimulationEngine;
use crate::instance::Instance;
use crate::result::AlgorithmResult;

/// The GR baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchGreedy {
    /// Length of a batching window in minutes. The paper does not report the
    /// window length; one fifth of a time slot (3 minutes for 15-minute
    /// slots) keeps the batches small enough to stay responsive, which is the
    /// regime in which GR "marginally outperforms SimpleGreedy".
    pub window_minutes: f64,
}

impl Default for BatchGreedy {
    fn default() -> Self {
        Self { window_minutes: 3.0 }
    }
}

impl BatchGreedy {
    /// The incremental policy implementing GR on the engine.
    pub fn policy(&self) -> BatchFlowPolicy {
        BatchFlowPolicy::new("GR", RoundObjective::WorkerCardinality, self.window_minutes)
    }
}

impl OnlineAlgorithm for BatchGreedy {
    fn name(&self) -> &'static str {
        "GR"
    }

    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::example1;
    use crate::engine::index::IndexBackend;
    use crate::instance::Instance;

    fn run_example(window: f64) -> AlgorithmResult {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        BatchGreedy { window_minutes: window }.run(&instance)
    }

    #[test]
    fn example_assignments_are_valid_and_bounded() {
        let result = run_example(1.0);
        // GR waits for the window to close, so it cannot beat the flexible
        // offline optimum (6) and, on this instance, stays at or below the
        // wait-in-place optimum (2).
        assert!(result.matching_size() <= 2);
        let config = example1::config();
        let stream = example1::stream();
        assert!(result
            .assignments
            .validate_static(stream.workers(), stream.tasks(), config.velocity)
            .is_ok());
    }

    #[test]
    fn tiny_window_approaches_simple_greedy_behaviour() {
        // With a very small window GR processes arrivals almost immediately.
        let result = run_example(0.25);
        assert!(result.matching_size() >= 1);
    }

    #[test]
    fn huge_window_expires_urgent_tasks() {
        // With a single window covering the whole horizon, the 2-minute tasks
        // expire before the batch is processed.
        let result = run_example(1000.0);
        assert_eq!(result.matching_size(), 0);
    }

    #[test]
    fn empty_stream_is_fine() {
        let config = example1::config();
        let stream = ftoa_types::EventStream::new(vec![], vec![]);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        assert_eq!(BatchGreedy::default().run(&instance).matching_size(), 0);
    }

    #[test]
    fn both_index_backends_match_the_same_number_of_pairs() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        for window in [0.5, 1.0, 3.0] {
            let gr = BatchGreedy { window_minutes: window };
            let linear = SimulationEngine::new(IndexBackend::LinearScan)
                .run(&instance, &mut gr.policy())
                .matching_size();
            let grid = SimulationEngine::new(IndexBackend::Grid)
                .run(&instance, &mut gr.policy())
                .matching_size();
            assert_eq!(linear, grid, "window {window}");
        }
    }

    #[test]
    fn batch_matching_can_beat_pure_greedy_ordering() {
        use ftoa_types::{Location, Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId};
        // Two tasks and two workers arriving within one window, where the
        // greedy nearest-first choice would block the perfect matching:
        // w0 is close to both tasks, w1 can only serve r0.
        let config = example1::config();
        let workers = vec![
            Worker::new(
                WorkerId(0),
                Location::new(4.0, 4.0),
                TimeStamp::minutes(0.0),
                TimeDelta::minutes(30.0),
            ),
            Worker::new(
                WorkerId(1),
                Location::new(4.0, 6.0),
                TimeStamp::minutes(0.0),
                TimeDelta::minutes(30.0),
            ),
        ];
        let tasks = vec![
            Task::new(
                TaskId(0),
                Location::new(4.0, 5.0),
                TimeStamp::minutes(0.2),
                TimeDelta::minutes(2.0),
            ),
            Task::new(
                TaskId(1),
                Location::new(4.0, 3.2),
                TimeStamp::minutes(0.3),
                TimeDelta::minutes(2.0),
            ),
        ];
        let stream = ftoa_types::EventStream::new(workers, tasks);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let gr = BatchGreedy { window_minutes: 1.0 }.run(&instance);
        assert_eq!(gr.matching_size(), 2);
    }
}
