//! Replaying recorded arrival streams through the simulation engine.
//!
//! A recorded trace carries only a configuration and an arrival stream — no
//! prediction matrices. [`ReplayDriver`] closes that gap: it derives the
//! *realised* per-slot/per-cell counts from the stream itself (the oracle
//! prediction, [`stream_counts`]) and drives any [`OnlinePolicy`] over the
//! stream through the unchanged [`SimulationEngine`] / `CandidateIndex`
//! stack. This is the entry point the `replay` CLI in the `experiments`
//! crate — and, later, real-dataset ingestion — builds on.

use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::engine::index::IndexBackend;
use crate::instance::Instance;
use crate::result::AlgorithmResult;
use ftoa_types::{EventStream, ProblemConfig};
use prediction::SpatioTemporalMatrix;

/// The realised per-slot/per-cell arrival counts of a stream, in the same
/// shape as the predictions the offline guide consumes. Replays use these as
/// the prediction (a trace records no forecast); prediction experiments can
/// perturb them afterwards. Delegates to the canonical
/// [`SpatioTemporalMatrix::from_arrivals`] derivation, the same one scenario
/// ground-truth counts use.
pub fn stream_counts(
    config: &ProblemConfig,
    stream: &EventStream,
) -> (SpatioTemporalMatrix, SpatioTemporalMatrix) {
    let workers = SpatioTemporalMatrix::from_arrivals(
        &config.slots,
        &config.grid,
        stream.workers().iter().map(|w| (w.start, w.location)),
    );
    let tasks = SpatioTemporalMatrix::from_arrivals(
        &config.slots,
        &config.grid,
        stream.tasks().iter().map(|r| (r.release, r.location)),
    );
    (workers, tasks)
}

/// Drives policies over a recorded `(config, stream)` pair.
///
/// The driver owns the derived count matrices so callers need nothing beyond
/// what a trace file contains; [`ReplayDriver::instance`] exposes the
/// assembled [`Instance`] for policies (POLAR / POLAR-OP) whose construction
/// needs it.
pub struct ReplayDriver {
    /// Candidate-index backend handed to the engine.
    pub backend: IndexBackend,
    predicted_workers: SpatioTemporalMatrix,
    predicted_tasks: SpatioTemporalMatrix,
}

/// Builder for [`ReplayDriver`]: names the knobs instead of threading them
/// positionally. `ReplayDriver::builder(&config, &stream).backend(..).build()`.
pub struct ReplayDriverBuilder<'a> {
    config: &'a ProblemConfig,
    stream: &'a EventStream,
    backend: IndexBackend,
}

impl ReplayDriverBuilder<'_> {
    /// Candidate-index backend handed to the engine (default:
    /// [`IndexBackend::default`]).
    pub fn backend(mut self, backend: IndexBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Derive the realised counts and assemble the driver.
    pub fn build(self) -> ReplayDriver {
        let (predicted_workers, predicted_tasks) = stream_counts(self.config, self.stream);
        ReplayDriver { backend: self.backend, predicted_workers, predicted_tasks }
    }
}

impl ReplayDriver {
    /// Start building a replay of the stream.
    pub fn builder<'a>(
        config: &'a ProblemConfig,
        stream: &'a EventStream,
    ) -> ReplayDriverBuilder<'a> {
        ReplayDriverBuilder { config, stream, backend: IndexBackend::default() }
    }

    /// The instance a policy will be run against (stream + realised counts).
    pub fn instance<'a>(
        &'a self,
        config: &'a ProblemConfig,
        stream: &'a EventStream,
    ) -> Instance<'a> {
        Instance::new(config, stream, &self.predicted_workers, &self.predicted_tasks)
    }

    /// Replay the stream through one policy.
    pub fn run(
        &self,
        config: &ProblemConfig,
        stream: &EventStream,
        policy: &mut dyn OnlinePolicy,
    ) -> AlgorithmResult {
        SimulationEngine::new(self.backend).run(&self.instance(config, stream), policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::SimpleGreedy;
    use ftoa_types::{
        GridPartition, Location, SlotPartition, Task, TaskId, TimeDelta, TimeStamp, Worker,
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

    fn stream() -> EventStream {
        EventStream::new(
            vec![
                Worker::new(
                    WorkerId(0),
                    Location::new(1.0, 1.0),
                    TimeStamp::minutes(0.0),
                    TimeDelta::minutes(10.0),
                ),
                Worker::new(
                    WorkerId(1),
                    Location::new(9.0, 9.0),
                    TimeStamp::minutes(30.0),
                    TimeDelta::minutes(10.0),
                ),
            ],
            vec![Task::new(
                TaskId(0),
                Location::new(1.5, 1.0),
                TimeStamp::minutes(1.0),
                TimeDelta::minutes(5.0),
            )],
        )
    }

    #[test]
    fn stream_counts_match_arrivals() {
        let cfg = config();
        let s = stream();
        let (w, t) = stream_counts(&cfg, &s);
        assert_eq!(w.total() as usize, 2);
        assert_eq!(t.total() as usize, 1);
        // The first worker lands in slot 0, cell (0,0).
        assert_eq!(w.get(0, 0), 1.0);
        // The second worker lands in slot 2, cell (4,4).
        assert_eq!(w.get(2, 24), 1.0);
    }

    #[test]
    fn replay_runs_a_policy_over_the_stream() {
        let cfg = config();
        let s = stream();
        for backend in [IndexBackend::LinearScan, IndexBackend::Grid] {
            let driver = ReplayDriver::builder(&cfg, &s).backend(backend).build();
            let result = driver.run(&cfg, &s, &mut SimpleGreedy.policy());
            assert_eq!(result.matching_size(), 1, "{backend:?}");
            assert_eq!(result.stats.events, 3);
        }
    }
}
