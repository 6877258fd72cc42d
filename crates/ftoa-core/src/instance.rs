//! The common input handed to every online algorithm.

use ftoa_types::{EventStream, ProblemConfig};
use prediction::SpatioTemporalMatrix;

/// A borrowed view of one problem instance: the configuration, the online
/// arrival stream (ground truth) and the predicted counts that feed the
/// offline guide. Prediction-free algorithms (SimpleGreedy, GR, OPT) simply
/// ignore the prediction matrices.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// Grid / slot / velocity configuration.
    pub config: &'a ProblemConfig,
    /// The time-ordered arrival stream.
    pub stream: &'a EventStream,
    /// Predicted worker counts `a_ij`.
    pub predicted_workers: &'a SpatioTemporalMatrix,
    /// Predicted task counts `b_ij`.
    pub predicted_tasks: &'a SpatioTemporalMatrix,
}

impl<'a> Instance<'a> {
    /// Create an instance from its parts.
    pub fn new(
        config: &'a ProblemConfig,
        stream: &'a EventStream,
        predicted_workers: &'a SpatioTemporalMatrix,
        predicted_tasks: &'a SpatioTemporalMatrix,
    ) -> Self {
        Self { config, stream, predicted_workers, predicted_tasks }
    }

    /// Number of actual workers `|W|`.
    pub fn num_workers(&self) -> usize {
        self.stream.num_workers()
    }

    /// Number of actual tasks `|R|`.
    pub fn num_tasks(&self) -> usize {
        self.stream.num_tasks()
    }
}
