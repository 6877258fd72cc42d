//! Spatiotemporal demand/supply prediction substrate.
//!
//! Step one of the paper's two-step framework predicts, for every time slot
//! `i` and grid area `j`, the number of workers `a_ij` and tasks `b_ij` that
//! will appear. Section 6.3.1 compares seven representative prediction
//! methods — HA, ARIMA, GBRT, PAQ, LR, NN and HP-MSI — on two city-scale
//! datasets with the Error Rate (ER) and Root Mean Squared Logarithmic Error
//! (RMLSE) metrics and selects HP-MSI as the predictor feeding the offline
//! guide.
//!
//! This crate reimplements all seven predictors from scratch (including the
//! small dense linear-algebra, regression-tree and MLP machinery they need),
//! the [`SpatioTemporalMatrix`] count representation, the multi-day
//! [`HistoryStore`] they train on and the two evaluation metrics.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod features;
pub mod history;
pub mod linalg;
pub mod matrix;
pub mod metrics;
pub mod predictors;

pub use history::{DayMeta, DayRecord, HistoryStore, Quantity};
pub use matrix::SpatioTemporalMatrix;
pub use metrics::{error_rate, rmlse};
pub use predictors::{
    arima::Arima, gbrt::Gbrt, ha::HistoricalAverage, hp_msi::HpMsi, lr::LinearRegression,
    nn::NeuralNetwork, paq::Paq, Predictor,
};

/// All seven predictors of Table 5, boxed behind the [`Predictor`] trait, in
/// the order the paper lists them.
pub fn all_predictors() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(HistoricalAverage),
        Box::new(Arima::default()),
        Box::new(Gbrt::default()),
        Box::new(Paq::default()),
        Box::new(LinearRegression::default()),
        Box::new(NeuralNetwork::default()),
        Box::new(HpMsi::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_predictors_covers_table5() {
        let names: Vec<&str> = all_predictors().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["HA", "ARIMA", "GBRT", "PAQ", "LR", "NN", "HP-MSI"]);
    }
}
