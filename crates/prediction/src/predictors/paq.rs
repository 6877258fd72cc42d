//! Predictive Aggregation Queries (PAQ).
//!
//! The paper's PAQ baseline answers predictive aggregate queries over the
//! moving-object trajectories of the most recent hours. Our history store is
//! aggregated per day, so the adaptation used here is a *recency-weighted
//! aggregation*: the prediction for `(slot, cell)` is an exponentially
//! decayed average of the counts at the same `(slot, cell)` over the most
//! recent `window` days, which preserves the defining property of PAQ — it
//! reacts to recent observations rather than long-run averages.

use crate::history::{DayMeta, HistoryStore, Quantity};
use crate::matrix::SpatioTemporalMatrix;
use crate::predictors::Predictor;

/// Recency-weighted aggregation predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct Paq {
    /// Number of most recent days aggregated.
    pub window: usize,
    /// Exponential decay factor per day backwards in time (in `(0, 1]`).
    pub decay: f64,
}

impl Default for Paq {
    fn default() -> Self {
        Self { window: 6, decay: 0.7 }
    }
}

impl Predictor for Paq {
    fn name(&self) -> &'static str {
        "PAQ"
    }

    fn predict(
        &self,
        history: &HistoryStore,
        quantity: Quantity,
        _target: &DayMeta,
    ) -> SpatioTemporalMatrix {
        let slots = history.num_slots();
        let cells = history.num_cells();
        let mut out = SpatioTemporalMatrix::zeros(slots, cells);
        let recent = history.recent_days(self.window);
        if recent.is_empty() {
            return out;
        }
        // Weights: most recent day gets weight 1, the one before `decay`, ...
        let mut total_weight = 0.0;
        let mut weighted = SpatioTemporalMatrix::zeros(slots, cells);
        for (age, day) in recent.iter().rev().enumerate() {
            let w = self.decay.powi(age as i32);
            total_weight += w;
            let mut m = day.matrix(quantity).clone();
            m.scale(w);
            weighted.add_matrix(&m);
        }
        weighted.scale(1.0 / total_weight);
        out.add_matrix(&weighted);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::DayRecord;
    use crate::predictors::test_util;

    fn day(v: f64) -> DayRecord {
        DayRecord {
            meta: DayMeta::new(0, 0.0),
            workers: SpatioTemporalMatrix::from_vec(1, 1, vec![v]),
            tasks: SpatioTemporalMatrix::from_vec(1, 1, vec![v]),
        }
    }

    #[test]
    fn weights_recent_days_more() {
        let mut h = HistoryStore::new();
        h.push(day(0.0));
        h.push(day(10.0));
        let paq = Paq { window: 2, decay: 0.5 };
        let pred = paq.predict(&h, Quantity::Workers, &DayMeta::new(0, 0.0));
        // Weighted: (1*10 + 0.5*0) / 1.5 = 6.67 — closer to the recent value.
        assert!((pred.get(0, 0) - 10.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn window_limits_how_far_back_it_looks() {
        let mut h = HistoryStore::new();
        h.push(day(1000.0));
        h.push(day(2.0));
        h.push(day(2.0));
        let paq = Paq { window: 2, decay: 1.0 };
        let pred = paq.predict(&h, Quantity::Workers, &DayMeta::new(0, 0.0));
        assert_eq!(pred.get(0, 0), 2.0);
    }

    #[test]
    fn empty_history_predicts_zero() {
        let h = HistoryStore::new();
        let pred = Paq::default().predict(&h, Quantity::Workers, &DayMeta::new(0, 0.0));
        assert_eq!(pred.num_slots(), 0);
        assert_eq!(pred.num_cells(), 0);
    }

    #[test]
    fn reasonable_accuracy_on_synthetic_fixture() {
        // PAQ ignores the weekday pattern, so its error bound is looser than
        // HA's on the weekly fixture — matching its mid-table rank in Table 5.
        test_util::assert_reasonable_accuracy(&Paq::default(), 0.6);
    }
}
