//! Synthetic workload generator reproducing Table 4 of the paper.
//!
//! Defaults (bold entries in Table 4): 20,000 workers and 20,000 tasks on a
//! 50 × 50 grid over a 50-unit square, 48 time slots of 15 minutes, worker
//! velocity of 5 grid units per slot (≈ 40 km/h), task deadline `D_r = 2`
//! slots, and normal temporal/spatial distributions for the *tasks* with
//! `μ = σ = mean = cov = 0.5` (expressed as fractions of the horizon /
//! region). The *worker* distributions are fixed at 0.25, which is the
//! convention the paper uses in Figure 6 ("the temporal distribution of
//! workers is fixed", "the workers' μ = 0.25", spatial mean `(0.25x, 0.25y)`).
//!
//! The generator follows the paper's i.i.d. input model end to end: the
//! expected number of arrivals per slot and cell is computed analytically
//! from the normal CDF, rounded to the integer counts `a_ij` / `b_ij` that
//! form the offline prediction, and the actual arrivals are then drawn from
//! the categorical distribution those counts define (`m = Σ a_ij` worker
//! trials, `n = Σ b_ij` task trials). This mirrors the paper's setup where
//! the synthetic experiments assume the spatiotemporal distribution is known
//! to the two-step framework, while the real-data experiments learn it
//! (Table 5).

use crate::distributions::normal_cdf;
use crate::scenario::Scenario;
use ftoa_types::{
    EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, Worker, WorkerId,
};
use prediction::SpatioTemporalMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one normal spatiotemporal distribution, expressed as
/// fractions of the horizon (temporal) and the region side (spatial).
///
/// Interpretation (following Section 6.1 of the paper): the temporal mean and
/// standard deviation are `temporal_mu * horizon` and
/// `temporal_sigma * horizon`; the spatial mean is
/// `(spatial_mean * side, spatial_mean * side)` and the spatial *covariance
/// matrix* is `spatial_cov * diag(side, side)`, i.e. the per-axis standard
/// deviation is `sqrt(spatial_cov * side)` (≈5 grid units at the default
/// 0.5 on a 50-unit region), which concentrates tasks around their centre as
/// in the paper's plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionParams {
    /// Temporal mean as a fraction of the horizon.
    pub temporal_mu: f64,
    /// Temporal standard deviation as a fraction of the horizon.
    pub temporal_sigma: f64,
    /// Spatial mean as a fraction of the region side (both axes).
    pub spatial_mean: f64,
    /// Spatial standard deviation as a fraction of the region side (both axes).
    pub spatial_cov: f64,
}

impl DistributionParams {
    /// The paper's default for tasks (all four parameters 0.5).
    pub fn tasks_default() -> Self {
        Self { temporal_mu: 0.5, temporal_sigma: 0.5, spatial_mean: 0.5, spatial_cov: 0.5 }
    }

    /// The paper's fixed worker distribution (all four parameters 0.25).
    pub fn workers_default() -> Self {
        Self { temporal_mu: 0.25, temporal_sigma: 0.25, spatial_mean: 0.25, spatial_cov: 0.25 }
    }
}

/// Full configuration of a synthetic instance (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of workers `|W|`.
    pub num_workers: usize,
    /// Number of tasks `|R|`.
    pub num_tasks: usize,
    /// Grid resolution per axis (`g = grid_n × grid_n`).
    pub grid_n: usize,
    /// Number of time slots `t`.
    pub num_slots: usize,
    /// Side length of the square region in grid units.
    pub region_side: f64,
    /// Length of one time slot in minutes.
    pub slot_minutes: f64,
    /// Worker velocity in grid units per slot (the paper uses 5 ≈ 40 km/h).
    pub velocity_units_per_slot: f64,
    /// Task deadline `D_r` in slots.
    pub dr_slots: f64,
    /// Worker waiting time `D_w` in slots.
    pub dw_slots: f64,
    /// Task spatiotemporal distribution.
    pub tasks: DistributionParams,
    /// Worker spatiotemporal distribution.
    pub workers: DistributionParams,
    /// Optional uniform range for task payoffs (weighted MaxSum). `None`
    /// (the default) keeps the paper's unit payoffs *and* leaves the RNG
    /// draw sequence untouched, so default streams are byte-identical to
    /// earlier versions; when set, payoffs are drawn uniformly from
    /// `[lo, hi]` in a separate pass after all arrival draws.
    pub task_payoff: Option<(f64, f64)>,
    /// Optional inclusive uniform range for worker capacities
    /// (multi-assignment). Same gating discipline as [`Self::task_payoff`]:
    /// `None` keeps unit capacities and the historical RNG stream.
    pub worker_capacity: Option<(u32, u32)>,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            num_workers: 20_000,
            num_tasks: 20_000,
            grid_n: 50,
            num_slots: 48,
            region_side: 50.0,
            slot_minutes: 15.0,
            velocity_units_per_slot: 5.0,
            dr_slots: 2.0,
            dw_slots: 2.0,
            tasks: DistributionParams::tasks_default(),
            workers: DistributionParams::workers_default(),
            task_payoff: None,
            worker_capacity: None,
        }
    }
}

impl SyntheticConfig {
    /// The ~100k-event scalability preset: 50,000 workers and 50,000 tasks on
    /// the default Table 4 configuration — large enough that linear
    /// candidate scans are visibly quadratic while grid-index range queries
    /// stay near-linear.
    pub fn scalability() -> Self {
        Self { num_workers: 50_000, num_tasks: 50_000, ..Self::default() }
    }

    /// The horizon length in minutes.
    pub fn horizon_minutes(&self) -> f64 {
        self.num_slots as f64 * self.slot_minutes
    }

    /// Build the [`ProblemConfig`] implied by this synthetic configuration.
    pub fn problem_config(&self) -> ProblemConfig {
        let grid =
            GridPartition::square(self.region_side, self.grid_n).expect("grid_n must be positive");
        let slots =
            SlotPartition::over_horizon(TimeDelta::minutes(self.horizon_minutes()), self.num_slots)
                .expect("num_slots must be positive");
        let velocity = self.velocity_units_per_slot / self.slot_minutes;
        ProblemConfig::new(
            grid,
            slots,
            velocity,
            TimeDelta::minutes(self.dw_slots * self.slot_minutes),
            TimeDelta::minutes(self.dr_slots * self.slot_minutes),
        )
    }

    /// Generate the full scenario (stream + i.i.d.-model prediction) with the
    /// given RNG seed.
    ///
    /// Following the paper's i.i.d. input model (Definition 5 and the proof
    /// of Lemma 1), the predicted counts `a_ij` / `b_ij` *define* the arrival
    /// distribution: there are `m = Σ a_ij` worker trials and `n = Σ b_ij`
    /// task trials, each drawn from the categorical distribution
    /// `Pr[i][j] = a_ij / m` (resp. `b_ij / n`). Concretely we (1) compute the
    /// expected counts per slot/cell from the truncated-normal spatiotemporal
    /// distribution of Table 4, (2) round them to integer counts with a
    /// largest-remainder scheme that preserves the totals — these integers
    /// are the prediction handed to the offline guide — and (3) draw the
    /// actual arrivals from that distribution, placing each object uniformly
    /// within its cell and slot. Per-type arrival counts therefore fluctuate
    /// multinomially around the prediction, which is exactly the regime the
    /// POLAR / POLAR-OP analysis covers (over- and under-prediction of
    /// individual types).
    pub fn generate(&self, seed: u64) -> Scenario {
        let config = self.problem_config();
        let mut rng = StdRng::seed_from_u64(seed);

        let expected_workers =
            self.expected_counts(&config, self.num_workers as f64, &self.workers);
        let expected_tasks = self.expected_counts(&config, self.num_tasks as f64, &self.tasks);
        let worker_counts = expected_workers.round_preserving_total();
        let task_counts = expected_tasks.round_preserving_total();

        let worker_draws = draw_from_counts(&mut rng, &worker_counts);
        let mut workers = Vec::with_capacity(worker_draws.len());
        for (i, bin) in worker_draws.into_iter().enumerate() {
            let (loc, t) = sample_within_bin(&mut rng, &config, bin);
            workers.push(Worker::new(WorkerId(i), loc, t, config.default_worker_wait));
        }
        let task_draws = draw_from_counts(&mut rng, &task_counts);
        let mut tasks = Vec::with_capacity(task_draws.len());
        for (i, bin) in task_draws.into_iter().enumerate() {
            let (loc, t) = sample_within_bin(&mut rng, &config, bin);
            tasks.push(Task::new(TaskId(i), loc, t, config.default_task_patience));
        }
        // Weighted-model knobs are drawn strictly after every arrival draw,
        // and only when enabled, so the default (`None`) configuration
        // consumes exactly the historical RNG sequence and reproduces
        // earlier streams byte-for-byte.
        if let Some((lo, hi)) = self.worker_capacity {
            assert!(1 <= lo && lo <= hi, "worker_capacity range must satisfy 1 <= lo <= hi");
            for w in &mut workers {
                w.capacity = rng.gen_range(lo..hi + 1);
            }
        }
        if let Some((lo, hi)) = self.task_payoff {
            assert!(
                lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi,
                "task_payoff range must satisfy 0 < lo <= hi"
            );
            for t in &mut tasks {
                t.payoff = lo + rng.gen::<f64>() * (hi - lo);
            }
        }
        let stream = EventStream::new(workers, tasks);

        let slots = config.slots.num_slots();
        let cells = config.grid.num_cells();
        let predicted_workers = SpatioTemporalMatrix::from_vec(
            slots,
            cells,
            worker_counts.iter().map(|&c| c as f64).collect(),
        );
        let predicted_tasks = SpatioTemporalMatrix::from_vec(
            slots,
            cells,
            task_counts.iter().map(|&c| c as f64).collect(),
        );

        Scenario { config, stream, predicted_workers, predicted_tasks }
    }

    /// The expected number of arrivals per slot and cell under the truncated
    /// normal generating distribution — the fractional counts from which both
    /// the integer prediction and the arrival distribution are derived.
    fn expected_counts(
        &self,
        config: &ProblemConfig,
        total: f64,
        params: &DistributionParams,
    ) -> SpatioTemporalMatrix {
        let slots = config.slots.num_slots();
        let cells = config.grid.num_cells();
        let horizon = self.horizon_minutes();
        let side = self.region_side;

        // Temporal probability mass per slot (renormalised over the horizon).
        let t_mu = params.temporal_mu * horizon;
        let t_sigma = params.temporal_sigma * horizon;
        let t_norm = normal_cdf(horizon, t_mu, t_sigma) - normal_cdf(0.0, t_mu, t_sigma);
        let slot_probs: Vec<f64> = (0..slots)
            .map(|s| {
                let lo = config.slots.slot_start(ftoa_types::SlotId(s)).as_minutes();
                let hi = config.slots.slot_end(ftoa_types::SlotId(s)).as_minutes();
                (normal_cdf(hi, t_mu, t_sigma) - normal_cdf(lo, t_mu, t_sigma)) / t_norm.max(1e-12)
            })
            .collect();

        // Spatial probability mass per axis bin (renormalised over the region).
        let s_mu = params.spatial_mean * side;
        let s_sigma = (params.spatial_cov * side).sqrt();
        let s_norm = normal_cdf(side, s_mu, s_sigma) - normal_cdf(0.0, s_mu, s_sigma);
        let n = self.grid_n;
        let axis_probs: Vec<f64> = (0..n)
            .map(|i| {
                let lo = i as f64 * side / n as f64;
                let hi = (i + 1) as f64 * side / n as f64;
                (normal_cdf(hi, s_mu, s_sigma) - normal_cdf(lo, s_mu, s_sigma)) / s_norm.max(1e-12)
            })
            .collect();

        let mut out = SpatioTemporalMatrix::zeros(slots, cells);
        for (s, &ps) in slot_probs.iter().enumerate() {
            for cy in 0..n {
                for cx in 0..n {
                    let cell = cy * n + cx;
                    out.set(s, cell, total * ps * axis_probs[cx] * axis_probs[cy]);
                }
            }
        }
        out
    }
}

/// Draw `Σ counts` independent trials from the categorical distribution
/// proportional to `counts`, returning the chosen bin index per trial.
fn draw_from_counts(rng: &mut StdRng, counts: &[usize]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    // Cumulative distribution for binary-search sampling.
    let mut cumulative = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in counts {
        acc += c;
        cumulative.push(acc);
    }
    (0..total)
        .map(|_| {
            let u = rng.gen_range(0..total);
            // First bin whose cumulative count exceeds u.
            cumulative.partition_point(|&c| c <= u)
        })
        .collect()
}

/// Sample a uniform location within the bin's grid cell and a uniform time
/// within its slot.
fn sample_within_bin(
    rng: &mut StdRng,
    config: &ProblemConfig,
    bin: usize,
) -> (Location, TimeStamp) {
    let cells = config.grid.num_cells();
    let slot = ftoa_types::SlotId(bin / cells);
    let cell = ftoa_types::CellId(bin % cells);
    let b = config.grid.cell_bounds(cell);
    let loc = Location::new(
        b.min_x + rng.gen::<f64>() * (b.max_x - b.min_x),
        b.min_y + rng.gen::<f64>() * (b.max_y - b.min_y),
    );
    let start = config.slots.slot_start(slot).as_minutes();
    let end = config.slots.slot_end(slot).as_minutes();
    let t = start + rng.gen::<f64>() * (end - start - 1e-9);
    (loc, TimeStamp::minutes(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table4_bold() {
        let c = SyntheticConfig::default();
        assert_eq!(c.num_workers, 20_000);
        assert_eq!(c.num_tasks, 20_000);
        assert_eq!(c.grid_n, 50);
        assert_eq!(c.num_slots, 48);
        assert_eq!(c.dr_slots, 2.0);
        assert_eq!(c.tasks.temporal_mu, 0.5);
        assert_eq!(c.workers.temporal_mu, 0.25);
        let pc = c.problem_config();
        assert!((pc.velocity_cells_per_slot() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SyntheticConfig { num_workers: 50, num_tasks: 50, ..Default::default() };
        let a = cfg.generate(5);
        let b = cfg.generate(5);
        let c = cfg.generate(6);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
    }

    #[test]
    fn stream_has_requested_sizes_and_valid_bounds() {
        let cfg = SyntheticConfig { num_workers: 300, num_tasks: 200, ..Default::default() };
        let s = cfg.generate(1);
        assert_eq!(s.stream.num_workers(), 300);
        assert_eq!(s.stream.num_tasks(), 200);
        let horizon = cfg.horizon_minutes();
        for w in s.stream.workers() {
            assert!(s.config.grid.bounds().contains(&w.location));
            assert!(w.start.as_minutes() >= 0.0 && w.start.as_minutes() <= horizon);
            assert_eq!(w.wait, TimeDelta::minutes(30.0));
        }
        for r in s.stream.tasks() {
            assert!(s.config.grid.bounds().contains(&r.location));
            assert!(r.release.as_minutes() >= 0.0 && r.release.as_minutes() <= horizon);
            assert_eq!(r.patience, TimeDelta::minutes(30.0));
        }
    }

    #[test]
    fn expected_counts_sum_to_totals() {
        let cfg = SyntheticConfig {
            num_workers: 1000,
            num_tasks: 2000,
            grid_n: 10,
            num_slots: 8,
            ..Default::default()
        };
        let s = cfg.generate(2);
        assert!((s.predicted_workers.total() - 1000.0).abs() < 1.0);
        assert!((s.predicted_tasks.total() - 2000.0).abs() < 2.0);
        assert_eq!(s.predicted_workers.num_slots(), 8);
        assert_eq!(s.predicted_workers.num_cells(), 100);
    }

    #[test]
    fn expected_counts_roughly_match_realised_counts() {
        let cfg = SyntheticConfig {
            num_workers: 5000,
            num_tasks: 5000,
            grid_n: 5,
            num_slots: 6,
            ..Default::default()
        };
        let s = cfg.generate(3);
        let (actual_w, _) = s.actual_counts();
        // Compare aggregate per-slot totals: expectation vs realisation.
        for slot in 0..6 {
            let expected = s.predicted_workers.slot_total(slot);
            let actual = actual_w.slot_total(slot);
            assert!(
                (expected - actual).abs() < 0.15 * 5000.0,
                "slot {slot}: expected {expected} vs actual {actual}"
            );
        }
    }

    #[test]
    fn weighted_knobs_do_not_perturb_arrival_draws() {
        let unit = SyntheticConfig { num_workers: 80, num_tasks: 90, ..Default::default() };
        let weighted = SyntheticConfig {
            task_payoff: Some((0.5, 4.0)),
            worker_capacity: Some((1, 3)),
            ..unit.clone()
        };
        let a = unit.generate(13);
        let b = weighted.generate(13);
        // Same seed → identical arrival sequence (times and locations): the
        // weighted draws happen after, and only because they are enabled.
        for (wa, wb) in a.stream.workers().iter().zip(b.stream.workers()) {
            assert_eq!(wa.location, wb.location);
            assert_eq!(wa.start, wb.start);
            assert_eq!(wa.capacity, 1);
            assert!((1..=3).contains(&wb.capacity));
        }
        for (ta, tb) in a.stream.tasks().iter().zip(b.stream.tasks()) {
            assert_eq!(ta.location, tb.location);
            assert_eq!(ta.release, tb.release);
            assert_eq!(ta.payoff, 1.0);
            assert!((0.5..=4.0).contains(&tb.payoff));
        }
        // And a non-degenerate range actually produces non-unit values.
        assert!(b.stream.workers().iter().any(|w| w.capacity > 1));
        assert!(b.stream.tasks().iter().any(|t| t.payoff != 1.0));
    }

    #[test]
    fn task_distribution_shift_moves_mass() {
        // Moving the task spatial mean to 0.75 should shift tasks to the
        // upper-right cells.
        let near = SyntheticConfig {
            num_workers: 10,
            num_tasks: 2000,
            grid_n: 2,
            num_slots: 4,
            tasks: DistributionParams { spatial_mean: 0.25, ..DistributionParams::tasks_default() },
            ..Default::default()
        };
        let far = SyntheticConfig {
            tasks: DistributionParams { spatial_mean: 0.75, ..DistributionParams::tasks_default() },
            ..near.clone()
        };
        let sn = near.generate(9);
        let sf = far.generate(9);
        let (_, tn) = sn.actual_counts();
        let (_, tf) = sf.actual_counts();
        // Cell 0 is the bottom-left quadrant, cell 3 the top-right.
        assert!(tn.cell_total(0) > tf.cell_total(0));
        assert!(tf.cell_total(3) > tn.cell_total(3));
    }
}
