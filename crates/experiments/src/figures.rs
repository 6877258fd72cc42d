//! Parameter sweeps reproducing Figures 4, 5 and 6, plus ablations.
//!
//! Every function returns a [`SweepReport`] holding the same three series
//! families the corresponding figure plots (matching size, running time,
//! memory) for the same sweep of the same parameter.
//!
//! All sweeps accept an `object_scale` in `(0, 1]` that scales the *number of
//! workers and tasks* relative to the paper's sizes, so that the full
//! evaluation can be reproduced on a laptop (the paper used a 32-core,
//! 128 GB server for the city datasets). The parameter grids themselves are
//! the paper's (Table 4 / Table 3); only the object counts shrink. Use
//! `object_scale = 1.0` to run at full size.

use crate::report::SweepReport;
use crate::runner::{run_matrix, run_suite, Algo, SuiteOptions};
use ftoa_runtime::JobPool;
use prediction::{HpMsi, Predictor};
use workload::city::CityWorkload;
use workload::synthetic::DistributionParams;
use workload::{CityConfig, Scenario, SyntheticConfig};

/// Base RNG seed used by all sweeps (one per sweep point offset).
const BASE_SEED: u64 = 0x0000_F70A_2017;

fn scaled(count: usize, object_scale: f64) -> usize {
    ((count as f64 * object_scale).round() as usize).max(10)
}

/// Default synthetic configuration (Table 4 bold entries) at a given scale.
fn default_synthetic(object_scale: f64) -> SyntheticConfig {
    SyntheticConfig {
        num_workers: scaled(20_000, object_scale),
        num_tasks: scaled(20_000, object_scale),
        ..SyntheticConfig::default()
    }
}

fn sweep_synthetic<F>(
    title: &str,
    x_label: &str,
    values: &[(String, F)],
    opts: &SuiteOptions,
) -> SweepReport
where
    F: Fn() -> SyntheticConfig + Sync,
{
    let mut report = SweepReport::new(title, x_label);
    // One shared seed per sweep: points differ only in the swept parameter,
    // which keeps monotone relationships (e.g. matching size vs. deadline)
    // exactly monotone instead of up to sampling noise.
    //
    // Generation fans out per point and the (point × algorithm) cells fan
    // out through `run_matrix`, both over the same deterministic pool, so
    // the report (and its CSV rendering) is identical at any thread count.
    // Points are processed in windows of the pool width: at most `threads`
    // scenarios are resident at once, so a serial run peaks at one scenario
    // exactly like the pre-parallel loop did (a full-scale scalability
    // sweep holds millions of objects per point — materialising every point
    // up front would multiply the footprint by the sweep length).
    let pool = JobPool::new(opts.threads);
    for group in values.chunks(pool.threads().max(1)) {
        let scenarios: Vec<Scenario> = pool
            .par_map_indexed(group.iter().map(|(_, make)| make).collect(), |_, make| {
                make().generate(BASE_SEED)
            });
        let rows = run_matrix(&scenarios, opts, Algo::suite(opts.include_opt));
        for ((label, _), results) in group.iter().zip(&rows) {
            report.record(label.clone(), results);
        }
    }
    report
}

/// Figure 4(a,e,i): varying `|W|` ∈ {5k, 10k, 20k, 30k, 40k}.
pub fn fig4_vary_workers(object_scale: f64, opts: &SuiteOptions) -> SweepReport {
    let values: Vec<(String, _)> = [5_000usize, 10_000, 20_000, 30_000, 40_000]
        .iter()
        .map(|&w| {
            let base = default_synthetic(object_scale);
            (w.to_string(), move || SyntheticConfig {
                num_workers: scaled(w, object_scale),
                ..base.clone()
            })
        })
        .collect();
    sweep_synthetic("Figure 4(a,e,i): varying |W|", "|W|", &values, opts)
}

/// Figure 4(b,f,j): varying `|R|` ∈ {5k, 10k, 20k, 30k, 40k}.
pub fn fig4_vary_tasks(object_scale: f64, opts: &SuiteOptions) -> SweepReport {
    let values: Vec<(String, _)> = [5_000usize, 10_000, 20_000, 30_000, 40_000]
        .iter()
        .map(|&r| {
            let base = default_synthetic(object_scale);
            (r.to_string(), move || SyntheticConfig {
                num_tasks: scaled(r, object_scale),
                ..base.clone()
            })
        })
        .collect();
    sweep_synthetic("Figure 4(b,f,j): varying |R|", "|R|", &values, opts)
}

/// Figure 4(c,g,k): varying the task deadline `D_r` ∈ {1.0, …, 3.0} slots.
pub fn fig4_vary_deadline(object_scale: f64, opts: &SuiteOptions) -> SweepReport {
    let values: Vec<(String, _)> = [1.0f64, 1.5, 2.0, 2.5, 3.0]
        .iter()
        .map(|&dr| {
            let base = default_synthetic(object_scale);
            (format!("{dr}"), move || SyntheticConfig { dr_slots: dr, ..base.clone() })
        })
        .collect();
    sweep_synthetic("Figure 4(c,g,k): varying Dr", "Dr (slots)", &values, opts)
}

/// Figure 4(d,h,l): varying the grid resolution g ∈ {20², 30², 50², 100², 200²}.
pub fn fig4_vary_grid(object_scale: f64, opts: &SuiteOptions) -> SweepReport {
    let values: Vec<(String, _)> = [20usize, 30, 50, 100, 200]
        .iter()
        .map(|&g| {
            let base = default_synthetic(object_scale);
            (g.to_string(), move || SyntheticConfig { grid_n: g, ..base.clone() })
        })
        .collect();
    sweep_synthetic("Figure 4(d,h,l): varying the number of grids", "grid", &values, opts)
}

/// Figure 5(a,e,i): varying the number of time slots t ∈ {12, 24, 48, 96, 144}.
pub fn fig5_vary_slots(object_scale: f64, opts: &SuiteOptions) -> SweepReport {
    let values: Vec<(String, _)> = [12usize, 24, 48, 96, 144]
        .iter()
        .map(|&t| {
            let base = default_synthetic(object_scale);
            (t.to_string(), move || SyntheticConfig {
                num_slots: t,
                // Keep the horizon (12 h) and physical velocity fixed as in
                // the paper: one slot is 720/t minutes, velocity stays
                // 1/3 unit per minute, deadlines stay 2 slots.
                slot_minutes: 720.0 / t as f64,
                velocity_units_per_slot: 5.0 * (48.0 / t as f64),
                ..base.clone()
            })
        })
        .collect();
    sweep_synthetic("Figure 5(a,e,i): varying the number of time slots", "slots", &values, opts)
}

/// Figure 5(b,f,j): scalability, `|W| = |R|` ∈ {200k, 400k, 600k, 800k, 1M}.
///
/// OPT is solved in type-aggregated mode at this scale (its exact per-object
/// graph would not fit in memory; the paper likewise omits OPT's time and
/// memory in this experiment while still reporting its matching size).
pub fn fig5_scalability(object_scale: f64, opts: &SuiteOptions) -> SweepReport {
    let opts = SuiteOptions { opt_mode: ftoa_core::algorithms::OptMode::TypeAggregated, ..*opts };
    let values: Vec<(String, _)> = [200_000usize, 400_000, 600_000, 800_000, 1_000_000]
        .iter()
        .map(|&n| {
            let base = default_synthetic(object_scale);
            (n.to_string(), move || SyntheticConfig {
                num_workers: scaled(n, object_scale),
                num_tasks: scaled(n, object_scale),
                ..base.clone()
            })
        })
        .collect();
    sweep_synthetic("Figure 5(b,f,j): scalability test", "|W| = |R|", &values, &opts)
}

/// Figures 5(c,g,k) and 5(d,h,l): varying `D_r` ∈ {0.5, …, 1.5} slots on a
/// city workload (Beijing or Hangzhou), with the offline prediction produced
/// by the given predictor trained on `history_days` of generated history.
pub fn fig5_city_deadline(
    mut city: CityConfig,
    scale_down: usize,
    history_days: usize,
    predictor: &dyn Predictor,
    opts: &SuiteOptions,
) -> SweepReport {
    let name = city.name;
    city = city.scaled_down(scale_down.max(1));
    let mut report = SweepReport::new(
        format!("Figure 5 ({name}): varying Dr (1/{scale_down} scale)"),
        "Dr (slots)",
    );
    for &dr in &[0.5f64, 0.75, 1.0, 1.25, 1.5] {
        let cfg = CityConfig { dr_slots: dr, ..city.clone() };
        let workload = CityWorkload::new(cfg);
        let (scenario, _history) = workload.generate_scenario(predictor, history_days);
        let results = run_suite(&scenario, opts);
        report.record(format!("{dr}"), &results);
    }
    report
}

/// Convenience wrapper: Figure 5(c,g,k), Beijing with the HP-MSI predictor.
pub fn fig5_beijing(scale_down: usize, opts: &SuiteOptions) -> SweepReport {
    fig5_city_deadline(CityConfig::beijing(), scale_down, 28, &HpMsi::default(), opts)
}

/// Convenience wrapper: Figure 5(d,h,l), Hangzhou with the HP-MSI predictor.
pub fn fig5_hangzhou(scale_down: usize, opts: &SuiteOptions) -> SweepReport {
    fig5_city_deadline(CityConfig::hangzhou(), scale_down, 28, &HpMsi::default(), opts)
}

/// Which task-distribution parameter Figure 6 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6Parameter {
    /// Temporal mean μ.
    TemporalMu,
    /// Temporal standard deviation σ.
    TemporalSigma,
    /// Spatial mean.
    SpatialMean,
    /// Spatial covariance (standard deviation).
    SpatialCov,
}

impl Fig6Parameter {
    /// Label used on the x axis.
    pub fn label(self) -> &'static str {
        match self {
            Fig6Parameter::TemporalMu => "mu",
            Fig6Parameter::TemporalSigma => "sigma",
            Fig6Parameter::SpatialMean => "mean",
            Fig6Parameter::SpatialCov => "cov",
        }
    }
}

/// Figure 6: varying one parameter of the tasks' spatiotemporal distribution
/// over {0.25, 0.375, 0.5, 0.625, 0.75} while the workers' distribution stays
/// fixed at 0.25 (the paper's setup).
pub fn fig6_vary_distribution(
    param: Fig6Parameter,
    object_scale: f64,
    opts: &SuiteOptions,
) -> SweepReport {
    let values: Vec<(String, _)> = [0.25f64, 0.375, 0.5, 0.625, 0.75]
        .iter()
        .map(|&v| {
            let base = default_synthetic(object_scale);
            (format!("{v}"), move || {
                let mut tasks = DistributionParams::tasks_default();
                match param {
                    Fig6Parameter::TemporalMu => tasks.temporal_mu = v,
                    Fig6Parameter::TemporalSigma => tasks.temporal_sigma = v,
                    Fig6Parameter::SpatialMean => tasks.spatial_mean = v,
                    Fig6Parameter::SpatialCov => tasks.spatial_cov = v,
                }
                SyntheticConfig { tasks, ..base.clone() }
            })
        })
        .collect();
    sweep_synthetic(
        &format!("Figure 6: varying {} of the task distribution", param.label()),
        param.label(),
        &values,
        opts,
    )
}

/// Ablation (beyond the paper's figures): sensitivity of POLAR / POLAR-OP to
/// prediction error. The guide is built from the *actual* counts perturbed by
/// multiplicative noise of the given magnitudes.
pub fn ablation_prediction_noise(
    object_scale: f64,
    noise_levels: &[f64],
    opts: &SuiteOptions,
) -> SweepReport {
    let mut report = SweepReport::new("Ablation: prediction noise sensitivity", "noise");
    let base: Scenario =
        default_synthetic(object_scale).generate(BASE_SEED + 991).with_perfect_prediction();
    for (i, &noise) in noise_levels.iter().enumerate() {
        let scenario = base.clone().with_prediction_noise(noise, BASE_SEED + 500 + i as u64);
        let results = run_suite(&scenario, opts);
        report.record(format!("{noise}"), &results);
    }
    report
}

/// Ablation: guide objective (plain max-cardinality vs. min-cost
/// max-cardinality) — the paper's note in Section 4 about adding travel costs.
pub fn ablation_guide_objective(object_scale: f64) -> SweepReport {
    use ftoa_core::{GuideObjective, Instance, OfflineGuide, Polar, PolarOp};
    let scenario = default_synthetic(object_scale).generate(BASE_SEED + 777);
    let instance = Instance::new(
        &scenario.config,
        &scenario.stream,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );
    let mut report = SweepReport::new("Ablation: guide objective", "objective");
    for (label, objective) in [
        ("max-card", GuideObjective::MaxCardinality),
        ("min-cost", GuideObjective::MinCostMaxCardinality),
    ] {
        let guide = OfflineGuide::build_with(
            &scenario.config,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
            objective,
        );
        let polar = Polar::default().run_with_guide(&instance, &guide);
        let polar_op = PolarOp::default().run_with_guide(&instance, &guide);
        report.record(label, &[polar, polar_op]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale + reduced option set so the sweeps stay fast in tests.
    fn tiny_opts() -> SuiteOptions {
        SuiteOptions::default()
    }

    #[test]
    fn fig4_worker_sweep_produces_five_points_with_increasing_matchings() {
        let report = fig4_vary_workers(0.01, &tiny_opts());
        assert_eq!(report.len(), 5);
        let opt = report.series("OPT", "matching size").unwrap();
        // More workers => OPT matching size should not decrease (weak check
        // to tolerate sampling noise at tiny scale: allow equality).
        assert!(opt.last().unwrap() >= opt.first().unwrap());
        let polar_op = report.series("POLAR-OP", "matching size").unwrap();
        for (po, o) in polar_op.iter().zip(opt.iter()) {
            assert!(po <= o, "POLAR-OP exceeded OPT");
        }
    }

    #[test]
    fn fig4_deadline_sweep_is_monotone_for_opt() {
        let report = fig4_vary_deadline(0.01, &tiny_opts());
        let opt = report.series("OPT", "matching size").unwrap();
        // Larger deadlines relax constraints, so OPT grows (or stays equal).
        for w in opt.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "OPT decreased when Dr increased: {opt:?}");
        }
    }

    #[test]
    fn fig6_sweeps_cover_all_parameters() {
        for param in [
            Fig6Parameter::TemporalMu,
            Fig6Parameter::TemporalSigma,
            Fig6Parameter::SpatialMean,
            Fig6Parameter::SpatialCov,
        ] {
            let report = fig6_vary_distribution(param, 0.005, &tiny_opts());
            assert_eq!(report.len(), 5);
            assert_eq!(report.algorithms.len(), 5);
        }
    }

    #[test]
    fn city_sweep_runs_at_small_scale() {
        let report = fig5_city_deadline(
            CityConfig::beijing(),
            200,
            7,
            &prediction::HistoricalAverage,
            &tiny_opts(),
        );
        assert_eq!(report.len(), 5);
        assert!(report.series("POLAR-OP", "matching size").is_some());
    }

    #[test]
    fn noise_ablation_degrades_or_preserves_polar_matchings() {
        let report = ablation_prediction_noise(0.01, &[0.0, 1.0], &tiny_opts());
        assert_eq!(report.len(), 2);
        let polar_op = report.series("POLAR-OP", "matching size").unwrap();
        // With heavy noise POLAR-OP should not get *better* than with the
        // perfect prediction (allow small tolerance for tie situations).
        assert!(polar_op[1] <= polar_op[0] + 2.0);
    }

    #[test]
    fn guide_objective_ablation_reports_both_objectives() {
        let report = ablation_guide_objective(0.01);
        assert_eq!(report.len(), 2);
        assert_eq!(report.algorithms, vec!["POLAR".to_string(), "POLAR-OP".to_string()]);
    }
}
