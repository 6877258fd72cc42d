//! Cross-crate integration tests: workload generation → prediction → guide →
//! online algorithms → reports, through the public facade.

use ftoa::experiments::runner::{run_suite, SuiteOptions};
use ftoa::experiments::table5::Table5;
use ftoa::prediction::{error_rate, HistoricalAverage, HpMsi, Predictor, Quantity};
use ftoa::workload::city::CityWorkload;
use ftoa::workload::{CityConfig, SyntheticConfig};

fn small_synthetic() -> ftoa::workload::Scenario {
    SyntheticConfig {
        num_workers: 600,
        num_tasks: 600,
        grid_n: 20,
        num_slots: 12,
        ..Default::default()
    }
    .generate(99)
}

#[test]
fn synthetic_suite_preserves_the_papers_ordering() {
    // Use the realised counts as the prediction (the i.i.d. model's ideal
    // case): at this small scale the analytic expectation is too sparse to
    // exercise the ordering reliably, whereas the algorithms themselves are
    // what this test pins down.
    let scenario = small_synthetic().with_perfect_prediction();
    let results = run_suite(&scenario, &SuiteOptions::default());
    let size = |name: &str| {
        results.iter().find(|r| r.algorithm == name).map(|r| r.matching_size()).unwrap()
    };
    let opt = size("OPT");
    // Headline result of the paper: POLAR-OP >= POLAR and both prediction-
    // guided algorithms beat the wait-in-place baselines; nobody beats OPT.
    assert!(size("POLAR-OP") >= size("POLAR"));
    assert!(size("POLAR-OP") > size("SimpleGreedy"));
    assert!(size("POLAR-OP") > size("GR"));
    for name in ["SimpleGreedy", "GR", "POLAR", "POLAR-OP"] {
        assert!(size(name) <= opt, "{name} exceeded OPT");
    }
    // Empirical competitive ratio of POLAR-OP should clear the 0.47 bound on
    // this well-predicted instance.
    assert!(size("POLAR-OP") as f64 / opt as f64 >= 0.47);
}

#[test]
fn city_pipeline_with_learned_prediction() {
    let city = CityWorkload::new(CityConfig::beijing().scaled_down(100));
    let (scenario, history) = city.generate_scenario(&HpMsi::default(), 14);
    assert_eq!(history.len(), 14);
    let results = run_suite(&scenario, &SuiteOptions::default());
    let size = |name: &str| {
        results.iter().find(|r| r.algorithm == name).map(|r| r.matching_size()).unwrap()
    };
    assert!(size("OPT") > 0, "the city day must admit some assignments");
    assert!(size("POLAR-OP") <= size("OPT"));
    for r in &results {
        r.assignments
            .validate_flexible(
                scenario.stream.workers(),
                scenario.stream.tasks(),
                scenario.config.velocity,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", r.algorithm));
    }
}

#[test]
fn better_predictions_do_not_hurt_polar_op() {
    // Perfect prediction vs. heavily noised prediction on the same stream.
    let base = small_synthetic().with_perfect_prediction();
    let noisy = base.clone().with_prediction_noise(2.0, 7);
    let opts = SuiteOptions { include_opt: false, ..SuiteOptions::default() };
    let perfect_results = run_suite(&base, &opts);
    let noisy_results = run_suite(&noisy, &opts);
    let perfect = perfect_results.iter().find(|r| r.algorithm == "POLAR-OP").unwrap();
    let noisy_r = noisy_results.iter().find(|r| r.algorithm == "POLAR-OP").unwrap();
    // Noise may reduce the matching; it should not (systematically) improve it.
    assert!(noisy_r.matching_size() <= perfect.matching_size() + 5);
}

#[test]
fn table5_identifies_a_sensible_best_predictor() {
    let mut beijing = CityConfig::beijing();
    beijing.grid_nx = 8;
    beijing.grid_ny = 10;
    let table = Table5::evaluate(&[beijing], 50, 21);
    assert_eq!(table.scores.len(), 7);
    let best = table.best_predictor().expect("a best predictor exists");
    // On the weekly-structured city workload the informed predictors must
    // beat pure time-series extrapolation.
    assert_ne!(best, "ARIMA");
    // HP-MSI (the paper's choice) should be no worse than the naive HA in ER.
    let hp = table.score("HP-MSI", "Beijing").unwrap();
    let ha = table.score("HA", "Beijing").unwrap();
    assert!(hp.task_er <= ha.task_er * 1.35, "HP-MSI {:.3} vs HA {:.3}", hp.task_er, ha.task_er);
}

#[test]
fn prediction_error_propagates_to_matching_quality() {
    // HP-MSI (the paper's chosen predictor) should beat the naive historical
    // average on a city day whose per-cell counts are not degenerate.
    let mut cfg = CityConfig::hangzhou().scaled_down(50);
    cfg.grid_nx = 8;
    cfg.grid_ny = 10;
    let city = CityWorkload::new(cfg);
    let days = 14;
    let (meta, _, truth_tasks) = city.test_day_truth(days);
    let history = city.generate_history(days);

    let hp = HpMsi::default();
    let ha = HistoricalAverage;
    let er_hp = error_rate(&truth_tasks, &hp.predict(&history, Quantity::Tasks, &meta));
    let er_ha = error_rate(&truth_tasks, &ha.predict(&history, Quantity::Tasks, &meta));
    assert!(er_hp.is_finite() && er_ha.is_finite());
    assert!(er_hp < 1.0, "HP-MSI error rate {er_hp}");
    assert!(er_hp <= er_ha * 1.1, "HP-MSI {er_hp} should not be worse than HA {er_ha}");
}
