//! Offline-prediction comparison: reproduce a miniature Table 5 and show how
//! prediction quality propagates into online matching size.
//!
//! For each predictor we (1) measure ER / RMLSE on a held-out day of the
//! Hangzhou-like workload, and (2) feed its forecast into the offline guide
//! and run POLAR-OP, reporting the resulting matching size. Better forecasts
//! should translate into more served requests.
//!
//! Run with: `cargo run --release --example prediction_comparison`

use ftoa::core_algorithms::{Instance, OfflineGuide, OnlineAlgorithm, Opt, PolarOp};
use ftoa::prediction::{all_predictors, error_rate, rmlse, Quantity};
use ftoa::workload::city::CityWorkload;
use ftoa::workload::CityConfig;

fn main() {
    let history_days = 28;
    let city = CityWorkload::new(CityConfig::hangzhou().scaled_down(25));
    let history = city.generate_history(history_days);
    let (meta, truth_workers, truth_tasks) = city.test_day_truth(history_days);

    println!(
        "Hangzhou-like workload at 1/25 scale: {} days of history, test day has {:.0} tasks / {:.0} workers\n",
        history_days,
        truth_tasks.total(),
        truth_workers.total()
    );
    println!(
        "{:<10}{:>12}{:>12}{:>12}{:>12}{:>16}",
        "method", "task RMLSE", "task ER", "worker ER", "|E*| guide", "POLAR-OP size"
    );

    let opt_size = {
        // Reference: the offline optimum is prediction-independent.
        let (scenario, _) =
            city.generate_scenario(&ftoa::prediction::HistoricalAverage, history_days);
        let instance = Instance::new(
            &scenario.config,
            &scenario.stream,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        Opt.run(&instance).matching_size()
    };

    for predictor in all_predictors() {
        let pred_tasks = predictor.predict(&history, Quantity::Tasks, &meta);
        let pred_workers = predictor.predict(&history, Quantity::Workers, &meta);
        let (scenario, _) = city.generate_scenario(predictor.as_ref(), history_days);
        let guide = OfflineGuide::build(
            &scenario.config,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let instance = Instance::new(
            &scenario.config,
            &scenario.stream,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let polar_op = PolarOp::default().run_with_guide(&instance, &guide);
        println!(
            "{:<10}{:>12.3}{:>12.3}{:>12.3}{:>12}{:>16}",
            predictor.name(),
            rmlse(&truth_tasks, &pred_tasks),
            error_rate(&truth_tasks, &pred_tasks),
            error_rate(&truth_workers, &pred_workers),
            guide.matching_size(),
            polar_op.matching_size(),
        );
    }
    println!("\nOffline optimum on the same day: {opt_size} served requests.");
}
