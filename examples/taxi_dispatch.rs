//! Taxi-dispatch scenario: the full two-step pipeline on a (scaled-down)
//! Beijing-like day — exactly the workload class that motivates the paper.
//!
//! 1. Generate four weeks of historical per-slot/per-cell counts.
//! 2. Train the HP-MSI predictor (the paper's pick) and compare it with the
//!    simple Historical Average on the held-out day.
//! 3. Build the offline guide from the forecast and dispatch taxis online
//!    with POLAR-OP; compare against SimpleGreedy and the offline optimum.
//!
//! Run with: `cargo run --release --example taxi_dispatch`

use ftoa::core_algorithms::{Instance, OfflineGuide, OnlineAlgorithm, Opt, PolarOp, SimpleGreedy};
use ftoa::prediction::{error_rate, HistoricalAverage, HpMsi, Predictor, Quantity};
use ftoa::workload::city::CityWorkload;
use ftoa::workload::CityConfig;

fn main() {
    // 1/20 of the Beijing daily volume keeps this example under a minute.
    let city = CityWorkload::new(CityConfig::beijing().scaled_down(20));
    println!(
        "City: {} (~{} taxis and ~{} requests per day, {} grid cells, {} slots)",
        city.config().name,
        city.config().num_workers,
        city.config().num_tasks,
        city.config().grid_nx * city.config().grid_ny,
        city.config().num_slots,
    );

    // Offline step: history + prediction.
    let history_days = 28;
    let (scenario, history) = city.generate_scenario(&HpMsi::default(), history_days);
    let (meta, truth_workers, truth_tasks) = city.test_day_truth(history_days);

    let ha_tasks = HistoricalAverage.predict(&history, Quantity::Tasks, &meta);
    println!("\nPrediction error on the held-out day (task counts, lower is better):");
    println!("  HP-MSI error rate: {:.3}", error_rate(&truth_tasks, &scenario.predicted_tasks));
    println!("  HA     error rate: {:.3}", error_rate(&truth_tasks, &ha_tasks));
    println!(
        "  (truth: {:.0} requests, {:.0} taxis on the test day)",
        truth_tasks.total(),
        truth_workers.total()
    );

    // Online step: dispatch.
    let instance = Instance::new(
        &scenario.config,
        &scenario.stream,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );
    let guide = OfflineGuide::build(
        &scenario.config,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );
    let polar_op = PolarOp::default().run_with_guide(&instance, &guide);
    let greedy = SimpleGreedy.run(&instance);
    let opt = Opt.run(&instance);

    println!("\nOnline dispatch on the test day:");
    println!(
        "  SimpleGreedy : {:5} served   (CR {:.3})",
        greedy.matching_size(),
        greedy.competitive_ratio(&opt)
    );
    println!(
        "  POLAR-OP     : {:5} served   (CR {:.3})",
        polar_op.matching_size(),
        polar_op.competitive_ratio(&opt)
    );
    println!("  OPT          : {:5} served", opt.matching_size());
    let gain = polar_op.matching_size() as f64 / greedy.matching_size().max(1) as f64;
    println!("\nGuiding idle taxis with the predictive guide served {:.1}% more requests than waiting in place.", (gain - 1.0) * 100.0);
}
