//! Quickstart: build a small synthetic instance, run all five algorithms and
//! print their matching sizes and empirical competitive ratios.
//!
//! Run with: `cargo run --release --example quickstart`

use ftoa::core_algorithms::{
    BatchGreedy, Instance, OfflineGuide, OnlineAlgorithm, Opt, Polar, PolarOp, SimpleGreedy,
};
use ftoa::workload::SyntheticConfig;

fn main() {
    // A 2,000-worker / 2,000-task day on the paper's default synthetic
    // configuration (50x50 grid, 48 slots of 15 minutes, Dr = 2 slots).
    let scenario =
        SyntheticConfig { num_workers: 2_000, num_tasks: 2_000, ..SyntheticConfig::default() }
            .generate(2017);

    println!(
        "Scenario: {} workers, {} tasks, {} grid cells, {} time slots",
        scenario.stream.num_workers(),
        scenario.stream.num_tasks(),
        scenario.config.grid.num_cells(),
        scenario.config.slots.num_slots(),
    );

    let instance = Instance::new(
        &scenario.config,
        &scenario.stream,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );

    // Step 1 (offline): build the guide from the predicted counts.
    let guide = OfflineGuide::build(
        &scenario.config,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    );
    println!(
        "Offline guide: {} predicted workers, {} predicted tasks, pseudo matching |E*| = {}\n",
        guide.num_worker_nodes(),
        guide.num_task_nodes(),
        guide.matching_size()
    );

    // Step 2 (online): run every algorithm on the arrival stream.
    let opt = Opt.run(&instance);
    let algorithms: Vec<(String, ftoa::core_algorithms::AlgorithmResult)> = vec![
        ("SimpleGreedy".into(), SimpleGreedy.run(&instance)),
        ("GR".into(), BatchGreedy::default().run(&instance)),
        ("POLAR".into(), Polar::default().run_with_guide(&instance, &guide)),
        ("POLAR-OP".into(), PolarOp::default().run_with_guide(&instance, &guide)),
    ];

    println!("{:<14}{:>14}{:>14}{:>12}", "algorithm", "matching", "CR vs OPT", "time (ms)");
    for (name, result) in &algorithms {
        println!(
            "{:<14}{:>14}{:>14.3}{:>12.2}",
            name,
            result.matching_size(),
            result.competitive_ratio(&opt),
            result.runtime.as_secs_f64() * 1000.0
        );
    }
    println!(
        "{:<14}{:>14}{:>14.3}{:>12.2}",
        "OPT",
        opt.matching_size(),
        1.0,
        opt.runtime.as_secs_f64() * 1000.0
    );
}
