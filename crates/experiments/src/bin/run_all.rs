//! Runs every experiment of the evaluation (Figures 4–6, Table 5, ablations)
//! at a laptop-friendly scale and prints all report tables.
//!
//! Usage: `run_all [--scale F] [--city-scale-down N] [--quick]`
//!
//! `--quick` shrinks everything further (useful as a smoke test). Arguments
//! are parsed strictly (see `experiments::cli`).

use experiments::cli;
use experiments::figures::{self, Fig6Parameter};
use experiments::runner::SuiteOptions;
use experiments::table5::Table5;
use workload::CityConfig;

const USAGE: &str = "usage: run_all [--scale F] [--city-scale-down N] [--quick]";

fn main() {
    let (quick, scale, city_scale_down) =
        cli::parse_or_exit(USAGE, &["--scale", "--city-scale-down"], &["--quick"], |args| {
            let quick = args.has("--quick");
            Ok((
                quick,
                args.number("--scale", if quick { 0.02 } else { 0.25 })?,
                args.number::<usize>("--city-scale-down", if quick { 100 } else { 10 })?,
            ))
        });
    let history_days = if quick { 10 } else { 28 };
    let opts = SuiteOptions::default();

    println!("FTOA full evaluation (object scale {scale}, city scale-down 1/{city_scale_down})\n");

    println!("{}", figures::fig4_vary_workers(scale, &opts).to_text());
    println!("{}", figures::fig4_vary_tasks(scale, &opts).to_text());
    println!("{}", figures::fig4_vary_deadline(scale, &opts).to_text());
    println!("{}", figures::fig4_vary_grid(scale, &opts).to_text());

    println!("{}", figures::fig5_vary_slots(scale, &opts).to_text());
    println!("{}", figures::fig5_scalability(scale / 10.0, &opts).to_text());
    println!("{}", figures::fig5_beijing(city_scale_down, &opts).to_text());
    println!("{}", figures::fig5_hangzhou(city_scale_down, &opts).to_text());

    for param in [
        Fig6Parameter::TemporalMu,
        Fig6Parameter::TemporalSigma,
        Fig6Parameter::SpatialMean,
        Fig6Parameter::SpatialCov,
    ] {
        println!("{}", figures::fig6_vary_distribution(param, scale, &opts).to_text());
    }

    let table5 = Table5::evaluate(
        &[CityConfig::beijing(), CityConfig::hangzhou()],
        city_scale_down,
        history_days,
    );
    println!("{}", table5.to_text());

    println!("{}", figures::ablation_prediction_noise(scale, &[0.0, 0.5, 1.0], &opts).to_text());
    println!("{}", figures::ablation_guide_objective(scale).to_text());
}
