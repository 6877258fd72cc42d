//! Reproduces Figure 5 of the paper: varying the number of time slots,
//! the scalability sweep, and the Beijing / Hangzhou deadline sweeps.
//!
//! Usage: `figure5 [--sweep slots|scale|beijing|hangzhou|all] [--scale F]
//!                 [--city-scale-down N] [--no-opt]`
//!
//! Defaults: `--scale 0.25` for the synthetic sweeps, `--city-scale-down 10`
//! for the city workloads (≈5k workers and tasks per day), and the
//! scalability sweep runs at `--scale / 10` because its paper sizes reach one
//! million objects per side. Arguments are parsed strictly (see
//! `experiments::cli`).
//!
//! OPT is the exact offline optimum. It stores every feasible pair, and
//! their number grows with the square of the density: 100k + 100k objects
//! peaked at 1.04 GB. At the paper's own Figure 5 sizes (`--scale 10`)
//! pass `--no-opt`.

use experiments::cli;
use experiments::figures;
use experiments::runner::SuiteOptions;

const USAGE: &str = "usage: figure5 [--sweep slots|scale|beijing|hangzhou|all] [--scale F] \
                     [--city-scale-down N] [--no-opt]\n\
                     OPT stores every feasible pair (1.04 GB at 100k + 100k); pass --no-opt \
                     at the paper's sizes (--scale 10).";

fn main() {
    let (sweep, scale, city_scale_down, include_opt) = cli::parse_or_exit(
        USAGE,
        &["--sweep", "--scale", "--city-scale-down"],
        &["--no-opt"],
        |args| {
            Ok((
                args.name("--sweep", &["slots", "scale", "beijing", "hangzhou", "all"], "all")?,
                args.number("--scale", 0.25)?,
                args.number::<usize>("--city-scale-down", 10)?,
                !args.has("--no-opt"),
            ))
        },
    );
    let opts = SuiteOptions { include_opt, ..Default::default() };

    println!("Figure 5 reproduction (object scale {scale}, city scale-down 1/{city_scale_down})\n");
    let run = |name: &str| sweep == "all" || sweep == name;
    if run("slots") {
        println!("{}", figures::fig5_vary_slots(scale, &opts).to_text());
    }
    if run("scale") {
        println!("{}", figures::fig5_scalability(scale / 10.0, &opts).to_text());
    }
    if run("beijing") {
        println!("{}", figures::fig5_beijing(city_scale_down, &opts).to_text());
    }
    if run("hangzhou") {
        println!("{}", figures::fig5_hangzhou(city_scale_down, &opts).to_text());
    }
}
