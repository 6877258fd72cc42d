//! Reproduces Figure 6 of the paper: the effect of the tasks' temporal
//! (μ, σ) and spatial (mean, cov) distribution parameters on synthetic data.
//!
//! Usage: `figure6 [--sweep mu|sigma|mean|cov|all] [--scale F] [--no-opt]`
//!
//! Arguments are parsed strictly (see `experiments::cli`).

use experiments::cli;
use experiments::figures::{fig6_vary_distribution, Fig6Parameter};
use experiments::runner::SuiteOptions;

const USAGE: &str = "usage: figure6 [--sweep mu|sigma|mean|cov|all] [--scale F] [--no-opt]";

fn main() {
    let (sweep, scale, include_opt) =
        cli::parse_or_exit(USAGE, &["--sweep", "--scale"], &["--no-opt"], |args| {
            Ok((
                args.name("--sweep", &["mu", "sigma", "mean", "cov", "all"], "all")?,
                args.number("--scale", 0.25)?,
                !args.has("--no-opt"),
            ))
        });
    let opts = SuiteOptions { include_opt, ..Default::default() };

    println!("Figure 6 reproduction (object scale {scale})\n");
    let params = [
        ("mu", Fig6Parameter::TemporalMu),
        ("sigma", Fig6Parameter::TemporalSigma),
        ("mean", Fig6Parameter::SpatialMean),
        ("cov", Fig6Parameter::SpatialCov),
    ];
    for (name, param) in params {
        if sweep == "all" || sweep == name {
            println!("{}", fig6_vary_distribution(param, scale, &opts).to_text());
        }
    }
}
