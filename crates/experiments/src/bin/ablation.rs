//! Ablation studies beyond the paper's figures:
//!
//! * prediction-noise sensitivity of POLAR vs. POLAR-OP,
//! * guide objective (max-cardinality vs. min-cost max-cardinality).
//!
//! Usage: `ablation [--scale F]`. Arguments are parsed strictly (see
//! `experiments::cli`).

use experiments::cli;
use experiments::figures::{ablation_guide_objective, ablation_prediction_noise};
use experiments::runner::SuiteOptions;

const USAGE: &str = "usage: ablation [--scale F]";

fn main() {
    let scale: f64 =
        cli::parse_or_exit(USAGE, &["--scale"], &[], |args| args.number("--scale", 0.25));
    let opts = SuiteOptions::default();

    println!("Ablations (object scale {scale})\n");
    println!("{}", ablation_prediction_noise(scale, &[0.0, 0.25, 0.5, 1.0, 2.0], &opts).to_text());
    println!("{}", ablation_guide_objective(scale).to_text());
}
