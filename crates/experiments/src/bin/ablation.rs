//! Ablation studies beyond the paper's figures:
//!
//! * prediction-noise sensitivity of POLAR vs. POLAR-OP,
//! * guide objective (max-cardinality vs. min-cost max-cardinality).
//!
//! Usage: `ablation [--scale F]`

use experiments::figures::{ablation_guide_objective, ablation_prediction_noise};
use experiments::runner::SuiteOptions;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_value(&args, "--scale").and_then(|v| v.parse().ok()).unwrap_or(0.25);
    let opts = SuiteOptions::default();

    println!("Ablations (object scale {scale})\n");
    println!("{}", ablation_prediction_noise(scale, &[0.0, 0.25, 0.5, 1.0, 2.0], &opts).to_text());
    println!("{}", ablation_guide_objective(scale).to_text());
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}
