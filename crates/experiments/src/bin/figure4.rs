//! Reproduces Figure 4 of the paper: matching size, running time and memory
//! when varying `|W|`, `|R|`, `D_r` and the grid resolution on synthetic data.
//!
//! Usage: `figure4 [--sweep workers|tasks|deadline|grid|all] [--scale F] [--no-opt]`
//!
//! `--scale` multiplies the paper's object counts (default 0.25 so the full
//! figure regenerates in minutes on a laptop; use `--scale 1.0` for the
//! paper-sized instances). Arguments are parsed strictly (see
//! `experiments::cli`).

use experiments::cli;
use experiments::figures;
use experiments::runner::SuiteOptions;

const USAGE: &str =
    "usage: figure4 [--sweep workers|tasks|deadline|grid|all] [--scale F] [--no-opt]";

fn main() {
    let (sweep, scale, include_opt) =
        cli::parse_or_exit(USAGE, &["--sweep", "--scale"], &["--no-opt"], |args| {
            Ok((
                args.name("--sweep", &["workers", "tasks", "deadline", "grid", "all"], "all")?,
                args.number("--scale", 0.25)?,
                !args.has("--no-opt"),
            ))
        });
    let opts = SuiteOptions { include_opt, ..Default::default() };

    println!("Figure 4 reproduction (object scale {scale}, OPT included: {})\n", opts.include_opt);
    let run = |name: &str| sweep == "all" || sweep == name;
    if run("workers") {
        println!("{}", figures::fig4_vary_workers(scale, &opts).to_text());
    }
    if run("tasks") {
        println!("{}", figures::fig4_vary_tasks(scale, &opts).to_text());
    }
    if run("deadline") {
        println!("{}", figures::fig4_vary_deadline(scale, &opts).to_text());
    }
    if run("grid") {
        println!("{}", figures::fig4_vary_grid(scale, &opts).to_text());
    }
}
