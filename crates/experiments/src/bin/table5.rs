//! Reproduces Table 5 of the paper: RMLSE and Error Rate of the seven
//! offline prediction approaches on the Beijing and Hangzhou workloads.
//!
//! Usage: `table5 [--scale-down N] [--history-days D] [--csv]`
//!
//! Defaults: `--scale-down 10` (≈5k objects per day per side) and 28 days of
//! training history before the held-out test day. Arguments are parsed
//! strictly (see `experiments::cli`).

use experiments::cli;
use experiments::table5::Table5;
use workload::CityConfig;

const USAGE: &str = "usage: table5 [--scale-down N] [--history-days D] [--csv]";

fn main() {
    let (scale_down, history_days, csv) =
        cli::parse_or_exit(USAGE, &["--scale-down", "--history-days"], &["--csv"], |args| {
            Ok((
                args.number::<usize>("--scale-down", 10)?,
                args.number::<usize>("--history-days", 28)?,
                args.has("--csv"),
            ))
        });

    println!(
        "Table 5 reproduction (city scale-down 1/{scale_down}, {history_days} days of history)\n"
    );
    let table = Table5::evaluate(
        &[CityConfig::beijing(), CityConfig::hangzhou()],
        scale_down,
        history_days,
    );
    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.to_text());
    }
}
