//! Replay a recorded trace through the algorithm suite — and capture new
//! traces from the built-in scenario presets.
//!
//! Replay mode (the default):
//!
//! ```text
//! replay --trace traces/fixture_small.trace [--algo all|name[,name...]]
//!        [--backend grid|linear|kd|hybrid] [--threads N]
//!        [--deterministic-only] [--out metrics.json]
//! ```
//!
//! Arguments are parsed strictly: an unrecognised flag, a positional token,
//! a flag missing its value or a flag given twice prints a diagnostic plus
//! the usage line and exits with code 2 (`--algos` is not `--algo`; it is
//! rejected, not silently ignored). Every other failure — a bad flag value,
//! an unreadable or malformed trace, an unparsable environment knob — prints
//! only its diagnostic and exits with code 1. Environment knobs are
//! validated eagerly: an unparsable `FTOA_KERNEL` or `FTOA_JOBS` aborts the
//! run before any work happens.
//!
//! Runs the selected algorithms (default: all five; the flow-backed batch
//! policies `batch-mf` / `batch-hun` must be named explicitly) over the
//! trace via `Trace::into_scenario` + `ReplayConfig` — predictions are the
//! trace's realised counts (`Scenario::actual_counts`) — and writes a `ftoa-replay-metrics v1` JSON document to `--out` (stdout if
//! omitted). Replaying a v2 trace additionally reports each algorithm's
//! `capacity_utilisation` against the stream's total worker capacity.
//! `--threads N` fans the algorithm cells over N workers of the
//! deterministic `ftoa_runtime::JobPool` (default: `FTOA_JOBS` or the
//! available hardware parallelism; the reduction is ordered, so the output
//! is byte-identical at any setting). Note that concurrent cells contend
//! for cache and memory bandwidth — pass `--threads 1` when the
//! `runtime_secs` fields are meant as clean per-algorithm timings rather
//! than throughput. With `--deterministic-only` the
//! timing/memory/thread fields are omitted so the output is byte-stable;
//! the CI `replay-regression` job diffs exactly that output against
//! `traces/golden_metrics.json` — and runs it at `--threads 4`, which pins
//! parallel correctness against the same golden file. The `FTOA_KERNEL`
//! environment variable (validated up front, reported in the header line)
//! pins the distance-kernel implementation; the CI `kernel-dispatch` matrix
//! replays the goldens under `scalar` and `auto` and requires identical
//! bytes from both. Each engine run itself is serial: the policies commit
//! one event at a time, so parallelism stops at the algorithm cells.
//!
//! Capture mode:
//!
//! ```text
//! replay --capture fixture|fixture-weighted|hotspot|rush-hour|imbalance|synthetic
//!        [--seed N] [--scale F] [--ratio R] --out file.trace
//! ```
//!
//! Generates the named preset deterministically and writes it as a v2 trace
//! file. `traces/fixture_small.trace` is `--capture fixture` verbatim (as a
//! legacy v1 file) and `traces/fixture_weighted.trace` is
//! `--capture fixture-weighted`; see the README for the regeneration recipe.

use experiments::metrics::ReplayMetrics;
use experiments::runner::{Algo, ReplayConfig, SuiteOptions};
use ftoa_core::engine::kernels::KernelKind;
use ftoa_core::IndexBackend;
use ftoa_runtime::JobPool;
use workload::{presets, Scenario, TraceReader, TraceVersion, TraceWriter};

const USAGE: &str = "usage: replay --trace <file> [--algo all|name,..] \
                     [--backend grid|linear|kd|hybrid] [--threads N] \
                     [--deterministic-only] [--out <file>]\n       \
                     replay --capture <fixture|fixture-weighted|hotspot|rush-hour|imbalance|synthetic> \
                     [--seed N] [--scale F] [--ratio R] --out <file>";

/// Flags that consume the following token as their value.
const VALUE_FLAGS: &[&str] = &[
    "--trace",
    "--algo",
    "--backend",
    "--threads",
    "--out",
    "--capture",
    "--seed",
    "--scale",
    "--ratio",
];

/// Strictly parsed command line: every token is either a known value flag
/// (with its value), a known boolean flag, or an error. No pair-scanning —
/// a typo like `--algos` is a hard usage error, never silently ignored.
struct Cli {
    values: Vec<(&'static str, String)>,
    deterministic_only: bool,
}

impl Cli {
    /// Parse the argument list. `Ok(None)` means `--help` was requested.
    fn parse(args: &[String]) -> Result<Option<Cli>, String> {
        let mut cli = Cli { values: Vec::new(), deterministic_only: false };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--help" | "-h" => return Ok(None),
                "--deterministic-only" => {
                    if cli.deterministic_only {
                        return Err("flag --deterministic-only given twice".into());
                    }
                    cli.deterministic_only = true;
                }
                other => match VALUE_FLAGS.iter().find(|&&f| f == other) {
                    Some(&flag) => {
                        let value =
                            iter.next().ok_or_else(|| format!("{flag} is missing its value"))?;
                        if cli.values.iter().any(|(f, _)| *f == flag) {
                            return Err(format!("flag {flag} given twice"));
                        }
                        cli.values.push((flag, value.clone()));
                    }
                    None => return Err(format!("unrecognised argument `{other}`")),
                },
            }
        }
        Ok(Some(cli))
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v.parse().map_err(|_| format!("invalid value for {flag}: `{v}`")),
            None => Ok(default),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&cli) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run(cli: &Cli) -> Result<(), String> {
    // Validate every environment knob eagerly, whatever mode runs: a bad
    // `FTOA_KERNEL` or `FTOA_JOBS` must fail loudly here, not
    // be silently ignored because the chosen path happens not to read it.
    let kernel = KernelKind::from_env()?;
    let jobs_override = ftoa_runtime::jobs_env_override()?;
    if let Some(preset) = cli.value("--capture") {
        return capture(cli, preset);
    }
    let trace_path =
        cli.value("--trace").ok_or("missing --trace <file> (or --capture <preset>)")?;
    let algos = parse_algos(cli.value("--algo").unwrap_or("all"))?;
    let backend = parse_backend(cli.value("--backend").unwrap_or("grid"))?;
    let deterministic_only = cli.deterministic_only;
    // 0 resolves to FTOA_JOBS / available parallelism inside the pool.
    let threads = JobPool::new(cli.parse_or("--threads", jobs_override.unwrap_or(0))?).threads();

    let trace = TraceReader::read_file(trace_path).map_err(|e| e.to_string())?;
    // On a weighted (v2) trace, report how much of the total worker capacity
    // each matching uses; v1 traces keep the exact historical rendering.
    let total_capacity: Option<u64> = (trace.version == TraceVersion::V2)
        .then(|| trace.stream.workers().iter().map(|w| u64::from(w.capacity)).sum());
    let scenario = trace.into_scenario();
    eprintln!(
        "replaying {}: {} workers, {} tasks, {} events ({} backend, {} kernel, {} thread{})",
        trace_path,
        scenario.stream.num_workers(),
        scenario.stream.num_tasks(),
        scenario.stream.len(),
        backend.name(),
        kernel.name(),
        threads,
        if threads == 1 { "" } else { "s" }
    );

    let opts = SuiteOptions::default().with_backend(backend).with_threads(threads);
    let results = ReplayConfig::new(&scenario).options(opts).algos(&algos).run();
    for r in &results {
        eprintln!(
            "  {:<14} matched {:>6}  ({} candidates examined, {:.3}s)",
            r.algorithm,
            r.matching_size(),
            r.stats.candidates_examined,
            r.runtime_secs()
        );
    }

    let mut metrics = ReplayMetrics::new(
        trace_path,
        backend.name(),
        scenario.stream.num_workers(),
        scenario.stream.num_tasks(),
        scenario.stream.len(),
        threads,
        &results,
    );
    if let Some(total) = total_capacity {
        metrics = metrics.with_total_capacity(total);
    }
    emit(cli, &metrics.to_json(deterministic_only))
}

fn capture(cli: &Cli, preset: &str) -> Result<(), String> {
    let seed: u64 = cli.parse_or("--seed", 2017)?;
    let scale: f64 = cli.parse_or("--scale", 0.01)?;
    let ratio: f64 = cli.parse_or("--ratio", 1.0)?;
    let scenario: Scenario = match preset {
        "fixture" => presets::ci_fixture(),
        "fixture-weighted" => presets::ci_fixture_weighted(),
        "hotspot" => presets::hotspot_skewed(scale, seed),
        "rush-hour" => presets::rush_hour(scale, seed),
        "imbalance" => presets::imbalance(ratio, scale, seed),
        "synthetic" => workload::SyntheticConfig {
            num_workers: ((20_000.0 * scale) as usize).max(1),
            num_tasks: ((20_000.0 * scale) as usize).max(1),
            ..Default::default()
        }
        .generate(seed),
        other => return Err(format!("unknown preset `{other}`")),
    };
    eprintln!(
        "captured preset `{preset}`: {} workers, {} tasks, {} events",
        scenario.stream.num_workers(),
        scenario.stream.num_tasks(),
        scenario.stream.len()
    );
    emit(cli, &TraceWriter::to_string(&scenario.config, &scenario.stream))
}

fn emit(cli: &Cli, content: &str) -> Result<(), String> {
    match cli.value("--out") {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
                }
            }
            std::fs::write(path, content).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => print!("{content}"),
    }
    Ok(())
}

fn parse_algos(spec: &str) -> Result<Vec<Algo>, String> {
    if spec.eq_ignore_ascii_case("all") {
        return Ok(Algo::ALL.to_vec());
    }
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| Algo::parse(name).ok_or_else(|| format!("unknown algorithm `{name}`")))
        .collect()
}

fn parse_backend(spec: &str) -> Result<IndexBackend, String> {
    IndexBackend::parse(spec)
        .ok_or_else(|| format!("unknown backend `{spec}` (expected grid|linear|kd|hybrid)"))
}
