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
//! Arguments are parsed strictly, before any file is read. An unrecognised
//! flag, a positional token, a flag missing its value, a flag given twice,
//! a missing `--trace` (or `--capture`), an unknown algorithm, backend or
//! preset name, or an unparsable `--threads`, `--seed`, `--scale` or
//! `--ratio` value prints a diagnostic plus the usage line and exits with
//! code 2 (`--algos` is not `--algo`; it is rejected, not silently ignored).
//! Every other failure — an unreadable or malformed trace, an unparsable
//! environment knob, an unwritable `--out` — prints only its diagnostic and
//! exits with code 1. Environment knobs are validated eagerly: an
//! unparsable `FTOA_KERNEL` or `FTOA_JOBS` aborts the run before any work
//! happens.
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

/// What a run reads: a trace to replay, or a named preset to capture.
enum Source {
    Trace(String),
    Capture(String, Preset),
}

/// Generates a `--capture` preset from `--seed`, `--scale` and `--ratio`.
type Preset = fn(u64, f64, f64) -> Scenario;

/// The preset called `name`, or `None` if there is none.
fn preset(name: &str) -> Option<Preset> {
    Some(match name {
        "fixture" => |_, _, _| presets::ci_fixture(),
        "fixture-weighted" => |_, _, _| presets::ci_fixture_weighted(),
        "hotspot" => |seed, scale, _| presets::hotspot_skewed(scale, seed),
        "rush-hour" => |seed, scale, _| presets::rush_hour(scale, seed),
        "imbalance" => |seed, scale, ratio| presets::imbalance(ratio, scale, seed),
        "synthetic" => |seed, scale, _| {
            workload::SyntheticConfig {
                num_workers: ((20_000.0 * scale) as usize).max(1),
                num_tasks: ((20_000.0 * scale) as usize).max(1),
                ..Default::default()
            }
            .generate(seed)
        },
        _ => return None,
    })
}

/// Strictly parsed command line: every token is either a known value flag
/// (with its value), a known boolean flag, or an error, and every value is
/// checked here. No pair-scanning — a typo like `--algos` is a hard usage
/// error, never silently ignored.
struct Cli {
    source: Source,
    algos: Vec<Algo>,
    backend: IndexBackend,
    /// `None` defers to `FTOA_JOBS`, which `run` validates.
    threads: Option<usize>,
    seed: u64,
    scale: f64,
    ratio: f64,
    out: Option<String>,
    deterministic_only: bool,
}

impl Cli {
    /// Parse the argument list. `Ok(None)` means `--help` was requested.
    fn parse(args: &[String]) -> Result<Option<Cli>, String> {
        let mut values: Vec<(&'static str, &str)> = Vec::new();
        let mut deterministic_only = false;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--help" | "-h" => return Ok(None),
                "--deterministic-only" => {
                    if deterministic_only {
                        return Err("flag --deterministic-only given twice".into());
                    }
                    deterministic_only = true;
                }
                other => match VALUE_FLAGS.iter().find(|&&f| f == other) {
                    Some(&flag) => {
                        let value =
                            iter.next().ok_or_else(|| format!("{flag} is missing its value"))?;
                        if values.iter().any(|(f, _)| *f == flag) {
                            return Err(format!("flag {flag} given twice"));
                        }
                        values.push((flag, value));
                    }
                    None => return Err(format!("unrecognised argument `{other}`")),
                },
            }
        }
        let value = |flag: &str| values.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v);
        let source = match (value("--capture"), value("--trace")) {
            (Some(name), _) => Source::Capture(
                name.to_owned(),
                preset(name).ok_or_else(|| format!("unknown preset `{name}`"))?,
            ),
            (None, Some(path)) => Source::Trace(path.to_owned()),
            (None, None) => return Err("missing --trace <file> (or --capture <preset>)".into()),
        };
        Ok(Some(Cli {
            source,
            algos: parse_algos(value("--algo").unwrap_or("all"))?,
            backend: parse_backend(value("--backend").unwrap_or("grid"))?,
            threads: value("--threads").map(|v| parse_number("--threads", v)).transpose()?,
            seed: value("--seed").map_or(Ok(2017), |v| parse_number("--seed", v))?,
            scale: value("--scale").map_or(Ok(0.01), |v| parse_number("--scale", v))?,
            ratio: value("--ratio").map_or(Ok(1.0), |v| parse_number("--ratio", v))?,
            out: value("--out").map(str::to_owned),
            deterministic_only,
        }))
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value for {flag}: `{value}`"))
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
    let trace_path = match &cli.source {
        Source::Capture(name, preset) => return capture(cli, name, *preset),
        Source::Trace(path) => path.as_str(),
    };
    // 0 resolves to FTOA_JOBS / available parallelism inside the pool.
    let threads = JobPool::new(cli.threads.unwrap_or(jobs_override.unwrap_or(0))).threads();

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
        cli.backend.name(),
        kernel.name(),
        threads,
        if threads == 1 { "" } else { "s" }
    );

    let opts = SuiteOptions::default().with_backend(cli.backend).with_threads(threads);
    let results = ReplayConfig::new(&scenario).options(opts).algos(&cli.algos).run();
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
        cli.backend.name(),
        scenario.stream.num_workers(),
        scenario.stream.num_tasks(),
        scenario.stream.len(),
        threads,
        &results,
    );
    if let Some(total) = total_capacity {
        metrics = metrics.with_total_capacity(total);
    }
    emit(cli, &metrics.to_json(cli.deterministic_only))
}

fn capture(cli: &Cli, name: &str, preset: Preset) -> Result<(), String> {
    let scenario = preset(cli.seed, cli.scale, cli.ratio);
    eprintln!(
        "captured preset `{name}`: {} workers, {} tasks, {} events",
        scenario.stream.num_workers(),
        scenario.stream.num_tasks(),
        scenario.stream.len()
    );
    emit(cli, &TraceWriter::to_string(&scenario.config, &scenario.stream))
}

fn emit(cli: &Cli, content: &str) -> Result<(), String> {
    match &cli.out {
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
