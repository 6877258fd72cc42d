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
//! Arguments are parsed strictly (`experiments::cli`), before any file is
//! read. An unrecognised flag, a positional token, a flag missing its value,
//! a flag given twice, a missing `--trace` (or `--capture`), an unknown
//! algorithm, backend or preset name, an unparsable `--threads`, `--seed`,
//! `--scale` or `--ratio` value, or a flag of the other mode (`--trace`,
//! `--algo`, `--backend`, `--threads` or `--deterministic-only` with
//! `--capture`; `--seed`, `--scale` or `--ratio` without it) prints a
//! diagnostic plus the usage line and exits with code 2 (`--algos` is not
//! `--algo`; it is rejected, not silently ignored). Every other failure —
//! an unreadable or malformed trace, an unparsable `FTOA_JOBS`, an
//! unwritable `--out` — prints only its diagnostic and exits with code 1.
//! `FTOA_JOBS` is validated eagerly: an unparsable value aborts the run
//! before any work happens.
//!
//! Runs the selected algorithms (default: all five; the flow-backed batch
//! policies `batch-mf` / `batch-hun` must be named explicitly) over the
//! trace with `ReplayMetrics::replay_file` — predictions are the trace's
//! realised counts (`Scenario::actual_counts`) — and writes a
//! `ftoa-replay-metrics v1` JSON document to `--out` (stdout if omitted).
//! Replaying a v2 trace additionally reports each algorithm's
//! `capacity_utilisation` against the stream's total worker capacity.
//! `--threads N` fans the algorithm cells over N workers of the
//! deterministic `ftoa_runtime::JobPool` (default: `FTOA_JOBS` or the
//! available hardware parallelism; the reduction is ordered, so the output
//! is byte-identical at any setting). Note that concurrent cells contend
//! for cache and memory bandwidth — pass `--threads 1` when the
//! `runtime_secs` fields are meant as clean per-algorithm timings rather
//! than throughput. With `--deterministic-only` the
//! timing/memory/thread fields are omitted so the output is byte-stable;
//! `tests/golden_replay.rs` renders both fixtures that way at 1 and 4
//! threads and compares them with the golden files byte for byte, and the
//! CI `replay-regression` job diffs this binary's output at `--threads 4`
//! against the same files. Each engine run itself is serial: the policies
//! commit one event at a time, so parallelism stops at the algorithm cells.
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

use experiments::cli::{self, Args};
use experiments::metrics::ReplayMetrics;
use experiments::runner::{Algo, SuiteOptions};
use ftoa_core::IndexBackend;
use workload::{presets, Scenario, TraceWriter};

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

/// Flags that stand alone.
const SWITCHES: &[&str] = &["--deterministic-only", "--help", "-h"];

/// Flags that only replay mode reads, and those that only capture mode reads.
const REPLAY_FLAGS: &[&str] =
    &["--trace", "--algo", "--backend", "--threads", "--deterministic-only"];
const CAPTURE_FLAGS: &[&str] = &["--seed", "--scale", "--ratio"];

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

/// The checked command line: every value is parsed, and every flag given
/// belongs to the chosen mode.
struct Cli {
    source: Source,
    algos: Vec<Algo>,
    backend: IndexBackend,
    /// `0` (the default) means `FTOA_JOBS` or the available parallelism.
    threads: usize,
    seed: u64,
    scale: f64,
    ratio: f64,
    out: Option<String>,
    deterministic_only: bool,
}

impl Cli {
    /// Check the parsed arguments. `Ok(None)` means `--help` was requested.
    fn from_args(args: &Args) -> Result<Option<Cli>, String> {
        if args.has("--help") || args.has("-h") {
            return Ok(None);
        }
        let (mode, foreign) = if args.has("--capture") {
            ("capture", REPLAY_FLAGS)
        } else {
            ("replay", CAPTURE_FLAGS)
        };
        if let Some(flag) = foreign.iter().find(|flag| args.has(flag)) {
            return Err(format!("{flag} does not apply in {mode} mode"));
        }
        let source = match (args.value("--capture"), args.value("--trace")) {
            (Some(name), _) => Source::Capture(
                name.to_owned(),
                preset(name).ok_or_else(|| format!("unknown preset `{name}`"))?,
            ),
            (None, Some(path)) => Source::Trace(path.to_owned()),
            (None, None) => return Err("missing --trace <file> (or --capture <preset>)".into()),
        };
        Ok(Some(Cli {
            source,
            algos: parse_algos(args.value("--algo").unwrap_or("all"))?,
            backend: parse_backend(args.value("--backend").unwrap_or("grid"))?,
            threads: args.number("--threads", 0)?,
            seed: args.number("--seed", 2017)?,
            scale: args.number("--scale", 0.01)?,
            ratio: args.number("--ratio", 1.0)?,
            out: args.value("--out").map(str::to_owned),
            deterministic_only: args.has("--deterministic-only"),
        }))
    }
}

fn main() {
    let Some(cli) = cli::parse_or_exit(USAGE, VALUE_FLAGS, SWITCHES, Cli::from_args) else {
        println!("{USAGE}");
        return;
    };
    if let Err(message) = run(&cli) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run(cli: &Cli) -> Result<(), String> {
    // Validate `FTOA_JOBS` eagerly, whatever mode runs: a bad value must
    // fail loudly here, not be silently ignored because the chosen path
    // happens not to read it.
    ftoa_runtime::jobs_env_override()?;
    let trace_path = match &cli.source {
        Source::Capture(name, preset) => return capture(cli, name, *preset),
        Source::Trace(path) => path.as_str(),
    };
    let opts = SuiteOptions::default().with_backend(cli.backend).with_threads(cli.threads);
    let metrics =
        ReplayMetrics::replay_file(trace_path, &cli.algos, opts).map_err(|e| e.to_string())?;
    eprintln!(
        "replayed {}: {} workers, {} tasks, {} events ({} backend, {} thread{})",
        trace_path,
        metrics.workers,
        metrics.tasks,
        metrics.events,
        metrics.backend,
        metrics.threads,
        if metrics.threads == 1 { "" } else { "s" }
    );
    for a in &metrics.algorithms {
        eprintln!(
            "  {:<14} matched {:>6}  ({} candidates examined, {:.3}s)",
            a.algorithm, a.matching_size, a.candidates_examined, a.runtime_secs
        );
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
