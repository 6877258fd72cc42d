//! Replay benchmark: trace file in, metrics out.
//!
//! ```text
//! ftoa-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!            [--quick] [--out DIR]
//! ```
//!
//! For each workload the parent process generates the scenario from the
//! seed and writes it as a trace file. Fresh child processes then replay
//! that file — one at a time, each on one thread, in a closed loop. With
//! `--trace 0`, clean and probe children alternate until `--seconds` are
//! used (at least two clean and one probe child); the run reports medians
//! over the clean children and latency quantiles over each event's fastest
//! reading in any probe child. With `--trace 1` one child makes
//! the traced run and the run reports the per-layer metrics. Every line
//! names a metric, its value and unit; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every check passed.
//!
//! `--quick` shrinks every workload, makes one child of each kind and runs
//! both modes: a smoke test of all checks and the traced run.
//!
//! The run refuses to start while any `FTOA_*` engine knob is set, so every
//! measurement uses the same engine settings.

mod check;
mod child;
mod layers;
mod probe;
mod report;
mod stats;
mod workloads;

use ftoa_core::engine::kernels::{active_kernel, KernelKind};
use ftoa_core::Stopwatch;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workload::TraceWriter;
use workloads::Workload;

const USAGE: &str = "usage: ftoa-bench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR]\n\
                     workloads: uniform, hotspot, weighted, scale-1m";

/// A full-size run makes at least this many clean and probe children,
/// whatever `--seconds`; `--quick` makes one of each.
const MIN_CHILDREN: [usize; 2] = [2, 1];

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 2017,
        seconds: 30.0,
        trace: false,
        quick: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if seen.contains(&flag.as_str()) {
            return Err(format!("flag {flag} given twice"));
        }
        seen.push(flag);
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} is missing its value"))?;
        let bad = || format!("invalid value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" if value == "all" => opts.workloads = Workload::ALL.to_vec(),
            "--workload" => opts.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unrecognised argument `{flag}`")),
        }
    }
    Ok(opts)
}

/// Refuse to run while an engine knob is set: the parent commit and a
/// change must be measured with identical settings.
fn check_environment() -> Result<(), String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.to_str().filter(|k| k.starts_with("FTOA_")).map(str::to_string))
        .collect();
    set.sort();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set; unset every FTOA_* variable so runs are comparable",
            set.join(", ")
        ))
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output records about the setting it was measured in.
fn environment(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("seed", seed.to_string()),
        ("nproc", command_output("nproc", &[])),
        ("kernel", active_kernel().name().to_string()),
        ("best_kernel", KernelKind::best_supported().name().to_string()),
        ("backend", "grid".to_string()),
        ("threads", "1".to_string()),
        ("shards", "1".to_string()),
        ("rustc", command_output("rustc", &["--version"])),
    ]
}

/// What the parent read from one child.
struct ChildOutcome {
    values: BTreeMap<String, f64>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn spawn_child(args: &[&str], ops_if_lost: u64) -> ChildOutcome {
    let lost = |why: String| ChildOutcome {
        values: BTreeMap::new(),
        failures: vec![why],
        attempted: ops_if_lost,
        failed: ops_if_lost,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return lost(format!("cannot locate the benchmark binary: {e}")),
    };
    let output = match Command::new(exe).args(args).stderr(Stdio::inherit()).output() {
        Ok(output) => output,
        Err(e) => return lost(format!("cannot start a child: {e}")),
    };
    // The child prints `value NAME NUMBER`, `fail MESSAGE` and, last,
    // `ops ATTEMPTED FAILED` lines (see `child_main`).
    let mut outcome =
        ChildOutcome { values: BTreeMap::new(), failures: Vec::new(), attempted: 0, failed: 0 };
    let mut ops = None;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some((name, value)) = line.strip_prefix("value ").and_then(|l| l.split_once(' ')) {
            if let Ok(v) = value.parse() {
                outcome.values.insert(name.to_string(), v);
            }
        } else if let Some(message) = line.strip_prefix("fail ") {
            outcome.failures.push(message.to_string());
        } else if let Some((a, f)) = line.strip_prefix("ops ").and_then(|l| l.split_once(' ')) {
            ops = a.parse().ok().zip(f.parse().ok());
        }
    }
    if let Some((attempted, failed)) = ops {
        outcome.attempted = attempted;
        outcome.failed = failed;
    }
    if ops.is_none() || !output.status.success() && outcome.failed == 0 {
        let mut lost = lost(format!("child {args:?} ended with {}", output.status));
        lost.failures.extend(outcome.failures);
        return lost;
    }
    outcome
}

/// What one run measured and checked.
struct RunOutcome {
    metrics: Vec<(String, f64, &'static str)>,
    detail: BTreeMap<String, f64>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Print a run's metric rows and detail lines, write its JSON report to
/// `report_file`, and print the result line last. Returns whether every
/// check passed.
fn finish(
    workload: Workload,
    env: &[(&str, String)],
    report_file: &Path,
    run: RunOutcome,
) -> Result<bool, String> {
    let name = workload.name();
    for (metric, value, unit) in &run.metrics {
        println!("{name} {metric} {} {unit}", report::number(*value));
    }
    for (key, value) in &run.detail {
        println!("# {name} {key} {}", report::number(*value));
    }
    for failure in &run.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = run.failures.is_empty() && run.failed == 0;
    let failed = run.failed.max(u64::from(!correct));
    let attempted = run.attempted.max(failed).max(1);

    let mut json = format!(
        "{{\n  \"correct\": {correct},\n  \"attempted\": {attempted},\n  \"failed\": {failed},\n  \
         \"environment\": {{"
    );
    for (i, (k, v)) in env.iter().enumerate() {
        let v = v.replace('\\', "\\\\").replace('"', "\\\"");
        json.push_str(&format!("{}\"{k}\": \"{v}\"", if i == 0 { "" } else { ", " }));
    }
    json.push_str("},\n  \"metrics\": {");
    for (i, (metric, value, unit)) in run.metrics.iter().enumerate() {
        json.push_str(&format!(
            "{}\n    \"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { "," },
            report::number(*value)
        ));
    }
    json.push_str("\n  },\n  \"detail\": {");
    for (i, (key, value)) in run.detail.iter().enumerate() {
        json.push_str(&format!(
            "{}\n    \"{key}\": {}",
            if i == 0 { "" } else { "," },
            report::number(*value)
        ));
    }
    json.push_str("\n  }\n}\n");
    std::fs::write(report_file, json).map_err(|e| format!("{}: {e}", report_file.display()))?;

    println!("{}", report::result_line(correct, attempted, failed, &run.metrics));
    Ok(correct)
}

/// The two kinds of child an end-to-end run alternates between.
const CHILD_KINDS: [&str; 2] = ["run", "probe"];

/// The per-event latency metrics and their quantiles.
const LATENCIES: [(&str, f64); 3] =
    [("event_p50_us", 0.5), ("event_p99_us", 0.99), ("event_p999_us", 0.999)];

/// Each event's fastest reading over the probe children's sample files,
/// which are removed. Failures name files that could not be read or that
/// disagree on the event count.
fn fastest_readings(files: &[PathBuf], failures: &mut Vec<String>) -> Vec<u64> {
    let mut fastest: Option<Vec<u64>> = None;
    for file in files {
        let samples = std::fs::read(file).ok().and_then(|b| stats::samples_from_bytes(&b));
        // A child that failed early leaves no file; its failure is counted.
        std::fs::remove_file(file).ok();
        match (samples, fastest.as_mut()) {
            (None, _) => failures.push(format!("{}: no readable samples", file.display())),
            (Some(samples), None) => fastest = Some(samples),
            (Some(samples), Some(f)) => {
                if !stats::keep_fastest(f, &samples) {
                    failures.push(format!(
                        "{}: {} samples, the first probe child wrote {}",
                        file.display(),
                        samples.len(),
                        f.len()
                    ));
                }
            }
        }
    }
    fastest.unwrap_or_default()
}

/// End-to-end runs: clean and probe children in turn until the time is
/// used. Each clean-child metric is the median over the clean children;
/// the latency quantiles are taken over each event's fastest reading in any
/// probe child.
fn end_to_end(
    workload: Workload,
    opts: &Options,
    trace_file: &Path,
    env: &[(&str, String)],
) -> Result<bool, String> {
    let name = workload.name();
    let policies = workload.policies().len() as u64;
    let trace_arg = trace_file.display().to_string();
    let minimum = if opts.quick { [1, 1] } else { MIN_CHILDREN };
    let budget = std::time::Duration::from_secs_f64(opts.seconds);
    let clock = Stopwatch::start();
    let mut children: [Vec<ChildOutcome>; 2] = [Vec::new(), Vec::new()];
    let mut sample_files = Vec::new();
    let mut took = [std::time::Duration::ZERO; 2];
    loop {
        // Clean first, then alternate.
        let kind = usize::from(children[1].len() < children[0].len());
        let have_minimum = children.iter().zip(minimum).all(|(c, m)| c.len() >= m);
        if have_minimum && (opts.quick || clock.elapsed() + took[kind] > budget) {
            break;
        }
        let started = clock.elapsed();
        let outcome = if kind == 0 {
            spawn_child(&["child", "run", name, &trace_arg], policies)
        } else {
            let file =
                opts.out.join(format!("{name}-{}-probe{}.samples", opts.seed, children[1].len()));
            let outcome = spawn_child(
                &["child", "probe", name, &trace_arg, &file.display().to_string()],
                2 * policies,
            );
            sample_files.push(file);
            outcome
        };
        children[kind].push(outcome);
        took[kind] = clock.elapsed() - started;
    }

    let all = || children.iter().flatten();
    let mut failures: Vec<String> = all().flat_map(|c| c.failures.clone()).collect();
    let attempted: u64 = all().map(|c| c.attempted).sum();
    let mut failed: u64 = all().map(|c| c.failed).sum();
    let mut fastest = fastest_readings(&sample_files, &mut failures);
    fastest.sort_unstable();
    let mut latency = BTreeMap::new();
    for (metric, p) in LATENCIES {
        match stats::percentile(&fastest, p) {
            Some(ns) => {
                latency.insert(metric, ns as f64 / 1e3);
            }
            None => {
                failures.push(format!("{} samples cannot support the {p} quantile", fastest.len()))
            }
        }
    }
    for (kind, list) in CHILD_KINDS.iter().zip(&children) {
        for (i, c) in list.iter().enumerate() {
            let values: Vec<String> =
                c.values.iter().map(|(k, v)| format!("{k}={}", report::number(*v))).collect();
            println!("# {name} {kind} child {}: {}", i + 1, values.join(" "));
        }
    }
    let utilities: Vec<f64> = all().filter_map(|c| c.values.get("utility").copied()).collect();
    if utilities.iter().any(|u| !check::same_utility(*u, utilities[0])) {
        failures.push(format!("utility differs between children: {utilities:?}"));
        failed += 1;
    }
    let median_of = |key: &str| {
        let values: Vec<f64> = all().filter_map(|c| c.values.get(key).copied()).collect();
        stats::median(&values)
    };
    let mut metrics = Vec::new();
    for (metric, unit) in report::END_TO_END {
        let value =
            latency.get(metric).copied().or_else(|| median_of(metric)).unwrap_or_else(|| {
                failures.push(format!("no child reported {metric}"));
                0.0
            });
        metrics.push((metric.to_string(), value, unit));
    }
    let mut detail = BTreeMap::new();
    detail.insert("children.run".to_string(), children[0].len() as f64);
    detail.insert("children.probe".to_string(), children[1].len() as f64);
    detail.insert("samples".to_string(), fastest.len() as f64);
    detail.insert(
        "samples_beyond_p999".to_string(),
        stats::samples_beyond(fastest.len(), 0.999) as f64,
    );
    for key in ["read_s", "derive_s", "guide_s", "online_s", "probe_online_s"] {
        if let Some(v) = median_of(key) {
            detail.insert(key.to_string(), v);
        }
    }
    if let (Some(probe), Some(clean)) = (median_of("probe_online_s"), median_of("online_s")) {
        detail.insert("probe_overhead_pct".to_string(), 100.0 * (probe / clean - 1.0));
    }
    if let Some(first) = children[0].first() {
        for (k, v) in first.values.iter().filter(|(k, _)| k.starts_with("matched.")) {
            detail.insert(k.clone(), *v);
        }
    }
    let report_file = opts.out.join(format!("{name}-{}.json", opts.seed));
    finish(workload, env, &report_file, RunOutcome { metrics, detail, failures, attempted, failed })
}

/// The traced run: one child, every per-layer metric.
fn per_layer(
    workload: Workload,
    opts: &Options,
    trace_file: &Path,
    env: &[(&str, String)],
) -> Result<bool, String> {
    let trace_arg = trace_file.display().to_string();
    let spans = opts.out.join(format!("{}.spans.jsonl", workload.name()));
    let spans_arg = spans.display().to_string();
    let args = ["child", "trace", workload.name(), &trace_arg, &spans_arg];
    let ops = 2 * workload.policies().len() as u64 + 2;
    let c = spawn_child(&args, ops);
    let mut failures = c.failures.clone();
    let mut metrics = Vec::new();
    for (name, unit) in report::per_layer() {
        let value = c.values.get(&name).copied().unwrap_or_else(|| {
            failures.push(format!("the traced run did not report {name}"));
            0.0
        });
        metrics.push((name, value, unit));
    }
    let detail: BTreeMap<String, f64> = c
        .values
        .iter()
        .filter(|(k, _)| k.starts_with("detail.") || matches!(k.as_str(), "kernel.pool" | "spans"))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    println!("# {} spans written to {}", workload.name(), spans.display());
    let report_file = opts.out.join(format!("{}-{}.trace.json", workload.name(), opts.seed));
    let run = RunOutcome { metrics, detail, failures, attempted: c.attempted, failed: c.failed };
    finish(workload, env, &report_file, run)
}

fn run_workload(workload: Workload, opts: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let env = environment(opts.seed);
    let line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {} {}", workload.name(), line.join(" "));

    let clock = Stopwatch::start();
    let scenario = workload.generate(opts.seed, opts.quick);
    let size = if opts.quick { "quick" } else { "full" };
    let trace_file = opts.out.join(format!("{}-{}-{size}.trace", workload.name(), opts.seed));
    TraceWriter::write_file(&trace_file, &scenario.config, &scenario.stream)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!(
        "# {} generated {} events in {} s",
        workload.name(),
        scenario.stream.len(),
        report::number(clock.elapsed().as_secs_f64())
    );
    drop(scenario);

    let modes: &[bool] =
        if opts.quick { &[false, true] } else { std::slice::from_ref(&opts.trace) };
    let correct = modes.iter().try_fold(true, |ok, &traced| {
        let run = if traced { per_layer } else { end_to_end };
        run(workload, opts, &trace_file, &env).map(|correct| ok && correct)
    });
    // The trace is regenerated from the seed on every run; the 1M-event one
    // is 69 MB, so none is left behind.
    std::fs::remove_file(&trace_file).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    correct
}

fn parent_main(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    let opts = match parse_options(args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return 2;
        }
    };
    if let Err(message) = check_environment() {
        eprintln!("error: {message}");
        return 2;
    }
    let mut correct = true;
    for &workload in &opts.workloads {
        match run_workload(workload, &opts) {
            Ok(ok) => correct &= ok,
            Err(message) => {
                eprintln!("error: {}: {message}", workload.name());
                return 1;
            }
        }
    }
    if correct {
        0
    } else {
        1
    }
}

/// `child run WORKLOAD TRACE_FILE`, `child probe WORKLOAD TRACE_FILE
/// SAMPLES_FILE` or `child trace WORKLOAD TRACE_FILE SPANS_FILE`: one child
/// process, started by the parent.
fn child_main(args: &[String]) -> i32 {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        [kind, workload, trace_file, ref output @ ..] => match Workload::parse(workload) {
            Some(w) => match (kind, output) {
                ("run", []) => child::run(w, Path::new(trace_file)),
                ("probe", [samples]) => child::probe(w, Path::new(trace_file), Path::new(samples)),
                ("trace", [spans]) => child::trace(w, Path::new(trace_file), Path::new(spans)),
                _ => Err(format!("unknown child command {args:?}")),
            },
            None => Err(format!("unknown workload `{workload}`")),
        },
        _ => Err(format!("unknown child command {args:?}")),
    };
    match result {
        Ok(report) => {
            for (name, value) in &report.values {
                println!("value {name} {value}");
            }
            for failure in &report.failures {
                println!("fail {failure}");
            }
            println!("ops {} {}", report.attempted, report.failed);
            i32::from(report.failed > 0)
        }
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        _ => parent_main(&args),
    };
    std::process::exit(code);
}
