//! The work of one child process.
//!
//! A `run` child replays the trace file through the same library path the
//! `replay` CLI uses — `TraceReader::read_file` → `Trace::into_scenario` →
//! `ReplayConfig::run` (grid backend, one thread, one shard) →
//! `ReplayMetrics::to_json` — reads its peak memory and checks every result
//! against the trace. A `probe` child measures per-event service times. A
//! `trace` child makes the traced run: it times every layer from outside
//! and writes the spans.

use crate::check::{check_result, same_utility};
use crate::layers::{self, FlowStats, IndexStats, BACKENDS};
use crate::probe::{Callbacks, LatencyProbe, SpanLog, Traced};
use crate::stats::samples_to_bytes;
use crate::workloads::{Policy, Workload, WINDOW_MINUTES};
use experiments::runner::{Algo, ReplayConfig};
use experiments::ReplayMetrics;
use ftoa_core::engine::kernels::KernelKind;
use ftoa_core::{
    AlgorithmResult, BatchGreedy, BatchHungarian, BatchMaxFlow, IndexBackend, Instance,
    OfflineGuide, OnlinePolicy, Polar, PolarOp, SimpleGreedy, SimulationEngine, Stopwatch,
};
use std::path::Path;
use std::time::Duration;
use workload::{Scenario, Trace, TraceReader, TraceVersion};

/// What a child reports back to the parent.
#[derive(Debug, Default)]
pub struct Report {
    /// Named measurements.
    pub values: Vec<(String, f64)>,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Policy runs and probes attempted.
    pub attempted: u64,
    /// Attempted operations whose checks failed.
    pub failed: u64,
}

impl Report {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Count one operation, failed when `failures` is not empty.
    fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }
}

fn read(path: &Path) -> Result<Trace, String> {
    TraceReader::read_file(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Total worker capacity on a v2 trace, reported as `replay` does.
fn total_capacity(trace: &Trace) -> Option<u64> {
    (trace.version == TraceVersion::V2)
        .then(|| trace.stream.workers().iter().map(|w| u64::from(w.capacity)).sum())
}

fn instance(scenario: &Scenario) -> Instance<'_> {
    Instance::new(
        &scenario.config,
        &scenario.stream,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    )
}

/// Construct `policy` exactly as `experiments::run_matrix` does and hand it
/// to `run`.
fn with_policy<R>(
    policy: Policy,
    instance: &Instance<'_>,
    guide: Option<&OfflineGuide>,
    run: impl FnOnce(&mut dyn OnlinePolicy) -> R,
) -> R {
    let guide = || guide.expect("guided policies get a guide");
    match policy {
        Policy::Sg => run(&mut SimpleGreedy.policy()),
        Policy::Gr => run(&mut BatchGreedy { window_minutes: WINDOW_MINUTES }.policy()),
        Policy::Polar => {
            run(&mut Polar { strict_feasibility: true, ..Polar::default() }
                .policy(instance, guide()))
        }
        Policy::PolarOp => run(&mut PolarOp { strict_feasibility: true, ..PolarOp::default() }
            .policy(instance, guide())),
        Policy::BatchMf => run(&mut BatchMaxFlow { window_minutes: WINDOW_MINUTES }.policy()),
        Policy::BatchHun => run(&mut BatchHungarian { window_minutes: WINDOW_MINUTES }.policy()),
    }
}

fn engine() -> SimulationEngine {
    SimulationEngine::new(IndexBackend::Grid)
}

/// Checks on one result: the independent trace checks, plus agreement with
/// a reference run of the same policy when one is given.
fn checks(
    scenario: &Scenario,
    policy: Policy,
    result: &AlgorithmResult,
    reference: Option<&AlgorithmResult>,
) -> Vec<String> {
    let mut failures =
        check_result(&scenario.stream, scenario.config.velocity, policy.wait_in_place(), result);
    if let Some(reference) = reference {
        if !same_utility(result.total_payoff, reference.total_payoff)
            || result.assignments.pairs() != reference.assignments.pairs()
        {
            failures.push(format!(
                "{}: utility {} differs from the clean pass's {}",
                result.algorithm, result.total_payoff, reference.total_payoff
            ));
        }
    }
    failures
}

/// Peak resident set size of this process so far, in kB (`VmHWM`).
fn peak_rss_kb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The clean replay: timings, peak memory and the checks.
pub fn run(workload: Workload, path: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let policies = workload.policies();
    let algos: Vec<Algo> = policies.iter().map(|p| p.algo()).collect();

    // Clean pass: no wrapper, timed from the file to the rendered JSON.
    let clock = Stopwatch::start();
    let trace = read(path)?;
    let read_done = clock.elapsed();
    let capacity = total_capacity(&trace);
    let scenario = trace.into_scenario();
    let derive_done = clock.elapsed();
    let results = ReplayConfig::new(&scenario)
        .algos(&algos)
        .backend(IndexBackend::Grid)
        .threads(1)
        .shards(1)
        .run();
    let stream = &scenario.stream;
    let mut metrics = ReplayMetrics::new(
        path.display().to_string(),
        IndexBackend::Grid.name(),
        stream.num_workers(),
        stream.num_tasks(),
        stream.len(),
        1,
        &results,
    )
    .with_shards(1);
    if let Some(total) = capacity {
        metrics = metrics.with_total_capacity(total);
    }
    let json = metrics.to_json(false);
    let replay = clock.elapsed();
    let peak_kb = peak_rss_kb()?;

    let guide = results.iter().map(|r| r.preprocessing).max().unwrap_or_default();
    let runtime: Duration = results.iter().map(|r| r.runtime).sum();
    let events: usize = results.iter().map(|r| r.stats.events).sum();
    report.set("replay_s", secs(replay));
    report.set("setup_s", secs(derive_done + guide));
    report.set("read_s", secs(read_done));
    report.set("derive_s", secs(derive_done - read_done));
    report.set("guide_s", secs(guide));
    report.set("online_s", secs(runtime));
    report.set("events_per_s", events as f64 / secs(runtime));
    report.set("peak_rss_mb", peak_kb / 1024.0);
    report.set("utility", results.iter().map(|r| r.total_payoff).sum());
    for (&policy, result) in policies.iter().zip(&results) {
        report.set(format!("matched.{}", policy.key()), result.matching_size() as f64);
        let mut failures = checks(&scenario, policy, result, None);
        let rendered = format!(
            "\"algorithm\": \"{}\", \"matching_size\": {}",
            result.algorithm,
            result.matching_size()
        );
        if !json.contains(&rendered) {
            failures.push(format!("{}: the metrics JSON lacks `{rendered}`", result.algorithm));
        }
        report.op(failures);
    }

    Ok(report)
}

/// The latency probe: two passes of every policy through the latency
/// wrapper. Each event's smaller reading goes to `samples_file`, in event
/// order, for the parent to take the smallest over all probe children: the
/// engine's own cost repeats in every pass, while interrupts and bursts of
/// interference from other work on the machine rarely hit the same event
/// every time.
pub fn probe(workload: Workload, path: &Path, samples_file: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let policies = workload.policies();
    let scenario = read(path)?.into_scenario();
    let guide = policies.iter().any(|p| p.guided()).then(|| {
        OfflineGuide::build(
            &scenario.config,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        )
    });
    let inst = instance(&scenario);
    let mut pooled: Vec<u64> = Vec::with_capacity(policies.len() * scenario.stream.len());
    let mut online = Duration::ZERO;
    let mut utility = 0.0;
    for &policy in policies {
        let mut pass = |samples: &mut Vec<u64>| {
            let result = with_policy(policy, &inst, guide.as_ref(), |p| {
                engine().run(&inst, &mut LatencyProbe::new(p, samples))
            });
            online += result.runtime;
            result
        };
        let (mut first, mut second) = (Vec::new(), Vec::new());
        let reference = pass(&mut first);
        let result = pass(&mut second);
        report.op(checks(&scenario, policy, &reference, None));
        let mut failures = checks(&scenario, policy, &result, Some(&reference));
        if first.len() != second.len() {
            failures.push(format!("{}: the probe passes saw different event counts", policy.key()));
        }
        report.op(failures);
        pooled.extend(first.iter().zip(&second).map(|(a, b)| *a.min(b)));
        utility += result.total_payoff;
    }
    report.set("utility", utility);
    report.set("probe_online_s", secs(online) / 2.0);
    report.set("samples", pooled.len() as f64);
    std::fs::write(samples_file, samples_to_bytes(&pooled))
        .map_err(|e| format!("{}: {e}", samples_file.display()))?;
    Ok(report)
}

/// One policy's traced run.
struct TracedRun {
    policy: Policy,
    callbacks: Callbacks,
    run: Duration,
    self_time: Duration,
    result: AlgorithmResult,
}

/// The traced run: every layer timed from outside; the spans go to `spans`.
pub fn trace(workload: Workload, path: &Path, spans: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let policies = workload.policies();
    let mut log = SpanLog::new();

    let file_mb = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    let (trace, read_time) = log.time("trace.read", || read(path));
    let trace = trace?;
    log.set_keep_every((trace.stream.len() / 10_000) as u64);
    let (scenario, derive_time) = log.time("scenario.derive", || trace.into_scenario());
    let (guide, guide_time) = log.time("guide.build", || {
        OfflineGuide::build(
            &scenario.config,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        )
    });
    report.set("trace.read_s", secs(read_time));
    report.set("trace.mb_per_s", file_mb / secs(read_time));
    report.set("scenario.derive_s", secs(derive_time));
    report.set("guide.build_s", secs(guide_time));
    report.set("guide.nodes", (guide.num_worker_nodes() + guide.num_task_nodes()) as f64);
    report.set("guide.pairs", guide.matching_size() as f64);
    report.set("guide.mb", guide.memory_bytes() as f64 / 1e6);

    let inst = instance(&scenario);
    // Untraced runs first: the baseline the tracing overhead is measured
    // against, and the reference every traced result must reproduce.
    let mut clean = Vec::new();
    for &policy in policies {
        let (result, _) = log.time("run.clean", || {
            with_policy(policy, &inst, Some(&guide), |p| engine().run(&inst, p))
        });
        report.op(checks(&scenario, policy, &result, None));
        clean.push(result);
    }
    let mut traced = Vec::new();
    for (&policy, reference) in policies.iter().zip(&clean) {
        let window = policy.windowed().then_some(WINDOW_MINUTES);
        let (result, (callbacks, run, self_time)) = with_policy(policy, &inst, Some(&guide), |p| {
            let mut wrapper = Traced::new(p, &mut log, policy.key(), window);
            let result = engine().run(&inst, &mut wrapper);
            (result, wrapper.close())
        });
        let mut failures = checks(&scenario, policy, &result, Some(reference));
        let accounted = self_time + callbacks.total();
        if (secs(accounted) - secs(run)).abs() > 0.01 * secs(run) {
            failures.push(format!(
                "{}: self time {self_time:?} plus callbacks {:?} is not the run span {run:?}",
                policy.key(),
                callbacks.total()
            ));
        }
        report.op(failures);
        traced.push(TracedRun { policy, callbacks, run, self_time, result });
    }
    policy_metrics(&mut report, &traced, &clean);

    // One render takes microseconds: time a batch and report the mean.
    const RENDERS: u32 = 1000;
    let stream = &scenario.stream;
    let ((), render_time) = log.time("metrics.render", || {
        for _ in 0..RENDERS {
            let metrics = ReplayMetrics::new(
                path.display().to_string(),
                IndexBackend::Grid.name(),
                stream.num_workers(),
                stream.num_tasks(),
                stream.len(),
                1,
                &clean,
            );
            std::hint::black_box(metrics.to_json(false));
        }
    });
    report.set("metrics.render_s", secs(render_time) / f64::from(RENDERS));

    let mut index: Vec<IndexStats> = Vec::new();
    for (backend, key) in BACKENDS {
        let (stats, _) =
            log.time("probe.index", || layers::index_probe(stream, &scenario.config, backend));
        for (field, value) in [
            ("insert_ns", stats.insert_ns),
            ("remove_ns", stats.remove_ns),
            ("nearest_ns", stats.nearest_ns),
            ("range_ns", stats.range_ns),
            ("examined_per_query", stats.examined_per_query),
            ("hit_ratio", stats.hit_ratio),
        ] {
            report.set(format!("index.{key}.{field}"), value);
        }
        if backend == IndexBackend::Grid {
            report.set("arena.insert_ns", stats.arena_insert_ns);
            report.set("arena.remove_ns", stats.arena_remove_ns);
        }
        index.push(stats);
    }
    let disagree: Vec<String> = BACKENDS
        .iter()
        .zip(&index)
        .filter(|(_, s)| s.hits != index[0].hits || s.visited != index[0].visited)
        .map(|((_, key), s)| {
            format!(
                "index probe: {key} found {} workers and visited {}, linear {} and {}",
                s.hits, s.visited, index[0].hits, index[0].visited
            )
        })
        .collect();
    report.op(disagree);

    let pool = index[0].mean_pool.round() as usize;
    report.set("kernel.pool", pool as f64);
    for (key, kind) in [("scalar", KernelKind::Scalar), ("best", KernelKind::best_supported())] {
        let ((range, nearest), _) = log.time("probe.kernel", || {
            layers::kernel_probe(stream, scenario.config.velocity, pool, kind, 40_000_000)
        });
        report.set(format!("kernel.{key}.range_ns_per_elem"), range);
        report.set(format!("kernel.{key}.nearest_ns_per_elem"), nearest);
    }

    let (flow, _) = log.time("probe.flow", || {
        layers::flow_probe(stream, scenario.config.velocity, WINDOW_MINUTES)
    });
    let flow: FlowStats = match flow {
        Ok(stats) => {
            report.op(Vec::new());
            stats
        }
        Err(message) => {
            report.op(vec![message]);
            FlowStats::default()
        }
    };
    report.set("flow.hk.solve_s", secs(flow.hk));
    report.set("flow.mcmf.solve_s", secs(flow.mcmf));
    report.set("flow.graphs", flow.graphs as f64);
    report.set("flow.edges", flow.edges as f64);

    std::fs::write(spans, log.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    report.set("spans", log.spans().len() as f64);
    Ok(report)
}

/// The policy and driver metrics: totals over the workload's policies, then
/// each policy's own figures.
fn policy_metrics(report: &mut Report, traced: &[TracedRun], clean: &[AlgorithmResult]) {
    let sum = |f: &dyn Fn(&TracedRun) -> f64| traced.iter().map(f).sum::<f64>();
    let examining: Vec<&TracedRun> =
        traced.iter().filter(|t| t.result.stats.candidates_examined > 0).collect();
    let examined: u64 = examining.iter().map(|t| t.result.stats.candidates_examined).sum();
    let examining_ns: f64 = examining.iter().map(|t| secs(t.callbacks.total()) * 1e9).sum();
    report.set("policy.arrival_s", sum(&|t| secs(t.callbacks.arrival + t.callbacks.flush)));
    report.set("policy.expiry_s", sum(&|t| secs(t.callbacks.expiry)));
    report.set("policy.matched", sum(&|t| t.result.matching_size() as f64));
    report.set("policy.candidates", examined as f64);
    report.set("policy.ns_per_candidate", examining_ns / examined.max(1) as f64);
    report.set("driver.run_s", sum(&|t| secs(t.run)));
    report.set("driver.self_s", sum(&|t| secs(t.self_time)));
    report.set("driver.expired", sum(&|t| expired(&t.result) as f64));
    let traced_run = sum(&|t| secs(t.run));
    let clean_run: f64 = clean.iter().map(|r| secs(r.runtime)).sum();
    report.set("trace_overhead_pct", 100.0 * (traced_run / clean_run - 1.0));

    for t in traced {
        let a = t.policy.key();
        let c = &t.callbacks;
        let candidates = t.result.stats.candidates_examined;
        for (field, value) in [
            ("arrival_s", secs(c.arrival)),
            ("flush_s", secs(c.flush)),
            ("flushes", c.windows_closed as f64),
            ("expiry_s", secs(c.expiry)),
            ("finish_s", secs(c.finish)),
            ("matched", t.result.matching_size() as f64),
            ("candidates", candidates as f64),
        ] {
            report.set(format!("detail.policy.{a}.{field}"), value);
        }
        if candidates > 0 {
            let ns = secs(c.total()) * 1e9 / candidates as f64;
            report.set(format!("detail.policy.{a}.ns_per_candidate"), ns);
        }
        report.set(format!("detail.driver.{a}.run_s"), secs(t.run));
        report.set(format!("detail.driver.{a}.self_s"), secs(t.self_time));
        report.set(format!("detail.driver.{a}.expired"), expired(&t.result) as f64);
    }
}

fn expired(result: &AlgorithmResult) -> usize {
    result.stats.expired_workers + result.stats.expired_tasks
}
