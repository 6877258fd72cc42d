//! Replay metrics: the JSON report of one trace replay.
//!
//! The `replay` CLI runs a set of algorithms over a recorded trace and emits
//! one [`ReplayMetrics`] document, built by [`ReplayMetrics::replay_file`].
//! The serialisation is hand-rolled (the workspace is offline, no serde) and
//! **canonical**: keys appear in a fixed order and integers are printed
//! without formatting choices, so two runs over the same trace produce
//! byte-identical output for the deterministic fields. The golden tests
//! exploit that: `tests/golden_replay.rs` and CI's `replay-regression` job
//! render the report with [`ReplayMetrics::to_json`]`(true)` — deterministic
//! fields only — and compare it with the checked-in golden files.
//!
//! Deterministic fields (stable across machines for a fixed trace and code
//! version): matching size, total payoff, candidates examined, events,
//! expiry counts. Non-deterministic fields (timings, memory estimates) are
//! only included when `deterministic_only` is off.

use crate::runner::{Algo, ReplayConfig, SuiteOptions};
use ftoa_core::AlgorithmResult;
use ftoa_runtime::JobPool;
use std::fmt::Write as _;
use workload::{TraceError, TraceReader, TraceVersion};

/// Per-algorithm metrics of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmMetrics {
    /// Algorithm display name.
    pub algorithm: String,
    /// Number of assigned pairs.
    pub matching_size: usize,
    /// Total payoff `Σ payoff` of the matching. Unit-payoff (v1) traces
    /// accrue `1.0` per pair, so there this equals the matching size — and
    /// the canonical rendering prints such whole values without a decimal
    /// point, keeping the v1 golden files byte-identical.
    pub total_payoff: f64,
    /// Candidates examined across all index queries.
    pub candidates_examined: u64,
    /// Workers that expired unmatched.
    pub expired_workers: usize,
    /// Tasks that expired unmatched.
    pub expired_tasks: usize,
    /// Online runtime in seconds (non-deterministic).
    pub runtime_secs: f64,
    /// Offline preprocessing in seconds (non-deterministic).
    pub preprocessing_secs: f64,
    /// Estimated peak memory in bytes (deterministic in practice, but tied
    /// to allocator estimates — treated as non-deterministic).
    pub memory_bytes: usize,
}

impl From<&AlgorithmResult> for AlgorithmMetrics {
    fn from(r: &AlgorithmResult) -> Self {
        Self {
            algorithm: r.algorithm.clone(),
            matching_size: r.matching_size(),
            total_payoff: r.total_payoff,
            candidates_examined: r.stats.candidates_examined,
            expired_workers: r.stats.expired_workers,
            expired_tasks: r.stats.expired_tasks,
            runtime_secs: r.runtime_secs(),
            preprocessing_secs: r.preprocessing.as_secs_f64(),
            memory_bytes: r.memory_bytes,
        }
    }
}

/// The full JSON document of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMetrics {
    /// Path (or label) of the replayed trace.
    pub trace: String,
    /// Candidate-index backend name.
    pub backend: &'static str,
    /// Number of workers in the trace.
    pub workers: usize,
    /// Number of tasks in the trace.
    pub tasks: usize,
    /// Number of arrival events.
    pub events: usize,
    /// Worker threads the replay fanned its algorithm cells over. Execution
    /// metadata, not a property of the trace — reported alongside the
    /// timings and likewise omitted in deterministic-only mode, so golden
    /// files stay byte-identical at every thread count.
    pub threads: usize,
    /// One entry per replayed algorithm, in run order.
    pub algorithms: Vec<AlgorithmMetrics>,
    /// Total worker capacity offered by the trace (`Σ capacity`), when the
    /// trace format carries live capacity fields (v2). `None` for v1
    /// replays, which keeps their rendering — and the v1 golden files —
    /// untouched.
    pub total_capacity: Option<u64>,
}

impl ReplayMetrics {
    /// Assemble the document from replay results.
    pub fn new(
        trace: impl Into<String>,
        backend: &'static str,
        workers: usize,
        tasks: usize,
        events: usize,
        threads: usize,
        results: &[AlgorithmResult],
    ) -> Self {
        Self {
            trace: trace.into(),
            backend,
            workers,
            tasks,
            events,
            threads,
            algorithms: results.iter().map(AlgorithmMetrics::from).collect(),
            total_capacity: None,
        }
    }

    /// Replay the trace at `path`, the whole path of the `replay` binary:
    /// read the trace, run `algos` on its scenario (predictions are the
    /// trace's realised counts) with `opts`, and assemble the document,
    /// labelled `path`. `opts.threads` is resolved as the job pool resolves
    /// it (`0`: `FTOA_JOBS` or the available parallelism) before it is
    /// recorded. A v2 trace also reports each algorithm's capacity
    /// utilisation; v1 traces keep the historical rendering.
    pub fn replay_file(path: &str, algos: &[Algo], opts: SuiteOptions) -> Result<Self, TraceError> {
        let opts = opts.with_threads(JobPool::new(opts.threads).threads());
        let trace = TraceReader::read_file(path)?;
        let total_capacity: Option<u64> = (trace.version == TraceVersion::V2)
            .then(|| trace.stream.workers().iter().map(|w| u64::from(w.capacity)).sum());
        let scenario = trace.into_scenario();
        let results = ReplayConfig::new(&scenario).options(opts).algos(algos).run();
        let metrics = ReplayMetrics::new(
            path,
            opts.index_backend.name(),
            scenario.stream.num_workers(),
            scenario.stream.num_tasks(),
            scenario.stream.len(),
            opts.threads,
            &results,
        );
        Ok(match total_capacity {
            Some(total) => metrics.with_total_capacity(total),
            None => metrics,
        })
    }

    /// Kept only so the benchmark package under `bench/` builds unchanged;
    /// it goes with the next benchmark change. Every engine run is serial,
    /// so the one accepted value is `1`, and nothing is stored.
    pub fn with_shards(self, shards: usize) -> Self {
        assert_eq!(shards, 1, "region sharding was removed");
        self
    }

    /// Report per-algorithm capacity utilisation against the trace's total
    /// offered worker capacity (v2 traces; each assigned pair consumes one
    /// capacity unit).
    pub fn with_total_capacity(mut self, total_capacity: u64) -> Self {
        self.total_capacity = Some(total_capacity);
        self
    }

    /// Render as canonical JSON. With `deterministic_only` the
    /// timing/memory fields are omitted, making the output byte-stable for a
    /// fixed trace — the representation the CI golden file pins.
    pub fn to_json(&self, deterministic_only: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"format\": \"ftoa-replay-metrics v1\",");
        let _ = writeln!(out, "  \"trace\": \"{}\",", escape_json(&self.trace));
        let _ = writeln!(out, "  \"backend\": \"{}\",", escape_json(self.backend));
        let _ = writeln!(
            out,
            "  \"scenario\": {{\"workers\": {}, \"tasks\": {}, \"events\": {}}},",
            self.workers, self.tasks, self.events
        );
        if !deterministic_only {
            let _ = writeln!(out, "  \"threads\": {},", self.threads);
        }
        let _ = writeln!(out, "  \"algorithms\": [");
        for (i, a) in self.algorithms.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"algorithm\": \"{}\", \"matching_size\": {}, \"total_payoff\": {}, \
                 \"candidates_examined\": {}, \"expired_workers\": {}, \"expired_tasks\": {}",
                escape_json(&a.algorithm),
                a.matching_size,
                a.total_payoff,
                a.candidates_examined,
                a.expired_workers,
                a.expired_tasks
            );
            if let Some(capacity) = self.total_capacity {
                let utilisation =
                    if capacity == 0 { 0.0 } else { a.matching_size as f64 / capacity as f64 };
                let _ = write!(out, ", \"capacity_utilisation\": {utilisation:.6}");
            }
            if !deterministic_only {
                let _ = write!(
                    out,
                    ", \"runtime_secs\": {:.6}, \"preprocessing_secs\": {:.6}, \
                     \"memory_bytes\": {}",
                    a.runtime_secs, a.preprocessing_secs, a.memory_bytes
                );
            }
            let _ = writeln!(out, "}}{}", if i + 1 < self.algorithms.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftoa_core::EngineStats;
    use ftoa_types::{Assignment, AssignmentSet, TaskId, TimeStamp, WorkerId};
    use std::time::Duration;

    fn fake_result(name: &str, size: usize, candidates: u64) -> AlgorithmResult {
        let mut assignments = AssignmentSet::new();
        for i in 0..size {
            assignments.push(Assignment::new(WorkerId(i), TaskId(i), TimeStamp::ZERO)).unwrap();
        }
        AlgorithmResult {
            algorithm: name.into(),
            assignments,
            total_payoff: size as f64,
            preprocessing: Duration::from_millis(3),
            runtime: Duration::from_millis(17),
            memory_bytes: 4096,
            stats: EngineStats {
                backend: "grid-index",
                events: 10,
                expired_workers: 2,
                expired_tasks: 1,
                candidates_examined: candidates,
            },
        }
    }

    #[test]
    fn deterministic_json_omits_timings_and_is_stable() {
        let results = [fake_result("SimpleGreedy", 3, 42), fake_result("OPT", 5, 0)];
        let metrics = ReplayMetrics::new("traces/x.trace", "grid-index", 6, 5, 11, 4, &results);
        let json = metrics.to_json(true);
        assert!(json.contains("\"format\": \"ftoa-replay-metrics v1\""));
        assert!(json.contains("\"matching_size\": 3"));
        assert!(json.contains("\"total_payoff\": 5"));
        assert!(json.contains("\"candidates_examined\": 42"));
        assert!(!json.contains("runtime_secs"));
        assert!(!json.contains("memory_bytes"));
        assert!(!json.contains("threads"), "thread count is execution metadata, not trace data");
        assert!(!json.contains("capacity_utilisation"), "v1 documents carry no capacity");
        // Canonical: identical inputs render byte-identically, and the
        // thread count never leaks into the deterministic rendering.
        assert_eq!(json, metrics.to_json(true));
        let serial = ReplayMetrics::new("traces/x.trace", "grid-index", 6, 5, 11, 1, &results);
        assert_eq!(json, serial.to_json(true));
    }

    #[test]
    fn full_json_includes_timings_and_threads() {
        let results = [fake_result("GR", 1, 7)];
        let metrics = ReplayMetrics::new("t", "linear-scan", 1, 1, 2, 4, &results);
        let json = metrics.to_json(false);
        assert!(json.contains("\"runtime_secs\": 0.017000"));
        assert!(json.contains("\"memory_bytes\": 4096"));
        assert!(json.contains("\"threads\": 4"));
    }

    #[test]
    fn capacity_utilisation_is_emitted_only_when_capacity_is_known() {
        let results = [fake_result("BATCH-MF", 3, 9)];
        let metrics =
            ReplayMetrics::new("t", "grid-index", 4, 3, 7, 1, &results).with_total_capacity(6);
        let json = metrics.to_json(true);
        assert!(json.contains("\"capacity_utilisation\": 0.500000"));
        // Still canonical and deterministic.
        assert_eq!(json, metrics.to_json(true));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
