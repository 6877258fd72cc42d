//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section 6).
//!
//! * [`runner`] — runs the full algorithm suite (SimpleGreedy, GR, POLAR,
//!   POLAR-OP, OPT) on one scenario, sharing a single offline guide between
//!   POLAR and POLAR-OP as the paper's framework does.
//! * [`report`] — sweep-report tables (matching size / running time / memory
//!   per algorithm and parameter value) with text and CSV rendering.
//! * [`metrics`] — the canonical `ftoa-replay-metrics v1` JSON document the
//!   `replay` binary emits; its deterministic-only rendering is what the CI
//!   regression gate diffs against the golden file.
//! * [`figures`] — the parameter sweeps of Figures 4, 5 and 6 plus two
//!   ablations beyond them (prediction noise and guide objective).
//! * [`table5`] — the offline-prediction comparison (ER / RMLSE of the seven
//!   predictors on the two city workloads).
//!
//! Binaries (`figure4`, `figure5`, `figure6`, `table5`, `ablation`,
//! `run_all`) print the same series the paper plots; the `replay` binary
//! captures and replays trace files; the `bench_parallel_sweep` bench runs
//! the scalability sweep serial and at four threads and checks that both
//! outputs are byte-identical.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod figures;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod table5;

pub use metrics::{AlgorithmMetrics, ReplayMetrics};
pub use report::SweepReport;
pub use runner::{run_matrix, run_suite, Algo, ReplayConfig, SuiteOptions};
