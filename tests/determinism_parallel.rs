//! Parallel-determinism regression tests.
//!
//! The `ftoa-runtime` job pool merges results in submission order, and every
//! (scenario × algorithm) cell is a pure function of its inputs — so the
//! deterministic rendering of the sweep runner (`SweepReport::
//! to_csv_deterministic`) must be **byte-identical** at any thread count, and
//! every backend's assignments identical. These tests pin that: they run the
//! same workload serial and at four workers and compare. The replay
//! pipeline's rendering is pinned the same way, against the golden files, by
//! `tests/golden_replay.rs`.

use ftoa::core_algorithms::IndexBackend;
use ftoa::experiments::{figures, ReplayConfig, SuiteOptions};
use ftoa::workload::SyntheticConfig;

#[test]
fn sweep_runner_csv_is_byte_identical_at_any_thread_count() {
    // A real multi-point sweep (five |W| values, full five-algorithm suite)
    // at tiny scale, once serial and once over four workers.
    let serial = figures::fig4_vary_workers(0.01, &SuiteOptions::default().with_threads(1));
    let parallel = figures::fig4_vary_workers(0.01, &SuiteOptions::default().with_threads(4));
    assert_eq!(
        serial.to_csv_deterministic(),
        parallel.to_csv_deterministic(),
        "sweep CSV diverged between threads=1 and threads=4"
    );
    // Sanity: the deterministic rendering is not trivially empty.
    let csv = serial.to_csv_deterministic();
    assert!(csv.lines().count() > 2 * 5 * 5, "expected 2 metrics x 5 algos x 5 points of rows");
}

#[test]
fn every_index_backend_is_deterministic_under_parallel_fan_out() {
    // One scenario, three backends, 1-vs-4 threads each: assignments (not
    // just matching sizes) must be reproduced exactly.
    let scenario = SyntheticConfig {
        num_workers: 300,
        num_tasks: 300,
        grid_n: 8,
        num_slots: 6,
        ..Default::default()
    }
    .generate(7);
    for backend in IndexBackend::ALL {
        let opts = SuiteOptions::default().with_backend(backend);
        let serial = ReplayConfig::new(&scenario).options(opts).run();
        let parallel = ReplayConfig::new(&scenario).options(opts.with_threads(4)).run();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.algorithm, p.algorithm, "{}", backend.name());
            assert_eq!(
                s.assignments.pairs(),
                p.assignments.pairs(),
                "{} assignments diverged on {}",
                s.algorithm,
                backend.name()
            );
            assert_eq!(s.stats, p.stats, "{} stats diverged on {}", s.algorithm, backend.name());
        }
    }
}
