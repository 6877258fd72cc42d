//! The committed golden metrics, byte for byte, in `cargo test`.
//!
//! `ReplayMetrics::replay_file` is the `replay` binary's whole path from a
//! trace to its metrics. Rendered deterministically, both committed
//! fixtures must reproduce their golden files exactly at one and at four
//! threads: matching sizes, payoffs, candidates examined and expiry counts.
//! Every other index backend must then agree with the grid on each policy's
//! matching size and total payoff.

use ftoa::core_algorithms::IndexBackend;
use ftoa::experiments::{Algo, ReplayMetrics, SuiteOptions};

/// Each fixture, the policies its golden file covers, and the golden file.
fn fixtures() -> [(&'static str, Vec<Algo>, &'static str); 2] {
    let mut weighted = Algo::ALL.to_vec();
    weighted.extend(Algo::FLOW);
    [
        ("traces/fixture_small.trace", Algo::ALL.to_vec(), "traces/golden_metrics.json"),
        ("traces/fixture_weighted.trace", weighted, "traces/golden_metrics_v2.json"),
    ]
}

fn replay(trace: &str, algos: &[Algo], opts: SuiteOptions) -> ReplayMetrics {
    ReplayMetrics::replay_file(trace, algos, opts)
        .unwrap_or_else(|e| panic!("committed fixture {trace} must replay: {e}"))
}

#[test]
fn both_fixtures_reproduce_their_golden_files_at_one_and_four_threads() {
    for (trace, algos, golden) in fixtures() {
        let want = std::fs::read_to_string(golden).unwrap();
        for threads in [1, 4] {
            let got = replay(trace, &algos, SuiteOptions::default().with_threads(threads));
            let got = got.to_json(true);
            assert!(got == want, "{trace} at {threads} threads differs from {golden}:\n{got}");
        }
    }
}

#[test]
fn every_backend_matches_the_grid_on_both_fixtures() {
    for (trace, algos, _) in fixtures() {
        let grid = replay(trace, &algos, SuiteOptions::default());
        for backend in [IndexBackend::LinearScan, IndexBackend::Kd, IndexBackend::Hybrid] {
            let other = replay(trace, &algos, SuiteOptions::default().with_backend(backend));
            assert_eq!(other.algorithms.len(), grid.algorithms.len());
            for (g, o) in grid.algorithms.iter().zip(&other.algorithms) {
                let context = format!("{} on {trace}, {} backend", g.algorithm, backend.name());
                assert_eq!(o.algorithm, g.algorithm, "{context}");
                assert_eq!(o.matching_size, g.matching_size, "{context}: matching size");
                assert_eq!(o.total_payoff, g.total_payoff, "{context}: total payoff");
            }
        }
    }
}
