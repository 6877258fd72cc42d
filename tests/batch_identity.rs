//! Pins SimpleGreedy and the three batch policies bit for bit: GR, BATCH-MF
//! and BATCH-HUN on a `hotspot`-shaped stream (demand packed next to
//! supply), with unit values and with payoffs and capacities. Each pin is
//! the matching size, the bits of `total_payoff` and an FNV-1a checksum over
//! every assignment in commit order. A round's size and payoff are fixed by
//! its objective; the checksum also pins which maximum matching the round
//! picks: each task, in the round's order, takes its oldest free feasible
//! worker, or else one augmenting-path search re-seats earlier tasks, oldest
//! workers first. Any change to how a round picks its pairs, or when it
//! commits them, shows up here. SimpleGreedy's pin covers the index's
//! nearest query instead: every arrival takes the nearest feasible partner,
//! so a change to which of two equidistant candidates the grid returns, or
//! to what its ring walk finds, shows up in the checksum. These test
//! binaries are debug builds, so every round they run is also checked
//! against Hopcroft–Karp and min-cost flow.

use ftoa::core_algorithms::AlgorithmResult;
use ftoa::experiments::{Algo, ReplayConfig};
use ftoa::workload::synthetic::DistributionParams;
use ftoa::workload::{Scenario, SyntheticConfig};

/// FNV-1a over `(worker, task, assigned_at bits)` of every assignment, in
/// `assignments.pairs()` order, each field as little-endian `u64`.
fn assignment_checksum(result: &AlgorithmResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in result.assignments.pairs() {
        let fields =
            [a.worker.index() as u64, a.task.index() as u64, a.assigned_at.as_minutes().to_bits()];
        for value in fields {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// `(algorithm, matching size, total payoff bits, checksum)`.
fn pin(result: &AlgorithmResult) -> (&str, usize, u64, u64) {
    (
        result.algorithm.as_str(),
        result.matching_size(),
        result.total_payoff.to_bits(),
        assignment_checksum(result),
    )
}

/// The benchmark's `hotspot` shape at 4k + 4k.
fn hotspot(weighted: bool) -> Scenario {
    let tasks = DistributionParams {
        temporal_mu: 0.5,
        temporal_sigma: 0.35,
        spatial_mean: 0.35,
        spatial_cov: 0.05,
    };
    let mut config =
        SyntheticConfig { num_workers: 4_000, num_tasks: 4_000, tasks, ..Default::default() };
    if weighted {
        config.task_payoff = Some((1.0, 5.0));
        config.worker_capacity = Some((1, 3));
    }
    config.generate(2017)
}

fn run_pinned_policies(scenario: &Scenario) -> Vec<AlgorithmResult> {
    ReplayConfig::new(scenario)
        .algos(&[Algo::SimpleGreedy, Algo::Gr, Algo::BatchMaxFlow, Algo::BatchHungarian])
        .threads(1)
        .run()
}

#[test]
fn unit_value_rounds_are_pinned() {
    let results = run_pinned_policies(&hotspot(false));
    let pins: Vec<_> = results.iter().map(pin).collect();
    let unit = 2608f64.to_bits();
    assert_eq!(
        pins,
        vec![
            ("SimpleGreedy", 2434, 2434f64.to_bits(), 35_671_432_730_161_299),
            ("GR", 2608, unit, 7_042_771_056_788_252_976),
            ("BATCH-MF", 2608, unit, 7_042_771_056_788_252_976),
            ("BATCH-HUN", 2608, unit, 7_042_771_056_788_252_976),
        ]
    );
}

#[test]
fn weighted_rounds_are_pinned() {
    let results = run_pinned_policies(&hotspot(true));
    let pins: Vec<_> = results.iter().map(pin).collect();
    assert_eq!(
        pins,
        vec![
            ("SimpleGreedy", 2434, 0x40bd_055e_68c2_1fdb, 35_671_432_730_161_299),
            ("GR", 2976, 0x40c1_b6fb_0a0e_f072, 10_706_707_879_067_590),
            ("BATCH-MF", 2995, 0x40c1_d39e_3297_ae0d, 3_431_627_286_737_400_019),
            ("BATCH-HUN", 2993, 0x40c1_dbd6_1e07_04ae, 1_324_007_960_362_670_830),
        ]
    );
}
