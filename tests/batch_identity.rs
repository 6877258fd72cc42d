//! Pins the three batch policies bit for bit: GR, BATCH-MF and BATCH-HUN on
//! a `hotspot`-shaped stream (demand packed next to supply), with unit
//! values and with payoffs and capacities. Each pin is the matching size,
//! the bits of `total_payoff` and an FNV-1a checksum over every assignment
//! in commit order. Any change to how a round's graph is built or solved
//! that alters which pairs get committed, or when, shows up here.

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

fn run_batch_policies(scenario: &Scenario) -> Vec<AlgorithmResult> {
    ReplayConfig::new(scenario)
        .algos(&[Algo::Gr, Algo::BatchMaxFlow, Algo::BatchHungarian])
        .threads(1)
        .run()
}

#[test]
fn unit_value_rounds_are_pinned() {
    let results = run_batch_policies(&hotspot(false));
    let pins: Vec<_> = results.iter().map(pin).collect();
    let unit = 2608f64.to_bits();
    assert_eq!(
        pins,
        vec![
            ("GR", 2608, unit, 14_372_686_654_224_617_722),
            ("BATCH-MF", 2608, unit, 14_372_686_654_224_617_722),
            ("BATCH-HUN", 2608, unit, 14_372_686_654_224_617_722),
        ]
    );
}

#[test]
fn weighted_rounds_are_pinned() {
    let results = run_batch_policies(&hotspot(true));
    let pins: Vec<_> = results.iter().map(pin).collect();
    assert_eq!(
        pins,
        vec![
            ("GR", 2976, 0x40c1_b6fb_0a0e_f072, 10_577_599_497_092_829_334),
            ("BATCH-MF", 2995, 0x40c1_d39e_3297_ae0d, 3_431_627_286_737_400_019),
            ("BATCH-HUN", 2993, 0x40c1_dbd6_1e07_04ae, 1_324_007_960_362_670_830),
        ]
    );
}
