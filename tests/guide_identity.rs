//! Pins the offline guide bit for bit: its matching size and an FNV-1a
//! checksum of both partner vectors, on fixed predictions. Any change to the
//! pair enumeration, the flow network or the flow solvers that alters
//! which predicted nodes get paired shows up here.

use ftoa::core_algorithms::{GuideObjective, OfflineGuide};
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{BoundingBox, GridPartition, ProblemConfig, SlotPartition, TimeDelta, TimeStamp};
use ftoa::workload::{Scenario, SyntheticConfig};

/// FNV-1a over the worker partners, then the task partners (`None` hashes
/// as `u64::MAX`).
fn partner_checksum(guide: &OfflineGuide) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for node in guide.worker_nodes().iter().chain(guide.task_nodes()) {
        let value = node.partner.map_or(u64::MAX, |p| p as u64);
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn pin(guide: &OfflineGuide) -> (usize, u64) {
    (guide.matching_size(), partner_checksum(guide))
}

/// The Table 4 configuration at 5k + 5k with perfect prediction.
fn square_scenario() -> Scenario {
    SyntheticConfig { num_workers: 5_000, num_tasks: 5_000, ..Default::default() }
        .generate(2017)
        .with_perfect_prediction()
}

/// A 37 × 23 grid with an offset origin and cells wider than tall, 30 slots
/// starting at minute 12, and the realised counts of a synthetic stream as
/// the prediction.
fn non_square(num_objects: usize) -> (ProblemConfig, SpatioTemporalMatrix, SpatioTemporalMatrix) {
    let scenario =
        SyntheticConfig { num_workers: num_objects, num_tasks: num_objects, ..Default::default() }
            .generate(7);
    let config = ProblemConfig::new(
        GridPartition::new(BoundingBox::new(-3.0, 2.5, 55.0, 49.0), 37, 23).unwrap(),
        SlotPartition::new(TimeStamp::minutes(12.0), TimeDelta::minutes(24.0), 30).unwrap(),
        0.45,
        TimeDelta::minutes(35.0),
        TimeDelta::minutes(20.0),
    );
    let counts = |arrivals: Vec<(TimeStamp, ftoa::types::Location)>| {
        SpatioTemporalMatrix::from_arrivals(&config.slots, &config.grid, arrivals)
    };
    let workers = counts(scenario.stream.workers().iter().map(|w| (w.start, w.location)).collect());
    let tasks = counts(scenario.stream.tasks().iter().map(|r| (r.release, r.location)).collect());
    (config, workers, tasks)
}

#[test]
fn square_grid_guide_is_pinned() {
    let s = square_scenario();
    let guide = OfflineGuide::build(&s.config, &s.predicted_workers, &s.predicted_tasks);
    assert_eq!(pin(&guide), (2562, 14_758_422_544_086_595_013));
}

#[test]
fn non_square_grid_guide_is_pinned() {
    let (config, workers, tasks) = non_square(5_000);
    let guide = OfflineGuide::build(&config, &workers, &tasks);
    assert_eq!(pin(&guide), (3290, 7_289_715_205_195_098_236));
}

#[test]
fn min_cost_guide_is_pinned() {
    let (config, workers, tasks) = non_square(800);
    let guide =
        OfflineGuide::build_with(&config, &workers, &tasks, GuideObjective::MinCostMaxCardinality);
    assert_eq!(pin(&guide), (392, 3_988_965_394_474_929_655));
}
