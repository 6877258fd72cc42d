//! The paper's running example (Example 1 / Table 1 / Figure 1), step by
//! step: seven taxis, six requests, a 2×2 grid and two 5-minute slots.
//!
//! Shows why flexibility matters: the wait-in-place greedy serves 2 requests,
//! POLAR serves 4 by pre-dispatching idle taxis towards predicted demand, and
//! the offline optimum (free movement, full knowledge) serves all 6.
//!
//! Run with: `cargo run --example toy_example`

use ftoa::core_algorithms::{
    Instance, OfflineGuide, OnlineAlgorithm, Opt, Polar, PolarOp, SimpleGreedy,
};
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{
    EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, TypeKey, Worker, WorkerId,
};

fn main() {
    // 8x8 region split into four areas; two 5-minute slots; speed 1 unit/min;
    // worker patience 30 min; task deadline 2 min (the toy example's numbers).
    let config = ProblemConfig::new(
        GridPartition::square(8.0, 2).unwrap(),
        SlotPartition::over_horizon(TimeDelta::minutes(10.0), 2).unwrap(),
        1.0,
        TimeDelta::minutes(30.0),
        TimeDelta::minutes(2.0),
    );

    let dw = TimeDelta::minutes(30.0);
    let dr = TimeDelta::minutes(2.0);
    let w = |x, y, t| Worker::new(WorkerId(0), Location::new(x, y), TimeStamp::minutes(t), dw);
    let r = |x, y, t| Task::new(TaskId(0), Location::new(x, y), TimeStamp::minutes(t), dr);
    let workers = vec![
        w(1.0, 6.0, 0.0),
        w(1.0, 8.0, 1.0),
        w(3.0, 7.0, 1.0),
        w(5.0, 6.0, 3.0),
        w(6.0, 5.0, 3.0),
        w(6.0, 7.0, 3.0),
        w(7.0, 6.0, 4.0),
    ];
    let tasks = vec![
        r(3.0, 6.0, 0.0),
        r(3.5, 5.5, 2.0),
        r(5.0, 3.0, 5.0),
        r(4.0, 1.0, 6.0),
        r(8.0, 2.0, 7.0),
        r(6.0, 1.0, 8.0),
    ];
    let stream = EventStream::new(workers, tasks);

    // The "prediction" of Figure 1d: the realised per-slot/per-area counts.
    let mut pred_w = SpatioTemporalMatrix::zeros(2, 4);
    let mut pred_r = SpatioTemporalMatrix::zeros(2, 4);
    for worker in stream.workers() {
        pred_w.increment_key(TypeKey::new(
            config.slots.slot_of(worker.start),
            config.grid.cell_of(&worker.location),
        ));
    }
    for task in stream.tasks() {
        pred_r.increment_key(TypeKey::new(
            config.slots.slot_of(task.release),
            config.grid.cell_of(&task.location),
        ));
    }

    println!("Predicted counts per (slot, area):");
    for (key, count) in pred_w.iter_keys().filter(|&(_, v)| v > 0.0) {
        println!("  workers  slot{} area{}: {}", key.slot.index(), key.cell.index(), count);
    }
    for (key, count) in pred_r.iter_keys().filter(|&(_, v)| v > 0.0) {
        println!("  tasks    slot{} area{}: {}", key.slot.index(), key.cell.index(), count);
    }

    let guide = OfflineGuide::build(&config, &pred_w, &pred_r);
    println!("\nOffline guide pseudo-matching |E*| = {}", guide.matching_size());

    let instance = Instance::new(&config, &stream, &pred_w, &pred_r);
    for (name, size) in [
        ("SimpleGreedy (wait in place)", SimpleGreedy.run(&instance).matching_size()),
        ("POLAR (occupy guide nodes)", Polar::default().run(&instance).matching_size()),
        ("POLAR-OP (reuse guide nodes)", PolarOp::default().run(&instance).matching_size()),
        ("OPT (offline, free movement)", Opt.run(&instance).matching_size()),
    ] {
        println!("{name:<32} -> {size} of 6 requests served");
    }
}
