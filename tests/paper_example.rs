//! End-to-end reproduction of the paper's running example (Example 1,
//! Table 1, Figure 1) through the public facade crate.
//!
//! The qualitative result the example is built to demonstrate:
//! wait-in-place greedy serves 2 requests, POLAR serves 4 by pre-dispatching
//! workers, POLAR-OP serves at least as many, and the offline optimum serves
//! all 6.

use ftoa::core_algorithms::{
    BatchGreedy, Instance, OfflineGuide, OnlineAlgorithm, Opt, Polar, PolarOp, SimpleGreedy,
};
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{
    EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, TypeKey, Worker, WorkerId,
};

fn example_config() -> ProblemConfig {
    ProblemConfig::new(
        GridPartition::square(8.0, 2).unwrap(),
        SlotPartition::over_horizon(TimeDelta::minutes(10.0), 2).unwrap(),
        1.0,
        TimeDelta::minutes(30.0),
        TimeDelta::minutes(2.0),
    )
}

fn example_stream() -> EventStream {
    let dw = TimeDelta::minutes(30.0);
    let dr = TimeDelta::minutes(2.0);
    let w = |x, y, t| Worker::new(WorkerId(0), Location::new(x, y), TimeStamp::minutes(t), dw);
    let r = |x, y, t| Task::new(TaskId(0), Location::new(x, y), TimeStamp::minutes(t), dr);
    EventStream::new(
        vec![
            w(1.0, 6.0, 0.0),
            w(1.0, 8.0, 1.0),
            w(3.0, 7.0, 1.0),
            w(5.0, 6.0, 3.0),
            w(6.0, 5.0, 3.0),
            w(6.0, 7.0, 3.0),
            w(7.0, 6.0, 4.0),
        ],
        vec![
            r(3.0, 6.0, 0.0),
            r(3.5, 5.5, 2.0),
            r(5.0, 3.0, 5.0),
            r(4.0, 1.0, 6.0),
            r(8.0, 2.0, 7.0),
            r(6.0, 1.0, 8.0),
        ],
    )
}

fn counts(
    config: &ProblemConfig,
    stream: &EventStream,
) -> (SpatioTemporalMatrix, SpatioTemporalMatrix) {
    let mut workers =
        SpatioTemporalMatrix::zeros(config.slots.num_slots(), config.grid.num_cells());
    let mut tasks = workers.clone();
    for w in stream.workers() {
        workers.increment_key(TypeKey::new(
            config.slots.slot_of(w.start),
            config.grid.cell_of(&w.location),
        ));
    }
    for r in stream.tasks() {
        tasks.increment_key(TypeKey::new(
            config.slots.slot_of(r.release),
            config.grid.cell_of(&r.location),
        ));
    }
    (workers, tasks)
}

#[test]
fn running_example_reproduces_the_papers_ordering() {
    let config = example_config();
    let stream = example_stream();
    let (pw, pt) = counts(&config, &stream);
    let instance = Instance::new(&config, &stream, &pw, &pt);

    let greedy = SimpleGreedy.run(&instance);
    let gr = BatchGreedy::default().run(&instance);
    let polar = Polar::default().run(&instance);
    let polar_op = PolarOp::default().run(&instance);
    let opt = Opt.run(&instance);

    assert_eq!(greedy.matching_size(), 2, "Example 2: wait-in-place greedy serves 2");
    assert_eq!(polar.matching_size(), 4, "Example 5: POLAR serves 4");
    assert!(polar_op.matching_size() >= polar.matching_size(), "Example 6: POLAR-OP >= POLAR");
    assert_eq!(opt.matching_size(), 6, "Example 1: the offline optimum serves all 6");
    assert!(gr.matching_size() <= opt.matching_size());

    // Every produced matching is feasible under the flexible (FTOA) model.
    for result in [&greedy, &gr, &polar, &polar_op, &opt] {
        result
            .assignments
            .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
            .unwrap_or_else(|e| panic!("{}: invalid matching: {e}", result.algorithm));
    }
    // The wait-in-place algorithms additionally satisfy the static model.
    greedy.assignments.validate_static(stream.workers(), stream.tasks(), config.velocity).unwrap();
    gr.assignments.validate_static(stream.workers(), stream.tasks(), config.velocity).unwrap();
}

#[test]
fn offline_guide_matches_figure_2() {
    let config = example_config();
    let stream = example_stream();
    let (pw, pt) = counts(&config, &stream);
    let guide = OfflineGuide::build(&config, &pw, &pt);
    // Seven predicted workers, six predicted tasks, and a pseudo matching
    // that pairs every predicted task (all six are reachable by some worker
    // type under the example's deadlines).
    assert_eq!(guide.num_worker_nodes(), 7);
    assert_eq!(guide.num_task_nodes(), 6);
    assert_eq!(guide.matching_size(), 6);
}

#[test]
fn empirical_competitive_ratios_exceed_the_theory_bounds_on_the_example() {
    let config = example_config();
    let stream = example_stream();
    let (pw, pt) = counts(&config, &stream);
    let instance = Instance::new(&config, &stream, &pw, &pt);
    let opt = Opt.run(&instance);
    let polar = Polar::default().run(&instance);
    let polar_op = PolarOp::default().run(&instance);
    // The guarantees are 0.40 (POLAR) and 0.47 (POLAR-OP) in expectation; a
    // single favourable instance should comfortably clear them.
    assert!(polar.competitive_ratio(&opt) >= 0.40);
    assert!(polar_op.competitive_ratio(&opt) >= 0.47);
}
