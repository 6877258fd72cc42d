//! Degenerate inputs the engine must handle exactly: a grid with a single
//! bucket, a worker and a task arriving at the same instant, and a stream
//! gap spanning several empty batch windows. (Zero-radius queries are
//! pinned per backend next to the index tests in `engine::index`.)

use ftoa::core_algorithms::{
    AlgorithmResult, BatchGreedy, BatchMaxFlow, IndexBackend, Instance, OnlinePolicy, SimpleGreedy,
    SimulationEngine,
};
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{
    EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, Worker, WorkerId,
};

/// A 10×10 region split into `cells × cells` grid cells.
fn config(cells: usize) -> ProblemConfig {
    ProblemConfig::new(
        GridPartition::square(10.0, cells).unwrap(),
        SlotPartition::over_horizon(TimeDelta::minutes(120.0), 4).unwrap(),
        1.0,
        TimeDelta::minutes(10.0),
        TimeDelta::minutes(10.0),
    )
}

fn worker(x: f64, y: f64, t: f64, patience: f64) -> Worker {
    Worker::new(
        WorkerId(0),
        Location::new(x, y),
        TimeStamp::minutes(t),
        TimeDelta::minutes(patience),
    )
}

fn task(x: f64, y: f64, t: f64, patience: f64) -> Task {
    Task::new(TaskId(0), Location::new(x, y), TimeStamp::minutes(t), TimeDelta::minutes(patience))
}

fn run(
    cfg: &ProblemConfig,
    stream: &EventStream,
    backend: IndexBackend,
    policy: &mut dyn OnlinePolicy,
) -> AlgorithmResult {
    // Every policy here is prediction-free, so the predictions are zeros.
    let zeros = SpatioTemporalMatrix::zeros(cfg.slots.num_slots(), cfg.grid.num_cells());
    SimulationEngine::new(backend).run(&Instance::new(cfg, stream, &zeros, &zeros), policy)
}

fn gr() -> BatchGreedy {
    BatchGreedy { window_minutes: 3.0 }
}

/// Scattered arrivals with pairwise-distinct distances, so the nearest
/// candidate is never a tie and the matching is backend-independent.
fn scattered(count: usize) -> EventStream {
    let coord = |i: usize, a: usize, b: usize| ((i * a + b) % 97) as f64 * 0.1031;
    let workers = (0..count)
        .map(|i| worker(coord(i, 37, 5), coord(i, 59, 11), i as f64 * 0.5, 8.0))
        .collect();
    let tasks = (0..count)
        .map(|i| task(coord(i, 53, 17), coord(i, 71, 23), i as f64 * 0.5 + 0.25, 6.0))
        .collect();
    EventStream::new(workers, tasks)
}

#[test]
fn one_bucket_grid_matches_the_linear_scan() {
    let cfg = config(1);
    let stream = scattered(40);
    let greedy = |b| run(&cfg, &stream, b, &mut SimpleGreedy.policy());
    let batch = |b| run(&cfg, &stream, b, &mut gr().policy());
    for (name, linear, grid) in [
        ("SimpleGreedy", greedy(IndexBackend::LinearScan), greedy(IndexBackend::Grid)),
        ("GR", batch(IndexBackend::LinearScan), batch(IndexBackend::Grid)),
    ] {
        assert!(linear.matching_size() > 0, "{name}: the scenario must match something");
        assert_eq!(linear.assignments.pairs(), grid.assignments.pairs(), "{name}");
        assert_eq!(linear.total_payoff, grid.total_payoff, "{name}");
    }
}

#[test]
fn simultaneous_worker_and_task_are_matched_at_that_instant() {
    let cfg = config(5);
    let stream = EventStream::new(vec![worker(4.0, 4.0, 7.0, 5.0)], vec![task(4.5, 4.0, 7.0, 5.0)]);
    for backend in IndexBackend::ALL {
        let result = run(&cfg, &stream, backend, &mut SimpleGreedy.policy());
        let pairs = result.assignments.pairs();
        assert_eq!(pairs.len(), 1, "{}", backend.name());
        assert_eq!(pairs[0].assigned_at, TimeStamp::minutes(7.0), "{}", backend.name());
    }
}

/// Two tight clusters of arrivals; the second starts `offset` minutes in.
/// Every object of the first cluster expires before minute 6, so moving the
/// second cluster later only inserts empty 3-minute windows between them.
fn two_clusters(offset: f64) -> EventStream {
    let mut workers = Vec::new();
    let mut tasks = Vec::new();
    for start in [0.0, offset] {
        for i in 0..6 {
            let t = start + i as f64 * 0.05;
            let x = 2.0 + (i % 3) as f64 * 0.7;
            let y = 3.0 + (i / 3) as f64 * 0.9;
            workers.push(worker(x, y, t, 5.0));
            tasks.push(task(x + 0.3 + i as f64 * 0.11, y - 0.2, t + 0.02, 5.0));
        }
    }
    EventStream::new(workers, tasks)
}

fn id_pairs(result: &AlgorithmResult) -> Vec<(usize, usize)> {
    let mut pairs: Vec<_> =
        result.assignments.pairs().iter().map(|a| (a.worker.index(), a.task.index())).collect();
    pairs.sort_unstable();
    pairs
}

#[test]
fn empty_windows_in_a_stream_gap_change_no_batch_matching() {
    let cfg = config(5);
    let contiguous = two_clusters(6.0);
    // 36 minutes keeps the 3-minute window grid aligned and leaves ten
    // empty windows between the clusters.
    let gapped = two_clusters(36.0);
    type MakePolicy = fn() -> Box<dyn OnlinePolicy>;
    let policies: [(&str, MakePolicy); 2] = [
        ("GR", || Box::new(gr().policy())),
        ("BATCH-MF", || Box::new(BatchMaxFlow { window_minutes: 3.0 }.policy())),
    ];
    for (name, make) in policies {
        for backend in [IndexBackend::LinearScan, IndexBackend::Grid] {
            let base = run(&cfg, &contiguous, backend, &mut *make());
            let gap = run(&cfg, &gapped, backend, &mut *make());
            assert!(base.matching_size() > 6, "{name}: both clusters must match");
            assert_eq!(id_pairs(&base), id_pairs(&gap), "{name} on {}", backend.name());
            assert_eq!(base.total_payoff, gap.total_payoff, "{name}");
        }
    }
}
