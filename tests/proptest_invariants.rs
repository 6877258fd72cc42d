//! Property-based invariants across the whole pipeline: for arbitrary small
//! instances, OPT must be the maximum matching over every flexible pair,
//! every algorithm must produce a valid matching bounded by OPT, and the
//! guide construction must respect the predicted counts.

use ftoa::core_algorithms::{
    BatchGreedy, IndexBackend, Instance, OfflineGuide, OnlineAlgorithm, Opt, Polar, PolarOp,
    SimpleGreedy, SimulationEngine,
};
use ftoa::flow::{hopcroft_karp, BipartiteGraph};
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{
    EventStream, GridPartition, Location, ProblemConfig, SlotPartition, Task, TaskId, TimeDelta,
    TimeStamp, TypeKey, Worker, WorkerId,
};
use proptest::prelude::*;

const SIDE: f64 = 20.0;
const HORIZON: f64 = 60.0;

fn config() -> ProblemConfig {
    ProblemConfig::new(
        GridPartition::square(SIDE, 4).unwrap(),
        SlotPartition::over_horizon(TimeDelta::minutes(HORIZON), 6).unwrap(),
        1.0,
        TimeDelta::minutes(20.0),
        TimeDelta::minutes(8.0),
    )
}

/// Strategy: a list of (x, y, t) triples inside the region/horizon.
fn objects(max: usize) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec((0.0..SIDE, 0.0..SIDE, 0.0..HORIZON - 1.0), 0..max)
}

fn build_instance(
    config: &ProblemConfig,
    workers_raw: &[(f64, f64, f64)],
    tasks_raw: &[(f64, f64, f64)],
) -> (EventStream, SpatioTemporalMatrix, SpatioTemporalMatrix) {
    let workers: Vec<Worker> = workers_raw
        .iter()
        .map(|&(x, y, t)| {
            Worker::new(
                WorkerId(0),
                Location::new(x, y),
                TimeStamp::minutes(t),
                config.default_worker_wait,
            )
        })
        .collect();
    let tasks: Vec<Task> = tasks_raw
        .iter()
        .map(|&(x, y, t)| {
            Task::new(
                TaskId(0),
                Location::new(x, y),
                TimeStamp::minutes(t),
                config.default_task_patience,
            )
        })
        .collect();
    let stream = EventStream::new(workers, tasks);
    let mut pw = SpatioTemporalMatrix::zeros(config.slots.num_slots(), config.grid.num_cells());
    let mut pt = pw.clone();
    for w in stream.workers() {
        pw.increment_key(TypeKey::new(
            config.slots.slot_of(w.start),
            config.grid.cell_of(&w.location),
        ));
    }
    for r in stream.tasks() {
        pt.increment_key(TypeKey::new(
            config.slots.slot_of(r.release),
            config.grid.cell_of(&r.location),
        ));
    }
    (stream, pw, pt)
}

/// Strategy: `(x, y, t, d)` objects on lattices that make exact ties
/// common: integer coordinates in a 10 × 10 square, so distances land
/// exactly on radii; arrival times on a 0.5-minute lattice, so workers and
/// tasks share instants; and a wait or patience `d` of 0 to 20 minutes in
/// half-minute steps, zero included.
fn lattice_objects(max: usize) -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    proptest::collection::vec((0usize..11, 0usize..11, 0usize..60, 0usize..41), 0..max).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(x, y, t, d)| (x as f64, y as f64, t as f64 * 0.5, d as f64 * 0.5))
                .collect()
        },
    )
}

/// Definition 4's flexible feasibility, written out from the fields: the
/// task appears before the worker leaves, and the worker, departing from
/// where it appeared as soon as it appears, reaches the task by its
/// deadline.
fn flexible_feasible(w: &Worker, r: &Task, velocity: f64) -> bool {
    let (dx, dy) = (w.location.x - r.location.x, w.location.y - r.location.y);
    let travel = (dx * dx + dy * dy).sqrt() / velocity;
    let start = w.start.as_minutes();
    let release = r.release.as_minutes();
    release < start + w.wait.as_minutes() && start + travel <= release + r.patience.as_minutes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// OPT finds every flexible pair once, whichever side arrives first and
    /// whatever the waits: on every backend its size is the maximum matching
    /// of all `W × R` feasible pairs (by min-cost flow, a solver OPT does not
    /// use), its pairs are Hopcroft–Karp's on those pairs with each worker's
    /// tasks ascending, and they pass the flexible validation.
    #[test]
    fn opt_is_the_maximum_matching_over_every_flexible_pair(
        workers_raw in lattice_objects(20),
        tasks_raw in lattice_objects(20),
    ) {
        let config = config();
        let workers: Vec<Worker> = workers_raw
            .iter()
            .map(|&(x, y, t, d)| {
                let (at, wait) = (TimeStamp::minutes(t), TimeDelta::minutes(d));
                Worker::new(WorkerId(0), Location::new(x, y), at, wait)
            })
            .collect();
        let tasks: Vec<Task> = tasks_raw
            .iter()
            .map(|&(x, y, t, d)| {
                let (at, patience) = (TimeStamp::minutes(t), TimeDelta::minutes(d));
                Task::new(TaskId(0), Location::new(x, y), at, patience)
            })
            .collect();
        let stream = EventStream::new(workers, tasks);
        let (n_workers, n_tasks) = (stream.num_workers(), stream.num_tasks());

        let mut graph = BipartiteGraph::new(n_workers, n_tasks);
        let (mut first, mut right) = (vec![0], Vec::new());
        for (wi, w) in stream.workers().iter().enumerate() {
            for (ri, r) in stream.tasks().iter().enumerate() {
                if flexible_feasible(w, r, config.velocity) {
                    graph.add_edge(wi, ri);
                    right.push(ri as u32);
                }
            }
            first.push(right.len());
        }
        let maximum = graph.min_cost_max_matching().len();
        let (_, match_left, _) = hopcroft_karp(n_tasks, &first, &right);
        let expected: Vec<(usize, usize)> = match_left
            .iter()
            .enumerate()
            .filter(|&(_, &ri)| ri != u32::MAX)
            .map(|(wi, &ri)| (wi, ri as usize))
            .collect();

        let zeros = SpatioTemporalMatrix::zeros(config.slots.num_slots(), config.grid.num_cells());
        let instance = Instance::new(&config, &stream, &zeros, &zeros);
        for backend in IndexBackend::ALL {
            let opt = SimulationEngine::new(backend).run(&instance, &mut Opt.policy());
            prop_assert_eq!(opt.matching_size(), maximum, "{}", backend.name());
            let pairs: Vec<(usize, usize)> = opt
                .assignments
                .pairs()
                .iter()
                .map(|a| (a.worker.index(), a.task.index()))
                .collect();
            prop_assert_eq!(&pairs, &expected, "{}", backend.name());
            prop_assert!(opt
                .assignments
                .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
                .is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every algorithm returns a feasible matching whose size never exceeds
    /// OPT's, and OPT never exceeds min(|W|, |R|).
    #[test]
    fn all_algorithms_produce_valid_matchings_bounded_by_opt(
        workers_raw in objects(25),
        tasks_raw in objects(25),
    ) {
        let config = config();
        let (stream, pw, pt) = build_instance(&config, &workers_raw, &tasks_raw);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let opt = Opt.run(&instance);
        prop_assert!(opt.matching_size() <= stream.num_workers().min(stream.num_tasks()));
        let algorithms: Vec<Box<dyn OnlineAlgorithm>> = vec![
            Box::new(SimpleGreedy),
            Box::new(BatchGreedy::default()),
            Box::new(Polar::default()),
            Box::new(PolarOp::default()),
        ];
        for alg in &algorithms {
            let result = alg.run(&instance);
            prop_assert!(
                result.matching_size() <= opt.matching_size(),
                "{} produced {} > OPT {}",
                alg.name(), result.matching_size(), opt.matching_size()
            );
            prop_assert!(result
                .assignments
                .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
                .is_ok());
        }
    }

    /// The guide never instantiates more nodes than the predicted totals and
    /// its matching is bounded by both sides.
    #[test]
    fn guide_respects_predicted_counts(
        workers_raw in objects(30),
        tasks_raw in objects(30),
    ) {
        let config = config();
        let (_stream, pw, pt) = build_instance(&config, &workers_raw, &tasks_raw);
        let guide = OfflineGuide::build(&config, &pw, &pt);
        prop_assert_eq!(guide.num_worker_nodes(), pw.total().round() as usize);
        prop_assert_eq!(guide.num_task_nodes(), pt.total().round() as usize);
        prop_assert!(guide.matching_size() <= guide.num_worker_nodes().min(guide.num_task_nodes()));
        // Partner links are symmetric.
        for (w_idx, node) in guide.worker_nodes().iter().enumerate() {
            if let Some(r_idx) = node.partner {
                prop_assert_eq!(guide.task_nodes()[r_idx].partner, Some(w_idx));
            }
        }
    }

    /// POLAR-OP is never worse than POLAR when both use the same guide — the
    /// node-reuse optimisation can only help.
    #[test]
    fn polar_op_dominates_polar(
        workers_raw in objects(25),
        tasks_raw in objects(25),
    ) {
        let config = config();
        let (stream, pw, pt) = build_instance(&config, &workers_raw, &tasks_raw);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let guide = OfflineGuide::build(&config, &pw, &pt);
        let polar = Polar::default().run_with_guide(&instance, &guide);
        let polar_op = PolarOp::default().run_with_guide(&instance, &guide);
        prop_assert!(polar_op.matching_size() >= polar.matching_size());
    }

    /// Perfect predictions make POLAR-OP meet the 0.47 bound empirically on
    /// instances that have at least a few feasible pairs.
    #[test]
    fn polar_op_meets_the_047_bound_with_perfect_prediction(
        workers_raw in objects(40),
        tasks_raw in objects(40),
    ) {
        let config = config();
        let (stream, pw, pt) = build_instance(&config, &workers_raw, &tasks_raw);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let opt = Opt.run(&instance);
        prop_assume!(opt.matching_size() >= 5);
        let polar_op = PolarOp::default().run(&instance);
        prop_assert!(
            polar_op.competitive_ratio(&opt) >= 0.3,
            "POLAR-OP ratio {} too low (opt {})",
            polar_op.competitive_ratio(&opt),
            opt.matching_size()
        );
    }
}
