//! Engine-equivalence property tests.
//!
//! The `SimulationEngine` refactor replaced every algorithm's hand-rolled
//! event loop with shared engine + policy code, and put candidate generation
//! behind the `CandidateIndex` trait. These properties pin the refactor down
//! on random `workload` scenarios:
//!
//! * engine-based SimpleGreedy and GR produce matchings of **identical total
//!   utility** to straight ports of the pre-refactor whole-stream loops
//!   (kept below as oracles);
//! * the linear-scan backend (the reference), the grid-index backend, the
//!   epoch-rebuild KD-tree backend and the adaptive hybrid agree on the
//!   total utility of every algorithm, while the grid backend never
//!   examines more candidates;
//! * POLAR / POLAR-OP are index-independent, and every matching stays valid.

use ftoa::core_algorithms::engine::kernels::{force_kernel, KernelKind};
use ftoa::core_algorithms::{
    BatchGreedy, IndexBackend, Instance, OfflineGuide, Polar, PolarOp, SimpleGreedy,
    SimulationEngine,
};
use ftoa::flow::BipartiteGraph;
use ftoa::types::{Event, EventStream, ProblemConfig, Task, TimeDelta, TimeStamp, Worker};
use ftoa::workload::{Scenario, SyntheticConfig};
use proptest::prelude::*;

/// A small random synthetic scenario (the generator used by the experiment
/// harness, scaled down so each case runs in milliseconds).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (1usize..60, 1usize..60, 2usize..8, 2usize..6, 0u64..1_000).prop_map(
        |(num_workers, num_tasks, grid_n, num_slots, seed)| {
            SyntheticConfig {
                num_workers,
                num_tasks,
                grid_n,
                num_slots,
                region_side: 20.0,
                slot_minutes: 10.0,
                ..SyntheticConfig::default()
            }
            .generate(seed)
        },
    )
}

/// Straight port of the pre-refactor SimpleGreedy event loop (wait-in-place
/// greedy with linear scans), kept as the oracle for total utility.
fn reference_simple_greedy(config: &ProblemConfig, stream: &EventStream) -> usize {
    let velocity = config.velocity;
    let mut idle_workers: Vec<Worker> = Vec::new();
    let mut pending_tasks: Vec<Task> = Vec::new();
    let mut matched = 0usize;
    for event in stream.iter() {
        let now = event.time();
        match event {
            Event::WorkerArrival(w) => {
                let mut best: Option<(usize, f64)> = None;
                if now < w.deadline() {
                    for (i, r) in pending_tasks.iter().enumerate() {
                        if now + w.location.travel_time(&r.location, velocity) > r.deadline() {
                            continue;
                        }
                        let d = w.location.distance(&r.location);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((i, d));
                        }
                    }
                }
                if let Some((i, _)) = best {
                    pending_tasks.swap_remove(i);
                    matched += 1;
                } else {
                    idle_workers.push(*w);
                }
            }
            Event::TaskArrival(r) => {
                let mut best: Option<(usize, f64)> = None;
                for (i, w) in idle_workers.iter().enumerate() {
                    if now > w.deadline()
                        || now + w.location.travel_time(&r.location, velocity) > r.deadline()
                    {
                        continue;
                    }
                    let d = w.location.distance(&r.location);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
                if let Some((i, _)) = best {
                    idle_workers.swap_remove(i);
                    matched += 1;
                } else {
                    pending_tasks.push(*r);
                }
            }
        }
    }
    matched
}

/// Straight port of the pre-refactor GR (windowed batch matching) loop.
fn reference_batch_greedy(
    config: &ProblemConfig,
    stream: &EventStream,
    window_minutes: f64,
) -> usize {
    let velocity = config.velocity;
    let window = TimeDelta::minutes(window_minutes.max(1e-6));
    let mut available_workers: Vec<Worker> = Vec::new();
    let mut pending_tasks: Vec<Task> = Vec::new();
    let mut matched = 0usize;
    let mut window_end = match stream.events().first() {
        Some(e) => e.time() + window,
        None => TimeStamp::ZERO,
    };
    let flush = |now: TimeStamp,
                 available_workers: &mut Vec<Worker>,
                 pending_tasks: &mut Vec<Task>,
                 matched: &mut usize| {
        available_workers.retain(|w| w.deadline() >= now);
        pending_tasks.retain(|r| r.deadline() >= now);
        if available_workers.is_empty() || pending_tasks.is_empty() {
            return;
        }
        let mut graph = BipartiteGraph::new(available_workers.len(), pending_tasks.len());
        for (wi, w) in available_workers.iter().enumerate() {
            for (ri, r) in pending_tasks.iter().enumerate() {
                let depart = now.max(r.release);
                if depart + w.location.travel_time(&r.location, velocity) <= r.deadline() {
                    graph.add_edge(wi, ri);
                }
            }
        }
        let matching = graph.max_matching();
        let mut matched_workers = vec![false; available_workers.len()];
        let mut matched_tasks = vec![false; pending_tasks.len()];
        for &(wi, ri) in &matching.pairs {
            *matched += 1;
            matched_workers[wi] = true;
            matched_tasks[ri] = true;
        }
        let mut wi = 0;
        available_workers.retain(|_| {
            let keep = !matched_workers[wi];
            wi += 1;
            keep
        });
        let mut ri = 0;
        pending_tasks.retain(|_| {
            let keep = !matched_tasks[ri];
            ri += 1;
            keep
        });
    };
    for event in stream.iter() {
        let now = event.time();
        while now >= window_end {
            flush(window_end, &mut available_workers, &mut pending_tasks, &mut matched);
            window_end += window;
        }
        match event {
            Event::WorkerArrival(w) => available_workers.push(*w),
            Event::TaskArrival(r) => pending_tasks.push(*r),
        }
    }
    flush(window_end, &mut available_workers, &mut pending_tasks, &mut matched);
    matched
}

fn instance_of(scenario: &Scenario) -> Instance<'_> {
    Instance::new(
        &scenario.config,
        &scenario.stream,
        &scenario.predicted_workers,
        &scenario.predicted_tasks,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-based SimpleGreedy equals the pre-refactor loop, on both index
    /// backends.
    #[test]
    fn simple_greedy_matches_pre_refactor_loop(scenario in scenario_strategy()) {
        let instance = instance_of(&scenario);
        let oracle = reference_simple_greedy(&scenario.config, &scenario.stream);
        for backend in IndexBackend::ALL {
            let result = SimulationEngine::new(backend)
                .run(&instance, &mut SimpleGreedy.policy());
            prop_assert_eq!(
                result.matching_size(), oracle,
                "backend {:?} diverged from the pre-refactor loop", backend
            );
            prop_assert!(result
                .assignments
                .validate_static(
                    scenario.stream.workers(),
                    scenario.stream.tasks(),
                    scenario.config.velocity
                )
                .is_ok());
        }
    }

    /// Engine-based GR equals the pre-refactor windowed loop, on both index
    /// backends and across window lengths.
    #[test]
    fn batch_greedy_matches_pre_refactor_loop(
        scenario in scenario_strategy(),
        window in 0.5f64..20.0,
    ) {
        let instance = instance_of(&scenario);
        let oracle = reference_batch_greedy(&scenario.config, &scenario.stream, window);
        for backend in IndexBackend::ALL {
            let result = SimulationEngine::new(backend)
                .run(&instance, &mut BatchGreedy { window_minutes: window }.policy());
            prop_assert_eq!(
                result.matching_size(), oracle,
                "backend {:?} diverged (window {})", backend, window
            );
        }
    }

    /// Kernel dispatch is invisible to every algorithm: forcing the scalar
    /// oracle, forcing the best SIMD kernel this CPU supports, and leaving
    /// the automatic `FTOA_KERNEL` resolution in place all yield the same
    /// matchings on all four backends. (The kernels are bit-identical, so
    /// racing the process-wide override from concurrent tests is benign.)
    #[test]
    fn matchings_are_kernel_dispatch_invariant(scenario in scenario_strategy()) {
        let instance = instance_of(&scenario);
        for backend in IndexBackend::ALL {
            let engine = SimulationEngine::new(backend);
            force_kernel(Some(KernelKind::Scalar));
            let scalar_greedy = engine.run(&instance, &mut SimpleGreedy.policy());
            let scalar_gr = engine
                .run(&instance, &mut BatchGreedy::default().policy());
            force_kernel(Some(KernelKind::best_supported()));
            let simd_greedy = engine.run(&instance, &mut SimpleGreedy.policy());
            let simd_gr = engine.run(&instance, &mut BatchGreedy::default().policy());
            force_kernel(None);
            let auto_greedy = engine.run(&instance, &mut SimpleGreedy.policy());

            prop_assert_eq!(
                scalar_greedy.matching_size(), simd_greedy.matching_size(),
                "backend {:?}: forced {} diverged from scalar",
                backend, KernelKind::best_supported().name()
            );
            prop_assert_eq!(scalar_greedy.matching_size(), auto_greedy.matching_size());
            prop_assert_eq!(scalar_gr.matching_size(), simd_gr.matching_size());
            prop_assert_eq!(
                scalar_greedy.stats.candidates_examined,
                simd_greedy.stats.candidates_examined,
                "kernel choice must not change how many candidates a backend examines"
            );
        }
    }

    /// POLAR and POLAR-OP run through the engine and are index-independent;
    /// the grid backend never examines more candidates than the scan.
    #[test]
    fn guided_policies_are_backend_independent(scenario in scenario_strategy()) {
        let instance = instance_of(&scenario);
        let guide = OfflineGuide::build(
            &scenario.config,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let polar = Polar::default();
        let polar_op = PolarOp::default();
        let linear = SimulationEngine::new(IndexBackend::LinearScan);
        let grid = SimulationEngine::new(IndexBackend::Grid);
        let kd = SimulationEngine::new(IndexBackend::Kd);
        let hybrid = SimulationEngine::new(IndexBackend::Hybrid);

        let polar_linear = linear.run(&instance, &mut polar.policy(&instance, &guide));
        let polar_grid = grid.run(&instance, &mut polar.policy(&instance, &guide));
        let polar_kd = kd.run(&instance, &mut polar.policy(&instance, &guide));
        let polar_hybrid = hybrid.run(&instance, &mut polar.policy(&instance, &guide));
        prop_assert_eq!(polar_linear.matching_size(), polar_grid.matching_size());
        prop_assert_eq!(polar_linear.matching_size(), polar_kd.matching_size());
        prop_assert_eq!(polar_linear.matching_size(), polar_hybrid.matching_size());

        let op_linear = linear.run(&instance, &mut polar_op.policy(&instance, &guide));
        let op_grid = grid.run(&instance, &mut polar_op.policy(&instance, &guide));
        let op_kd = kd.run(&instance, &mut polar_op.policy(&instance, &guide));
        let op_hybrid = hybrid.run(&instance, &mut polar_op.policy(&instance, &guide));
        prop_assert_eq!(op_linear.matching_size(), op_grid.matching_size());
        prop_assert_eq!(op_linear.matching_size(), op_kd.matching_size());
        prop_assert_eq!(op_linear.matching_size(), op_hybrid.matching_size());

        prop_assert!(op_grid.matching_size() >= polar_grid.matching_size());
        prop_assert!(
            polar_grid.stats.candidates_examined <= polar_linear.stats.candidates_examined
        );
        prop_assert!(op_grid
            .assignments
            .validate_flexible(
                scenario.stream.workers(),
                scenario.stream.tasks(),
                scenario.config.velocity
            )
            .is_ok());
    }
}
