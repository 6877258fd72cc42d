//! Direct probes of single layers, called through their public APIs.
//!
//! The policy callbacks are timed by the wrappers in [`crate::probe`]; the
//! layers below them are probed here on the workload's own arrivals:
//!
//! * the candidate indexes and the arena ([`index_probe`]): every backend
//!   replays the same inserts, expiries, queries and removals;
//! * the distance kernels ([`kernel_probe`]): whole-slice sweeps at the
//!   index probe's mean live-pool size;
//! * the flow solvers ([`flow_probe`]): one bipartite graph per batch
//!   window, solved by Hopcroft–Karp and by min-cost max-flow.
//!
//! Every operation is timed with its own pair of clock reads, so per-op
//! figures include one clock read.

use crate::probe::WindowLabeller;
use flow::BipartiteGraph;
use ftoa_core::engine::kernels::{for_each_within_sq_in, nearest_within_sq_in, KernelKind};
use ftoa_core::{
    CandidateIndex, EngineIndex, GridCandidateIndex, HybridCandidateIndex, IndexBackend, ItemArena,
    KdCandidateIndex, LinearScanIndex, Stopwatch,
};
use ftoa_types::{Event, EventStream, ProblemConfig, Task, TimeStamp, Worker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Duration;

/// Every backend the index probe compares, with its metric-name key.
pub const BACKENDS: [(IndexBackend, &str); 4] = [
    (IndexBackend::LinearScan, "linear"),
    (IndexBackend::Grid, "grid"),
    (IndexBackend::Kd, "kd"),
    (IndexBackend::Hybrid, "hybrid"),
];

/// The index probe queries at most this many tasks; on larger streams it
/// queries every k-th task, so the linear oracle stays affordable.
const MAX_QUERIED_TASKS: usize = 50_000;

/// What one backend's index probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Mean `index.insert` time.
    pub insert_ns: f64,
    /// Mean `index.remove` time (expiries and matches).
    pub remove_ns: f64,
    /// Mean `nearest_within` time.
    pub nearest_ns: f64,
    /// Mean `for_each_within` time.
    pub range_ns: f64,
    /// Candidates examined per query, over both query kinds.
    pub examined_per_query: f64,
    /// Share of nearest queries that found a worker.
    pub hit_ratio: f64,
    /// Mean `arena.insert` time.
    pub arena_insert_ns: f64,
    /// Mean `arena.remove` time.
    pub arena_remove_ns: f64,
    /// Mean live pool size at query time.
    pub mean_pool: f64,
    /// Nearest queries that found a worker.
    pub hits: u64,
    /// Workers visited by all range queries.
    pub visited: u64,
}

fn mean_ns(total: Duration, count: u64) -> f64 {
    total.as_nanos() as f64 / count.max(1) as f64
}

fn build_index(backend: IndexBackend, config: &ProblemConfig) -> EngineIndex<Worker> {
    match backend {
        IndexBackend::LinearScan => EngineIndex::Linear(LinearScanIndex::new()),
        IndexBackend::Grid => EngineIndex::Grid(GridCandidateIndex::for_config(config)),
        IndexBackend::Kd => EngineIndex::Kd(KdCandidateIndex::new()),
        IndexBackend::Hybrid => EngineIndex::Hybrid(HybridCandidateIndex::for_config(config)),
    }
}

/// Replay the stream's arrivals against an `ItemArena<Worker>` and one
/// backend: insert workers as they arrive, expire them when their deadline
/// has passed, and for each queried task run `nearest_within` and
/// `for_each_within` at its reachable radius, then remove the worker found.
pub fn index_probe(
    stream: &EventStream,
    config: &ProblemConfig,
    backend: IndexBackend,
) -> IndexStats {
    let stride = stream.num_tasks().div_ceil(MAX_QUERIED_TASKS).max(1);
    let clock = Stopwatch::start();
    let mut arena: ItemArena<Worker> = ItemArena::with_capacity(stream.num_workers());
    let mut index = build_index(backend, config);
    let mut expiry: BinaryHeap<Reverse<(TimeStamp, usize)>> = BinaryHeap::new();
    let (mut arena_insert, mut index_insert, mut inserts) = (Duration::ZERO, Duration::ZERO, 0u64);
    let (mut arena_remove, mut index_remove, mut removes) = (Duration::ZERO, Duration::ZERO, 0u64);
    let (mut nearest, mut range, mut queries) = (Duration::ZERO, Duration::ZERO, 0u64);
    let (mut hits, mut visited, mut pool_sum) = (0u64, 0u64, 0u64);
    let mut remove = |arena: &mut ItemArena<Worker>, index: &mut EngineIndex<Worker>, id: usize| {
        let Some(handle) = arena.handle_of(id) else { return };
        let t0 = clock.elapsed();
        index.remove(arena, handle);
        let t1 = clock.elapsed();
        black_box(arena.remove(handle));
        let t2 = clock.elapsed();
        index_remove += t1 - t0;
        arena_remove += t2 - t1;
        removes += 1;
    };
    let mut tasks_seen = 0usize;
    for event in stream.iter() {
        let now = event.time();
        while let Some(&Reverse((deadline, id))) = expiry.peek() {
            if deadline >= now {
                break;
            }
            expiry.pop();
            remove(&mut arena, &mut index, id);
        }
        match event {
            Event::WorkerArrival(w) => {
                let t0 = clock.elapsed();
                let handle = arena.insert(*w);
                let t1 = clock.elapsed();
                index.insert(&arena, handle);
                let t2 = clock.elapsed();
                arena_insert += t1 - t0;
                index_insert += t2 - t1;
                inserts += 1;
                expiry.push(Reverse((w.deadline(), w.id.index())));
            }
            Event::TaskArrival(r) => {
                tasks_seen += 1;
                if !(tasks_seen - 1).is_multiple_of(stride) {
                    continue;
                }
                let radius = r.reach_radius_at(now, config.velocity);
                pool_sum += arena.len() as u64;
                let t0 = clock.elapsed();
                let found = index.nearest_within(&arena, &r.location, radius, &mut |_| true);
                let t1 = clock.elapsed();
                index.for_each_within(&arena, &r.location, radius, &mut |_, _| visited += 1);
                let t2 = clock.elapsed();
                nearest += t1 - t0;
                range += t2 - t1;
                queries += 1;
                if let Some(candidate) = found {
                    hits += 1;
                    let id = arena.get(candidate.handle).expect("query returns live handles").id;
                    remove(&mut arena, &mut index, id.index());
                }
            }
        }
    }
    IndexStats {
        insert_ns: mean_ns(index_insert, inserts),
        remove_ns: mean_ns(index_remove, removes),
        nearest_ns: mean_ns(nearest, queries),
        range_ns: mean_ns(range, queries),
        examined_per_query: index.candidates_examined() as f64 / (2 * queries).max(1) as f64,
        hit_ratio: hits as f64 / queries.max(1) as f64,
        arena_insert_ns: mean_ns(arena_insert, inserts),
        arena_remove_ns: mean_ns(arena_remove, removes),
        mean_pool: pool_sum as f64 / queries.max(1) as f64,
        hits,
        visited,
    }
}

/// Time `kind`'s range and nearest sweeps over an arena slice of `pool`
/// workers, queried at task locations with the tasks' reachable radius,
/// until each sweep has covered about `elements` elements. Returns
/// nanoseconds per element for each.
pub fn kernel_probe(
    stream: &EventStream,
    velocity: f64,
    pool: usize,
    kind: KernelKind,
    elements: usize,
) -> (f64, f64) {
    let mut arena: ItemArena<Worker> = ItemArena::with_capacity(pool);
    for w in stream.workers().iter().take(pool.max(1)) {
        arena.insert(*w);
    }
    let (xs, ys) = (arena.xs(), arena.ys());
    let tasks: &[Task] = stream.tasks();
    let queries = elements.div_ceil(xs.len().max(1));
    let query = |i: usize| {
        let r = &tasks[i % tasks.len().max(1)];
        let radius = velocity * r.patience.as_minutes();
        (r.location.x, r.location.y, radius * radius)
    };
    let clock = Stopwatch::start();
    let mut within = 0u64;
    for i in 0..queries {
        let (qx, qy, r2) = query(i);
        for_each_within_sq_in(kind, xs, ys, qx, qy, r2, &mut |_, _| within += 1);
    }
    let range = clock.elapsed();
    black_box(within);
    let clock = Stopwatch::start();
    for i in 0..queries {
        let (qx, qy, r2) = query(i);
        black_box(nearest_within_sq_in(kind, xs, ys, qx, qy, r2, &mut |_| true));
    }
    let nearest = clock.elapsed();
    let elements = (queries * xs.len()).max(1) as f64;
    (range.as_nanos() as f64 / elements, nearest.as_nanos() as f64 / elements)
}

/// At most this many workers and this many tasks enter one window's graph,
/// which keeps the dense windows of `hotspot` and `scale-1m` affordable.
const MAX_PER_SIDE: usize = 200;

/// What the flow probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Total Hopcroft–Karp (`max_matching`) time.
    pub hk: Duration,
    /// Total min-cost max-flow (`min_cost_max_matching`) time.
    pub mcmf: Duration,
    /// Windows whose graph had at least one edge.
    pub graphs: u64,
    /// Edges over all graphs.
    pub edges: u64,
    /// Matched pairs over all graphs.
    pub matched: u64,
}

/// Build one bipartite graph per batch window from that window's arrivals
/// and time both solvers on it. An edge joins a worker and a task when the
/// worker, departing at the window's end, reaches the task by its deadline;
/// workers are replicated once per unit of capacity and edges cost
/// `P_max - payoff` as in the batch flow policies. Fails when the two
/// solvers disagree on a graph's cardinality.
pub fn flow_probe(
    stream: &EventStream,
    velocity: f64,
    window_minutes: f64,
) -> Result<FlowStats, String> {
    let mut stats = FlowStats::default();
    let mut windows = WindowLabeller::new(window_minutes);
    let mut workers: Vec<Worker> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    let mut window_end = None;
    for event in stream.iter() {
        if windows.on_arrival(event.time()) > 0 {
            if let Some(end) = window_end {
                solve_window(end, &workers, &tasks, velocity, &mut stats)?;
            }
            workers.clear();
            tasks.clear();
        }
        window_end = windows.open_end();
        match event {
            Event::WorkerArrival(w) if workers.len() < MAX_PER_SIDE => workers.push(*w),
            Event::TaskArrival(r) if tasks.len() < MAX_PER_SIDE => tasks.push(*r),
            _ => {}
        }
    }
    if let Some(end) = window_end {
        solve_window(end, &workers, &tasks, velocity, &mut stats)?;
    }
    Ok(stats)
}

/// Payoffs become integral costs at this fixed-point scale, as in the
/// batch flow policies.
const PAYOFF_COST_SCALE: f64 = 1e6;

fn solve_window(
    t: TimeStamp,
    workers: &[Worker],
    tasks: &[Task],
    velocity: f64,
    stats: &mut FlowStats,
) -> Result<(), String> {
    let max_payoff = tasks.iter().fold(0.0f64, |m, r| m.max(r.payoff));
    let units: usize = workers.iter().map(|w| w.capacity as usize).sum();
    let mut graph = BipartiteGraph::new(units, tasks.len());
    let mut left = 0usize;
    for w in workers {
        let capacity = w.capacity as usize;
        if w.deadline() >= t {
            for (ri, r) in tasks.iter().enumerate() {
                if r.deadline() >= t
                    && t + w.location.travel_time(&r.location, velocity) <= r.deadline()
                {
                    let cost = ((max_payoff - r.payoff) * PAYOFF_COST_SCALE).round() as i64;
                    for unit in 0..capacity {
                        graph.add_edge_with_cost(left + unit, ri, cost);
                    }
                }
            }
        }
        left += capacity;
    }
    if graph.num_edges() == 0 {
        return Ok(());
    }
    let clock = Stopwatch::start();
    let hk = graph.max_matching();
    let t1 = clock.elapsed();
    let mcmf = graph.min_cost_max_matching();
    let t2 = clock.elapsed();
    if hk.len() != mcmf.len() {
        return Err(format!(
            "flow probe: window ending {t}: max_matching found {} pairs, min_cost_max_matching {}",
            hk.len(),
            mcmf.len()
        ));
    }
    stats.hk += t1;
    stats.mcmf += t2 - t1;
    stats.graphs += 1;
    stats.edges += graph.num_edges() as u64;
    stats.matched += hk.len() as u64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::SyntheticConfig;

    fn scenario() -> workload::Scenario {
        SyntheticConfig {
            num_workers: 600,
            num_tasks: 600,
            grid_n: 10,
            num_slots: 8,
            ..SyntheticConfig::default()
        }
        .generate(11)
    }

    #[test]
    fn every_backend_finds_the_same_workers() {
        let s = scenario();
        let stats: Vec<IndexStats> =
            BACKENDS.iter().map(|&(b, _)| index_probe(&s.stream, &s.config, b)).collect();
        assert!(stats[0].hits > 0);
        for st in &stats[1..] {
            assert_eq!(st.hits, stats[0].hits);
            assert_eq!(st.visited, stats[0].visited);
        }
        // The linear scan examines the whole pool; the grid prunes.
        assert!(stats[1].examined_per_query < stats[0].examined_per_query);
    }

    #[test]
    fn flow_solvers_agree_on_every_window() {
        let s = scenario();
        let stats = flow_probe(&s.stream, s.config.velocity, 3.0).expect("solvers agree");
        assert!(stats.graphs > 0 && stats.edges > 0 && stats.matched > 0);
    }

    #[test]
    fn kernels_report_positive_costs() {
        let s = scenario();
        let (range, nearest) =
            kernel_probe(&s.stream, s.config.velocity, 64, KernelKind::Scalar, 10_000);
        assert!(range > 0.0 && nearest > 0.0);
    }
}
