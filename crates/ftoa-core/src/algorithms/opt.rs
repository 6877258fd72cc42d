//! OPT: the offline optimal assignment with full knowledge of all arrivals
//! and free worker movement (the yardstick of the paper's evaluation).
//!
//! OPT knows every worker's and task's location and time in advance, may
//! guide every worker from the moment it appears, and therefore admits every
//! pair `(w, r)` with `S_r < S_w + D_w` and `S_w + d(L_w, L_r) ≤ S_r + D_r`
//! (the flexible feasibility of Definition 4). Its assignment is a maximum
//! matching of this bipartite graph, computed with Hopcroft–Karp when the
//! stream ends.
//!
//! OPT runs through the [`SimulationEngine`] like every other algorithm and
//! finds its pairs the way the online policies find their candidates: one
//! range query per arrival against the other side's live pool, with the
//! engine's normal expiry. Its policy admits every worker and every task and
//! claims nothing during the run.
//!
//! * An arriving worker asks the pending tasks for its reachable disk,
//!   `v · (D_w + max D_r)`, where the maximum runs over the tasks that have
//!   arrived so far.
//! * An arriving task asks the idle workers for `v · (D_r + max D_w)`, the
//!   maximum running over the workers that have arrived so far.
//!
//! Every pooled object has arrived, so both running maxima bound it exactly.
//! Each feasible pair is found once, by the later of its two arrivals:
//!
//! * A pair with `S_w ≤ S_r` is found when the task arrives. The engine
//!   hands a worker over before a task at the same instant, and the worker
//!   is still pooled, since a feasible pair has `S_r < S_w + D_w`.
//! * A pair with `S_r < S_w` is found when the worker arrives. Expiry keeps
//!   an object until its deadline has strictly passed, and a feasible pair
//!   has `S_w ≤ S_r + D_r`, so the task is still pooled.
//!
//! The pairs are stored as flat `u32` lists, one per side: the tasks each
//! worker found on arrival, and the workers each task found. At the end one
//! counting-sort pass transposes both into a worker-major compressed sparse
//! row (CSR) graph, so the pairs take 4 bytes each while the stream runs and
//! 8 bytes each at the transpose. Each worker's tasks are sorted ascending,
//! Hopcroft–Karp solves the graph, and the matched pairs are committed at
//! [`TimeStamp::ZERO`] in worker order. The number of pairs grows with the
//! square of the density, so at the paper's largest Figure 5 sizes they do
//! not fit in memory.

use crate::algorithms::OnlineAlgorithm;
use crate::engine::context::{AssignmentDecision, EngineContext};
use crate::engine::driver::{OnlinePolicy, SimulationEngine};
use crate::instance::Instance;
use crate::memory::vec_bytes;
use crate::result::AlgorithmResult;
use flow::hopcroft_karp;
use ftoa_types::{Task, TaskId, TimeDelta, TimeStamp, Worker, WorkerId};

/// The offline optimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Opt;

impl Opt {
    /// The offline policy implementing OPT on the engine.
    pub fn policy(&self) -> OptPolicy {
        OptPolicy::default()
    }
}

/// Offline policy: record every feasible pair as its later object arrives,
/// solve the matching at the end.
#[derive(Debug, Clone, Default)]
pub struct OptPolicy {
    /// The tasks each worker found on arrival.
    by_worker: Found,
    /// The workers each task found on arrival.
    by_task: Found,
    /// Largest patience `D_r` among the tasks that have arrived.
    max_patience: TimeDelta,
    /// Largest wait `D_w` among the workers that have arrived.
    max_wait: TimeDelta,
}

/// The partners one side's arrivals found: arrival `i` (in arrival order)
/// is object `runs[i].0`, and its partners are the next `runs[i].1` entries
/// of `partners`.
#[derive(Debug, Clone, Default)]
struct Found {
    partners: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl Found {
    /// Close the run of object `index`, whose partners start at `begin`.
    fn close_run(&mut self, index: usize, begin: usize) {
        self.runs.push((to_u32(index), to_u32(self.partners.len() - begin)));
    }

    /// Each arrival's object with its partners, in arrival order.
    fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.runs.iter().scan(0usize, |begin, &(index, count)| {
            let run = &self.partners[*begin..*begin + count as usize];
            *begin += count as usize;
            Some((index, run))
        })
    }

    fn bytes(&self) -> usize {
        vec_bytes::<u32>(self.partners.len()) + vec_bytes::<(u32, u32)>(self.runs.len())
    }
}

fn to_u32(index: usize) -> u32 {
    u32::try_from(index).expect("OPT stores indices and counts as u32")
}

impl OptPolicy {
    /// Transpose both sides' runs into a worker-major CSR graph: worker `w`'s
    /// tasks are `right[first[w]..first[w + 1]]`, ascending.
    fn worker_major(&self) -> (Vec<usize>, Vec<u32>) {
        let n_workers = self.by_worker.runs.len();
        let mut first = vec![0usize; n_workers + 1];
        for (w, tasks) in self.by_worker.iter() {
            first[w as usize + 1] += tasks.len();
        }
        for &w in &self.by_task.partners {
            first[w as usize + 1] += 1;
        }
        for w in 0..n_workers {
            first[w + 1] += first[w];
        }
        let mut next = first[..n_workers].to_vec();
        let mut right = vec![0u32; first[n_workers]];
        for (w, tasks) in self.by_worker.iter() {
            let at = &mut next[w as usize];
            right[*at..*at + tasks.len()].copy_from_slice(tasks);
            *at += tasks.len();
        }
        for (r, workers) in self.by_task.iter() {
            for &w in workers {
                right[next[w as usize]] = r;
                next[w as usize] += 1;
            }
        }
        for span in first.windows(2) {
            right[span[0]..span[1]].sort_unstable();
        }
        (first, right)
    }
}

impl OnlinePolicy for OptPolicy {
    fn name(&self) -> &'static str {
        "OPT"
    }

    fn on_worker_arrival(&mut self, ctx: &mut EngineContext<'_>, w: &Worker) {
        ctx.admit_worker(w);
        self.max_wait = self.max_wait.max(w.wait);
        // A feasible task satisfies S_w + d/v <= S_r + D_r < S_w + D_w + D_r,
        // so d <= v * (D_w + max D_r): the worker's reachable disk.
        let velocity = ctx.velocity();
        let radius = w.reach_radius(self.max_patience, velocity);
        let (origin, start, deadline) = (w.location, w.start, w.deadline());
        let found = &mut self.by_worker;
        let begin = found.partners.len();
        ctx.pending_tasks().for_each_within(&origin, radius, &mut |_, r| {
            if r.release < deadline
                && start + origin.travel_time(&r.location, velocity) <= r.deadline()
            {
                found.partners.push(to_u32(r.id.index()));
            }
        });
        found.close_run(w.id.index(), begin);
    }

    fn on_task_arrival(&mut self, ctx: &mut EngineContext<'_>, r: &Task) {
        ctx.admit_task(r);
        self.max_patience = self.max_patience.max(r.patience);
        // The same bound seen from the task: d <= v * (D_r + max D_w).
        let velocity = ctx.velocity();
        let radius = velocity * (r.patience.as_minutes() + self.max_wait.as_minutes());
        let found = &mut self.by_task;
        let begin = found.partners.len();
        ctx.idle_workers().for_each_within(&r.location, radius, &mut |_, w| {
            if r.release < w.deadline()
                && w.start + w.location.travel_time(&r.location, velocity) <= r.deadline()
            {
                found.partners.push(to_u32(w.id.index()));
            }
        });
        found.close_run(r.id.index(), begin);
    }

    fn on_finish(&mut self, ctx: &mut EngineContext<'_>) {
        let n_tasks = self.by_task.runs.len();
        let found_bytes = self.by_worker.bytes() + self.by_task.bytes();
        ctx.memory_mut().allocate(found_bytes);
        let (first, right) = self.worker_major();
        ctx.memory_mut().allocate(vec_bytes::<usize>(first.len()) + vec_bytes::<u32>(right.len()));
        self.by_worker = Found::default();
        self.by_task = Found::default();
        ctx.memory_mut().release(found_bytes);

        let (_size, match_left, _match_right) = hopcroft_karp(n_tasks, &first, &right);
        for (w, &r) in match_left.iter().enumerate() {
            if r != u32::MAX {
                let decision = AssignmentDecision::new(WorkerId(w), TaskId(r as usize));
                ctx.commit(decision.at(TimeStamp::ZERO));
            }
        }
    }
}

impl OnlineAlgorithm for Opt {
    fn name(&self) -> &'static str {
        "OPT"
    }

    fn run(&self, instance: &Instance<'_>) -> AlgorithmResult {
        SimulationEngine::default().run(instance, &mut self.policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::example1;
    use crate::engine::index::IndexBackend;
    use crate::instance::Instance;

    #[test]
    fn paper_example_optimum_is_six() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let result = Opt.run(&instance);
        // Example 1: the offline optimum serves all six tasks by moving
        // workers in advance.
        assert_eq!(result.matching_size(), 6);
        assert!(result
            .assignments
            .validate_flexible(stream.workers(), stream.tasks(), config.velocity)
            .is_ok());
    }

    #[test]
    fn exact_mode_agrees_across_index_backends() {
        let config = example1::config();
        let stream = example1::stream();
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        let run = |backend| SimulationEngine::new(backend).run(&instance, &mut Opt.policy());
        let linear = run(IndexBackend::LinearScan);
        for backend in IndexBackend::ALL {
            let pairs = run(backend).assignments;
            assert_eq!(pairs.pairs(), linear.assignments.pairs(), "{}", backend.name());
        }
        // The grid backend must examine no more candidates than the scan.
        let grid = run(IndexBackend::Grid);
        assert!(grid.stats.candidates_examined <= linear.stats.candidates_examined);
    }

    #[test]
    fn empty_instance() {
        let config = example1::config();
        let stream = ftoa_types::EventStream::new(vec![], vec![]);
        let (pw, pt) = example1::prediction(&config, &stream);
        let instance = Instance::new(&config, &stream, &pw, &pt);
        assert_eq!(Opt.run(&instance).matching_size(), 0);
    }

    #[test]
    fn opt_dominates_greedy_baselines_on_random_instances() {
        use crate::algorithms::{BatchGreedy, SimpleGreedy};
        // Small deterministic pseudo-random instances.
        let config = example1::config();
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..5 {
            let workers: Vec<_> = (0..12)
                .map(|i| {
                    ftoa_types::Worker::new(
                        ftoa_types::WorkerId(i),
                        ftoa_types::Location::new(next() * 8.0, next() * 8.0),
                        ftoa_types::TimeStamp::minutes(next() * 8.0),
                        ftoa_types::TimeDelta::minutes(30.0),
                    )
                })
                .collect();
            let tasks: Vec<_> = (0..12)
                .map(|i| {
                    ftoa_types::Task::new(
                        ftoa_types::TaskId(i),
                        ftoa_types::Location::new(next() * 8.0, next() * 8.0),
                        ftoa_types::TimeStamp::minutes(next() * 8.0),
                        ftoa_types::TimeDelta::minutes(2.0),
                    )
                })
                .collect();
            let stream = ftoa_types::EventStream::new(workers, tasks);
            let (pw, pt) = example1::prediction(&config, &stream);
            let instance = Instance::new(&config, &stream, &pw, &pt);
            let opt = Opt.run(&instance).matching_size();
            let greedy = SimpleGreedy.run(&instance).matching_size();
            let gr = BatchGreedy::default().run(&instance).matching_size();
            assert!(opt >= greedy, "trial {trial}: OPT {opt} < greedy {greedy}");
            assert!(opt >= gr, "trial {trial}: OPT {opt} < GR {gr}");
        }
    }
}
