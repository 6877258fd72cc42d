//! Running the full algorithm suite on one scenario — or a whole matrix of
//! (scenario × algorithm) cells in parallel.
//!
//! Every algorithm is driven through the shared
//! [`ftoa_core::SimulationEngine`] with its default settings: the batch
//! policies use 3-minute windows, and POLAR and POLAR-OP verify physical
//! feasibility before they commit. [`SuiteOptions::index_backend`] selects
//! the candidate-index backend for the whole suite, and
//! [`SuiteOptions::threads`] fans the cells out through the deterministic
//! [`ftoa_runtime::JobPool`]. Each cell is a pure function of its scenario,
//! so results are identical — and sweep CSVs / replay metrics
//! byte-identical — at any thread count; the offline guide of each scenario
//! is built exactly once (first POLAR-family cell to arrive) and shared
//! through a [`std::sync::OnceLock`].

use ftoa_core::algorithms::OptMode;
use ftoa_core::{
    AlgorithmResult, BatchGreedy, BatchHungarian, BatchMaxFlow, IndexBackend, Instance,
    OfflineGuide, Opt, Polar, PolarOp, SimpleGreedy, SimulationEngine, Stopwatch,
};
use ftoa_runtime::JobPool;
use std::sync::OnceLock;
use std::time::Duration;
use workload::Scenario;

/// Options controlling which algorithms run and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteOptions {
    /// Run the OPT oracle (can be expensive on very large instances).
    pub include_opt: bool,
    /// How OPT is solved.
    pub opt_mode: OptMode,
    /// Candidate-index backend used by the simulation engine.
    pub index_backend: IndexBackend,
    /// Concurrency of the (scenario × algorithm) cell fan-out: `1` runs
    /// strictly serial on the calling thread (the default), `0` resolves to
    /// `FTOA_JOBS` / the available hardware parallelism, any other value is
    /// the exact worker count. Deterministic outputs are byte-identical at
    /// every setting.
    pub threads: usize,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        Self {
            include_opt: true,
            opt_mode: OptMode::Exact,
            index_backend: IndexBackend::Grid,
            threads: 1,
        }
    }
}

impl SuiteOptions {
    /// Options for very large (scalability) instances: OPT is solved on the
    /// aggregated network, as materialising every feasible edge would not fit
    /// in memory (the paper likewise omits OPT's time/memory at this scale).
    pub fn scalability() -> Self {
        Self { opt_mode: OptMode::TypeAggregated, ..Self::default() }
    }

    /// The same options with a different candidate-index backend.
    pub fn with_backend(self, index_backend: IndexBackend) -> Self {
        Self { index_backend, ..self }
    }

    /// The same options with a different cell-fan-out concurrency.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }
}

/// One of the runnable algorithms, for selecting a subset of the suite
/// (the `replay` CLI's `--algo` knob): the paper's five plus the
/// flow-backed batch policies of the weighted model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Nearest-feasible-neighbour greedy (wait in place).
    SimpleGreedy,
    /// The GR baseline: windowed batch matching.
    Gr,
    /// Algorithm 2 (occupy-once guide nodes).
    Polar,
    /// Algorithm 3 (reusable guide nodes).
    PolarOp,
    /// The offline optimum.
    Opt,
    /// Windowed batch rounds solved as maximum bipartite matching
    /// (augmenting paths, tasks in arrival order), capacity-aware.
    BatchMaxFlow,
    /// Windowed batch rounds solved as payoff-maximal maximum matching
    /// (augmenting paths, tasks by payoff), capacity-aware.
    BatchHungarian,
}

impl Algo {
    /// The paper's five algorithms in the canonical suite order. The
    /// flow-backed batch policies are deliberately *not* part of this list:
    /// `--algo all` and the v1 golden-metrics gate must keep covering exactly
    /// the original suite. Select [`Algo::BatchMaxFlow`] /
    /// [`Algo::BatchHungarian`] explicitly (or via [`Algo::FLOW`]).
    pub const ALL: [Algo; 5] =
        [Algo::SimpleGreedy, Algo::Gr, Algo::Polar, Algo::PolarOp, Algo::Opt];

    /// The flow-backed batch policies of the weighted model.
    pub const FLOW: [Algo; 2] = [Algo::BatchMaxFlow, Algo::BatchHungarian];

    /// The display name used in results and the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            Algo::SimpleGreedy => "SimpleGreedy",
            Algo::Gr => "GR",
            Algo::Polar => "POLAR",
            Algo::PolarOp => "POLAR-OP",
            Algo::Opt => "OPT",
            Algo::BatchMaxFlow => "BATCH-MF",
            Algo::BatchHungarian => "BATCH-HUN",
        }
    }

    /// The canonical suite selection: all five algorithms, or — because OPT
    /// is the last entry of [`Algo::ALL`] — just the four online ones when
    /// the oracle is excluded. The single place that invariant is encoded.
    pub fn suite(include_opt: bool) -> &'static [Algo] {
        if include_opt {
            &Algo::ALL
        } else {
            &Algo::ALL[..4]
        }
    }

    /// Parse a (case-insensitive) algorithm name as accepted by the CLIs.
    pub fn parse(s: &str) -> Option<Algo> {
        match s.to_ascii_lowercase().as_str() {
            "simplegreedy" | "simple-greedy" | "greedy" => Some(Algo::SimpleGreedy),
            "gr" | "batchgreedy" | "batch-greedy" => Some(Algo::Gr),
            "polar" => Some(Algo::Polar),
            "polar-op" | "polarop" => Some(Algo::PolarOp),
            "opt" => Some(Algo::Opt),
            "batch-mf" | "batchmaxflow" | "batch-maxflow" | "maxflow" => Some(Algo::BatchMaxFlow),
            "batch-hun" | "batchhungarian" | "batch-hungarian" | "hungarian" => {
                Some(Algo::BatchHungarian)
            }
            _ => None,
        }
    }
}

/// Run SimpleGreedy, GR, POLAR, POLAR-OP (and optionally OPT) on a scenario.
///
/// The offline guide is built once and shared by POLAR and POLAR-OP; its
/// construction time is reported in each result's `preprocessing` field (the
/// paper excludes it from the online running times).
pub fn run_suite(scenario: &Scenario, opts: &SuiteOptions) -> Vec<AlgorithmResult> {
    ReplayConfig::new(scenario).options(*opts).algos(Algo::suite(opts.include_opt)).run()
}

/// Builder for running a selection of algorithms over one scenario — the
/// single-scenario entry point of the runner:
///
/// ```
/// use experiments::{Algo, ReplayConfig};
/// use ftoa_core::IndexBackend;
/// use workload::SyntheticConfig;
///
/// let scenario =
///     SyntheticConfig { num_workers: 40, num_tasks: 40, ..Default::default() }.generate(2017);
/// let results = ReplayConfig::new(&scenario)
///     .algos(&[Algo::Gr, Algo::BatchMaxFlow])
///     .backend(IndexBackend::Grid)
///     .threads(4)
///     .run();
/// let names: Vec<_> = results.iter().map(|r| r.algorithm.as_str()).collect();
/// assert_eq!(names, ["GR", "BATCH-MF"]);
/// ```
///
/// Defaults: the canonical five-algorithm suite, [`SuiteOptions::default`].
/// The offline guide is built lazily (only when POLAR or POLAR-OP is
/// selected) and shared. With more than one thread the algorithms run
/// concurrently; the result order (and every deterministic field) is
/// identical either way.
#[derive(Debug, Clone)]
pub struct ReplayConfig<'a> {
    scenario: &'a Scenario,
    opts: SuiteOptions,
    algos: Vec<Algo>,
}

impl<'a> ReplayConfig<'a> {
    /// Start from the canonical suite with default options.
    pub fn new(scenario: &'a Scenario) -> Self {
        Self { scenario, opts: SuiteOptions::default(), algos: Algo::ALL.to_vec() }
    }

    /// Select the algorithms to run, in the order given.
    pub fn algos(mut self, algos: &[Algo]) -> Self {
        self.algos = algos.to_vec();
        self
    }

    /// Select the candidate-index backend.
    pub fn backend(mut self, backend: IndexBackend) -> Self {
        self.opts.index_backend = backend;
        self
    }

    /// Set the cell-fan-out concurrency (see [`SuiteOptions::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Kept only so the benchmark package under `bench/` builds unchanged;
    /// it goes with the next benchmark change. Every engine run is serial,
    /// so the one accepted value is `1`, and nothing is stored.
    pub fn shards(self, shards: usize) -> Self {
        assert_eq!(shards, 1, "region sharding was removed");
        self
    }

    /// Replace the whole option block (for the knobs without a dedicated
    /// builder method, e.g. the GR/batch-flow window or the OPT mode).
    pub fn options(mut self, opts: SuiteOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run the selection and return one result per algorithm, in order.
    pub fn run(self) -> Vec<AlgorithmResult> {
        run_matrix(std::slice::from_ref(self.scenario), &self.opts, &self.algos)
            .pop()
            .expect("one scenario in, one result row out")
    }
}

/// Run every (scenario × algorithm) cell of a sweep matrix, fanned out
/// through a deterministic [`JobPool`] of [`SuiteOptions::threads`] workers.
///
/// Cells are handed out dynamically (expensive OPT cells load-balance
/// against cheap greedy cells) and reduced in submission order, so
/// `out[s][a]` is exactly what a serial double loop would produce: results
/// grouped per scenario, in the given algorithm order. Each scenario's
/// offline guide is built once — by whichever POLAR-family cell gets there
/// first — and shared via [`OnceLock`]; its build time is reported in the
/// `preprocessing` field of both POLAR results, as before.
pub fn run_matrix(
    scenarios: &[Scenario],
    opts: &SuiteOptions,
    algos: &[Algo],
) -> Vec<Vec<AlgorithmResult>> {
    let pool = JobPool::new(opts.threads);
    let guides: Vec<OnceLock<(OfflineGuide, Duration)>> =
        scenarios.iter().map(|_| OnceLock::new()).collect();
    let cells: Vec<(usize, Algo)> =
        (0..scenarios.len()).flat_map(|si| algos.iter().map(move |&algo| (si, algo))).collect();

    let results = pool.par_map_indexed(cells, |_, (si, algo)| {
        let scenario = &scenarios[si];
        let instance = Instance::new(
            &scenario.config,
            &scenario.stream,
            &scenario.predicted_workers,
            &scenario.predicted_tasks,
        );
        let engine = SimulationEngine::new(opts.index_backend);
        match algo {
            Algo::SimpleGreedy => engine.run(&instance, &mut SimpleGreedy.policy()),
            Algo::Gr => engine.run(&instance, &mut BatchGreedy::default().policy()),
            Algo::Polar | Algo::PolarOp => {
                let (guide, preprocessing) = guides[si].get_or_init(|| {
                    let clock = Stopwatch::start();
                    let guide = OfflineGuide::build(
                        &scenario.config,
                        &scenario.predicted_workers,
                        &scenario.predicted_tasks,
                    );
                    (guide, clock.elapsed())
                });
                let mut result = if algo == Algo::Polar {
                    engine.run(&instance, &mut Polar::default().policy(&instance, guide))
                } else {
                    engine.run(&instance, &mut PolarOp::default().policy(&instance, guide))
                };
                result.preprocessing = *preprocessing;
                result
            }
            Algo::Opt => engine.run(&instance, &mut Opt { mode: opts.opt_mode }.policy()),
            Algo::BatchMaxFlow => engine.run(&instance, &mut BatchMaxFlow::default().policy()),
            Algo::BatchHungarian => engine.run(&instance, &mut BatchHungarian::default().policy()),
        }
    });

    let mut out: Vec<Vec<AlgorithmResult>> = Vec::with_capacity(scenarios.len());
    let mut iter = results.into_iter();
    for _ in 0..scenarios.len() {
        out.push(iter.by_ref().take(algos.len()).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::SyntheticConfig;

    fn small_scenario() -> Scenario {
        SyntheticConfig {
            num_workers: 400,
            num_tasks: 400,
            grid_n: 10,
            num_slots: 8,
            ..Default::default()
        }
        .generate(42)
    }

    #[test]
    fn suite_runs_all_five_algorithms() {
        let scenario = small_scenario();
        let results = run_suite(&scenario, &SuiteOptions::default());
        let names: Vec<&str> = results.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(names, vec!["SimpleGreedy", "GR", "POLAR", "POLAR-OP", "OPT"]);
        // OPT dominates every online algorithm.
        let opt = results.last().unwrap().matching_size();
        for r in &results[..4] {
            assert!(r.matching_size() <= opt, "{} beat OPT", r.algorithm);
        }
        // Every matching is feasible under the flexible model.
        for r in &results {
            assert!(r
                .assignments
                .validate_flexible(
                    scenario.stream.workers(),
                    scenario.stream.tasks(),
                    scenario.config.velocity
                )
                .is_ok());
        }
    }

    #[test]
    fn polar_op_dominates_polar_on_synthetic_data() {
        let scenario = small_scenario();
        let results = run_suite(&scenario, &SuiteOptions::default());
        let polar = results.iter().find(|r| r.algorithm == "POLAR").unwrap().matching_size();
        let polar_op = results.iter().find(|r| r.algorithm == "POLAR-OP").unwrap().matching_size();
        assert!(polar_op >= polar);
    }

    #[test]
    fn index_backends_agree_on_every_matching_size() {
        let scenario = small_scenario();
        let grid = run_suite(&scenario, &SuiteOptions::default());
        let linear =
            run_suite(&scenario, &SuiteOptions::default().with_backend(IndexBackend::LinearScan));
        let kd = run_suite(&scenario, &SuiteOptions::default().with_backend(IndexBackend::Kd));
        for ((g, l), k) in grid.iter().zip(&linear).zip(&kd) {
            assert_eq!(g.algorithm, l.algorithm);
            assert_eq!(
                g.matching_size(),
                l.matching_size(),
                "{} disagrees between grid and linear backends",
                g.algorithm
            );
            assert_eq!(
                k.matching_size(),
                l.matching_size(),
                "{} disagrees between kd and linear backends",
                k.algorithm
            );
        }
        // The grid index must prune: strictly fewer candidates examined on
        // the index-driven algorithms (SimpleGreedy here).
        assert!(grid[0].stats.candidates_examined < linear[0].stats.candidates_examined);
    }

    #[test]
    fn parallel_fan_out_reproduces_the_serial_suite_exactly() {
        let scenario = small_scenario();
        let serial = run_suite(&scenario, &SuiteOptions::default());
        for threads in [2, 4] {
            let parallel = run_suite(&scenario, &SuiteOptions::default().with_threads(threads));
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.algorithm, p.algorithm, "order changed at threads={threads}");
                assert_eq!(s.matching_size(), p.matching_size(), "{}", s.algorithm);
                assert_eq!(s.assignments.pairs(), p.assignments.pairs(), "{}", s.algorithm);
                assert_eq!(s.memory_bytes, p.memory_bytes, "{}", s.algorithm);
                assert_eq!(s.stats, p.stats, "{}", s.algorithm);
            }
        }
    }

    #[test]
    fn run_matrix_groups_cells_per_scenario_in_algo_order() {
        let scenarios = vec![small_scenario(), small_scenario()];
        let algos = [Algo::Gr, Algo::SimpleGreedy];
        let matrix = run_matrix(&scenarios, &SuiteOptions::default().with_threads(4), &algos);
        assert_eq!(matrix.len(), 2);
        for row in &matrix {
            let names: Vec<&str> = row.iter().map(|r| r.algorithm.as_str()).collect();
            assert_eq!(names, vec!["GR", "SimpleGreedy"]);
        }
        // Identical scenarios must produce identical rows.
        for (a, b) in matrix[0].iter().zip(&matrix[1]) {
            assert_eq!(a.matching_size(), b.matching_size());
        }
    }

    #[test]
    fn algo_parse_round_trips_every_name() {
        for algo in Algo::ALL {
            assert_eq!(Algo::parse(algo.name()), Some(algo), "{}", algo.name());
        }
        assert_eq!(Algo::parse("polar-op"), Some(Algo::PolarOp));
        assert_eq!(Algo::parse("nope"), None);
    }

    #[test]
    fn replay_config_selects_a_subset_in_order() {
        let scenario = small_scenario();
        let subset = ReplayConfig::new(&scenario).algos(&[Algo::PolarOp, Algo::SimpleGreedy]).run();
        let names: Vec<&str> = subset.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(names, vec!["POLAR-OP", "SimpleGreedy"]);
        // The subset results agree with the full suite (runs are independent).
        let full = run_suite(&scenario, &SuiteOptions::default());
        let full_polar_op =
            full.iter().find(|r| r.algorithm == "POLAR-OP").unwrap().matching_size();
        assert_eq!(subset[0].matching_size(), full_polar_op);
    }

    #[test]
    fn replay_config_defaults_to_the_canonical_suite() {
        let scenario = small_scenario();
        let results = ReplayConfig::new(&scenario).run();
        let names: Vec<&str> = results.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(names, vec!["SimpleGreedy", "GR", "POLAR", "POLAR-OP", "OPT"]);
    }

    #[test]
    fn flow_policies_run_through_the_suite_and_respect_opt() {
        let scenario = small_scenario();
        let results = ReplayConfig::new(&scenario)
            .algos(&[Algo::Gr, Algo::BatchMaxFlow, Algo::BatchHungarian, Algo::Opt])
            .run();
        let names: Vec<&str> = results.iter().map(|r| r.algorithm.as_str()).collect();
        assert_eq!(names, vec!["GR", "BATCH-MF", "BATCH-HUN", "OPT"]);
        let opt = results.last().unwrap().matching_size();
        let gr = results[0].matching_size();
        let mf = results[1].matching_size();
        let hun = results[2].matching_size();
        // Each batch round is solved optimally, so the flow policies cannot
        // lose to the greedy round solver, and no online policy beats OPT.
        assert!(mf >= gr, "BATCH-MF {mf} lost to GR {gr}");
        assert_eq!(hun, mf, "both flow policies solve max-cardinality rounds");
        assert!(mf <= opt && hun <= opt);
        // Unit-payoff stream: weighted utility equals the matching size.
        for r in &results {
            assert_eq!(r.total_payoff, r.matching_size() as f64, "{}", r.algorithm);
        }
    }

    #[test]
    fn opt_can_be_skipped() {
        let scenario = small_scenario();
        let results =
            run_suite(&scenario, &SuiteOptions { include_opt: false, ..Default::default() });
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn aggregated_opt_is_close_to_exact_opt() {
        let scenario = small_scenario();
        let exact = run_suite(&scenario, &SuiteOptions::default());
        let aggregated = run_suite(&scenario, &SuiteOptions::scalability());
        let e = exact.last().unwrap().matching_size() as f64;
        let a = aggregated.last().unwrap().matching_size() as f64;
        // The aggregation evaluates feasibility at slot midpoints and cell
        // centres, so it under-counts tight-deadline pairs; it must stay in
        // the same ballpark and never materially exceed the exact optimum.
        assert!(a >= 0.55 * e && a <= 1.1 * e, "exact {e} vs aggregated {a}");
    }
}
