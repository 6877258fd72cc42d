//! The benchmark's workloads and the policies each one replays.
//!
//! Every workload is generated from the run's seed, written to a trace file
//! by the parent process, and replayed by fresh child processes that see
//! only that file. The reasons for each choice are in `bench/README.md`.

use experiments::runner::Algo;
use workload::synthetic::DistributionParams;
use workload::{Scenario, SyntheticConfig};

/// One policy the benchmark can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// SimpleGreedy: nearest feasible neighbour, wait in place.
    Sg,
    /// GR: windowed batch matching (augmenting scan).
    Gr,
    /// POLAR: occupy-once guide nodes.
    Polar,
    /// POLAR-OP: reusable guide nodes.
    PolarOp,
    /// Windowed Hopcroft–Karp rounds.
    BatchMf,
    /// Windowed payoff-maximal (min-cost max-flow) rounds.
    BatchHun,
}

impl Policy {
    /// Short name used in metric names and span files.
    pub fn key(self) -> &'static str {
        match self {
            Policy::Sg => "sg",
            Policy::Gr => "gr",
            Policy::Polar => "polar",
            Policy::PolarOp => "polar_op",
            Policy::BatchMf => "batch_mf",
            Policy::BatchHun => "batch_hun",
        }
    }

    /// The runner's selector for the same policy.
    pub fn algo(self) -> Algo {
        match self {
            Policy::Sg => Algo::SimpleGreedy,
            Policy::Gr => Algo::Gr,
            Policy::Polar => Algo::Polar,
            Policy::PolarOp => Algo::PolarOp,
            Policy::BatchMf => Algo::BatchMaxFlow,
            Policy::BatchHun => Algo::BatchHungarian,
        }
    }

    /// Does the policy need the offline guide?
    pub fn guided(self) -> bool {
        matches!(self, Policy::Polar | Policy::PolarOp)
    }

    /// Does the policy close batch windows (GR and the flow policies)?
    pub fn windowed(self) -> bool {
        matches!(self, Policy::Gr | Policy::BatchMf | Policy::BatchHun)
    }

    /// Does the policy assign under the wait-in-place model, where the
    /// worker departs from its appearance location at the assignment
    /// instant? The guided policies pre-move workers (flexible model).
    pub fn wait_in_place(self) -> bool {
        !self.guided()
    }
}

/// The batch window every windowed policy runs with (the runner's default).
pub const WINDOW_MINUTES: f64 = 3.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 4 defaults at 50k + 50k.
    Uniform,
    /// Demand packed next to the supply, so range queries are dense.
    Hotspot,
    /// Table 4 plus payoffs and capacities (a v2 trace).
    Weighted,
    /// 500k + 500k on the same region: ten times the density.
    Scale1m,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] =
        [Workload::Uniform, Workload::Hotspot, Workload::Weighted, Workload::Scale1m];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Hotspot => "hotspot",
            Workload::Weighted => "weighted",
            Workload::Scale1m => "scale-1m",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The policies replayed on this workload, in run order.
    pub fn policies(self) -> &'static [Policy] {
        match self {
            Workload::Uniform | Workload::Hotspot => {
                &[Policy::Sg, Policy::Gr, Policy::Polar, Policy::PolarOp]
            }
            Workload::Weighted => &[Policy::Gr, Policy::BatchMf, Policy::BatchHun],
            Workload::Scale1m => &[Policy::Sg, Policy::Polar],
        }
    }

    /// Workers and tasks generated at full size, or at the `--quick` size.
    fn counts(self, quick: bool) -> usize {
        match (self, quick) {
            (Workload::Scale1m, false) => 500_000,
            (Workload::Scale1m, true) => 50_000,
            (Workload::Hotspot, false) => 40_000,
            (Workload::Weighted, false) => 30_000,
            (_, false) => 50_000,
            (_, true) => 5_000,
        }
    }

    /// Generate the workload's scenario from `seed`.
    pub fn generate(self, seed: u64, quick: bool) -> Scenario {
        let n = self.counts(quick);
        let base = SyntheticConfig { num_workers: n, num_tasks: n, ..SyntheticConfig::default() };
        let config = match self {
            Workload::Uniform | Workload::Scale1m => base,
            // The shipped `hotspot_skewed` preset puts demand ~35 units from
            // supply against a 10-unit reach, so nothing ever matches. Here
            // demand sits ~7 units from the worker mass: reachable, dense.
            Workload::Hotspot => SyntheticConfig {
                tasks: DistributionParams {
                    temporal_mu: 0.5,
                    temporal_sigma: 0.35,
                    spatial_mean: 0.35,
                    spatial_cov: 0.05,
                },
                ..base
            },
            Workload::Weighted => SyntheticConfig {
                task_payoff: Some((1.0, 5.0)),
                worker_capacity: Some((1, 3)),
                ..base
            },
        };
        config.generate(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::runner::ReplayConfig;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn hotspot_matches_at_quick_size() {
        let scenario = Workload::Hotspot.generate(2017, true);
        let algos: Vec<Algo> = Workload::Hotspot.policies().iter().map(|p| p.algo()).collect();
        for result in ReplayConfig::new(&scenario).algos(&algos).threads(1).run() {
            assert!(result.matching_size() > 0, "{} matched nothing", result.algorithm);
        }
    }

    #[test]
    fn weighted_trace_carries_payoffs_and_capacities() {
        let scenario = Workload::Weighted.generate(7, true);
        assert!(scenario.stream.workers().iter().any(|w| w.capacity > 1));
        assert!(scenario.stream.tasks().iter().any(|t| t.payoff != 1.0));
    }
}
