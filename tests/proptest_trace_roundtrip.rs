//! Trace round-trip property tests.
//!
//! The trace subsystem promises that capturing a stream with `TraceWriter`
//! and re-reading it with `TraceReader` is lossless: the reconstructed
//! configuration and stream are *identical* (not merely equivalent), and —
//! because engine runs are deterministic functions of `(config, stream)` —
//! replaying the reread stream produces identical engine metrics. These
//! properties pin that down on random synthetic scenarios, including the
//! trace-shaped presets.

use ftoa::core_algorithms::{
    AlgorithmResult, IndexBackend, Instance, SimpleGreedy, SimulationEngine,
};
use ftoa::prediction::SpatioTemporalMatrix;
use ftoa::types::{EventStream, ProblemConfig};
use ftoa::workload::{presets, Scenario, SyntheticConfig, TraceReader, TraceWriter};
use proptest::prelude::*;

/// A small random synthetic scenario, biased to odd sizes and regions so the
/// float fields take "ugly" values that stress the text round trip. When
/// `weighted` is set, payoffs and capacities are drawn from deliberately
/// awkward ranges (a third-based payoff span has no short decimal form), so
/// the v2 fields exercise the shortest-round-trip float path too.
fn scenario_strategy(weighted: bool) -> impl Strategy<Value = Scenario> {
    (1usize..80, 1usize..80, 2usize..9, 2usize..7, 0u64..1_000).prop_map(
        move |(num_workers, num_tasks, grid_n, num_slots, seed)| {
            SyntheticConfig {
                num_workers,
                num_tasks,
                grid_n,
                num_slots,
                region_side: 17.0 / 3.0 * grid_n as f64,
                slot_minutes: 11.0 / 7.0 * 6.0,
                task_payoff: weighted.then_some((1.0 / 3.0, 19.0 / 7.0)),
                worker_capacity: weighted.then_some((1, 5)),
                ..SyntheticConfig::default()
            }
            .generate(seed)
        },
    )
}

/// SimpleGreedy over `stream`; it reads no prediction, so it gets zeros.
fn simple_greedy(
    config: &ProblemConfig,
    stream: &EventStream,
    backend: IndexBackend,
) -> AlgorithmResult {
    let zeros = SpatioTemporalMatrix::zeros(config.slots.num_slots(), config.grid.num_cells());
    let instance = Instance::new(config, stream, &zeros, &zeros);
    SimulationEngine::new(backend).run(&instance, &mut SimpleGreedy.policy())
}

fn round_trip(scenario: &Scenario) -> ftoa::workload::Trace {
    let text = TraceWriter::to_string(&scenario.config, &scenario.stream);
    TraceReader::read_str(&text).expect("a written trace must parse")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn write_read_reproduces_the_stream_exactly(scenario in scenario_strategy(false)) {
        let trace = round_trip(&scenario);
        prop_assert_eq!(&trace.config, &scenario.config);
        prop_assert_eq!(&trace.stream, &scenario.stream);
    }

    #[test]
    fn rewriting_a_reread_trace_is_byte_identical(scenario in scenario_strategy(false)) {
        let text = TraceWriter::to_string(&scenario.config, &scenario.stream);
        let trace = TraceReader::read_str(&text).expect("parses");
        prop_assert_eq!(TraceWriter::to_string(&trace.config, &trace.stream), text);
    }

    #[test]
    fn weighted_write_read_reproduces_payoffs_and_capacities_exactly(
        scenario in scenario_strategy(true)
    ) {
        let text = TraceWriter::to_string(&scenario.config, &scenario.stream);
        let trace = TraceReader::read_str(&text).expect("a written v2 trace must parse");
        prop_assert_eq!(trace.version, ftoa::workload::TraceVersion::V2);
        // Stream equality covers payoff and capacity bit-for-bit: `Task` and
        // `Worker` derive `PartialEq` over every field.
        prop_assert_eq!(&trace.stream, &scenario.stream);
        prop_assert_eq!(TraceWriter::to_string(&trace.config, &trace.stream), text);
    }

    #[test]
    fn replaying_a_reread_trace_gives_identical_engine_metrics(
        scenario in scenario_strategy(false)
    ) {
        let trace = round_trip(&scenario);
        for backend in [IndexBackend::LinearScan, IndexBackend::Grid] {
            let original = simple_greedy(&scenario.config, &scenario.stream, backend);
            let replayed = simple_greedy(&trace.config, &trace.stream, backend);
            prop_assert_eq!(original.matching_size(), replayed.matching_size());
            prop_assert_eq!(original.assignments.pairs(), replayed.assignments.pairs());
            prop_assert_eq!(original.stats, replayed.stats);
        }
    }
}

/// The presets go through the same writer/reader; spot-check them outside the
/// random loop (they are deterministic).
#[test]
fn presets_round_trip_exactly() {
    for scenario in [
        presets::hotspot_skewed(0.005, 3),
        presets::rush_hour(0.005, 5),
        presets::imbalance(0.5, 0.005, 9),
        presets::ci_fixture(),
    ] {
        let trace = round_trip(&scenario);
        assert_eq!(trace.stream, scenario.stream);
        // The replay prediction is the realised counts by construction.
        let replayed = trace.into_scenario();
        let (w, t) = scenario.actual_counts();
        assert_eq!(replayed.predicted_workers, w);
        assert_eq!(replayed.predicted_tasks, t);
    }
}
