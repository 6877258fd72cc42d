//! Parallel-sweep benchmark: the scalability sweep fanned out through the
//! deterministic `ftoa-runtime` job pool.
//!
//! Runs the same (sweep-point × algorithm) cell matrix — the five-point
//! `|W| = |R|` scalability sweep of Figure 5(b,f,j) at a laptop-friendly
//! object scale — once serial (`threads = 1`) and once at four workers, and
//! records both wall-clock times plus the speedup to `BENCH_parallel.json`
//! at the repository root. Before timing anything it asserts that the
//! deterministic CSV renderings of the two runs are **byte-identical**: the
//! ordered reduction makes parallelism observationally equivalent to the
//! serial loop. The speedup is recorded with the host's core count, not
//! asserted: it depends on how many cores the host has for the fan-out.
//!
//! Setting `FTOA_BENCH_QUICK=1` (or passing `--quick`) shrinks the sweep so
//! CI can execute the byte-equality check on every PR; quick runs do not
//! overwrite `BENCH_parallel.json`.
//!
//! Run with: `cargo bench --bench bench_parallel_sweep`

use experiments::figures::fig5_scalability;
use experiments::SuiteOptions;
use ftoa_core::Stopwatch;

fn quick_mode() -> bool {
    std::env::var("FTOA_BENCH_QUICK").map(|v| v == "1").unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

fn main() {
    let quick = quick_mode();
    // The sweep's object counts are the paper's {200k .. 1M} times this
    // scale; 0.02 keeps the serial run in tens of seconds on a laptop while
    // leaving each cell heavy enough for the fan-out to matter.
    let object_scale = if quick { 0.002 } else { 0.02 };
    let threads = 4;

    let run = |threads: usize| {
        let opts = SuiteOptions::scalability().with_threads(threads);
        let start = Stopwatch::start();
        let report = fig5_scalability(object_scale, &opts);
        (start.elapsed().as_secs_f64(), report)
    };

    let (serial_seconds, serial_report) = run(1);
    let (parallel_seconds, parallel_report) = run(threads);
    assert_eq!(
        serial_report.to_csv_deterministic(),
        parallel_report.to_csv_deterministic(),
        "parallel sweep output must be byte-identical to the serial run"
    );

    let speedup = serial_seconds / parallel_seconds.max(1e-9);
    #[allow(clippy::disallowed_methods, reason = "records the host's core count, sizes no pool")]
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scalability sweep (scale {object_scale}, {cores} core(s)): serial {serial_seconds:.3}s \
         vs {threads} threads {parallel_seconds:.3}s — {speedup:.2}x speedup, outputs \
         byte-identical"
    );

    if quick {
        println!("quick mode: skipping BENCH_parallel.json");
        return;
    }

    let json = format!(
        "{{\n  \"sweep\": \"fig5_scalability\",\n  \"object_scale\": {object_scale},\n  \
         \"threads\": {threads},\n  \"cores\": {cores},\n  \
         \"serial_seconds\": {serial_seconds:.6},\n  \
         \"parallel_seconds\": {parallel_seconds:.6},\n  \"speedup\": {speedup:.2},\n  \
         \"outputs_byte_identical\": true\n}}\n"
    );
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_parallel.json");
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    println!("wrote {}", out.display());
}
