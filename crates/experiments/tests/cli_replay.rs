//! End-to-end tests of the `replay` binary's command-line contract.
//!
//! The CLI parses its arguments strictly: unknown flags, positional tokens,
//! missing values, duplicated flags, a missing `--trace`, unknown algorithm,
//! backend or preset names and unparsable numbers are usage errors (exit
//! code 2 plus the usage line, before any file is read), while runtime
//! failures — including unparsable `FTOA_JOBS` / `FTOA_KERNEL` environment
//! knobs, validated eagerly, and malformed traces — exit with code 1 and a
//! diagnostic, without the usage line. These tests pin that contract, and
//! that `--threads N` produces byte-identical deterministic metrics at
//! every N.

use ftoa_core::Stopwatch;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn replay() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_replay"));
    // Run every invocation with a clean slate for the knobs under test so a
    // developer's ambient environment cannot flip the expected outcomes.
    cmd.env_remove("FTOA_JOBS").env_remove("FTOA_KERNEL").env_remove("FTOA_HYBRID_THRESHOLD");
    cmd
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../traces/fixture_small.trace")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_usage_errors_with_exit_code_2() {
    // `--algos` (the historical silent typo for `--algo`) must be rejected.
    let out = replay().args(["--algos", "all"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("unrecognised argument `--algos`"), "got: {err}");
    assert!(err.contains("usage: replay"), "must print the usage line: {err}");
    // A stray positional token is just as unrecognised.
    let out = replay().arg("fixture_small.trace").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unrecognised argument"));
}

#[test]
fn missing_values_and_duplicate_flags_are_usage_errors() {
    let out = replay().arg("--trace").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--trace is missing its value"));

    let out = replay().args(["--trace", "a.trace", "--trace", "b.trace"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("flag --trace given twice"));
}

/// A missing `--trace`, an unknown name and an unparsable number exit 2
/// with the usage line. No case names a readable trace, so exit 2 also
/// shows that the arguments were rejected before any file was read.
#[test]
fn bad_flag_values_are_usage_errors() {
    let cases: [(&[&str], &str); 8] = [
        (&["--algo", "gr"], "missing --trace <file> (or --capture <preset>)"),
        (&["--trace", "missing.trace", "--algo", "gr,bogus"], "unknown algorithm `bogus`"),
        (&["--trace", "missing.trace", "--backend", "octree"], "unknown backend `octree`"),
        (&["--capture", "bogus", "--out", "x.trace"], "unknown preset `bogus`"),
        (&["--trace", "missing.trace", "--threads", "four"], "invalid value for --threads: `four`"),
        (&["--capture", "hotspot", "--seed", "-1"], "invalid value for --seed: `-1`"),
        (&["--capture", "hotspot", "--scale", "half"], "invalid value for --scale: `half`"),
        (&["--capture", "imbalance", "--ratio", "1:2"], "invalid value for --ratio: `1:2`"),
    ];
    for (args, message) in cases {
        let out = replay().args(args).output().unwrap();
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message) && err.contains("usage: replay"), "{args:?}: {err}");
    }
}

#[test]
fn help_prints_usage_and_exits_cleanly() {
    let out = replay().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: replay"));
}

#[test]
fn unparsable_jobs_env_is_a_hard_error() {
    let out = replay()
        .env("FTOA_JOBS", "banana")
        .args(["--trace".as_ref(), fixture().as_os_str(), "--deterministic-only".as_ref()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("FTOA_JOBS") && err.contains("banana"), "got: {err}");
    assert!(!err.contains("usage: replay"), "a runtime error is not a usage error: {err}");
}

/// Output is byte-identical at any thread count, end to end through the
/// binary: the algorithm cells fan out over the job pool, but each engine
/// run is serial and the reduction is ordered.
#[test]
fn threaded_replay_is_byte_identical_to_serial() {
    let run = |threads: &str| {
        let out = replay()
            .args([
                "--trace".as_ref(),
                fixture().as_os_str(),
                "--deterministic-only".as_ref(),
                "--threads".as_ref(),
                threads.as_ref(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "threads {threads}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains(&format!("{threads} thread")), "{}", stderr_of(&out));
        out.stdout
    };
    let serial = run("1");
    assert!(!serial.is_empty());
    assert_eq!(serial, run("4"), "threaded metrics must be byte-identical to serial");
}

/// The hybrid backend reads no environment: a leftover threshold variable
/// from older builds, which used to panic inside the index, changes nothing.
#[test]
fn hybrid_backend_ignores_a_stale_threshold_variable() {
    let run = |env: Option<&str>| {
        let mut cmd = replay();
        if let Some(value) = env {
            cmd.env("FTOA_HYBRID_THRESHOLD", value);
        }
        let out = cmd
            .args([
                "--trace".as_ref(),
                fixture().as_os_str(),
                "--backend".as_ref(),
                "hybrid".as_ref(),
                "--algo".as_ref(),
                "simplegreedy,gr".as_ref(),
                "--deterministic-only".as_ref(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
        out.stdout
    };
    assert_eq!(run(Some("banana")), run(None));
}

/// A header declaring too many `(slot, cell)` types is a line-numbered
/// trace error (exit 1), not an abort on a multi-terabyte allocation
/// (exit 134). Both cases are one-line edits of the weighted fixture.
#[test]
fn oversized_trace_header_is_a_line_numbered_error() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../traces/fixture_weighted.trace");
    let text = std::fs::read_to_string(fixture).unwrap();
    let dir = std::env::temp_dir().join(format!("ftoa-cli-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (line, edit) in [(4, "config grid 4294967295 12"), (5, "config slots 0 15 99999999")] {
        let mut lines: Vec<&str> = text.lines().collect();
        lines[line - 1] = edit;
        let path = dir.join(format!("edited_line_{line}.trace"));
        std::fs::write(&path, lines.join("\n")).unwrap();
        let out = replay()
            .args([
                "--trace".as_ref(),
                path.as_os_str(),
                "--algo".as_ref(),
                "simplegreedy".as_ref(),
                "--deterministic-only".as_ref(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "`{edit}`: {}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.contains(&format!("trace line {line}:")), "`{edit}`: {err}");
        assert!(err.contains("(slot, cell) types"), "`{edit}`: {err}");
        assert!(!err.contains("usage: replay"), "`{edit}`: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An event time far outside the slot horizon is a line-numbered trace
/// error (exit 1). Unchecked, the weighted fixture with its first event at
/// `-1e12` makes GR and BATCH-MF solve one empty round per 3-minute window
/// across the gap, so the run never finishes.
#[test]
fn far_event_time_is_a_line_numbered_error_not_a_hang() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../traces/fixture_weighted.trace");
    let text = std::fs::read_to_string(fixture).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut fields: Vec<&str> = lines[7].split(' ').collect();
    assert_eq!(fields[0], "w", "line 8 is the first event");
    fields[2] = "-1e12";
    lines[7] = fields.join(" ");
    let dir = std::env::temp_dir().join(format!("ftoa-cli-far-event-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("far_event.trace");
    std::fs::write(&path, lines.join("\n")).unwrap();

    let mut child = replay()
        .args([
            "--trace".as_ref(),
            path.as_os_str(),
            "--algo".as_ref(),
            "gr,batch-mf".as_ref(),
            "--deterministic-only".as_ref(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let started = Stopwatch::start();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > Duration::from_secs(30) {
            child.kill().ok();
            panic!("replay still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("trace line 8:"), "got: {err}");
    assert!(err.contains("-1000000000000") && err.contains("[-180, 360]"), "got: {err}");
    assert!(!err.contains("usage: replay"), "got: {err}");
}
