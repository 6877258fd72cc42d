//! End-to-end tests of the experiment binaries' strict command line, on
//! `figure4`: an unknown flag, a missing value, an unparsable value, an
//! unknown `--sweep` name and a flag given twice each exit with code 2, the
//! message and the usage line, before the binary prints its header or runs
//! a sweep. The other five binaries share the parser (`experiments::cli`).

use std::process::{Command, Output};

fn figure4(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure4")).args(args).output().unwrap()
}

/// Exit code 2, `message` and the usage line on stderr, nothing on stdout.
fn assert_usage_error(out: &Output, message: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains(message), "expected `{message}`, got: {err}");
    assert!(err.contains("usage: figure4"), "must print the usage line: {err}");
    assert!(out.stdout.is_empty(), "ran before rejecting its arguments");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    assert_usage_error(&figure4(&["--sweeps", "grid"]), "unrecognised argument `--sweeps`");
}

#[test]
fn a_missing_value_is_a_usage_error() {
    assert_usage_error(&figure4(&["--scale"]), "--scale is missing its value");
}

#[test]
fn an_unparsable_value_is_a_usage_error() {
    assert_usage_error(&figure4(&["--scale", "half"]), "invalid value for --scale: `half`");
}

#[test]
fn an_unknown_sweep_is_a_usage_error() {
    assert_usage_error(
        &figure4(&["--sweep", "worker"]),
        "unknown --sweep value `worker` (expected workers|tasks|deadline|grid|all)",
    );
}

#[test]
fn a_repeated_flag_is_a_usage_error() {
    assert_usage_error(&figure4(&["--no-opt", "--no-opt"]), "flag --no-opt given twice");
}
