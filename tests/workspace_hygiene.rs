//! Workspace rules that no clippy lint can state (the line rules live in
//! `clippy.toml` and `[workspace.lints]`). Every non-shim crate opts into the
//! workspace lints, opens each `src/` file with `//!` and bans prints at its
//! library root; every shim keeps `//!` and `#![forbid(unsafe_code)]`. Every
//! trace header and README `ftoa-trace vN` is a magic the reader accepts, and
//! the README states the one writers emit.

use std::fs;
use std::path::{Path, PathBuf};
use workload::trace::{TRACE_MAGIC, TRACE_MAGIC_V1};

const PRINT_LINTS: &str = "#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Sorted entries of `dir`, keeping those that pass `keep`.
fn entries(dir: &Path, keep: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> =
        fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).filter(|p| keep(p)).collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    entries(dir, |_| true)
        .into_iter()
        .flat_map(|p| if p.is_dir() { rust_files(&p) } else { vec![p] })
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .collect()
}

/// The first line that is neither blank nor an inner attribute is a `//!`.
fn opens_with_doc_header(source: &str) -> bool {
    let mut lines = source.lines().map(str::trim_start);
    lines.find(|l| !l.is_empty() && !l.starts_with("#![")).is_some_and(|l| l.starts_with("//!"))
}

fn opts_into_workspace_lints(manifest: &str) -> bool {
    let table = manifest.split("\n[").find(|t| t.starts_with("lints]"));
    table.is_some_and(|t| t.lines().any(|l| l.replace(' ', "") == "workspace=true"))
}

#[test]
fn every_crate_follows_the_hygiene_rules() {
    let has_manifest = |p: &Path| p.join("Cargo.toml").is_file();
    let mut crates = vec![root().to_path_buf()];
    crates.extend(entries(&root().join("crates"), has_manifest));
    let shims = entries(&root().join("crates/shims"), has_manifest);
    assert!(crates.len() >= 8 && shims.len() >= 2, "found too few crates");

    let mut problems = Vec::new();
    for dir in &crates {
        if !opts_into_workspace_lints(&read(&dir.join("Cargo.toml"))) {
            problems.push(format!("{}: no `[lints] workspace = true`", dir.display()));
        }
        for file in rust_files(&dir.join("src")) {
            if !opens_with_doc_header(&read(&file)) {
                problems.push(format!("{}: does not open with `//!`", file.display()));
            }
        }
        let lib = dir.join("src/lib.rs");
        if lib.is_file() && !read(&lib).contains(PRINT_LINTS) {
            problems.push(format!("{}: lacks `{PRINT_LINTS}`", lib.display()));
        }
    }
    for dir in &shims {
        let lib = read(&dir.join("src/lib.rs"));
        if !opens_with_doc_header(&lib) || !lib.contains("#![forbid(unsafe_code)]") {
            problems.push(format!("{}: needs `//!` and `#![forbid(unsafe_code)]`", dir.display()));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn trace_versions_are_ones_the_reader_accepts() {
    let supported = [TRACE_MAGIC, TRACE_MAGIC_V1];
    let traces = entries(&root().join("traces"), |p| p.extension().is_some_and(|e| e == "trace"));
    assert!(!traces.is_empty());
    for trace in traces {
        let header = read(&trace).lines().next().unwrap_or_default().trim_end().to_owned();
        assert!(supported.contains(&header.as_str()), "{}: header `{header}`", trace.display());
    }

    let readme = read(&root().join("README.md"));
    let mentions: Vec<String> = readme
        .match_indices("ftoa-trace v")
        .filter_map(|(at, tag)| {
            let digits: String =
                readme[at + tag.len()..].chars().take_while(char::is_ascii_digit).collect();
            (!digits.is_empty()).then(|| format!("#{tag}{digits}"))
        })
        .collect();
    for mention in &mentions {
        assert!(supported.contains(&mention.as_str()), "README names `{mention}`");
    }
    assert!(mentions.iter().any(|m| m == TRACE_MAGIC), "README never states `{TRACE_MAGIC}`");
}
