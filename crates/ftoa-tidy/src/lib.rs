//! `ftoa-tidy` — the workspace's determinism lint pass.
//!
//! Everything this repository promises rests on byte-exact determinism: the
//! golden-metrics gate, the 1-vs-4-thread byte-equality test and the
//! three-backend equivalence proptests only mean something if no code path
//! consults wall-clock time, iterates an unordered map into deterministic
//! output, or spawns threads outside `ftoa-runtime`'s ordered pool. Those
//! invariants used to live in reviewers' heads; this crate machine-checks
//! them on every push, in the style of rustc's `tidy`: a zero-dependency
//! (std only) binary that walks every `.rs` file in the workspace with a
//! small line/token scanner and enforces seven named rules:
//!
//! | rule | id                | what it forbids |
//! |------|-------------------|-----------------|
//! | R1   | `wall-clock`      | `Instant`/`SystemTime` reads in library crates outside sanctioned modules |
//! | R2   | `unordered-iter`  | iterating a `HashMap`/`HashSet` in deterministic crates |
//! | R3   | `ad-hoc-thread`   | `std::thread` parallelism outside `ftoa-runtime` |
//! | R4   | `stray-print`     | `println!`/`eprintln!`/`dbg!` in library crates (bins only) |
//! | R5   | `crate-hygiene`   | missing `[lints] workspace = true` opt-in or crate-doc header |
//! | R6   | `trace-version`   | `ftoa-trace` version literals disagreeing across trace.rs / fixture / README |
//! | R7   | `unsafe-safety`   | an `unsafe { ... }` block without a `// SAFETY:` comment directly above it |
//!
//! A finding can be waived inline with
//! `// tidy:allow(<rule-id>) -- <justification>` on (or directly above) the
//! offending line, or a whole file can be declared a sanctioned
//! non-deterministic module with `// tidy:module(<rule-id>) -- <justification>`
//! near the top. Waivers are counted against [`WAIVER_BUDGET`]; the build
//! fails if they grow past it, so every new waiver is a reviewed decision.
//!
//! Run `cargo run -p ftoa-tidy -- --check` for CI-style diagnostics or
//! `-- --json` for the machine-readable report that CI diffs against the
//! committed `tidy_report.json`.

pub mod report;
pub mod rules;
pub mod scan;

use report::TidyReport;
use std::path::Path;

/// Global waiver budget: the total number of `tidy:allow` / `tidy:module`
/// waivers the workspace may carry. Raising it is a reviewed decision —
/// the committed `tidy_report.json` diff makes every new waiver visible.
pub const WAIVER_BUDGET: usize = 6;

/// Walk the workspace under `root` and run every rule. The report contains
/// all violations (empty means clean) and all waivers currently in force.
pub fn check_workspace(root: &Path) -> std::io::Result<TidyReport> {
    let files = scan::discover_rust_files(root)?;
    let mut violations = Vec::new();
    let mut waivers = Vec::new();

    for rel in &files {
        let class = scan::classify(rel);
        if class == scan::FileClass::Shim {
            // The vendored shims (rand, proptest) deliberately mirror
            // external crates' APIs; they are not part of the deterministic
            // surface.
            continue;
        }
        let source = std::fs::read_to_string(root.join(rel))?;
        let masked = scan::mask(&source);
        let file_waivers = scan::parse_waivers(rel, &masked, &mut violations);
        rules::check_file(rel, class, &masked, &file_waivers, &mut violations);
        waivers.extend(file_waivers);
    }

    rules::check_crate_hygiene(root, &mut violations)?;
    rules::check_trace_version(root, &mut violations)?;

    if let Some(v) = budget_violation(waivers.len()) {
        violations.push(v);
    }

    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    waivers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(TidyReport { files_scanned: files.len(), violations, waivers })
}

/// The workspace-level violation produced when the waiver count exceeds
/// [`WAIVER_BUDGET`], if it does.
fn budget_violation(waiver_count: usize) -> Option<report::Violation> {
    (waiver_count > WAIVER_BUDGET).then(|| report::Violation {
        file: String::new(),
        line: 0,
        rule: "waiver-budget",
        message: format!(
            "{waiver_count} waivers in force, budget is {WAIVER_BUDGET}: remove one or raise \
             WAIVER_BUDGET in crates/ftoa-tidy/src/lib.rs (a reviewed decision)"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tool must hold its own workspace clean — this is the tier-1-level
    /// guarantee that `cargo test` alone already enforces every rule.
    #[test]
    fn workspace_is_tidy() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = check_workspace(&root).expect("workspace scan succeeds");
        assert!(report.files_scanned > 50, "walker found too few files");
        assert!(report.violations.is_empty(), "workspace must be tidy:\n{}", report.render_text());
        assert!(report.waivers.len() <= WAIVER_BUDGET);
    }

    #[test]
    fn waiver_budget_overflow_is_a_violation() {
        assert!(budget_violation(WAIVER_BUDGET).is_none(), "at budget is fine");
        let v = budget_violation(WAIVER_BUDGET + 1).expect("over budget must flag");
        assert_eq!(v.rule, "waiver-budget");
        assert!(v.message.contains("remove one or raise"));
    }
}
