//! Metric names and units, and the JSON line a run ends with.
//!
//! The names here are the ones `BENCHMARK.json` lists; a test keeps the two
//! in step.

use crate::layers::BACKENDS;
use std::fmt::Write as _;

/// End-to-end metrics, printed by a run with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("replay_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("event_p50_us", "us"),
    ("event_p99_us", "us"),
    ("event_p999_us", "us"),
    ("peak_rss_mb", "MB"),
    ("utility", "payoff"),
];

/// The kernels the kernel probe times: the scalar oracle and the fastest
/// one this CPU supports (which may be the scalar one again).
pub const KERNELS: [&str; 2] = ["scalar", "best"];

/// Per-layer metrics, printed by a run with `--trace 1`, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("trace.read_s", "s"),
        ("trace.mb_per_s", "MB/s"),
        ("scenario.derive_s", "s"),
        ("guide.build_s", "s"),
        ("guide.nodes", "count"),
        ("guide.pairs", "count"),
        ("guide.mb", "MB"),
        ("policy.arrival_s", "s"),
        ("policy.expiry_s", "s"),
        ("policy.matched", "count"),
        ("policy.candidates", "count"),
        ("policy.ns_per_candidate", "ns"),
        ("driver.run_s", "s"),
        ("driver.self_s", "s"),
        ("driver.expired", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (_, b) in BACKENDS {
        for (field, unit) in [
            ("insert_ns", "ns"),
            ("remove_ns", "ns"),
            ("nearest_ns", "ns"),
            ("range_ns", "ns"),
            ("examined_per_query", "count"),
            ("hit_ratio", "ratio"),
        ] {
            out.push((format!("index.{b}.{field}"), unit));
        }
    }
    out.push(("arena.insert_ns".into(), "ns"));
    out.push(("arena.remove_ns".into(), "ns"));
    for k in KERNELS {
        out.push((format!("kernel.{k}.range_ns_per_elem"), "ns"));
        out.push((format!("kernel.{k}.nearest_ns_per_elem"), "ns"));
    }
    for (n, u) in [
        ("flow.hk.solve_s", "s"),
        ("flow.mcmf.solve_s", "s"),
        ("flow.graphs", "count"),
        ("flow.edges", "count"),
        ("metrics.render_s", "s"),
        ("trace_overhead_pct", "%"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// A JSON number: finite values with every digit Rust's shortest
/// round-trip formatting gives; anything else as 0 (the run is then
/// reported incorrect by its caller).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run: `correct`, `attempted`, `failed` and the
/// metrics with their units, in the order given.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("quoted name")].to_string();
                let unit_at = entry.find("\"unit\": \"").expect("unit present") + 9;
                let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').expect("quoted")]
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn metric_names_fit_the_name_rules() {
        let names = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = Vec::new();
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(!seen.contains(&name), "{name} used twice");
            seen.push(name);
        }
        assert!(seen.len() <= 16 + 128);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 4, 0, &[("replay_s".into(), 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"replay_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }
}
