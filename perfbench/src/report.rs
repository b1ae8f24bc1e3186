//! Metric names, the result line, and provenance.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports with `--trace 0`: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`: name, unit.
/// A layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lifecycle.call_ns", "ns"),
    ("shard.self_ns", "ns"),
    ("shard.multiply_adds", "count"),
    ("shard.speedup", "ratio"),
    ("shard.pages_per_query", "count"),
    ("replica.calls_per_query", "count"),
    ("replica.hit_rate", "ratio"),
    ("replica.self_ns", "ns"),
    ("replica.hit_ns", "ns"),
    ("archive.page_ns", "ns"),
    ("archive.self_ns", "ns"),
    ("archive.pages_read", "count"),
    ("batched.self_ns", "ns"),
    ("batched.cell_share", "ratio"),
    ("batched.bound_share", "ratio"),
    ("batched.pages_per_query", "count"),
    ("journal.append_ns", "ns"),
    ("pyramid.extend_ns", "ns"),
    ("snapshot.publish_ns", "ns"),
    ("snapshot.query_ns", "ns"),
    ("journal.bytes_per_user_byte", "ratio"),
    ("journal.recover_ns_per_epoch", "ns"),
    ("ledger.closure", "ratio"),
    ("ledger.trace_overhead", "ratio"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values keyed by name, emitted in the order of a metric table.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer matched its reference and every conservation law held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a degraded answer.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Why `correct` is false, one entry per failed check.
    pub problems: Vec<String>,
    /// Sample counts and spreads for the provenance line.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome with nothing attempted yet.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            problems: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// Asserts a check, recording `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `table` with its unit. A metric the run did not set is an error in the
/// benchmark itself.
pub fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            assert!(valid_metric_name(name), "invalid metric name {name:?}");
            let value = outcome
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A flat JSON object of string and number fields.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Adds a string field.
    pub fn text(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("{}: {}", json_string(key), json_string(value)));
        self
    }

    /// Adds a number field.
    pub fn number(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push(format!("{}: {}", json_string(key), json_number(value)));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Total and stolen CPU time so far, in clock ticks, from the first line
/// of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Share of the host's CPU time stolen by other guests between two
/// [`cpu_ticks`] readings: the outside noise a run was measured under.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// The checkout's git commit, when run from a git work tree root.
pub fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Provenance fields shared by every result: commit, host CPUs, compiler,
/// build profile.
pub fn provenance() -> JsonObject {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    JsonObject::default()
        .text("git_sha", &git_sha())
        .number("host_cpus", cpus as f64)
        .text("rustc", env!("PERFBENCH_RUSTC"))
        .text("profile", env!("PERFBENCH_PROFILE"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        assert!(valid_metric_name("setup_s"));
        assert!(valid_metric_name("ledger.closure"));
        assert!(valid_metric_name("9-lives_x.y"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/y"));
        assert!(!valid_metric_name("ümlaut"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn benchmark_manifest_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = |section: &str| -> Vec<String> {
            let start = manifest
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("a", 1.5);
        metrics.set("b", 2.0);
        metrics.set("a", 0.25);
        let outcome = Outcome {
            attempted: 3,
            metrics,
            ..Outcome::new()
        };
        let line = result_line(&outcome, &[("a", "ms"), ("b", "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
    }
}
