//! The metric catalogue, the per-run outcome and its JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wireless_aggregation::Metrics;

/// The end-to-end metrics every untraced run prints, with their units.
/// `BENCHMARK.json` lists the same names (a test pins the two together).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s", "s"),
    ("slots", "count"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "fraction"),
];

/// The per-layer metrics every traced run prints. A layer the workload does
/// not exercise reads 0 (the recorder saw no work there).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mst.build_ms", "ms"),
    ("conflict.build_ms", "ms"),
    ("conflict.edges", "count"),
    ("static.color_ms", "ms"),
    ("static.verify_ms", "ms"),
    ("static.verified_slots", "count"),
    ("partition.build_ms", "ms"),
    ("partition.color_ms", "ms"),
    ("partition.stitch_ms", "ms"),
    ("partition.verify_ms", "ms"),
    ("verifier.expansions", "count"),
    ("verifier.exact_fallbacks", "count"),
    ("partition.ghost_copies", "count"),
    ("partition.owned_max", "count"),
    ("session.open_ms", "ms"),
    ("session.unattributed_ms", "ms"),
    ("repair.warm_recaptured", "count"),
    ("repair.dirty", "count"),
    ("repair.admissions", "count"),
    ("repair.rejections", "count"),
    ("repair.fresh_slots", "count"),
    ("repair.warm_patched", "count"),
    ("repair.admit_ratio", "ratio"),
    ("engine.rows_recomputed", "count"),
    ("engine.compactions", "count"),
    ("engine.grid_rebuilds", "count"),
    ("churn.events_rtt_us", "us"),
    ("churn.solve_rtt_us", "us"),
    ("churn.open_p50_ms", "ms"),
    ("churn.p99_ms", "ms"),
    ("service.handle_events_us", "us"),
    ("service.handle_solve_us", "us"),
    ("service.queue_hop_us", "us"),
    ("service.queue_depth_max", "count"),
    ("service.busy", "count"),
    ("cold.snapshot_ms", "ms"),
    ("cold.restore_solve_ms", "ms"),
    ("snapshot.frame_mb", "MB"),
    ("state.capture_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("state.restore_ms", "ms"),
    ("restore.first_solve_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Recorder counters harvested under their own names.
const COUNTERS: &[&str] = &[
    "static.verified_slots",
    "verifier.expansions",
    "verifier.exact_fallbacks",
    "partition.ghost_copies",
    "partition.owned_max",
    "repair.warm_recaptured",
    "repair.dirty",
    "repair.admissions",
    "repair.rejections",
    "repair.fresh_slots",
    "repair.warm_patched",
    "engine.rows_recomputed",
    "engine.compactions",
    "engine.grid_rebuilds",
];

/// Recorder phases harvested as milliseconds: `(span path, metric)`.
const PHASES: &[(&str, &str)] = &[
    ("static/color", "static.color_ms"),
    ("static/verify", "static.verify_ms"),
    ("partition/build", "partition.build_ms"),
    ("partition/color", "partition.color_ms"),
    ("partition/stitch", "partition.stitch_ms"),
    ("partition/verify", "partition.verify_ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted (requests, solves, churn ops).
    pub attempted: u64,
    /// Operations that failed, were refused with `Busy`, or failed a
    /// correctness check.
    pub failed: u64,
    /// One line per failed check or failed operation; empty when every
    /// output checked out.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Work counters of each directly driven session, in client order —
    /// what the determinism self-test compares.
    pub session_counters: Vec<BTreeMap<String, u64>>,
}

impl Outcome {
    /// Records `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.metrics.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds to the value under `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.get(name).unwrap_or(0.0) + value;
        self.set(name, sum);
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a failed correctness check or a failed (not merely refused)
    /// operation: one more failed op, a line for the log, and the run reads
    /// `correct: false`.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Adds a direct session's recorder snapshot to the per-layer metrics:
    /// counters under their own names, phases as milliseconds, and the
    /// session's counters to [`Outcome::session_counters`].
    pub fn harvest(&mut self, metrics: &Metrics) {
        let mut counters = BTreeMap::new();
        for &name in COUNTERS {
            let value = metrics.counter(name).unwrap_or(0);
            counters.insert(name.to_string(), value);
            self.add(name, value as f64);
        }
        for &(path, name) in PHASES {
            self.add(name, metrics.phase(path).map_or(0.0, |p| p.millis()));
        }
        self.session_counters.push(counters);
    }

    /// Derived per-layer ratios, computed once all sessions are harvested.
    pub fn finish_layers(&mut self) {
        let admissions = self.get("repair.admissions").unwrap_or(0.0);
        let attempts = admissions + self.get("repair.rejections").unwrap_or(0.0);
        let ratio = if attempts > 0.0 {
            admissions / attempts
        } else {
            0.0
        };
        self.set("repair.admit_ratio", ratio);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `catalogue` (a metric
    /// the run did not touch reads 0).
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn json_line_lists_every_metric() {
        let mut outcome = Outcome::default();
        outcome.count(3, 0);
        outcome.set("solve_s", 1.25);
        let line = outcome.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"solve_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ok_frac\": {\"value\": 0.0, \"unit\": \"fraction\"}"));
    }
}
