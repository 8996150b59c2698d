//! Metric names, units and the result printout.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use relpat_kb::{KnowledgeBase, DEFAULT_KB_FINGERPRINT};

use crate::stats::{median, Histogram};

/// End-to-end metrics, reported by every workload in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("throughput_ops_s", "1/s"),
    ("answered_ratio", "ratio"),
    ("correct_ratio", "ratio"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nlp.parse_us", "us"),
    ("qa.extract_us", "us"),
    ("qa.map_us", "us"),
    ("qa.map.index_prune_ratio", "ratio"),
    ("qa.map.index_probed_per_q", "count"),
    ("qa.build_us", "us"),
    ("qa.plan.expanded_per_q", "count"),
    ("qa.answer_us", "us"),
    ("qa.queries_executed_per_q", "count"),
    ("qa.exec_useful_ratio", "ratio"),
    ("qa.pipeline_residual_us", "us"),
    ("qa.allocs_per_q", "count"),
    ("qa.alloc_bytes_per_q", "bytes"),
    ("kb.generate_s", "s"),
    ("kb.cache_hit_ratio", "ratio"),
    ("kb.cache_hits", "count"),
    ("kb.cache_misses", "count"),
    ("patterns.mine_s", "s"),
    ("wordnet.similar_pairs_s", "s"),
    ("sparql.parse_us", "us"),
    ("sparql.plan_us", "us"),
    ("sparql.join_us", "us"),
    ("sparql.materialize_us", "us"),
    ("sparql.rows_scanned_per_q", "count"),
    ("sparql.cells_out_per_q", "count"),
    ("rdf.scan_ns_per_row", "ns"),
    ("sparql.materialize_ns_per_cell", "ns"),
    ("sparql.join_merge_share", "ratio"),
    ("sparql.join_gallop_share", "ratio"),
    ("sparql.join_nested_share", "ratio"),
    ("sparql.allocs_per_q", "count"),
    ("sparql.alloc_bytes_per_q", "bytes"),
    ("serve.handle_us", "us"),
    ("serve.app_overhead_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("loadgen.lag_us", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("trace.decomposition_ok", "ratio"),
];

/// Per-layer values of one traced run, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Table 2 counts (evaluated, answered, correct) where the workload
    /// runs the QALD questions.
    pub table2: (usize, usize, usize),
    e2e: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed with the report but not part of
    /// the result line.
    extra: Vec<(String, f64, &'static str)>,
    layers: Layers,
    checks_failed: Vec<String>,
    notes: Vec<String>,
    provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name, value);
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push((name.into(), value, unit));
    }

    pub fn extra_value(&self, name: &str) -> Option<f64> {
        self.extra
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Setup times of every build in the run; the median is reported.
    pub fn setup(&mut self, times_s: &[f64]) {
        self.set("setup_s", median(times_s));
        for (i, t) in times_s.iter().enumerate() {
            self.extra(format!("setup_s[{i}]"), *t, "s");
        }
    }

    /// Closed-loop latencies of one client over `elapsed_s`.
    pub fn latencies(&mut self, hist: &Histogram, elapsed_s: f64) {
        self.set("latency_p50_us", hist.percentile(50.0) / 1e3);
        self.set("throughput_ops_s", hist.len() as f64 / elapsed_s);
        self.extra("latency_p90_us", hist.percentile(90.0) / 1e3, "us");
        self.extra("latency_p99_us", hist.percentile(99.0) / 1e3, "us");
        self.extra("samples", hist.len() as f64, "count");
    }

    pub fn quality(&mut self, attempted: u64, failed: u64, answered: f64, correct: f64) {
        self.attempted += attempted;
        self.failed += failed;
        self.set("answered_ratio", answered);
        self.set("correct_ratio", correct);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.set(name, value);
    }

    pub fn layers(&mut self, layers: Layers) {
        self.layers.0.extend(layers.0);
    }

    pub fn fail_check(&mut self, message: String) {
        self.checks_failed.push(message);
    }

    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }

    pub fn provenance(&mut self, key: &'static str, json_value: String) {
        self.provenance.push((key, json_value));
    }

    pub fn provenance_kb(&mut self, factor: usize, kb: &KnowledgeBase) {
        let fingerprint = kb.fingerprint();
        self.provenance("kb_factor", factor.to_string());
        self.provenance("kb_triples", kb.len().to_string());
        self.provenance("kb_entities", kb.entity_count().to_string());
        self.provenance("kb_fingerprint", format!("\"{fingerprint:#018x}\""));
        if factor == 1 && fingerprint != DEFAULT_KB_FINGERPRINT {
            self.fail_check(format!(
                "x1 KB fingerprint {fingerprint:#018x} != {DEFAULT_KB_FINGERPRINT:#018x}"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.checks_failed.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report, the provenance line and, last, the
    /// one-line JSON result.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# qabench workload={workload} trace={}", u8::from(trace));
        for (name, unit) in END_TO_END {
            if let Some(v) = self.e2e.get(name) {
                let _ = writeln!(s, "{name:<32} {v:>16.4} {unit}");
            }
        }
        let _ = writeln!(
            s,
            "{:<32} {:>16.6} ratio",
            "failed_ratio",
            self.failed_ratio()
        );
        for (name, v, unit) in &self.extra {
            let _ = writeln!(s, "{name:<32} {v:>16.4} {unit}");
        }
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.0.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(s, "{name:<32} {v:>16.4} {unit}");
            }
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        for c in &self.checks_failed {
            let _ = writeln!(s, "CHECK FAILED: {c}");
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(s, "{{\"provenance\": {{{}}}}}", prov.join(", "));

        let metrics: Vec<String> = if trace {
            PER_LAYER
                .iter()
                .map(|(n, u)| metric_json(n, self.layers.0.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| metric_json(n, self.e2e.get(n).copied().unwrap_or(0.0), u))
                .collect()
        };
        let _ = writeln!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        s
    }

    fn failed_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no infinities; a failed run's unbounded latency is clamped.
    let value = if value.is_finite() { value } else { f64::MAX };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// Peak resident set size of a process in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.25);
        o.quality(10, 0, 0.5, 0.25);
        let out = o.render("w", false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(last.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let traced = o.render("w", true);
        let last = traced.lines().last().unwrap();
        assert_eq!(last.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(relpat_obs::Json::parse(last).is_ok());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.quality(3, 0, 1.0, 1.0);
        assert!(o.correct());
        o.fail_check("boom".into());
        assert!(!o.correct());
        assert!(o
            .render("w", false)
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
        assert_eq!(
            metric_json("x", f64::INFINITY, "us"),
            format!("\"x\": {{\"value\": {:?}, \"unit\": \"us\"}}", f64::MAX)
        );
    }
}
