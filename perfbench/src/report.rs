//! The run's report: metadata, named metrics with units, and the one-line
//! JSON result that ends standard output.

use crate::stats::{median, Samples};
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text qualifier printed beside the value (sample count,
    /// supported percentile, ...).
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub meta: Vec<(String, String)>,
    /// Metrics in the final JSON line (the gated set for this mode).
    pub metrics: Vec<Metric>,
    /// Metrics printed by name with units but not gated.
    pub extra: Vec<Metric>,
    /// Raw latency samples behind the percentiles, in milliseconds
    /// (written to the report file only).
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident memory (MiB) when the timed phase starts, after
    /// set-up and warm-up.
    pub warm_peak_mb: Option<f64>,
    /// Problems that make the run invalid (printed, then exit non-zero).
    pub errors: Vec<String>,
}

impl Report {
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric_note(name, value, unit, String::new());
    }

    pub fn metric_note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Fills the end-to-end metrics every workload reports; `what` says
    /// what one latency sample is.
    pub fn end_to_end(&mut self, setup: &[f64], images_per_s: f64, latency_ms: &[f64], what: &str) {
        self.metric_note(
            "setup_s",
            median(setup),
            "s",
            format!("median of {} set-ups: {setup:.4?}", setup.len()),
        );
        self.metric("images_per_s", images_per_s, "1/s");
        self.samples_ms = latency_ms.to_vec();
        let s = Samples::new(latency_ms);
        let support = match s.highest_supported() {
            Some(p) => format!("supports up to p{p}"),
            None => "supports no percentile (needs >= 20)".to_string(),
        };
        self.metric_note(
            "latency_ms_p50",
            s.median().unwrap_or(f64::NAN),
            "ms",
            format!("{what}, n={}, {support}", s.len()),
        );
        let p90_note = if s.supports(90.0) {
            format!("{what}, n={}, supported", s.len())
        } else {
            format!("{what}, n={}, NOT supported: needs >= 100 samples", s.len())
        };
        self.extra(
            "latency_ms_p90",
            s.percentile(90.0).unwrap_or(f64::NAN),
            "ms",
            p90_note,
        );
    }

    /// Human-readable lines: metadata, then every metric with its unit.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for (tag, list) in [("metric", &self.metrics), ("report", &self.extra)] {
            for m in list {
                if m.value.is_finite() {
                    let _ = write!(out, "{tag} {:<34} {:>14.6} {}", m.name, m.value, m.unit);
                } else {
                    let _ = write!(out, "{tag} {:<34} {:>14} {}", m.name, "n/a", m.unit);
                }
                if !m.note.is_empty() {
                    let _ = write!(out, "  ({})", m.note);
                }
                out.push('\n');
            }
        }
        let _ = writeln!(
            out,
            "# attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for e in &self.errors {
            let _ = writeln!(out, "# ERROR: {e}");
        }
        out
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Metadata and every metric as one JSON document for the output
    /// directory.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            let sep = if i > 0 { ",\n    " } else { "\n    " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("\n  },\n  \"metrics\": [");
        let all: Vec<&Metric> = self.metrics.iter().chain(&self.extra).collect();
        for (i, m) in all.iter().enumerate() {
            let sep = if i > 0 { ",\n    " } else { "\n    " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit,
                escape(&m.note)
            );
        }
        let samples: Vec<String> = self.samples_ms.iter().map(|v| format!("{v:.3}")).collect();
        let _ = write!(out, "\n  ],\n  \"samples_ms\": [{}],", samples.join(", "));
        let _ = write!(
            out,
            "\n  \"attempted\": {},\n  \"failed\": {},\n  \"correct\": {}\n}}\n",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.8125, "s");
        r.extra("failed_frac", 0.0, "frac", String::new());
        r.attempted = 3;
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
