//! The CI cycle-regression gate behind `report -- ci-check`, and the
//! baseline format and comparison every gate shares ([`drift_report`]).
//!
//! The baseline (`bench/baselines/cycles.json` at the repo root) records the
//! deterministic Table 1 / Fig. 9 cycle metrics at [`Sizes::quick`] and the
//! fixed seed. CI re-measures them and fails on more than
//! [`TOLERANCE_PCT`] percent drift in either direction, so timing-model
//! changes must be intentional: regenerate with `report -- ci-check --bless`
//! and commit the diff.
//!
//! The file format is deliberately trivial (hand-rolled, no serde): a JSON
//! object whose `"metrics"` map holds one `"name": value` pair per line.
//! [`parse_json`] accepts exactly what [`push_metrics`] writes, which ends
//! this baseline and every gated `BENCH_*.json` record alike.

use crate::experiments::{measure, Sizes};
use wfasic_accel::AccelConfig;
use wfasic_seqio::dataset::InputSetSpec;

/// Allowed relative drift, in percent, before a two-sided gate fails.
pub const TOLERANCE_PCT: f64 = 2.0;

/// One named cycle metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, e.g. `table1/100-5%/align_cycles`.
    pub name: String,
    /// Measured value (cycles, possibly a per-pair mean).
    pub value: f64,
}

/// Measure the gated metrics. Always runs at [`Sizes::quick`] with the
/// fixed seed — the whole point is determinism, so the workload is not
/// configurable here.
pub fn collect() -> Vec<Metric> {
    let sizes = Sizes::quick();
    let cfg = AccelConfig::wfasic_chip();
    let mut metrics = Vec::new();
    for spec in &InputSetSpec::ALL {
        let set = spec.name();
        let nbt = measure(spec, &sizes, &cfg, false, false);
        let bt = measure(spec, &sizes, &cfg, true, false);
        metrics.push(Metric {
            name: format!("table1/{set}/align_cycles"),
            value: nbt.mean_align_cycles,
        });
        metrics.push(Metric {
            name: format!("table1/{set}/read_cycles"),
            value: nbt.read_cycles as f64,
        });
        metrics.push(Metric {
            name: format!("fig9/{set}/nbt_accel_cycles"),
            value: nbt.accel_cycles as f64,
        });
        metrics.push(Metric {
            name: format!("fig9/{set}/bt_total_cycles"),
            value: bt.wfasic_total as f64,
        });
    }
    // Multi-lane batch throughput: batch completion cycles per lane count,
    // so a scheduler or arbiter regression that slows (or falsely speeds
    // up) batched execution trips the gate like any other cycle drift.
    for row in crate::experiments::batch_scaling(&sizes) {
        metrics.push(Metric {
            name: format!("batch/lanes{}/total_cycles", row.lanes),
            value: row.total_cycles as f64,
        });
    }
    // Backend-layer routing: simulated batch cycles per device-backed
    // backend, so a regression in the backend/service layer's chunking or
    // dispatch shows up as cycle drift even when the device model itself is
    // untouched.
    for (name, value) in crate::backends::baseline_metrics() {
        metrics.push(Metric { name, value });
    }
    metrics
}

/// Render metrics as the baseline JSON document.
pub fn render_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"workload\": \"quick\",\n");
    s.push_str(&format!("  \"tolerance_pct\": {TOLERANCE_PCT},\n"));
    push_metrics(&mut s, metrics);
    s
}

/// Append the `"metrics"` object, one `"name": value` pair per line, and
/// close the document. Every gated record ends this way, so [`parse_json`]'s
/// first-`"metrics"` scan sees exactly this object.
pub fn push_metrics(doc: &mut String, metrics: &[Metric]) {
    doc.push_str("  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        doc.push_str(&format!("    \"{}\": {}{}\n", m.name, m.value, comma));
    }
    doc.push_str("  }\n}\n");
}

/// Parse a baseline document written by [`render_json`]: every
/// `"name": value` line inside the `"metrics"` object.
pub fn parse_json(text: &str) -> Result<Vec<Metric>, String> {
    let (_, tail) = text
        .split_once("\"metrics\"")
        .ok_or_else(|| "no \"metrics\" object in baseline".to_string())?;
    let body = tail
        .split_once('{')
        .map(|(_, b)| b)
        .and_then(|b| b.split_once('}'))
        .map(|(b, _)| b)
        .ok_or_else(|| "malformed \"metrics\" object".to_string())?;
    let mut metrics = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed metric line: {line}"))?;
        let name = name.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad value for {name}: {e}"))?;
        metrics.push(Metric { name, value });
    }
    if metrics.is_empty() {
        return Err("baseline holds no metrics".to_string());
    }
    Ok(metrics)
}

/// How a gate compares measured metrics against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Comparison {
    /// Fail on more than this many percent drift in either direction:
    /// deterministic metrics, where being faster is as suspect as slower.
    TwoSided(f64),
    /// Fail only below this fraction of the baseline value: host wall-clock
    /// ratios, which may grow freely but must not collapse.
    Floor(f64),
}

impl Comparison {
    fn passes(self, baseline: f64, measured: f64, pct: f64) -> bool {
        match self {
            Comparison::TwoSided(tolerance_pct) => pct.abs() <= tolerance_pct,
            Comparison::Floor(fraction) => measured >= baseline * fraction,
        }
    }
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Comparison::TwoSided(tolerance_pct) => write!(f, "within {tolerance_pct}% of baseline"),
            Comparison::Floor(fraction) => write!(f, "at or above {fraction}x of baseline"),
        }
    }
}

/// Compare measured metrics against the baseline and render one row per
/// metric: the drift table every gate prints, plus its failure count.
/// Baseline metrics come first, in order, then metrics new to this
/// measurement. A metric missing on either side always fails, so renaming
/// a metric forces a bless.
pub fn drift_report(
    baseline: &[Metric],
    measured: &[Metric],
    comparison: Comparison,
) -> (String, usize) {
    let find = |set: &[Metric], name: &str| set.iter().find(|m| m.name == name).map(|m| m.value);
    let new = measured
        .iter()
        .filter(|m| find(baseline, &m.name).is_none());
    let mut out = String::new();
    let mut failures = 0;
    for name in baseline.iter().chain(new).map(|m| m.name.as_str()) {
        let (b, m) = (find(baseline, name), find(measured, name));
        let (pct, ok) = match (b, m) {
            (Some(b), Some(m)) => {
                let pct = if b == 0.0 {
                    if m == 0.0 {
                        0.0
                    } else {
                        100.0
                    }
                } else {
                    (m / b - 1.0) * 100.0
                };
                (pct, comparison.passes(b, m, pct))
            }
            _ => (0.0, false),
        };
        let status = if ok {
            "ok"
        } else {
            failures += 1;
            "FAIL"
        };
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
        out.push_str(&format!(
            "{status:>4}  {name:<44} baseline {:>12}  measured {:>12}  drift {pct:+.2}%\n",
            fmt(b),
            fmt(m),
        ));
    }
    (out, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
        }
    }

    #[test]
    fn json_round_trips() {
        let metrics = vec![
            metric("table1/100-5%/align_cycles", 214.25),
            metric("fig9/10K-10%/bt_total_cycles", 1_234_567.0),
        ];
        let parsed = parse_json(&render_json(&metrics)).unwrap();
        assert_eq!(parsed, metrics);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("{}").is_err());
        assert!(parse_json("{\"metrics\": {}}").is_err());
        assert!(parse_json("{\"metrics\": {\"a\": what}}").is_err());
    }

    const TWO_SIDED: Comparison = Comparison::TwoSided(TOLERANCE_PCT);

    #[test]
    fn small_drift_passes_large_drift_fails() {
        let base = vec![metric("a", 100.0), metric("b", 1000.0)];
        let meas = vec![metric("a", 101.0), metric("b", 1030.0)];
        let (text, failures) = drift_report(&base, &meas, TWO_SIDED);
        assert_eq!(failures, 1, "{text}");
        assert!(text.contains("  ok  a "), "1% is inside the gate");
        assert!(text.contains("FAIL  b "), "3% is a regression");
        // Improvements beyond the band also fail — drift is two-sided.
        let faster = vec![metric("a", 100.0), metric("b", 900.0)];
        let (text, failures) = drift_report(&base, &faster, TWO_SIDED);
        assert_eq!(failures, 1, "{text}");
        assert!(text.contains("FAIL  b "), "-10% must be blessed too");
    }

    #[test]
    fn missing_and_new_metrics_fail() {
        let base = vec![metric("gone", 5.0)];
        let meas = vec![metric("new", 7.0)];
        for comparison in [TWO_SIDED, Comparison::Floor(0.5)] {
            let (text, failures) = drift_report(&base, &meas, comparison);
            assert_eq!(text.lines().count(), 2);
            assert_eq!(failures, 2, "{comparison}: {text}");
        }
    }

    #[test]
    fn drift_report_counts_failures_and_marks_rows() {
        let base = vec![metric("steady", 100.0), metric("gone", 5.0)];
        let meas = vec![metric("steady", 100.5), metric("new", 7.0)];
        let (text, failures) = drift_report(&base, &meas, TWO_SIDED);
        assert_eq!(failures, 2, "one vanished + one new metric");
        assert!(text.contains("  ok  steady"));
        assert!(text.contains("FAIL  gone"));
        assert!(text.contains("FAIL  new"));
    }

    #[test]
    fn collected_metrics_are_deterministic() {
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "two identical runs must measure identical cycles");
        assert_eq!(
            a.len(),
            31,
            "4 metrics per input set + 4 batch lane counts + 3 backend routes"
        );
    }
}
