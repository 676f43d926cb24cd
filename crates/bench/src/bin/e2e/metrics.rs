//! Metric names and units, the summary statistics behind them, and the
//! one-line JSON result the benchmark ends with.
//!
//! The two tables are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists the same names (a unit test keeps them equal).

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("aligns_per_s", "pairs/s"),
    ("job_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A metric whose layer
/// the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.job_ms_p99", "ms"),
    ("service.jobs", "count"),
    ("service.self_us", "us"),
    ("service.setup_s", "s"),
    ("backend.self_us", "us"),
    ("accel.run_ms", "ms"),
    ("accel.host_ns_per_sim_cycle", "ns/cycle"),
    ("accel.sim_cycles", "cycles"),
    ("accel.sim.compute_cycles", "cycles"),
    ("accel.sim.extend_cycles", "cycles"),
    ("accel.sim.score_loop_cycles", "cycles"),
    ("accel.sim.extract_cycles", "cycles"),
    ("accel.sim.ctrl_cycles", "cycles"),
    ("accel.sim.dma_out_cycles", "cycles"),
    ("accel.sim.dma_in_cycles", "cycles"),
    ("accel.sim.bus_wait_cycles", "cycles"),
    ("accel.sim.fifo_stall_cycles", "cycles"),
    ("accel.sim.idle_cycles", "cycles"),
    ("accel.device_success_frac", "ratio"),
    ("accel.sim_gcups", "GCUPS"),
    ("seqio.encode_us", "us"),
    ("driver.bt_split_us", "us"),
    ("driver.bt_walk_us", "us"),
    ("driver.cigar_us", "us"),
    ("driver.bt_bytes", "bytes"),
    ("driver.edits", "count"),
    ("core.exact_us_per_pair", "us"),
    ("core.exact_pairs", "count"),
    ("core.biwfa_ms_per_pair", "ms"),
    ("core.biwfa_pairs", "count"),
    ("core.peak_wavefront_bytes", "bytes"),
    ("core.cells_computed", "count"),
    ("core.bases_compared", "count"),
    ("core.extend_calls", "count"),
    ("core.bases_per_extend_call", "bases"),
    ("hetero.device_ms", "ms"),
    ("hetero.cpu_ms", "ms"),
    ("hetero.cpu_critical_frac", "ratio"),
    ("hetero.parallel_efficiency", "ratio"),
    ("hetero.device_pairs", "count"),
    ("hetero.cpu_pairs", "count"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The `accel.sim.*` names in `wfasic_soc::perf::Stage::ALL` order.
pub const STAGE_METRICS: [&str; 10] = [
    "accel.sim.compute_cycles",
    "accel.sim.extend_cycles",
    "accel.sim.score_loop_cycles",
    "accel.sim.extract_cycles",
    "accel.sim.ctrl_cycles",
    "accel.sim.dma_out_cycles",
    "accel.sim.dma_in_cycles",
    "accel.sim.bus_wait_cycles",
    "accel.sim.fifo_stall_cycles",
    "accel.sim.idle_cycles",
];

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects exactly the metrics of one table: setting an unlisted name or
/// finishing with a listed one unset is a bug in the benchmark.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Record `name`. A non-finite value (a ratio over nothing) reads 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = Some(if value.is_finite() { value } else { 0.0 });
    }

    pub fn finish(self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| Metric {
                name,
                unit,
                value: v.unwrap_or_else(|| panic!("metric {name} was never set")),
            })
            .collect()
    }
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile; 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A `/proc/self/status` field in kB, as MiB; 0 where it does not exist.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix(field)?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// This process's peak resident set (`VmHWM`) since the last
/// `reset_peak_rss`, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Lower the peak resident set to the current one (writing 5 to
/// `/proc/self/clear_refs`) and return that, in MiB. Where the kernel
/// refuses, the peak keeps counting from the process start.
pub fn reset_peak_rss() -> f64 {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("peak_rss_mb counts from the process start: clear_refs: {e}");
    }
    status_mb("VmRSS:")
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value (all digits) and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
