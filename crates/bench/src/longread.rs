//! Long-read scale-out bench (`report -- longread`): technology-shaped
//! read sets ([`Technology`]) through the [`HeterogeneousBackend`]'s
//! router, with the BiWFA memory claim measured directly.
//!
//! Each technology preset generates a fixed-seed set whose lengths straddle
//! the device envelope, so one batch exercises the whole routing ladder:
//! in-envelope pairs run on the device lanes, everything longer falls to
//! the CPU, where the `Auto` strategy runs the exact engine and hands a
//! pair to linear-memory BiWFA once its retained bytes pass
//! [`EXACT_BYTE_BUDGET`]. The per-technology engine tallies, total scores and
//! `peak_memory_bytes` high-water marks are all deterministic per
//! `(tier, seed)`, so `--check` gates them against
//! `bench/baselines/longread.json` with the same 2%-tolerance machinery as
//! the dse/cosim gates ([`crate::baseline::drift_report`]). Wall-clock aligns/s
//! is printed for orientation but never gated.
//!
//! A separate **memory probe** pits the exact full-history engine against
//! score-only BiWFA on one fixed pair and records both peaks — the
//! measured number behind the `O(s)`-memory claim (quick: 6 kb, full:
//! 50 kb, both at 5% error).
//!
//! Tiers:
//!
//! * **quick** (CI): nominal lengths divided by 5 and the device envelope
//!   shrunk to 2,400 bases — the same device/exact/BiWFA split shape at a
//!   fraction of the work;
//! * **full**: the stock `wfasic_chip()` envelope and true 7.5–45 kb
//!   technology lengths.

use crate::baseline::{self, Metric};
use crate::fmt::render_table;
use crate::gate::RunOptions;
use wfa_core::{wfa_align_seqs, Penalties, WfaOptions, EXACT_BYTE_BUDGET};
use wfasic_accel::AccelConfig;
use wfasic_driver::batch::BatchJob;
use wfasic_driver::{AlignmentBackend, HeterogeneousBackend};
use wfasic_seqio::{PairGenerator, Technology};

/// Schema tag written into every `BENCH_longread.json`; bump on layout
/// changes so stale baselines fail loudly instead of comparing garbage.
pub const SCHEMA: &str = "wfasic-longread/2";

/// Default RNG seed for the generated technology sets.
pub const DEFAULT_SEED: u64 = 0x10E6_4EAD;

/// Device lanes behind the heterogeneous backend.
pub const LANES: usize = 4;

/// One technology preset's batch through the heterogeneous backend.
#[derive(Debug, Clone)]
pub struct TechRow {
    /// The preset.
    pub tech: Technology,
    /// Pairs aligned (all must succeed).
    pub pairs: usize,
    /// Total bases across both sides of every pair.
    pub bases: u64,
    /// Sum of the optimal scores (deterministic; gated).
    pub total_score: u64,
    /// Pairs answered by the device lanes.
    pub device_pairs: u64,
    /// CPU pairs answered by the exact engine.
    pub exact_pairs: u64,
    /// CPU pairs answered by the linear-memory BiWFA engine.
    pub biwfa_pairs: u64,
    /// High-water retained wavefront memory across the CPU pairs (bytes).
    pub peak_memory_bytes: u64,
    /// Simulated device cycles for the batch (0 when every pair was
    /// CPU-routed).
    pub sim_cycles: u64,
    /// Wall-clock milliseconds for the batch (host-dependent; not gated).
    pub wall_ms: f64,
}

/// The exact-vs-BiWFA memory comparison on one fixed pair.
#[derive(Debug, Clone, Copy)]
pub struct MemoryProbe {
    /// Read length in bases.
    pub length: usize,
    /// Error percentage of the generated pair.
    pub error_pct: u32,
    /// The agreed optimal score (both engines must match).
    pub score: u32,
    /// Peak retained wavefront memory of the exact full-history engine.
    pub exact_peak_bytes: u64,
    /// Peak retained wavefront memory of score-only BiWFA.
    pub biwfa_peak_bytes: u64,
}

impl MemoryProbe {
    /// Exact-over-BiWFA peak-memory ratio.
    pub fn reduction(&self) -> f64 {
        self.exact_peak_bytes as f64 / self.biwfa_peak_bytes.max(1) as f64
    }
}

/// The whole bench's outcome.
#[derive(Debug, Clone)]
pub struct LongreadOutcome {
    /// `"quick"` or `"full"`.
    pub tier: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Device envelope (`max_supported_len`) the router saw.
    pub envelope: usize,
    /// One row per [`Technology`], in `Technology::ALL` order.
    pub rows: Vec<TechRow>,
    /// The exact-vs-BiWFA memory comparison.
    pub probe: MemoryProbe,
}

/// Tier knobs: (length divisor, pairs per technology, device envelope,
/// probe length).
fn tier(quick: bool) -> (usize, usize, usize, usize) {
    if quick {
        // Envelope must stay a multiple of the 16-base section size.
        (5, 3, 2_400, 6_000)
    } else {
        (1, 3, AccelConfig::wfasic_chip().max_supported_len, 50_000)
    }
}

fn run_probe(length: usize, seed: u64) -> MemoryProbe {
    let error_pct = 5;
    let pair = PairGenerator::new(length, error_pct as f64 / 100.0, seed ^ 0x9EAC).pair();
    let p = Penalties::WFASIC_DEFAULT;
    let exact = wfa_align_seqs(&pair.a, &pair.b, &WfaOptions::score_only(p))
        .expect("unbounded exact alignment cannot fail");
    let mut bi_opts = WfaOptions::biwfa(p);
    bi_opts.compute_cigar = false;
    let bi =
        wfa_align_seqs(&pair.a, &pair.b, &bi_opts).expect("unbounded BiWFA alignment cannot fail");
    assert_eq!(
        exact.score, bi.score,
        "the memory probe's engines disagree on the optimal score"
    );
    MemoryProbe {
        length,
        error_pct,
        score: exact.score,
        exact_peak_bytes: exact.stats.peak_memory_bytes,
        biwfa_peak_bytes: bi.stats.peak_memory_bytes,
    }
}

/// Run the bench: every technology preset through a fresh heterogeneous
/// backend, plus the memory probe.
pub fn run(opts: &RunOptions) -> LongreadOutcome {
    let seed = opts.seed_or(DEFAULT_SEED);
    let (divisor, per_tech, envelope, probe_len) = tier(opts.quick);
    let mut cfg = AccelConfig::wfasic_chip();
    cfg.max_supported_len = envelope;

    let rows = Technology::ALL
        .iter()
        .enumerate()
        .map(|(i, &tech)| {
            let nominal = tech.nominal_length() / divisor;
            let pairs = tech.pairs_with_nominal(per_tech, seed ^ ((i as u64 + 1) << 32), nominal);
            let bases: u64 = pairs.iter().map(|p| (p.a.len() + p.b.len()) as u64).sum();
            let job = BatchJob::with_backtrace(pairs);

            let mut backend = HeterogeneousBackend::new(cfg, LANES);
            let start = std::time::Instant::now();
            let batch = backend
                .align_batch(&job)
                .expect("the long-read workload must pass on the hetero backend");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(
                batch.results.iter().all(|r| r.success),
                "every {} pair must align",
                tech.name()
            );
            let c = backend.counters();
            let cpu_pairs = c.exact_pairs + c.biwfa_pairs;
            TechRow {
                tech,
                pairs: job.pairs.len(),
                bases,
                total_score: batch.results.iter().map(|r| r.score as u64).sum(),
                device_pairs: job.pairs.len() as u64 - cpu_pairs,
                exact_pairs: c.exact_pairs,
                biwfa_pairs: c.biwfa_pairs,
                peak_memory_bytes: c.peak_memory_bytes,
                sim_cycles: batch.sim_cycles.unwrap_or(0),
                wall_ms,
            }
        })
        .collect();

    LongreadOutcome {
        tier: opts.tier(),
        seed,
        envelope,
        rows,
        probe: run_probe(probe_len, seed),
    }
}

/// The gated metric slice: per-technology routing tallies, total score and
/// memory high-water mark, plus the probe peaks. Everything here is
/// deterministic per `(tier, seed)`; wall clock never appears.
pub fn metrics(outcome: &LongreadOutcome) -> Vec<Metric> {
    let mut m = Vec::new();
    for r in &outcome.rows {
        let t = r.tech.name();
        let mut push = |what: &str, value: f64| {
            m.push(Metric {
                name: format!("longread/{t}/{what}"),
                value,
            });
        };
        push("pairs", r.pairs as f64);
        push("bases", r.bases as f64);
        push("total_score", r.total_score as f64);
        push("device_pairs", r.device_pairs as f64);
        push("exact_pairs", r.exact_pairs as f64);
        push("biwfa_pairs", r.biwfa_pairs as f64);
        push("peak_memory_bytes", r.peak_memory_bytes as f64);
        // Zero-valued cycle counts would divide by zero in the drift
        // report; presence is still deterministic per (tier, seed).
        if r.sim_cycles > 0 {
            push("sim_cycles", r.sim_cycles as f64);
        }
    }
    m.push(Metric {
        name: "longread/probe/exact_peak_bytes".into(),
        value: outcome.probe.exact_peak_bytes as f64,
    });
    m.push(Metric {
        name: "longread/probe/biwfa_peak_bytes".into(),
        value: outcome.probe.biwfa_peak_bytes as f64,
    });
    m
}

/// The `report -- longread` table.
pub fn longread_report(outcome: &LongreadOutcome) -> String {
    let table: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| {
            vec![
                r.tech.name().to_string(),
                r.pairs.to_string(),
                r.bases.to_string(),
                r.device_pairs.to_string(),
                r.exact_pairs.to_string(),
                r.biwfa_pairs.to_string(),
                r.peak_memory_bytes.to_string(),
                if r.sim_cycles > 0 {
                    r.sim_cycles.to_string()
                } else {
                    "-".to_string()
                },
                format!("{:.1}", r.wall_ms),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Long-read scale-out ({} tier: envelope {} b, exact byte budget {} B, BT on)",
            outcome.tier, outcome.envelope, EXACT_BYTE_BUDGET
        ),
        &[
            "technology",
            "pairs",
            "bases",
            "device",
            "exact",
            "biwfa",
            "peak mem B",
            "sim cycles",
            "wall ms",
        ],
        &table,
    );
    let p = &outcome.probe;
    out.push_str(&format!(
        "\nmemory probe ({} b at {}%, score {}): exact {} B vs BiWFA {} B \
         ({:.0}x less); wall ms is host clock (not gated)\n",
        p.length,
        p.error_pct,
        p.score,
        p.exact_peak_bytes,
        p.biwfa_peak_bytes,
        p.reduction()
    ));
    out
}

/// Render the schema-versioned JSON record (hand-rolled — the workspace
/// builds offline with no serde). The trailing `"metrics"` object is the
/// exact document [`crate::baseline::parse_json`] reads back for `--check`.
pub fn render_json(outcome: &LongreadOutcome) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"tier\": \"{}\",\n", outcome.tier));
    s.push_str(&format!("  \"seed\": {},\n", outcome.seed));
    s.push_str(&format!(
        "  \"router\": {{\"envelope\": {}, \"exact_byte_budget\": {}, \"lanes\": {}}},\n",
        outcome.envelope, EXACT_BYTE_BUDGET, LANES
    ));
    s.push_str("  \"technologies\": [\n");
    for (i, r) in outcome.rows.iter().enumerate() {
        let comma = if i + 1 < outcome.rows.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"pairs\": {}, \"bases\": {}, \
             \"total_score\": {}, \"device_pairs\": {}, \"exact_pairs\": {}, \
             \"biwfa_pairs\": {}, \"peak_memory_bytes\": {}, \
             \"sim_cycles\": {}, \"wall_ms\": {:.3}}}{}\n",
            r.tech.name(),
            r.pairs,
            r.bases,
            r.total_score,
            r.device_pairs,
            r.exact_pairs,
            r.biwfa_pairs,
            r.peak_memory_bytes,
            r.sim_cycles,
            r.wall_ms,
            comma
        ));
    }
    s.push_str("  ],\n");
    let p = &outcome.probe;
    s.push_str(&format!(
        "  \"memory_probe\": {{\"length\": {}, \"error_pct\": {}, \"score\": {}, \
         \"exact_peak_bytes\": {}, \"biwfa_peak_bytes\": {}, \"reduction_x\": {:.1}}},\n",
        p.length,
        p.error_pct,
        p.score,
        p.exact_peak_bytes,
        p.biwfa_peak_bytes,
        p.reduction()
    ));
    baseline::push_metrics(&mut s, &metrics(outcome));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> LongreadOutcome {
        run(&RunOptions::quick())
    }

    #[test]
    fn quick_tier_exercises_the_whole_routing_ladder() {
        let o = quick();
        assert_eq!(o.rows.len(), Technology::ALL.len());
        // The point of the bench: at least one pair lands on each side of
        // the envelope, and the CPU pairs past the byte budget run BiWFA.
        let biwfa: u64 = o.rows.iter().map(|r| r.biwfa_pairs).sum();
        let exact: u64 = o.rows.iter().map(|r| r.exact_pairs).sum();
        let device: u64 = o.rows.iter().map(|r| r.device_pairs).sum();
        assert!(biwfa > 0, "no pair reached the BiWFA engine");
        assert!(exact > 0, "no CPU pair stayed on the exact engine");
        assert!(device > 0, "no pair stayed on the device lanes");
        for r in &o.rows {
            assert_eq!(
                r.device_pairs + r.exact_pairs + r.biwfa_pairs,
                r.pairs as u64,
                "{}: routing tallies must cover every pair",
                r.tech.name()
            );
        }
        // The memory claim holds on the probe.
        assert!(o.probe.exact_peak_bytes >= 20 * o.probe.biwfa_peak_bytes);
    }

    #[test]
    fn metrics_are_deterministic_and_round_trip_through_json() {
        let a = quick();
        let b = quick();
        let ma = metrics(&a);
        assert_eq!(ma, metrics(&b), "gated metrics must be deterministic");
        assert!(ma.iter().all(|m| m.name.starts_with("longread/")));
        let parsed = baseline::parse_json(&render_json(&a)).expect("record parses");
        assert_eq!(parsed, ma);
        let report = longread_report(&a);
        for t in Technology::ALL {
            assert!(report.contains(t.name()));
        }
    }
}
