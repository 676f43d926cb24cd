//! Design-space exploration engine (`report -- dse`): the paper's §5.4
//! lanes × sections × banking × bus × clock study, industrialized into a
//! seeded, thread-pool-parallel sweep with a CI-gated Pareto frontier.
//!
//! Every grid point runs one fixed, seeded workload through the simulated
//! multi-lane SoC ([`MultiLaneBackend::submit_batch`]), joins the cycle
//! results with the analytical area/power model
//! ([`wfasic_accel::area::soc_area_report`]), and scores three objectives:
//!
//! * **GCUPS/mm²** (maximize) — area efficiency at the point's clock;
//! * **GCUPS/W** (maximize) — energy efficiency under the DVFS cube law
//!   ([`AreaReport::power_at`](wfasic_accel::area::AreaReport::power_at));
//! * **batch cycles** (minimize) — completion latency for the fixed
//!   workload, arbitration waits included.
//!
//! The non-dominated set over those objectives is the frontier, emitted as
//! a rendered table ([`crate::report::dse_report`]) and a schema-versioned
//! JSON record ([`render_json`], default `BENCH_dse.json`). The record
//! embeds a flat `"metrics"` map (per-point `sim_cycles`/`area_mm2`,
//! frontier membership, frontier size) in the same format as the cycle
//! baseline, so `report -- dse --check` reuses [`crate::baseline`]'s
//! two-sided comparison — 2% tolerance, missing or new metrics always
//! fail — against the committed `bench/baselines/dse.json`.
//!
//! Determinism contract: output is byte-identical per `(tier, seed)` and
//! invariant to `--threads` — the sweep fans out over the deterministic
//! [`ThreadPool`], simulated cycles never depend on the host, and the
//! derived floats are fixed-precision formatted. Only the clock axis is
//! pure arithmetic: points sharing `(lanes, sections, banking, bus)` reuse
//! one simulation.

use crate::baseline::{self, Metric};
use crate::gate::RunOptions;
use wfa_core::pool::ThreadPool;
use wfasic_accel::area::soc_area_report;
use wfasic_accel::AccelConfig;
use wfasic_driver::{BatchJob, MultiLaneBackend};
use wfasic_seqio::InputSetSpec;
use wfasic_soc::bus::BusConfig;

/// Schema tag written into every `BENCH_dse.json`; bump on layout changes
/// so stale baselines fail loudly instead of comparing garbage.
pub const SCHEMA: &str = "wfasic-dse/1";

/// Default RNG seed for the sweep workload.
pub const DEFAULT_SEED: u64 = 0xD5E0_5EED;

/// The wavefront-RAM banking axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Banking {
    /// The chip's layout: M-window edge banks duplicated (RAM 1'/RAM N').
    Duplicated,
    /// Edge banks folded into the regular banks: two fewer macros per
    /// Aligner, one extra cycle per compute batch.
    Folded,
}

impl Banking {
    /// Stable short name used in point names and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Banking::Duplicated => "dup",
            Banking::Folded => "fold",
        }
    }
}

/// A named bus latency/bandwidth profile.
#[derive(Debug, Clone, Copy)]
pub struct BusProfile {
    /// Stable short name used in point names and JSON.
    pub name: &'static str,
    /// The AXI-Full timing it selects.
    pub cfg: BusConfig,
}

/// The bus axis: the calibrated default port, a low-latency controller,
/// and a double-width port.
pub const BUS_PROFILES: [BusProfile; 3] = [
    BusProfile {
        name: "default",
        cfg: BusConfig::WFASIC_DEFAULT,
    },
    BusProfile {
        name: "lowlat",
        cfg: BusConfig::LOW_LATENCY,
    },
    BusProfile {
        name: "wide",
        cfg: BusConfig::WIDE,
    },
];

/// One simulated grid point (everything that affects cycle counts; the
/// clock axis is applied afterwards as pure arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPoint {
    /// WFAsic lanes on the SoC (1–8).
    pub lanes: usize,
    /// Parallel sections per Aligner (16/32/64).
    pub parallel_sections: usize,
    /// Wavefront-RAM banking variant.
    pub banking: Banking,
    /// Index into [`BUS_PROFILES`].
    pub bus: usize,
}

impl SimPoint {
    /// The accelerator configuration this point simulates.
    pub fn config(&self) -> AccelConfig {
        let mut cfg = AccelConfig::wfasic_chip()
            .with_parallel_sections(self.parallel_sections)
            .with_bus(BUS_PROFILES[self.bus].cfg);
        if self.banking == Banking::Folded {
            cfg = cfg.with_folded_edge_banks();
        }
        cfg
    }
}

/// One fully-derived design point: a [`SimPoint`] at one clock, with its
/// measured cycles and modeled area/power/efficiency.
#[derive(Debug, Clone)]
pub struct DseRow {
    /// The simulated part of the point.
    pub sim: SimPoint,
    /// Clock frequency in GHz (the DVFS axis).
    pub clock_ghz: f64,
    /// Batch completion cycles for the fixed workload (the slowest lane).
    pub sim_cycles: u64,
    /// Cycles lanes spent waiting on shared-port arbitration.
    pub arb_wait: u64,
    /// Alignments completed (identical at every point, by construction).
    pub alignments: usize,
    /// Whole-SoC area (lanes × instance), mm².
    pub area_mm2: f64,
    /// Whole-SoC power at this clock, W.
    pub power_w: f64,
    /// Workload GCUPS at this clock.
    pub gcups: f64,
    /// GCUPS per mm² (maximize).
    pub gcups_per_mm2: f64,
    /// GCUPS per W (maximize).
    pub gcups_per_w: f64,
    /// Is this point on the Pareto frontier?
    pub frontier: bool,
}

impl DseRow {
    /// Stable point name, e.g. `l4-ps64-dup-default-1.1GHz`.
    pub fn name(&self) -> String {
        format!(
            "l{}-ps{}-{}-{}-{:.1}GHz",
            self.sim.lanes,
            self.sim.parallel_sections,
            self.sim.banking.name(),
            BUS_PROFILES[self.sim.bus].name,
            self.clock_ghz
        )
    }
}

/// The whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// `"quick"` or `"full"`.
    pub tier: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Every design point, in grid order, frontier-marked.
    pub rows: Vec<DseRow>,
    /// Jobs in the fixed workload.
    pub jobs: usize,
    /// Pairs in the fixed workload.
    pub pairs: usize,
    /// Equivalent SWG DP cells in the workload (the CUPS numerator).
    pub cells: u64,
}

impl DseOutcome {
    /// Indices of the frontier rows, in grid order.
    pub fn frontier(&self) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&i| self.rows[i].frontier)
            .collect()
    }
}

/// The sim grid: quick keeps CI cheap (one bus, one clock downstream, lanes
/// to 4) while still crossing lanes × sections × banking; full crosses
/// everything the issue's §5.4 sweep names, lanes to 8.
fn sim_grid(quick: bool) -> Vec<SimPoint> {
    let lanes: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let buses: &[usize] = if quick { &[0] } else { &[0, 1, 2] };
    let mut grid = Vec::new();
    for &l in lanes {
        for &ps in &[16usize, 32, 64] {
            for banking in [Banking::Duplicated, Banking::Folded] {
                for &bus in buses {
                    grid.push(SimPoint {
                        lanes: l,
                        parallel_sections: ps,
                        banking,
                        bus,
                    });
                }
            }
        }
    }
    grid
}

/// The clock axis in GHz (pure arithmetic — applied to each sim result).
fn clock_grid(quick: bool) -> &'static [f64] {
    if quick {
        &[1.1]
    } else {
        &[0.9, 1.1, 1.3]
    }
}

/// The fixed workload: short-read jobs (plus a long-read tail in the full
/// tier), seeded per job so every sweep point sees identical pairs.
fn workload(quick: bool, seed: u64) -> Vec<BatchJob> {
    let short = InputSetSpec {
        length: 100,
        error_pct: 10,
    };
    let (short_jobs, short_pairs) = if quick { (6, 4) } else { (12, 6) };
    let mut jobs: Vec<BatchJob> = (0..short_jobs as u64)
        .map(|j| BatchJob::score_only(short.generate(short_pairs, seed ^ (j << 8)).pairs))
        .collect();
    if !quick {
        let long = InputSetSpec {
            length: 1_000,
            error_pct: 5,
        };
        for j in 0..4u64 {
            jobs.push(BatchJob::score_only(
                long.generate(2, seed ^ 0x10D5 ^ (j << 24)).pairs,
            ));
        }
    }
    jobs
}

/// Does `a` Pareto-dominate `b`? At least as good on all three objectives
/// and strictly better on one. Identical objective vectors dominate in
/// neither direction, so duplicates coexist on the frontier.
pub fn dominates(a: &DseRow, b: &DseRow) -> bool {
    let ge = a.gcups_per_mm2 >= b.gcups_per_mm2
        && a.gcups_per_w >= b.gcups_per_w
        && a.sim_cycles <= b.sim_cycles;
    let strict = a.gcups_per_mm2 > b.gcups_per_mm2
        || a.gcups_per_w > b.gcups_per_w
        || a.sim_cycles < b.sim_cycles;
    ge && strict
}

/// Mark every non-dominated row as frontier. Dominance is a strict partial
/// order, so every dominated point is (transitively) dominated by some
/// frontier point — the property tests pin both directions down.
pub fn mark_frontier(rows: &mut [DseRow]) {
    for i in 0..rows.len() {
        rows[i].frontier = (0..rows.len()).all(|j| j == i || !dominates(&rows[j], &rows[i]));
    }
}

/// Run the sweep: simulate the grid in parallel, expand over the clock
/// axis, join with the area model, and mark the frontier.
pub fn sweep(opts: &RunOptions) -> DseOutcome {
    let seed = opts.seed_or(DEFAULT_SEED);
    let grid = sim_grid(opts.quick);
    let jobs = workload(opts.quick, seed);
    let pairs: usize = jobs.iter().map(|j| j.pairs.len()).sum();
    let cells: u64 = jobs
        .iter()
        .flat_map(|j| j.pairs.iter())
        .map(|p| p.a.len() as u64 * p.b.len() as u64)
        .sum();

    // (total_cycles, arb_wait, alignments) per sim point, in grid order.
    let sims = ThreadPool::new(opts.threads()).map(&grid, |_, point| {
        let batch = MultiLaneBackend::new(point.config(), point.lanes).submit_batch(&jobs);
        assert!(
            batch.jobs.iter().all(|j| j.is_ok()),
            "the fault-free sweep workload must pass at {point:?}"
        );
        (
            batch.total_cycles,
            batch.arbiter.wait_cycles(),
            batch.alignments(),
        )
    });

    let mut rows = Vec::with_capacity(grid.len() * clock_grid(opts.quick).len());
    for (point, &(sim_cycles, arb_wait, alignments)) in grid.iter().zip(&sims) {
        let area = soc_area_report(&point.config(), point.lanes);
        for &clock_ghz in clock_grid(opts.quick) {
            let hz = clock_ghz * 1e9;
            let power_w = area.power_at(hz);
            let gcups = cells as f64 * clock_ghz / sim_cycles as f64;
            rows.push(DseRow {
                sim: *point,
                clock_ghz,
                sim_cycles,
                arb_wait,
                alignments,
                area_mm2: area.area_mm2,
                power_w,
                gcups,
                gcups_per_mm2: gcups / area.area_mm2,
                gcups_per_w: gcups / power_w,
                frontier: false,
            });
        }
    }
    mark_frontier(&mut rows);

    DseOutcome {
        tier: opts.tier(),
        seed,
        rows,
        jobs: jobs.len(),
        pairs,
        cells,
    }
}

/// The gated metric slice: per-point batch cycles and SoC area, frontier
/// membership, and the frontier/point counts. Fed through
/// [`crate::baseline::drift_report`], so a vanished or newly-appeared point (or
/// a membership flip) fails the gate exactly like a cycle drift.
pub fn metrics(outcome: &DseOutcome) -> Vec<Metric> {
    let mut m = vec![
        Metric {
            name: "dse/points".into(),
            value: outcome.rows.len() as f64,
        },
        Metric {
            name: "dse/frontier/size".into(),
            value: outcome.frontier().len() as f64,
        },
    ];
    for row in &outcome.rows {
        m.push(Metric {
            name: format!("dse/{}/sim_cycles", row.name()),
            value: row.sim_cycles as f64,
        });
        m.push(Metric {
            name: format!("dse/{}/area_mm2", row.name()),
            value: (row.area_mm2 * 1e4).round() / 1e4,
        });
    }
    for row in outcome.rows.iter().filter(|r| r.frontier) {
        m.push(Metric {
            name: format!("dse/frontier/{}", row.name()),
            value: 1.0,
        });
    }
    m
}

/// Render the schema-versioned JSON record (hand-rolled — the workspace
/// builds offline with no serde). The trailing `"metrics"` object is the
/// exact document [`crate::baseline::parse_json`] reads back for `--check`.
pub fn render_json(outcome: &DseOutcome) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str(&format!("  \"tier\": \"{}\",\n", outcome.tier));
    s.push_str(&format!("  \"seed\": {},\n", outcome.seed));
    s.push_str(&format!(
        "  \"workload\": {{\"jobs\": {}, \"pairs\": {}, \"equivalent_cells\": {}}},\n",
        outcome.jobs, outcome.pairs, outcome.cells
    ));
    s.push_str(
        "  \"objectives\": [\"max gcups_per_mm2\", \"max gcups_per_w\", \"min sim_cycles\"],\n",
    );
    s.push_str("  \"points\": [\n");
    for (i, r) in outcome.rows.iter().enumerate() {
        let comma = if i + 1 < outcome.rows.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"lanes\": {}, \"parallel_sections\": {}, \
             \"banking\": \"{}\", \"bus\": \"{}\", \"clock_ghz\": {:.1}, \
             \"sim_cycles\": {}, \"arb_wait_cycles\": {}, \"alignments\": {}, \
             \"area_mm2\": {:.4}, \"power_w\": {:.4}, \"gcups\": {:.4}, \
             \"gcups_per_mm2\": {:.4}, \"gcups_per_w\": {:.4}, \"frontier\": {}}}{}\n",
            r.name(),
            r.sim.lanes,
            r.sim.parallel_sections,
            r.sim.banking.name(),
            BUS_PROFILES[r.sim.bus].name,
            r.clock_ghz,
            r.sim_cycles,
            r.arb_wait,
            r.alignments,
            r.area_mm2,
            r.power_w,
            r.gcups,
            r.gcups_per_mm2,
            r.gcups_per_w,
            r.frontier,
            comma
        ));
    }
    s.push_str("  ],\n");
    let frontier: Vec<String> = outcome
        .rows
        .iter()
        .filter(|r| r.frontier)
        .map(|r| format!("\"{}\"", r.name()))
        .collect();
    s.push_str(&format!("  \"frontier\": [{}],\n", frontier.join(", ")));
    baseline::push_metrics(&mut s, &metrics(outcome));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{drift_report, Comparison, TOLERANCE_PCT};

    const TWO_SIDED: Comparison = Comparison::TwoSided(TOLERANCE_PCT);

    fn quick_opts(threads: usize) -> RunOptions {
        RunOptions {
            threads: Some(threads),
            ..RunOptions::quick()
        }
    }

    /// A synthetic row for frontier-only tests.
    fn row(mm2: f64, w: f64, cycles: u64) -> DseRow {
        DseRow {
            sim: SimPoint {
                lanes: 1,
                parallel_sections: 64,
                banking: Banking::Duplicated,
                bus: 0,
            },
            clock_ghz: 1.1,
            sim_cycles: cycles,
            arb_wait: 0,
            alignments: 1,
            area_mm2: 1.0,
            power_w: 1.0,
            gcups: 1.0,
            gcups_per_mm2: mm2,
            gcups_per_w: w,
            frontier: false,
        }
    }

    #[test]
    fn dominance_is_strict_and_directional() {
        let a = row(2.0, 2.0, 100);
        let b = row(1.0, 1.0, 200);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        // Equal vectors dominate in neither direction.
        assert!(!dominates(&a, &a.clone()));
        // A trade (better mm2, worse cycles) dominates in neither direction.
        let c = row(3.0, 2.0, 150);
        assert!(!dominates(&a, &c));
        assert!(!dominates(&c, &a));
    }

    #[test]
    fn frontier_is_dominance_correct_on_random_clouds() {
        // Property (ISSUE 7): the extracted frontier contains no dominated
        // point, and every non-frontier point is dominated by at least one
        // frontier point. Small integer grids force ties and duplicates.
        wfa_core::prop::cases(300, 0xF007, |rng, _| {
            let n = 1 + rng.gen_range(0, 40);
            let mut rows: Vec<DseRow> = (0..n)
                .map(|_| {
                    row(
                        rng.gen_range(0, 6) as f64,
                        rng.gen_range(0, 6) as f64,
                        100 + rng.gen_range(0, 6) as u64,
                    )
                })
                .collect();
            mark_frontier(&mut rows);
            assert!(rows.iter().any(|r| r.frontier), "frontier never empty");
            for (i, r) in rows.iter().enumerate() {
                let dominated_by_frontier = rows
                    .iter()
                    .enumerate()
                    .any(|(j, f)| j != i && f.frontier && dominates(f, r));
                if r.frontier {
                    let dominated = rows
                        .iter()
                        .enumerate()
                        .any(|(j, o)| j != i && dominates(o, r));
                    assert!(!dominated, "frontier point {i} is dominated");
                } else {
                    assert!(
                        dominated_by_frontier,
                        "non-frontier point {i} escapes the frontier"
                    );
                }
            }
        });
    }

    #[test]
    fn quick_sweep_is_byte_identical_across_thread_widths() {
        // Determinism (ISSUE 7): same seed, widths 1/2/8 — identical bytes.
        let base = render_json(&sweep(&quick_opts(1)));
        for threads in [2usize, 8] {
            let got = render_json(&sweep(&quick_opts(threads)));
            assert_eq!(got, base, "dse output drifted at width {threads}");
        }
        // And a second width-1 run reproduces exactly.
        assert_eq!(render_json(&sweep(&quick_opts(1))), base);
    }

    #[test]
    fn quick_sweep_shape_and_schema() {
        let outcome = sweep(&quick_opts(2));
        assert_eq!(outcome.tier, "quick");
        assert_eq!(outcome.rows.len(), 18, "3 lanes x 3 PS x 2 banking");
        assert!(outcome.rows.iter().all(|r| r.alignments == outcome.pairs));
        assert!(!outcome.frontier().is_empty());
        let json = render_json(&outcome);
        assert!(json.starts_with("{\n  \"schema\": \"wfasic-dse/1\""));
        // More lanes at the same config never lose cycles.
        let cycles_for = |lanes: usize| {
            outcome
                .rows
                .iter()
                .find(|r| {
                    r.sim.lanes == lanes
                        && r.sim.parallel_sections == 64
                        && r.sim.banking == Banking::Duplicated
                })
                .unwrap()
                .sim_cycles
        };
        assert!(cycles_for(4) <= cycles_for(2));
        assert!(cycles_for(2) <= cycles_for(1));
    }

    #[test]
    fn json_metrics_round_trip_through_the_baseline_parser() {
        let outcome = sweep(&quick_opts(1));
        let parsed = crate::baseline::parse_json(&render_json(&outcome)).unwrap();
        assert_eq!(parsed, metrics(&outcome));
        // And a clean self-comparison has zero failures.
        assert_eq!(drift_report(&parsed, &metrics(&outcome), TWO_SIDED).1, 0);
    }

    #[test]
    fn drift_and_membership_changes_fail_the_gate() {
        let outcome = sweep(&quick_opts(1));
        let base = metrics(&outcome);
        // 5% cycle drift on one point fails.
        let mut drifted = base.clone();
        let idx = drifted
            .iter()
            .position(|m| m.name.ends_with("/sim_cycles"))
            .unwrap();
        drifted[idx].value *= 1.05;
        assert_eq!(drift_report(&base, &drifted, TWO_SIDED).1, 1);
        // A frontier-membership flip shows up as missing + new metrics.
        let mut flipped = base.clone();
        let f = flipped
            .iter()
            .position(|m| m.name.starts_with("dse/frontier/l"))
            .unwrap();
        flipped[f].name = "dse/frontier/l9-ps96-dup-default-9.9GHz".into();
        assert_eq!(
            drift_report(&base, &flipped, TWO_SIDED).1,
            2,
            "one vanished + one new membership metric"
        );
    }

    #[test]
    fn folded_banking_trades_cycles_for_area_in_the_sweep() {
        let outcome = sweep(&quick_opts(2));
        let find = |banking: Banking| {
            outcome
                .rows
                .iter()
                .find(|r| {
                    r.sim.lanes == 1 && r.sim.parallel_sections == 64 && r.sim.banking == banking
                })
                .unwrap()
        };
        let dup = find(Banking::Duplicated);
        let fold = find(Banking::Folded);
        assert!(fold.sim_cycles > dup.sim_cycles, "folding costs cycles");
        assert!(fold.area_mm2 < dup.area_mm2, "folding saves area");
    }
}
