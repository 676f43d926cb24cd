//! Formatted experiment reports: measured numbers side by side with the
//! paper's, one function per table/figure.

use crate::experiments::{self, Sizes};
use crate::fmt::{f, render_table};
use crate::paper;
use wfasic_accel::{area_report, AccelConfig};

/// Table 1: alignment/reading cycles and Eq. 7 MaxAligners.
pub fn table1_report(sizes: &Sizes) -> String {
    let rows = experiments::table1(sizes);
    let body: Vec<Vec<String>> = rows
        .iter()
        .zip(paper::TABLE1.iter())
        .map(|(m, p)| {
            vec![
                m.set.clone(),
                f(m.alignment_cycles),
                p.alignment_cycles.to_string(),
                m.reading_cycles.to_string(),
                p.reading_cycles.to_string(),
                m.max_aligners.to_string(),
                p.max_aligners.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 1: cycles per pair and max efficient Aligners (measured vs paper)",
        &[
            "input",
            "align(meas)",
            "align(paper)",
            "read(meas)",
            "read(paper)",
            "maxAlign(meas)",
            "maxAlign(paper)",
        ],
        &body,
    )
}

/// Fig. 9: speedups over the CPU scalar code.
pub fn fig9_report(sizes: &Sizes) -> String {
    let rows = experiments::fig9(sizes);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.set.clone(),
                f(r.nbt_speedup),
                f(r.bt_speedup),
                f(r.vector_speedup),
            ]
        })
        .collect();
    let mut s = render_table(
        "Fig. 9: WFAsic speedup over CPU scalar (measured)",
        &["input", "no-BT", "with-BT", "CPU-vector"],
        &body,
    );
    s.push_str(&format!(
        "paper ranges: no-BT {}x..{}x, with-BT {}x..{}x (min at 100-5%, max at 10K-10%)\n",
        paper::fig9::NBT_MIN,
        paper::fig9::NBT_MAX,
        paper::fig9::BT_MIN,
        paper::fig9::BT_MAX
    ));
    s
}

/// Fig. 10: scalability with the number of Aligners.
pub fn fig10_report(sizes: &Sizes) -> String {
    let rows = experiments::fig10(sizes);
    let mut header: Vec<String> = vec!["input".into()];
    header.extend((1..=10).map(|n| format!("{n}A")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.set.clone()];
            row.extend(r.speedups.iter().map(|&v| f(v)));
            row
        })
        .collect();
    let mut s = render_table(
        "Fig. 10: speedup vs one Aligner (measured, BT off)",
        &header_refs,
        &body,
    );
    s.push_str(&format!(
        "paper at 10 Aligners: 10K-10% {}x, 10K-5% {}x; short reads saturate per Eq. 7\n",
        paper::fig10::SPEEDUP_10K_10,
        paper::fig10::SPEEDUP_10K_5
    ));
    s
}

/// Fig. 11: configuration comparison with backtrace enabled.
pub fn fig11_report(sizes: &Sizes) -> String {
    let rows = experiments::fig11(sizes);
    let body: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                r.set.clone(),
                "1.00".to_string(),
                f(r.sep_2x32),
                f(paper::fig11::SEP_2X32[i]),
                f(r.nosep_1x64),
                f(paper::fig11::NOSEP_1X64[i]),
            ]
        })
        .collect();
    render_table(
        "Fig. 11: speedup over 1x64PS [Sep] (measured vs paper)",
        &[
            "input",
            "1x64 Sep",
            "2x32 Sep(meas)",
            "2x32 Sep(paper)",
            "1x64 NoSep(meas)",
            "1x64 NoSep(paper)",
        ],
        &body,
    )
}

/// Table 2: GCUPS / area comparison.
pub fn table2_report(sizes: &Sizes) -> String {
    let rows = experiments::table2(sizes);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                f(r.gcups),
                f(r.area_mm2),
                f(r.gcups / r.area_mm2),
                if r.measured { "measured" } else { "paper" }.into(),
            ]
        })
        .collect();
    let mut s = render_table(
        "Table 2: GCUPS and area, 10Kbp reads",
        &["platform", "GCUPS", "area mm2", "GCUPS/mm2", "source"],
        &body,
    );
    s.push_str(&format!(
        "paper WFAsic rows: {} GCUPS (BT) / {} GCUPS (no BT) at {} mm2\n",
        paper::table2_wfasic::GCUPS_BT,
        paper::table2_wfasic::GCUPS_NBT,
        paper::table2_wfasic::AREA_MM2
    ));
    s
}

/// Fig. 8: the area/memory budget report.
pub fn fig8_report() -> String {
    let cfg = AccelConfig::wfasic_chip();
    let r = area_report(&cfg);
    let b = r.breakdown;
    let total = r.memory_bytes as f64;
    let row = |name: &str, bytes: usize| {
        vec![
            name.to_string(),
            bytes.to_string(),
            format!("{:.1}%", bytes as f64 / total * 100.0),
        ]
    };
    let mut s = render_table(
        "Fig. 8: WFAsic physical budget (analytical model, GF22FDX anchors)",
        &["memory structure", "bytes", "share"],
        &[
            row("Input_Seq RAMs (2 x 64 replicas)", b.input_seq),
            row("Wavefront M banks (64 + 2 dup)", b.wavefront_m),
            row("Wavefront I/D banks (merged, 64)", b.wavefront_id),
            row("Input/Output FIFOs (2 x 256 x 16B)", b.fifos),
        ],
    );
    s.push_str(&format!(
        "memory macros: {} (paper: 260)   on-chip memory: {:.3} MB (paper: 0.48 MB)\n",
        r.memory_macros,
        r.memory_bytes as f64 / (1024.0 * 1024.0)
    ));
    s.push_str(&format!(
        "area: {:.2} mm2 (paper: 1.6)   frequency: {:.1} GHz (paper: 1.1)   power: {:.0} mW (paper: 312)\n",
        r.area_mm2,
        r.freq_hz / 1e9,
        r.power_w * 1000.0
    ));
    s
}

/// Ablation study: design-knob sensitivity on the 1K-10% workload.
pub fn ablation_report(sizes: &crate::experiments::Sizes) -> String {
    let rows = crate::experiments::ablation(sizes);
    let base = rows[0].align_cycles;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.knob.clone(),
                f(r.align_cycles),
                format!("{:+.1}%", (r.align_cycles / base - 1.0) * 100.0),
                r.read_cycles.to_string(),
                r.max_aligners.to_string(),
                f(r.area_mm2),
            ]
        })
        .collect();
    render_table(
        "Ablation: design-knob sensitivity (1K-10%, BT off)",
        &[
            "knob",
            "align cyc",
            "vs base",
            "read cyc",
            "maxAlign",
            "area mm2",
        ],
        &body,
    )
}

/// Per-stage cycle attribution: where every cycle of each input set's job
/// went (the `mhpmcounter`-style breakdown; columns sum to the total).
pub fn perf_report(sizes: &Sizes) -> String {
    use wfasic_soc::perf::Stage;
    let rows = experiments::perf_breakdown(sizes);
    let mut header: Vec<&str> = vec!["input"];
    header.extend(Stage::ALL.iter().map(|s| s.name()));
    header.push("total");
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.set.clone()];
            row.extend(Stage::ALL.iter().map(|&s| r.counters.get(s).to_string()));
            row.push(r.total.to_string());
            row
        })
        .collect();
    let mut s = render_table(
        "Perf: per-stage cycle attribution (BT off; stages sum to total)",
        &header,
        &body,
    );
    for r in &rows {
        assert_eq!(r.counters.total(), r.total, "attribution invariant broken");
    }
    s.push_str("every cycle is attributed to exactly one stage (priority on overlap)\n");
    s
}

/// Fault-injection robustness sweep: completion/recovery rates per fault
/// rate and input set.
pub fn faults_report(sizes: &Sizes) -> String {
    let rows = experiments::fault_sweep(sizes);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.set.clone(),
                format!("{:.3}", r.rate),
                r.pairs.to_string(),
                r.hw_ok.to_string(),
                r.recovered.to_string(),
                r.retries.to_string(),
                r.faults_injected.to_string(),
                format!("{:.0}%", r.completion_rate() * 100.0),
            ]
        })
        .collect();
    let mut s = render_table(
        "Robustness sweep: retry + CPU fallback under injected faults (BT off)",
        &[
            "input",
            "rate",
            "pairs",
            "hw ok",
            "recovered",
            "retries",
            "faults",
            "answered",
        ],
        &body,
    );
    s.push_str("paper §5.1: broken-data tests caused no CPU freeze; here every pair is answered\n");
    s
}

/// Multi-lane batch throughput scaling (no paper counterpart: the paper
/// tapes out one instance; this sweeps the SoC topology beyond it).
pub fn batch_report(sizes: &Sizes) -> String {
    let rows = experiments::batch_scaling(sizes);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.lanes.to_string(),
                r.jobs.to_string(),
                r.alignments.to_string(),
                r.total_cycles.to_string(),
                f(r.throughput_kcyc),
                f(r.speedup),
                r.arb_wait.to_string(),
            ]
        })
        .collect();
    render_table(
        "Batch scaling: one job queue across 1/2/4/8 WFAsic lanes",
        &[
            "lanes",
            "jobs",
            "aligns",
            "batch cycles",
            "align/Kcyc",
            "speedup",
            "arb wait",
        ],
        &body,
    )
}

/// The design-space sweep's frontier table (`report -- dse`): the Pareto
/// frontier sorted by area efficiency, with the dominated bulk summarized
/// below the table.
pub fn dse_report(outcome: &crate::dse::DseOutcome) -> String {
    let mut frontier: Vec<&crate::dse::DseRow> =
        outcome.rows.iter().filter(|r| r.frontier).collect();
    frontier.sort_by(|a, b| b.gcups_per_mm2.total_cmp(&a.gcups_per_mm2));
    let body: Vec<Vec<String>> = frontier
        .iter()
        .map(|r| {
            vec![
                r.name(),
                r.sim_cycles.to_string(),
                format!("{:.2}", r.area_mm2),
                format!("{:.3}", r.power_w),
                f(r.gcups),
                f(r.gcups_per_mm2),
                f(r.gcups_per_w),
            ]
        })
        .collect();
    let mut s = render_table(
        &format!(
            "DSE Pareto frontier ({} tier): max GCUPS/mm2, max GCUPS/W, min batch cycles",
            outcome.tier
        ),
        &[
            "point",
            "batch cycles",
            "mm2",
            "W",
            "GCUPS",
            "GCUPS/mm2",
            "GCUPS/W",
        ],
        &body,
    );
    s.push_str(&format!(
        "\n{} of {} design points on the frontier ({} dominated); \
         workload: {} jobs, {} pairs, {} equivalent cells, seed {:#x}\n",
        frontier.len(),
        outcome.rows.len(),
        outcome.rows.len() - frontier.len(),
        outcome.jobs,
        outcome.pairs,
        outcome.cells,
        outcome.seed
    ));
    s
}

/// The `report -- cosim` table: one row per workload class, the four
/// models side by side, speedups in the Fig. 9/10 shape.
pub fn cosim_report(outcome: &crate::cosim::CosimOutcome) -> String {
    let body: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| {
            vec![
                r.class.name(),
                r.pairs.to_string(),
                r.scalar_cycles.to_string(),
                format!("{:.2}", r.scalar_cpi()),
                format!("{:.3}", r.analytic_ratio()),
                r.vector_cycles.to_string(),
                r.device_cycles.to_string(),
                f(r.speedup_scalar()),
                f(r.speedup_vector()),
            ]
        })
        .collect();
    let mut s = render_table(
        &format!(
            "Co-simulation: WFAsic vs RISC-V CPU baselines ({} tier, Fig. 9/10 shape)",
            outcome.tier
        ),
        &[
            "class",
            "pairs",
            "scalar cyc",
            "CPI",
            "an/isa",
            "vector cyc",
            "wfasic cyc",
            "speedup(s)",
            "speedup(v)",
        ],
        &body,
    );
    let pairs: usize = outcome.rows.iter().map(|r| r.pairs).sum();
    s.push_str(&format!(
        "\n{} classes, {} pairs, seed {:#x}; scalar/vector cyc are RV64IM(+V) \
         interpreter cycles, an/isa the analytic-over-interpreter ratio \
         (band-checked per length), speedups WFAsic cycles vs each baseline\n",
        outcome.rows.len(),
        pairs,
        outcome.seed
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_report_contains_anchor_numbers() {
        let s = fig8_report();
        assert!(s.contains("260"));
        assert!(s.contains("1.60 mm2"));
        assert!(s.contains("1.1 GHz"));
    }

    #[test]
    fn quick_table1_report_renders() {
        let s = table1_report(&Sizes::quick());
        assert!(s.contains("100-5%"));
        assert!(s.contains("10K-10%"));
        assert!(s.contains("937630"), "paper column present");
    }

    #[test]
    fn quick_dse_report_renders_the_frontier() {
        let outcome = crate::dse::sweep(&crate::gate::RunOptions::quick());
        let s = dse_report(&outcome);
        assert!(s.contains("DSE Pareto frontier (quick tier)"));
        assert!(s.contains("GCUPS/mm2"));
        assert!(s.contains("of 18 design points on the frontier"));
    }
}
