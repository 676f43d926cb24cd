//! The one gate engine behind `report`'s gated subcommands: the [`GATES`]
//! table and the [`run_gate`] driver.
//!
//! A gate measures, prints its report, then does one of three things
//! ([`Mode`]):
//!
//! * **record** (a plain run) — write the JSON record to `--out`, or, on a
//!   full-tier run, to the gate's `BENCH_<name>.json`. A `--quick` run
//!   writes only to an explicit `--out`, so it can never overwrite a
//!   committed full-tier record;
//! * **check** (`--check`) — also compare the gated metrics against the
//!   committed baseline with the gate's [`Comparison`];
//! * **bless** (`--bless`) — rewrite that baseline from this run instead.
//!
//! Check and bless always run the quick tier, the tier every committed
//! baseline holds, so a gate can never compare against (or bless) the
//! wrong tier. A gate with no record (`ci-check`) always checks. Invariant
//! violations found while measuring (`chaos`) fail the gate in any mode.

use crate::baseline::{self, Comparison, Metric};
use crate::{chaos, cosim, dse, host, longread, report};
use std::path::{Path, PathBuf};
use wfa_core::pool::available_threads;

/// The options every gate takes: `--quick`, `--seed` and `--threads`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Small workloads and grids: the CI tier every baseline holds.
    pub quick: bool,
    /// Workload seed (`None` = the gate's own default).
    pub seed: Option<u64>,
    /// Host pool width (`None` or 0 = every host thread). Changes wall
    /// clock only: results are bit-identical at every width.
    pub threads: Option<usize>,
}

impl RunOptions {
    /// The quick tier at the default seed and width.
    pub fn quick() -> Self {
        RunOptions {
            quick: true,
            ..RunOptions::default()
        }
    }

    /// The given seed, or the gate's `default`.
    pub(crate) fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The pool width to run at.
    pub(crate) fn threads(&self) -> usize {
        self.threads
            .filter(|&t| t > 0)
            .unwrap_or_else(available_threads)
    }

    /// `"quick"` or `"full"`, as stamped into the records.
    pub(crate) fn tier(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// What one gate run measured.
#[derive(Debug)]
pub struct GateRun {
    /// The printed report.
    pub text: String,
    /// The JSON record. A two-sided gate's quick-tier record is also its
    /// baseline document.
    pub record: String,
    /// The gated metrics.
    pub metrics: Vec<Metric>,
    /// Invariant violations found while measuring; any fails the gate.
    pub violations: Vec<String>,
}

impl GateRun {
    fn new(text: String, record: String, metrics: Vec<Metric>) -> Self {
        GateRun {
            text,
            record,
            metrics,
            violations: Vec::new(),
        }
    }
}

/// One gate: what it runs, where its record and baseline live, and how it
/// compares.
#[derive(Debug)]
pub struct Gate {
    /// The `report` subcommand.
    pub name: &'static str,
    /// Measure at the given options.
    pub run: fn(&RunOptions) -> GateRun,
    /// Record path of a full-tier run (`None` = no record: the gate always
    /// checks).
    pub record: Option<&'static str>,
    /// The committed baseline, a file under `bench/baselines/`, and the
    /// comparison against it (`None` = the gate checks only its invariants).
    pub baseline: Option<(&'static str, Comparison)>,
}

const TWO_SIDED: Comparison = Comparison::TwoSided(baseline::TOLERANCE_PCT);

/// Every gate `report` runs.
pub const GATES: [Gate; 6] = [
    Gate {
        name: "ci-check",
        run: ci_check,
        record: None,
        baseline: Some(("cycles.json", TWO_SIDED)),
    },
    Gate {
        name: "dse",
        run: dse_gate,
        record: Some("BENCH_dse.json"),
        baseline: Some(("dse.json", TWO_SIDED)),
    },
    Gate {
        name: "cosim",
        run: cosim_gate,
        record: Some("BENCH_cosim.json"),
        baseline: Some(("cosim.json", TWO_SIDED)),
    },
    Gate {
        name: "longread",
        run: longread_gate,
        record: Some("BENCH_longread.json"),
        baseline: Some(("longread.json", TWO_SIDED)),
    },
    Gate {
        name: "host",
        run: host_gate,
        record: Some("BENCH_host.json"),
        baseline: Some(("host.json", Comparison::Floor(host::RATIO_FLOOR))),
    },
    Gate {
        name: "chaos",
        run: chaos::chaos_run,
        record: Some("BENCH_chaos.json"),
        baseline: None,
    },
];

/// The gate behind a `report` subcommand.
pub fn find(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// The Table 1 / Fig. 9 cycle metrics: always the quick workload at the
/// fixed seed.
fn ci_check(_: &RunOptions) -> GateRun {
    let metrics = baseline::collect();
    GateRun::new(String::new(), baseline::render_json(&metrics), metrics)
}

fn dse_gate(opts: &RunOptions) -> GateRun {
    let o = dse::sweep(opts);
    GateRun::new(
        report::dse_report(&o),
        dse::render_json(&o),
        dse::metrics(&o),
    )
}

fn cosim_gate(opts: &RunOptions) -> GateRun {
    let o = cosim::sweep(opts);
    GateRun::new(
        report::cosim_report(&o),
        cosim::render_json(&o),
        cosim::metrics(&o),
    )
}

fn longread_gate(opts: &RunOptions) -> GateRun {
    let o = longread::run(opts);
    GateRun::new(
        longread::longread_report(&o),
        longread::render_json(&o),
        longread::metrics(&o),
    )
}

fn host_gate(opts: &RunOptions) -> GateRun {
    let o = host::run(opts);
    let record = host::render_json(&o);
    let metrics = host::metrics(&o);
    GateRun::new(o.text, record, metrics)
}

/// What a gate run does after measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Write the record (a plain run).
    Record,
    /// Write the record if asked (`--out`), then compare (`--check`).
    Check,
    /// Rewrite the baseline (`--bless`).
    Bless,
}

/// Run one gate: measure → print → bless, or measure → print → write the
/// record → check. `out` overrides the record path, `baseline_path` the
/// gate's committed baseline. `Err` carries the one-line reason the gate
/// failed: drift, an invariant violation, or a baseline or record that
/// cannot be read or written.
pub fn run_gate(
    gate: &Gate,
    opts: RunOptions,
    mode: Mode,
    out: Option<&Path>,
    baseline_path: Option<&Path>,
) -> Result<(), String> {
    let mode = match (mode, gate.record) {
        (Mode::Record, None) => Mode::Check,
        (mode, _) => mode,
    };
    let baseline = gate.baseline.map(|(file, cmp)| {
        let committed = || Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines");
        let path = baseline_path.map_or_else(|| committed().join(file), Path::to_path_buf);
        (path, cmp)
    });
    if mode == Mode::Bless && baseline.is_none() {
        return Err(format!(
            "{}: no baseline to bless; it gates on its invariants",
            gate.name
        ));
    }
    let opts = RunOptions {
        quick: opts.quick || mode != Mode::Record,
        ..opts
    };

    let run = (gate.run)(&opts);
    print!("{}", run.text);

    if let (Mode::Bless, Some((path, cmp))) = (mode, &baseline) {
        // A floor gate's record holds host-dependent absolute numbers, so
        // its baseline keeps only the gated ratios.
        let doc = match cmp {
            Comparison::TwoSided(_) => run.record,
            Comparison::Floor(_) => baseline::render_json(&run.metrics),
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| cannot_write(path, e))?;
        }
        std::fs::write(path, doc).map_err(|e| cannot_write(path, e))?;
        println!(
            "blessed {} {} metrics into {}",
            run.metrics.len(),
            gate.name,
            path.display()
        );
        return Ok(());
    }

    let default_record = gate.record.filter(|_| !opts.quick).map(PathBuf::from);
    if let Some(path) = out.map(Path::to_path_buf).or(default_record) {
        std::fs::write(&path, &run.record).map_err(|e| cannot_write(&path, e))?;
        println!("wrote {}", path.display());
    }

    if let (Mode::Check, Some((path, cmp))) = (mode, &baseline) {
        let base = load_baseline(path, gate.name)?;
        let (table, failures) = baseline::drift_report(&base, &run.metrics, *cmp);
        print!("{table}");
        if failures > 0 {
            return Err(format!(
                "{}: {failures} metric(s) not {cmp} — if intentional, rerun \
                 `report {} --bless` and commit the baseline",
                gate.name, gate.name
            ));
        }
        println!("{}: {} metrics {cmp}", gate.name, base.len());
    }

    if !run.violations.is_empty() {
        return Err(format!(
            "{}: {} invariant violation(s) — see above",
            gate.name,
            run.violations.len()
        ));
    }
    Ok(())
}

fn cannot_write(path: &Path, e: std::io::Error) -> String {
    format!("cannot write {}: {e}", path.display())
}

/// Read and parse a gate baseline. A missing or garbled baseline fails the
/// gate: CI must go red, not grey.
fn load_baseline(path: &Path, gate: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read baseline {}: {e}\ngenerate it with: report {gate} --bless",
            path.display()
        )
    })?;
    baseline::parse_json(&text)
        .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A gate that measures nothing: its one metric says which tier it ran.
    fn toy_run(opts: &RunOptions) -> GateRun {
        let metrics = vec![Metric {
            name: "toy/quick".into(),
            value: opts.quick as u8 as f64,
        }];
        GateRun::new(String::new(), baseline::render_json(&metrics), metrics)
    }

    const TOY: Gate = Gate {
        name: "toy",
        run: toy_run,
        record: Some("BENCH_toy.json"),
        baseline: Some(("toy.json", TWO_SIDED)),
    };

    /// Run the toy gate against `base`, at the full tier unless `quick`.
    fn toy(quick: bool, mode: Mode, out: Option<&Path>, base: &Path) -> Result<(), String> {
        let opts = RunOptions {
            quick,
            ..RunOptions::default()
        };
        run_gate(&TOY, opts, mode, out, Some(base))
    }

    /// A fresh per-test directory.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wfasic_gate_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failed_record_and_bless_writes_fail_the_gate() {
        // A path under a regular file: unwritable even for root.
        let file = scratch("unwritable").join("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let path = file.join("x.json");
        let err = toy(true, Mode::Record, Some(&path), &path).unwrap_err();
        assert!(err.starts_with(&format!("cannot write {}: ", path.display())));
        let err = toy(false, Mode::Bless, None, &path).unwrap_err();
        assert!(err.starts_with(&format!("cannot write {}: ", path.display())));
    }

    #[test]
    fn check_and_bless_run_the_quick_tier_and_quick_writes_only_to_out() {
        let dir = scratch("tier");
        let (base, out) = (dir.join("base.json"), dir.join("out.json"));
        // A full-tier bless blesses the quick tier, and a full-tier check
        // compares the quick tier against it.
        toy(false, Mode::Bless, None, &base).unwrap();
        let blessed = baseline::parse_json(&std::fs::read_to_string(&base).unwrap());
        assert_eq!(blessed.unwrap()[0].value, 1.0);
        toy(false, Mode::Check, Some(&out), &base).unwrap();
        assert!(out.exists(), "--out keeps the checked record");
        // A quick run writes no default record.
        toy(true, Mode::Record, None, &base).unwrap();
        assert!(!Path::new("BENCH_toy.json").exists());
    }

    #[test]
    fn drift_and_unreadable_baselines_fail_the_check() {
        let dir = scratch("drift");
        let base = dir.join("base.json");
        let full = toy_run(&RunOptions::default()).metrics;
        std::fs::write(&base, baseline::render_json(&full)).unwrap();
        let err = toy(true, Mode::Check, None, &base).unwrap_err();
        assert!(err.starts_with("toy: 1 metric(s) not within 2% of baseline"));
        let err = toy(true, Mode::Check, None, &dir.join("none.json")).unwrap_err();
        assert!(err.starts_with("cannot read baseline "), "{err}");
    }

    #[test]
    fn a_gate_without_a_baseline_cannot_bless() {
        let gate = Gate {
            baseline: None,
            ..TOY
        };
        let err = run_gate(&gate, RunOptions::quick(), Mode::Bless, None, None).unwrap_err();
        assert!(err.contains("no baseline to bless"), "{err}");
        assert!(find("chaos").is_some_and(|g| g.baseline.is_none()));
    }
}
