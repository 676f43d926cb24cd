//! Regenerate the paper's tables and figures, and run the CI gates.
//!
//! ```text
//! cargo run -p wfasic-bench --release --bin report -- \
//!     [table1|fig8|fig9|fig10|fig11|table2|ablation|faults|perf|batch|backends|all] \
//!     [--quick] [--seed N]
//! cargo run -p wfasic-bench --release --bin report -- trace [set]
//! cargo run -p wfasic-bench --release --bin report -- \
//!     [ci-check|dse|cosim|longread|host|chaos] [--quick] [--seed N] [--threads N] \
//!     [--out PATH] [--check] [--bless] [--baseline PATH]
//! ```
//!
//! `trace` prints Chrome `trace_event` JSON for one input set (default
//! `1K-10%`) — redirect to a file and load it in `chrome://tracing` or
//! Perfetto.
//!
//! The gated subcommands share one engine, [`wfasic_bench::gate`]: one
//! table entry per gate and one `run_gate` driver that measures, prints,
//! then writes the record (a plain run), compares against the committed
//! baseline (`--check`), or rewrites it (`--bless`). `--check` and
//! `--bless` always run the quick tier, the tier every baseline holds;
//! a `--quick` run writes its record only to an explicit `--out`.
//! [`wfasic_bench::gate::GATES`] lists each gate's record, baseline and
//! comparison; the README's "Gates" section describes them.
//!
//! Every subcommand uses the same exit codes (see `report --help`):
//! 0 = success, 1 = gate violation or drift (including an unreadable
//! baseline and a record or baseline that cannot be written), 2 = usage
//! error.

use std::path::PathBuf;
use wfasic_bench::experiments::{trace_json, Sizes};
use wfasic_bench::gate::{self, Mode, RunOptions};
use wfasic_bench::{backends, report};
use wfasic_seqio::dataset::InputSetSpec;

/// A gate tripped: drift, an invariant violation, or a baseline or record
/// that cannot be read or written.
const EXIT_VIOLATION: i32 = 1;
/// The invocation itself is wrong: unknown subcommand, bad flag argument.
const EXIT_USAGE: i32 = 2;

const USAGE: &str = "\
usage: report [SUBCOMMAND ...] [FLAGS]

subcommands (default: all)
  table1 fig8 fig9 fig10 fig11 table2   one paper table/figure
  ablation faults perf batch all        further experiment reports
  backends                              execution-backend comparison
  trace [set]                           Chrome trace JSON for one input set

gates (one engine: measure, print, then record, --check or --bless)
  ci-check                              Table 1 / Fig. 9 cycles vs
                                        bench/baselines/cycles.json (always checks)
  dse                                   design-space sweep + Pareto frontier
                                        (BENCH_dse.json; bench/baselines/dse.json)
  cosim                                 differential co-simulation sweep
                                        (BENCH_cosim.json; bench/baselines/cosim.json)
  longread                              long-read scale-out through the hetero router
                                        (BENCH_longread.json; bench/baselines/longread.json)
  host                                  host wall-clock throughput (BENCH_host.json);
                                        gates speedup *ratios* vs bench/baselines/host.json
                                        (one-sided floor)
  chaos                                 chaos soak; gates its invariants (BENCH_chaos.json)
  help | --help | -h                    this text

flags
  --quick            small workloads/grids (the CI tier)
  --seed N           workload seed (experiments and every gate but ci-check)
  --threads N        host threads (host, dse, cosim); results are thread-invariant
  --out PATH         gate JSON record path; a full-tier run defaults to its
                     BENCH_*.json, a --quick run writes only to --out
  --check            compare against the gate baseline (quick tier; pass --out
                     to keep the record too)
  --bless            rewrite the gate baseline instead (quick tier)
  --baseline PATH    override the gate baseline file

exit codes
  0  success — reports printed, gates within tolerance
  1  violation or drift — a gate failed (drift, chaos invariant,
     missing/unparsable baseline, unwritable record or baseline)
  2  usage error — unknown subcommand or malformed flag
";

fn usage_error(msg: &str) -> ! {
    eprintln!("report: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a number")))
}

fn parse_path(args: &[String], i: usize, flag: &str) -> PathBuf {
    args.get(i)
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a path")))
        .into()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what: Vec<String> = Vec::new();
    let mut opts = RunOptions::default();
    let mut check = false;
    let mut bless = false;
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                i += 1;
                opts.threads = Some(parse_num(&args, i, "--threads"));
            }
            "--seed" => {
                i += 1;
                opts.seed = Some(parse_num(&args, i, "--seed"));
            }
            "--out" => {
                i += 1;
                out = Some(parse_path(&args, i, "--out"));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(parse_path(&args, i, "--baseline"));
            }
            "--check" => check = true,
            "--bless" => bless = true,
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag '{other}'"));
            }
            other => what.push(other.to_string()),
        }
        i += 1;
    }
    let mode = match (bless, check) {
        (true, _) => Mode::Bless,
        (false, true) => Mode::Check,
        (false, false) => Mode::Record,
    };
    if what.is_empty() {
        what.push("all".to_string());
    }
    let mut sizes = if opts.quick {
        Sizes::quick()
    } else {
        Sizes::default_report()
    };
    if let Some(seed) = opts.seed {
        sizes.seed = seed;
    }

    // `trace [set]` consumes the next positional as an input-set name.
    if what[0] == "trace" {
        let spec = match what.get(1).map(String::as_str) {
            None => InputSetSpec {
                length: 1_000,
                error_pct: 10,
            },
            Some(name) => InputSetSpec::ALL
                .iter()
                .copied()
                .find(|s| s.name() == name)
                .unwrap_or_else(|| {
                    eprintln!("unknown input set '{name}'; one of:");
                    for s in &InputSetSpec::ALL {
                        eprintln!("  {}", s.name());
                    }
                    std::process::exit(EXIT_USAGE);
                }),
        };
        print!("{}", trace_json(&spec, &sizes));
        return;
    }

    for w in &what {
        if let Some(g) = gate::find(w) {
            let result = gate::run_gate(g, opts, mode, out.as_deref(), baseline.as_deref());
            if let Err(msg) = result {
                eprintln!("{msg}");
                std::process::exit(EXIT_VIOLATION);
            }
            println!();
            continue;
        }
        match w.as_str() {
            "table1" => print!("{}", report::table1_report(&sizes)),
            "fig8" => print!("{}", report::fig8_report()),
            "fig9" => print!("{}", report::fig9_report(&sizes)),
            "fig10" => print!("{}", report::fig10_report(&sizes)),
            "fig11" => print!("{}", report::fig11_report(&sizes)),
            "table2" => print!("{}", report::table2_report(&sizes)),
            "ablation" => print!("{}", report::ablation_report(&sizes)),
            "faults" => print!("{}", report::faults_report(&sizes)),
            "batch" => print!("{}", report::batch_report(&sizes)),
            "perf" => print!("{}", report::perf_report(&sizes)),
            "backends" => print!("{}", backends::backends_report(&sizes)),
            "all" => {
                println!("{}", report::table1_report(&sizes));
                println!("{}", report::fig9_report(&sizes));
                println!("{}", report::fig10_report(&sizes));
                println!("{}", report::fig11_report(&sizes));
                println!("{}", report::table2_report(&sizes));
                println!("{}", report::ablation_report(&sizes));
                println!("{}", report::faults_report(&sizes));
                println!("{}", report::batch_report(&sizes));
                println!("{}", report::perf_report(&sizes));
                print!("{}", report::fig8_report());
            }
            other => {
                usage_error(&format!("unknown subcommand '{other}'"));
            }
        }
        println!();
    }
}
