//! The repository's end-to-end benchmark (see README.md beside this file).
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload: generate its inputs from the seed, push them through
//! `AlignmentService` → `AlignmentBackend` → driver/accel/core, check every
//! answer, print each metric as `name value unit`, and end with one JSON
//! line. `--trace 1` adds the traced run with its layer replay, reports the
//! per-layer metrics instead, and writes the spans to
//! `e2e-<workload>.trace.json`. With no `--workload`, every workload runs
//! in a child process of its own, so `peak_rss_mb` is per workload.
//!
//! Exit status: 0 when every answer (and every replay) was correct, 1 when
//! one was not, 2 on a usage error.

mod metrics;
mod replay;
mod run;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use run::{Budget, RunSpec};
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: e2e [--workload device-bt|hetero-hifi|cpu-short] [--seed N] \
                     [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    /// Input seed: 1 by default; 2 is held out for validating claims.
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_children(&args),
    }
}

/// Every workload in its own child process, one after another.
fn run_children(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let spec = RunSpec {
        workload: w,
        shape: w.shape(),
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
    };
    let outcome = run::run(&spec);
    // Both change host numbers, so every run records them.
    println!(
        "# e2e workload={} seed={} seconds={} trace={} threads_available={} kernel_tier={} \
         pool_jobs={} timed_jobs={} inputs_rss_mb={:.1}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wfa_core::pool::available_threads(),
        wfa_core::kernel::kernel_dispatch().name(),
        spec.shape.jobs,
        outcome.timed_jobs,
        outcome.inputs_rss_mb,
    );
    for e in &outcome.replay_errors {
        eprintln!("replay mismatch: {e}");
    }
    if args.trace {
        let path = format!("e2e-{}.trace.json", w.name());
        match std::fs::write(&path, trace::chrome_json(&outcome.spans)) {
            Ok(()) => println!("# chrome trace: {path} ({} spans)", outcome.spans.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
