//! Unit tests on a tiny size of each workload.

use crate::metrics::{result_line, END_TO_END, PER_LAYER, STAGE_METRICS};
use crate::run::{run, stream, timed_stream, Budget, Outcome, RunSpec, WINDOWS};
use crate::trace::{Recorder, Span, Traced};
use crate::workload::{Shape, Workload};
use crate::{parse_args, Args};
use std::sync::OnceLock;
use wfasic_service::{AlignmentService, ServiceConfig};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Per-layer metrics that are functions of the inputs alone.
const DETERMINISTIC: &[&str] = &[
    "service.jobs",
    "accel.sim_cycles",
    "accel.device_success_frac",
    "accel.sim_gcups",
    "driver.bt_bytes",
    "driver.edits",
    "core.exact_pairs",
    "core.biwfa_pairs",
    "core.peak_wavefront_bytes",
    "core.cells_computed",
    "core.bases_compared",
    "core.extend_calls",
    "core.bases_per_extend_call",
    "hetero.device_pairs",
    "hetero.cpu_pairs",
];

fn tiny(w: Workload) -> Shape {
    match w {
        Workload::DeviceBt => Shape {
            jobs: 3,
            pairs: 4,
            traced_jobs: 3,
            setup_group: 1,
        },
        // Seed 1 gives this pool pairs on both sides of the device envelope.
        Workload::HeteroHifi => Shape {
            jobs: 2,
            pairs: 3,
            traced_jobs: 2,
            setup_group: 1,
        },
        Workload::CpuShort => Shape {
            jobs: 3,
            pairs: 6,
            traced_jobs: 4,
            setup_group: 2,
        },
    }
}

fn tiny_run(w: Workload, trace: bool) -> Outcome {
    run(&RunSpec {
        workload: w,
        shape: tiny(w),
        seed: 1,
        budget: Budget::Jobs(2),
        trace,
    })
}

/// One traced tiny run per workload, shared by the tests that inspect it.
fn traced(w: Workload) -> &'static Outcome {
    static RUNS: OnceLock<Vec<Outcome>> = OnceLock::new();
    let runs = RUNS.get_or_init(|| Workload::ALL.map(|w| tiny_run(w, true)).into());
    &runs[Workload::ALL.iter().position(|&x| x == w).expect("listed")]
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .value
}

/// `(name, unit)` of every entry in the BENCHMARK.json array `key`.
fn json_entries(key: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &BENCHMARK_JSON[start..];
    let section = &section[..section.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| -> String {
        entry
            .split(&format!("\"{f}\": \""))
            .nth(1)
            .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
            .unwrap_or_default()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn emitted_names_are_exactly_the_benchmark_json_names() {
    assert_eq!(json_entries("end_to_end"), table(END_TO_END));
    assert_eq!(json_entries("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = json_entries("workloads").into_iter().map(|e| e.0).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let emitted = |o: &Outcome| -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    for w in Workload::ALL {
        assert_eq!(emitted(traced(w)), table(PER_LAYER), "{}", w.name());
    }
    let untraced = tiny_run(Workload::CpuShort, false);
    assert_eq!(emitted(&untraced), table(END_TO_END));
    for m in &untraced.metrics {
        assert!(m.value > 0.0, "{} must never read 0", m.name);
    }
}

#[test]
fn every_answer_and_every_replay_is_correct() {
    for w in Workload::ALL {
        let o = traced(w);
        assert!(o.correct(), "{}: {:?}", w.name(), o.replay_errors);
        assert!(o.attempted > 0);
    }
}

#[test]
fn simulated_metrics_and_counts_repeat_exactly() {
    for w in Workload::ALL {
        let (a, b) = (traced(w), tiny_run(w, true));
        assert_eq!(a.tally, b.tally, "{}", w.name());
        for name in DETERMINISTIC.iter().chain(&STAGE_METRICS) {
            assert_eq!(value(a, name), value(&b, name), "{}: {name}", w.name());
        }
    }
}

#[test]
fn traced_and_untraced_paths_answer_identically() {
    for w in Workload::ALL {
        let jobs = w.generate(tiny(w), 1);
        let want = w.oracle(&jobs);
        let budget = Budget::Jobs(jobs.len());
        let plain = stream(&mut w.service(), &jobs, &want, 0, budget, None, |_, _| {});
        let rec = Recorder::shared();
        let backend = Traced {
            inner: w.backend_kind().create(Workload::accel(), w.lanes()),
            rec: rec.clone(),
        };
        let mut svc = AlignmentService::new(Box::new(backend), ServiceConfig::default());
        let traced = stream(&mut svc, &jobs, &want, 0, budget, Some(&rec), |_, _| {});
        assert_eq!(plain.failed, 0, "{}", w.name());
        assert_eq!(plain.answers, traced.answers, "{}", w.name());
        assert_eq!(rec.borrow().spans().len(), 2 * jobs.len());
    }
}

#[test]
fn every_child_span_lies_inside_its_parent() {
    for w in Workload::ALL {
        let spans = &traced(w).spans;
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(
            roots,
            2 * tiny(w).traced_jobs,
            "service.job + replay per job"
        );
        let end = |s: &Span| s.start_ns + s.dur_ns;
        for s in spans {
            let Some(p) = s.parent else { continue };
            let parent = &spans[p];
            assert_eq!(s.job, parent.job, "{} crosses jobs", s.name);
            assert!(
                parent.start_ns <= s.start_ns && end(s) <= end(parent),
                "{}: {} [{}, {}] outside {} [{}, {}]",
                w.name(),
                s.name,
                s.start_ns,
                end(s),
                parent.name,
                parent.start_ns,
                end(parent)
            );
        }
    }
}

#[test]
fn stage_cycles_sum_to_simulated_cycles() {
    for w in Workload::ALL {
        let o = traced(w);
        let stages: f64 = STAGE_METRICS.iter().map(|n| value(o, n)).sum();
        assert_eq!(stages, value(o, "accel.sim_cycles"), "{}", w.name());
        let simulated = w != Workload::CpuShort;
        assert_eq!(
            value(o, "accel.sim_cycles") > 0.0,
            simulated,
            "{}",
            w.name()
        );
    }
    // The hetero pool exercises both sides of the router.
    let hetero = traced(Workload::HeteroHifi);
    assert!(value(hetero, "hetero.device_pairs") > 0.0);
    assert!(value(hetero, "core.biwfa_pairs") > 0.0);
}

#[test]
fn wrong_answers_are_counted_as_failures() {
    let w = Workload::CpuShort;
    let jobs = w.generate(tiny(w), 1);
    let mut want = w.oracle(&jobs);
    want[0][1] += 2;
    let log = stream(
        &mut w.service(),
        &jobs,
        &want,
        0,
        Budget::Jobs(1),
        None,
        |_, _| {},
    );
    assert_eq!((log.pairs, log.failed), (jobs[0].pairs.len() as u64, 1));
}

#[test]
fn a_timed_stream_is_cut_into_windows() {
    let w = Workload::CpuShort;
    let jobs = w.generate(tiny(w), 1);
    let want = w.oracle(&jobs);
    let (mut pairs, mut failed) = (0, 0);
    let timed = timed_stream(w, &jobs, &want, Budget::Seconds(0.3), 2, |log| {
        pairs += log.pairs;
        failed += log.failed;
    });
    assert_eq!(failed, 0);
    assert!(pairs > 0);
    assert_eq!(timed.rates.len(), WINDOWS);
    assert_eq!(timed.p50_ns.len(), WINDOWS);
    assert_eq!(timed.setup_s.len(), WINDOWS);
    assert!(timed.jobs > WINDOWS);
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let line = result_line(true, 3, 0, &[]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
    );
}

#[test]
fn arguments_parse_as_benchmark_json_passes_them() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    assert_eq!(
        parse_args(&argv(
            "--workload hetero-hifi --seed 7 --seconds 30 --trace 1"
        )),
        Ok(Args {
            workload: Some(Workload::HeteroHifi),
            seed: 7,
            seconds: 30.0,
            trace: true,
        })
    );
    let defaults = parse_args(&[]).unwrap();
    assert_eq!(
        (defaults.workload, defaults.seed, defaults.trace),
        (None, 1, false)
    );
    for bad in [
        "--workload gpu",
        "--trace 2",
        "--seconds 0",
        "--seed",
        "--bogus 1",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}
