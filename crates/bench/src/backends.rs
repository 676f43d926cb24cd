//! Backend comparison (`report -- backends`): the same fixed-seed workload
//! through every [`AlignmentBackend`](wfasic_driver::AlignmentBackend),
//! side by side.
//!
//! Two kinds of numbers per backend:
//!
//! * **aligns/s** — wall-clock throughput of the whole path (service queue,
//!   backend staging, simulation where the backend has a device). This is
//!   host performance, so it varies run to run and machine to machine.
//! * **sim cycles** — the simulated device cycle count for the batch.
//!   Deterministic for the device-backed backends, so [`baseline_metrics`]
//!   feeds them into the `ci-check` cycle-regression gate: a routing or
//!   chunking change in the backend layer that alters device timing trips
//!   CI exactly like a cycle-model change.
//!
//! The workload is one `Sizes::sched_pairs`-pair bucket of the 100bp/5%
//! differential shape, submitted as a single streamed job through an
//! [`AlignmentService`] per backend.

use crate::experiments::Sizes;
use crate::fmt::render_table;
use crate::timing::measure;
use wfasic_accel::AccelConfig;
use wfasic_driver::batch::BatchJob;
use wfasic_driver::BackendKind;
use wfasic_seqio::dataset::InputSetSpec;
use wfasic_service::{AlignmentService, ServiceConfig};

/// Device lanes behind the multi-lane and heterogeneous rows.
pub const LANES: usize = 4;

/// One backend's comparison row.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend name (`cpu`, `swg`, `riscv`, `device`, `multilane`,
    /// `hetero`).
    pub name: &'static str,
    /// Pairs aligned.
    pub pairs: usize,
    /// Wall-clock alignments per second (median iteration).
    pub aligns_per_sec: f64,
    /// Simulated device cycles for the batch (`None` for pure software).
    pub sim_cycles: Option<u64>,
    /// Wall-clock milliseconds to align one 12 kb / 5% pair with
    /// backtrace, and the CPU engine that answered it (`None` for
    /// backends whose envelope cannot take a 12 kb read). Display-only —
    /// never part of [`baseline_metrics`].
    pub longread: Option<(f64, &'static str)>,
}

/// The long-read spot-check: one fixed 12 kb / 5% pair, beyond the stock
/// device envelope, so the backends that accept it (`cpu`, `hetero`) route
/// it through the CPU strategy ladder — at the default policy that is the
/// linear-memory BiWFA engine.
fn longread_spot(kind: BackendKind, sizes: &Sizes) -> Option<(f64, &'static str)> {
    if !matches!(kind, BackendKind::Cpu | BackendKind::Heterogeneous) {
        return None;
    }
    let pair = InputSetSpec {
        length: 12_000,
        error_pct: 5,
    }
    .generate(1, sizes.seed ^ 0x10B6)
    .pairs
    .remove(0);
    let mut backend = kind.create(AccelConfig::wfasic_chip(), LANES);
    let start = std::time::Instant::now();
    let res = backend
        .align_one(&pair, true)
        .expect("the long-read spot pair must align");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(res.success);
    let c = backend.counters();
    let engine = if c.biwfa_pairs > 0 {
        "biwfa"
    } else if c.adaptive_pairs > 0 {
        "adaptive"
    } else {
        "exact"
    };
    Some((ms, engine))
}

fn workload(sizes: &Sizes) -> BatchJob {
    let pairs = InputSetSpec {
        length: 100,
        error_pct: 5,
    }
    .generate(sizes.sched_pairs, sizes.seed ^ 0xBAC)
    .pairs;
    BatchJob::with_backtrace(pairs)
}

fn run_backend(kind: BackendKind, sizes: &Sizes, timed_iters: usize) -> BackendRow {
    let job = workload(sizes);
    let pairs = job.pairs.len();
    // SWG is O(n*m) per pair — keep its timed portion light.
    let iters = if kind == BackendKind::Swg {
        1
    } else {
        timed_iters
    };
    let mut sim_cycles = None;
    let t = measure(iters, || {
        let mut svc = AlignmentService::with_backend(
            kind,
            AccelConfig::wfasic_chip(),
            LANES,
            ServiceConfig::default(),
        );
        let done = svc.stream([job.clone()]);
        let batch = done
            .into_iter()
            .next()
            .expect("one job was streamed")
            .outcome
            .expect("the comparison workload must pass on every backend");
        assert_eq!(batch.results.len(), pairs);
        sim_cycles = batch.sim_cycles;
        pairs
    });
    BackendRow {
        name: kind.name(),
        pairs,
        aligns_per_sec: pairs as f64 / (t.p50_ms / 1e3),
        sim_cycles,
        longread: longread_spot(kind, sizes),
    }
}

/// Run the comparison for every backend.
pub fn backend_rows(sizes: &Sizes, timed_iters: usize) -> Vec<BackendRow> {
    BackendKind::ALL
        .iter()
        .map(|&kind| run_backend(kind, sizes, timed_iters))
        .collect()
}

/// The `report -- backends` table.
pub fn backends_report(sizes: &Sizes) -> String {
    let rows = backend_rows(sizes, 3);
    let mut out = String::new();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.pairs.to_string(),
                format!("{:.0}", r.aligns_per_sec),
                r.sim_cycles
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                r.longread
                    .map(|(ms, engine)| format!("{ms:.1} ({engine})"))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Backend comparison (100bp/5%, BT on, streamed through AlignmentService)",
        &["backend", "pairs", "aligns/s", "sim cycles", "12kb ms"],
        &table,
    ));
    out.push_str(&format!(
        "\nlanes for multilane/hetero: {LANES}; aligns/s is host wall clock \
         (varies); sim cycles are deterministic — device-backed rows are \
         gated by ci-check, the riscv row by the cosim gate; 12kb ms is one \
         12 kb/5% long read beyond the device envelope (CPU strategy in \
         parentheses; '-' where the envelope refuses it)\n"
    ));
    out
}

/// The deterministic slice for the `ci-check` baseline: simulated batch
/// cycles per device-backed backend at [`Sizes::quick`]. Names are stable
/// (`backends/<name>/sim_cycles`).
pub fn baseline_metrics() -> Vec<(String, f64)> {
    let sizes = Sizes::quick();
    [
        BackendKind::Device,
        BackendKind::MultiLane,
        BackendKind::Heterogeneous,
    ]
    .iter()
    .map(|&kind| {
        let mut backend = kind.create(AccelConfig::wfasic_chip(), LANES);
        let batch = backend
            .align_batch(&workload(&sizes))
            .expect("the baseline workload must pass");
        let cycles = batch
            .sim_cycles
            .expect("device-backed backends report cycles");
        (
            format!("backends/{}/sim_cycles", kind.name()),
            cycles as f64,
        )
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_metrics_are_deterministic_and_named_stably() {
        let a = baseline_metrics();
        let b = baseline_metrics();
        assert_eq!(a, b, "backend cycle metrics must be deterministic");
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].0, "backends/device/sim_cycles");
        assert_eq!(a[1].0, "backends/multilane/sim_cycles");
        assert_eq!(a[2].0, "backends/hetero/sim_cycles");
        assert!(a.iter().all(|(_, v)| *v > 0.0));
    }

    #[test]
    fn report_covers_every_backend() {
        let rows = backend_rows(&Sizes::quick(), 1);
        assert_eq!(rows.len(), 6);
        let sim: Vec<bool> = rows.iter().map(|r| r.sim_cycles.is_some()).collect();
        assert_eq!(sim, [false, false, true, true, true, true]);
        // All six answered the full workload.
        assert!(rows.iter().all(|r| r.pairs == Sizes::quick().sched_pairs));
        // The 12 kb spot-check runs exactly where the envelope allows it,
        // and lands on the linear-memory engine at the default policy.
        let long: Vec<Option<&str>> = rows
            .iter()
            .map(|r| r.longread.map(|(_, engine)| engine))
            .collect();
        assert_eq!(long, [Some("biwfa"), None, None, None, None, Some("biwfa")]);
        let text = backends_report(&Sizes::quick());
        for name in ["cpu", "swg", "riscv", "device", "multilane", "hetero"] {
            assert!(text.contains(name), "missing row for {name}");
        }
    }
}
