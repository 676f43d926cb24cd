//! The traced run's layer replay. After each real job the replay pushes the
//! same pairs through the layers' own public calls, one timed span per
//! layer, and requires the real path's scores, CIGARs and simulated cycles
//! back bit for bit. Host time inside a layer the replay cannot split (the
//! device simulation, a multi-lane batch) stays one span.

use crate::trace::{span, Shared};
use crate::workload::Workload;
use wfa_core::cigar::Cigar;
use wfa_core::{
    wfa_align_seqs_with_arena, AlignStrategy, Penalties, WavefrontArena, WfaAlignment, WfaError,
};
use wfasic_accel::{offsets, WavefrontSchedule};
use wfasic_driver::backtrace::{insert_matches_packed, split_consecutive_stream, walk_origins};
use wfasic_driver::{
    AlignPolicy, AlignmentBackend, AlignmentResult, BackendBatch, BatchJob, CpuRoute,
    MultiLaneBackend, WfasicDriver,
};
use wfasic_seqio::{round_up_16, InputImage, Pair};
use wfasic_soc::perf::{PerfCounters, Stage};

/// Work the replay counted. Every field is a function of the replayed jobs
/// alone, so it repeats exactly for one seed and job count.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Simulated device cycles (`BackendBatch::sim_cycles`, summed).
    pub sim_cycles: u64,
    /// The same cycles attributed per `Stage`, in `Stage::ALL` order.
    pub stage_cycles: [u64; Stage::COUNT],
    /// Pairs the device was given, how many it completed, and their
    /// `|a|*|b|` cells.
    pub device_pairs: u64,
    pub device_ok: u64,
    pub device_cells: u64,
    /// Backtrace stream bytes the driver parsed and edits it walked.
    pub bt_bytes: u64,
    pub edits: u64,
    /// Pairs routed around the device by the length-class router.
    pub cpu_pairs: u64,
    /// Software-engine pairs per strategy and their `WfaStats` work.
    pub exact_pairs: u64,
    pub biwfa_pairs: u64,
    pub cells_computed: u64,
    pub bases_compared: u64,
    pub extend_calls: u64,
    pub peak_wavefront_bytes: u64,
}

impl Tally {
    fn add_perf(&mut self, perf: Option<&PerfCounters>) -> Result<(), String> {
        let perf = perf.ok_or("a replayed device job returned no perf counters")?;
        for (slot, (_, cycles)) in self.stage_cycles.iter_mut().zip(perf.iter()) {
            *slot += cycles;
        }
        Ok(())
    }
}

/// The replay times every layer in the real path's configuration, with
/// per-stage attribution off (collecting it costs host time), and then
/// reruns the device work untimed with attribution on for the `Stage`
/// counts.
enum Engine {
    /// A staged driver whose device, memory and layout the replay drives
    /// register by register.
    Device {
        driver: Box<WfasicDriver>,
        schedule: WavefrontSchedule,
    },
    /// The hetero backend's device side, fed the admitted partition:
    /// `timed` as the real backend runs it, `attributed` with perf on.
    Lanes {
        timed: Box<MultiLaneBackend>,
        attributed: Box<MultiLaneBackend>,
    },
    /// Software WFA only.
    Cpu,
}

pub struct Replayer {
    engine: Engine,
    penalties: Penalties,
    route: CpuRoute,
    arena: WavefrontArena,
    pub tally: Tally,
    /// Per replayed job, the replayed-layer time on the real path's
    /// blocking steps, in nanoseconds.
    pub blocking_ns: Vec<u64>,
}

impl Replayer {
    pub fn new(workload: Workload) -> Self {
        let cfg = Workload::accel();
        // The service installs the default policy; the replay copies it.
        let policy = AlignPolicy::default();
        let engine = match workload {
            Workload::DeviceBt => Engine::Device {
                driver: Box::new(WfasicDriver::new(cfg)),
                schedule: WavefrontSchedule::for_config(&cfg),
            },
            Workload::HeteroHifi => {
                let lanes = |collect_perf| {
                    let mut lanes = MultiLaneBackend::new(cfg, workload.lanes());
                    lanes.apply_policy(&AlignPolicy {
                        collect_perf,
                        ..policy
                    });
                    Box::new(lanes)
                };
                Engine::Lanes {
                    timed: lanes(false),
                    attributed: lanes(true),
                }
            }
            Workload::CpuShort => Engine::Cpu,
        };
        Replayer {
            engine,
            penalties: cfg.penalties,
            route: CpuRoute::from_policy(&policy),
            arena: WavefrontArena::new(),
            tally: Tally::default(),
            blocking_ns: Vec::new(),
        }
    }

    /// Replay `job`, whose real answer was `real`, under a `replay` span.
    pub fn replay(
        &mut self,
        job: &BatchJob,
        real: &BackendBatch,
        rec: &Shared,
    ) -> Result<(), String> {
        let n = job.pairs.len() as u32;
        let (out, _) = span(rec, "replay", n, || {
            if real.results.len() != job.pairs.len() {
                return Err(format!(
                    "{} answers for {} pairs",
                    real.results.len(),
                    job.pairs.len()
                ));
            }
            match self.engine {
                Engine::Device { .. } => self.device(job, real, rec),
                Engine::Lanes { .. } => self.hetero(job, real, rec),
                Engine::Cpu => self.cpu(job, real, rec),
            }
        });
        self.blocking_ns.push(*out.as_ref().unwrap_or(&0));
        out.map(|_| ())
    }

    /// `device-bt`: encode, run the device, split the BT stream, walk the
    /// origins and insert the matches — the steps of `WfasicDriver::submit`.
    fn device(&mut self, job: &BatchJob, real: &BackendBatch, rec: &Shared) -> Result<u64, String> {
        let Engine::Device { driver, schedule } = &mut self.engine else {
            unreachable!("device replay on a device engine")
        };
        let pairs = &job.pairs;
        let n = pairs.len() as u32;
        let longest = pairs.iter().map(|p| p.a.len().max(p.b.len())).max();
        let max_read_len = round_up_16(longest.unwrap_or(16).max(16));
        let (img, t_encode) = span(rec, "seqio.encode", n, || {
            InputImage::encode_raw(pairs, max_read_len)
        });

        let drv = &mut **driver;
        drv.mem.write(drv.layout.in_addr, &img.bytes);
        for (reg, value) in [
            (offsets::BT_ENABLE, job.backtrace as u64),
            (offsets::MAX_READ_LEN, max_read_len as u64),
            (offsets::IN_ADDR, drv.layout.in_addr),
            (offsets::IN_SIZE, img.bytes.len() as u64),
            (offsets::OUT_ADDR, drv.layout.out_addr),
            (offsets::OUT_SIZE, 0),
            (offsets::PERF_CTRL, 0),
            (offsets::IRQ_ENABLE, 0),
            (offsets::START, 1),
        ] {
            drv.device.mmio_write(reg, value);
        }
        let (report, t_run) = span(rec, "accel.run", n, || drv.device.run(&mut drv.mem));
        // The staged job again, untimed, with attribution on.
        drv.device.mmio_write(offsets::PERF_CTRL, 1);
        drv.device.mmio_write(offsets::START, 1);
        let attributed = drv.device.run(&mut drv.mem);
        if let Some(e) = report.error {
            return Err(format!("replayed device job refused: {e:?}"));
        }
        if real.sim_cycles != Some(report.total_cycles)
            || attributed.total_cycles != report.total_cycles
        {
            return Err(format!(
                "simulated cycles: real {:?}, replay {}, attributed replay {}",
                real.sim_cycles, report.total_cycles, attributed.total_cycles
            ));
        }

        let (streams, t_split) = span(rec, "driver.bt_split", n, || {
            let bytes = drv
                .mem
                .read(drv.layout.out_addr, report.output_bytes as usize);
            split_consecutive_stream(&bytes)
        });
        let streams = streams.map_err(|e| format!("BT stream: {e}"))?;
        if streams.len() != pairs.len() {
            return Err(format!("{} BT streams for {n} pairs", streams.len()));
        }
        let ps = drv.device.cfg.parallel_sections;
        let p = self.penalties;
        let (edits, t_walk) = span(rec, "driver.bt_walk", n, || {
            streams
                .iter()
                .map(|bt| {
                    bt.record
                        .success
                        .then(|| walk_origins(schedule, bt, &p, ps))
                        .transpose()
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let edits = edits.map_err(|e| format!("origin walk: {e}"))?;
        let (cigars, t_cigar) = span(rec, "driver.cigar", n, || {
            pairs
                .iter()
                .zip(&edits)
                .map(
                    |(pair, e)| match (e, pair.a.as_packed(), pair.b.as_packed()) {
                        (Some(e), Some(a), Some(b)) => insert_matches_packed(a, b, e).map(Some),
                        _ => Ok(None),
                    },
                )
                .collect::<Result<Vec<_>, _>>()
        });
        let cigars = cigars.map_err(|e| format!("match insertion: {e}"))?;

        for (i, bt) in streams.iter().enumerate() {
            if bt.id != pairs[i].id & 0x7F_FFFF {
                return Err(format!("BT stream {i} carries id {}", bt.id));
            }
            let r = &real.results[i];
            if bt.record.success {
                same(r, u32::from(bt.record.score), cigars[i].as_ref())?;
            } else if r.success {
                return Err(format!("pair {}: real success, device failure", r.id));
            }
        }

        let t = &mut self.tally;
        t.sim_cycles += report.total_cycles;
        t.add_perf(attributed.perf.as_ref().map(|p| &p.counters))?;
        t.device_pairs += pairs.len() as u64;
        t.device_ok += streams.iter().filter(|bt| bt.record.success).count() as u64;
        t.device_cells += pairs.iter().map(cells).sum::<u64>();
        t.bt_bytes += report.output_bytes;
        t.edits += edits.iter().flatten().map(|e| e.len() as u64).sum::<u64>();
        Ok(t_encode + t_run + t_split + t_walk + t_cigar)
    }

    /// `hetero-hifi`: the admitted partition through the device lanes, the
    /// rest through the routed software engines, then recovery of pairs
    /// the device could not finish — the steps of
    /// `HeterogeneousBackend::align_batch`, whose device and CPU sides run
    /// concurrently on the real path.
    fn hetero(&mut self, job: &BatchJob, real: &BackendBatch, rec: &Shared) -> Result<u64, String> {
        let Engine::Lanes { timed, attributed } = &mut self.engine else {
            unreachable!("hetero replay on a lanes engine")
        };
        let caps = timed.capabilities();
        let (dev_idx, cpu_idx): (Vec<usize>, Vec<usize>) =
            (0..job.pairs.len()).partition(|&i| caps.admits(&job.pairs[i]));

        let mut answers: Vec<Option<(u32, Option<Cigar>)>> = vec![None; job.pairs.len()];
        let mut retry = Vec::new();
        let mut t_dev = 0;
        let mut dev_sim = 0;
        if !dev_idx.is_empty() {
            let dev_job = BatchJob {
                pairs: dev_idx.iter().map(|&i| job.pairs[i].clone()).collect(),
                backtrace: job.backtrace,
                deadline: job.deadline,
            };
            let (batch, t) = span(rec, "hetero.device", dev_idx.len() as u32, || {
                timed.align_batch(&dev_job)
            });
            t_dev = t;
            let t = &mut self.tally;
            t.device_pairs += dev_idx.len() as u64;
            t.device_cells += dev_idx.iter().map(|&i| cells(&job.pairs[i])).sum::<u64>();
            match batch {
                Ok(batch) => {
                    dev_sim = batch.sim_cycles.unwrap_or(0);
                    let perf = attributed
                        .align_batch(&dev_job)
                        .map_err(|e| format!("attributed device replay: {e}"))?;
                    if perf.sim_cycles != batch.sim_cycles {
                        return Err("attributed device replay changed the cycles".into());
                    }
                    for report in &perf.reports {
                        t.add_perf(report.perf.as_ref().map(|p| &p.counters))?;
                    }
                    for (&i, r) in dev_idx.iter().zip(batch.results) {
                        if r.success {
                            t.device_ok += 1;
                            answers[i] = Some((r.score, r.cigar));
                        } else {
                            retry.push(i);
                        }
                    }
                }
                Err(_) => retry.extend(&dev_idx),
            }
            t.sim_cycles += dev_sim;
        }
        if real.sim_cycles.unwrap_or(0) != dev_sim {
            return Err(format!(
                "simulated cycles: real {:?}, replay {dev_sim}",
                real.sim_cycles
            ));
        }

        self.tally.cpu_pairs += cpu_idx.len() as u64;
        let mut software = |name, idx: &[usize]| {
            if idx.is_empty() {
                return (Vec::new(), 0);
            }
            span(rec, name, idx.len() as u32, || {
                idx.iter()
                    .map(|&i| (i, self.cpu_pair(&job.pairs[i], job.backtrace, rec)))
                    .collect::<Vec<_>>()
            })
        };
        let (cpu_out, t_cpu) = software("hetero.cpu", &cpu_idx);
        let (recovered, t_recover) = software("hetero.recover", &retry);
        for (i, al) in cpu_out.into_iter().chain(recovered) {
            let al = al.map_err(|e| format!("software WFA on pair {}: {e}", job.pairs[i].id))?;
            answers[i] = Some((al.score, al.cigar));
        }
        for (r, answer) in real.results.iter().zip(&answers) {
            let (score, cigar) = answer.as_ref().expect("every pair was replayed once");
            same(r, *score, cigar.as_ref())?;
        }
        Ok(t_dev.max(t_cpu) + t_recover)
    }

    /// `cpu-short`: every pair through the software WFA the CPU backend
    /// calls.
    fn cpu(&mut self, job: &BatchJob, real: &BackendBatch, rec: &Shared) -> Result<u64, String> {
        let (out, t) = span(rec, "core.exact", job.pairs.len() as u32, || {
            job.pairs
                .iter()
                .map(|p| self.cpu_align(p, job.backtrace))
                .collect::<Vec<_>>()
        });
        for (r, al) in real.results.iter().zip(out) {
            let al = al.map_err(|e| format!("software WFA on pair {}: {e}", r.id))?;
            same(r, al.score, al.cigar.as_ref())?;
        }
        Ok(t)
    }

    /// One routed software pair under a span named after its engine.
    fn cpu_pair(
        &mut self,
        pair: &Pair,
        backtrace: bool,
        rec: &Shared,
    ) -> Result<WfaAlignment, WfaError> {
        let name = match self.route.pick(pair) {
            AlignStrategy::BiWfa => "core.biwfa",
            _ => "core.exact",
        };
        span(rec, name, 1, || self.cpu_align(pair, backtrace)).0
    }

    /// The software WFA exactly as `CpuWfaBackend::align_pair_routed` runs
    /// it, keeping the `WfaStats` that call drops.
    fn cpu_align(&mut self, pair: &Pair, backtrace: bool) -> Result<WfaAlignment, WfaError> {
        let strategy = self.route.pick(pair);
        let opts = self.route.options(strategy, self.penalties, backtrace);
        let out = wfa_align_seqs_with_arena(&pair.a, &pair.b, &opts, &mut self.arena);
        if let Ok(al) = &out {
            let t = &mut self.tally;
            match strategy {
                AlignStrategy::BiWfa => t.biwfa_pairs += 1,
                _ => t.exact_pairs += 1,
            }
            t.cells_computed += al.stats.cells_computed;
            t.bases_compared += al.stats.bases_compared;
            t.extend_calls += al.stats.extend_calls;
            t.peak_wavefront_bytes = t.peak_wavefront_bytes.max(al.stats.peak_memory_bytes);
        }
        out
    }
}

/// `|a| * |b|`, the paper's §5.5 cell count.
fn cells(pair: &Pair) -> u64 {
    pair.a.len() as u64 * pair.b.len() as u64
}

/// The real answer must be a success with the replay's score and CIGAR.
fn same(real: &AlignmentResult, score: u32, cigar: Option<&Cigar>) -> Result<(), String> {
    if !real.success || real.score != score {
        return Err(format!(
            "pair {}: real (success {}, score {}), replay score {score}",
            real.id, real.success, real.score
        ));
    }
    if real.cigar.as_ref() != cigar {
        return Err(format!("pair {}: real and replayed CIGARs differ", real.id));
    }
    Ok(())
}
