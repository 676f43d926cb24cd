//! A multi-lane WFAsic SoC: N independent device instances behind one
//! shared memory controller, each with its own register file.
//!
//! The paper tapes out a single WFAsic instance; the scaling story beyond
//! one chip is more instances on the same SoC, not more Aligners per
//! instance (Eq. 7 bounds the latter). [`MultiLaneSoc`] models that
//! topology:
//!
//! * each lane is a full [`WfasicDevice`] with its own register file, DMA
//!   engine, input FIFO and (optional) per-lane fault plan;
//! * every lane's AXI-Full traffic is granted slots by one shared
//!   [`BusArbiter`], so concurrent lanes contend for memory bandwidth and
//!   the contention shows up as per-lane arbitration waits;
//! * the CPU programs a lane through that lane's own register file
//!   ([`MultiLaneSoc::lane_mut`]), the same nine registers a lone device
//!   has.
//!
//! A 1-lane SoC is bit-identical to a lone [`WfasicDevice`]: lane 0 keeps
//! the bare perf track IDs and the lone device's fault stream keys, and an
//! uncontended arbiter grants every transfer at its local ready cycle.

use crate::config::AccelConfig;
use crate::device::WfasicDevice;
use std::cell::RefCell;
use std::rc::Rc;
use wfasic_soc::arbiter::{ArbiterStats, BusArbiter};
use wfasic_soc::fault::FaultPlan;

/// N WFAsic lanes behind a shared memory controller.
#[derive(Debug)]
pub struct MultiLaneSoc {
    lanes: Vec<WfasicDevice>,
    arbiter: Rc<RefCell<BusArbiter>>,
}

impl MultiLaneSoc {
    /// An SoC with `n` identically-configured lanes. `n` must be at least 1.
    pub fn new(cfg: AccelConfig, n: usize) -> Self {
        assert!(n >= 1, "an SoC needs at least one lane");
        let arbiter = Rc::new(RefCell::new(BusArbiter::new(n)));
        let lanes = (0..n)
            .map(|lane| {
                let mut dev = WfasicDevice::new(cfg).with_lane(lane);
                dev.attach_shared_bus(arbiter.clone());
                dev
            })
            .collect();
        MultiLaneSoc { lanes, arbiter }
    }

    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Borrow a lane's device.
    pub fn lane(&self, lane: usize) -> &WfasicDevice {
        &self.lanes[lane]
    }

    /// Mutably borrow a lane's device.
    pub fn lane_mut(&mut self, lane: usize) -> &mut WfasicDevice {
        &mut self.lanes[lane]
    }

    /// Install a fault plan on one lane (other lanes are unaffected).
    pub fn set_lane_fault_plan(&mut self, lane: usize, plan: FaultPlan) {
        self.lanes[lane].set_fault_plan(plan);
    }

    /// Shared-port arbitration statistics (per-lane grants/waits/occupancy).
    pub fn arbiter_stats(&self) -> ArbiterStats {
        self.arbiter.borrow().stats.clone()
    }

    /// Clear the shared port's busy timeline and statistics (see
    /// [`BusArbiter::reset`]).
    pub fn reset_arbiter(&mut self) {
        self.arbiter.borrow_mut().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RunReport;
    use crate::regs::offsets;
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_seqio::memimage::InputImage;
    use wfasic_soc::mem::MainMemory;

    const OUT_STRIDE: u64 = 0x10_0000;

    /// Stage one job per lane (same generated input set per lane, distinct
    /// memory windows) and latch START in each lane's registers.
    fn stage_jobs(soc: &mut MultiLaneSoc, mem: &mut MainMemory, n_pairs: usize, seed: u64) {
        let set = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(n_pairs, seed);
        let max = set.max_read_len();
        let img = InputImage::encode(&set.pairs, max);
        for lane in 0..soc.num_lanes() {
            let in_addr = 0x1000 + lane as u64 * OUT_STRIDE;
            let out_addr = 0x800_0000 + lane as u64 * OUT_STRIDE;
            mem.write(in_addr, &img.bytes);
            let dev = soc.lane_mut(lane);
            dev.mmio_write(offsets::MAX_READ_LEN, max as u64);
            dev.mmio_write(offsets::IN_ADDR, in_addr);
            dev.mmio_write(offsets::IN_SIZE, img.bytes.len() as u64);
            dev.mmio_write(offsets::OUT_ADDR, out_addr);
            dev.mmio_write(offsets::START, 1);
        }
    }

    #[test]
    fn one_lane_soc_is_bit_identical_to_a_lone_device() {
        let mut soc = MultiLaneSoc::new(AccelConfig::wfasic_chip(), 1);
        let mut soc_mem = MainMemory::with_default_cap();
        stage_jobs(&mut soc, &mut soc_mem, 5, 71);

        let set = InputSetSpec {
            length: 100,
            error_pct: 10,
        }
        .generate(5, 71);
        let max = set.max_read_len();
        let img = InputImage::encode(&set.pairs, max);
        let mut mem = MainMemory::with_default_cap();
        mem.write(0x1000, &img.bytes);
        let mut dev = WfasicDevice::new(AccelConfig::wfasic_chip());
        dev.mmio_write(offsets::MAX_READ_LEN, max as u64);
        dev.mmio_write(offsets::IN_ADDR, 0x1000);
        dev.mmio_write(offsets::IN_SIZE, img.bytes.len() as u64);
        dev.mmio_write(offsets::OUT_ADDR, 0x800_0000);
        dev.mmio_write(offsets::START, 1);

        let rs = soc.lane_mut(0).run_at(&mut soc_mem, 0, 0);
        let rd = dev.run(&mut mem);
        assert_eq!(rs.total_cycles, rd.total_cycles);
        assert_eq!(rs.output_bytes, rd.output_bytes);
        let times = |r: &RunReport| {
            r.pairs
                .iter()
                .map(|p| (p.id, p.score, p.start, p.done, p.read_cycles))
                .collect::<Vec<_>>()
        };
        assert_eq!(times(&rs), times(&rd));
        assert_eq!(soc.arbiter_stats().wait_cycles(), 0, "no contention");
    }

    #[test]
    fn concurrent_lanes_contend_and_still_compute_correctly() {
        let mut one = MultiLaneSoc::new(AccelConfig::wfasic_chip(), 1);
        let mut m1 = MainMemory::with_default_cap();
        stage_jobs(&mut one, &mut m1, 8, 73);
        let solo = one.lane_mut(0).run_at(&mut m1, 0, 0);

        let mut four = MultiLaneSoc::new(AccelConfig::wfasic_chip(), 4);
        let mut m4 = MainMemory::with_default_cap();
        stage_jobs(&mut four, &mut m4, 8, 73);
        let reports: Vec<RunReport> = (0..4)
            .map(|l| four.lane_mut(l).run_at(&mut m4, 0, 0))
            .collect();

        // Same scores everywhere — contention delays, it never corrupts.
        for r in &reports {
            let scores = |r: &RunReport| r.pairs.iter().map(|p| p.score).collect::<Vec<_>>();
            assert_eq!(scores(r), scores(&solo));
        }
        // Four lanes reading concurrently must queue behind each other.
        let stats = four.arbiter_stats();
        assert!(stats.wait_cycles() > 0, "shared port never contended");
        assert!(reports.iter().any(|r| r.total_cycles > solo.total_cycles));
        // And every lane is slower than (or equal to) running alone.
        for r in &reports {
            assert!(r.total_cycles >= solo.total_cycles);
        }
    }

    #[test]
    fn one_faulting_lane_leaves_the_others_clean() {
        let mut soc = MultiLaneSoc::new(AccelConfig::wfasic_chip(), 3);
        let mut mem = MainMemory::with_default_cap();
        soc.set_lane_fault_plan(
            1,
            FaultPlan {
                bit_flip_per_beat: 0.5,
                ..FaultPlan::none()
            },
        );
        stage_jobs(&mut soc, &mut mem, 6, 79);
        let reports: Vec<RunReport> = (0..3)
            .map(|l| soc.lane_mut(l).run_at(&mut mem, 0, 0))
            .collect();
        assert_eq!(reports[0].faults.total(), 0);
        assert_eq!(reports[2].faults.total(), 0);
        assert!(reports[1].faults.total() > 0, "lane 1's plan fired");
        assert!(reports[0].pairs.iter().all(|p| p.success));
        assert!(reports[2].pairs.iter().all(|p| p.success));
    }
}
