//! A multi-lane WFAsic SoC: N independent device instances behind one
//! shared memory controller, with per-lane MMIO windows.
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
//! * the CPU sees one flat MMIO space, `lane * LANE_WINDOW + offset`
//!   (see [`offsets::lane_addr`]) — the SoC interconnect's address decode.
//!
//! A 1-lane SoC is bit-identical to a lone [`WfasicDevice`]: lane 0 keeps
//! the flat register map, the bare perf track IDs, the lone device's fault
//! stream keys, and an uncontended arbiter grants every transfer at its
//! local ready cycle.

use crate::config::AccelConfig;
use crate::device::{RunReport, WfasicDevice};
use crate::regs::offsets;
use std::cell::RefCell;
use std::rc::Rc;
use wfasic_soc::arbiter::{ArbiterStats, BusArbiter};
use wfasic_soc::clock::Cycle;
use wfasic_soc::fault::FaultPlan;
use wfasic_soc::mem::MainMemory;

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

    /// CPU-side MMIO write into the flat multi-lane address space. Writes
    /// beyond the last lane's window are ignored (no device decodes them).
    pub fn mmio_write(&mut self, addr: u64, value: u64) {
        let (lane, off) = offsets::split_lane_addr(addr);
        if let Some(dev) = self.lanes.get_mut(lane) {
            dev.mmio_write(off, value);
        }
    }

    /// CPU-side MMIO read from the flat multi-lane address space. Reads
    /// beyond the last lane's window return 0 (open bus).
    pub fn mmio_read(&mut self, addr: u64) -> u64 {
        let (lane, off) = offsets::split_lane_addr(addr);
        match self.lanes.get_mut(lane) {
            Some(dev) => dev.mmio_read(off),
            None => 0,
        }
    }

    /// Run the job latched in `lane`'s registers, with the lane's input DMA
    /// gated to `dma_start` and its Aligners to `compute_start` (see
    /// [`WfasicDevice::run_at`]). The lane's transfers contend with all
    /// traffic the other lanes have placed on the shared port.
    pub fn run_lane_at(
        &mut self,
        lane: usize,
        mem: &mut MainMemory,
        dma_start: Cycle,
        compute_start: Cycle,
    ) -> RunReport {
        self.lanes[lane].run_at(mem, dma_start, compute_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfasic_seqio::dataset::InputSetSpec;
    use wfasic_seqio::memimage::InputImage;

    const OUT_STRIDE: u64 = 0x10_0000;

    /// Stage one job per lane (same generated input set per lane, distinct
    /// memory windows) and latch START through the flat MMIO space.
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
            let a = |off| offsets::lane_addr(lane, off);
            soc.mmio_write(a(offsets::MAX_READ_LEN), max as u64);
            soc.mmio_write(a(offsets::IN_ADDR), in_addr);
            soc.mmio_write(a(offsets::IN_SIZE), img.bytes.len() as u64);
            soc.mmio_write(a(offsets::OUT_ADDR), out_addr);
            soc.mmio_write(a(offsets::START), 1);
        }
    }

    #[test]
    fn mmio_windows_route_to_the_right_lane() {
        let mut soc = MultiLaneSoc::new(AccelConfig::wfasic_chip(), 3);
        soc.mmio_write(offsets::lane_addr(1, offsets::MAX_READ_LEN), 4096);
        assert_eq!(
            soc.mmio_read(offsets::lane_addr(1, offsets::MAX_READ_LEN)),
            4096
        );
        assert_eq!(
            soc.mmio_read(offsets::lane_addr(0, offsets::MAX_READ_LEN)),
            0,
            "lane 0 untouched"
        );
        assert_eq!(soc.mmio_read(offsets::lane_addr(2, offsets::IDLE)), 1);
        // Beyond the last window: reads-as-zero, writes ignored.
        soc.mmio_write(offsets::lane_addr(7, offsets::MAX_READ_LEN), 99);
        assert_eq!(
            soc.mmio_read(offsets::lane_addr(7, offsets::MAX_READ_LEN)),
            0
        );
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

        let rs = soc.run_lane_at(0, &mut soc_mem, 0, 0);
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
        let solo = one.run_lane_at(0, &mut m1, 0, 0);

        let mut four = MultiLaneSoc::new(AccelConfig::wfasic_chip(), 4);
        let mut m4 = MainMemory::with_default_cap();
        stage_jobs(&mut four, &mut m4, 8, 73);
        let reports: Vec<RunReport> = (0..4).map(|l| four.run_lane_at(l, &mut m4, 0, 0)).collect();

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
        let reports: Vec<RunReport> = (0..3).map(|l| soc.run_lane_at(l, &mut mem, 0, 0)).collect();
        assert_eq!(reports[0].faults.total(), 0);
        assert_eq!(reports[2].faults.total(), 0);
        assert!(reports[1].faults.total() > 0, "lane 1's plan fired");
        assert!(reports[0].pairs.iter().all(|p| p.success));
        assert!(reports[2].pairs.iter().all(|p| p.success));
    }
}
