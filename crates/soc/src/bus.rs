//! AXI-style bus timing models (Fig. 3: AXI-Full to the memory controller,
//! AXI-Lite for configuration).
//!
//! The AXI-Full model is the one load-bearing piece of SoC timing: the paper's
//! Table 1 "Reading Cycles", the Eq. 7 `MaxAligners` bound, and the Fig. 10
//! saturation for short reads all come from the accelerator sharing this one
//! 16-byte-per-beat port to main memory. The model:
//!
//! * transfers move in *bursts* of `burst_beats` beats of `beat_bytes`;
//! * each burst costs `burst_latency` cycles of memory/controller latency
//!   plus one cycle per beat;
//! * the port is a serializing resource — concurrent requesters queue
//!   (first-come-first-served, which approximates the round-robin arbiter).

use crate::arbiter::BusArbiter;
use crate::clock::Cycle;
use crate::fault::FaultInjector;
use crate::perf::{track, Stage, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;

/// AXI-Full timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Bytes per beat (the paper's AXI data width: 16 bytes).
    pub beat_bytes: usize,
    /// Beats per burst.
    pub burst_beats: usize,
    /// Fixed latency per burst (memory controller + DRAM), in cycles.
    pub burst_latency: Cycle,
}

impl BusConfig {
    /// Calibrated to land near the paper's Table 1 "Reading Cycles":
    /// 256-byte bursts at 27 + 16 cycles each give ~75 cycles for a 100bp
    /// pair record and ~3420 for a 10Kbp record.
    pub const WFASIC_DEFAULT: BusConfig = BusConfig {
        beat_bytes: 16,
        burst_beats: 16,
        burst_latency: 27,
    };

    /// Design-space sweep point: a lower-latency memory controller (about
    /// half the per-burst latency at the same 16-byte port).
    pub const LOW_LATENCY: BusConfig = BusConfig {
        beat_bytes: 16,
        burst_beats: 16,
        burst_latency: 14,
    };

    /// Design-space sweep point: a double-width port (32-byte beats, twice
    /// the bandwidth per beat) at the default controller latency.
    pub const WIDE: BusConfig = BusConfig {
        beat_bytes: 32,
        burst_beats: 16,
        burst_latency: 27,
    };

    /// Bytes per burst.
    fn burst_bytes(&self) -> usize {
        self.beat_bytes * self.burst_beats
    }

    /// Cycles to move `bytes` (ignoring queueing).
    pub fn transfer_cycles(&self, bytes: usize) -> Cycle {
        if bytes == 0 {
            return 0;
        }
        let full = bytes / self.burst_bytes();
        let rem = bytes % self.burst_bytes();
        let mut cycles = full as Cycle * (self.burst_latency + self.burst_beats as Cycle);
        if rem > 0 {
            let beats = rem.div_ceil(self.beat_bytes) as Cycle;
            cycles += self.burst_latency + beats;
        }
        cycles
    }
}

/// The shared AXI-Full port to main memory.
#[derive(Debug, Clone, Default)]
pub struct MemoryBus {
    /// Timing parameters.
    pub config: BusConfig,
    /// First cycle at which the port is free.
    free_at: Cycle,
    /// Optional fault injector: adds transfer stalls here, and is consulted
    /// by [`crate::dma::read`]/[`crate::dma::write`] for per-beat data
    /// corruption.
    pub fault: Option<FaultInjector>,
    /// Perf trace sink: when enabled, every transfer records a
    /// [`Stage::BusWait`] span for its queueing delay and a
    /// [`Stage::DmaIn`]/[`Stage::DmaOut`] span for its occupancy.
    pub perf: TraceSink,
    /// When this port is one of several lanes behind a shared memory
    /// controller, transfers are additionally granted slots by the shared
    /// [`BusArbiter`]; `None` means the port owns the controller outright.
    pub shared: Option<Rc<RefCell<BusArbiter>>>,
    /// Lane ID used for arbiter accounting when `shared` is set.
    pub lane: usize,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self::WFASIC_DEFAULT
    }
}

impl MemoryBus {
    /// A bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        MemoryBus {
            config,
            free_at: 0,
            fault: None,
            perf: TraceSink::default(),
            shared: None,
            lane: 0,
        }
    }

    /// Attach this port as lane `lane` of a shared memory controller.
    pub fn attach_shared(&mut self, arbiter: Rc<RefCell<BusArbiter>>, lane: usize) {
        self.shared = Some(arbiter);
        self.lane = lane;
    }

    /// Occupy the port for `dur` cycles: locally serialized always, and
    /// additionally granted a slot by the shared arbiter when attached. For
    /// an arbiter with no competing traffic the grant lands exactly at the
    /// local ready cycle, so timing is identical to the unshared port.
    fn occupy(&mut self, now: Cycle, dur: Cycle) -> (Cycle, Cycle) {
        let ready = now.max(self.free_at);
        let start = match &self.shared {
            Some(arbiter) => arbiter.borrow_mut().grant(self.lane, ready, dur),
            None => ready,
        };
        self.free_at = start + dur;
        (start, self.free_at)
    }

    /// Extra stall cycles injected on a transfer issued at `now`, if a fault
    /// plan is installed.
    fn injected_stall(&mut self, now: Cycle) -> Cycle {
        self.fault
            .as_mut()
            .map_or(0, |fault| fault.transfer_stall(now))
    }

    /// Issue a read of `bytes`, arriving at cycle `now`. Returns the cycle at
    /// which the data has fully arrived.
    pub fn read(&mut self, now: Cycle, bytes: usize) -> Cycle {
        let dur = self.config.transfer_cycles(bytes) + self.injected_stall(now);
        let (start, done) = self.occupy(now, dur);
        self.perf.record(Stage::BusWait, track::BUS, now, start, 0);
        self.perf.record(Stage::DmaIn, track::BUS, start, done, 0);
        done
    }

    /// Issue a write of `bytes`, arriving at cycle `now`. Returns completion.
    pub fn write(&mut self, now: Cycle, bytes: usize) -> Cycle {
        let dur = self.config.transfer_cycles(bytes) + self.injected_stall(now);
        let (start, done) = self.occupy(now, dur);
        self.perf.record(Stage::BusWait, track::BUS, now, start, 0);
        self.perf.record(Stage::DmaOut, track::BUS, start, done, 0);
        done
    }
}

/// Cycles per AXI-Lite register access: the configuration path moves one
/// word per access at a fixed cost.
pub const AXI_LITE_ACCESS_CYCLES: Cycle = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cycle_arithmetic() {
        let c = BusConfig::WFASIC_DEFAULT;
        assert_eq!(c.burst_bytes(), 256);
        assert_eq!(c.transfer_cycles(0), 0);
        // One beat: latency + 1.
        assert_eq!(c.transfer_cycles(16), 28);
        // Partial beat rounds up to a full beat.
        assert_eq!(c.transfer_cycles(1), 28);
        // Exactly one burst.
        assert_eq!(c.transfer_cycles(256), 43);
        // One burst + one beat.
        assert_eq!(c.transfer_cycles(272), 43 + 28);
    }

    #[test]
    fn table1_reading_cycles_ballpark() {
        // Pair record = 3 header sections + 2 * MAX_READ_LEN bytes.
        let c = BusConfig::WFASIC_DEFAULT;
        let rec = |max: usize| 3 * 16 + 2 * max;
        let cyc_100 = c.transfer_cycles(rec(112));
        let cyc_1k = c.transfer_cycles(rec(1008));
        let cyc_10k = c.transfer_cycles(rec(10000));
        // Paper Table 1: 75 / 376 / 3420. Shapes must match within ~25%.
        assert!((cyc_100 as f64 - 75.0).abs() / 75.0 < 0.25, "{cyc_100}");
        assert!((cyc_1k as f64 - 376.0).abs() / 376.0 < 0.25, "{cyc_1k}");
        assert!((cyc_10k as f64 - 3420.0).abs() / 3420.0 < 0.25, "{cyc_10k}");
    }

    #[test]
    fn sweep_profiles_shift_latency_and_bandwidth() {
        let d = BusConfig::WFASIC_DEFAULT;
        assert!(BusConfig::LOW_LATENCY.transfer_cycles(256) < d.transfer_cycles(256));
        assert!(BusConfig::WIDE.transfer_cycles(10_000) < d.transfer_cycles(10_000));
    }

    #[test]
    fn bus_serializes_requesters() {
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        let d1 = bus.read(0, 256);
        assert_eq!(d1, 43);
        // Second requester arrives during the first transfer.
        let d2 = bus.read(10, 256);
        assert_eq!(d2, 86);
    }

    #[test]
    fn reads_and_writes_share_the_port() {
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        bus.read(0, 256);
        let w = bus.write(0, 16);
        assert_eq!(w, 43 + 28);
    }

    #[test]
    fn perf_spans_cover_queueing_and_occupancy() {
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        bus.perf.enabled = true;
        bus.read(0, 256); // occupies [0, 43)
        bus.write(10, 16); // waits [10, 43), occupies [43, 71)
        let spans = &bus.perf.spans;
        assert_eq!(spans.len(), 3, "no empty wait span for the unqueued read");
        assert_eq!(
            (spans[0].stage, spans[0].start, spans[0].end),
            (Stage::DmaIn, 0, 43)
        );
        assert_eq!(
            (spans[1].stage, spans[1].start, spans[1].end),
            (Stage::BusWait, 10, 43)
        );
        assert_eq!(
            (spans[2].stage, spans[2].start, spans[2].end),
            (Stage::DmaOut, 43, 71)
        );
    }

    #[test]
    fn lone_shared_lane_is_bit_identical_to_private_port() {
        let arbiter = Rc::new(RefCell::new(BusArbiter::new(1)));
        let mut shared = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        shared.attach_shared(arbiter.clone(), 0);
        let mut private = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        for (now, bytes) in [(0u64, 256usize), (10, 16), (95, 1000), (95, 4)] {
            assert_eq!(shared.read(now, bytes), private.read(now, bytes));
            assert_eq!(shared.write(now, bytes), private.write(now, bytes));
        }
        assert_eq!(shared.free_at, private.free_at);
        assert_eq!(arbiter.borrow().stats.wait_cycles(), 0);
    }

    #[test]
    fn shared_lanes_contend_for_the_controller() {
        let arbiter = Rc::new(RefCell::new(BusArbiter::new(2)));
        let mut lane0 = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        lane0.attach_shared(arbiter.clone(), 0);
        let mut lane1 = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        lane1.attach_shared(arbiter.clone(), 1);
        assert_eq!(lane0.read(0, 256), 43);
        // Lane 1 arrives mid-transfer and must wait for the shared port even
        // though its own local port is idle.
        assert_eq!(lane1.read(10, 256), 86);
        assert_eq!(arbiter.borrow().stats.lanes[1].wait_cycles, 33);
    }

    #[test]
    fn disabled_perf_changes_nothing_and_records_nothing() {
        let mut traced = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        traced.perf.enabled = true;
        let mut plain = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        for now in [0u64, 5, 100] {
            assert_eq!(traced.read(now, 300), plain.read(now, 300));
            assert_eq!(traced.write(now, 48), plain.write(now, 48));
        }
        assert!(plain.perf.spans.is_empty());
        assert!(!traced.perf.spans.is_empty());
    }
}
