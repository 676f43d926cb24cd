//! Deterministic fault injection for the SoC substrate.
//!
//! The paper's §5.1 verification campaign "intentionally send\[s\] data in
//! different unexpected formats" and checks that the accelerator never
//! freezes the CPU. This module makes that campaign reproducible in
//! simulation: a seeded [`FaultPlan`] describes *what* can go wrong and how
//! often, a [`FaultInjector`] rolls the dice (with a deterministic LFSR-style
//! generator, so a given seed always produces the same fault pattern), and
//! [`FaultCounters`] record what was actually injected so tests and the
//! robustness sweep can correlate injected faults with observed recoveries.
//!
//! The substrate models consult the injector at their natural fault sites:
//!
//! * [`crate::bus::MemoryBus`] — transfer stalls (a wedged memory
//!   controller);
//! * [`crate::dma::read`]/[`crate::dma::write`] — per-beat data corruption:
//!   single-event bit flips, dropped beats (read as zeros), duplicated
//!   beats (the previous beat's data replayed);
//! * [`crate::fifo::SinglePortFifo`] — stuck-FIFO output stalls;
//! * the accelerator's MMIO path — configuration-write corruption.
//!
//! Faults can be confined to recurring cycle windows (a [`Storm`]), or to
//! one window (a storm whose period never ends), so tests can target a
//! specific phase of a job (e.g. only while results stream out).

use crate::clock::Cycle;

/// A sustained, periodic fault storm: the plan's data/timing faults are
/// armed only during recurring `[k*period + offset, k*period + offset + on)`
/// windows. A storm models the *production* failure shape — a flaky link
/// or a thermally-marginal lane that degrades in bursts, recovers, and
/// degrades again — which is exactly what a circuit breaker above the
/// driver must survive. With `period: Cycle::MAX` it is one targeted
/// window `[offset, offset + on)`; a plan with no storm is armed always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Storm {
    /// Storm recurrence period in cycles (one on-phase per period).
    pub period: Cycle,
    /// Cycles at the start of each period during which faults are armed.
    /// `on >= period` makes the storm permanent.
    pub on: Cycle,
    /// Phase offset of the first storm window.
    pub offset: Cycle,
}

impl Storm {
    /// A storm that recurs every `period` cycles and rages for the first
    /// `on` cycles of each period.
    pub fn periodic(period: Cycle, on: Cycle) -> Self {
        Storm {
            period: period.max(1),
            on,
            offset: 0,
        }
    }

    /// Is the storm raging at `now`?
    pub fn raging_at(&self, now: Cycle) -> bool {
        if self.on >= self.period {
            return true;
        }
        let phase = (now.wrapping_sub(self.offset)) % self.period;
        now >= self.offset && phase < self.on
    }
}

/// What faults to inject, with what probability. All probabilities are per
/// *opportunity* (per beat for data faults, per transfer for stalls, per
/// write for MMIO corruption) and independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault generator.
    pub seed: u64,
    /// Probability a transferred beat suffers a single-bit flip.
    pub bit_flip_per_beat: f64,
    /// Probability a transferred beat is dropped (arrives as zeros).
    pub drop_beat: f64,
    /// Probability a transferred beat is replaced by a replay of the
    /// previous beat.
    pub dup_beat: f64,
    /// Probability a bus transfer incurs an extra [`FaultPlan::stall_cycles`]
    /// stall.
    pub bus_stall: f64,
    /// Probability a FIFO output sticks for [`FaultPlan::stall_cycles`].
    pub fifo_stuck: f64,
    /// Length of each injected stall, in cycles.
    pub stall_cycles: Cycle,
    /// Probability an MMIO write lands with one bit flipped.
    pub mmio_corrupt: f64,
    /// Storm schedule gating the data/timing faults: with a storm
    /// installed, faults fire only while the storm rages. `None` = always
    /// armed. (MMIO corruption ignores the storm: configuration writes
    /// happen outside job time.)
    pub storm: Option<Storm>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            bit_flip_per_beat: 0.0,
            drop_beat: 0.0,
            dup_beat: 0.0,
            bus_stall: 0.0,
            fifo_stuck: 0.0,
            stall_cycles: 64,
            mmio_corrupt: 0.0,
            storm: None,
        }
    }

    /// Every fault kind armed at the same per-opportunity `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            bit_flip_per_beat: rate,
            drop_beat: rate,
            dup_beat: rate,
            bus_stall: rate,
            fifo_stuck: rate,
            stall_cycles: 64,
            mmio_corrupt: rate,
            storm: None,
        }
    }

    /// Gate data/timing faults behind a recurring [`Storm`] schedule.
    pub fn with_storm(mut self, storm: Storm) -> Self {
        self.storm = Some(storm);
        self
    }

    /// Replace the injected stall length.
    pub fn with_stall_cycles(mut self, cycles: Cycle) -> Self {
        self.stall_cycles = cycles;
        self
    }

    /// True when the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.bit_flip_per_beat <= 0.0
            && self.drop_beat <= 0.0
            && self.dup_beat <= 0.0
            && self.bus_stall <= 0.0
            && self.fifo_stuck <= 0.0
            && self.mmio_corrupt <= 0.0
    }

    /// Is the plan's storm (if any) raging at `now`?
    pub fn armed_at(&self, now: Cycle) -> bool {
        self.storm.is_none_or(|s| s.raging_at(now))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// What was actually injected, per fault kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Beats that suffered a bit flip.
    pub bit_flips: u64,
    /// Beats dropped (read as zeros).
    pub dropped_beats: u64,
    /// Beats replaced by a replay of their predecessor.
    pub duplicated_beats: u64,
    /// Bus transfers that incurred an injected stall.
    pub bus_stalls: u64,
    /// FIFO pops that found the output stuck.
    pub fifo_stalls: u64,
    /// Total extra cycles injected by stalls (bus + FIFO).
    pub stall_cycles: Cycle,
    /// MMIO writes that landed corrupted.
    pub mmio_corruptions: u64,
}

impl FaultCounters {
    /// Total injected fault events (stall cycles excluded — they are a
    /// magnitude, not a count).
    pub fn total(&self) -> u64 {
        self.bit_flips
            + self.dropped_beats
            + self.duplicated_beats
            + self.bus_stalls
            + self.fifo_stalls
            + self.mmio_corruptions
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.bit_flips += other.bit_flips;
        self.dropped_beats += other.dropped_beats;
        self.duplicated_beats += other.duplicated_beats;
        self.bus_stalls += other.bus_stalls;
        self.fifo_stalls += other.fifo_stalls;
        self.stall_cycles += other.stall_cycles;
        self.mmio_corruptions += other.mmio_corruptions;
    }
}

/// Stream identifiers so each component draws an independent deterministic
/// sequence from the same plan seed.
pub mod streams {
    /// The shared memory bus.
    pub const BUS: u64 = 0xB005;
    /// The input FIFO.
    pub const FIFO: u64 = 0xF1F0;
    /// The MMIO configuration path.
    pub const MMIO: u64 = 0x3310;
}

/// A seeded fault generator: rolls the plan's probabilities with an
/// xorshift64* generator (the software stand-in for the on-die fault LFSR)
/// and counts what it injected.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    /// The plan being executed.
    pub plan: FaultPlan,
    /// Injection counts so far.
    pub counters: FaultCounters,
    state: u64,
}

impl FaultInjector {
    /// Injector drawing the plan's default stream.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_stream(plan, 0)
    }

    /// Injector drawing an independent `stream` from the same seed (see
    /// [`streams`]). Mixing in a per-job nonce here makes faults *transient*:
    /// a retried job sees a fresh pattern.
    pub fn with_stream(plan: FaultPlan, stream: u64) -> Self {
        // One SplitMix64-style scramble so nearby (seed, stream) pairs start
        // far apart; xorshift needs a non-zero state.
        let mut z = plan
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultInjector {
            plan,
            counters: FaultCounters::default(),
            state: if z == 0 { 0xDEAD_BEEF_CAFE_F00D } else { z },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Bernoulli roll.
    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Corrupt in-flight transfer data beat by beat: drops, duplications and
    /// single-bit flips, per the plan. `now` gates on the plan's storm.
    pub fn corrupt_beats(&mut self, now: Cycle, data: &mut [u8], beat_bytes: usize) {
        if !self.plan.armed_at(now) || data.is_empty() {
            return;
        }
        let beat_bytes = beat_bytes.max(1);
        let n_beats = data.len().div_ceil(beat_bytes);
        for beat in 0..n_beats {
            let start = beat * beat_bytes;
            let end = (start + beat_bytes).min(data.len());
            if self.roll(self.plan.drop_beat) {
                data[start..end].fill(0);
                self.counters.dropped_beats += 1;
                continue;
            }
            if beat > 0 && self.roll(self.plan.dup_beat) {
                let (prev, cur) = data.split_at_mut(start);
                let prev_beat = &prev[start - beat_bytes..];
                let n = (end - start).min(prev_beat.len());
                cur[..n].copy_from_slice(&prev_beat[..n]);
                self.counters.duplicated_beats += 1;
                continue;
            }
            if self.roll(self.plan.bit_flip_per_beat) {
                let bit = self.next() as usize % ((end - start) * 8);
                data[start + bit / 8] ^= 1 << (bit % 8);
                self.counters.bit_flips += 1;
            }
        }
    }

    /// Extra cycles to stall a bus transfer issued at `now` (0 = no fault).
    pub fn transfer_stall(&mut self, now: Cycle) -> Cycle {
        if !self.plan.armed_at(now) || !self.roll(self.plan.bus_stall) {
            return 0;
        }
        self.counters.bus_stalls += 1;
        self.counters.stall_cycles += self.plan.stall_cycles;
        self.plan.stall_cycles
    }

    /// Extra cycles a FIFO output sticks when popped at `now` (0 = no fault).
    pub fn fifo_stall(&mut self, now: Cycle) -> Cycle {
        if !self.plan.armed_at(now) || !self.roll(self.plan.fifo_stuck) {
            return 0;
        }
        self.counters.fifo_stalls += 1;
        self.counters.stall_cycles += self.plan.stall_cycles;
        self.plan.stall_cycles
    }

    /// Possibly corrupt an MMIO write's value (one flipped bit). Not gated
    /// by the storm — configuration writes happen outside job time.
    pub fn corrupt_mmio(&mut self, value: u64) -> u64 {
        if !self.roll(self.plan.mmio_corrupt) {
            return value;
        }
        self.counters.mmio_corruptions += 1;
        value ^ (1u64 << (self.next() % 64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        let mut data = vec![0xAAu8; 256];
        inj.corrupt_beats(0, &mut data, 16);
        assert_eq!(data, vec![0xAAu8; 256]);
        assert_eq!(inj.transfer_stall(0), 0);
        assert_eq!(inj.fifo_stall(0), 0);
        assert_eq!(inj.corrupt_mmio(0x1234), 0x1234);
        assert_eq!(inj.counters.total(), 0);
        assert!(FaultPlan::none().is_noop());
        assert!(!FaultPlan::uniform(0, 0.1).is_noop());
    }

    #[test]
    fn deterministic_per_seed_and_stream() {
        let plan = FaultPlan::uniform(42, 0.05);
        let run = |stream: u64| {
            let mut inj = FaultInjector::with_stream(plan, stream);
            let mut data = vec![0x55u8; 4096];
            inj.corrupt_beats(0, &mut data, 16);
            (data, inj.counters)
        };
        assert_eq!(run(streams::BUS), run(streams::BUS));
        assert_ne!(run(streams::BUS).0, run(streams::FIFO).0);
    }

    #[test]
    fn certain_drop_zeroes_every_beat() {
        let mut plan = FaultPlan::none();
        plan.drop_beat = 1.0;
        let mut inj = FaultInjector::new(plan);
        let mut data = vec![0xFFu8; 64];
        inj.corrupt_beats(0, &mut data, 16);
        assert_eq!(data, vec![0u8; 64]);
        assert_eq!(inj.counters.dropped_beats, 4);
    }

    #[test]
    fn certain_dup_replays_previous_beat() {
        let mut plan = FaultPlan::none();
        plan.dup_beat = 1.0;
        let mut inj = FaultInjector::new(plan);
        let mut data: Vec<u8> = (0..32u8).collect();
        inj.corrupt_beats(0, &mut data, 16);
        // Beat 0 has no predecessor; beat 1 replays beat 0.
        assert_eq!(&data[16..32], &data[..16]);
        assert_eq!(inj.counters.duplicated_beats, 1);
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit_per_hit() {
        let mut plan = FaultPlan::none();
        plan.bit_flip_per_beat = 1.0;
        let mut inj = FaultInjector::new(plan);
        let mut data = vec![0u8; 48];
        inj.corrupt_beats(0, &mut data, 16);
        let flipped: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 3, "one bit per beat");
        assert_eq!(inj.counters.bit_flips, 3);
    }

    #[test]
    fn window_gates_data_faults() {
        // One window, [100, 200): a storm whose period never ends.
        let mut plan = FaultPlan::uniform(7, 1.0).with_storm(Storm {
            period: Cycle::MAX,
            on: 100,
            offset: 100,
        });
        plan.drop_beat = 1.0;
        let mut inj = FaultInjector::new(plan);
        let mut data = vec![0xFFu8; 16];
        inj.corrupt_beats(50, &mut data, 16);
        assert_eq!(data, vec![0xFFu8; 16], "before the window: untouched");
        assert_eq!(inj.transfer_stall(99), 0);
        assert!(inj.transfer_stall(100) > 0);
        inj.corrupt_beats(150, &mut data, 16);
        assert_eq!(data, vec![0u8; 16], "inside the window: dropped");
        assert_eq!(inj.fifo_stall(200), 0, "window end is exclusive");
    }

    #[test]
    fn stalls_report_plan_length_and_count() {
        let mut plan = FaultPlan::none().with_stall_cycles(17);
        plan.bus_stall = 1.0;
        plan.fifo_stuck = 1.0;
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.transfer_stall(0), 17);
        assert_eq!(inj.fifo_stall(5), 17);
        assert_eq!(inj.counters.bus_stalls, 1);
        assert_eq!(inj.counters.fifo_stalls, 1);
        assert_eq!(inj.counters.stall_cycles, 34);
    }

    #[test]
    fn mmio_corruption_flips_one_bit() {
        let mut plan = FaultPlan::none();
        plan.mmio_corrupt = 1.0;
        let mut inj = FaultInjector::new(plan);
        let v = inj.corrupt_mmio(0x0123_4567_89AB_CDEF);
        assert_eq!((v ^ 0x0123_4567_89AB_CDEF).count_ones(), 1);
        assert_eq!(inj.counters.mmio_corruptions, 1);
    }

    #[test]
    fn storm_schedule_gates_faults_periodically() {
        let storm = Storm {
            offset: 10,
            ..Storm::periodic(100, 30)
        };
        assert!(!storm.raging_at(0), "before the first window");
        assert!(storm.raging_at(10));
        assert!(storm.raging_at(39));
        assert!(!storm.raging_at(40), "on-phase end is exclusive");
        assert!(!storm.raging_at(109));
        assert!(storm.raging_at(110), "second period");

        let mut plan = FaultPlan::none().with_storm(storm);
        plan.drop_beat = 1.0;
        let mut inj = FaultInjector::new(plan);
        let mut data = vec![0xFFu8; 16];
        inj.corrupt_beats(50, &mut data, 16);
        assert_eq!(data, vec![0xFFu8; 16], "between storms: untouched");
        inj.corrupt_beats(120, &mut data, 16);
        assert_eq!(data, vec![0u8; 16], "inside the storm: dropped");
    }

    #[test]
    fn permanent_storm_never_clears() {
        // A storm whose on-phase covers the whole period rages always.
        let storm = Storm::periodic(50, 50);
        for now in [0u64, 1, 17, 1234, 1 << 30] {
            assert!(storm.raging_at(now));
        }
    }

    #[test]
    fn counters_merge_and_total() {
        let mut a = FaultCounters {
            bit_flips: 1,
            dropped_beats: 2,
            duplicated_beats: 3,
            bus_stalls: 4,
            fifo_stalls: 5,
            stall_cycles: 100,
            mmio_corruptions: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.bit_flips, 2);
        assert_eq!(a.stall_cycles, 200);
        assert_eq!(a.total(), 2 * (1 + 2 + 3 + 4 + 5 + 6));
    }

    #[test]
    fn uneven_tail_beat_is_handled() {
        let mut plan = FaultPlan::none();
        plan.bit_flip_per_beat = 1.0;
        let mut inj = FaultInjector::new(plan);
        let mut data = vec![0u8; 20]; // one full beat + a 4-byte tail
        inj.corrupt_beats(0, &mut data, 16);
        assert_eq!(inj.counters.bit_flips, 2);
    }
}
