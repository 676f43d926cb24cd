//! Shared-bus arbitration for multi-lane SoCs.
//!
//! The paper evaluates one WFAsic instance; scaling the SoC out to N
//! independent device instances ("lanes") puts N DMA engines behind the one
//! AXI-Full port to the memory controller. The [`BusArbiter`] models that
//! port as a single serializing resource shared by every lane: each transfer
//! must be *granted* a slot on the port, and a lane whose transfer arrives
//! while the port is occupied waits — the arbitration wait the multi-lane
//! cycle accounting reports per lane.
//!
//! The grant policy is earliest-gap allocation: a request ready at cycle
//! `ready` for `dur` cycles is placed in the earliest free interval of the
//! port timeline at or after `ready` that fits it. This approximates a fair
//! round-robin arbiter while staying deterministic regardless of the order
//! in which lanes are *simulated* (the batch engine simulates one lane's job
//! to completion before the next; gap allocation lets a later-simulated
//! lane's early transfers interleave into the port timeline exactly as
//! concurrent hardware would, instead of queueing behind traffic that in
//! real time had not happened yet).
//!
//! With a single lane attached, every request's `ready` cycle is already
//! past all of that lane's own traffic (the lane's [`crate::bus::MemoryBus`]
//! serializes locally first), so the arbiter grants at `ready` and the lane
//! observes exactly the timing of an unshared port — the bit-identical
//! `batch(N=1)` guarantee the differential tests enforce.

use crate::clock::Cycle;

/// Per-lane arbitration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneArbStats {
    /// Transfers granted to this lane.
    pub grants: u64,
    /// Cycles this lane's transfers waited for the port.
    pub wait_cycles: Cycle,
}

/// Whole-port arbitration statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Per-lane breakdown, indexed by lane ID.
    pub lanes: Vec<LaneArbStats>,
}

impl ArbiterStats {
    /// Total grants across lanes.
    pub fn grants(&self) -> u64 {
        self.lanes.iter().map(|l| l.grants).sum()
    }

    /// Total arbitration-wait cycles across lanes.
    pub fn wait_cycles(&self) -> Cycle {
        self.lanes.iter().map(|l| l.wait_cycles).sum()
    }
}

/// The shared AXI-Full port arbiter: a busy-interval timeline plus per-lane
/// accounting. See the module docs for the grant policy.
#[derive(Debug, Clone, Default)]
pub struct BusArbiter {
    /// Sorted, disjoint busy intervals `[start, end)` of the port.
    busy: Vec<(Cycle, Cycle)>,
    /// Per-lane statistics (grown on demand).
    pub stats: ArbiterStats,
}

impl BusArbiter {
    /// An arbiter with statistics pre-sized for `lanes` lanes.
    pub fn new(lanes: usize) -> Self {
        BusArbiter {
            busy: Vec::new(),
            stats: ArbiterStats {
                lanes: vec![LaneArbStats::default(); lanes],
            },
        }
    }

    /// Grant `lane` a `dur`-cycle slot no earlier than `ready`. Returns the
    /// granted start cycle; the wait is `start - ready`.
    pub fn grant(&mut self, lane: usize, ready: Cycle, dur: Cycle) -> Cycle {
        let start = self.earliest_fit(ready, dur);
        if dur > 0 {
            self.insert(start, start + dur);
        }
        if self.stats.lanes.len() <= lane {
            self.stats.lanes.resize(lane + 1, LaneArbStats::default());
        }
        let s = &mut self.stats.lanes[lane];
        s.grants += 1;
        s.wait_cycles += start - ready;
        start
    }

    /// Forget every busy interval and zero the per-lane statistics (the
    /// lane count is kept): the port as it stood before any traffic. A
    /// caller that restarts its lanes' timelines at cycle 0 must reset the
    /// arbiter too, or new transfers queue behind stale history.
    pub fn reset(&mut self) {
        self.busy.clear();
        self.stats.lanes.fill(LaneArbStats::default());
    }

    /// Earliest `t >= ready` such that `[t, t + dur)` does not overlap any
    /// busy interval.
    fn earliest_fit(&self, ready: Cycle, dur: Cycle) -> Cycle {
        let mut t = ready;
        // Intervals are sorted; scan from the first that could overlap.
        let from = self.busy.partition_point(|&(_, end)| end <= t);
        for &(start, end) in &self.busy[from..] {
            if t + dur <= start {
                break;
            }
            t = t.max(end);
        }
        t
    }

    /// Insert `[start, end)` into the busy timeline, merging neighbours.
    fn insert(&mut self, start: Cycle, end: Cycle) {
        let i = self.busy.partition_point(|&(s, _)| s < start);
        self.busy.insert(i, (start, end));
        // Merge with the predecessor/successor when touching.
        let mut i = i.saturating_sub(1);
        while i + 1 < self.busy.len() {
            if self.busy[i].1 >= self.busy[i + 1].0 {
                self.busy[i].1 = self.busy[i].1.max(self.busy[i + 1].1);
                self.busy.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_never_waits() {
        // A lone lane whose requests are locally serialized (monotone ready
        // cycles past its own traffic) gets every grant at `ready` — the
        // bit-identical N=1 guarantee.
        let mut arb = BusArbiter::new(1);
        let mut ready = 0;
        for dur in [43u64, 28, 71, 43] {
            let start = arb.grant(0, ready, dur);
            assert_eq!(start, ready);
            ready = start + dur;
        }
        assert_eq!(arb.stats.lanes[0].wait_cycles, 0);
        assert_eq!(arb.stats.lanes[0].grants, 4);
    }

    #[test]
    fn contending_lane_waits_for_the_port() {
        let mut arb = BusArbiter::new(2);
        assert_eq!(arb.grant(0, 0, 43), 0);
        // Lane 1 arrives mid-transfer: granted when the port frees.
        assert_eq!(arb.grant(1, 10, 43), 43);
        assert_eq!(arb.stats.lanes[1].wait_cycles, 33);
        assert_eq!(arb.stats.wait_cycles(), 33);
    }

    #[test]
    fn later_simulated_lane_fills_earlier_gaps() {
        // Lane 0's whole job is simulated first, occupying [0,43) and
        // [100,143). Lane 1's transfer at ready=43 fits the gap — it is NOT
        // pushed past lane 0's later traffic.
        let mut arb = BusArbiter::new(2);
        arb.grant(0, 0, 43);
        arb.grant(0, 100, 43);
        assert_eq!(arb.grant(1, 43, 40), 43, "fits the [43,100) gap");
        // A transfer too large for the gap goes after the later interval.
        assert_eq!(arb.grant(1, 43, 80), 143);
    }

    #[test]
    fn reset_forgets_history_and_stats() {
        let mut arb = BusArbiter::new(2);
        arb.grant(0, 0, 43);
        arb.grant(1, 10, 43);
        arb.reset();
        assert!(arb.busy.is_empty());
        assert_eq!(arb.stats, BusArbiter::new(2).stats);
        // A replay of the same traffic sees the same grants.
        assert_eq!(arb.grant(0, 0, 43), 0);
        assert_eq!(arb.grant(1, 10, 43), 43);
    }

    #[test]
    fn zero_duration_grants_do_not_occupy() {
        let mut arb = BusArbiter::new(1);
        assert_eq!(arb.grant(0, 5, 0), 5);
        assert!(arb.busy.is_empty(), "nothing occupied");
    }

    #[test]
    fn intervals_merge_and_stats_grow_on_demand() {
        let mut arb = BusArbiter::new(1);
        arb.grant(0, 0, 10);
        arb.grant(3, 10, 10); // lane 3 beyond the pre-sized stats
        assert_eq!(arb.busy, [(0, 20)], "touching intervals merged");
        assert_eq!(arb.stats.lanes.len(), 4);
        assert_eq!(arb.stats.lanes[3].grants, 1);
    }
}
