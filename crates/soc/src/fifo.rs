//! Show-ahead FIFOs and the single-port RAM wrapper (paper §4.6).
//!
//! The FPGA prototype used Vivado *show-ahead* FIFOs: the oldest unread entry
//! is always visible at the output port and is consumed by asserting the read
//! request. The ASIC replaces them with high-performance **single-port**
//! register-file macros behind a wrapper that "handles the internal pointers
//! and read/write procedures to mimic the functionality of a show ahead
//! FIFO", with the constraint that "read and write requests to a RAM are not
//! triggered simultaneously".
//!
//! [`ShowAheadFifo`] is the functional FIFO; [`SinglePortFifo`] is the
//! device's Input FIFO, modelled by when its show-ahead output is valid,
//! which a stuck-FIFO fault can delay.

use std::collections::VecDeque;

use crate::clock::Cycle;
use crate::fault::FaultInjector;
use crate::perf::{track, Stage, TraceSink};

/// Error returned when pushing to a full FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFull;

/// A functional show-ahead FIFO with bounded depth.
#[derive(Debug, Clone)]
pub struct ShowAheadFifo<T> {
    depth: usize,
    items: VecDeque<T>,
    /// High-water mark (max occupancy seen), for sizing reports.
    pub high_water: usize,
}

impl<T> ShowAheadFifo<T> {
    /// FIFO with the given depth (the paper's input/output FIFOs are
    /// 16 bytes × 256 words).
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "FIFO depth must be positive");
        ShowAheadFifo {
            depth,
            items: VecDeque::with_capacity(depth),
            high_water: 0,
        }
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when no more pushes are accepted.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.depth
    }

    /// The show-ahead output: the oldest unread entry, if any.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Consume the show-ahead entry.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Append an entry.
    pub fn push(&mut self, item: T) -> Result<(), FifoFull> {
        if self.is_full() {
            return Err(FifoFull);
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        Ok(())
    }
}

/// A show-ahead FIFO backed by a single-port RAM macro: at most one access
/// (push *or* pop) per cycle, which the ASIC wrapper meets by alternating.
/// The device model asks it when the show-ahead output is valid
/// ([`SinglePortFifo::output_ready`]).
#[derive(Debug, Clone)]
pub struct SinglePortFifo<T> {
    inner: ShowAheadFifo<T>,
    /// Optional fault injector consulted for stuck-output stalls.
    pub fault: Option<FaultInjector>,
    /// Perf trace sink: stuck-output stalls record [`Stage::FifoStall`]
    /// spans when enabled.
    pub perf: TraceSink,
    stuck_until: Cycle,
}

impl<T> SinglePortFifo<T> {
    /// FIFO with the given depth.
    pub fn new(depth: usize) -> Self {
        SinglePortFifo {
            inner: ShowAheadFifo::new(depth),
            fault: None,
            perf: TraceSink::default(),
            stuck_until: 0,
        }
    }

    /// First cycle at or after `now` when the show-ahead output is valid.
    ///
    /// Normally that is `now` itself; with a fault plan installed the output
    /// can stick for the plan's stall length (the stuck-FIFO fault), and
    /// overlapping stalls extend each other.
    pub fn output_ready(&mut self, now: Cycle) -> Cycle {
        let mut ready = now.max(self.stuck_until);
        if let Some(fault) = self.fault.as_mut() {
            let extra = fault.fifo_stall(now);
            if extra > 0 {
                ready += extra;
                self.stuck_until = ready;
            }
        }
        self.perf
            .record(Stage::FifoStall, track::FIFO, now, ready, 0);
        ready
    }

    /// Show-ahead view (reads the output register, not the RAM).
    pub fn front(&self) -> Option<&T> {
        self.inner.front()
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// True when full.
    pub fn is_full(&self) -> bool {
        self.inner.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_show_ahead() {
        let mut f = ShowAheadFifo::new(4);
        f.push(1).unwrap();
        f.push(2).unwrap();
        assert_eq!(f.front(), Some(&1));
        assert_eq!(f.front(), Some(&1), "show-ahead does not consume");
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.front(), Some(&2));
    }

    #[test]
    fn fifo_full_and_high_water() {
        let mut f = ShowAheadFifo::new(2);
        f.push(1).unwrap();
        f.push(2).unwrap();
        assert_eq!(f.push(3), Err(FifoFull));
        assert_eq!(f.high_water, 2);
        f.pop();
        f.push(3).unwrap();
        assert_eq!(f.high_water, 2);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        ShowAheadFifo::<u8>::new(0);
    }

    #[test]
    fn stuck_output_stalls_and_recovers() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut f: SinglePortFifo<u8> = SinglePortFifo::new(4);
        assert_eq!(f.output_ready(10), 10, "no fault plan: ready immediately");
        let mut plan = FaultPlan::none().with_stall_cycles(20);
        plan.fifo_stuck = 1.0;
        f.fault = Some(FaultInjector::new(plan));
        assert_eq!(f.output_ready(10), 30, "stuck for the stall length");
        assert_eq!(f.output_ready(12), 50, "overlapping stalls extend");
        assert_eq!(f.fault.as_ref().unwrap().counters.fifo_stalls, 2);
    }

    #[test]
    fn stall_spans_recorded_when_perf_enabled() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut f: SinglePortFifo<u8> = SinglePortFifo::new(4);
        f.perf.enabled = true;
        assert_eq!(f.output_ready(5), 5);
        assert!(f.perf.spans.is_empty(), "no stall, no span");
        let mut plan = FaultPlan::none().with_stall_cycles(8);
        plan.fifo_stuck = 1.0;
        f.fault = Some(FaultInjector::new(plan));
        assert_eq!(f.output_ready(10), 18);
        assert_eq!(f.perf.spans.len(), 1);
        let s = f.perf.spans[0];
        assert_eq!((s.stage, s.start, s.end), (Stage::FifoStall, 10, 18));
    }
}
