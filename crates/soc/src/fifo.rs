//! The Input FIFO's stall model (paper §4.6).
//!
//! The FPGA prototype used Vivado *show-ahead* FIFOs: the oldest unread entry
//! is always visible at the output port and is consumed by asserting the read
//! request. The ASIC replaces them with high-performance **single-port**
//! register-file macros behind a wrapper that "handles the internal pointers
//! and read/write procedures to mimic the functionality of a show ahead
//! FIFO", with the constraint that "read and write requests to a RAM are not
//! triggered simultaneously".
//!
//! The wrapper keeps the show-ahead behaviour, so the data path needs no
//! FIFO model: the device reads each record straight from the DMA. What the
//! timeline takes from the FIFO is when its output is valid, which a
//! stuck-FIFO fault can delay; [`SinglePortFifo`] models exactly that.

use crate::clock::Cycle;
use crate::fault::FaultInjector;
use crate::perf::{track, Stage, TraceSink};

/// The device's Input FIFO, modelled by when its show-ahead output is valid
/// ([`SinglePortFifo::output_ready`]).
#[derive(Debug, Clone, Default)]
pub struct SinglePortFifo {
    /// Optional fault injector consulted for stuck-output stalls.
    pub fault: Option<FaultInjector>,
    /// Perf trace sink: stuck-output stalls record [`Stage::FifoStall`]
    /// spans when enabled.
    pub perf: TraceSink,
    stuck_until: Cycle,
}

impl SinglePortFifo {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn stuck_output_stalls_and_recovers() {
        let mut f = SinglePortFifo::default();
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
        let mut f = SinglePortFifo::default();
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
