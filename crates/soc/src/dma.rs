//! The accelerator's DMA transfers between main memory and its FIFOs over
//! the shared AXI-Full bus (Fig. 3/5: "The DMA reads data from memory and
//! stores them in the Input FIFO"; results flow back through the Output
//! FIFO).
//!
//! Functionally a transfer is a memcpy; its contribution to the model is
//! timing (it occupies the shared [`MemoryBus`]) and the bus's injected
//! in-flight corruption. Perf attribution for DMA traffic is recorded by
//! the bus itself (see [`crate::perf::Stage::DmaIn`]/
//! [`crate::perf::Stage::DmaOut`] and the bus-grant
//! [`crate::perf::Stage::BusWait`] spans).

use crate::bus::MemoryBus;
use crate::clock::Cycle;
use crate::mem::MainMemory;

/// Read `len` bytes at `addr`, starting no earlier than `now`.
/// Returns the data and the completion cycle.
pub fn read(
    mem: &MainMemory,
    bus: &mut MemoryBus,
    now: Cycle,
    addr: u64,
    len: usize,
) -> (Vec<u8>, Cycle) {
    let done = bus.read(now, len);
    let beat_bytes = bus.config.beat_bytes;
    let mut data = mem.read(addr, len);
    if let Some(fault) = bus.fault.as_mut() {
        fault.corrupt_beats(now, &mut data, beat_bytes);
    }
    (data, done)
}

/// Write `bytes` at `addr`, starting no earlier than `now`.
/// Returns the completion cycle.
pub fn write(
    mem: &mut MainMemory,
    bus: &mut MemoryBus,
    now: Cycle,
    addr: u64,
    bytes: &[u8],
) -> Cycle {
    let done = bus.write(now, bytes.len());
    let beat_bytes = bus.config.beat_bytes;
    match bus.fault.as_mut() {
        Some(fault) if !fault.plan.is_noop() => {
            let mut data = bytes.to_vec();
            fault.corrupt_beats(now, &mut data, beat_bytes);
            mem.write(addr, &data);
        }
        _ => mem.write(addr, bytes),
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;
    use crate::fault::{FaultInjector, FaultPlan};

    #[test]
    fn dma_roundtrip_with_timing() {
        let mut mem = MainMemory::new(1 << 16);
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        let t1 = write(&mut mem, &mut bus, 0, 0x100, &[9u8; 32]);
        assert_eq!(t1, 27 + 2);
        let (data, t2) = read(&mem, &mut bus, t1, 0x100, 32);
        assert_eq!(data, vec![9u8; 32]);
        assert_eq!(t2, t1 + 29);
    }

    #[test]
    fn dma_queues_behind_other_traffic() {
        let mut mem = MainMemory::new(1 << 16);
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        // Another requester grabs the bus first.
        bus.read(0, 256);
        let t = write(&mut mem, &mut bus, 0, 0, &[0u8; 16]);
        assert_eq!(t, 43 + 28, "queued behind the earlier burst");
    }

    #[test]
    fn injected_faults_corrupt_reads_and_stall_transfers() {
        let mut mem = MainMemory::new(1 << 16);
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        mem.write(0x100, &[0xFFu8; 64]);

        let mut plan = FaultPlan::none().with_stall_cycles(10);
        plan.drop_beat = 1.0;
        plan.bus_stall = 1.0;
        bus.fault = Some(FaultInjector::new(plan));

        let (data, done) = read(&mem, &mut bus, 0, 0x100, 64);
        assert_eq!(data, vec![0u8; 64], "every beat dropped");
        assert_eq!(done, 27 + 4 + 10, "transfer + injected stall");
        let counters = bus.fault.as_ref().unwrap().counters;
        assert_eq!(counters.dropped_beats, 4);
        assert_eq!(counters.bus_stalls, 1);
        // Memory itself is untouched — corruption is in flight.
        assert_eq!(mem.read(0x100, 64), vec![0xFFu8; 64]);
    }

    #[test]
    fn injected_faults_corrupt_writes_in_flight() {
        let mut mem = MainMemory::new(1 << 16);
        let mut bus = MemoryBus::new(BusConfig::WFASIC_DEFAULT);
        let mut plan = FaultPlan::none();
        plan.drop_beat = 1.0;
        bus.fault = Some(FaultInjector::new(plan));
        write(&mut mem, &mut bus, 0, 0x200, &[0xABu8; 32]);
        assert_eq!(mem.read(0x200, 32), vec![0u8; 32], "dropped before landing");
    }
}
