//! Per-PE resource state for virtual-time execution.

use crate::cost::CostModel;
use crate::memory::MemoryModel;
use crate::time::VTime;

/// The contended resources of one processing element.
///
/// A PE executes one step at a time (its CPU has a `busy_until` horizon)
/// and its NIC serializes outgoing payloads (`send_busy_until`); the
/// switch itself is collision-free, per the paper's stated assumption, so
/// there is no shared-fabric contention. Incoming traffic is modeled as
/// fully overlapped (DMA) — the receiving CPU is not blocked by arrival,
/// matching both MESSENGERS (daemon queues arriving agents) and MPI
/// (`MPI_Irecv` posted early).
#[derive(Clone, Debug, Default)]
pub struct PeResources {
    cpu_free: VTime,
    nic_free: VTime,
    /// Memory accounting for the paging model.
    pub memory: MemoryModel,
}

impl PeResources {
    /// A fresh, idle PE.
    pub fn new() -> PeResources {
        PeResources::default()
    }

    /// Run a unit of work that becomes runnable at `ready`, costs
    /// `duration` of CPU, and serializes with everything else on this PE.
    /// Returns `(start, end)` and advances the CPU horizon.
    pub fn run(&mut self, ready: VTime, duration: VTime) -> (VTime, VTime) {
        let start = ready.max(self.cpu_free);
        let end = start + duration;
        self.cpu_free = end;
        (start, end)
    }

    /// Depart a payload of `bytes` that is handed to the NIC at `ready`.
    /// The NIC serializes sends; returns `(departure, arrival_at_peer)`
    /// where arrival adds one-way latency on top of serialization.
    pub fn send(&mut self, ready: VTime, bytes: u64, cost: &CostModel) -> (VTime, VTime) {
        let start = ready.max(self.nic_free);
        let departed = start + cost.serialize_time(bytes);
        self.nic_free = departed;
        (departed, departed + cost.latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_serializes_work() {
        let mut pe = PeResources::new();
        let (s1, e1) = pe.run(VTime(0), VTime(100));
        assert_eq!((s1, e1), (VTime(0), VTime(100)));
        // Second unit ready earlier than the CPU frees: it queues.
        let (s2, e2) = pe.run(VTime(50), VTime(30));
        assert_eq!((s2, e2), (VTime(100), VTime(130)));
        // Third unit ready after an idle gap: starts immediately.
        let (s3, _) = pe.run(VTime(500), VTime(10));
        assert_eq!(s3, VTime(500));
    }

    #[test]
    fn nic_serializes_sends_and_adds_latency() {
        let mut cost = CostModel::paper_cluster();
        cost.nic_bandwidth = 1e9; // 1 byte/ns for easy numbers
        cost.nic_latency = 1e-6;
        let mut pe = PeResources::new();
        let (d1, a1) = pe.send(VTime(0), 1000, &cost);
        assert_eq!(d1, VTime(1000));
        assert_eq!(a1, VTime(2000)); // + 1000 ns latency
        let (d2, _) = pe.send(VTime(0), 500, &cost);
        assert_eq!(d2, VTime(1500), "second send queues behind the first");
    }

    #[test]
    fn send_and_compute_do_not_contend() {
        // A hop's serialization should overlap with unrelated compute.
        let mut cost = CostModel::paper_cluster();
        cost.nic_bandwidth = 1e9;
        let mut pe = PeResources::new();
        pe.send(VTime(0), 10_000, &cost);
        let (s, _) = pe.run(VTime(0), VTime(10));
        assert_eq!(s, VTime(0));
    }
}
