//! Per-PCPU scheduler state.

use crate::runqueue::RunQueue;
use numa_topo::{NodeId, PcpuId, VcpuId};

/// Dynamic state of one physical CPU.
#[derive(Debug, Clone)]
pub struct PcpuState {
    pub id: PcpuId,
    pub node: NodeId,
    pub queue: RunQueue,
    /// VCPU currently executing, if any.
    pub current: Option<VcpuId>,
    /// Monitoring/scheduling time to charge against whatever runs next on
    /// this PCPU, in microseconds.
    pub pending_overhead_us: f64,
    /// Remaining quanta of an injected transient stall; 0 = running
    /// normally. A stalled PCPU schedules and executes nothing.
    pub stall_left: u32,
}

impl PcpuState {
    pub fn new(id: PcpuId, node: NodeId) -> Self {
        PcpuState {
            id,
            node,
            queue: RunQueue::new(),
            current: None,
            pending_overhead_us: 0.0,
            stall_left: 0,
        }
    }

    /// The paper's per-PCPU `workload` counter: the number of VCPUs in the
    /// run queue (the running VCPU counts too — it returns to this queue).
    pub fn workload(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_counts_queue_and_current() {
        let mut p = PcpuState::new(PcpuId::new(0), NodeId::new(0));
        assert_eq!(p.workload(), 0);
        assert!(p.is_idle());
        p.queue.push(VcpuId::new(1));
        p.current = Some(VcpuId::new(2));
        assert_eq!(p.workload(), 2);
        assert!(!p.is_idle());
    }
}
