//! Per-VCPU scheduler state.

use numa_topo::{NodeId, PcpuId, VcpuId, VmId};
use sim_core::SimTime;

/// Credit-scheduler priority.
///
/// BOOST is Xen's latency hack: a VCPU that wakes while still holding
/// credits runs ahead of UNDER work until its next tick. The guest-timer
/// wakeups of otherwise-idle VCPUs arrive at BOOST, preempting the
/// CPU-bound workers — the churn engine behind the Credit scheduler's
/// migration behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Freshly woken with credits: runs first.
    Boost,
    /// Still holds credits.
    Under,
    /// Out of credits — runs only when nothing better is available.
    Over,
}

/// What a VCPU does when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcpuKind {
    /// Hosts a guest application thread; always runnable.
    Worker,
    /// One of the VM's surplus VCPUs: the guest has no thread for it, but
    /// its kernel timer still wakes it briefly and periodically.
    TimerIdler,
}

/// Dynamic state of one VCPU.
///
/// Mirrors the paper's additions to `struct csched_vcpu`: the analyzer's
/// `node_affinity`, `LLC_pressure`, and `vcpu_type` live policy-side; the
/// machine holds the stock credit fields plus the partitioning pin
/// (`assigned_node`).
#[derive(Debug, Clone)]
pub struct VcpuState {
    pub id: VcpuId,
    pub vm: VmId,
    /// Index of this VCPU within its VM (selects the guest thread slot for
    /// workers).
    pub vm_idx: usize,
    pub kind: VcpuKind,
    /// Remaining credits; sign determines UNDER/OVER.
    pub credits: i32,
    pub priority: Priority,
    /// Blocked in the guest (only timer idlers block).
    pub blocked: bool,
    /// When a blocked idler next wakes.
    pub next_wake: SimTime,
    /// Quanta left in the idler's current wake burst.
    pub burst_left: u32,
    /// PCPU currently executing this VCPU, if any.
    pub running_on: Option<PcpuId>,
    /// PCPU whose run queue holds this VCPU, if queued.
    pub queued_on: Option<PcpuId>,
    /// PCPU this VCPU last ran on (for migration detection).
    pub last_pcpu: Option<PcpuId>,
    /// Quanta left in the current timeslice.
    pub timeslice_left: u32,
    /// Quanta of post-migration cache cold-start remaining.
    pub cold_quanta: u32,
    /// Node this VCPU was pinned to by the partitioning pass, if any.
    pub assigned_node: Option<NodeId>,
    /// Permanent administrative pin (VmConfig::pin_node): survives every
    /// partitioning pass.
    pub admin_pinned: bool,
    /// Total quanta this VCPU has executed (service received).
    pub run_quanta: u64,
    /// Multiplicative memory-intensity fluctuation (Ornstein-Uhlenbeck
    /// around 1.0): real programs are bursty, so short PMU windows see
    /// noisy RPTI estimates while long windows average out.
    pub intensity_noise: f64,
}

impl VcpuState {
    pub fn new(id: VcpuId, vm: VmId, vm_idx: usize, kind: VcpuKind) -> Self {
        VcpuState {
            id,
            vm,
            vm_idx,
            kind,
            credits: 0,
            priority: Priority::Under,
            blocked: false,
            next_wake: SimTime::ZERO,
            burst_left: 0,
            running_on: None,
            queued_on: None,
            last_pcpu: None,
            timeslice_left: 0,
            cold_quanta: 0,
            assigned_node: None,
            admin_pinned: false,
            run_quanta: 0,
            intensity_noise: 1.0,
        }
    }

    /// Apply a credit delta; recompute priority from the sign (clearing any
    /// BOOST, as Xen's tick does). The clamp bounds how much entitlement a
    /// waiting VCPU can bank and how deep a deficit a running one can dig;
    /// it spans several accounting periods so that persistent over-service
    /// is remembered long enough for the UNDER/OVER feedback to correct it.
    pub fn adjust_credits(&mut self, delta: i32) {
        self.credits = (self.credits + delta).clamp(-900, 900);
        self.priority = if self.credits >= 0 {
            Priority::Under
        } else {
            Priority::Over
        };
    }

    /// Wake-time priority: BOOST if the VCPU still holds credits.
    pub fn wake_priority(&self) -> Priority {
        if self.credits >= 0 {
            Priority::Boost
        } else {
            Priority::Over
        }
    }

    /// Whether the VCPU may run on a PCPU of `node`, honoring a
    /// partitioning assignment if present.
    pub fn allowed_on(&self, node: NodeId) -> bool {
        self.assigned_node.is_none_or(|n| n == node)
    }

    pub fn is_running(&self) -> bool {
        self.running_on.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vcpu() -> VcpuState {
        VcpuState::new(VcpuId::new(0), VmId::new(0), 0, VcpuKind::Worker)
    }

    #[test]
    fn starts_under_with_zero_credits() {
        let v = vcpu();
        assert_eq!(v.priority, Priority::Under);
        assert_eq!(v.credits, 0);
        assert!(!v.is_running());
        assert!(!v.blocked);
    }

    #[test]
    fn priority_follows_credit_sign() {
        let mut v = vcpu();
        v.adjust_credits(-100);
        assert_eq!(v.priority, Priority::Over);
        v.adjust_credits(150);
        assert_eq!(v.priority, Priority::Under);
    }

    #[test]
    fn credits_clamped() {
        let mut v = vcpu();
        for _ in 0..10 {
            v.adjust_credits(300);
        }
        assert_eq!(v.credits, 900);
        for _ in 0..10 {
            v.adjust_credits(-300);
        }
        assert_eq!(v.credits, -900);
    }

    #[test]
    fn boost_orders_first() {
        assert!(Priority::Boost < Priority::Under);
        assert!(Priority::Under < Priority::Over);
    }

    #[test]
    fn wake_priority_boosts_only_with_credits() {
        let mut v = vcpu();
        assert_eq!(v.wake_priority(), Priority::Boost);
        v.adjust_credits(-100);
        assert_eq!(v.wake_priority(), Priority::Over);
    }

    #[test]
    fn tick_clears_boost() {
        let mut v = vcpu();
        v.priority = Priority::Boost;
        v.adjust_credits(-100);
        assert_eq!(v.priority, Priority::Over);
    }

    #[test]
    fn affinity_restricts_nodes() {
        let mut v = vcpu();
        assert!(v.allowed_on(NodeId::new(0)));
        assert!(v.allowed_on(NodeId::new(1)));
        v.assigned_node = Some(NodeId::new(1));
        assert!(!v.allowed_on(NodeId::new(0)));
        assert!(v.allowed_on(NodeId::new(1)));
    }
}
