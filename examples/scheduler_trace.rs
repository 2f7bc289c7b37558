//! Watch vProbe make its decisions: run a short interval with event
//! tracing enabled and print an xentrace-style log plus a decision
//! summary.
//!
//! ```sh
//! cargo run --release --example scheduler_trace
//! ```

use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::SimDuration;
use vprobe::{variants, Bounds};
use workloads::{hungry, speccpu};
use xen_sim::{Event, MachineBuilder, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

fn main() {
    let mut machine = MachineBuilder::new(presets::xeon_e5620())
        .policy(Box::new(variants::vprobe(2, Bounds::default())))
        .add_vm(VmConfig::new(
            "heavy",
            8,
            10 * GB,
            AllocPolicy::SplitEven,
            speccpu::mix(),
        ))
        .add_vm(VmConfig::new(
            "noise",
            8,
            GB,
            AllocPolicy::MostFree,
            vec![hungry::hungry_loop(); 8],
        ))
        .build()
        .expect("valid configuration");
    machine.enable_trace(50_000);
    machine.run(SimDuration::from_secs(5));

    let trace = machine.trace();
    println!("last 20 scheduling events:");
    let lines = trace.to_lines();
    for line in lines.iter().rev().take(20).rev() {
        println!("  {line}");
    }

    let steals = trace.count(|e| matches!(e, Event::Steal { .. }));
    let cross = trace.count(|e| {
        matches!(
            e,
            Event::Steal {
                cross_node: true,
                ..
            }
        )
    });
    let moves = trace.count(|e| matches!(e, Event::PartitionMove { .. }));
    let switches = trace.count(|e| matches!(e, Event::SwitchIn { .. }));
    println!("\n5 simulated seconds under vProbe:");
    println!("  context switches : {switches}");
    println!("  steals           : {steals} ({cross} cross-node)");
    println!("  partition moves  : {moves}");
    println!("  events dropped   : {}", trace.dropped());
}
