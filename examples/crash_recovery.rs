//! Fault tolerance from the programming model: a PE is crashed in the
//! middle of a 1-D DSC run, the runtime restarts it from hop-boundary
//! checkpoints plus a node-store write journal, and the product still
//! matches the sequential kernel **bitwise**.
//!
//! Run with: `cargo run --release --example crash_recovery`
//!
//! NavP makes this cheap: a messenger's whole computation state lives
//! in its agent variables, which are only externally visible at
//! delivery points (injection, hop arrival, event wake-up). Snapshotting
//! there captures everything; nothing mid-run ever needs saving.

use navp_repro::navp::FaultPlan;
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::runner::{run_navp, run_navp_sim, NavpStage, On, Run};
use navp_repro::navp_sim::CostModel;

fn main() {
    let cfg = MmConfig::real(24, 4); // N = 24, block order 4 → 6 block rows
    let grid = Grid2D::line(3).expect("grid"); // 3 PEs in a line
    let cost = CostModel::paper_cluster();

    // Crash PE 1 just as it starts its second messenger run: the DSC
    // carrier has already deposited work there, so recovery must rebuild
    // real state, not an idle daemon.
    let plan = FaultPlan::new().crash_pe(1, 2);

    let clean = run_navp_sim(NavpStage::Dsc1D, &cfg, grid, &cost, false).expect("clean run");
    let sim = Run::on(On::Sim(&cost)).plan(Some(plan.clone()));
    let faulted = run_navp(NavpStage::Dsc1D, &cfg, grid, sim).expect("recovery");

    let f = faulted.faults.expect("sim reports fault counters");
    println!("injected : {plan:?}");
    println!(
        "recovered: crashes={} redelivered={} replayed_writes={}",
        f.crashes, f.redelivered, f.replayed_writes
    );
    println!(
        "makespan : clean {:.3}s -> faulted {:.3}s (outage absorbed)",
        clean.virt_seconds.unwrap(),
        faulted.virt_seconds.unwrap()
    );
    assert_eq!(faulted.verified, Some(true));
    assert_eq!(clean.c, faulted.c, "recovery must be bitwise-identical");
    println!("sim      : product identical to the fault-free run, bit for bit");

    // The same plan against real OS threads: the daemon is restarted and
    // the last checkpoints are re-delivered under an epoch guard.
    let threads = Run::on(On::Threads).plan(Some(plan));
    let wall = run_navp(NavpStage::Dsc1D, &cfg, grid, threads).expect("threads");
    assert_eq!(wall.verified, Some(true));
    assert_eq!(clean.c, wall.c);
    println!(
        "threads  : recovered in {:?}, product verified",
        wall.wall.unwrap()
    );
}
