//! Fault injection + checkpoint/restart, end to end: a paper stage run
//! under an injected PE crash must produce the *bitwise identical*
//! result matrix of the fault-free run, on both executors — recovery
//! re-delivers checkpointed messengers and replays journaled writes,
//! it never re-executes committed work.

use navp_repro::navp::{FaultPlan, RunError};
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::runner::{run_navp, run_navp_sim, NavpStage, On, Run, RunnerError};
use navp_repro::navp_sim::CostModel;
use std::time::Duration;

fn grid_for(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(3).expect("line")
    } else {
        Grid2D::new(2, 2).expect("grid")
    }
}

/// A thread-executor run under a generous watchdog.
fn threads() -> Run<'static> {
    Run::on(On::Threads).watchdog(Some(Duration::from_secs(30)))
}

/// Crash one PE mid-run and demand the exact fault-free product back.
fn crash_recovers_bitwise(stage: NavpStage, crash_pe: usize, at_run: u64) {
    let cfg = MmConfig::real(12, 2);
    let grid = grid_for(stage);
    let cost = CostModel::paper_cluster();
    let plan = FaultPlan::new().crash_pe(crash_pe, at_run);

    let clean = run_navp_sim(stage, &cfg, grid, &cost, false).expect("clean sim");
    let sim = Run::on(On::Sim(&cost)).plan(Some(plan.clone()));
    let faulted = run_navp(stage, &cfg, grid, sim).expect("faulted sim");
    assert_eq!(faulted.verified, Some(true), "{}: sim result wrong", stage.name());
    let fs = faulted.faults.expect("NavP run reports fault stats");
    assert_eq!(fs.crashes, 1, "{}: sim crash not injected", stage.name());
    assert!(fs.redelivered >= 1, "{}: nothing re-delivered", stage.name());
    assert_eq!(
        clean.c.as_ref().expect("real payload"),
        faulted.c.as_ref().expect("real payload"),
        "{}: sim product not bitwise identical",
        stage.name()
    );

    let clean = run_navp(stage, &cfg, grid, threads()).expect("clean threads");
    let faulted =
        run_navp(stage, &cfg, grid, threads().plan(Some(plan))).expect("faulted threads");
    assert_eq!(faulted.verified, Some(true), "{}: thread result wrong", stage.name());
    let fs = faulted.faults.expect("NavP run reports fault stats");
    assert_eq!(fs.crashes, 1, "{}: thread crash not injected", stage.name());
    assert!(fs.redelivered >= 1, "{}: nothing re-delivered", stage.name());
    assert_eq!(
        clean.c.as_ref().expect("real payload"),
        faulted.c.as_ref().expect("real payload"),
        "{}: thread product not bitwise identical",
        stage.name()
    );
}

#[test]
fn dsc1d_single_pe_crash_recovers_bitwise() {
    // PE 1's first delivery (the DSC carrier arriving with its A row) is
    // destroyed by the crash and re-delivered from its hop checkpoint.
    crash_recovers_bitwise(NavpStage::Dsc1D, 1, 1);
}

#[test]
fn pipe2d_single_pe_crash_recovers_bitwise() {
    // Crash mid-pipeline: PE 1 holds parked event-waiters, deposited B
    // slots (journaled writes) and in-flight block carriers.
    crash_recovers_bitwise(NavpStage::Pipe2D, 1, 3);
}

#[test]
fn phase1d_crash_on_home_pe_recovers_bitwise() {
    // The phase-shifted stage crashes the PE that also hosts launcher
    // stops, exercising the launcher's structural snapshot.
    crash_recovers_bitwise(NavpStage::Phase1D, 0, 2);
}

#[test]
fn crash_without_checkpointing_is_structured_on_both_executors() {
    let cfg = MmConfig::real(12, 2);
    let grid = Grid2D::line(3).expect("line");
    let cost = CostModel::paper_cluster();
    let plan = FaultPlan::new().crash_pe(1, 1).without_checkpointing();

    let sim = Run::on(On::Sim(&cost)).plan(Some(plan.clone()));
    match run_navp(NavpStage::Dsc1D, &cfg, grid, sim) {
        Err(RunnerError::Navp(RunError::PeCrashed { pe: 1, .. })) => {}
        other => panic!("sim: expected PeCrashed, got ok={}", other.is_ok()),
    }
    // The generous watchdog proves the structured error preempts any
    // stall: an unrecoverable crash must not present as a hang.
    match run_navp(NavpStage::Dsc1D, &cfg, grid, threads().plan(Some(plan))) {
        Err(RunnerError::Navp(RunError::PeCrashed { pe: 1, .. })) => {}
        other => panic!("threads: expected PeCrashed, got ok={}", other.is_ok()),
    }
}

#[test]
fn seeded_fault_plans_are_deterministic() {
    let cfg = MmConfig::real(12, 2);
    let grid = Grid2D::line(3).expect("line");
    let cost = CostModel::paper_cluster();
    let plan = FaultPlan::seeded(0xFEED, 3);

    let run = || Run::on(On::Sim(&cost)).plan(Some(plan.clone()));
    let one = run_navp(NavpStage::Dsc1D, &cfg, grid, run()).expect("first seeded run");
    let two = run_navp(NavpStage::Dsc1D, &cfg, grid, run()).expect("second seeded run");
    assert_eq!(one.verified, Some(true));
    assert_eq!(one.virt_seconds, two.virt_seconds, "virtual time must repeat");
    assert_eq!(one.faults, two.faults, "fault counters must repeat");
    assert_eq!(one.c, two.c, "product must repeat bitwise");
}

#[test]
fn recovery_makespan_accounts_for_the_outage() {
    // The simulated crash costs recovery_seconds of virtual time, so the
    // faulted makespan strictly exceeds the clean one.
    let cfg = MmConfig::real(12, 2);
    let grid = Grid2D::line(3).expect("line");
    let cost = CostModel::paper_cluster();
    let clean = run_navp_sim(NavpStage::Dsc1D, &cfg, grid, &cost, false).expect("clean");
    let plan = FaultPlan::new().crash_pe(1, 1).with_recovery_seconds(2.0);
    let sim = Run::on(On::Sim(&cost)).plan(Some(plan));
    let faulted = run_navp(NavpStage::Dsc1D, &cfg, grid, sim).expect("faulted");
    assert!(
        faulted.virt_seconds.unwrap() >= clean.virt_seconds.unwrap() + 1.999,
        "faulted {:?} vs clean {:?}",
        faulted.virt_seconds,
        clean.virt_seconds
    );
    assert_eq!(faulted.verified, Some(true));
}
