//! The flight recorder must be an *observer*: with recording on
//! (the default) or forced off, every executor's product is bitwise
//! identical and the sim executor's virtual clock does not move. This
//! is the contract that lets the recorder stay always-on in
//! production — instrumentation that perturbed products or modeled
//! time would invalidate the paper's reproduced tables.

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::runner::{run_navp, run_navp_sim, NavpStage, NetOpts, On, Run};
use navp_repro::navp_mm::MmConfig;
use navp_repro::navp_obs::{self, EventKind};
use navp_repro::navp_sim::CostModel;
use navp_repro::navp_trace::TraceKind;
use std::sync::Mutex;

/// The recorder's enabled flag is process-global; serialize the tests
/// that flip it so the parallel test harness cannot interleave them.
static FLIGHT_FLAG: Mutex<()> = Mutex::new(());

/// Run `f` with the recorder forced to `on`, restoring the previous
/// state afterwards (also on panic, via the returned guard's drop).
fn with_flight<T>(on: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            navp_obs::flight().set_enabled(self.0);
        }
    }
    let _restore = Restore(navp_obs::flight().enabled());
    navp_obs::flight().set_enabled(on);
    f()
}

fn grid_for(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(2).expect("grid")
    } else {
        Grid2D::new(2, 2).expect("grid")
    }
}

const STAGES: [NavpStage; 3] = [NavpStage::Dsc1D, NavpStage::Pipe2D, NavpStage::Phase1D];

#[test]
fn recorder_is_bitwise_neutral_on_the_sim_executor() {
    let _serial = FLIGHT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MmConfig::real(16, 2);
    let cost = CostModel::paper_cluster();
    for stage in STAGES {
        let grid = grid_for(stage);
        let on = with_flight(true, || {
            run_navp_sim(stage, &cfg, grid, &cost, true).expect("sim on")
        });
        let off = with_flight(false, || {
            run_navp_sim(stage, &cfg, grid, &cost, true).expect("sim off")
        });
        assert_eq!(
            on.virt_seconds,
            off.virt_seconds,
            "{}: recorder moved the virtual clock",
            stage.name()
        );
        assert_eq!(
            on.trace.expect("trace").fingerprint(),
            off.trace.expect("trace").fingerprint(),
            "{}: recorder changed the execution trace",
            stage.name()
        );
        let (c_on, c_off) = (on.c.expect("c on"), off.c.expect("c off"));
        assert_eq!(
            c_on.max_abs_diff(&c_off),
            0.0,
            "{}: recorder changed the sim product",
            stage.name()
        );
    }
}

#[test]
fn recorder_is_bitwise_neutral_on_the_thread_executor() {
    let _serial = FLIGHT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MmConfig::real(16, 2);
    for stage in STAGES {
        let grid = grid_for(stage);
        let threads = || run_navp(stage, &cfg, grid, Run::on(On::Threads));
        let on = with_flight(true, || threads().expect("threads on"));
        let off = with_flight(false, || threads().expect("threads off"));
        assert_eq!(on.verified, Some(true), "{}", stage.name());
        assert_eq!(off.verified, Some(true), "{}", stage.name());
        let (c_on, c_off) = (on.c.expect("c on"), off.c.expect("c off"));
        assert_eq!(
            c_on.max_abs_diff(&c_off),
            0.0,
            "{}: recorder changed the thread product",
            stage.name()
        );
    }
}

#[test]
fn recorder_is_bitwise_neutral_on_the_net_executor() {
    let _serial = FLIGHT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MmConfig::real(16, 2);
    let opts = NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    };
    let stage = NavpStage::Dsc1D;
    let grid = Grid2D::line(4).expect("grid");
    let net = || {
        let run = Run::on(On::Net(&opts)).watchdog(Some(std::time::Duration::from_secs(60)));
        run_navp(stage, &cfg, grid, run)
    };
    let on = with_flight(true, || net().expect("net on"));
    let off = with_flight(false, || net().expect("net off"));
    assert_eq!(on.verified, Some(true));
    assert_eq!(off.verified, Some(true));
    let (c_on, c_off) = (on.c.expect("c on"), off.c.expect("c off"));
    assert_eq!(
        c_on.max_abs_diff(&c_off),
        0.0,
        "recorder changed the networked product"
    );
}

#[test]
fn recorder_actually_records_during_an_instrumented_run() {
    let _serial = FLIGHT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MmConfig::real(16, 2);
    let before: u64 = navp_obs::flight()
        .snapshot_all()
        .iter()
        .map(|s| s.events.len() as u64 + s.dropped)
        .sum();
    let grid = Grid2D::line(2).expect("grid");
    with_flight(true, || {
        run_navp(NavpStage::Dsc1D, &cfg, grid, Run::on(On::Threads)).expect("run")
    });
    let after: u64 = navp_obs::flight()
        .snapshot_all()
        .iter()
        .map(|s| s.events.len() as u64 + s.dropped)
        .sum();
    assert!(
        after > before,
        "an enabled recorder saw no events during a thread run ({before} -> {after})"
    );
}

#[test]
fn traced_run_with_the_recorder_off_still_returns_a_full_trace() {
    let _serial = FLIGHT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let grid = Grid2D::line(4).expect("grid");
    let run = Run::on(On::Threads).traced(true);
    let out = with_flight(false, || {
        run_navp(NavpStage::Phase1D, &MmConfig::real(16, 2), grid, run).expect("traced run")
    });
    assert_eq!(out.verified, Some(true));
    let trace = out.trace.expect("trace requested");
    let mut exec_on = [false; 4];
    let mut transfers = 0u64;
    for e in trace.events() {
        match e.kind {
            TraceKind::Exec { pe } => exec_on[pe] = true,
            TraceKind::Transfer { .. } => transfers += 1,
            _ => {}
        }
    }
    assert_eq!(exec_on, [true; 4], "a run lane records with the recorder off");
    assert_eq!(transfers, out.transfers, "one Transfer per counted hop");
    assert_eq!(out.trace_report.expect("report").dropped, 0);
    let leaked: Vec<String> = navp_obs::flight()
        .snapshot_all()
        .into_iter()
        .map(|s| s.name)
        .filter(|n| n.ends_with(".trace"))
        .collect();
    assert!(leaked.is_empty(), "run lanes outlived their run: {leaked:?}");
}

#[test]
fn untraced_thread_run_records_exec_and_hop_spans_in_the_pe_lanes() {
    let _serial = FLIGHT_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    let pes = 4;
    let lanes: Vec<_> = (0..pes)
        .map(|k| navp_obs::flight().lane(&format!("pe{k}")))
        .collect();
    let before: Vec<u64> = lanes.iter().map(|l| l.recorded()).collect();
    let grid = Grid2D::line(pes).expect("grid");
    let out = with_flight(true, || {
        run_navp(NavpStage::Pipe1D, &MmConfig::real(16, 2), grid, Run::on(On::Threads))
            .expect("untraced run")
    });
    assert!(out.trace.is_none());
    let mut hop_recvs = 0u64;
    for (k, lane) in lanes.iter().enumerate() {
        let snap = lane.snapshot();
        let new = (lane.recorded() - before[k]) as usize;
        assert!(new <= snap.events.len(), "pe{k}: the run wrapped its lane");
        let run = &snap.events[snap.events.len() - new..];
        let count = |kind: EventKind| run.iter().filter(|e| e.kind == kind as u8).count();
        assert!(count(EventKind::Exec) > 0, "pe{k} recorded no Exec");
        hop_recvs += count(EventKind::HopRecv) as u64;
    }
    assert_eq!(hop_recvs, out.transfers, "one HopRecv per counted hop");
}
