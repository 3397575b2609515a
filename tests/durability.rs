//! Durable-checkpoint integration: every executor's run can be killed
//! mid-computation and restored *from disk* to the bitwise-identical
//! product.
//!
//! Bitwise (not epsilon) equality is the acceptance bar: the cuts
//! record committed `f64` blocks as exact bit patterns and the resumed
//! run replays the identical schedule, so any difference at all means
//! the durable layer lost or corrupted state.

use navp_repro::navp::{FaultPlan, RunError};
use navp_repro::navp_matrix::{Grid2D, Matrix};
use navp_repro::navp_mm::runner::{
    run_navp_net, run_navp_sim, run_navp_sim_durable, run_navp_threads,
    run_navp_threads_durable, run_restored_net, run_restored_sim, run_restored_threads,
    NavpStage, NetOpts, RunnerError,
};
use navp_repro::navp_mm::MmConfig;
use navp_sim::CostModel;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The ISSUE acceptance triple: a DSC stage, a phase-shifted stage,
/// and a 2-D pipelined stage (the latter exercises events + waiters in
/// the cuts, not just residents).
const STAGES: [NavpStage; 3] = [NavpStage::Dsc1D, NavpStage::Phase1D, NavpStage::Pipe2D];

fn grid_for(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(3).expect("grid")
    } else {
        Grid2D::new(2, 2).expect("grid")
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("navp-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A fault plan that kills the whole in-process run midway: the crash
/// is *not* recovered in place (checkpointing off), so the executor
/// dies with [`RunError::PeCrashed`] — the closest in-process analogue
/// of `kill -9` — leaving only the durable cuts behind.
fn killer_plan() -> FaultPlan {
    FaultPlan::new().without_checkpointing().crash_pe(1, 2)
}

fn assert_died_mid_run(result: Result<navp_repro::navp_mm::RunOutput, RunnerError>) {
    match result {
        Err(RunnerError::Navp(RunError::PeCrashed { pe: 1, .. })) => {}
        Err(e) => panic!("expected the planted PeCrashed, got: {e}"),
        Ok(_) => panic!("the killer plan must abort the run"),
    }
}

#[test]
fn sim_killed_runs_restore_bitwise_from_disk() {
    let cfg = MmConfig::real(12, 2);
    let cost = CostModel::paper_cluster();
    for stage in STAGES {
        let grid = grid_for(stage);
        let want = run_navp_sim(stage, &cfg, grid, &cost, false)
            .unwrap_or_else(|e| panic!("{} baseline: {e}", stage.name()))
            .c
            .expect("real payload");
        let dir = tmp(&format!("sim-{}", stage.name().replace([' ', '(', ')'], "")));
        assert_died_mid_run(run_navp_sim_durable(
            stage,
            &cfg,
            grid,
            &cost,
            &dir,
            Some(killer_plan()),
        ));
        let out = run_restored_sim(stage, &cfg, grid, &cost, &dir)
            .unwrap_or_else(|e| panic!("{} restore: {e}", stage.name()));
        assert_eq!(out.verified, Some(true), "{} must verify", stage.name());
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "{} bitwise parity", stage.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn threads_killed_runs_restore_bitwise_from_disk() {
    let cfg = MmConfig::real(12, 2).with_watchdog(Duration::from_secs(60));
    for stage in STAGES {
        let grid = grid_for(stage);
        let want = run_navp_threads(stage, &cfg, grid)
            .unwrap_or_else(|e| panic!("{} baseline: {e}", stage.name()))
            .c
            .expect("real payload");
        let dir = tmp(&format!("thr-{}", stage.name().replace([' ', '(', ')'], "")));
        assert_died_mid_run(run_navp_threads_durable(
            stage,
            &cfg,
            grid,
            &dir,
            Some(killer_plan()),
        ));
        let out = run_restored_threads(stage, &cfg, grid, &dir)
            .unwrap_or_else(|e| panic!("{} restore: {e}", stage.name()));
        assert_eq!(out.verified, Some(true), "{} must verify", stage.name());
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "{} bitwise parity", stage.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A durable run goes down the same path as a plain one, so it honours
/// `cfg.metrics` the same way: it returns a snapshot, and its hop count
/// is the plain run's.
#[test]
fn durable_threads_run_reports_the_same_metrics_as_a_plain_run() {
    let cfg = MmConfig::real(12, 2)
        .with_watchdog(Duration::from_secs(60))
        .with_metrics(true);
    let stage = NavpStage::Pipe2D;
    let grid = grid_for(stage);
    let plain = run_navp_threads(stage, &cfg, grid).expect("plain run");
    let dir = tmp("metered");
    let durable = run_navp_threads_durable(stage, &cfg, grid, &dir, None).expect("durable run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(durable.verified, Some(true));
    let hops = |out: &navp_repro::navp_mm::RunOutput| {
        let snap = out.metrics.as_ref().expect("metrics snapshot");
        snap.total("navp_hops_total")
    };
    assert!(hops(&plain) > 0.0);
    assert_eq!(hops(&durable), hops(&plain));
    assert_eq!(hops(&durable), durable.transfers as f64);
}

/// A sim run interrupted mid-flight restores and finishes on *threads*
/// (and vice versa): the cut format is executor-agnostic.
#[test]
fn cuts_restore_across_executors() {
    let cfg = MmConfig::real(12, 2).with_watchdog(Duration::from_secs(60));
    let cost = CostModel::paper_cluster();
    let stage = NavpStage::Phase1D;
    let grid = grid_for(stage);
    let want = run_navp_sim(stage, &cfg, grid, &cost, false)
        .expect("baseline")
        .c
        .expect("real payload");

    let dir = tmp("sim-to-threads");
    assert_died_mid_run(run_navp_sim_durable(
        stage,
        &cfg,
        grid,
        &cost,
        &dir,
        Some(killer_plan()),
    ));
    let got = run_restored_threads(stage, &cfg, grid, &dir)
        .expect("sim cuts on threads")
        .c
        .expect("real payload");
    assert_eq!(bits(&got), bits(&want), "sim cuts finish on threads bitwise");
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmp("threads-to-sim");
    assert_died_mid_run(run_navp_threads_durable(
        stage,
        &cfg,
        grid,
        &dir,
        Some(killer_plan()),
    ));
    let got = run_restored_sim(stage, &cfg, grid, &cost, &dir)
        .expect("thread cuts on sim")
        .c
        .expect("real payload");
    assert_eq!(bits(&got), bits(&want), "thread cuts finish on sim bitwise");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_and_truncated_checkpoints_are_rejected() {
    let cfg = MmConfig::real(12, 2);
    let cost = CostModel::paper_cluster();
    let stage = NavpStage::Dsc1D;
    let grid = grid_for(stage);
    let dir = tmp("corrupt");
    assert_died_mid_run(run_navp_sim_durable(
        stage,
        &cfg,
        grid,
        &cost,
        &dir,
        Some(killer_plan()),
    ));

    // Pristine cuts restore fine…
    run_restored_sim(stage, &cfg, grid, &cost, &dir).expect("pristine cuts restore");

    // …a flipped byte is caught by the container checksum…
    let cut = dir.join("pe-1.ckpt");
    let pristine = std::fs::read(&cut).unwrap();
    let mut bad = pristine.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    std::fs::write(&cut, &bad).unwrap();
    let err = match run_restored_sim(stage, &cfg, grid, &cost, &dir) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("corrupted cut accepted"),
    };
    assert!(err.contains("checksum"), "{err}");

    // …and a torn (truncated) file is named as such.
    std::fs::write(&cut, &pristine[..mid]).unwrap();
    let err = match run_restored_sim(stage, &cfg, grid, &cost, &dir) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("truncated cut accepted"),
    };
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Networked executor: real `kill -9` of every OS process.
// ---------------------------------------------------------------------

fn net_opts(dir: &Path) -> NetOpts {
    NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    }
    .with_durable_dir(dir)
}

/// SIGKILL — no signal handler, no flush, nothing: only what already
/// reached disk survives.
fn sigkill(pid: u32) {
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status();
}

/// PIDs of every live `navp-pe --listen` daemon we spawned.
struct Daemons(Vec<std::process::Child>);

impl Daemons {
    fn spawn(dir: &Path, ports: &[u16]) -> Daemons {
        let bin = env!("CARGO_BIN_EXE_navp-pe");
        Daemons(
            ports
                .iter()
                .map(|p| {
                    std::process::Command::new(bin)
                        .arg("--listen")
                        .arg(format!("127.0.0.1:{p}"))
                        .arg("--durable-dir")
                        .arg(dir)
                        .stdin(std::process::Stdio::null())
                        .spawn()
                        .expect("spawn navp-pe")
                })
                .collect(),
        )
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for d in &mut self.0 {
            let _ = d.kill();
            let _ = d.wait();
        }
    }
}

/// Kill **every** PE process of a live networked durable run with
/// `kill -9`, then restore the whole cluster from the checkpoint
/// directory and finish it — bitwise-identical to the uninterrupted
/// product. (The resumed half runs on driver-spawned PEs; the killed
/// half runs on `--listen` daemons so the test owns their PIDs.)
#[test]
fn net_survives_kill_dash_nine_of_every_process() {
    let cfg = MmConfig::real(16, 2).with_watchdog(Duration::from_secs(60));
    let stage = NavpStage::Dsc1D;
    let grid = Grid2D::line(4).expect("grid");
    let want = run_navp_threads(stage, &cfg, grid)
        .expect("thread baseline")
        .c
        .expect("real payload");

    let dir = tmp("net-kill-all");
    let ports = [7461u16, 7462, 7463, 7464];
    let daemons = Daemons::spawn(&dir, &ports);
    std::thread::sleep(Duration::from_millis(300)); // listeners bind
    let mut opts = net_opts(&dir);
    opts.join = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();

    let (cfg2, opts2) = (cfg, opts);
    let driver =
        std::thread::spawn(move || run_navp_net(stage, &cfg2, grid, &opts2));

    // Let every PE commit at least its boundary-0 cut for the current
    // session, plus some real progress somewhere, then massacre.
    let manifest_nonce = |dir: &Path| {
        navp_repro::navp::durable::read_manifest(dir)
            .map(|m| m.nonce)
            .ok()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        assert!(std::time::Instant::now() < deadline, "no durable progress");
        if driver.is_finished() {
            break; // tiny run won the race; cuts are still complete
        }
        let nonce = manifest_nonce(&dir);
        let cuts: Vec<_> = (0..4)
            .filter_map(|pe| navp_repro::navp::durable::read_cut(&dir, pe).ok())
            .filter(|c| Some(c.nonce) == nonce)
            .collect();
        if cuts.len() == 4 && cuts.iter().any(|c| c.boundary >= 2) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let raced_to_completion = driver.is_finished();
    for d in &daemons.0 {
        sigkill(d.id());
    }
    let result = driver.join().expect("driver thread");
    if !raced_to_completion {
        assert!(
            result.is_err(),
            "killing every PE must abort the run (got a product?)"
        );
    }
    drop(daemons);

    // Restore from disk onto freshly spawned PEs and finish.
    let opts = net_opts(&dir);
    let out = run_restored_net(stage, &cfg, grid, &opts, &dir).expect("restored net run");
    assert_eq!(out.verified, Some(true));
    let got = out.c.expect("real payload");
    assert_eq!(bits(&got), bits(&want), "kill -9 all + restore is bitwise");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM on a PE daemon is a *graceful* stop: the daemon flushes its
/// durable state, exits with the distinct graceful status, and the
/// driver reports [`RunError::PeStopped`] — not a crash, not a generic
/// disconnect. The stopped run then restores from disk bitwise.
#[test]
fn sigterm_is_graceful_and_reported_as_pe_stopped() {
    let cfg = MmConfig::real(16, 2).with_watchdog(Duration::from_secs(60));
    let stage = NavpStage::Dsc1D;
    let grid = Grid2D::line(4).expect("grid");
    let want = run_navp_threads(stage, &cfg, grid)
        .expect("thread baseline")
        .c
        .expect("real payload");

    let dir = tmp("net-sigterm");
    let ports = [7471u16, 7472, 7473, 7474];
    let daemons = Daemons::spawn(&dir, &ports);
    std::thread::sleep(Duration::from_millis(300));
    let mut opts = net_opts(&dir);
    opts.join = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();

    let (cfg2, opts2) = (cfg, opts);
    let driver =
        std::thread::spawn(move || run_navp_net(stage, &cfg2, grid, &opts2));
    // Stop PE 0 once it has committed progress in this session.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut stopped = false;
    while !driver.is_finished() {
        assert!(std::time::Instant::now() < deadline, "no durable progress");
        let nonce = navp_repro::navp::durable::read_manifest(&dir)
            .map(|m| m.nonce)
            .ok();
        let ready = navp_repro::navp::durable::read_cut(&dir, 0)
            .ok()
            .is_some_and(|c| Some(c.nonce) == nonce && c.boundary >= 2);
        if ready {
            let _ = std::process::Command::new("kill")
                .arg(daemons.0[0].id().to_string())
                .status();
            stopped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let result = driver.join().expect("driver thread");
    if stopped {
        match result {
            Err(RunnerError::Navp(RunError::PeStopped { pe: 0 })) => {}
            Err(e) => panic!("expected PeStopped for PE 0, got: {e}"),
            Ok(_) => panic!("run completed although PE 0 was stopped mid-run"),
        }
        drop(daemons);
        let opts = net_opts(&dir);
        let out = run_restored_net(stage, &cfg, grid, &opts, &dir).expect("restored net run");
        assert_eq!(out.verified, Some(true));
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "graceful stop + restore is bitwise");
    }
    // else: the run finished before PE 0 made visible progress — the
    // deadline assert above guarantees we never pass vacuously on a
    // hang, and the race is legitimate on a fast machine.
    std::fs::remove_dir_all(&dir).ok();
}
