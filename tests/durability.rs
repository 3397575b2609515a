//! Durable-checkpoint integration: every executor's run can be killed
//! mid-computation and restored *from disk* to the bitwise-identical
//! product.
//!
//! Bitwise (not epsilon) equality is the acceptance bar: the cuts
//! record committed `f64` blocks as exact bit patterns and the resumed
//! run replays the identical schedule, so any difference at all means
//! the durable layer lost or corrupted state.

use navp_repro::navp::durable::read_all_cuts;
use navp_repro::navp::{FaultPlan, RunError};
use navp_repro::navp_matrix::{Grid2D, Matrix};
use navp_repro::navp_mm::runner::{
    run_navp, run_navp_sim, NavpStage, NetOpts, On, Run, RunOutput, RunnerError,
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

/// `run`, made durable into `dir` and killed midway by the killer plan.
fn killed<'a>(run: Run<'a>, dir: &Path) -> Run<'a> {
    run.durable(dir).plan(Some(killer_plan()))
}

/// A run on `on` under a generous watchdog: CI machines can be slow to
/// spawn PE processes.
fn run(on: On<'_>) -> Run<'_> {
    Run::on(on).watchdog(Some(Duration::from_secs(60)))
}

fn assert_died_mid_run(result: Result<RunOutput, RunnerError>) {
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
        let sim = Run::on(On::Sim(&cost));
        assert_died_mid_run(run_navp(stage, &cfg, grid, killed(sim, &dir)));
        let out = run_navp(stage, &cfg, grid, Run::on(On::Sim(&cost)).restore(&dir))
            .unwrap_or_else(|e| panic!("{} restore: {e}", stage.name()));
        assert_eq!(out.verified, Some(true), "{} must verify", stage.name());
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "{} bitwise parity", stage.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn threads_killed_runs_restore_bitwise_from_disk() {
    let cfg = MmConfig::real(12, 2);
    for stage in STAGES {
        let grid = grid_for(stage);
        let want = run_navp(stage, &cfg, grid, run(On::Threads))
            .unwrap_or_else(|e| panic!("{} baseline: {e}", stage.name()))
            .c
            .expect("real payload");
        let dir = tmp(&format!("thr-{}", stage.name().replace([' ', '(', ')'], "")));
        assert_died_mid_run(run_navp(stage, &cfg, grid, killed(run(On::Threads), &dir)));
        let out = run_navp(stage, &cfg, grid, run(On::Threads).restore(&dir))
            .unwrap_or_else(|e| panic!("{} restore: {e}", stage.name()));
        assert_eq!(out.verified, Some(true), "{} must verify", stage.name());
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "{} bitwise parity", stage.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A durable run goes down the same path as a plain one, so it honours
/// [`Run::metrics`] the same way: it returns a snapshot, and its hop
/// count is the plain run's.
#[test]
fn durable_threads_run_reports_the_same_metrics_as_a_plain_run() {
    let cfg = MmConfig::real(12, 2);
    let stage = NavpStage::Pipe2D;
    let grid = grid_for(stage);
    let metered = || run(On::Threads).metrics(true);
    let plain = run_navp(stage, &cfg, grid, metered()).expect("plain run");
    let dir = tmp("metered");
    let durable = run_navp(stage, &cfg, grid, metered().durable(&dir)).expect("durable run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(durable.verified, Some(true));
    let hops = |out: &RunOutput| {
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
    let cfg = MmConfig::real(12, 2);
    let cost = CostModel::paper_cluster();
    let stage = NavpStage::Phase1D;
    let grid = grid_for(stage);
    let want = run_navp_sim(stage, &cfg, grid, &cost, false)
        .expect("baseline")
        .c
        .expect("real payload");

    let dir = tmp("sim-to-threads");
    let sim = Run::on(On::Sim(&cost));
    assert_died_mid_run(run_navp(stage, &cfg, grid, killed(sim, &dir)));
    let got = run_navp(stage, &cfg, grid, run(On::Threads).restore(&dir))
        .expect("sim cuts on threads")
        .c
        .expect("real payload");
    assert_eq!(bits(&got), bits(&want), "sim cuts finish on threads bitwise");
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmp("threads-to-sim");
    assert_died_mid_run(run_navp(stage, &cfg, grid, killed(run(On::Threads), &dir)));
    let got = run_navp(stage, &cfg, grid, Run::on(On::Sim(&cost)).restore(&dir))
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
    let sim = || Run::on(On::Sim(&cost));
    assert_died_mid_run(run_navp(stage, &cfg, grid, killed(sim(), &dir)));

    // Pristine cuts restore fine…
    run_navp(stage, &cfg, grid, sim().restore(&dir)).expect("pristine cuts restore");

    // …a flipped byte is caught by the container checksum…
    let cut = dir.join("pe-1.ckpt");
    let pristine = std::fs::read(&cut).unwrap();
    let mut bad = pristine.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    std::fs::write(&cut, &bad).unwrap();
    let err = match run_navp(stage, &cfg, grid, sim().restore(&dir)) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("corrupted cut accepted"),
    };
    assert!(err.contains("checksum"), "{err}");

    // …and a torn (truncated) file is named as such.
    std::fs::write(&cut, &pristine[..mid]).unwrap();
    let err = match run_navp(stage, &cfg, grid, sim().restore(&dir)) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("truncated cut accepted"),
    };
    assert!(err.contains("truncated"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `navp-pe` daemon this crate ships, resolved by Cargo.
fn net_opts() -> NetOpts {
    NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    }
}

/// [`Run::durable`] means the same on every executor: a durable run
/// writes a cut set that [`read_all_cuts`] accepts — one cut per PE,
/// all of the session the manifest names — and [`Run::restore`] finishes
/// it to the plain run's product, bit for bit.
#[test]
fn durable_runs_write_restorable_cuts_on_every_executor() {
    let cfg = MmConfig::real(12, 2);
    let cost = CostModel::paper_cluster();
    let opts = net_opts();
    let stage = NavpStage::Dsc1D;
    let grid = grid_for(stage);
    let want = run_navp(stage, &cfg, grid, run(On::Threads))
        .expect("plain run")
        .c
        .expect("real payload");
    for (name, on) in [
        ("sim", On::Sim(&cost)),
        ("threads", On::Threads),
        ("net", On::Net(&opts)),
    ] {
        let dir = tmp(&format!("every-{name}"));
        let out = run_navp(stage, &cfg, grid, run(on).durable(&dir))
            .unwrap_or_else(|e| panic!("{name} durable run: {e}"));
        assert_eq!(out.verified, Some(true), "{name}");
        let (manifest, cuts) =
            read_all_cuts(&dir).unwrap_or_else(|e| panic!("{name} wrote no cut set: {e}"));
        assert_eq!((manifest.pes, cuts.len()), (3, 3), "{name}: one cut per PE");
        let out = run_navp(stage, &cfg, grid, run(on).restore(&dir))
            .unwrap_or_else(|e| panic!("{name} restore: {e}"));
        assert_eq!(out.verified, Some(true), "{name}");
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "{name}: restored run is bitwise");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Networked executor: real `kill -9` of every OS process.
// ---------------------------------------------------------------------

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
    let cfg = MmConfig::real(16, 2);
    let stage = NavpStage::Dsc1D;
    let grid = Grid2D::line(4).expect("grid");
    let want = run_navp(stage, &cfg, grid, run(On::Threads))
        .expect("thread baseline")
        .c
        .expect("real payload");

    let dir = tmp("net-kill-all");
    let ports = [7461u16, 7462, 7463, 7464];
    let daemons = Daemons::spawn(&dir, &ports);
    std::thread::sleep(Duration::from_millis(300)); // listeners bind
    let mut opts = net_opts();
    opts.join = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();

    let (cfg2, dir2) = (cfg, dir.clone());
    let driver =
        std::thread::spawn(move || run_navp(stage, &cfg2, grid, run(On::Net(&opts)).durable(dir2)));

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
    let opts = net_opts();
    let resumed = run(On::Net(&opts)).durable(&dir).restore(&dir);
    let out = run_navp(stage, &cfg, grid, resumed).expect("restored net run");
    assert_eq!(out.verified, Some(true));
    let got = out.c.expect("real payload");
    assert_eq!(bits(&got), bits(&want), "kill -9 all + restore is bitwise");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM on an idle `--listen` daemon (no driver session in flight)
/// exits it promptly with the graceful status: its accept loop wakes
/// on a bounded wait to check for the stop request.
#[test]
fn sigterm_stops_an_idle_listen_daemon() {
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let mut pe = std::process::Command::new(env!("CARGO_BIN_EXE_navp-pe"))
        .arg("--listen")
        .arg(format!("127.0.0.1:{port}"))
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn navp-pe");
    let pid = pe.id();
    // Wait until the daemon listens; the probe connection closes at
    // once, which ends the session it opened.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while std::net::TcpStream::connect(("127.0.0.1", port)).is_err() {
        if std::time::Instant::now() >= deadline {
            sigkill(pid);
            panic!("navp-pe never listened on {port}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(pe.wait().expect("wait navp-pe")));
    let _ = std::process::Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status();
    let Ok(status) = rx.recv_timeout(Duration::from_secs(5)) else {
        sigkill(pid);
        panic!("idle navp-pe ignored SIGTERM for 5 s");
    };
    waiter.join().unwrap().unwrap();
    assert_eq!(status.code(), Some(navp_repro::navp_net::GRACEFUL_EXIT));
}

/// SIGTERM on a PE daemon is a *graceful* stop: the daemon flushes its
/// durable state, exits with the distinct graceful status, and the
/// driver reports [`RunError::PeStopped`] — not a crash, not a generic
/// disconnect. The stopped run then restores from disk bitwise.
#[test]
fn sigterm_is_graceful_and_reported_as_pe_stopped() {
    let cfg = MmConfig::real(16, 2);
    let stage = NavpStage::Dsc1D;
    let grid = Grid2D::line(4).expect("grid");
    let want = run_navp(stage, &cfg, grid, run(On::Threads))
        .expect("thread baseline")
        .c
        .expect("real payload");

    let dir = tmp("net-sigterm");
    let ports = [7471u16, 7472, 7473, 7474];
    let daemons = Daemons::spawn(&dir, &ports);
    std::thread::sleep(Duration::from_millis(300));
    let mut opts = net_opts();
    opts.join = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();

    let (cfg2, dir2) = (cfg, dir.clone());
    let driver =
        std::thread::spawn(move || run_navp(stage, &cfg2, grid, run(On::Net(&opts)).durable(dir2)));
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
        let opts = net_opts();
        let resumed = run(On::Net(&opts)).durable(&dir).restore(&dir);
        let out = run_navp(stage, &cfg, grid, resumed).expect("restored net run");
        assert_eq!(out.verified, Some(true));
        let got = out.c.expect("real payload");
        assert_eq!(bits(&got), bits(&want), "graceful stop + restore is bitwise");
    }
    // else: the run finished before PE 0 made visible progress — the
    // deadline assert above guarantees we never pass vacuously on a
    // hang, and the race is legitimate on a fast machine.
    std::fs::remove_dir_all(&dir).ok();
}
