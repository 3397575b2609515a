//! Rolling restart of a live 4-process networked cluster under durable
//! checkpoints: each `navp-pe` daemon is terminated mid-computation
//! and replaced in sequence, the run resumes from the on-disk cuts
//! after every replacement, and the final product is **bitwise**
//! identical to an uninterrupted in-process run.
//!
//! Run with:
//!
//! ```text
//! cargo build --release          # builds the navp-pe daemon
//! cargo run --release --example rolling_restart
//! ```
//!
//! What it demonstrates, per round:
//!
//! 1. four `navp-pe --listen --durable-dir` daemons serve the cluster;
//! 2. once the round's victim has committed some run boundaries, it
//!    receives SIGTERM, flushes its durable cut, and exits cleanly —
//!    the driver reports [`RunError::PeStopped`] (or the disconnect of
//!    a peer that lost its mesh), never a wrong product;
//! 3. the victim process is replaced, the cluster state is restored
//!    from the checkpoint directory (`restore latency` below measures
//!    that read+reconcile), and the computation resumes where the
//!    durable cuts left it.
//!
//! After all four daemons have been replaced, a final resumed run
//! completes and the product is compared bit-for-bit against the
//! thread executor's.

use navp_repro::navp::durable::{read_cut, read_manifest};
use navp_repro::navp_matrix::{Grid2D, Matrix};
use navp_repro::navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run, RunOutput, RunnerError};
use navp_repro::navp_mm::MmConfig;
use navp_repro::navp_net::cluster::resolve_pe_bin;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PES: usize = 4;
const BASE_PORT: u16 = 7410;

fn addr(pe: usize) -> String {
    format!("127.0.0.1:{}", BASE_PORT + pe as u16)
}

fn spawn_daemon(bin: &Path, pe: usize, dir: &Path) -> Child {
    Command::new(bin)
        .arg("--listen")
        .arg(addr(pe))
        .arg("--durable-dir")
        .arg(dir)
        .stdin(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()))
}

/// SIGTERM (not SIGKILL): the daemon flushes its durable state and
/// exits with the distinct graceful status.
fn sigterm(child: &Child) {
    let _ = Command::new("kill").arg(child.id().to_string()).status();
}

/// The victim's committed boundary in the *current* session (`None`
/// until its first spill of this session lands).
fn session_boundary(dir: &Path, pe: usize) -> Option<u64> {
    let manifest = read_manifest(dir).ok()?;
    let cut = read_cut(dir, pe).ok()?;
    (cut.nonce == manifest.nonce).then_some(cut.boundary)
}

fn checkpoint_sizes(dir: &Path) -> (u64, Vec<u64>) {
    let mut per_pe = Vec::with_capacity(PES);
    let mut total = 0;
    for pe in 0..PES {
        let bytes = std::fs::metadata(dir.join(format!("pe-{pe}.ckpt")))
            .map(|m| m.len())
            .unwrap_or(0);
        total += bytes;
        per_pe.push(bytes);
    }
    (total, per_pe)
}

fn main() {
    let cfg = MmConfig::real(24, 4); // N = 24, block order 4
    let grid = Grid2D::new(2, 2).expect("grid");
    let stage = NavpStage::Pipe2D;
    let dir = std::env::temp_dir().join(format!("navp-rolling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let bin = resolve_pe_bin(None).expect("navp-pe binary (cargo build --release first)");
    let opts = NetOpts {
        join: (0..PES).map(addr).collect(),
        ..NetOpts::default()
    };

    println!("== rolling restart: {} on {PES} durable PE daemons ==\n", stage.name());

    // The uninterrupted reference product (in-process threads).
    let reference = run_navp(stage, &cfg, grid, Run::on(On::Threads))
        .expect("thread run")
        .c
        .expect("real payload");

    let mut daemons: Vec<Child> = (0..PES).map(|pe| spawn_daemon(&bin, pe, &dir)).collect();
    std::thread::sleep(Duration::from_millis(300)); // listeners bind at exec

    let mut final_out: Option<RunOutput> = None;
    let mut restarted = 0usize;
    // Indexing, not iterating: the body replaces `daemons[victim]`
    // while the rest of the vec keeps serving.
    #[allow(clippy::needless_range_loop)]
    for victim in 0..PES {
        // Drive the (first or resumed) run on a side thread so this
        // one can terminate the victim mid-computation.
        let (cfg2, opts2, dir2) = (cfg, opts.clone(), dir.clone());
        let driver = std::thread::spawn(move || -> Result<RunOutput, RunnerError> {
            let run = Run::on(On::Net(&opts2)).durable(&dir2);
            if victim == 0 {
                run_navp(stage, &cfg2, grid, run)
            } else {
                run_navp(stage, &cfg2, grid, run.restore(&dir2))
            }
        });

        // Wait for the victim to commit real progress in *this*
        // session (its cut carries the session nonce), then stop it.
        let mut killed = false;
        while !driver.is_finished() {
            if session_boundary(&dir, victim).is_some_and(|b| b >= 2) {
                sigterm(&daemons[victim]);
                killed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let result = driver.join().expect("driver thread");
        match result {
            Ok(out) => {
                // The run beat the kill (tiny problems finish fast);
                // the product is already complete.
                println!("round {victim}: run completed before the stop landed");
                if killed {
                    let _ = daemons[victim].wait();
                    daemons[victim] = spawn_daemon(&bin, victim, &dir);
                }
                final_out = Some(out);
                break;
            }
            Err(e) => {
                assert!(killed, "run may only fail because we stopped a PE: {e}");
                let status = daemons[victim].wait().expect("victim exit status");
                let (total, per_pe) = checkpoint_sizes(&dir);
                println!(
                    "round {victim}: stopped PE {victim} mid-run (driver saw: {e}; victim exit {status}); \
                     cuts on disk: {total} B total {per_pe:?}"
                );
                // Replace the stopped daemon — the other three keep
                // serving — and measure how long the state takes to
                // come back from disk.
                daemons[victim] = spawn_daemon(&bin, victim, &dir);
                restarted += 1;
                let t0 = Instant::now();
                let restored = navp_repro::navp_net::restore_from_dir(&dir).expect("restore");
                println!(
                    "  restore latency: {:.2?} ({} PEs reconciled)",
                    t0.elapsed(),
                    PES
                );
                drop(restored); // the resumed run re-reads the cuts itself
                std::thread::sleep(Duration::from_millis(200)); // replacement binds
            }
        }
    }

    // All four daemons were replaced (or the run finished early): one
    // final resumed run completes the computation.
    let out = match final_out {
        Some(out) => out,
        None => {
            let run = Run::on(On::Net(&opts)).durable(&dir).restore(&dir);
            run_navp(stage, &cfg, grid, run).expect("final resumed run")
        }
    };
    let c = out.c.as_ref().expect("real payload");
    assert_eq!(out.verified, Some(true), "product must verify");
    assert!(bitwise_eq(c, &reference), "product must be bitwise-identical");
    println!(
        "\nrolled through {restarted} daemon replacements; final product bitwise-identical \
         to the uninterrupted run ({} hops, {} wire bytes)",
        out.transfers, out.bytes
    );

    for d in &mut daemons {
        let _ = d.kill();
        let _ = d.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
