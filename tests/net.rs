//! Networked-executor parity: a 4-PE loopback cluster of real OS
//! processes must produce the *bitwise identical* product to the
//! in-process thread executor.
//!
//! Bitwise (not epsilon) equality is the acceptance bar because the
//! block-kernel summation order is fixed by the algorithm, and the
//! wire protocol moves every `f64` as its exact bit pattern — any
//! difference at all means the wire layer corrupted or reordered a
//! contribution.

use navp_repro::navp::FaultPlan;
use navp_repro::navp_kv::{run_kv, KvConfig, KvStage};
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run};
use navp_repro::navp_mm::MmConfig;
use std::time::Duration;

/// The `navp-pe` daemon this crate ships, resolved by Cargo.
fn opts() -> NetOpts {
    NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    }
}

fn run(on: On<'_>) -> Run<'_> {
    // Generous watchdog: CI machines can be slow to spawn 4 processes.
    Run::on(on).watchdog(Some(Duration::from_secs(60)))
}

fn grid_for(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(4).expect("grid")
    } else {
        Grid2D::new(2, 2).expect("grid")
    }
}

/// The ISSUE acceptance triple: one 1-D DSC stage, one 2-D pipelined
/// stage, one phase-shifted stage, each on 4 PEs with real payloads.
const STAGES: [NavpStage; 3] = [NavpStage::Dsc1D, NavpStage::Pipe2D, NavpStage::Phase1D];

#[test]
fn net_product_is_bitwise_identical_to_threads() {
    let cfg = MmConfig::real(16, 2);
    for stage in STAGES {
        let grid = grid_for(stage);
        let want = run_navp(stage, &cfg, grid, run(On::Threads))
            .unwrap_or_else(|e| panic!("{} threads: {e}", stage.name()));
        let got = run_navp(stage, &cfg, grid, run(On::Net(&opts())))
            .unwrap_or_else(|e| panic!("{} net: {e}", stage.name()));
        assert_eq!(got.verified, Some(true), "{} net product wrong", stage.name());
        let (want_c, got_c) = (want.c.expect("threads c"), got.c.expect("net c"));
        assert_eq!(
            want_c.max_abs_diff(&got_c),
            0.0,
            "{}: net product differs from threads",
            stage.name()
        );
    }
}

#[test]
fn net_parity_survives_a_seeded_hop_delay_plan() {
    // Delay-only plan: `FaultPlan::seeded` always includes a crash, and
    // a crash intentionally perturbs timing stats — for *parity* we
    // want faults that stress the transport without touching the data
    // path semantics. Deterministic (seed-derived) delays on three PEs.
    let cfg = MmConfig::real(16, 2);
    for stage in STAGES {
        let grid = grid_for(stage);
        let plan = FaultPlan::new()
            .delay_hop(0, 1, 0.05)
            .delay_hop(1, 2, 0.08)
            .delay_hop(2, 1, 0.05)
            .delay_hop(3, 1, 0.03);
        let want = run_navp(stage, &cfg, grid, run(On::Threads))
            .unwrap_or_else(|e| panic!("{} threads: {e}", stage.name()));
        let got = run_navp(stage, &cfg, grid, run(On::Net(&opts())).plan(Some(plan)))
            .unwrap_or_else(|e| panic!("{} net+delays: {e}", stage.name()));
        assert_eq!(got.verified, Some(true), "{} under delays", stage.name());
        let faults = got.faults.expect("fault stats");
        assert!(
            faults.hops_delayed > 0,
            "{}: the delay plan never fired",
            stage.name()
        );
        assert_eq!(
            want.c.expect("threads c").max_abs_diff(&got.c.expect("net c")),
            0.0,
            "{}: delayed net product differs from threads",
            stage.name()
        );
    }
}

#[test]
fn net_recovers_a_crashed_pe_process_with_full_parity() {
    // crash = the PE *process* exits mid-run and is restarted from the
    // hop-delivery checkpoint; the product must still match bitwise.
    let cfg = MmConfig::real(16, 2);
    let grid = Grid2D::line(4).expect("grid");
    let plan = FaultPlan::new()
        .crash_pe(2, 1)
        .with_retry(4, Duration::from_millis(50));
    let want = run_navp(NavpStage::Dsc1D, &cfg, grid, run(On::Threads)).expect("threads");
    let got = run_navp(
        NavpStage::Dsc1D,
        &cfg,
        grid,
        run(On::Net(&opts())).plan(Some(plan)),
    )
    .expect("net crash recovery");
    assert_eq!(got.verified, Some(true));
    let faults = got.faults.expect("fault stats");
    assert!(faults.crashes >= 1, "the crash never fired: {faults:?}");
    assert_eq!(
        want.c.expect("threads c").max_abs_diff(&got.c.expect("net c")),
        0.0,
        "recovered net product differs from threads"
    );
}

#[test]
fn net_reports_consistent_per_pe_stats() {
    let cfg = MmConfig::real(16, 2);
    let grid = Grid2D::line(4).expect("grid");
    let out = run_navp(NavpStage::Dsc1D, &cfg, grid, run(On::Net(&opts()))).expect("net");
    let per_pe = out.per_pe_net.expect("networked runs report per-PE stats");
    assert_eq!(per_pe.len(), 4);
    let hops: u64 = per_pe.iter().map(|s| s.hops).sum();
    assert_eq!(hops, out.transfers, "per-PE hop sum disagrees with total");
    assert!(
        per_pe.iter().all(|s| s.steps > 0),
        "every PE should run at least one messenger step: {per_pe:?}"
    );
    assert!(
        out.bytes >= per_pe.iter().map(|s| s.hop_payload_bytes).sum::<u64>(),
        "wire bytes include framing and must dominate raw payload bytes"
    );
    assert!(out.wall.is_some(), "networked runs are wall-clock timed");
}

/// The event loop's mid-scale regime: a 16-PE line mesh — four times
/// the paper's cluster — must keep bitwise parity with the thread
/// executor. This runs in the regular suite; the 64-PE variant below
/// is `#[ignore]`d and exercised by the CI high-PE job.
#[test]
fn net_parity_holds_on_a_16_pe_line() {
    // nb = 16 block rows: exactly one per PE, so every hop crosses a
    // real socket.
    let cfg = MmConfig::real(32, 2);
    let grid = Grid2D::line(16).expect("grid");
    let want = run_navp(NavpStage::Phase1D, &cfg, grid, run(On::Threads)).expect("threads");
    let got = run_navp(NavpStage::Phase1D, &cfg, grid, run(On::Net(&opts()))).expect("net 16 PEs");
    assert_eq!(got.verified, Some(true));
    assert_eq!(
        want.c.expect("threads c").max_abs_diff(&got.c.expect("net c")),
        0.0,
        "16-PE net product differs from threads"
    );
}

/// High-PE acceptance: 64 real `navp-pe` processes on loopback produce
/// the bitwise-identical product, and the merged metrics snapshot
/// carries the event loop's `navp_net_io_*` series with sane
/// relationships (coalesced ≤ frames, flushed bytes > 0, pending
/// drained back to zero).
#[test]
#[ignore = "spawns 64 OS processes; the CI high-PE job runs it via -- --ignored"]
fn net_64_pe_mesh_keeps_bitwise_parity_and_reports_io_metrics() {
    // nb = 64 block rows, one per PE; generous watchdog for the big
    // spawn + full-mesh handshake.
    let cfg = MmConfig::real(128, 2);
    let run = |on| {
        Run::on(on)
            .watchdog(Some(Duration::from_secs(180)))
            .metrics(true)
    };
    let grid = Grid2D::line(64).expect("grid");
    let want = run_navp(NavpStage::Phase1D, &cfg, grid, run(On::Threads)).expect("threads");
    let got = run_navp(NavpStage::Phase1D, &cfg, grid, run(On::Net(&opts()))).expect("net 64 PEs");
    assert_eq!(got.verified, Some(true));
    assert_eq!(
        want.c.expect("threads c").max_abs_diff(&got.c.expect("net c")),
        0.0,
        "64-PE net product differs from threads"
    );
    let snap = got.metrics.expect("merged metrics snapshot");
    let frames = snap.total("navp_net_io_frames_total");
    let coalesced = snap.total("navp_net_io_coalesced_frames_total");
    let flushed = snap.total("navp_net_io_flushed_bytes_total");
    let writev = snap.total("navp_net_io_writev_total");
    assert!(frames > 0.0, "event loop sent no frames?");
    assert!(writev > 0.0, "event loop never flushed?");
    assert!(flushed > 0.0, "event loop flushed no bytes?");
    assert!(
        coalesced <= frames,
        "coalesced frames ({coalesced}) cannot exceed total frames ({frames})"
    );
    assert_eq!(
        snap.total("navp_net_io_pending_bytes"),
        0.0,
        "send queues must drain to zero by run end"
    );
}

/// The kv journey on a 16-PE mesh of real processes: the distributed
/// product must verify against the sequential reference, proving the
/// event loop handles the kv workload's many tiny frames at scale.
#[test]
#[ignore = "spawns 16 OS processes; the CI high-PE job runs it via -- --ignored"]
fn kv_journey_verifies_on_a_16_pe_net_mesh() {
    let cfg = KvConfig::new(2_000, 8).with_seed(0xFEED_5EED);
    for stage in [KvStage::Dsc, KvStage::Pipe, KvStage::Phase] {
        let reference = run_kv(stage, &cfg, 16, Run::on(On::Threads)).expect("threads");
        assert_eq!(reference.verified, Some(true));
        let got = run_kv(stage, &cfg, 16, Run::on(On::Net(&opts()))).expect("kv net 16 PEs");
        assert_eq!(
            got.verified,
            Some(true),
            "{} kv journey failed to verify on 16 net PEs",
            stage.name()
        );
        assert_eq!(
            got.stats.scanned, reference.stats.scanned,
            "{}: scan volume diverged between executors",
            stage.name()
        );
    }
}
