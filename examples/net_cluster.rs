//! A real distributed run: four `navp-pe` OS processes on loopback
//! TCP execute the 2-D pipelined stage, first clean, then with a
//! seeded hop-delay fault plan stressing the transport — and both
//! products match the in-process thread executor **bitwise**.
//!
//! Run with:
//!
//! ```text
//! cargo build --release          # builds the navp-pe daemon
//! cargo run --release --example net_cluster
//! ```
//!
//! The driver spawns the four PE processes itself and wires the full
//! TCP mesh. To spread the same cluster over real machines instead,
//! start `navp-pe --listen host:port` on each and hand the addresses
//! to `NetOpts::join` — nothing else changes. This example does that
//! itself when `NAVP_NET_JOIN` names comma-separated addresses
//! (which is how CI points it at daemons started with
//! `--metrics-addr`, then curls their live `/metrics` endpoints).
//! Four addresses reproduce the default 2×2 pipelined demo; any other
//! count runs the phase-shifted 1-D stage on a line mesh of that many
//! PEs — the CI high-PE job drives 64 this way:
//!
//! ```text
//! navp-pe --listen 127.0.0.1:7101 --metrics-addr 127.0.0.1:9101 &
//! ... (four daemons) ...
//! NAVP_NET_JOIN=127.0.0.1:7101,... cargo run --release --example net_cluster
//! curl -s http://127.0.0.1:9101/metrics
//! curl -s http://127.0.0.1:9101/healthz
//! ```

use navp_repro::navp::FaultPlan;
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run};

fn main() {
    let opts = match std::env::var("NAVP_NET_JOIN") {
        Ok(v) => {
            let join: Vec<String> = v.split(',').map(str::to_string).collect();
            assert!(join.len() >= 2, "NAVP_NET_JOIN needs >=2 addresses, got {v}");
            println!("joining externally started daemons: {join:?}");
            NetOpts {
                join,
                ..NetOpts::default()
            }
        }
        Err(_) => NetOpts::default(), // spawn navp-pe next to this executable
    };
    // Metrics on: every PE daemon meters its run and the driver merges
    // the per-PE registries into one cluster snapshot at drain. Four
    // PEs (the default spawn count) demo the 2-D pipelined stage on a
    // 2×2 mesh; any other join count runs phase1d on a line mesh that
    // wide, with the problem scaled so every PE owns two block rows.
    let pes = if opts.join.is_empty() { 4 } else { opts.join.len() };
    let (grid, stage, cfg, watchdog) = if pes == 4 {
        (
            Grid2D::new(2, 2).expect("grid"),
            NavpStage::Pipe2D,
            MmConfig::real(24, 4),
            None,
        )
    } else {
        (
            Grid2D::line(pes).expect("grid"),
            NavpStage::Phase1D,
            MmConfig::real(4 * pes, 2),
            Some(std::time::Duration::from_secs(180)),
        )
    };
    let run = |on| Run::on(on).metrics(true).watchdog(watchdog);

    println!("== {} on a {pes}-process loopback cluster ==\n", stage.name());

    // Reference product from the in-process thread executor.
    let reference = run_navp(stage, &cfg, grid, run(On::Threads)).expect("thread run");

    // Clean networked run: every hop is a serialized messenger snapshot
    // crossing a real TCP socket between OS processes.
    let clean = run_navp(stage, &cfg, grid, run(On::Net(&opts))).expect("networked run");
    report("clean", &clean);
    assert_eq!(clean.verified, Some(true));
    assert_eq!(
        reference.c, clean.c,
        "networked product must match threads bitwise"
    );
    println!("         product bitwise-identical to the thread executor\n");

    // The merged cluster metrics, collected over the mesh at drain —
    // including the event loop's own I/O series (frames sent, frames
    // coalesced into a neighbour's buffer, writev flushes).
    let snap = clean.metrics.as_ref().expect("metered run");
    println!("cluster metrics (merged over {pes} PEs):");
    for name in [
        "navp_hops_total",
        "navp_hop_bytes_total",
        "navp_steps_total",
        "navp_events_signaled_total",
        "navp_frame_encode_bytes_total",
        "navp_frame_decode_bytes_total",
        "navp_net_io_frames_total",
        "navp_net_io_coalesced_frames_total",
        "navp_net_io_writev_total",
        "navp_net_io_flushed_bytes_total",
    ] {
        println!("  {name:<36} {}", snap.total(name) as u64);
    }
    assert!(
        snap.total("navp_net_io_frames_total") > 0.0,
        "the event loop's I/O counters must land in the merged snapshot"
    );
    println!();

    // Now hold individual frames back at the sockets: a deterministic
    // hop-delay plan (delay-only — the data path is untouched, only
    // arrival times move).
    let mut plan = FaultPlan::new();
    for (pe, (nth, secs)) in [(1, 0.10), (2, 0.15), (1, 0.10), (1, 0.05)]
        .into_iter()
        .enumerate()
        .take(pes)
    {
        plan = plan.delay_hop(pe, nth, secs);
    }
    println!("injecting: {plan:?}");
    let delayed =
        run_navp(stage, &cfg, grid, run(On::Net(&opts)).plan(Some(plan))).expect("delayed run");
    report("delayed", &delayed);
    let f = delayed.faults.expect("networked runs report fault stats");
    println!("         hops held at the socket: {}", f.hops_delayed);
    assert!(f.hops_delayed > 0);
    // The same injections, seen three ways: aggregate FaultStats,
    // per-PE FaultStats, and the navp_fault_injections_total counter.
    let per_pe_delayed: u64 = delayed
        .per_pe_net
        .as_ref()
        .expect("per-PE stats")
        .iter()
        .map(|s| s.faults.hops_delayed)
        .sum();
    assert_eq!(per_pe_delayed, f.hops_delayed, "per-PE faults must sum up");
    let injected = delayed
        .metrics
        .as_ref()
        .expect("metered run")
        .total("navp_fault_injections_total") as u64;
    println!("         navp_fault_injections_total: {injected}");
    assert!(injected >= f.hops_delayed, "counter must cover the delays");
    assert_eq!(delayed.verified, Some(true));
    assert_eq!(
        reference.c, delayed.c,
        "delays must never change the product"
    );
    println!("         product still bitwise-identical\n");

    println!("ok: TCP cluster reproduces the thread executor bit for bit");
}

/// Print the per-PE transfer table for one networked run.
fn report(label: &str, out: &navp_repro::navp_mm::runner::RunOutput) {
    let per_pe = out.per_pe_net.as_ref().expect("per-PE stats");
    println!(
        "{label:>8}: wall {:?}, {} hops, {} wire bytes",
        out.wall.expect("wall clock"),
        out.transfers,
        out.bytes
    );
    println!("          PE   steps    hops   payload B");
    for (pe, s) in per_pe.iter().enumerate() {
        println!(
            "          {pe:>2} {:>7} {:>7} {:>11}",
            s.steps, s.hops, s.hop_payload_bytes
        );
    }
}
