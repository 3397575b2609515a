//! Quickstart: the NavP programming model in five minutes.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Part 1 writes a tiny navigational program by hand — a messenger that
//! hops after distributed data, a producer/consumer pair synchronized by
//! events — and runs it on both executors.
//!
//! Part 2 multiplies two real matrices with the paper's final program
//! (2-D full DPC, Figure 15) and verifies the product against the
//! sequential kernel.

use navp_repro::navp::script::Script;
use navp_repro::navp::{Cluster, Effect, Key, SimExecutor, ThreadExecutor};
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::runner::{run_navp, run_navp_sim, NavpStage, On, Run};
use navp_repro::navp_sim::CostModel;

fn main() {
    part1_navigational_programming();
    part2_matrix_multiplication();
}

fn part1_navigational_programming() {
    println!("== Part 1: messengers, node variables, events ==\n");

    // A cluster of three PEs. Node variables are placed before the run —
    // here, PE 2 holds a "large" value that stays put.
    let mut cluster = Cluster::new(3).expect("cluster");
    cluster
        .store_mut(2)
        .insert(Key::plain("big-data"), 21.0f64, 8);

    // A messenger: its struct fields (here, captured state in the
    // closures) are agent variables that migrate with it. It hops to the
    // data, computes, leaves the result as a node variable, and signals.
    cluster.inject(
        0,
        Script::new("worker")
            .then(|_| Effect::Hop(2)) // chase the large data
            .then(|ctx| {
                let x = *ctx
                    .store()
                    .get::<f64>(Key::plain("big-data"))
                    .expect("placed at setup");
                ctx.store().insert(Key::plain("result"), 2.0 * x, 8);
                ctx.signal(Key::plain("ready"));
                Effect::Done
            }),
    );

    // A second messenger waits for the event — MESSENGERS' waitEvent.
    cluster.inject(
        2,
        Script::new("reader")
            .then(|_| Effect::WaitEvent(Key::plain("ready")))
            .then(|ctx| {
                let r = *ctx.store().get::<f64>(Key::plain("result")).expect("set");
                println!("reader saw result = {r} on PE {}", ctx.here());
                Effect::Done
            }),
    );

    // Run under the calibrated virtual-time model of the paper's 2003
    // cluster...
    let report = SimExecutor::new(CostModel::paper_cluster())
        .run(cluster)
        .expect("no deadlock");
    println!(
        "virtual time {:.6} s, {} hops, {} steps\n",
        report.makespan.as_secs_f64(),
        report.hops,
        report.steps
    );

    // ...and the same program on real OS threads.
    let mut cluster = Cluster::new(3).expect("cluster");
    cluster.store_mut(2).insert(Key::plain("big-data"), 21.0f64, 8);
    cluster.inject(
        0,
        Script::new("worker")
            .then(|_| Effect::Hop(2))
            .then(|ctx| {
                let x = *ctx.store().get::<f64>(Key::plain("big-data")).expect("set");
                ctx.store().insert(Key::plain("result"), 2.0 * x, 8);
                Effect::Done
            }),
    );
    let report = ThreadExecutor::new().run(cluster).expect("run");
    println!(
        "thread executor: wall {:?}, result = {:?}\n",
        report.wall,
        report.stores[2].get::<f64>(Key::plain("result"))
    );
}

fn part2_matrix_multiplication() {
    println!("== Part 2: the paper's full DPC matrix multiply ==\n");
    // Real payloads: the product is verified against the sequential
    // kernel. N = 240, algorithmic blocks of order 40, 2x2 PEs.
    let cfg = MmConfig::real(240, 40);
    let grid = Grid2D::new(2, 2).expect("grid");

    let sim = run_navp_sim(
        NavpStage::Dpc2D,
        &cfg,
        grid,
        &CostModel::paper_cluster(),
        false,
    )
    .expect("run");
    println!(
        "virtual time on the 2003 cluster: {:.3} s (verified: {:?})",
        sim.virt_seconds.expect("sim"),
        sim.verified
    );

    let wall = run_navp(NavpStage::Dpc2D, &cfg, grid, Run::on(On::Threads)).expect("run");
    println!(
        "wall time on this machine:        {:?} (verified: {:?})",
        wall.wall.expect("threads"),
        wall.verified
    );
    assert_eq!(sim.verified, Some(true));
    assert_eq!(wall.verified, Some(true));
    println!("\nquickstart OK");
}
