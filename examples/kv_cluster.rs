//! The NavP journey on the *second* workload: a hash-partitioned
//! key-value store driven through the same four steps as GEMM —
//! sequential, DSC, pipelined, phase-shifted — on a 4-PE mesh of real
//! OS threads, with the phase-shifted step's space-time diagram
//! rendered from a simulated run.
//!
//! Run with: `cargo run --release --example kv_cluster`
//!
//! Every step prints its throughput and must report `verified`: all
//! four products are bitwise identical to the sequential reference —
//! the journey changed *where* operations execute, never *what* they
//! compute.

use navp_repro::navp_kv::{run_kv, run_kv_sim, KvConfig, KvStage};
use navp_repro::navp_mm::{On, Run};
use navp_repro::navp_sim::CostModel;

fn main() {
    let pes = 4;
    let cfg = KvConfig::new(4_000, 16).with_seed(0x5EED_CAFE);
    println!(
        "navp-kv journey: {} ops in {} batches on {pes} PEs (threads)\n",
        cfg.ops, cfg.batches
    );

    let reference = run_kv(KvStage::Seq, &cfg, pes, Run::on(On::Threads))
        .expect("sequential reference")
        .product;

    for (tag, stage) in [
        ("(a) sequential     ", KvStage::Seq),
        ("(b) DSC            ", KvStage::Dsc),
        ("(c) pipelined      ", KvStage::Pipe),
        ("(d) phase-shifted  ", KvStage::Phase),
    ] {
        let out = run_kv(stage, &cfg, pes, Run::on(On::Threads)).expect("run");
        let wall = out.wall.expect("threads report wall time");
        let ops_per_s = out.stats.ops as f64 / wall.as_secs_f64();
        let verified = out.verified == Some(true) && out.product == reference;
        println!(
            "{tag} {:>9.0} ops/s   {:>6} scanned   {} compactions   {}",
            ops_per_s,
            out.stats.scanned,
            out.stats.compactions,
            if verified { "verified" } else { "MISMATCH" },
        );
        assert!(verified, "{stage}: product diverged from the reference");
    }

    // The space-time picture of the phase-shifted step, from the
    // simulation executor (virtual time, paper cost model): columns
    // are PEs, time flows downward, letters are messenger labels.
    // Batch carriers enter the mesh at staggered PEs, so every column
    // is busy almost immediately — same shape as GEMM's Figure 1(d).
    println!("\nphase-shifted space-time (simulated, paper cost model):\n");
    let sim_cfg = KvConfig::new(96, 8).with_seed(0x5EED_CAFE);
    let out = run_kv_sim(
        KvStage::Phase,
        &sim_cfg,
        pes,
        &CostModel::paper_cluster(),
        true,
    )
    .expect("sim run");
    let trace = out.trace.expect("trace requested");
    println!("{}", trace.render_spacetime(pes, 16));
    println!(
        "   makespan {:.3} s (virtual), utilization {:.0}%, {} hops / {:.1} kB moved",
        out.virt_seconds.expect("sim"),
        100.0 * trace.utilization(pes),
        out.transfers,
        out.bytes as f64 / 1e3,
    );
}
