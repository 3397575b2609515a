//! The virtual-time executors must be bit-deterministic: identical
//! configurations produce identical makespans and identical traces
//! (compared by fingerprint), on every run. This is what makes the
//! regenerated tables reproducible artifacts rather than measurements.

use navp_repro::navp::SimExecutor;
use navp_repro::navp_kv::{run_kv_sim, KvConfig, KvStage};
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::gentleman::GentlemanOpts;
use navp_repro::navp_mm::runner::{run_mp_sim, run_navp_sim, MpAlg, NavpStage};
use navp_repro::navp_mm::{dpc2d, util::Topo2D};
use navp_repro::navp_sim::CostModel;

/// Virtual makespan and trace fingerprint of every GEMM stage at
/// `MmConfig::phantom(256, 32)`, pinned to recorded values. Comparing
/// two runs of one binary cannot catch a change that reorders
/// simulated events; these constants can.
const GEMM_GOLDEN: [(NavpStage, f64, u64); 6] = [
    (NavpStage::Dsc1D, 0.360936347, 0x1586_f514_11f9_06d3),
    (NavpStage::Pipe1D, 0.177100392, 0xdcb1_2fc6_90fc_4a18),
    (NavpStage::Phase1D, 0.160057121, 0xdb09_63f7_5eb3_2009),
    (NavpStage::Dsc2D, 0.125863776, 0xde14_76cc_613c_c645),
    (NavpStage::Pipe2D, 0.101046541, 0xfa45_514b_983e_577a),
    (NavpStage::Dpc2D, 0.095071207, 0xa27b_92f9_f991_b540),
];

/// The same pin for the three distributed kv steps (4 PEs, 400 ops in
/// 8 batches).
const KV_GOLDEN: [(KvStage, f64, u64); 3] = [
    (KvStage::Dsc, 0.39767717, 0x6b73_f3f5_a079_b46c),
    (KvStage::Pipe, 0.062302182, 0x817d_9405_6b17_c15a),
    (KvStage::Phase, 0.062473461, 0x498b_4cf7_4a00_1d37),
];

#[test]
fn navp_sim_runs_are_bit_identical() {
    let cfg = MmConfig::phantom(256, 32);
    for (stage, secs, fp) in GEMM_GOLDEN {
        let grid = if stage.is_1d() {
            Grid2D::line(2).expect("grid")
        } else {
            Grid2D::new(2, 2).expect("grid")
        };
        let run = || {
            run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), true)
                .expect("runs")
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.virt_seconds, b.virt_seconds,
            "{} nondeterministic makespan",
            stage.name()
        );
        let (fa, fb) = (
            a.trace.expect("trace").fingerprint(),
            b.trace.expect("trace").fingerprint(),
        );
        assert_eq!(fa, fb, "{} nondeterministic trace", stage.name());
        assert_eq!(a.virt_seconds, Some(secs), "{} makespan moved", stage.name());
        assert_eq!(fa, fp, "{} trace fingerprint moved", stage.name());
    }
    let cfg = KvConfig::new(400, 8);
    for (stage, secs, fp) in KV_GOLDEN {
        let out = run_kv_sim(stage, &cfg, 4, &CostModel::paper_cluster(), true).expect("kv sim");
        let f = out.trace.expect("trace").fingerprint();
        assert_eq!(out.virt_seconds, Some(secs), "{stage} makespan moved");
        assert_eq!(f, fp, "{stage} trace fingerprint moved");
    }
}

#[test]
fn mp_sim_runs_are_bit_identical() {
    let cfg = MmConfig::phantom(256, 32);
    let grid = Grid2D::new(2, 2).expect("grid");
    for alg in [MpAlg::Gentleman(GentlemanOpts::default()), MpAlg::Summa] {
        let run = || run_mp_sim(alg, &cfg, grid, &CostModel::paper_cluster()).expect("runs");
        let (a, b) = (run(), run());
        assert_eq!(a.virt_seconds, b.virt_seconds, "{}", alg.name());
        assert_eq!(a.transfers, b.transfers, "{}", alg.name());
        assert_eq!(a.bytes, b.bytes, "{}", alg.name());
    }
}

#[test]
fn different_configurations_give_different_fingerprints() {
    let grid = Grid2D::new(2, 2).expect("grid");
    let cost = CostModel::paper_cluster();
    let f = |n: usize, ab: usize| {
        let cfg = MmConfig::phantom(n, ab);
        let topo = Topo2D::new(cfg.nb(), grid).expect("topo");
        let (a, b) = cfg.operands().expect("operands");
        let cl = dpc2d::cluster(&cfg, &topo, &a, &b).expect("cluster");
        SimExecutor::new(cost)
            .with_trace()
            .run(cl)
            .expect("runs")
            .trace
            .fingerprint()
    };
    let a = f(256, 32);
    let b = f(256, 64);
    let c = f(512, 32);
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_ne!(b, c);
}

#[test]
fn real_and_phantom_payloads_cost_the_same() {
    // The phantom substitution is only valid if it charges exactly the
    // costs a real run would.
    let grid = Grid2D::new(2, 2).expect("grid");
    for stage in [NavpStage::Dpc2D, NavpStage::Pipe2D, NavpStage::Dsc2D] {
        let real = run_navp_sim(
            stage,
            &MmConfig::real(64, 16),
            grid,
            &CostModel::paper_cluster(),
            false,
        )
        .expect("runs");
        let phantom = run_navp_sim(
            stage,
            &MmConfig::phantom(64, 16),
            grid,
            &CostModel::paper_cluster(),
            false,
        )
        .expect("runs");
        assert_eq!(
            real.virt_seconds,
            phantom.virt_seconds,
            "{} phantom run must cost exactly what the real run costs",
            stage.name()
        );
        assert_eq!(real.transfers, phantom.transfers, "{}", stage.name());
        assert_eq!(real.bytes, phantom.bytes, "{}", stage.name());
    }
}
