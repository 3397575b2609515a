//! Cross-crate correctness: every implementation, on both executors,
//! over a range of problem shapes, must reproduce the sequential
//! product exactly (same block-kernel summation order ⇒ bitwise-close
//! results; we allow 1e-9 absolute slack).

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::gentleman::{GentlemanOpts, Scheduling, Stagger};
use navp_repro::navp_mm::runner::{
    run_mp_sim, run_mp_threads, run_navp, run_navp_sim, run_seq_sim, MpAlg, NavpStage, On, Run,
};
use navp_repro::navp_sim::CostModel;

fn grids_for(stage: NavpStage) -> Vec<Grid2D> {
    if stage.is_1d() {
        vec![
            Grid2D::line(1).expect("grid"),
            Grid2D::line(2).expect("grid"),
            Grid2D::line(3).expect("grid"),
            Grid2D::line(6).expect("grid"),
        ]
    } else {
        vec![
            Grid2D::new(1, 1).expect("grid"),
            Grid2D::new(2, 2).expect("grid"),
            Grid2D::new(3, 3).expect("grid"),
            Grid2D::new(2, 3).expect("grid"),
            Grid2D::new(3, 2).expect("grid"),
        ]
    }
}

#[test]
fn every_navp_stage_on_sim_executor() {
    for (n, ab) in [(12, 2), (24, 4), (18, 3)] {
        let cfg = MmConfig::real(n, ab);
        for stage in NavpStage::ALL {
            for grid in grids_for(stage) {
                let out =
                    run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), false)
                        .unwrap_or_else(|e| {
                            panic!("{} n={n} ab={ab} {grid:?}: {e}", stage.name())
                        });
                assert_eq!(
                    out.verified,
                    Some(true),
                    "{} wrong product at n={n} ab={ab} grid={grid:?}",
                    stage.name()
                );
            }
        }
    }
}

#[test]
fn every_navp_stage_on_thread_executor() {
    let cfg = MmConfig::real(24, 4);
    for stage in NavpStage::ALL {
        for grid in grids_for(stage) {
            let out = run_navp(stage, &cfg, grid, Run::on(On::Threads))
                .unwrap_or_else(|e| panic!("{} {grid:?}: {e}", stage.name()));
            assert_eq!(
                out.verified,
                Some(true),
                "{} wrong product on threads, grid={grid:?}",
                stage.name()
            );
        }
    }
}

#[test]
fn gentleman_all_variants_both_executors() {
    let cfg = MmConfig::real(24, 4);
    let grid = Grid2D::new(2, 2).expect("grid");
    for stagger in [Stagger::SingleStep, Stagger::Stepwise] {
        for scheduling in [Scheduling::Strict, Scheduling::Overlapped] {
            let opts = GentlemanOpts {
                stagger,
                scheduling,
                ..Default::default()
            };
            let alg = MpAlg::Gentleman(opts);
            let sim = run_mp_sim(alg, &cfg, grid, &CostModel::paper_cluster())
                .unwrap_or_else(|e| panic!("{stagger:?}/{scheduling:?}: {e}"));
            assert_eq!(sim.verified, Some(true), "{stagger:?}/{scheduling:?} sim");
            let wall = run_mp_threads(alg, &cfg, grid)
                .unwrap_or_else(|e| panic!("{stagger:?}/{scheduling:?} threads: {e}"));
            assert_eq!(wall.verified, Some(true), "{stagger:?}/{scheduling:?} threads");
        }
    }
}

#[test]
fn gentleman_on_3x3_and_single_rank() {
    for (n, ab, p) in [(18, 3, 3), (12, 2, 1)] {
        let cfg = MmConfig::real(n, ab);
        let grid = Grid2D::new(p, p).expect("grid");
        let out = run_mp_sim(
            MpAlg::Gentleman(GentlemanOpts::default()),
            &cfg,
            grid,
            &CostModel::paper_cluster(),
        )
        .unwrap_or_else(|e| panic!("{p}x{p}: {e}"));
        assert_eq!(out.verified, Some(true), "{p}x{p}");
    }
}

#[test]
fn summa_rectangular_grids() {
    let cfg = MmConfig::real(24, 4); // nb = 6
    for (r, c) in [(1, 2), (2, 1), (1, 3), (2, 3), (3, 2), (6, 1)] {
        let grid = Grid2D::new(r, c).expect("grid");
        let out = run_mp_sim(MpAlg::Summa, &cfg, grid, &CostModel::paper_cluster())
            .unwrap_or_else(|e| panic!("{r}x{c}: {e}"));
        assert_eq!(out.verified, Some(true), "{r}x{c}");
    }
}

#[test]
fn sequential_oracle_is_self_consistent() {
    let cfg = MmConfig::real(24, 4);
    let out = run_seq_sim(&cfg, &CostModel::paper_cluster()).expect("seq");
    assert_eq!(out.verified, Some(true));
    // And against the dense (non-blocked) kernel.
    let (a, b) = cfg.operands().expect("operands");
    let dense = a
        .to_matrix()
        .expect("real")
        .multiply(&b.to_matrix().expect("real"))
        .expect("shapes");
    assert!(dense.max_abs_diff(&out.c.expect("real")) < 1e-9);
}

#[test]
fn block_order_one_works() {
    // The paper's fine-grain description: every "block" is one entry.
    let cfg = MmConfig::real(6, 1);
    let grid = Grid2D::new(2, 2).expect("grid");
    for stage in [NavpStage::Pipe2D, NavpStage::Dpc2D] {
        let out = run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), false)
            .unwrap_or_else(|e| panic!("{}: {e}", stage.name()));
        assert_eq!(out.verified, Some(true), "{}", stage.name());
    }
}
