//! Deterministic fault-space fuzzing of the case-study stages.
//!
//! [`product_bytes`] is the GEMM side of the one fault-space driver
//! ([`navp::explore`]): it runs a stage end to end under one
//! [`FaultPlan`] and reduces the run to its product's bytes, the bitwise
//! parity oracle. [`navp::explore::explore`] sweeps seeded schedules
//! through it, delta-minimizes each violation and writes it as a
//! replayable `repro-<seed>.navpfault` file, which
//! [`navp::explore::replay`] (or the `navp-fuzz` binary, or the
//! `NAVP_FAULT_SPEC` environment variable) replays exactly.
//!
//! Because both the schedule generation and the executors are
//! deterministic, a seed is a complete bug report: the same root seed
//! explores the same schedules in the same order on every machine.

use crate::config::MmConfig;
use crate::runner::{run_navp, NavpStage, On, Run, RunnerError};
use navp::{FaultPlan, RunError};
use navp_matrix::Grid2D;

/// One complete run of `stage` under `plan` on `on`, reduced to the
/// product's little-endian `f64` stream. Two runs match under
/// [`navp::explore::classify`] iff their products are bit-for-bit equal.
pub fn product_bytes(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    on: On<'_>,
    plan: &FaultPlan,
) -> Result<Vec<u8>, RunError> {
    let out =
        run_navp(stage, cfg, grid, Run::on(on).plan(Some(plan.clone()))).map_err(|e| match e {
            RunnerError::Navp(e) => e,
            other => RunError::Transport {
                detail: other.to_string(),
            },
        })?;
    out.c
        .map(|c| c.to_le_bytes())
        .ok_or_else(|| RunError::Transport {
            detail: "fuzzing needs real payloads (the product is the parity oracle)".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp::explore::{explore, replay, ExploreConfig, ExploreReport, Outcome};
    use navp_sim::CostModel;

    /// Sweep `schedules` seeds from `root_seed` over `stage` at n=8 on
    /// two sim PEs.
    fn sweep(stage: NavpStage, root_seed: u64, schedules: usize) -> ExploreReport {
        let cfg = MmConfig::real(8, 2);
        let grid = Grid2D::line(2).unwrap();
        let cost = CostModel::paper_cluster();
        let ecfg = ExploreConfig::new(root_seed, schedules, grid.rows * grid.cols);
        explore(&ecfg, |plan| {
            product_bytes(stage, &cfg, grid, On::Sim(&cost), plan)
        })
        .unwrap()
    }

    #[test]
    fn fuzzing_a_healthy_stage_finds_no_violations() {
        let report = sweep(NavpStage::Dsc1D, 11, 24);
        assert_eq!(report.explored, 24);
        assert!(
            report.violations.is_empty(),
            "parity violations on a healthy runtime: {:?}",
            report.violations
        );
        assert!(report.matches > 0, "some schedules must complete");
    }

    #[test]
    fn fuzzing_is_deterministic_in_the_root_seed() {
        let a = sweep(NavpStage::Pipe1D, 5, 12);
        let b = sweep(NavpStage::Pipe1D, 5, 12);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.expected_failures, b.expected_failures);
    }

    #[test]
    fn replay_classifies_a_spec_file() {
        let dir = std::env::temp_dir().join(format!("navp-mm-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash.navpfault");
        std::fs::write(&path, FaultPlan::new().crash_pe(1, 1).to_spec()).unwrap();
        let cfg = MmConfig::real(8, 2);
        let grid = Grid2D::line(2).unwrap();
        let cost = CostModel::paper_cluster();
        let out = replay(&path, |plan| {
            product_bytes(NavpStage::Dsc1D, &cfg, grid, On::Sim(&cost), plan)
        })
        .unwrap();
        assert_eq!(
            out,
            Outcome::Match,
            "a recoverable crash must not change the product"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
