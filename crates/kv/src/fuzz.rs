//! Fault-space fuzzing for the kv workload.
//!
//! Same harness as the matrix case study (`navp::explore` + seeded
//! `FaultSchedule`s), with the kv product bytes as the bitwise parity
//! oracle: a schedule either finishes with results and store digest
//! bit-identical to the fault-free baseline, fails in a *designed* way
//! (e.g. an unrecoverable crash surfacing as `PeCrashed`), or is a
//! reproducible violation in the recovery machinery.

use std::path::Path;

use navp::explore::{classify, explore, read_repro, ExploreConfig, ExploreReport, Outcome};
use navp::{FaultPlan, RunError};
use navp_mm::{FuzzExecutor, FuzzOpts};
use navp_sim::CostModel;

use crate::config::KvConfig;
use crate::runner::{run_kv, KvError, KvStage};

/// One complete faulted kv run, reduced to its product bytes.
fn run_once(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    executor: FuzzExecutor,
    plan: &FaultPlan,
) -> Result<Vec<u8>, RunError> {
    let cost = CostModel::paper_cluster();
    let out = run_kv(stage, cfg, pes, executor.run(&cost, plan)).map_err(|e| match e {
        KvError::Navp(e) => e,
        other => RunError::Transport {
            detail: other.to_string(),
        },
    })?;
    Ok(out.product.to_bytes())
}

/// Explore the fault space of one kv journey step: generate seeded
/// crash/delay/drop/lost-signal schedules, run each, check bitwise
/// product parity against the fault-free baseline, and minimize +
/// persist every violation. A healthy runtime returns an empty
/// violation list.
pub fn fuzz_kv_stage(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    opts: &FuzzOpts,
) -> Result<ExploreReport, String> {
    let pes = stage.effective_pes(pes);
    let mut ecfg = ExploreConfig::new(opts.root_seed, opts.schedules, pes);
    ecfg.budget = opts.budget;
    ecfg.out_dir = opts.out_dir.clone();
    explore(&ecfg, |plan| {
        run_once(stage, cfg, pes, opts.executor, plan)
    })
}

/// Replay a `repro-<seed>.navpfault` (or any fault-spec) file against a
/// kv step and classify it against a fresh fault-free baseline.
/// [`Outcome::Violation`] means the bug still reproduces.
pub fn replay_kv_repro(
    path: &Path,
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    executor: FuzzExecutor,
) -> Result<Outcome, String> {
    let pes = stage.effective_pes(pes);
    let plan = read_repro(path)?;
    let baseline = run_once(stage, cfg, pes, executor, &FaultPlan::new())
        .map_err(|e| format!("fault-free baseline run failed: {e}"))?;
    let result = run_once(stage, cfg, pes, executor, &plan);
    Ok(classify(&plan, &baseline, &result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzing_a_healthy_kv_step_finds_no_violations() {
        let cfg = KvConfig::new(60, 3);
        let report = fuzz_kv_stage(KvStage::Pipe, &cfg, 2, &FuzzOpts::new(17, 20)).unwrap();
        assert_eq!(report.explored, 20);
        assert!(
            report.violations.is_empty(),
            "parity violations on a healthy runtime: {:?}",
            report.violations
        );
        assert!(report.matches > 0, "some schedules must complete");
    }

    #[test]
    fn kv_fuzzing_is_deterministic_in_the_root_seed() {
        let cfg = KvConfig::new(60, 3);
        let a = fuzz_kv_stage(KvStage::Phase, &cfg, 2, &FuzzOpts::new(5, 10)).unwrap();
        let b = fuzz_kv_stage(KvStage::Phase, &cfg, 2, &FuzzOpts::new(5, 10)).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.expected_failures, b.expected_failures);
    }

    #[test]
    fn replay_classifies_a_kv_spec_file() {
        let dir = std::env::temp_dir().join(format!("navp-kv-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash.navpfault");
        std::fs::write(&path, FaultPlan::new().crash_pe(1, 1).to_spec()).unwrap();
        let cfg = KvConfig::new(40, 2);
        let out = replay_kv_repro(&path, KvStage::Dsc, &cfg, 2, FuzzExecutor::Sim).unwrap();
        assert_eq!(
            out,
            Outcome::Match,
            "a recoverable crash must not change the product"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
