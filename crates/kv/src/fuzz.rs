//! Fault-space fuzzing for the kv workload.
//!
//! Same driver as the matrix case study ([`navp::explore`] with seeded
//! `FaultSchedule`s); [`product_bytes`] is the kv side of it, with the
//! kv product bytes as the bitwise parity oracle: a schedule either
//! finishes with results and store digest bit-identical to the
//! fault-free baseline, fails in a *designed* way (e.g. an
//! unrecoverable crash surfacing as `PeCrashed`), or is a reproducible
//! violation in the recovery machinery.

use navp::{FaultPlan, RunError};
use navp_mm::{On, Run};

use crate::config::KvConfig;
use crate::runner::{run_kv, KvError, KvStage};

/// One complete run of `stage` on `pes` PEs under `plan` on `on`,
/// reduced to its product bytes. The fuzzer sizes plans with
/// [`KvStage::effective_pes`], and passes that count here too.
pub fn product_bytes(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    on: On<'_>,
    plan: &FaultPlan,
) -> Result<Vec<u8>, RunError> {
    let out =
        run_kv(stage, cfg, pes, Run::on(on).plan(Some(plan.clone()))).map_err(|e| match e {
            KvError::Navp(e) => e,
            other => RunError::Transport {
                detail: other.to_string(),
            },
        })?;
    Ok(out.product.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp::explore::{explore, replay, ExploreConfig, ExploreReport, Outcome};
    use navp_sim::CostModel;

    /// Sweep `schedules` seeds from `root_seed` over `stage` with 60
    /// ops in 3 batches on two sim PEs.
    fn sweep(stage: KvStage, root_seed: u64, schedules: usize) -> ExploreReport {
        let cfg = KvConfig::new(60, 3);
        let cost = CostModel::paper_cluster();
        let pes = stage.effective_pes(2);
        let ecfg = ExploreConfig::new(root_seed, schedules, pes);
        explore(&ecfg, |plan| {
            product_bytes(stage, &cfg, pes, On::Sim(&cost), plan)
        })
        .unwrap()
    }

    #[test]
    fn fuzzing_a_healthy_kv_step_finds_no_violations() {
        let report = sweep(KvStage::Pipe, 17, 20);
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
        let a = sweep(KvStage::Phase, 5, 10);
        let b = sweep(KvStage::Phase, 5, 10);
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
        let cost = CostModel::paper_cluster();
        let out = replay(&path, |plan| {
            product_bytes(KvStage::Dsc, &cfg, 2, On::Sim(&cost), plan)
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
