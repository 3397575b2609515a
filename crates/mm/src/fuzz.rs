//! Deterministic fault-space fuzzing of the case-study stages.
//!
//! [`fuzz_stage`] wires the core exploration driver
//! ([`navp::explore`]) to the matrix-multiplication clusters: every
//! seeded schedule ([`navp::explore::FaultSchedule`]) runs the stage
//! end to end under its generated [`FaultPlan`], the product is
//! compared **bitwise** against the fault-free baseline, and each
//! violation is delta-minimized and written as a replayable
//! `repro-<seed>.navpfault` file that [`replay_repro`] (or the
//! `navp-fuzz` binary, or the `NAVP_FAULT_SPEC` environment variable)
//! replays exactly.
//!
//! Because both the schedule generation and the executors are
//! deterministic, a seed is a complete bug report: the same root seed
//! explores the same schedules in the same order on every machine.

use crate::config::MmConfig;
use crate::runner::{run_navp, NavpStage, On, Run, RunnerError};
use navp::explore::{classify, explore, read_repro, ExploreConfig, ExploreReport, Outcome};
use navp::{FaultPlan, RunError};
use navp_matrix::{Grid2D, Matrix};
use navp_sim::CostModel;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Which executor runs the schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzExecutor {
    /// The virtual-time simulator: deterministic, fastest, and a lost
    /// signal deadlocks *immediately* instead of waiting out a
    /// wall-clock watchdog — the default for large seed counts.
    Sim,
    /// Real threads: wall-clock, watchdog-bounded. Slower per schedule;
    /// use for targeted replay of a repro on the real runtime.
    Threads,
}

impl FuzzExecutor {
    /// The run of one schedule: `plan`'s faults on this executor, the
    /// sim under `cost`.
    pub fn run<'a>(self, cost: &'a CostModel, plan: &FaultPlan) -> Run<'a> {
        let on = match self {
            FuzzExecutor::Sim => On::Sim(cost),
            FuzzExecutor::Threads => On::Threads,
        };
        Run::on(on).plan(Some(plan.clone()))
    }
}

/// Knobs for [`fuzz_stage`].
#[derive(Clone, Debug)]
pub struct FuzzOpts {
    /// Root seed; each schedule's seed is split off its PRNG stream.
    pub root_seed: u64,
    /// How many schedules to attempt.
    pub schedules: usize,
    /// Wall-clock budget; exploration stops early (with a partial
    /// report) once exhausted. `None` = unbounded.
    pub budget: Option<Duration>,
    /// Directory for `repro-<seed>.navpfault` files. `None` = keep
    /// repros in memory only.
    pub out_dir: Option<PathBuf>,
    /// Executor the schedules run on.
    pub executor: FuzzExecutor,
}

impl FuzzOpts {
    /// Explore `schedules` seeds from `root_seed` on the sim executor,
    /// unbounded, without writing repro files.
    pub fn new(root_seed: u64, schedules: usize) -> FuzzOpts {
        FuzzOpts {
            root_seed,
            schedules,
            budget: None,
            out_dir: None,
            executor: FuzzExecutor::Sim,
        }
    }
}

/// The product as bitwise-faithful bytes: the little-endian `f64`
/// stream of the dense matrix. Two runs match under [`classify`] iff
/// their products are bit-for-bit equal.
fn matrix_bytes(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.as_slice().len() * 8);
    for v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// One complete faulted run of a stage, reduced to its product bytes.
fn run_once(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    executor: FuzzExecutor,
    plan: &FaultPlan,
) -> Result<Vec<u8>, RunError> {
    let cost = CostModel::paper_cluster();
    let out = run_navp(stage, cfg, grid, executor.run(&cost, plan)).map_err(|e| match e {
        RunnerError::Navp(e) => e,
        other => RunError::Transport {
            detail: other.to_string(),
        },
    })?;
    match out.c {
        Some(c) => Ok(matrix_bytes(&c)),
        None => Err(RunError::Transport {
            detail: "fuzzing needs real payloads (the product is the parity oracle)".into(),
        }),
    }
}

/// Explore the fault space of one stage: generate seeded schedules,
/// run each, check bitwise product parity against the fault-free
/// baseline, and minimize + persist every violation.
///
/// A healthy runtime returns a report with an empty
/// [`violations`](ExploreReport::violations) list; anything else is a
/// reproducible bug in the recovery machinery.
pub fn fuzz_stage(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &FuzzOpts,
) -> Result<ExploreReport, String> {
    let mut ecfg = ExploreConfig::new(opts.root_seed, opts.schedules, grid.rows * grid.cols);
    ecfg.budget = opts.budget;
    ecfg.out_dir = opts.out_dir.clone();
    explore(&ecfg, |plan| run_once(stage, cfg, grid, opts.executor, plan))
}

/// Replay a `repro-<seed>.navpfault` (or any fault-spec) file against a
/// stage and classify the run against a freshly computed fault-free
/// baseline. [`Outcome::Violation`] means the bug still reproduces.
pub fn replay_repro(
    path: &Path,
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    executor: FuzzExecutor,
) -> Result<Outcome, String> {
    let plan = read_repro(path)?;
    let baseline = run_once(stage, cfg, grid, executor, &FaultPlan::new())
        .map_err(|e| format!("fault-free baseline run failed: {e}"))?;
    let result = run_once(stage, cfg, grid, executor, &plan);
    Ok(classify(&plan, &baseline, &result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzing_a_healthy_stage_finds_no_violations() {
        let cfg = MmConfig::real(8, 2);
        let grid = Grid2D::line(2).unwrap();
        let report = fuzz_stage(NavpStage::Dsc1D, &cfg, grid, &FuzzOpts::new(11, 24)).unwrap();
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
        let cfg = MmConfig::real(8, 2);
        let grid = Grid2D::line(2).unwrap();
        let a = fuzz_stage(NavpStage::Pipe1D, &cfg, grid, &FuzzOpts::new(5, 12)).unwrap();
        let b = fuzz_stage(NavpStage::Pipe1D, &cfg, grid, &FuzzOpts::new(5, 12)).unwrap();
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
        let out = replay_repro(&path, NavpStage::Dsc1D, &cfg, grid, FuzzExecutor::Sim).unwrap();
        assert_eq!(out, Outcome::Match, "a recoverable crash must not change the product");
        std::fs::remove_dir_all(&dir).ok();
    }
}
