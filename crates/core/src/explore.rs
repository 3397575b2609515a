//! Deterministic fault-space exploration: seeded schedule generation,
//! parity-checked exploration, delta-debugging minimization, and
//! replayable repro files.
//!
//! The model follows FoundationDB-style deterministic simulation: a
//! splittable PRNG ([`crate::fault::SplitMix64`]) derives one
//! independent stream per explored schedule, each schedule is a
//! [`FaultPlan`] whose rules fire at the runtime's counted decision
//! points (every messenger-run boundary, hop arrival, and signal
//! emission), and the driver checks every surviving run for *bitwise*
//! product parity against the fault-free baseline. Because both the
//! schedule and the executors are deterministic, any violation is
//! reproducible from its seed alone — the explorer shrinks it with a
//! greedy delta-debugging pass and writes a `repro-<seed>.navpfault`
//! file that [`replay`] replays exactly, on the sim or the thread
//! executor.
//!
//! This is the one fault-space driver for every workload: a workload
//! supplies only a `Fn(&FaultPlan) -> Result<Vec<u8>, RunError>` that
//! runs the plan once and returns its product's bytes, and [`explore`]
//! and [`replay`] do the rest.

use crate::error::RunError;
use crate::fault::{CrashRule, FaultPlan, HopFaultRule, LostSignalRule, SplitMix64};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One explored point of the fault space: a seed and the plan its
/// split PRNG stream generated.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// The seed this schedule was generated from.
    pub seed: u64,
    /// The generated fault plan.
    pub plan: FaultPlan,
}

impl FaultSchedule {
    /// Generate the schedule for `seed` on a `pes`-PE cluster
    /// (deterministic; see [`FaultPlan::seeded`] for the sampling).
    pub fn generate(seed: u64, pes: usize) -> FaultSchedule {
        FaultSchedule {
            seed,
            plan: FaultPlan::seeded(seed, pes),
        }
    }
}

/// How one schedule's run compares against the fault-free baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The product is bitwise-identical to the baseline.
    Match,
    /// The plan is unrecoverable by construction (lost signal, or
    /// checkpointing off) and the run failed in the expected structured
    /// way — not a bug, the fault model working as designed.
    ExpectedFailure(RunError),
    /// Parity violation: wrong bits, or an error a recoverable plan
    /// must absorb.
    Violation(String),
}

/// Classify one run of `plan` against `baseline` (the fault-free
/// product's bytes).
///
/// A recoverable plan ([`FaultPlan::is_recoverable`]) must complete
/// with the exact baseline bytes; anything else is a violation. An
/// unrecoverable plan is allowed to fail with the structured errors
/// its faults are designed to surface — [`RunError::Deadlock`] /
/// [`RunError::Stalled`] for a lost signal, [`RunError::PeCrashed`]
/// with checkpointing off — or to match (a lost signal nobody ever
/// waited on is harmless); a *wrong product* is still a violation.
pub fn classify(plan: &FaultPlan, baseline: &[u8], result: &Result<Vec<u8>, RunError>) -> Outcome {
    match result {
        Ok(bytes) if bytes.as_slice() == baseline => Outcome::Match,
        Ok(_) => Outcome::Violation("product differs bitwise from fault-free baseline".into()),
        Err(e) => {
            let expected = (!plan.lost_signals.is_empty()
                && matches!(e, RunError::Deadlock { .. } | RunError::Stalled { .. }))
                || (!plan.checkpointing && matches!(e, RunError::PeCrashed { .. }));
            if expected {
                Outcome::ExpectedFailure(e.clone())
            } else {
                Outcome::Violation(format!("unexpected error: {e}"))
            }
        }
    }
}

/// A minimized, replayable parity violation.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The seed whose schedule exposed the violation.
    pub seed: u64,
    /// The minimized plan that still reproduces it.
    pub plan: FaultPlan,
    /// Rule count before minimization.
    pub original_rules: usize,
    /// What went wrong, verbatim from [`classify`].
    pub detail: String,
    /// Where the repro file was written, if an output dir was given.
    pub path: Option<PathBuf>,
}

/// Aggregate result of one exploration sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules actually run (≤ requested when the budget expires).
    pub explored: usize,
    /// Runs with bitwise baseline parity.
    pub matches: usize,
    /// Unrecoverable schedules that failed in the expected way.
    pub expected_failures: usize,
    /// Minimized parity violations (empty on a healthy runtime).
    pub violations: Vec<Repro>,
}

/// Knobs for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Root seed; each schedule's seed is split off its PRNG stream.
    pub root_seed: u64,
    /// How many schedules to attempt.
    pub schedules: usize,
    /// Cluster width the schedules target.
    pub pes: usize,
    /// Wall-clock budget; exploration stops early (gracefully, with a
    /// partial report) once it is exhausted. `None` = unbounded.
    pub budget: Option<Duration>,
    /// Directory for `repro-<seed>.navpfault` files. `None` = keep
    /// repros in memory only.
    pub out_dir: Option<PathBuf>,
}

impl ExploreConfig {
    /// A config exploring `schedules` seeds from `root_seed` on `pes`
    /// PEs, unbounded, without writing repro files.
    pub fn new(root_seed: u64, schedules: usize, pes: usize) -> ExploreConfig {
        ExploreConfig {
            root_seed,
            schedules,
            pes,
            budget: None,
            out_dir: None,
        }
    }
}

/// Run the exploration driver: generate `cfg.schedules` seeded
/// schedules, execute each through `run`, check bitwise parity, and
/// minimize + persist every violation.
///
/// `run` executes one complete computation under the given plan and
/// returns the product's bytes (any deterministic encoding — matrix
/// data, digest input, wire form — as long as it is bitwise-faithful).
/// The fault-free baseline is `run(&FaultPlan::new())`; if that
/// fails, exploration cannot start and the error is returned as a
/// string.
pub fn explore<R>(cfg: &ExploreConfig, mut run: R) -> Result<ExploreReport, String>
where
    R: FnMut(&FaultPlan) -> Result<Vec<u8>, RunError>,
{
    let baseline = baseline(&mut run)?;
    let start = Instant::now();
    let mut root = SplitMix64::new(cfg.root_seed);
    let mut report = ExploreReport::default();
    for _ in 0..cfg.schedules {
        if let Some(budget) = cfg.budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        let seed = root.split().next_u64();
        let schedule = FaultSchedule::generate(seed, cfg.pes);
        let result = run(&schedule.plan);
        match classify(&schedule.plan, &baseline, &result) {
            Outcome::Match => report.matches += 1,
            Outcome::ExpectedFailure(_) => report.expected_failures += 1,
            Outcome::Violation(detail) => {
                let minimized = minimize(&schedule.plan, |candidate| {
                    matches!(
                        classify(candidate, &baseline, &run(candidate)),
                        Outcome::Violation(_)
                    )
                });
                let mut repro = Repro {
                    seed,
                    original_rules: rule_count(&schedule.plan),
                    plan: minimized,
                    detail,
                    path: None,
                };
                if let Some(dir) = &cfg.out_dir {
                    let path = dir.join(format!("repro-{seed:016x}.navpfault"));
                    write_repro(&path, &repro)
                        .map_err(|e| format!("writing {}: {e}", path.display()))?;
                    repro.path = Some(path);
                }
                report.violations.push(repro);
            }
        }
        report.explored += 1;
    }
    Ok(report)
}

/// Replay a `repro-<seed>.navpfault` (or any fault-spec) file: run the
/// fault-free baseline and then the file's plan through `run`, and
/// [`classify`] the run. [`Outcome::Violation`] means the bug still
/// reproduces.
pub fn replay<R>(path: &Path, mut run: R) -> Result<Outcome, String>
where
    R: FnMut(&FaultPlan) -> Result<Vec<u8>, RunError>,
{
    let plan = read_repro(path)?;
    let baseline = baseline(&mut run)?;
    Ok(classify(&plan, &baseline, &run(&plan)))
}

fn baseline<R>(run: &mut R) -> Result<Vec<u8>, String>
where
    R: FnMut(&FaultPlan) -> Result<Vec<u8>, RunError>,
{
    run(&FaultPlan::new()).map_err(|e| format!("fault-free baseline run failed: {e}"))
}

/// How many fault rules `plan` injects.
pub fn rule_count(plan: &FaultPlan) -> usize {
    plan.crashes.len() + plan.hop_faults.len() + plan.lost_signals.len()
}

/// Delta-debugging minimization: greedily drop one fault rule at a
/// time, keeping each removal that still reproduces the failure
/// (`still_failing` returns `true`), and iterate to a fixpoint.
///
/// Seeded plans carry at most a handful of rules, so the greedy 1-rule
/// variant of ddmin converges in O(n²) runs and always returns a plan
/// that is 1-minimal: removing any single remaining rule loses the
/// failure.
pub fn minimize(plan: &FaultPlan, mut still_failing: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut rules = explode(plan);
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut i = 0;
        while i < rules.len() {
            let mut candidate_rules = rules.clone();
            candidate_rules.remove(i);
            let candidate = assemble(plan, &candidate_rules);
            if still_failing(&candidate) {
                rules = candidate_rules;
                shrunk = true;
            } else {
                i += 1;
            }
        }
    }
    assemble(plan, &rules)
}

#[derive(Clone)]
enum Rule {
    Crash(CrashRule),
    Hop(HopFaultRule),
    Lost(LostSignalRule),
}

fn explode(plan: &FaultPlan) -> Vec<Rule> {
    let mut rules = Vec::with_capacity(rule_count(plan));
    rules.extend(plan.crashes.iter().copied().map(Rule::Crash));
    rules.extend(plan.hop_faults.iter().copied().map(Rule::Hop));
    rules.extend(plan.lost_signals.iter().copied().map(Rule::Lost));
    rules
}

/// Rebuild a plan with `rules`, inheriting `template`'s recovery knobs
/// (checkpointing flag, retry budget, recovery cost).
fn assemble(template: &FaultPlan, rules: &[Rule]) -> FaultPlan {
    let mut plan = template.clone();
    plan.crashes.clear();
    plan.hop_faults.clear();
    plan.lost_signals.clear();
    for r in rules {
        match r {
            Rule::Crash(c) => plan.crashes.push(*c),
            Rule::Hop(h) => plan.hop_faults.push(*h),
            Rule::Lost(l) => plan.lost_signals.push(*l),
        }
    }
    plan
}

/// Write a replayable repro file: a commented header (format version,
/// seed, rule counts, failure detail) followed by the plan in
/// [`FaultPlan::to_spec`] form. [`read_repro`] and `NAVP_FAULT_SPEC`
/// both accept the result verbatim.
pub fn write_repro(path: &Path, repro: &Repro) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "# navpfault v1")?;
    writeln!(f, "# seed {:#018x}", repro.seed)?;
    writeln!(
        f,
        "# minimized {} -> {} rules",
        repro.original_rules,
        rule_count(&repro.plan)
    )?;
    for line in repro.detail.lines() {
        writeln!(f, "# detail {line}")?;
    }
    f.write_all(repro.plan.to_spec().as_bytes())?;
    f.sync_all()
}

/// Read a repro (or any `navpfault` spec) file back into a plan.
pub fn read_repro(path: &Path) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    FaultPlan::parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy deterministic "runtime" for driver tests: the product is
    /// 8 bytes; a plan with a crash on PE 0 at run 2 corrupts them (the
    /// planted bug), a lost signal deadlocks, everything else matches.
    fn toy_run(plan: &FaultPlan) -> Result<Vec<u8>, RunError> {
        if !plan.lost_signals.is_empty() {
            return Err(RunError::Deadlock {
                blocked: vec![("toy".into(), "EV".into())],
            });
        }
        if plan.crashes.iter().any(|c| c.pe == 0 && c.at_run == 2) {
            return Ok(vec![0xBA; 8]);
        }
        Ok(vec![0x42; 8])
    }

    #[test]
    fn classify_distinguishes_match_expected_and_violation() {
        let base = vec![0x42; 8];
        let ok = FaultPlan::new().crash_pe(1, 1);
        assert_eq!(classify(&ok, &base, &Ok(base.clone())), Outcome::Match);
        let lossy = FaultPlan::new().lose_signal(0, 1);
        assert!(matches!(
            classify(
                &lossy,
                &base,
                &Err(RunError::Deadlock {
                    blocked: vec![("a".into(), "e".into())]
                })
            ),
            Outcome::ExpectedFailure(_)
        ));
        assert!(matches!(
            classify(&ok, &base, &Ok(vec![0u8; 8])),
            Outcome::Violation(_)
        ));
        assert!(matches!(
            classify(
                &ok,
                &base,
                &Err(RunError::Stalled { live: 1 })
            ),
            Outcome::Violation(_),
        ));
    }

    #[test]
    fn explorer_finds_and_minimizes_the_planted_bug() {
        let dir = std::env::temp_dir().join(format!("navp-explore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = ExploreConfig::new(7, 400, 3);
        cfg.out_dir = Some(dir.clone());
        let report = explore(&cfg, toy_run).expect("explore");
        assert_eq!(report.explored, 400);
        assert!(report.matches > 0);
        assert!(
            report.expected_failures > 0,
            "lost-signal schedules must appear and classify as expected"
        );
        assert!(
            !report.violations.is_empty(),
            "the planted crash(0,2) bug must be found"
        );
        for v in &report.violations {
            assert_eq!(rule_count(&v.plan), 1, "minimized to the single culprit");
            assert_eq!(v.plan.crashes, vec![CrashRule { pe: 0, at_run: 2 }]);
            let path = v.path.as_ref().expect("repro written");
            let back = read_repro(path).expect("repro parses");
            assert_eq!(back, v.plan, "repro file replays the minimized plan");
            // Replay from the file reproduces the violation deterministically.
            assert!(matches!(
                classify(&back, &[0x42; 8], &toy_run(&back)),
                Outcome::Violation(_)
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exploration_is_deterministic_in_the_root_seed() {
        let cfg = ExploreConfig::new(99, 64, 4);
        let a = explore(&cfg, toy_run).unwrap();
        let b = explore(&cfg, toy_run).unwrap();
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.expected_failures, b.expected_failures);
        assert_eq!(
            a.violations.iter().map(|v| v.seed).collect::<Vec<_>>(),
            b.violations.iter().map(|v| v.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minimize_is_one_minimal() {
        let plan = FaultPlan::new()
            .crash_pe(0, 2)
            .crash_pe(1, 3)
            .delay_hop(2, 1, 0.5)
            .drop_hop(1, 4);
        // Failure needs *both* crash(0,2) and the delay.
        let needs_pair = |p: &FaultPlan| {
            p.crashes.contains(&CrashRule { pe: 0, at_run: 2 })
                && p.hop_faults.iter().any(|h| h.dst == 2)
        };
        let min = minimize(&plan, needs_pair);
        assert_eq!(rule_count(&min), 2);
        assert!(needs_pair(&min));
        assert!(min.checkpointing, "recovery knobs inherited");
    }

    #[test]
    fn replay_classifies_a_spec_file() {
        let dir = std::env::temp_dir().join(format!("navp-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bug.navpfault");
        std::fs::write(&path, FaultPlan::new().crash_pe(0, 2).to_spec()).unwrap();
        assert!(matches!(replay(&path, toy_run), Ok(Outcome::Violation(_))));
        std::fs::write(&path, FaultPlan::new().crash_pe(1, 2).to_spec()).unwrap();
        assert_eq!(replay(&path, toy_run), Ok(Outcome::Match));
        std::fs::write(&path, "crash pe=0\n").unwrap();
        assert!(replay(&path, toy_run).is_err(), "a malformed spec is an error");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_stops_exploration_early() {
        let mut cfg = ExploreConfig::new(1, 1_000_000, 2);
        cfg.budget = Some(Duration::from_millis(0));
        let report = explore(&cfg, toy_run).unwrap();
        assert_eq!(report.explored, 0, "zero budget explores nothing");
    }
}
