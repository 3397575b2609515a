//! The production runner: turns a [`JobSpec`] into a real networked
//! GEMM run against the joined PE mesh.
//!
//! Each job runs under `run_id = job id`, so concurrent tenants are
//! namespaced end to end: the id rides in the `Assign`/`PeerHello`
//! handshake frames (daemons refuse mesh edges from other runs) and
//! scopes the durable checkpoints to `run-<id>/` under the shared
//! base directory.

use crate::proto::{JobOutcome, JobSpec};
use crate::sched::{JobFailure, RunnerFn};
use crate::traces::TraceStore;
use navp::durable::fnv1a;
use navp::RunError;
use navp_matrix::{Grid2D, Matrix};
use navp_mm::config::{MmConfig, Payload};
use navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run, RunnerError};
use navp_trace::ChromeTrace;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Which mesh the runner drives.
#[derive(Debug, Clone, Default)]
pub struct MeshOpts {
    /// `navp-pe --listen` addresses, one per PE in PE order. Empty
    /// means spawn-per-run children (tests mostly join).
    pub join: Vec<String>,
    /// Explicit `navp-pe` binary for spawn-per-run.
    pub pe_bin: Option<PathBuf>,
    /// Base durable checkpoint directory shared with the daemons;
    /// each job spills under its own `run-<id>/`.
    pub durable_dir: Option<PathBuf>,
    /// No-progress watchdog applied to every run.
    pub watchdog: Option<Duration>,
    /// Where runners park rendered per-job Chrome traces for jobs
    /// submitted with [`JobSpec::trace`]; `None` disables retention
    /// (the flag is then accepted but ignored).
    pub traces: Option<Arc<TraceStore>>,
}

/// Parse a CLI/wire stage name (`dsc1d`, `pipe1d`, `phase1d`,
/// `dsc2d`, `pipe2d`, `dpc2d`).
pub fn parse_stage(name: &str) -> Option<NavpStage> {
    Some(match name {
        "dsc1d" => NavpStage::Dsc1D,
        "pipe1d" => NavpStage::Pipe1D,
        "phase1d" => NavpStage::Phase1D,
        "dsc2d" => NavpStage::Dsc2D,
        "pipe2d" => NavpStage::Pipe2D,
        "dpc2d" => NavpStage::Dpc2D,
        _ => return None,
    })
}

/// FNV-1a over the product's `f64` bit patterns (little-endian), the
/// job outcome's bitwise fingerprint: two runs computed the identical
/// product iff their checksums agree.
pub fn product_checksum(m: &Matrix) -> u64 {
    fnv1a(&m.to_le_bytes())
}

pub(crate) fn fail(detail: impl Into<String>) -> JobFailure {
    JobFailure {
        timed_out: false,
        detail: detail.into(),
    }
}

impl MeshOpts {
    /// Run job `id` as one [`Run`] on the net executor: under the job's
    /// run id, deadline and fault plan, the mesh's watchdog and durable
    /// directory, traced when the job asks and the mesh keeps traces.
    /// `go` runs the workload under that run; `runtime` picks the NavP
    /// runtime error out of its failures, so a missed deadline times
    /// the job out.
    pub(crate) fn run_job<T, E: fmt::Display>(
        &self,
        spec: &JobSpec,
        id: u64,
        go: impl FnOnce(Run<'_>) -> Result<T, E>,
        runtime: fn(&E) -> Option<&RunError>,
    ) -> Result<T, JobFailure> {
        let plan = match spec.fault_spec.as_str() {
            "" => None,
            s => Some(
                navp::FaultPlan::parse_spec(s).map_err(|e| fail(format!("bad fault spec: {e}")))?,
            ),
        };
        let mut opts = NetOpts {
            pe_bin: self.pe_bin.clone(),
            join: self.join.clone(),
            ..NetOpts::default()
        }
        .with_run_id(id);
        if spec.timeout_ms > 0 {
            opts = opts.with_deadline(Duration::from_millis(spec.timeout_ms));
        }
        let mut run = Run::on(On::Net(&opts))
            .plan(plan)
            .traced(spec.trace && self.traces.is_some())
            .watchdog(self.watchdog);
        if let Some(dir) = &self.durable_dir {
            run = run.durable(dir);
        }
        go(run).map_err(|e| match runtime(&e) {
            Some(RunError::DeadlineExceeded { limit_ms }) => JobFailure {
                timed_out: true,
                detail: format!("exceeded {limit_ms} ms deadline"),
            },
            _ => fail(format!("run failed: {e}")),
        })
    }

    /// Park job `id`'s rendered trace, when it recorded one.
    pub(crate) fn keep_trace(&self, id: u64, trace: Option<&impl ChromeTrace>) {
        if let (Some(store), Some(trace)) = (&self.traces, trace) {
            store.put(id, trace.to_chrome_json());
        }
    }
}

/// Build the production runner for `mesh`. The returned closure is
/// what [`crate::sched::Scheduler::start`] drives, one invocation per
/// job, potentially many concurrently.
pub fn gemm_runner(mesh: MeshOpts) -> Arc<RunnerFn> {
    Arc::new(move |spec: &JobSpec, id: u64| {
        let stage = parse_stage(&spec.stage)
            .ok_or_else(|| fail(format!("unknown stage {:?}", spec.stage)))?;
        let grid = Grid2D::new(spec.rows as usize, spec.cols as usize)
            .map_err(|e| fail(format!("bad grid {}x{}: {e}", spec.rows, spec.cols)))?;
        let cfg = MmConfig {
            n: spec.n as usize,
            ab: spec.ab as usize,
            payload: Payload::Real {
                seed_a: spec.seed_a,
                seed_b: spec.seed_b,
            },
        };
        let out = mesh.run_job(
            spec,
            id,
            |run| run_navp(stage, &cfg, grid, run),
            |e| match e {
                RunnerError::Navp(e) => Some(e),
                _ => None,
            },
        )?;
        mesh.keep_trace(id, out.trace.as_ref());
        Ok(JobOutcome {
            checksum: out.c.as_ref().map(product_checksum).unwrap_or(0),
            verified: out.verified.unwrap_or(false),
            wall_ms: out.wall.map(|w| w.as_millis() as u64).unwrap_or(0),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for name in ["dsc1d", "pipe1d", "phase1d", "dsc2d", "pipe2d", "dpc2d"] {
            assert!(parse_stage(name).is_some(), "{name}");
        }
        assert!(parse_stage("summa").is_none());
        assert!(parse_stage("DSC1D").is_none(), "names are lowercase");
    }

    #[test]
    fn checksum_is_bitwise_sensitive() {
        let a = navp_matrix::gen::seeded_matrix(8, 1);
        let b = navp_matrix::gen::seeded_matrix(8, 1);
        let c = navp_matrix::gen::seeded_matrix(8, 2);
        assert_eq!(product_checksum(&a), product_checksum(&b));
        assert_ne!(product_checksum(&a), product_checksum(&c));
    }

    #[test]
    fn bad_specs_fail_fast_without_a_mesh() {
        let runner = gemm_runner(MeshOpts::default());
        let bad_stage = JobSpec {
            stage: "nope".into(),
            ..JobSpec::example()
        };
        let err = runner(&bad_stage, 1).unwrap_err();
        assert!(!err.timed_out);
        assert!(err.detail.contains("unknown stage"), "{}", err.detail);
        let bad_fault = JobSpec {
            fault_spec: "not a spec".into(),
            ..JobSpec::example()
        };
        let err = runner(&bad_fault, 2).unwrap_err();
        assert!(err.detail.contains("bad fault spec"), "{}", err.detail);
    }
}
