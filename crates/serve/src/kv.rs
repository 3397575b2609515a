//! The kv production runner: turns a [`JobKind::Kv`] [`JobSpec`] into
//! a real networked `navp-kv` run against the joined PE mesh, plus the
//! kind dispatcher that lets one scheduler multiplex GEMM and kv jobs
//! onto the same daemons.
//!
//! Field mapping for kv specs (see [`JobKind::Kv`]): `n` = total
//! operations, `ab` = batches, `cols` = mesh width (`rows` must be 1),
//! `seed_a` = workload seed, `seed_b` = value length in bytes (0 =
//! default). Everything else — run-id namespacing, durable checkpoint
//! scoping, deadlines, fault injection — works exactly as for GEMM.

use crate::gemm::{fail, gemm_runner, MeshOpts};
use crate::proto::{JobKind, JobOutcome, JobSpec};
use crate::sched::{JobFailure, RunnerFn};
use navp_kv::{run_kv, KvConfig, KvError, KvStage};
use navp_metrics::{Counter, MetricsRegistry};
use std::sync::Arc;

/// The `navp_kv_*` service metric set: how much key-value work the
/// mesh has done across all tenants. Registered on the same registry
/// as [`crate::ServeMetrics`] so one `/metrics` scrape shows the
/// scheduler and both workloads side by side.
pub struct KvMetrics {
    /// The registry the instruments live on, kept so per-run labeled
    /// series can be derived at job completion.
    registry: Arc<MetricsRegistry>,
    /// `navp_kv_jobs_total` — kv jobs that completed successfully.
    pub jobs: Arc<Counter>,
    /// `navp_kv_ops_total` — get/put/scan/delete operations executed.
    pub ops: Arc<Counter>,
    /// `navp_kv_scanned_total` — entries returned by scans.
    pub scanned: Arc<Counter>,
    /// `navp_kv_compactions_total` — shard log compactions performed.
    pub compactions: Arc<Counter>,
}

impl KvMetrics {
    /// Register the kv instruments on `registry`.
    pub fn on_registry(registry: &Arc<MetricsRegistry>) -> Arc<KvMetrics> {
        Arc::new(KvMetrics {
            registry: Arc::clone(registry),
            jobs: registry.counter(
                "navp_kv_jobs_total",
                "Completed kv jobs",
                &[],
            ),
            ops: registry.counter(
                "navp_kv_ops_total",
                "Key-value operations executed by completed kv jobs",
                &[],
            ),
            scanned: registry.counter(
                "navp_kv_scanned_total",
                "Entries returned by scans in completed kv jobs",
                &[],
            ),
            compactions: registry.counter(
                "navp_kv_compactions_total",
                "Shard log compactions performed by completed kv jobs",
                &[],
            ),
        })
    }

    /// Record one completed kv run: bump the service-wide aggregates
    /// and the per-job `navp_kv_run_*{run="<id>"}` series, so a
    /// scrape attributes the work to the tenant that caused it.
    pub fn record_run(&self, run: u64, ops: u64, scanned: u64, compactions: u64) {
        self.jobs.inc();
        self.ops.add(ops);
        self.scanned.add(scanned);
        self.compactions.add(compactions);
        let run = run.to_string();
        let labels: &[(&str, &str)] = &[("run", &run)];
        self.registry
            .counter("navp_kv_run_ops_total", "Operations, by run (= job id)", labels)
            .add(ops);
        self.registry
            .counter(
                "navp_kv_run_scanned_total",
                "Scan results returned, by run (= job id)",
                labels,
            )
            .add(scanned);
        self.registry
            .counter(
                "navp_kv_run_compactions_total",
                "Compactions performed, by run (= job id)",
                labels,
            )
            .add(compactions);
    }
}

/// Validate a kv spec into a runnable `(stage, cfg, pes)` triple.
/// Fails fast — before touching the mesh — on anything the workload
/// constructors would panic on.
fn kv_shape(spec: &JobSpec) -> Result<(KvStage, KvConfig, usize), JobFailure> {
    let stage = KvStage::parse(&spec.stage)
        .ok_or_else(|| fail(format!("unknown kv stage {:?}", spec.stage)))?;
    if spec.rows != 1 {
        return Err(fail(format!("kv jobs need rows=1, got {}", spec.rows)));
    }
    if spec.cols == 0 {
        return Err(fail("kv jobs need cols >= 1"));
    }
    if spec.n == 0 || spec.ab == 0 || spec.ab > spec.n {
        return Err(fail(format!(
            "kv shape needs 0 < batches <= ops, got ops={} batches={}",
            spec.n, spec.ab
        )));
    }
    let mut cfg = KvConfig::new(spec.n as usize, spec.ab as usize).with_seed(spec.seed_a);
    if spec.seed_b > 0 {
        cfg = cfg.with_value_len(spec.seed_b as usize);
    }
    Ok((stage, cfg, spec.cols as usize))
}

/// Build the kv production runner for `mesh`. Same contract as
/// [`gemm_runner`]: one invocation per job, potentially many
/// concurrently, each namespaced by `run_id = job id`.
pub fn kv_runner(mesh: MeshOpts, metrics: Option<Arc<KvMetrics>>) -> Arc<RunnerFn> {
    Arc::new(move |spec: &JobSpec, id: u64| {
        let (stage, cfg, pes) = kv_shape(spec)?;
        let out = mesh.run_job(
            spec,
            id,
            |run| run_kv(stage, &cfg, pes, run),
            |e| match e {
                KvError::Navp(e) => Some(e),
                _ => None,
            },
        )?;
        if let Some(m) = &metrics {
            m.record_run(id, out.stats.ops, out.stats.scanned, out.stats.compactions);
        }
        mesh.keep_trace(id, out.trace.as_ref());
        Ok(JobOutcome {
            checksum: out.product.checksum(),
            verified: out.verified.unwrap_or(false),
            wall_ms: out.wall.map(|w| w.as_millis() as u64).unwrap_or(0),
        })
    })
}

/// The production runner for a mixed-workload service: dispatches each
/// job on its [`JobSpec::kind`] to the GEMM or kv runner, both driving
/// the same mesh.
pub fn job_runner(mesh: MeshOpts, kv_metrics: Option<Arc<KvMetrics>>) -> Arc<RunnerFn> {
    let gemm = gemm_runner(mesh.clone());
    let kv = kv_runner(mesh, kv_metrics);
    Arc::new(move |spec: &JobSpec, id: u64| match spec.kind {
        JobKind::Gemm => gemm(spec, id),
        JobKind::Kv => kv(spec, id),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_kv_specs_fail_fast_without_a_mesh() {
        let runner = kv_runner(MeshOpts::default(), None);
        let cases = [
            (
                JobSpec {
                    stage: "dsc1d".into(),
                    ..JobSpec::example_kv()
                },
                "unknown kv stage",
            ),
            (
                JobSpec {
                    rows: 2,
                    ..JobSpec::example_kv()
                },
                "rows=1",
            ),
            (
                JobSpec {
                    cols: 0,
                    ..JobSpec::example_kv()
                },
                "cols >= 1",
            ),
            (
                JobSpec {
                    n: 4,
                    ab: 8,
                    ..JobSpec::example_kv()
                },
                "batches <= ops",
            ),
            (
                JobSpec {
                    fault_spec: "not a spec".into(),
                    ..JobSpec::example_kv()
                },
                "bad fault spec",
            ),
        ];
        for (i, (spec, needle)) in cases.into_iter().enumerate() {
            let err = runner(&spec, i as u64 + 1).unwrap_err();
            assert!(!err.timed_out);
            assert!(err.detail.contains(needle), "{}: {}", i, err.detail);
        }
    }

    #[test]
    fn kv_stage_names_parse_for_the_dispatcher() {
        for name in ["kv_seq", "kv_dsc", "kv_pipe", "kv_phase"] {
            assert!(KvStage::parse(name).is_some(), "{name}");
        }
        assert!(KvStage::parse("dsc1d").is_none());
    }

    #[test]
    fn dispatcher_routes_by_kind() {
        // No mesh: both paths must fail in their own validator, which
        // proves the dispatch picked the right runner.
        let runner = job_runner(MeshOpts::default(), None);
        let gemm_err = runner(
            &JobSpec {
                stage: "kv_pipe".into(),
                ..JobSpec::example()
            },
            1,
        )
        .unwrap_err();
        assert!(gemm_err.detail.contains("unknown stage"), "{}", gemm_err.detail);
        let kv_err = runner(
            &JobSpec {
                stage: "dsc1d".into(),
                ..JobSpec::example_kv()
            },
            2,
        )
        .unwrap_err();
        assert!(kv_err.detail.contains("unknown kv stage"), "{}", kv_err.detail);
    }

    #[test]
    fn kv_metrics_register_on_a_shared_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let m = KvMetrics::on_registry(&registry);
        m.record_run(7, 96, 7, 2);
        m.record_run(9, 4, 0, 1);
        let text = registry.render();
        for name in [
            // Aggregates accumulate across runs…
            "navp_kv_jobs_total 2",
            "navp_kv_ops_total 100",
            "navp_kv_scanned_total 7",
            "navp_kv_compactions_total 3",
            // …and each run keeps its own attributed series.
            "navp_kv_run_ops_total{run=\"7\"} 96",
            "navp_kv_run_ops_total{run=\"9\"} 4",
            "navp_kv_run_scanned_total{run=\"7\"} 7",
            "navp_kv_run_compactions_total{run=\"9\"} 1",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        navp_metrics::validate_prometheus(&registry.render())
            .unwrap_or_else(|e| panic!("invalid exposition: {e}"));
    }
}
