//! Uniform entry points over the kv journey steps.
//!
//! Every `run_kv_*` function names a [`Run`] and hands the step's
//! cluster to [`run_cluster`], the one dispatch both workloads share,
//! so the tests, the bench harness, the fuzzer, the job service and the
//! examples all measure the same code. What stays here is the kv work:
//! building each step's cluster, collecting the product and verifying
//! it against the sequential reference model.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use navp::{Cluster, FaultPlan, FaultStats};
use navp_metrics::MetricsSnapshot;
use navp_mm::runner::{run_cluster, NetOpts, On, Run, RunCfg};
use navp_net::NetPeStats;
use navp_sim::{CostModel, Trace};
use navp_trace::TraceReport;

use crate::config::KvConfig;
use crate::stages::{self, KvRunStats};
use crate::workload::{expected, KvProduct};

/// The kv journey steps, in paper order: the same incremental
/// transformations the matrix case study walks, applied to a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KvStage {
    /// One PE, one shard, one messenger — the sequential program.
    Seq,
    /// Distributed shards, one migrating messenger (DSC).
    Dsc,
    /// One carrier per batch, pipelined through PE 0.
    Pipe,
    /// Phase-shifted entry PEs plus a roving background compactor.
    Phase,
}

impl KvStage {
    /// Journey order.
    pub const ALL: [KvStage; 4] = [KvStage::Seq, KvStage::Dsc, KvStage::Pipe, KvStage::Phase];

    /// Stable name used by CLIs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            KvStage::Seq => "kv_seq",
            KvStage::Dsc => "kv_dsc",
            KvStage::Pipe => "kv_pipe",
            KvStage::Phase => "kv_phase",
        }
    }

    /// Parse a stage name (with or without the `kv_` prefix).
    pub fn parse(s: &str) -> Option<KvStage> {
        match s.trim_start_matches("kv_") {
            "seq" => Some(KvStage::Seq),
            "dsc" => Some(KvStage::Dsc),
            "pipe" => Some(KvStage::Pipe),
            "phase" => Some(KvStage::Phase),
            _ => None,
        }
    }

    /// PEs the step actually uses for a requested mesh width: the
    /// sequential step always runs on one PE.
    pub fn effective_pes(&self, pes: usize) -> usize {
        match self {
            KvStage::Seq => 1,
            _ => pes,
        }
    }

    /// Home PE where batch `b` deposits its results.
    pub fn res_home(&self, pes: usize, b: usize) -> usize {
        match self {
            KvStage::Phase => b % pes,
            _ => 0,
        }
    }
}

impl fmt::Display for KvStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What can go wrong driving a kv run.
#[derive(Debug)]
pub enum KvError {
    /// NavP executor error.
    Navp(navp::RunError),
    /// The final stores were missing results or shards.
    Incomplete(String),
    /// Invalid stage/mesh combination.
    Shape(String),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Navp(e) => write!(f, "NavP runtime error: {e}"),
            KvError::Incomplete(s) => write!(f, "incomplete run: {s}"),
            KvError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<navp::RunError> for KvError {
    fn from(e: navp::RunError) -> Self {
        KvError::Navp(e)
    }
}

/// What a kv run produced.
pub struct KvRunOutput {
    /// Virtual makespan (sim executor only).
    pub virt_seconds: Option<f64>,
    /// Wall-clock duration (real executors only).
    pub wall: Option<Duration>,
    /// The run's product: ordered results plus the merged store digest.
    pub product: KvProduct,
    /// Whether the product matches the sequential reference model.
    /// `None` when verification was skipped (benchmarks).
    pub verified: Option<bool>,
    /// Aggregate counters read off the final stores.
    pub stats: KvRunStats,
    /// Inter-PE messenger transfers.
    pub transfers: u64,
    /// Bytes those transfers carried (wire bytes on the net executor).
    pub bytes: u64,
    /// Recorded trace, when requested.
    pub trace: Option<Trace>,
    /// Derived trace metrics, whenever a trace was recorded.
    pub trace_report: Option<TraceReport>,
    /// Fault-machinery counters.
    pub faults: Option<FaultStats>,
    /// Per-PE socket statistics (net executor only).
    pub per_pe_net: Option<Vec<NetPeStats>>,
    /// Metrics snapshot, when requested.
    pub metrics: Option<MetricsSnapshot>,
}

impl fmt::Debug for KvRunOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvRunOutput")
            .field("virt_seconds", &self.virt_seconds)
            .field("wall", &self.wall)
            .field("verified", &self.verified)
            .field("stats", &self.stats)
            .field("transfers", &self.transfers)
            .field("bytes", &self.bytes)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

fn build_cluster(stage: KvStage, cfg: &KvConfig, pes: usize) -> Result<Cluster, KvError> {
    if pes == 0 {
        return Err(KvError::Shape("mesh width must be at least 1".into()));
    }
    Ok(match stage {
        KvStage::Seq => stages::seq_cluster(cfg)?,
        KvStage::Dsc => stages::dsc_cluster(cfg, pes)?,
        KvStage::Pipe => stages::pipe_cluster(cfg, pes)?,
        KvStage::Phase => stages::phase_cluster(cfg, pes)?,
    })
}

/// Run a kv step: build its cluster (unless the run restores one from
/// disk), then collect the product from each batch's result home and
/// verify it.
fn run_kv(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    run: Run<'_>,
) -> Result<KvRunOutput, KvError> {
    let check = run.verifies();
    let run_cfg = RunCfg {
        trace: cfg.trace,
        metrics: cfg.metrics,
        watchdog: cfg.watchdog,
    };
    let build = || build_cluster(stage, cfg, pes);
    let ran = run_cluster(run, run_cfg, crate::net::register_net, build)?;
    let home = |b| stage.res_home(stage.effective_pes(pes), b);
    let (product, stats) = stages::collect(&ran.stores, cfg, home).map_err(KvError::Incomplete)?;
    let verified = check.then(|| product == expected(cfg));
    Ok(KvRunOutput {
        virt_seconds: ran.virt_seconds,
        wall: ran.wall,
        product,
        verified,
        stats,
        transfers: ran.transfers,
        bytes: ran.bytes,
        trace: ran.trace,
        trace_report: ran.trace_report,
        faults: ran.faults,
        per_pe_net: ran.per_pe_net,
        metrics: ran.metrics,
    })
}

/// Run a kv step under the virtual cost model.
pub fn run_kv_sim(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    cost: &CostModel,
    with_trace: bool,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Sim(cost)).traced(with_trace))
}

/// As [`run_kv_sim`], with `plan`'s faults injected during the run.
pub fn run_kv_sim_faulted(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    cost: &CostModel,
    plan: FaultPlan,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Sim(cost)).plan(Some(plan)))
}

/// Run a kv step on real threads (wall-clock), verifying the product
/// against the sequential reference model.
pub fn run_kv_threads(stage: KvStage, cfg: &KvConfig, pes: usize) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Threads))
}

/// As [`run_kv_threads`] without verification — for benchmarks, where
/// re-deriving the reference every iteration would dominate.
pub fn run_kv_threads_unverified(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Threads).unverified())
}

/// As [`run_kv_threads`], with `plan`'s faults injected during the run.
pub fn run_kv_threads_faulted(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    plan: FaultPlan,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Threads).plan(Some(plan)))
}

/// Run a kv step across real OS processes over TCP. The cluster is
/// built exactly as for [`run_kv_threads`]; only the executor differs,
/// so the product must be bitwise identical — `tests/kv.rs` asserts it.
pub fn run_kv_net(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    opts: &NetOpts,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Net(opts)))
}

/// As [`run_kv_net`], with `plan`'s faults mapped onto the real
/// sockets.
pub fn run_kv_net_faulted(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    opts: &NetOpts,
    plan: FaultPlan,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Net(opts)).plan(Some(plan)))
}

/// As [`run_kv_threads`], spilling a durable checkpoint of the whole
/// cluster — shards, carriers, deposited results — to `dir` at every
/// run boundary. An optional fault plan lets tests crash mid-run; the
/// cuts restore with [`run_kv_restored_threads`] and finish bitwise
/// identically.
pub fn run_kv_threads_durable(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    dir: impl Into<PathBuf>,
    plan: Option<FaultPlan>,
) -> Result<KvRunOutput, KvError> {
    let run = Run::on(On::Threads).durable(dir.into()).plan(plan);
    run_kv(stage, cfg, pes, run)
}

/// Restore an interrupted durable kv run from its checkpoint directory
/// and finish it on real threads. The completed product is bitwise
/// identical to the uninterrupted run, which `verified` re-checks.
pub fn run_kv_restored_threads(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    dir: &Path,
) -> Result<KvRunOutput, KvError> {
    run_kv(stage, cfg, pes, Run::on(On::Threads).restore(dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journey_entry_points_agree() {
        let cfg = KvConfig::new(160, 4);
        let seq = run_kv_threads(KvStage::Seq, &cfg, 1).expect("seq");
        let dsc = run_kv_threads(KvStage::Dsc, &cfg, 3).expect("dsc");
        let pipe = run_kv_threads(KvStage::Pipe, &cfg, 3).expect("pipe");
        let phase = run_kv_threads(KvStage::Phase, &cfg, 3).expect("phase");
        for out in [&seq, &dsc, &pipe, &phase] {
            assert_eq!(out.verified, Some(true));
        }
        assert_eq!(seq.product, dsc.product);
        assert_eq!(dsc.product, pipe.product);
        assert_eq!(pipe.product, phase.product);
        assert!(phase.stats.compactions > 0, "phase must compact");
        assert!(dsc.transfers > 0, "dsc must migrate");
    }

    #[test]
    fn durable_checkpoint_restores_bitwise() {
        let cfg = KvConfig::new(120, 4);
        let dir = std::env::temp_dir().join(format!("navp-kv-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clean = run_kv_threads(KvStage::Pipe, &cfg, 2).expect("clean run");
        // Crash PE 1 without checkpoint-based in-run recovery, so the
        // run dies and only the durable cuts can finish it.
        let plan = FaultPlan::new().crash_pe(1, 1).without_checkpointing();
        let died = run_kv_threads_durable(KvStage::Pipe, &cfg, 2, &dir, Some(plan));
        assert!(died.is_err(), "crash plan must kill the run");
        let restored = run_kv_restored_threads(KvStage::Pipe, &cfg, 2, &dir).expect("restore");
        assert_eq!(restored.verified, Some(true));
        assert_eq!(restored.product, clean.product);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_metrics_and_trace_paths_work() {
        let cfg = KvConfig::new(80, 4).with_metrics(true);
        let out = run_kv_sim(
            KvStage::Phase,
            &cfg,
            2,
            &CostModel::paper_cluster(),
            true,
        )
        .expect("sim");
        assert_eq!(out.verified, Some(true));
        assert!(out.trace.is_some());
        let snap = out.metrics.expect("metrics requested");
        assert!(snap.total("navp_hops_total") > 0.0);
    }
}
