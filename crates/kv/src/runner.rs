//! The entry point of the kv journey steps.
//!
//! [`run_kv`] takes the problem ([`KvConfig`]) and one [`Run`] that
//! says how the run goes, and hands the step's cluster to
//! [`run_cluster`], the one dispatch both workloads share, so the
//! tests, the bench harness, the fuzzer, the job service and the
//! examples all measure the same code. What stays here is the kv work:
//! building each step's cluster, collecting the product and verifying
//! it against the sequential reference model.

use std::fmt;
use std::time::Duration;

use navp::{Cluster, FaultStats};
use navp_metrics::MetricsSnapshot;
use navp_mm::runner::{run_cluster, On, Run};
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

/// Run a kv step as `run` says: build its cluster (unless the run
/// restores one from disk), run it, then collect the product from each
/// batch's result home and verify it. The product is bitwise identical
/// on every executor and every step.
pub fn run_kv(
    stage: KvStage,
    cfg: &KvConfig,
    pes: usize,
    run: Run<'_>,
) -> Result<KvRunOutput, KvError> {
    let check = run.verifies();
    let build = || build_cluster(stage, cfg, pes);
    let ran = run_cluster(run, crate::net::register_net, build)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use navp::FaultPlan;

    fn threads(stage: KvStage, cfg: &KvConfig, pes: usize) -> KvRunOutput {
        run_kv(stage, cfg, pes, Run::on(On::Threads)).unwrap_or_else(|e| panic!("{stage}: {e}"))
    }

    #[test]
    fn journey_entry_points_agree() {
        let cfg = KvConfig::new(160, 4);
        let seq = threads(KvStage::Seq, &cfg, 1);
        let dsc = threads(KvStage::Dsc, &cfg, 3);
        let pipe = threads(KvStage::Pipe, &cfg, 3);
        let phase = threads(KvStage::Phase, &cfg, 3);
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
        let clean = threads(KvStage::Pipe, &cfg, 2);
        // Crash PE 1 without checkpoint-based in-run recovery, so the
        // run dies and only the durable cuts can finish it.
        let plan = FaultPlan::new().crash_pe(1, 1).without_checkpointing();
        let run = Run::on(On::Threads).durable(&dir).plan(Some(plan));
        let died = run_kv(KvStage::Pipe, &cfg, 2, run);
        assert!(died.is_err(), "crash plan must kill the run");
        let restored =
            run_kv(KvStage::Pipe, &cfg, 2, Run::on(On::Threads).restore(&dir)).expect("restore");
        assert_eq!(restored.verified, Some(true));
        assert_eq!(restored.product, clean.product);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_metrics_and_trace_paths_work() {
        let cfg = KvConfig::new(80, 4);
        let cost = CostModel::paper_cluster();
        let run = Run::on(On::Sim(&cost)).traced(true).metrics(true);
        let out = run_kv(KvStage::Phase, &cfg, 2, run).expect("sim");
        assert_eq!(out.verified, Some(true));
        assert!(out.trace.is_some());
        let snap = out.metrics.expect("metrics requested");
        assert!(snap.total("navp_hops_total") > 0.0);
    }
}
