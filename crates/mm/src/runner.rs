//! Uniform entry points over every implementation, and the one run path
//! beneath them.
//!
//! The bench harness, the integration tests, the fuzzer, the job
//! service and the examples all drive the stages through the `run_*`
//! functions here. Each only names a [`Run`]: the executor ([`On`]) plus
//! what the variant adds — a fault plan, a durable or restore directory,
//! a live metrics handle. [`run_cluster`], the one dispatch under them
//! and under the kv runner, runs a built or restored cluster on any
//! executor and returns the executor-neutral [`Ran`], honouring the
//! config's trace, metrics and watchdog settings the same way on every
//! path. What stays here is the matrix work: each stage's cluster and
//! C-ownership map, collecting C and verifying it.

use crate::config::{MmConfig, Payload};
use crate::gentleman::GentlemanOpts;
use crate::util::{collect_c, Topo1D, Topo2D};
use crate::{dpc2d, dsc1d, dsc2d, gentleman, phase1d, pipe1d, pipe2d, seq, summa};
use navp::{Cluster, FaultPlan, FaultStats, NodeStore, RunError, SimExecutor, ThreadExecutor};
use navp_matrix::{Grid2D, Matrix};
use navp_metrics::{MetricsSnapshot, RunMetrics};
use navp_mp::{MpSimExecutor, MpThreadExecutor};
use navp_net::{restore_from_dir, NetExecutor, NetPeStats, RegistryCodec};
use navp_sim::{CostModel, Trace};
use navp_trace::TraceReport;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// The NavP stages in paper order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NavpStage {
    /// 1-D DSC (Fig. 5).
    Dsc1D,
    /// 1-D pipelined (Fig. 7).
    Pipe1D,
    /// 1-D phase-shifted (Fig. 9).
    Phase1D,
    /// 2-D DSC (Fig. 11).
    Dsc2D,
    /// 2-D pipelined (Fig. 13).
    Pipe2D,
    /// 2-D full DPC (Fig. 15).
    Dpc2D,
}

impl NavpStage {
    /// All six stages, in order of the incremental chain.
    pub const ALL: [NavpStage; 6] = [
        NavpStage::Dsc1D,
        NavpStage::Pipe1D,
        NavpStage::Phase1D,
        NavpStage::Dsc2D,
        NavpStage::Pipe2D,
        NavpStage::Dpc2D,
    ];

    /// Short human-readable name matching the paper's table columns.
    pub fn name(&self) -> &'static str {
        match self {
            NavpStage::Dsc1D => "NavP (1D DSC)",
            NavpStage::Pipe1D => "NavP (1D pipeline)",
            NavpStage::Phase1D => "NavP (1D phase)",
            NavpStage::Dsc2D => "NavP (2D DSC)",
            NavpStage::Pipe2D => "NavP (2D pipeline)",
            NavpStage::Dpc2D => "NavP (2D phase)",
        }
    }

    /// `true` for the stages that run on a 1-D PE line.
    pub fn is_1d(&self) -> bool {
        matches!(
            self,
            NavpStage::Dsc1D | NavpStage::Pipe1D | NavpStage::Phase1D
        )
    }
}

/// The message-passing baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpAlg {
    /// Gentleman's algorithm with the given options.
    Gentleman(GentlemanOpts),
    /// SUMMA, the ScaLAPACK stand-in.
    Summa,
}

impl MpAlg {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MpAlg::Gentleman(_) => "MPI (Gentleman)",
            MpAlg::Summa => "ScaLAPACK* (SUMMA)",
        }
    }
}

/// Errors from the uniform runners.
#[derive(Debug)]
pub enum RunnerError {
    /// Matrix/layout error.
    Matrix(navp_matrix::MatrixError),
    /// NavP executor error.
    Navp(navp::RunError),
    /// Message-passing executor error.
    Mp(navp_mp::MpError),
    /// Topology incompatible with the requested stage.
    Topology(String),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Matrix(e) => write!(f, "matrix error: {e}"),
            RunnerError::Navp(e) => write!(f, "NavP runtime error: {e}"),
            RunnerError::Mp(e) => write!(f, "message-passing error: {e}"),
            RunnerError::Topology(s) => write!(f, "topology error: {s}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<navp_matrix::MatrixError> for RunnerError {
    fn from(e: navp_matrix::MatrixError) -> Self {
        RunnerError::Matrix(e)
    }
}
impl From<navp::RunError> for RunnerError {
    fn from(e: navp::RunError) -> Self {
        RunnerError::Navp(e)
    }
}
impl From<navp_mp::MpError> for RunnerError {
    fn from(e: navp_mp::MpError) -> Self {
        RunnerError::Mp(e)
    }
}

/// What a run produced.
pub struct RunOutput {
    /// Modeled virtual time in seconds (sim executors only).
    pub virt_seconds: Option<f64>,
    /// Wall-clock time (thread executors only).
    pub wall: Option<Duration>,
    /// The product (real payloads only).
    pub c: Option<Matrix>,
    /// Whether the product matched the sequential reference
    /// (real payloads only; `None` for phantom runs).
    pub verified: Option<bool>,
    /// Inter-PE transfers (hops or messages).
    pub transfers: u64,
    /// Bytes moved between PEs.
    pub bytes: u64,
    /// Full execution trace when requested — virtual-time from the sim
    /// executor, wall-clock from the threads/net executors (when
    /// [`MmConfig::trace`] is set).
    pub trace: Option<Trace>,
    /// Metrics derived from the trace (utilization, hop latency,
    /// waits), whenever one was recorded.
    pub trace_report: Option<TraceReport>,
    /// Fault-injection and recovery counters (NavP executors only;
    /// zeroed stats when the run had no fault plan).
    pub faults: Option<FaultStats>,
    /// Per-PE network accounting (networked executor only).
    pub per_pe_net: Option<Vec<NetPeStats>>,
    /// Aggregated runtime metrics (when [`MmConfig::metrics`] is set;
    /// NavP executors only). For networked runs this is the merge of
    /// every PE daemon's registry, collected over the mesh at drain.
    pub metrics: Option<MetricsSnapshot>,
}

impl fmt::Debug for RunOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOutput")
            .field("virt_seconds", &self.virt_seconds)
            .field("wall", &self.wall)
            .field("verified", &self.verified)
            .field("transfers", &self.transfers)
            .field("bytes", &self.bytes)
            .field("faults", &self.faults)
            .field("per_pe_net", &self.per_pe_net)
            .field(
                "metrics",
                &self.metrics.as_ref().map(|m| m.samples.len()),
            )
            .finish_non_exhaustive()
    }
}

/// Owner map: C-block coordinates to the PE holding the block after a run.
type OwnerFn = Box<dyn Fn(usize, usize) -> usize>;

/// Run a NavP stage: build its cluster (unless the run restores one from
/// disk) and collect C by the stage's ownership map.
fn run_navp(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    run: Run<'_>,
) -> Result<RunOutput, RunnerError> {
    if !stage.is_1d() {
        let topo = Topo2D::new(cfg.nb(), grid)?;
        let build = move || {
            let (a, b) = cfg.operands()?;
            Ok(match stage {
                NavpStage::Dsc2D => dsc2d::cluster(cfg, &topo, &a, &b)?,
                NavpStage::Pipe2D => pipe2d::cluster(cfg, &topo, &a, &b)?,
                _ => dpc2d::cluster(cfg, &topo, &a, &b)?,
            })
        };
        return run_mm(cfg, move |bi, bj| topo.node_of_block(bi, bj), run, build);
    }
    if grid.rows != 1 {
        return Err(RunnerError::Topology(format!(
            "{} needs a 1-D line, got {}x{}",
            stage.name(),
            grid.rows,
            grid.cols
        )));
    }
    let topo = Topo1D::new(cfg.nb(), grid.cols)?;
    let build = move || {
        let (a, b) = cfg.operands()?;
        Ok(match stage {
            NavpStage::Dsc1D => dsc1d::cluster(cfg, &topo, &a, &b)?,
            NavpStage::Pipe1D => pipe1d::cluster(cfg, &topo, &a, &b)?,
            _ => phase1d::cluster(cfg, &topo, &a, &b)?,
        })
    };
    run_mm(cfg, move |_, bj| topo.pe_of_col(bj), run, build)
}

/// Run the cluster `build` makes through [`run_cluster`], then collect
/// C by `own`.
fn run_mm(
    cfg: &MmConfig,
    own: impl Fn(usize, usize) -> usize,
    run: Run<'_>,
    build: impl FnOnce() -> Result<Cluster, RunnerError>,
) -> Result<RunOutput, RunnerError> {
    let check = run.verifies();
    let run_cfg = RunCfg {
        trace: cfg.trace,
        metrics: cfg.metrics,
        watchdog: cfg.watchdog,
    };
    let ran = run_cluster(run, run_cfg, crate::net::register_net, build)?;
    output(cfg, ran, own, check)
}

/// The output of a finished run: C collected by `own` and, when
/// `check`ed, verified against the sequential reference.
fn output(
    cfg: &MmConfig,
    mut ran: Ran,
    own: impl Fn(usize, usize) -> usize,
    check: bool,
) -> Result<RunOutput, RunnerError> {
    let c = collect_c(&mut ran.stores, cfg, own)?;
    let verified = match (cfg.payload, &c) {
        _ if !check => None,
        (Payload::Phantom, _) => None,
        (Payload::Real { .. }, Some(got)) => {
            let want = cfg.expected()?.expect("real payload has a reference");
            Some(want.max_abs_diff(got) < 1e-9)
        }
        (Payload::Real { .. }, None) => Some(false),
    };
    Ok(RunOutput {
        virt_seconds: ran.virt_seconds,
        wall: ran.wall,
        c,
        verified,
        transfers: ran.transfers,
        bytes: ran.bytes,
        trace: ran.trace,
        trace_report: ran.trace_report,
        faults: ran.faults,
        per_pe_net: ran.per_pe_net,
        metrics: ran.metrics,
    })
}

/// Which executor a [`Run`] goes on.
#[derive(Clone, Copy, Debug, Default)]
pub enum On<'a> {
    /// [`SimExecutor`] under this cost model (virtual time).
    Sim(&'a CostModel),
    /// [`ThreadExecutor`]: one OS thread per PE (wall-clock).
    #[default]
    Threads,
    /// [`NetExecutor`]: one `navp-pe` process per PE (wall-clock).
    Net(&'a NetOpts),
}

/// One run of a workload's cluster: the executor, and what a `run_*`
/// entry point adds to its config. [`Run::on`] alone is a plain run of
/// a freshly built cluster, verified.
#[derive(Default)]
pub struct Run<'a> {
    on: On<'a>,
    restore: Option<&'a Path>,
    plan: Option<FaultPlan>,
    durable: Option<PathBuf>,
    trace: bool,
    live_metrics: Option<Arc<RunMetrics>>,
    unverified: bool,
}

impl<'a> Run<'a> {
    /// A plain run on `on`.
    pub fn on(on: On<'a>) -> Run<'a> {
        Run {
            on,
            ..Run::default()
        }
    }

    /// Finish the durable run checkpointed in `dir` instead of building
    /// a fresh cluster.
    pub fn restore(mut self, dir: &'a Path) -> Run<'a> {
        self.restore = Some(dir);
        self
    }

    /// Inject `plan`'s faults.
    pub fn plan(mut self, plan: Option<FaultPlan>) -> Run<'a> {
        self.plan = plan;
        self
    }

    /// Spill a durable checkpoint to `dir` at every run boundary
    /// (in-process executors; the net executor takes
    /// [`NetOpts::durable_dir`]).
    pub fn durable(mut self, dir: PathBuf) -> Run<'a> {
        self.durable = Some(dir);
        self
    }

    /// Record a trace even when the config does not ask for one.
    pub fn traced(mut self, trace: bool) -> Run<'a> {
        self.trace = trace;
        self
    }

    /// Record metrics into this caller-owned handle, which a concurrent
    /// observer may poll mid-run (in-process executors).
    pub fn metered(mut self, metrics: Arc<RunMetrics>) -> Run<'a> {
        self.live_metrics = Some(metrics);
        self
    }

    /// Skip checking the product against the sequential reference.
    pub fn unverified(mut self) -> Run<'a> {
        self.unverified = true;
        self
    }

    /// Whether the workload runner should verify the product.
    pub fn verifies(&self) -> bool {
        !self.unverified
    }
}

/// The run settings every workload config carries.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Record a trace (and derive its [`TraceReport`]).
    pub trace: bool,
    /// Record runtime metrics and return their snapshot.
    pub metrics: bool,
    /// No-progress watchdog of the wall-clock executors; `None` falls
    /// back to `NAVP_WATCHDOG_MS`, then the executor default.
    pub watchdog: Option<Duration>,
}

/// What [`run_cluster`] hands back, whatever the executor.
#[derive(Default)]
pub struct Ran {
    /// Post-run node stores (index = PE).
    pub stores: Vec<NodeStore>,
    /// Modeled makespan in seconds (sim only).
    pub virt_seconds: Option<f64>,
    /// Wall-clock duration (threads and net).
    pub wall: Option<Duration>,
    /// Inter-PE hops.
    pub transfers: u64,
    /// Bytes those hops carried (wire bytes on the net).
    pub bytes: u64,
    /// The recorded trace, when one was asked for.
    pub trace: Option<Trace>,
    /// Metrics derived from that trace.
    pub trace_report: Option<TraceReport>,
    /// Fault-injection and recovery counters (NavP executors).
    pub faults: Option<FaultStats>,
    /// Per-PE network accounting (net only).
    pub per_pe_net: Option<Vec<NetPeStats>>,
    /// Metrics snapshot, when metrics were recorded.
    pub metrics: Option<MetricsSnapshot>,
}

/// The one run path of every workload: take the cluster `build` makes
/// (or, for [`Run::restore`], the one reassembled from disk), run it as
/// `run` and `cfg` say, and return the executor-neutral results.
/// `register` loads the workload's wire codecs, which restores, durable
/// spills and the net executor need.
pub fn run_cluster<E: From<RunError>>(
    run: Run<'_>,
    cfg: RunCfg,
    register: fn(),
    build: impl FnOnce() -> Result<Cluster, E>,
) -> Result<Ran, E> {
    if run.restore.is_some() || run.durable.is_some() || matches!(run.on, On::Net(_)) {
        register();
    }
    let mut cl = match run.restore {
        Some(dir) => restore_from_dir(dir)?,
        None => build()?,
    };
    if let Some(plan) = run.plan {
        cl.set_fault_plan(plan);
    }
    let pes = cl.pes();
    let trace = cfg.trace || run.trace;
    let meter = || {
        let live = run.live_metrics.clone();
        live.or_else(|| cfg.metrics.then(|| RunMetrics::new(pes)))
    };
    let (mut ran, dropped) = match run.on {
        On::Sim(cost) => {
            let mut exec = SimExecutor::new(*cost);
            if trace {
                exec = exec.with_trace();
            }
            let met = meter();
            if let Some(m) = &met {
                exec = exec.with_metrics(Arc::clone(m));
            }
            if let Some(dir) = run.durable {
                exec = exec.with_durable(dir, Arc::new(RegistryCodec::new()));
            }
            let rep = exec.run(cl)?;
            let ran = Ran {
                stores: rep.stores,
                virt_seconds: Some(rep.makespan.as_secs_f64()),
                transfers: rep.hops,
                bytes: rep.hop_bytes,
                trace: trace.then_some(rep.trace),
                faults: Some(rep.faults),
                metrics: met.map(|m| m.snapshot()),
                ..Ran::default()
            };
            (ran, 0)
        }
        On::Threads => {
            let mut exec = thread_executor(trace, cfg.watchdog);
            let met = meter();
            if let Some(m) = &met {
                exec = exec.with_metrics(Arc::clone(m));
            }
            if let Some(dir) = run.durable {
                exec = exec.with_durable(dir, Arc::new(RegistryCodec::new()));
            }
            let rep = exec.run(cl)?;
            let ran = Ran {
                stores: rep.stores,
                wall: Some(rep.wall),
                transfers: rep.hops,
                bytes: rep.hop_bytes,
                trace: rep.trace,
                faults: Some(rep.faults),
                metrics: met.map(|m| m.snapshot()),
                ..Ran::default()
            };
            (ran, rep.trace_dropped)
        }
        On::Net(opts) => {
            let rep = net_executor(opts, trace, cfg.metrics, cfg.watchdog).run(cl)?;
            let ran = Ran {
                stores: rep.stores,
                wall: Some(rep.wall),
                transfers: rep.hops,
                bytes: rep.wire_bytes,
                trace: rep.trace,
                faults: Some(rep.faults),
                per_pe_net: Some(rep.per_pe),
                metrics: rep.metrics,
                ..Ran::default()
            };
            (ran, rep.trace_dropped)
        }
    };
    // A trace that dropped events is silently partial unless someone
    // says so. (The count also lands in the report's summary line and
    // the `navp_trace_dropped_events_total` counter.)
    if dropped > 0 {
        eprintln!(
            "warning: trace buffer overflowed — {dropped} events dropped; \
             the trace and its report are partial"
        );
    }
    ran.trace_report = ran
        .trace
        .as_ref()
        .map(|t| TraceReport::from_trace(t, pes, dropped));
    Ok(ran)
}

/// The watchdog a run is under: the config's, else the
/// `NAVP_WATCHDOG_MS` environment variable, else the executor's
/// `default`. Garbage in the variable is ignored.
fn resolve_watchdog(watchdog: Option<Duration>, default: Duration) -> Duration {
    let env = || std::env::var("NAVP_WATCHDOG_MS").ok()?.trim().parse().ok();
    let wd = watchdog.or_else(|| env().map(Duration::from_millis));
    wd.unwrap_or(default)
}

/// The thread executor a run asks for.
fn thread_executor(trace: bool, watchdog: Option<Duration>) -> ThreadExecutor {
    let exec = ThreadExecutor::new().with_trace(trace);
    let wd = resolve_watchdog(watchdog, exec.watchdog());
    exec.with_watchdog(wd)
}

/// The networked executor a run asks for.
fn net_executor(
    opts: &NetOpts,
    trace: bool,
    metrics: bool,
    watchdog: Option<Duration>,
) -> NetExecutor {
    let mut exec = NetExecutor::new()
        .with_trace(trace)
        .with_metrics(metrics)
        .join_addrs(opts.join.clone())
        .with_run_id(opts.run_id);
    if let Some(bin) = &opts.pe_bin {
        exec = exec.with_pe_bin(bin.clone());
    }
    if let Some(grace) = opts.grace {
        exec = exec.with_grace(grace);
    }
    if let Some(dir) = &opts.durable_dir {
        exec = exec.with_durable_dir(dir.clone());
    }
    if let Some(deadline) = opts.deadline {
        exec = exec.with_deadline(deadline);
    }
    let wd = resolve_watchdog(watchdog, exec.watchdog());
    exec.with_watchdog(wd)
}

/// Run the sequential baseline under the cost model (one virtual PE, so
/// Table 2's paging behaviour is captured).
pub fn run_seq_sim(cfg: &MmConfig, cost: &CostModel) -> Result<RunOutput, RunnerError> {
    let build = || {
        let (a, b) = cfg.operands()?;
        Ok(seq::cluster(cfg, &a, &b)?)
    };
    run_mm(cfg, |_, _| 0, Run::on(On::Sim(cost)), build)
}

/// Run a NavP stage under the virtual-time executor.
pub fn run_navp_sim(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    with_trace: bool,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Sim(cost)).traced(with_trace))
}

/// As [`run_navp_sim`], with `plan`'s faults injected during the run.
/// The returned [`RunOutput::faults`] reports what was injected and
/// recovered.
pub fn run_navp_sim_faulted(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    plan: FaultPlan,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Sim(cost)).plan(Some(plan)))
}

/// Run a NavP stage on real threads (wall-clock).
pub fn run_navp_threads(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Threads))
}

/// As [`run_navp_threads`] but without result verification — for
/// benchmarks, where recomputing the sequential reference on every
/// iteration would dominate the measurement. `verified` is `None`.
pub fn run_navp_threads_unverified(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Threads).unverified())
}

/// As [`run_navp_threads`], with `plan`'s faults injected during the
/// run. The returned [`RunOutput::faults`] reports what was injected
/// and recovered.
pub fn run_navp_threads_faulted(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    plan: FaultPlan,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Threads).plan(Some(plan)))
}

/// As [`run_navp_threads`], recording runtime metrics into the
/// caller-supplied [`RunMetrics`] so a concurrent observer (e.g. the
/// `metrics_dashboard` example) can poll live counters while the run is
/// in flight. The handle must span `grid.rows * grid.cols` PEs; its
/// final state is also snapshotted into [`RunOutput::metrics`].
pub fn run_navp_threads_metered(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    metrics: Arc<RunMetrics>,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Threads).metered(metrics))
}

/// Options for networked (multi-process) runs.
#[derive(Clone, Debug, Default)]
pub struct NetOpts {
    /// Explicit `navp-pe` binary to spawn. `None` resolves
    /// `$NAVP_PE_BIN`, then a `navp-pe` next to the current executable.
    pub pe_bin: Option<PathBuf>,
    /// Join already-running `navp-pe --listen` processes at these
    /// addresses (one per PE, in PE order) instead of spawning local
    /// children.
    pub join: Vec<String>,
    /// Teardown grace window (child shutdown wait, exit-status polling
    /// on disconnect). `None` keeps the executor's 2 s default.
    pub grace: Option<Duration>,
    /// Durable checkpoint directory: every PE daemon spills its
    /// recovery cut there at each run boundary, so the whole cluster
    /// survives `kill -9` and restores with [`run_restored_net`].
    /// Joined (`--listen`) daemons must have been started with the same
    /// `--durable-dir`. `None` (default) performs zero extra syscalls.
    pub durable_dir: Option<PathBuf>,
    /// Run namespace for multi-tenant clusters: rides in the net
    /// handshake frames and scopes durable checkpoints to a per-run
    /// subdirectory, so concurrent runs multiplexed onto the same
    /// `--listen` daemons cannot collide. `0` (default) is the
    /// anonymous single-run namespace.
    pub run_id: u64,
    /// Wall-clock budget for the whole run; exceeded →
    /// [`RunError`]`::DeadlineExceeded`. `None`
    /// (default) = unbounded.
    pub deadline: Option<Duration>,
}

impl NetOpts {
    /// Builder-style [`NetOpts::durable_dir`].
    pub fn with_durable_dir(mut self, dir: impl Into<PathBuf>) -> NetOpts {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Builder-style [`NetOpts::run_id`].
    pub fn with_run_id(mut self, run_id: u64) -> NetOpts {
        self.run_id = run_id;
        self
    }

    /// Builder-style [`NetOpts::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> NetOpts {
        self.deadline = Some(deadline);
        self
    }
}

/// Run a NavP stage across real OS processes over TCP (wall-clock).
///
/// The cluster is built exactly as for [`run_navp_threads`]; the only
/// difference is the executor, so the product must be bitwise
/// identical — the parity tests assert exactly that.
pub fn run_navp_net(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Net(opts)))
}

/// As [`run_navp_net`], with `plan`'s faults mapped onto the real
/// sockets (delays hold frames, drops discard them, crashes kill or
/// restart the PE daemon). [`RunOutput::faults`] reports what happened.
pub fn run_navp_net_faulted(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
    plan: FaultPlan,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Net(opts)).plan(Some(plan)))
}

/// As [`run_navp_sim`], spilling a durable checkpoint of the whole
/// cluster to `dir` at every run boundary (atomic rename-commit,
/// checksummed; see `navp::durable`). An optional fault plan rides
/// along so tests can crash the run mid-way — the cuts already on disk
/// then restore with [`run_restored_sim`] and finish bitwise-identical.
pub fn run_navp_sim_durable(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    dir: impl Into<PathBuf>,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    let run = Run::on(On::Sim(cost)).durable(dir.into()).plan(plan);
    run_navp(stage, cfg, grid, run)
}

/// As [`run_navp_threads`], with durable checkpoints (see
/// [`run_navp_sim_durable`]); restore with [`run_restored_threads`].
pub fn run_navp_threads_durable(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    dir: impl Into<PathBuf>,
    plan: Option<FaultPlan>,
) -> Result<RunOutput, RunnerError> {
    let run = Run::on(On::Threads).durable(dir.into()).plan(plan);
    run_navp(stage, cfg, grid, run)
}

/// Restore an interrupted durable run of `stage` from its checkpoint
/// directory and finish it on the virtual-time executor.
///
/// The cuts may come from *any* executor — a `kill -9`'d networked
/// cluster restores here just as well — and the completed product is
/// bitwise-identical to the uninterrupted run, which `verified`
/// re-checks against the sequential reference.
pub fn run_restored_sim(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
    dir: &Path,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Sim(cost)).restore(dir))
}

/// As [`run_restored_sim`], finishing on real threads.
pub fn run_restored_threads(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    dir: &Path,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Threads).restore(dir))
}

/// As [`run_restored_sim`], finishing across real OS processes. Set
/// [`NetOpts::durable_dir`] (usually to the same directory) to keep the
/// resumed run itself crash-safe — the executor stamps a fresh session
/// manifest, so restore *before* re-running, never the other way round.
pub fn run_restored_net(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    opts: &NetOpts,
    dir: &Path,
) -> Result<RunOutput, RunnerError> {
    run_navp(stage, cfg, grid, Run::on(On::Net(opts)).restore(dir))
}

/// Run a message-passing baseline under the virtual-time executor.
pub fn run_mp_sim(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: &CostModel,
) -> Result<RunOutput, RunnerError> {
    run_mp(alg, cfg, grid, Some(cost))
}

/// Run a message-passing baseline on real threads (wall-clock).
pub fn run_mp_threads(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
) -> Result<RunOutput, RunnerError> {
    run_mp(alg, cfg, grid, None)
}

/// A message-passing baseline on the virtual-time executor under
/// `cost`, or on real threads without one.
fn run_mp(
    alg: MpAlg,
    cfg: &MmConfig,
    grid: Grid2D,
    cost: Option<&CostModel>,
) -> Result<RunOutput, RunnerError> {
    let (a, b) = cfg.operands()?;
    let (cl, own): (_, OwnerFn) = match alg {
        MpAlg::Gentleman(opts) => (
            gentleman::cluster(cfg, grid, opts, &a, &b)?,
            Box::new(gentleman::owner(cfg, grid)),
        ),
        MpAlg::Summa => (
            summa::cluster(cfg, grid, &a, &b)?,
            Box::new(summa::owner(cfg, grid)),
        ),
    };
    let ran = match cost {
        Some(cost) => {
            let rep = MpSimExecutor::new(*cost).run(cl)?;
            Ran {
                stores: rep.stores,
                virt_seconds: Some(rep.makespan.as_secs_f64()),
                transfers: rep.messages,
                bytes: rep.message_bytes,
                ..Ran::default()
            }
        }
        None => {
            let rep = MpThreadExecutor::new().run(cl)?;
            Ran {
                stores: rep.stores,
                wall: Some(rep.wall),
                ..Ran::default()
            }
        }
    };
    output(cfg, ran, own, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_navp_stages_verify_via_runner() {
        let cfg = MmConfig::real(12, 2);
        for stage in NavpStage::ALL {
            let grid = if stage.is_1d() {
                Grid2D::line(3).unwrap()
            } else {
                Grid2D::new(2, 2).unwrap()
            };
            let out = run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), false)
                .unwrap_or_else(|e| panic!("{} failed: {e}", stage.name()));
            assert_eq!(out.verified, Some(true), "{} wrong product", stage.name());
        }
    }

    #[test]
    fn mp_baselines_verify_via_runner() {
        let cfg = MmConfig::real(12, 2);
        let grid = Grid2D::new(2, 2).unwrap();
        for alg in [MpAlg::Gentleman(GentlemanOpts::default()), MpAlg::Summa] {
            let out = run_mp_sim(alg, &cfg, grid, &CostModel::paper_cluster()).unwrap();
            assert_eq!(out.verified, Some(true), "{} wrong product", alg.name());
        }
    }

    #[test]
    fn topology_mismatch_is_reported() {
        let cfg = MmConfig::real(12, 2);
        let grid = Grid2D::new(2, 2).unwrap();
        assert!(matches!(
            run_navp_sim(
                NavpStage::Dsc1D,
                &cfg,
                grid,
                &CostModel::paper_cluster(),
                false
            ),
            Err(RunnerError::Topology(_))
        ));
    }

    #[test]
    fn seq_runner_verifies() {
        let cfg = MmConfig::real(8, 2);
        let out = run_seq_sim(&cfg, &CostModel::paper_cluster()).unwrap();
        assert_eq!(out.verified, Some(true));
        assert_eq!(out.transfers, 0);
    }

    #[test]
    fn watchdog_resolution_order_is_config_env_default() {
        // Both wall-clock executors resolve through the one resolver: an
        // explicit config wins unconditionally, then the env var, then
        // the executor default.
        type Resolve = fn(Option<Duration>) -> Duration;
        let threads: Resolve = |wd| thread_executor(false, wd).watchdog();
        let net: Resolve = |wd| net_executor(&NetOpts::default(), false, false, wd).watchdog();
        let ms = Duration::from_millis;
        let explicit = MmConfig::real(8, 2).with_watchdog(ms(1234));
        let silent = MmConfig::real(8, 2);
        for (name, resolve, default) in [
            ("threads", threads, ThreadExecutor::new().watchdog()),
            ("net", net, NetExecutor::new().watchdog()),
        ] {
            assert_eq!(resolve(explicit.watchdog), ms(1234), "{name}");
            // The env var fills in when the config is silent. (Runner
            // tests are the only readers of this variable in this test
            // binary, so the set/remove pair cannot race another test.)
            std::env::set_var("NAVP_WATCHDOG_MS", "777");
            assert_eq!(resolve(silent.watchdog), ms(777), "{name}");
            assert_eq!(
                resolve(explicit.watchdog),
                ms(1234),
                "{name}: config still wins over env"
            );
            std::env::set_var("NAVP_WATCHDOG_MS", "not-a-number");
            assert_eq!(
                resolve(silent.watchdog),
                default,
                "{name}: garbage env falls back to the executor default"
            );
            std::env::remove_var("NAVP_WATCHDOG_MS");
            assert_eq!(resolve(silent.watchdog), default, "{name}");
        }
    }

    #[test]
    fn faulted_runner_recovers_and_reports() {
        let cfg = MmConfig::real(12, 2);
        let grid = Grid2D::line(3).unwrap();
        let plan = FaultPlan::new().crash_pe(1, 1);
        let out = run_navp_sim_faulted(
            NavpStage::Dsc1D,
            &cfg,
            grid,
            &CostModel::paper_cluster(),
            plan,
        )
        .unwrap();
        assert_eq!(out.verified, Some(true));
        let faults = out.faults.unwrap();
        assert_eq!(faults.crashes, 1);
        assert!(faults.redelivered >= 1);
    }

    #[test]
    fn trace_is_returned_on_request() {
        let cfg = MmConfig::phantom(8, 2);
        let out = run_navp_sim(
            NavpStage::Pipe1D,
            &cfg,
            Grid2D::line(2).unwrap(),
            &CostModel::paper_cluster(),
            true,
        )
        .unwrap();
        assert!(out.trace.is_some());
        assert!(!out.trace.unwrap().events().is_empty());
    }
}
