//! The driver: `NetExecutor` runs a [`Cluster`] across real OS
//! processes connected by TCP.
//!
//! The driver never runs messengers itself. It serializes each PE's
//! store slice and time-zero injections, brings up the process mesh,
//! then tallies `Delta` frames: the run is over when
//! `initial + spawned − finished` hits zero. A driver-side watchdog
//! turns silence into [`RunError::Stalled`]; a control-connection EOF
//! turns a dead PE process into [`RunError::PeerDisconnected`] — in
//! both cases every child is killed before returning, so a failed run
//! never leaks processes.

use crate::cluster::{event_home, resolve_pe_bin, spawn_pe};
use crate::frame::{Frame, StoreEntry};
use crate::netloop::{IoHandle, IoLoop};
use crate::registry::{decode_store, encode_messenger, encode_store};
use navp::{Cluster, FaultStats, NodeStore, RunError, WireSnapshot};
use navp_metrics::MetricsSnapshot;
use navp_trace::{merge_pe_traces, PeLog, Trace};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Child;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Per-PE accounting extracted from that PE's `Delta` stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetPeStats {
    /// Messenger steps executed on this PE.
    pub steps: u64,
    /// Inter-PE hops sent from this PE.
    pub hops: u64,
    /// Sum of `Messenger::payload_bytes` over those hops.
    pub hop_payload_bytes: u64,
    /// Encoded frame bytes this PE sent to peers (hops, waits,
    /// deliveries, signals — not driver control traffic).
    pub wire_bytes: u64,
    /// Faults injected on this PE, from its end-of-run `StoreDump`
    /// (the totals-row mirror of [`NetReport::faults`]).
    pub faults: FaultStats,
}

/// What a networked run produced.
///
/// `Debug` summarizes the counters; the stores themselves are
/// type-erased and print only as a per-PE entry count.
pub struct NetReport {
    /// Wall-clock time from process spawn to last store collected.
    pub wall: Duration,
    /// Post-run store of every PE.
    pub stores: Vec<NodeStore>,
    /// Total messenger steps.
    pub steps: u64,
    /// Total inter-PE hops.
    pub hops: u64,
    /// Total `Messenger::payload_bytes` carried by those hops — the
    /// quantity the sim executor's `Transfer` trace accounts for.
    pub hop_payload_bytes: u64,
    /// Total encoded frame bytes of peer payload traffic.
    pub wire_bytes: u64,
    /// Per-PE breakdown.
    pub per_pe: Vec<NetPeStats>,
    /// Aggregated fault counters from every PE.
    pub faults: FaultStats,
    /// The watchdog window the run was under.
    pub watchdog: Duration,
    /// Wall-clock trace merged from every PE process (clock-offset
    /// corrected), when the run was traced.
    pub trace: Option<Trace>,
    /// Events the PEs' ring buffers evicted before collection.
    pub trace_dropped: u64,
    /// Cluster-wide metric snapshot, merged from every PE's
    /// `MetricsDump`, when the run was metered.
    pub metrics: Option<MetricsSnapshot>,
}

impl std::fmt::Debug for NetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetReport")
            .field("wall", &self.wall)
            .field(
                "stores",
                &self
                    .stores
                    .iter()
                    .map(|s| s.keys().count())
                    .collect::<Vec<_>>(),
            )
            .field("steps", &self.steps)
            .field("hops", &self.hops)
            .field("hop_payload_bytes", &self.hop_payload_bytes)
            .field("wire_bytes", &self.wire_bytes)
            .field("per_pe", &self.per_pe)
            .field("faults", &self.faults)
            .field("trace", &self.trace.as_ref().map(|t| t.events().len()))
            .field("trace_dropped", &self.trace_dropped)
            .field(
                "metrics",
                &self.metrics.as_ref().map(|m| m.samples.len()),
            )
            .finish()
    }
}

/// A multi-process distributed executor: same step/Effect contract as
/// `SimExecutor` and `ThreadExecutor`, PEs as OS processes.
pub struct NetExecutor {
    watchdog: Duration,
    pe_bin: Option<PathBuf>,
    join: Vec<String>,
    trace: bool,
    metrics: bool,
    /// How long teardown-adjacent waits may take: child shutdown after
    /// the run, and the exit-status poll when a control connection
    /// drops.
    grace: Duration,
    /// Checkpoint directory for durable runs; `None` = durability off.
    durable_dir: Option<PathBuf>,
    /// Run namespace carried in `Assign`. `0` = the anonymous
    /// single-run namespace (durable state lives in `durable_dir`
    /// itself); nonzero ids scope durable state to a per-run
    /// subdirectory so concurrent runs on shared daemons can't
    /// collide.
    run_id: u64,
    /// Wall-clock budget for the whole run (mesh handshake included);
    /// exceeded → [`RunError::DeadlineExceeded`]. `None` = unbounded.
    deadline: Option<Duration>,
}

impl Default for NetExecutor {
    fn default() -> NetExecutor {
        NetExecutor::new()
    }
}

enum DriverMsg {
    FromPe(usize, std::io::Result<Frame>),
}

/// What [`NetExecutor::drive`] hands back: stores, per-PE stats, fault
/// counters, totals, the merged trace (with its dropped count) when
/// the run was traced, and the merged metric snapshot when metered.
type DriveOutcome = (
    Vec<NodeStore>,
    Vec<NetPeStats>,
    FaultStats,
    NetPeStats,
    Option<(Trace, u64)>,
    Option<MetricsSnapshot>,
);

struct Links {
    conns: Vec<IoHandle>,
    rx: Receiver<DriverMsg>,
    children: Vec<Child>,
    /// PE index → index into `children`. PE identity is assigned in
    /// connection-accept order while `children` is in spawn order, so
    /// the two generally disagree; each PE reports its OS pid in
    /// `Hello` and this map is filled from it.
    pe_child: Vec<Option<usize>>,
}

impl NetExecutor {
    /// An executor that spawns local `navp-pe` child processes and a
    /// 10-second watchdog (same default as `ThreadExecutor`).
    pub fn new() -> NetExecutor {
        NetExecutor {
            watchdog: Duration::from_secs(10),
            pe_bin: None,
            join: Vec::new(),
            trace: false,
            metrics: false,
            grace: Duration::from_secs(2),
            durable_dir: None,
            run_id: 0,
            deadline: None,
        }
    }

    /// Namespace this run. The id rides in `Assign` and `PeerHello`,
    /// scopes the PEs' durable checkpoints to
    /// [`run_dir(durable_dir, id)`](navp::durable::run_dir), and keeps
    /// concurrent runs multiplexed onto the same `--listen` daemons
    /// from cross-wiring their meshes. `0` (the default) is the
    /// anonymous single-run namespace every pre-service driver used.
    pub fn with_run_id(mut self, run_id: u64) -> NetExecutor {
        self.run_id = run_id;
        self
    }

    /// Give the run a wall-clock budget. Unlike the watchdog (which
    /// fires only on *silence*), the deadline cancels a run that is
    /// still making progress but slower than the caller allows — the
    /// enforcement half of a per-job timeout.
    pub fn with_deadline(mut self, deadline: Duration) -> NetExecutor {
        self.deadline = Some(deadline);
        self
    }

    /// Make the run durable: write the session manifest to `dir`,
    /// spawn every PE with `--durable-dir dir` so it spills its cut
    /// there write-ahead of every transmission, and keep the recovery
    /// machinery on even without a fault plan. After `kill -9` of any
    /// or all PE processes (or a graceful SIGTERM), the run resumes
    /// from [`crate::durable::restore_from_dir`]. In `--join` mode the
    /// daemons must have been started with the same `--durable-dir`
    /// (the directory is shared state — loopback clusters or a shared
    /// filesystem).
    pub fn with_durable_dir(mut self, dir: impl Into<PathBuf>) -> NetExecutor {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Override the no-progress watchdog window.
    pub fn with_watchdog(mut self, watchdog: Duration) -> NetExecutor {
        self.watchdog = watchdog;
        self
    }

    /// The configured no-progress watchdog window.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Record a wall-clock trace on every PE and merge it into
    /// [`NetReport::trace`]. Off by default: untraced runs carry zero
    /// tracing cost beyond a flag test per recording site.
    pub fn with_trace(mut self, trace: bool) -> NetExecutor {
        self.trace = trace;
        self
    }

    /// Meter every PE with the shared `navp_*` metric set and merge
    /// the per-process snapshots into [`NetReport::metrics`]. Off by
    /// default: unmetered runs pay one branch per recording site.
    pub fn with_metrics(mut self, metrics: bool) -> NetExecutor {
        self.metrics = metrics;
        self
    }

    /// Override the teardown grace window (child shutdown wait,
    /// exit-status polling on disconnect). Defaults to 2 s.
    pub fn with_grace(mut self, grace: Duration) -> NetExecutor {
        self.grace = grace;
        self
    }

    /// Spawn this `navp-pe` binary instead of searching next to the
    /// current executable / `$NAVP_PE_BIN`.
    pub fn with_pe_bin(mut self, bin: impl Into<PathBuf>) -> NetExecutor {
        self.pe_bin = Some(bin.into());
        self
    }

    /// Join already-running `navp-pe --listen` processes at these
    /// addresses (one per PE, in PE order) instead of spawning local
    /// children.
    pub fn join_addrs(mut self, addrs: Vec<String>) -> NetExecutor {
        self.join = addrs;
        self
    }

    /// Run the cluster to completion.
    pub fn run(&self, cluster: Cluster) -> Result<NetReport, RunError> {
        let parts = cluster.into_parts();
        let pes = parts.stores.len();
        if pes == 0 {
            return Err(RunError::NoPes);
        }

        // Serialize everything up front: an unserializable messenger or
        // store value fails here, before any process exists.
        let mut store_imgs: Vec<Vec<StoreEntry>> = Vec::with_capacity(pes);
        for store in &parts.stores {
            store_imgs.push(encode_store(store)?);
        }
        let mut injections: Vec<Vec<(u64, WireSnapshot)>> = vec![Vec::new(); pes];
        for (id, (pe, m)) in parts.injections.iter().enumerate() {
            if *pe >= pes {
                return Err(RunError::PeOutOfRange { pe: *pe, pes });
            }
            injections[*pe].push((id as u64, encode_messenger(m.as_ref())?));
        }
        let initial_live = parts.injections.len() as u64;
        let mut events: Vec<Vec<navp::EventKey>> = vec![Vec::new(); pes];
        for key in &parts.initial_events {
            events[event_home(key, pes)].push(*key);
        }

        // The same plan rule as in process. Durable runs need the
        // recovery machinery on every PE even without faults, and a
        // fresh session manifest on disk before any process can spill
        // against it.
        let durable = self.durable_dir.is_some();
        let fault_plan =
            navp::FaultPlan::resolve(parts.fault_plan, navp::FaultPlan::from_env, durable)?;
        if let Some(dir) = &self.durable_dir {
            navp::durable::write_manifest(
                &navp::durable::run_dir(dir, self.run_id),
                &navp::durable::Manifest {
                    pes,
                    nonce: navp::durable::fresh_nonce(),
                },
            )
            .map_err(|e| RunError::Transport {
                detail: format!("durable manifest: {e}"),
            })?;
        }

        let start = Instant::now();
        let mut links = self.establish(pes)?;
        let run = self.drive(
            &mut links,
            pes,
            store_imgs,
            injections,
            events,
            fault_plan,
            initial_live,
        );
        // Whatever happened, no child outlives the run.
        for conn in &links.conns {
            let _ = conn.send(&Frame::Shutdown);
        }
        for conn in &links.conns {
            conn.shutdown();
        }
        for child in &mut links.children {
            let deadline = Instant::now() + self.grace;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        let (stores, per_pe, faults, totals, traced, metrics) = run?;
        let (trace, trace_dropped) = match traced {
            Some((t, d)) => (Some(t), d),
            None => (None, 0),
        };
        Ok(NetReport {
            wall: start.elapsed(),
            stores,
            steps: totals.steps,
            hops: totals.hops,
            hop_payload_bytes: totals.hop_payload_bytes,
            wire_bytes: totals.wire_bytes,
            per_pe,
            faults,
            watchdog: self.watchdog,
            trace,
            trace_dropped,
            metrics,
        })
    }

    /// Bring up `pes` control connections: spawn local children or
    /// connect to `--join` addresses, then wire reader threads.
    fn establish(&self, pes: usize) -> Result<Links, RunError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut children = Vec::new();
        let mut streams = Vec::with_capacity(pes);
        if self.join.is_empty() {
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| RunError::Transport {
                    detail: format!("driver bind: {e}"),
                })?;
            let addr = listener
                .local_addr()
                .map_err(|e| RunError::Transport {
                    detail: format!("driver addr: {e}"),
                })?
                .to_string();
            let bin = resolve_pe_bin(self.pe_bin.as_deref())?;
            for _ in 0..pes {
                children.push(spawn_pe(&bin, &addr, self.durable_dir.as_deref())?);
            }
            listener
                .set_nonblocking(true)
                .map_err(|e| RunError::Transport {
                    detail: format!("driver listener: {e}"),
                })?;
            let deadline = Instant::now() + self.handshake_window();
            while streams.len() < pes {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false).map_err(|e| RunError::Transport {
                            detail: format!("control stream: {e}"),
                        })?;
                        streams.push(s);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if let Some(dead) = Self::reap_dead_child(&mut children) {
                            Self::cleanup(&mut children);
                            return Err(dead);
                        }
                        if Instant::now() >= deadline {
                            Self::cleanup(&mut children);
                            return Err(RunError::Transport {
                                detail: format!(
                                    "only {}/{pes} PE processes connected back",
                                    streams.len()
                                ),
                            });
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        Self::cleanup(&mut children);
                        return Err(RunError::Transport {
                            detail: format!("driver accept: {e}"),
                        });
                    }
                }
            }
        } else {
            if self.join.len() != pes {
                return Err(RunError::Transport {
                    detail: format!(
                        "--join names {} PEs but the cluster has {pes}",
                        self.join.len()
                    ),
                });
            }
            for addr in &self.join {
                let s = std::net::TcpStream::connect(addr).map_err(|e| RunError::Transport {
                    detail: format!("join {addr}: {e}"),
                })?;
                streams.push(s);
            }
        }
        // Every control socket joins the process-global event loop:
        // one registration replaces the old clone + reader thread, and
        // the driver's sends batch through the loop's writev path.
        let ioloop = IoLoop::global();
        let mut conns = Vec::with_capacity(pes);
        for (pe, stream) in streams.into_iter().enumerate() {
            let tx = tx.clone();
            let handle = ioloop
                .register(
                    stream,
                    Box::new(move |r| tx.send(DriverMsg::FromPe(pe, r)).is_ok()),
                    None,
                )
                .map_err(|e| RunError::Transport {
                    detail: format!("register control stream for PE {pe}: {e}"),
                })?;
            conns.push(handle);
        }
        Ok(Links {
            conns,
            rx,
            children,
            pe_child: vec![None; pes],
        })
    }

    fn handshake_window(&self) -> Duration {
        self.watchdog.max(Duration::from_secs(5))
    }

    fn reap_dead_child(children: &mut [Child]) -> Option<RunError> {
        for (pe, child) in children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                return Some(RunError::PeerDisconnected {
                    pe,
                    detail: format!("PE process exited during handshake ({status})"),
                });
            }
        }
        None
    }

    fn cleanup(children: &mut [Child]) {
        for child in children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Describe a lost control connection, folding in the child's exit
    /// status when we have one (e.g. the crash-rule exit).
    fn disconnect_error(
        links: &mut Links,
        pe: usize,
        io: &std::io::Error,
        grace: Duration,
    ) -> RunError {
        let mut detail = io.to_string();
        if !links.children.is_empty() {
            // The socket EOF can outrun process teardown; poll briefly
            // so the exit status makes it into the error. When the PE
            // died before its Hello mapped it to a child, any child
            // that already exited is the best witness.
            let idx = links.pe_child.get(pe).copied().flatten();
            let deadline = Instant::now() + grace;
            loop {
                let status = match idx {
                    Some(i) => links
                        .children
                        .get_mut(i)
                        .and_then(|c| c.try_wait().ok().flatten()),
                    None => links
                        .children
                        .iter_mut()
                        .find_map(|c| c.try_wait().ok().flatten()),
                };
                if let Some(status) = status {
                    if status.code() == Some(crate::pe::GRACEFUL_EXIT) {
                        // Clean SIGTERM/SIGINT stop, not a failure: the
                        // PE flushed its durable cut before exiting.
                        // (The PE also sends a Fatal{PeStopped} frame;
                        // this path covers the race where the socket
                        // EOF wins.)
                        return RunError::PeStopped { pe };
                    }
                    detail = format!("{detail} (process {status})");
                    break;
                }
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        RunError::PeerDisconnected { pe, detail }
    }

    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn drive(
        &self,
        links: &mut Links,
        pes: usize,
        store_imgs: Vec<Vec<StoreEntry>>,
        injections: Vec<Vec<(u64, WireSnapshot)>>,
        events: Vec<Vec<navp::EventKey>>,
        plan: Option<navp::FaultPlan>,
        initial_live: u64,
    ) -> Result<DriveOutcome, RunError> {
        let transport = |detail: String| RunError::Transport { detail };
        let handshake_deadline = Instant::now() + self.handshake_window();
        let run_deadline = self.deadline.map(|d| Instant::now() + d);

        // Assign identities, gather listen addresses, broadcast the
        // address map, wait for the mesh barrier.
        for (pe, conn) in links.conns.iter().enumerate() {
            conn.send(&Frame::Assign {
                pe: pe as u32,
                pes: pes as u32,
                run: self.run_id,
            })
            .map_err(|e| transport(format!("send Assign to PE {pe}: {e}")))?;
        }
        let mut listens: Vec<Option<String>> = vec![None; pes];
        let mut got = 0;
        while got < pes {
            match Self::next_handshake(links, handshake_deadline, self.grace)? {
                (pe, Frame::Hello { pe: echoed, pid, listen }) if echoed as usize == pe => {
                    links.pe_child[pe] = links.children.iter().position(|c| c.id() == pid);
                    if listens[pe].replace(listen).is_none() {
                        got += 1;
                    }
                }
                (pe, other) => {
                    return Err(transport(format!("PE {pe}: expected Hello, got {other:?}")))
                }
            }
        }
        let peers: Vec<String> = listens.into_iter().map(|l| l.expect("all got")).collect();
        for (pe, conn) in links.conns.iter().enumerate() {
            conn.send(&Frame::Bootstrap {
                peers: peers.clone(),
            })
            .map_err(|e| transport(format!("send Bootstrap to PE {pe}: {e}")))?;
        }
        let mut ready = vec![false; pes];
        let mut got = 0;
        while got < pes {
            match Self::next_handshake(links, handshake_deadline, self.grace)? {
                (pe, Frame::MeshReady { .. }) => {
                    if !std::mem::replace(&mut ready[pe], true) {
                        got += 1;
                    }
                }
                (pe, other) => {
                    return Err(transport(format!(
                        "PE {pe}: expected MeshReady, got {other:?}"
                    )))
                }
            }
        }

        // Hand out the run.
        let mut store_imgs = store_imgs;
        let mut injections = injections;
        let mut events = events;
        for pe in 0..pes {
            links.conns[pe]
                .send(&Frame::Start {
                    store: std::mem::take(&mut store_imgs[pe]),
                    injections: std::mem::take(&mut injections[pe]),
                    events: std::mem::take(&mut events[pe]),
                    plan: plan.clone(),
                    initial_live,
                    trace: self.trace,
                    metrics: self.metrics,
                })
                .map_err(|e| transport(format!("send Start to PE {pe}: {e}")))?;
        }

        // Tally progress until every messenger has finished. The delta
        // tally alone is racy — a "finished" delta can outrace the
        // matching "spawned" delta on another connection — so a zero
        // tally only *triggers* a termination probe; the run is over
        // when two consecutive probe rounds return identical lifetime
        // counters with no messenger live and no peer frame in flight
        // (Mattern's four-counter principle).
        let mut live = initial_live as i64;
        let mut per_pe = vec![NetPeStats::default(); pes];
        let mut totals = NetPeStats::default();
        let tick = self.watchdog.min(Duration::from_millis(100));
        let mut last_progress = Instant::now();
        let mut probe_round: u64 = 0;
        let mut probing = false;
        let mut acks: Vec<Option<(u64, u64, u64, u64)>> = vec![None; pes];
        let mut acks_got = 0;
        let mut prev_round: Option<Vec<(u64, u64, u64, u64)>> = None;
        loop {
            if let Some(at) = run_deadline {
                if Instant::now() >= at {
                    return Err(RunError::DeadlineExceeded {
                        limit_ms: self.deadline.unwrap_or_default().as_millis() as u64,
                    });
                }
            }
            if live <= 0 && !probing {
                probe_round += 1;
                probing = true;
                acks = vec![None; pes];
                acks_got = 0;
                for (pe, conn) in links.conns.iter().enumerate() {
                    conn.send(&Frame::Probe { round: probe_round })
                        .map_err(|e| transport(format!("send Probe to PE {pe}: {e}")))?;
                }
            }
            match links.rx.recv_timeout(tick) {
                Ok(DriverMsg::FromPe(pe, Ok(frame))) => {
                    match frame {
                        Frame::Delta {
                            spawned,
                            finished,
                            steps,
                            hops,
                            hop_payload,
                            wire_bytes,
                        } => {
                            // Even an all-zero delta is a heartbeat
                            // that feeds the watchdog.
                            last_progress = Instant::now();
                            live += spawned as i64 - finished as i64;
                            per_pe[pe].steps += steps;
                            per_pe[pe].hops += hops;
                            per_pe[pe].hop_payload_bytes += hop_payload;
                            per_pe[pe].wire_bytes += wire_bytes;
                            totals.steps += steps;
                            totals.hops += hops;
                            totals.hop_payload_bytes += hop_payload;
                            totals.wire_bytes += wire_bytes;
                        }
                        Frame::ProbeAck {
                            round,
                            spawned,
                            finished,
                            peer_sent,
                            peer_recv,
                        } => {
                            if round != probe_round {
                                continue; // stale ack from a superseded round
                            }
                            if acks[pe]
                                .replace((spawned, finished, peer_sent, peer_recv))
                                .is_none()
                            {
                                acks_got += 1;
                            }
                            if acks_got < pes {
                                continue;
                            }
                            probing = false;
                            let cur: Vec<(u64, u64, u64, u64)> =
                                acks.iter().map(|a| a.expect("all acked")).collect();
                            let spawned: u64 = cur.iter().map(|a| a.0).sum();
                            let finished: u64 = cur.iter().map(|a| a.1).sum();
                            let sent: u64 = cur.iter().map(|a| a.2).sum();
                            let recv: u64 = cur.iter().map(|a| a.3).sum();
                            let quiet = initial_live + spawned == finished && sent == recv;
                            if quiet && prev_round.as_ref() == Some(&cur) {
                                break; // two identical quiet rounds: terminated
                            }
                            prev_round = Some(cur);
                            // Damp the reprobe rate while the cluster
                            // settles; in-flight frames land within a
                            // few milliseconds on any sane network.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Frame::Fatal { err } => return Err(err),
                        other => {
                            return Err(transport(format!(
                                "PE {pe}: unexpected frame {other:?} during run"
                            )))
                        }
                    }
                }
                Ok(DriverMsg::FromPe(pe, Err(e))) => {
                    return Err(Self::disconnect_error(links, pe, &e, self.grace))
                }
                Err(RecvTimeoutError::Timeout) => {
                    if last_progress.elapsed() >= self.watchdog {
                        return Err(RunError::Stalled {
                            live: live.max(0) as usize,
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(transport("all control readers exited".into()))
                }
            }
        }

        // Collect traces. One PE at a time: the request/response pair
        // doubles as a Cristian's-algorithm clock probe, so it must not
        // share the channel with another PE's dump. The PE's clock
        // reading `pe_ns` happened (to within half the round trip) at
        // driver time (t0 + t1) / 2; the difference is the offset that
        // maps that PE's timestamps onto the driver's timeline.
        let traced = if self.trace {
            let anchor = Instant::now();
            let mut logs: Vec<PeLog> = Vec::with_capacity(pes);
            for pe in 0..pes {
                let t0 = anchor.elapsed().as_nanos() as u64;
                links.conns[pe]
                    .send(&Frame::TraceCollect)
                    .map_err(|e| transport(format!("send TraceCollect to PE {pe}: {e}")))?;
                let deadline = Instant::now() + self.handshake_window();
                loop {
                    match links.rx.recv_timeout(tick) {
                        Ok(DriverMsg::FromPe(
                            p,
                            Ok(Frame::TraceDump {
                                pe_ns,
                                dropped,
                                events,
                            }),
                        )) if p == pe => {
                            let t1 = anchor.elapsed().as_nanos() as u64;
                            let offset_ns = ((t0 + t1) / 2) as i64 - pe_ns as i64;
                            logs.push(PeLog {
                                pe,
                                offset_ns,
                                events,
                                dropped,
                            });
                            break;
                        }
                        // Late deltas can race the dump; absorb them.
                        Ok(DriverMsg::FromPe(
                            p,
                            Ok(Frame::Delta {
                                steps,
                                hops,
                                hop_payload,
                                wire_bytes,
                                ..
                            }),
                        )) => {
                            per_pe[p].steps += steps;
                            per_pe[p].hops += hops;
                            per_pe[p].hop_payload_bytes += hop_payload;
                            per_pe[p].wire_bytes += wire_bytes;
                            totals.steps += steps;
                            totals.hops += hops;
                            totals.hop_payload_bytes += hop_payload;
                            totals.wire_bytes += wire_bytes;
                        }
                        Ok(DriverMsg::FromPe(_, Ok(Frame::Fatal { err }))) => return Err(err),
                        Ok(DriverMsg::FromPe(p, Ok(other))) => {
                            return Err(transport(format!(
                                "PE {p}: unexpected frame {other:?} during trace collect"
                            )))
                        }
                        Ok(DriverMsg::FromPe(p, Err(e))) => {
                            return Err(Self::disconnect_error(links, p, &e, self.grace))
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if Instant::now() >= deadline {
                                return Err(transport(format!(
                                    "PE {pe} returned no trace before timeout"
                                )));
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(transport("all control readers exited".into()))
                        }
                    }
                }
            }
            Some(merge_pe_traces(logs))
        } else {
            None
        };

        // Collect metrics, one PE at a time like the trace collection
        // above (no clock probe needed — counters are clock-free — but
        // the one-at-a-time shape keeps the channel unambiguous).
        let metrics = if self.metrics {
            let mut merged = MetricsSnapshot::default();
            for pe in 0..pes {
                links.conns[pe]
                    .send(&Frame::MetricsCollect)
                    .map_err(|e| transport(format!("send MetricsCollect to PE {pe}: {e}")))?;
                let deadline = Instant::now() + self.handshake_window();
                loop {
                    match links.rx.recv_timeout(tick) {
                        Ok(DriverMsg::FromPe(p, Ok(Frame::MetricsDump { samples })))
                            if p == pe =>
                        {
                            merged.merge(&MetricsSnapshot { samples });
                            break;
                        }
                        // Late deltas can race the dump; absorb them.
                        Ok(DriverMsg::FromPe(
                            p,
                            Ok(Frame::Delta {
                                steps,
                                hops,
                                hop_payload,
                                wire_bytes,
                                ..
                            }),
                        )) => {
                            per_pe[p].steps += steps;
                            per_pe[p].hops += hops;
                            per_pe[p].hop_payload_bytes += hop_payload;
                            per_pe[p].wire_bytes += wire_bytes;
                            totals.steps += steps;
                            totals.hops += hops;
                            totals.hop_payload_bytes += hop_payload;
                            totals.wire_bytes += wire_bytes;
                        }
                        Ok(DriverMsg::FromPe(_, Ok(Frame::Fatal { err }))) => return Err(err),
                        Ok(DriverMsg::FromPe(p, Ok(other))) => {
                            return Err(transport(format!(
                                "PE {p}: unexpected frame {other:?} during metrics collect"
                            )))
                        }
                        Ok(DriverMsg::FromPe(p, Err(e))) => {
                            return Err(Self::disconnect_error(links, p, &e, self.grace))
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if Instant::now() >= deadline {
                                return Err(transport(format!(
                                    "PE {pe} returned no metrics before timeout"
                                )));
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(transport("all control readers exited".into()))
                        }
                    }
                }
            }
            Some(merged)
        } else {
            None
        };

        // Collect stores and fault counters.
        for (pe, conn) in links.conns.iter().enumerate() {
            conn.send(&Frame::Collect)
                .map_err(|e| transport(format!("send Collect to PE {pe}: {e}")))?;
        }
        let mut stores: Vec<Option<NodeStore>> = (0..pes).map(|_| None).collect();
        let mut faults = FaultStats::default();
        let mut got = 0;
        let collect_deadline = Instant::now() + self.handshake_window();
        while got < pes {
            match links.rx.recv_timeout(tick) {
                Ok(DriverMsg::FromPe(pe, Ok(Frame::StoreDump { store, stats }))) => {
                    let decoded = decode_store(&store).map_err(|e| {
                        transport(format!("PE {pe} returned an undecodable store: {e}"))
                    })?;
                    if stores[pe].replace(decoded).is_none() {
                        got += 1;
                    }
                    per_pe[pe].faults = stats;
                    faults.absorb(&stats);
                }
                // Late deltas can race Collect; they carry no live
                // change at this point beyond bookkeeping.
                Ok(DriverMsg::FromPe(pe, Ok(Frame::Delta {
                    steps,
                    hops,
                    hop_payload,
                    wire_bytes,
                    ..
                }))) => {
                    per_pe[pe].steps += steps;
                    per_pe[pe].hops += hops;
                    per_pe[pe].hop_payload_bytes += hop_payload;
                    per_pe[pe].wire_bytes += wire_bytes;
                    totals.steps += steps;
                    totals.hops += hops;
                    totals.hop_payload_bytes += hop_payload;
                    totals.wire_bytes += wire_bytes;
                }
                Ok(DriverMsg::FromPe(_, Ok(Frame::Fatal { err }))) => return Err(err),
                Ok(DriverMsg::FromPe(pe, Ok(other))) => {
                    return Err(transport(format!(
                        "PE {pe}: unexpected frame {other:?} during collect"
                    )))
                }
                Ok(DriverMsg::FromPe(pe, Err(e))) => {
                    return Err(Self::disconnect_error(links, pe, &e, self.grace))
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= collect_deadline {
                        return Err(transport(format!(
                            "only {got}/{pes} stores returned before timeout"
                        )));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(transport("all control readers exited".into()))
                }
            }
        }
        let stores = stores.into_iter().map(|s| s.expect("all got")).collect();
        Ok((stores, per_pe, faults, totals, traced, metrics))
    }

    /// Next handshake-phase frame from any PE, honouring the deadline.
    fn next_handshake(
        links: &mut Links,
        deadline: Instant,
        grace: Duration,
    ) -> Result<(usize, Frame), RunError> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RunError::Transport {
                    detail: "handshake timed out".into(),
                });
            }
            match links.rx.recv_timeout(left.min(Duration::from_millis(100))) {
                Ok(DriverMsg::FromPe(pe, Ok(Frame::Fatal { err }))) => {
                    let _ = pe;
                    return Err(err);
                }
                Ok(DriverMsg::FromPe(pe, Ok(frame))) => return Ok((pe, frame)),
                Ok(DriverMsg::FromPe(pe, Err(e))) => {
                    return Err(Self::disconnect_error(links, pe, &e, grace))
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RunError::Transport {
                        detail: "all control readers exited".into(),
                    })
                }
            }
        }
    }
}
