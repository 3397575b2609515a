//! The driver: `NetExecutor` runs a [`Cluster`] across real OS
//! processes connected by TCP.
//!
//! The driver never runs messengers itself. It serializes each PE's
//! store slice and time-zero injections, brings up the process mesh,
//! then tallies `Delta` frames: the run is over when
//! `initial + spawned − finished` hits zero and a termination probe
//! confirms it. One `Collect`/`Report` exchange then brings back every
//! PE's store, fault stats, metric samples and trace at once.
//!
//! Every phase waits on PEs through one receive function, which folds
//! each `Delta` into the per-PE stats and ends the run on a PE's
//! `Fatal` or a lost control connection. A driver-side watchdog turns
//! silence into [`RunError::Stalled`]; a control-connection EOF turns a
//! dead PE process into [`RunError::PeerDisconnected`] — in both cases
//! every child is killed before returning, so a failed run never leaks
//! processes.

use crate::cluster::{event_home, resolve_pe_bin, spawn_pe};
use crate::frame::Frame;
use crate::netloop::{IoHandle, IoLoop};
use crate::pe::connect_with_retries;
use crate::registry::{decode_store, encode_messenger, encode_store};
use crate::sys::{kill_process, Acceptor};
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
    /// Faults injected on this PE, from its end-of-run `Report`
    /// (the totals-row mirror of [`NetReport::faults`]).
    pub faults: FaultStats,
}

impl std::iter::Sum for NetPeStats {
    fn sum<I: Iterator<Item = NetPeStats>>(iter: I) -> NetPeStats {
        iter.fold(NetPeStats::default(), |mut a, b| {
            a.steps += b.steps;
            a.hops += b.hops;
            a.hop_payload_bytes += b.hop_payload_bytes;
            a.wire_bytes += b.wire_bytes;
            a.faults.absorb(&b.faults);
            a
        })
    }
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
    /// Events the PEs' run lanes evicted before collection.
    pub trace_dropped: u64,
    /// Cluster-wide metric snapshot, merged from every PE's `Report`,
    /// when the run was metered.
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

/// How often the driver's accept wait checks for a spawned PE that
/// died before connecting back.
const REAP_INTERVAL: Duration = Duration::from_millis(50);

/// Wait up to `grace` for every child to exit after its `Shutdown`,
/// then kill the stragglers. Each child is waited on by a blocking
/// `wait` on its own helper thread, so teardown ends when the last
/// child exits, not on a poll.
fn reap_children(children: Vec<Child>, grace: Duration) {
    let deadline = Instant::now() + grace;
    let (tx, rx) = std::sync::mpsc::channel();
    let mut pending: Vec<u32> = children.iter().map(Child::id).collect();
    std::thread::scope(|s| {
        for mut child in children {
            let tx = tx.clone();
            s.spawn(move || {
                let _ = child.wait();
                let _ = tx.send(child.id());
            });
        }
        while !pending.is_empty() {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(pid) => pending.retain(|&p| p != pid),
                Err(_) => {
                    // Grace expired: kill the rest, whose helpers then
                    // reap them. A helper may reap its child just before
                    // the kill lands; the kernel hands that pid out again
                    // only after cycling through the pid space.
                    for &pid in &pending {
                        let _ = kill_process(pid);
                    }
                    break;
                }
            }
        }
    });
}

struct Links {
    conns: Vec<IoHandle>,
    rx: Receiver<DriverMsg>,
    children: Vec<Child>,
    /// PE index → index into `children`. PE identity is assigned in
    /// connection-accept order while `children` is in spawn order, so
    /// the two generally disagree; each PE reports its OS pid in
    /// `Hello` and this map is filled from it.
    pe_child: Vec<Option<usize>>,
    /// What each PE's `Delta`s and `Report` added up to.
    per_pe: Vec<NetPeStats>,
    /// Messengers live by the deltas' count: initial + spawned −
    /// finished.
    live: i64,
    /// When the last `Delta` arrived: the watchdog's feed.
    heard: Instant,
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

        // The same plan rule as in process: durable runs need the
        // recovery machinery on every PE even without faults.
        let durable = self.durable_dir.is_some();
        let plan = navp::FaultPlan::resolve(parts.fault_plan, navp::FaultPlan::from_env, durable)?;

        // Serialize everything up front: an unserializable messenger or
        // store value fails here, before any process exists.
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
        let mut starts = Vec::with_capacity(pes);
        for ((store, injections), events) in parts.stores.iter().zip(injections).zip(events) {
            starts.push(Frame::Start {
                store: encode_store(store)?,
                injections,
                events,
                plan: plan.clone(),
                initial_live,
                trace: self.trace,
                metrics: self.metrics,
            });
        }
        // A durable run needs a fresh session manifest on disk before
        // any process can spill against it.
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
        let run = self.drive(&mut links, starts, initial_live);
        // Whatever happened, no child outlives the run.
        for conn in &links.conns {
            let _ = conn.send(&Frame::Shutdown);
        }
        for conn in &links.conns {
            conn.shutdown();
        }
        reap_children(std::mem::take(&mut links.children), self.grace);
        let mut report = run?;
        report.wall = start.elapsed();
        Ok(report)
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
            let mut acceptor = Acceptor::new(listener).map_err(|e| RunError::Transport {
                detail: format!("driver listener: {e}"),
            })?;
            let deadline = Instant::now() + self.handshake_window();
            while streams.len() < pes {
                // Wake on each connection. The cap only paces the check
                // for a PE process that died before connecting back (a
                // failure detector, not a completion floor).
                let left = deadline.saturating_duration_since(Instant::now());
                match acceptor.accept(left.min(REAP_INTERVAL)) {
                    Ok(Some(s)) => streams.push(s),
                    Ok(None) => {}
                    Err(e) => {
                        Self::cleanup(&mut children);
                        return Err(RunError::Transport {
                            detail: format!("driver accept: {e}"),
                        });
                    }
                }
                if let Some(dead) = Self::reap_dead_child(&mut children) {
                    Self::cleanup(&mut children);
                    return Err(dead);
                }
                if streams.len() < pes && Instant::now() >= deadline {
                    Self::cleanup(&mut children);
                    return Err(RunError::Transport {
                        detail: format!(
                            "only {}/{pes} PE processes connected back",
                            streams.len()
                        ),
                    });
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
            // A daemon spawned moments ago may not be listening yet.
            let deadline = Instant::now() + self.handshake_window();
            for addr in &self.join {
                streams.push(connect_with_retries(addr, deadline)?);
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
            per_pe: vec![NetPeStats::default(); pes],
            live: 0,
            heard: Instant::now(),
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

    /// Kill and reap every child (handshake failure path).
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
            // that already exited is the best witness. This probe runs
            // only on the `PeerDisconnected` error path, never on a
            // healthy run's completion.
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

    /// Bring up the mesh, hand each PE its `Start` frame, run to
    /// termination and collect every PE's report into the run's.
    fn drive(
        &self,
        links: &mut Links,
        starts: Vec<Frame>,
        initial_live: u64,
    ) -> Result<NetReport, RunError> {
        let pes = starts.len();
        let transport = |detail: String| RunError::Transport { detail };
        let handshake_deadline = Instant::now() + self.handshake_window();
        let handshake_overdue = |_: &Links| {
            (Instant::now() >= handshake_deadline).then(|| transport("handshake timed out".into()))
        };
        let run_deadline = self.deadline.map(|d| Instant::now() + d);

        // Assign identities, gather listen addresses, broadcast the
        // address map, wait for the mesh barrier.
        let assign = |pe: usize| Frame::Assign {
            pe: pe as u32,
            pes: pes as u32,
            run: self.run_id,
        };
        let hello = |links: &mut Links, pe: usize, _, f| match f {
            Frame::Hello {
                pe: echoed,
                pid,
                listen,
            } if echoed as usize == pe => {
                links.pe_child[pe] = links.children.iter().position(|c| c.id() == pid);
                Ok(listen)
            }
            other => Err(Box::new(other)),
        };
        let peers = self.round(links, "Hello", assign, hello, handshake_overdue)?;
        let bootstrap = |_| Frame::Bootstrap {
            peers: peers.clone(),
        };
        let ready = |_: &mut Links, _, _, f| match f {
            Frame::MeshReady { .. } => Ok(()),
            other => Err(Box::new(other)),
        };
        self.round(links, "MeshReady", bootstrap, ready, handshake_overdue)?;

        // Hand out the run.
        for (pe, start) in starts.iter().enumerate() {
            links.conns[pe]
                .send(start)
                .map_err(|e| transport(format!("send Start to PE {pe}: {e}")))?;
        }

        // Tally progress until every messenger has finished. The delta
        // tally alone is racy — a "finished" delta can outrace the
        // matching "spawned" delta on another connection — so a zero
        // tally only *triggers* a termination probe; the run is over
        // when two consecutive probe rounds return identical lifetime
        // counters with no messenger live and no peer frame in flight
        // (Mattern's four-counter principle).
        links.live = initial_live as i64;
        links.heard = Instant::now();
        let run_overdue = |links: &Links| {
            if run_deadline.is_some_and(|at| Instant::now() >= at) {
                let limit_ms = self.deadline.unwrap_or_default().as_millis() as u64;
                return Some(RunError::DeadlineExceeded { limit_ms });
            }
            (links.heard.elapsed() >= self.watchdog).then(|| RunError::Stalled {
                live: links.live.max(0) as usize,
            })
        };
        let mut prev: Option<Vec<(u64, u64, u64, u64)>> = None;
        for probe in 1.. {
            while links.live > 0 {
                if let Some(err) = run_overdue(links) {
                    return Err(err);
                }
                if let Some((pe, other)) = self.next_frame(links, Instant::now() + self.tick())? {
                    return Err(transport(format!(
                        "PE {pe}: unexpected frame {other:?} during run"
                    )));
                }
            }
            let ask = |_| Frame::Probe { round: probe };
            let ack = |_: &mut Links, _, _, f| match f {
                Frame::ProbeAck {
                    round,
                    spawned,
                    finished,
                    peer_sent,
                    peer_recv,
                } if round == probe => Ok((spawned, finished, peer_sent, peer_recv)),
                other => Err(Box::new(other)),
            };
            let acks = self.round(links, "ProbeAck", ask, ack, run_overdue)?;
            let total = |f: fn(&(u64, u64, u64, u64)) -> u64| acks.iter().map(f).sum::<u64>();
            let quiet =
                initial_live + total(|a| a.0) == total(|a| a.1) && total(|a| a.2) == total(|a| a.3);
            if quiet && prev.as_ref() == Some(&acks) {
                break; // two identical quiet rounds: terminated
            }
            // A quiet round is confirmed by an immediate second one. A
            // busy round waits for the next frame (the deltas of the
            // in-flight work landing), bounded by one tick.
            if !quiet {
                if let Some((pe, other)) = self.next_frame(links, Instant::now() + self.tick())? {
                    return Err(transport(format!(
                        "PE {pe}: unexpected frame {other:?} during run"
                    )));
                }
            }
            prev = Some(acks);
        }

        // End the run with one exchange: every PE is asked at once and
        // answers with one `Report`. Each request/response pair doubles
        // as a Cristian's-algorithm clock probe: the PE's clock reading
        // `pe_ns` happened (to within half the round trip) at driver
        // time (t0 + t1) / 2, and the difference is the offset that maps
        // that PE's timestamps onto the driver's timeline.
        let anchor = Instant::now();
        let collect_deadline = anchor + self.handshake_window();
        let report = |links: &mut Links, pe: usize, sent: Instant, f| match f {
            Frame::Report {
                store,
                stats,
                samples,
                pe_ns,
                lane,
                labels,
            } => {
                let t0 = sent.duration_since(anchor).as_nanos() as i64;
                let t1 = anchor.elapsed().as_nanos() as i64;
                let offset_ns = (t0 + t1) / 2 - pe_ns as i64;
                links.per_pe[pe].faults = stats;
                Ok((
                    store,
                    samples,
                    PeLog {
                        pe,
                        offset_ns,
                        lane: lane.unwrap_or_default(),
                        labels,
                    },
                ))
            }
            other => Err(Box::new(other)),
        };
        let collect_overdue = |_: &Links| {
            (Instant::now() >= collect_deadline)
                .then(|| transport("PEs sent no report before timeout".into()))
        };
        let reports = self.round(links, "Report", |_| Frame::Collect, report, collect_overdue)?;
        let mut stores = Vec::with_capacity(pes);
        let mut logs = Vec::with_capacity(pes);
        let mut metrics = MetricsSnapshot::default();
        for (pe, (store, samples, log)) in reports.into_iter().enumerate() {
            stores.push(
                decode_store(&store).map_err(|e| {
                    transport(format!("PE {pe} returned an undecodable store: {e}"))
                })?,
            );
            metrics.merge(&MetricsSnapshot { samples });
            logs.push(log);
        }
        let (trace, trace_dropped) = if self.trace {
            let (t, d) = merge_pe_traces(logs);
            (Some(t), d)
        } else {
            (None, 0)
        };
        let totals: NetPeStats = links.per_pe.iter().copied().sum();
        Ok(NetReport {
            wall: Duration::ZERO, // stamped once the processes are down
            stores,
            steps: totals.steps,
            hops: totals.hops,
            hop_payload_bytes: totals.hop_payload_bytes,
            wire_bytes: totals.wire_bytes,
            per_pe: std::mem::take(&mut links.per_pe),
            faults: totals.faults,
            watchdog: self.watchdog,
            trace,
            trace_dropped,
            metrics: self.metrics.then_some(metrics),
        })
    }

    /// One request/answer round: send `ask(pe)` to every PE, then take
    /// one `want` frame from each. `answer` gets the PE, when its
    /// request was sent, and the frame, and hands back a frame it did
    /// not want; that, a second answer from one PE, or the error
    /// `overdue` returns while the round waits ends the run.
    fn round<T>(
        &self,
        links: &mut Links,
        want: &str,
        ask: impl Fn(usize) -> Frame,
        mut answer: impl FnMut(&mut Links, usize, Instant, Frame) -> Result<T, Box<Frame>>,
        overdue: impl Fn(&Links) -> Option<RunError>,
    ) -> Result<Vec<T>, RunError> {
        let pes = links.conns.len();
        let mut sent = Vec::with_capacity(pes);
        for (pe, conn) in links.conns.iter().enumerate() {
            let frame = ask(pe);
            sent.push(Instant::now());
            conn.send(&frame).map_err(|e| RunError::Transport {
                detail: format!("send to PE {pe} (awaiting {want}): {e}"),
            })?;
        }
        let mut answers: Vec<Option<T>> = (0..pes).map(|_| None).collect();
        let mut got = 0;
        while got < pes {
            let (pe, wrong) = match self.next_frame(links, Instant::now() + self.tick())? {
                Some((pe, f)) if answers[pe].is_none() => match answer(links, pe, sent[pe], f) {
                    Ok(a) => {
                        answers[pe] = Some(a);
                        got += 1;
                        continue;
                    }
                    Err(f) => (pe, *f),
                },
                Some(wrong) => wrong,
                None => match overdue(links) {
                    Some(err) => return Err(err),
                    None => continue,
                },
            };
            return Err(RunError::Transport {
                detail: format!("PE {pe}: expected {want}, got {wrong:?}"),
            });
        }
        Ok(answers
            .into_iter()
            .map(|a| a.expect("all answered"))
            .collect())
    }

    /// How long one wait for a frame lasts before the waiter checks its
    /// deadlines.
    fn tick(&self) -> Duration {
        self.watchdog.min(Duration::from_millis(100))
    }

    /// Wait until `until` for the next frame from any PE. `Ok(None)`:
    /// nothing for the caller yet — a timeout, or a `Delta`, which is
    /// folded into `links` here (even an all-zero delta is a heartbeat
    /// that feeds the watchdog). A PE's `Fatal`, a lost control
    /// connection and the loss of every reader end the run.
    fn next_frame(
        &self,
        links: &mut Links,
        until: Instant,
    ) -> Result<Option<(usize, Frame)>, RunError> {
        let wait = until.saturating_duration_since(Instant::now());
        match links.rx.recv_timeout(wait) {
            Ok(DriverMsg::FromPe(_, Ok(Frame::Fatal { err }))) => Err(err),
            Ok(DriverMsg::FromPe(
                pe,
                Ok(Frame::Delta {
                    spawned,
                    finished,
                    steps,
                    hops,
                    hop_payload,
                    wire_bytes,
                }),
            )) => {
                links.heard = Instant::now();
                links.live += spawned as i64 - finished as i64;
                let p = &mut links.per_pe[pe];
                p.steps += steps;
                p.hops += hops;
                p.hop_payload_bytes += hop_payload;
                p.wire_bytes += wire_bytes;
                Ok(None)
            }
            Ok(DriverMsg::FromPe(pe, Ok(frame))) => Ok(Some((pe, frame))),
            Ok(DriverMsg::FromPe(pe, Err(e))) => {
                Err(Self::disconnect_error(links, pe, &e, self.grace))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(RunError::Transport {
                detail: "all control readers exited".into(),
            }),
        }
    }
}
