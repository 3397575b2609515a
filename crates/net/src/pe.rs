//! The PE daemon: one OS process hosting one PE's `NodeStore` slice,
//! event table, and runnable queue.
//!
//! Messengers run through the same [`PeCore`] as in the other
//! executors; this module is its transport: frames to peers and the
//! driver, `event_home` routing, the write-ahead outbox, the Mattern
//! termination counters and the handshake. The daemon is
//! single-threaded (the I/O loop only feeds an in-process channel), so
//! delivery, fault injection, and crash recovery all serialize on the
//! main loop — the epoch stamps the thread executor needs to guard racy
//! re-deliveries degenerate here and are unused (see DESIGN.md §9).
//!
//! Fault mapping on a real socket:
//! * **delay** — the arriving `Hop` frame is held for the configured
//!   seconds (a heartbeat keeps the driver's watchdog fed);
//! * **drop** — the arriving frame is discarded and re-attempted with
//!   backoff up to the plan's retry budget (each attempt is a fresh
//!   arrival, as in the other executors);
//! * **crash** — with checkpointing, the daemon restarts in place:
//!   store = initial + journal replay, checkpointed messengers
//!   re-delivered (`navp::recovery`); with checkpointing disabled the
//!   process *exits* ([`CRASH_EXIT`]) and the driver reports
//!   [`RunError::PeerDisconnected`].

use crate::cluster::{event_home, read_frame, FrameConn};
use crate::durable::{register_durable, RegistryCodec};
use crate::frame::Frame;
use crate::netloop::{IoHandle, IoLoop};
use crate::registry::{decode_messenger, decode_store, encode_messenger, encode_store};
use crate::sys::Acceptor;
use navp::durable::{self as core_durable, OutFrame};
use navp::pe_core::{
    pe_lane, Arrival, Durable, EventTable, HopHold, Host, Parked, PeCore, PeIo, Recovery, RunOpts,
    Setup, Spill, Tally,
};
use navp::sim_exec::HOP_STATE_BYTES;
use navp::thread_exec::panic_text;
use navp::{EventKey, FaultPlan, Messenger, RunError, WireSnapshot};
use navp_metrics::{serve_http_with, Counter, MetricsRegistry, RunMetrics};
use navp_obs::{EventKind as ObsKind, Lane as ObsLane};
use std::collections::{HashSet, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exit code of a PE process whose fault plan crashed it with
/// checkpointing disabled ("crash = process exit").
pub const CRASH_EXIT: i32 = 113;

/// Exit code of a PE process that stopped cleanly on SIGTERM/SIGINT:
/// durable state flushed, [`RunError::PeStopped`] reported to the
/// driver. Distinct from [`CRASH_EXIT`] and from abrupt deaths so the
/// driver (and operators) can tell a rolling restart from a failure.
pub const GRACEFUL_EXIT: i32 = 114;

/// Set by the SIGTERM/SIGINT handler; polled by the daemon's event
/// loop between atomic units (runs / frame handlings) and by an idle
/// `--listen` accept loop.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_stop_signal(_sig: i32) {
    // A relaxed atomic store is async-signal-safe; everything else
    // (flushing, frames, exit) happens on the daemon loop.
    STOP_REQUESTED.store(true, Ordering::Relaxed);
}

/// Install SIGTERM/SIGINT handlers that request a graceful stop: the
/// daemon finishes its current atomic unit, flushes its durable cut
/// (when `--durable-dir` is active), reports [`RunError::PeStopped`]
/// to the driver, and exits with [`GRACEFUL_EXIT`]. Raw `signal(2)`
/// through a one-line FFI declaration — no libc crate dependency.
#[allow(clippy::fn_to_numeric_cast_any)]
pub fn install_stop_handlers() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_stop_signal as extern "C" fn(i32) as usize;
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Has a stop signal arrived since process start?
pub fn stop_requested() -> bool {
    STOP_REQUESTED.load(Ordering::Relaxed)
}

/// Environment variable set to the PE index inside every PE process
/// (lets test messengers distinguish a PE process from the driver).
pub const PE_ENV: &str = "NAVP_NET_PE";

/// Hard deadline for the bootstrap handshake (assign → mesh → start).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// How a PE process reaches its driver.
#[derive(Debug, Clone)]
pub enum PeMode {
    /// Connect out to the driver (`navp-pe --connect host:port`) — the
    /// mode used for locally spawned clusters.
    Connect(String),
    /// Bind this address and wait for the driver to connect
    /// (`navp-pe --listen host:port`) — the `--join` deployment mode.
    Listen(String),
}

/// Process-level options beyond the driver-reachability mode.
#[derive(Debug, Clone, Default)]
pub struct PeOptions {
    /// Bind this address and serve `GET /metrics` (Prometheus text)
    /// and `GET /healthz` (JSON) for the life of the process. Also
    /// forces run metrics on, even when the driver's `Start` frame
    /// does not request them.
    pub metrics_addr: Option<String>,
    /// Spill a durable checkpoint cut to this directory before every
    /// frame transmission and at every run boundary, so the process —
    /// and with it the whole cluster — survives `kill -9`. The driver
    /// must have written the directory's manifest
    /// ([`navp::durable::write_manifest`]) before the session starts.
    /// `None` = durability off: the hot path performs zero filesystem
    /// syscalls.
    pub durable_dir: Option<PathBuf>,
    /// Checkpoint retention for long-lived `--listen` daemons: after
    /// each driver session, prune completed runs' per-run checkpoint
    /// subdirectories oldest-first until at most this many remain. A
    /// run with a session still in flight is never pruned, nor is the
    /// anonymous (run 0) namespace. `None` = keep everything.
    pub durable_keep: Option<usize>,
}

/// Shared state behind `GET /healthz`: written by the daemon loop,
/// read by the HTTP responder threads. All relaxed atomics — health is
/// advisory, never synchronizing.
struct Health {
    /// PE id of the current session; [`Health::UNASSIGNED`] (rendered
    /// as `null`) until a driver's `Assign` arrives.
    pe: AtomicU64,
    /// Cluster width of the current session; [`Health::UNASSIGNED`]
    /// until assigned.
    pes: AtomicU64,
    peers_connected: AtomicU64,
    queue_depth: AtomicU64,
    /// Nanoseconds since `anchor` when the last frame arrived;
    /// 0 = nothing received yet.
    last_frame_ns: AtomicU64,
    anchor: Instant,
}

impl Health {
    /// Sentinel for "no driver session yet".
    const UNASSIGNED: u64 = u64::MAX;

    fn new() -> Health {
        Health {
            pe: AtomicU64::new(Health::UNASSIGNED),
            pes: AtomicU64::new(Health::UNASSIGNED),
            peers_connected: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            last_frame_ns: AtomicU64::new(0),
            anchor: Instant::now(),
        }
    }

    /// A new driver session assigned this daemon a PE identity; reset
    /// the session-scoped gauges.
    fn assign(&self, pe: usize, pes: usize) {
        self.pe.store(pe as u64, Ordering::Relaxed);
        self.pes.store(pes as u64, Ordering::Relaxed);
        self.peers_connected.store(0, Ordering::Relaxed);
        self.queue_depth.store(0, Ordering::Relaxed);
    }

    /// Stamp "a frame just arrived".
    fn touch(&self) {
        let ns = self.anchor.elapsed().as_nanos() as u64;
        self.last_frame_ns.store(ns.max(1), Ordering::Relaxed);
    }

    /// Hand-rolled JSON body for `/healthz` (no serde, like every
    /// serializer in this workspace).
    fn render(&self) -> String {
        let now = self.anchor.elapsed().as_nanos() as u64;
        let last = self.last_frame_ns.load(Ordering::Relaxed);
        let age = if last == 0 {
            "null".to_string()
        } else {
            format!("{:.3}", now.saturating_sub(last) as f64 / 1e9)
        };
        let id = |v: u64| {
            if v == Health::UNASSIGNED {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        format!(
            "{{\"pe\":{},\"pes\":{},\"peers_connected\":{},\"queue_depth\":{},\
             \"last_frame_age_s\":{},\"uptime_s\":{:.3}}}",
            id(self.pe.load(Ordering::Relaxed)),
            id(self.pes.load(Ordering::Relaxed)),
            self.peers_connected.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            age,
            now as f64 / 1e9,
        )
    }
}

enum PeEvent {
    Driver(std::io::Result<Frame>),
    /// A peer frame plus its arrival stamp on the flight clock, taken
    /// by the I/O loop the moment the frame was decoded. Gives a hop's
    /// `HopRecv` span an end time unskewed by daemon queueing.
    Peer(usize, std::io::Result<Frame>, u64),
}

/// Per-session durable-spill state: the write-ahead outbox plus the
/// per-channel sequence counters the restore path reconciles against.
///
/// The daemon is an alternation of *atomic units* — one messenger run,
/// or the handling of one arriving frame. Frames produced inside a
/// unit are buffered in `pending`; committing a unit assigns them
/// channel sequence numbers, appends them to the outbox, spills the
/// whole cut (store, checkpoints, event table, counters, outbox) to
/// disk, and only then transmits. A `kill -9` at any instant therefore
/// leaves on disk either the state before the unit or the state after
/// it with every unsent frame recoverable from the outbox.
struct NetDurable {
    spill: Spill,
    /// Frames sent on each `(self, dst)` channel, 1-based.
    sent_to: Vec<u64>,
    /// Frames received on each `(src, self)` channel.
    recv_from: Vec<u64>,
    /// Write-ahead log of sent frames (never pruned within a session:
    /// a sender cannot observe the receiver's durable progress, and
    /// runs are short; restore drops entries the receivers' cuts
    /// already cover).
    outbox: Vec<OutFrame>,
    /// Frames produced by the current atomic unit, not yet spilled.
    pending: Vec<(usize, Frame)>,
}

/// A daemon's transport: frames to peers and the driver, the events
/// homed on this PE, and the runnable queue. Its [`PeCore`] sits next
/// to it in [`Daemon`].
struct NetIo {
    pe: usize,
    pes: usize,
    /// Run-id namespace of this session (= job id through navp-serve;
    /// 0 anonymous). Stamped into flight-recorder events.
    run: u64,
    /// This PE's always-on flight-recorder lane (`pe<k>`).
    lane: Arc<ObsLane>,
    /// Fault plan and checkpoint/restart state, `Some` iff the driver
    /// sent a fault plan or `--durable-dir` is active (the spilled cut
    /// is exactly this machinery).
    recovery: Option<Recovery>,
    /// Durable-spill state, `Some` iff `--durable-dir` was given.
    durable: Option<NetDurable>,
    /// Events homed on this PE; parked waiters as wire snapshots.
    events: EventTable<WireSnapshot>,
    /// Runnable messengers, each with how it arrived: the core records
    /// the hop or wait a delivery ends when it next runs.
    queue: VecDeque<(u64, Box<dyn Messenger>, Arrival)>,
    next_inject: u64,
    initial_live: u64,
    peers: Vec<Option<IoHandle>>,
    driver: IoHandle,
    /// The shared run metric set (frame byte counters).
    metrics: Option<Arc<RunMetrics>>,
    /// `/healthz` state, `Some` iff `--metrics-addr` was given.
    health: Option<Arc<Health>>,
    /// Un-flushed wire bytes (next `Delta`).
    d_wire: u64,
    // Lifetime counters for the driver's termination probes.
    t_peer_sent: u64,
    t_peer_recv: u64,
}

impl NetIo {
    fn peer(&self, dst: usize) -> Result<&IoHandle, RunError> {
        self.peers
            .get(dst)
            .and_then(|p| p.as_ref())
            .ok_or(RunError::Transport {
                detail: format!("PE {} has no connection to PE {dst}", self.pe),
            })
    }

    fn send_peer(&mut self, dst: usize, frame: &Frame) -> Result<(), RunError> {
        let n = self
            .peer(dst)?
            .send(frame)
            .map_err(|e| RunError::PeerDisconnected {
                pe: dst,
                detail: format!("send from PE {} failed: {e}", self.pe),
            })?;
        self.d_wire += n;
        self.t_peer_sent += 1;
        if let Some(met) = &self.metrics {
            met.frame_encode_bytes.add(n);
        }
        Ok(())
    }

    /// Send a payload frame to a peer — immediately when durability is
    /// off, or buffered into the current atomic unit's pending list so
    /// [`NetIo::durable_commit`] can spill it write-ahead first.
    fn queue_send(&mut self, dst: usize, frame: Frame) -> Result<(), RunError> {
        match &mut self.durable {
            Some(ds) => {
                ds.pending.push((dst, frame));
                Ok(())
            }
            None => self.send_peer(dst, &frame),
        }
    }

    /// Commit the current atomic unit durably: sequence and log the
    /// pending frames into the outbox, spill the full cut (committed
    /// store + checkpoints + event table + channel counters + outbox)
    /// atomically to `pe-<k>.ckpt`, then transmit. No-op when
    /// durability is off.
    fn durable_commit(&mut self) -> Result<(), RunError> {
        let (Some(ds), Some(rec)) = (&mut self.durable, &self.recovery) else {
            return Ok(());
        };
        let pending = std::mem::take(&mut ds.pending);
        for (dst, frame) in &pending {
            ds.sent_to[*dst] += 1;
            ds.outbox.push(OutFrame {
                dst: *dst as u32,
                seq: ds.sent_to[*dst],
                bytes: frame.encode(),
            });
        }
        ds.spill.boundary += 1;
        let mut cut = ds.spill.cut(rec, self.pe, Some(&self.events))?;
        cut.sent_to = ds.sent_to.clone();
        cut.recv_from = ds.recv_from.clone();
        cut.outbox = ds.outbox.clone();
        ds.spill.write(rec, &cut, &self.lane, self.run)?;
        // The cut is committed; transmission can now happen (and fail)
        // safely — an unsent frame is recoverable from the outbox.
        for (dst, frame) in pending {
            self.send_peer(dst, &frame)?;
        }
        Ok(())
    }

    fn heartbeat(&self) {
        let _ = self.driver.send(&Frame::Delta {
            spawned: 0,
            finished: 0,
            steps: 0,
            hops: 0,
            hop_payload: 0,
            wire_bytes: 0,
        });
    }

    /// Accept a messenger at a delivery point: checkpoint + enqueue.
    fn deliver(&mut self, id: u64, m: Box<dyn Messenger>, via: Arrival) {
        if let Some(r) = &mut self.recovery {
            r.checkpoint(id, self.pe, m.as_ref());
        }
        self.queue.push_back((id, m, via));
    }

    fn local_signal(&mut self, key: EventKey) -> Result<(), RunError> {
        let Some(w) = self.events.signal(key) else {
            return Ok(());
        };
        if w.origin == self.pe {
            let m = decode_messenger(&w.msgr).map_err(|e| RunError::Transport {
                detail: format!("PE {} cannot decode parked waiter: {e}", self.pe),
            })?;
            let parked_ns = w.parked_ns;
            self.deliver(w.id, m, Arrival::Wake { parked_ns });
            Ok(())
        } else {
            let frame = Frame::Deliver {
                id: w.id,
                parked_ns: w.parked_ns,
                msgr: w.msgr,
            };
            self.queue_send(w.origin, frame)
        }
    }

    /// An `EventWait` frame arrived (this PE is the key's home).
    fn accept_wait(
        &mut self,
        key: EventKey,
        id: u64,
        origin: u32,
        parked_ns: u64,
        snap: WireSnapshot,
    ) -> Result<(), RunError> {
        if self.events.take_banked(key) {
            let frame = Frame::Deliver {
                id,
                parked_ns,
                msgr: snap,
            };
            return self.queue_send(origin as usize, frame);
        }
        let origin = origin as usize;
        self.events.park(
            key,
            Parked {
                id,
                origin,
                parked_ns,
                msgr: snap,
            },
        );
        Ok(())
    }

    /// A `Hop` frame arrived: run it through the fault machinery, then
    /// deliver. Delay holds the frame; drop burns a retry (the re-sent
    /// attempt is a fresh arrival, so the counters keep counting).
    ///
    /// The `HopRecv` span runs from the sender's `sent_ns` (sender
    /// clock; corrected at merge) to arrival — `recv_ns`, stamped by
    /// the I/O loop when the frame was decoded, so daemon queueing
    /// doesn't inflate it. A fault hold moves the end stamp past the
    /// hold: the delay shows up as transfer time, which it is on the
    /// wire's timeline.
    fn accept_hop(
        &mut self,
        from: usize,
        id: u64,
        sent_ns: u64,
        recv_ns: u64,
        snap: WireSnapshot,
    ) -> Result<(), RunError> {
        let hold = match &mut self.recovery {
            Some(r) => r.hop_fault(self.pe, &self.lane, self.run)?,
            None => HopHold::default(),
        };
        if !hold.is_empty() {
            self.heartbeat();
            // Fault injection: the planned hop delay, not a poll.
            std::thread::sleep(hold.wall());
        }
        let m = decode_messenger(&snap).map_err(|e| RunError::Transport {
            detail: format!("PE {} cannot decode hopped messenger {id}: {e}", self.pe),
        })?;
        let via = Arrival::Hop {
            from,
            sent_ns,
            bytes: m.payload_bytes() + HOP_STATE_BYTES,
            landed_ns: if hold.is_empty() { recv_ns } else { 0 },
        };
        self.deliver(id, m, via);
        Ok(())
    }

    fn handle_peer_frame(
        &mut self,
        from: usize,
        frame: Frame,
        recv_ns: u64,
    ) -> Result<(), RunError> {
        self.t_peer_recv += 1;
        if let Some(ds) = &mut self.durable {
            // Advance the channel counter now; it reaches disk with the
            // next spill, together with this frame's effects (the
            // daemon is single-threaded, so any later cut includes
            // both or neither).
            ds.recv_from[from] += 1;
        }
        match frame {
            Frame::Hop { id, sent_ns, msgr } => self.accept_hop(from, id, sent_ns, recv_ns, msgr),
            Frame::EventWait {
                key,
                id,
                origin,
                parked_ns,
                msgr,
            } => self.accept_wait(key, id, origin, parked_ns, msgr),
            Frame::EventSignal { key } => self.local_signal(key),
            Frame::Deliver {
                id,
                parked_ns,
                msgr,
            } => {
                let m = decode_messenger(&msgr).map_err(|e| RunError::Transport {
                    detail: format!("PE {} cannot decode delivered waiter: {e}", self.pe),
                })?;
                // The park timestamp is on *this* PE's clock — the
                // waiter parked here and the home echoed it back.
                self.deliver(id, m, Arrival::Wake { parked_ns });
                Ok(())
            }
            other => Err(RunError::Transport {
                detail: format!(
                    "PE {} got unexpected frame {other:?} from peer {from}",
                    self.pe
                ),
            }),
        }
    }
}

impl PeIo for NetIo {
    fn recovery(&mut self) -> Option<impl std::ops::DerefMut<Target = Recovery> + '_> {
        self.recovery.as_mut()
    }

    fn next_id(&mut self) -> u64 {
        let id = self.initial_live + self.pe as u64 + self.pes as u64 * self.next_inject;
        self.next_inject += 1;
        id
    }

    fn inject(&mut self, id: u64, msgr: Box<dyn Messenger>) {
        self.queue.push_back((id, msgr, Arrival::Fresh));
    }

    fn signal(&mut self, _id: u64, key: EventKey) -> Result<(), RunError> {
        let home = event_home(&key, self.pes);
        if home == self.pe {
            self.local_signal(key)
        } else {
            self.queue_send(home, Frame::EventSignal { key })
        }
    }

    fn wait(
        &mut self,
        id: u64,
        key: EventKey,
        msgr: Box<dyn Messenger>,
        parked_ns: u64,
    ) -> Result<Option<Box<dyn Messenger>>, RunError> {
        let home = event_home(&key, self.pes);
        if home == self.pe && self.events.take_banked(key) {
            return Ok(Some(msgr)); // banked count: same run continues
        }
        let snap = encode_messenger(msgr.as_ref())?;
        if home == self.pe {
            let origin = self.pe;
            self.events.park(
                key,
                Parked {
                    id,
                    origin,
                    parked_ns,
                    msgr: snap,
                },
            );
        } else {
            let frame = Frame::EventWait {
                key,
                id,
                origin: self.pe as u32,
                parked_ns,
                msgr: snap,
            };
            self.queue_send(home, frame)?;
        }
        if let Some(r) = self.recovery.as_mut() {
            r.forget(id);
        }
        Ok(None)
    }

    fn hop(
        &mut self,
        id: u64,
        dst: usize,
        _bytes: u64,
        sent_ns: u64,
        msgr: Box<dyn Messenger>,
    ) -> Result<(), RunError> {
        let snap = encode_messenger(msgr.as_ref())?;
        self.queue_send(
            dst,
            Frame::Hop {
                id,
                sent_ns,
                msgr: snap,
            },
        )?;
        // In flight, the messenger belongs to the destination's failure
        // domain — which is another process entirely.
        if let Some(r) = &mut self.recovery {
            r.forget(id);
        }
        Ok(())
    }

    fn restarted(&mut self, redelivered: Vec<(u64, Box<dyn Messenger>)>) {
        // The queue was lost with the daemon; rebuilt from checkpoints.
        self.queue.clear();
        self.queue.extend(
            redelivered
                .into_iter()
                .map(|(id, m)| (id, m, Arrival::Fresh)),
        );
    }
}

struct Daemon {
    core: PeCore,
    io: NetIo,
    /// The core's tally as of the last `Delta` sent to the driver.
    flushed: Tally,
    /// `io.t_peer_recv` as of the last `Delta`.
    flushed_recv: u64,
}

impl Daemon {
    /// A stop signal arrived: flush accounting and the durable cut,
    /// tell the driver this PE stopped *cleanly*, and exit with the
    /// graceful status.
    fn graceful_stop(&mut self) -> ! {
        let _ = self.flush_delta();
        if let Err(e) = self.io.durable_commit() {
            eprintln!("navp-pe: final durable flush failed: {e}");
        }
        let _ = self.io.driver.send(&Frame::Fatal {
            err: RunError::PeStopped { pe: self.io.pe },
        });
        // The frame is queued on the event loop; give it time to reach
        // the wire — exiting immediately would race the flush.
        let _ = self.io.driver.drain(Duration::from_secs(2));
        std::process::exit(GRACEFUL_EXIT);
    }

    fn flush_delta(&mut self) -> Result<(), RunError> {
        let (t, f) = (self.core.tally, self.flushed);
        // A received peer frame always reaches the driver, even one
        // that ran no step (a signal banked for a later wait): a
        // driver whose probe round saw that frame in flight waits for
        // exactly this `Delta` before it probes again.
        if t == f && self.io.d_wire == 0 && self.io.t_peer_recv == self.flushed_recv {
            return Ok(());
        }
        self.flushed_recv = self.io.t_peer_recv;
        let frame = Frame::Delta {
            spawned: t.spawned - f.spawned,
            finished: t.finished - f.finished,
            steps: t.steps - f.steps,
            hops: t.hops - f.hops,
            hop_payload: t.hop_payload - f.hop_payload,
            wire_bytes: self.io.d_wire,
        };
        self.flushed = t;
        self.io.d_wire = 0;
        self.io
            .driver
            .send(&frame)
            .map_err(|e| RunError::Transport {
                detail: format!("PE {} lost the driver: {e}", self.io.pe),
            })
            .map(|_| ())
    }

    /// Drain the runnable queue through the core, committing each run
    /// (and its frames) durably before the next one begins.
    fn drain_runnable(&mut self) -> Result<(), RunError> {
        while let Some((id, m, via)) = self.io.queue.pop_front() {
            self.core.note_queue_depth(self.io.queue.len());
            self.core.arrived(id, &via);
            match self.core.run(&mut self.io, id, m) {
                // Crash = process exit when the plan does not checkpoint:
                // the abrupt death the driver must surface as
                // PeerDisconnected within its watchdog. (Durable mode
                // keeps the recovery machinery alive for its spills but
                // does not change these semantics — the spilled cut is
                // what a later restore resumes from.)
                Err(RunError::PeCrashed { .. }) => std::process::exit(CRASH_EXIT),
                ran => ran?,
            };
            self.io.durable_commit()?;
            if stop_requested() {
                self.graceful_stop();
            }
        }
        Ok(())
    }

    /// The end-of-run report: store, fault stats, metric samples and, on
    /// a traced run, the PE's run lane and labels. The lane's dropped
    /// count joins the metrics before they are snapshot.
    fn report(&mut self) -> Result<Frame, RunError> {
        let pe_ns = navp_obs::flight().now_ns();
        let (lane, labels) = match self.core.trace_log() {
            Some(log) => (Some(log.lane), log.labels),
            None => (None, Vec::new()),
        };
        let samples = match &self.io.metrics {
            Some(met) => {
                met.trace_dropped.add(lane.as_ref().map_or(0, |l| l.dropped));
                met.snapshot().samples
            }
            None => Vec::new(),
        };
        Ok(Frame::Report {
            store: encode_store(&self.core.store)?,
            stats: self
                .io
                .recovery
                .as_ref()
                .map(|r| r.stats())
                .unwrap_or_default(),
            samples,
            pe_ns,
            lane,
            labels,
        })
    }

    fn send_driver(&self, frame: &Frame, what: &str) -> Result<(), RunError> {
        self.io
            .driver
            .send(frame)
            .map(|_| ())
            .map_err(|e| RunError::Transport {
                detail: format!("PE {} cannot {what}: {e}", self.io.pe),
            })
    }

    /// The post-`Start` event loop: drain runnables, then block on the
    /// next frame. Returns when the driver says `Shutdown`.
    fn event_loop(&mut self, rx: &Receiver<PeEvent>) -> Result<(), RunError> {
        loop {
            if stop_requested() {
                self.graceful_stop();
            }
            self.drain_runnable()?;
            self.core.note_queue_depth(self.io.queue.len());
            if let Some(h) = &self.io.health {
                h.queue_depth
                    .store(self.io.queue.len() as u64, Ordering::Relaxed);
            }
            self.flush_delta()?;
            let got_event = {
                let r = rx.recv_timeout(Duration::from_millis(100));
                if let (Ok(_), Some(h)) = (&r, &self.io.health) {
                    h.touch();
                }
                r
            };
            match got_event {
                Ok(PeEvent::Driver(Ok(Frame::Probe { round }))) => {
                    // The queue is empty here (drained above), so the
                    // lifetime counters are a consistent local snapshot.
                    self.flush_delta()?;
                    let ack = Frame::ProbeAck {
                        round,
                        spawned: self.core.tally.spawned,
                        finished: self.core.tally.finished,
                        peer_sent: self.io.t_peer_sent,
                        peer_recv: self.io.t_peer_recv,
                    };
                    self.send_driver(&ack, "ack probe")?;
                }
                Ok(PeEvent::Driver(Ok(Frame::Collect))) => {
                    self.flush_delta()?;
                    let report = self.report()?;
                    self.send_driver(&report, "report")?;
                }
                Ok(PeEvent::Driver(Ok(Frame::Shutdown))) => return Ok(()),
                Ok(PeEvent::Driver(Ok(other))) => {
                    return Err(RunError::Transport {
                        detail: format!("PE {} got unexpected driver frame {other:?}", self.io.pe),
                    })
                }
                // Driver gone: the run is over one way or the other;
                // exit quietly rather than lingering.
                Ok(PeEvent::Driver(Err(_))) => return Ok(()),
                Ok(PeEvent::Peer(q, Ok(frame), recv_ns)) => {
                    self.io.handle_peer_frame(q, frame, recv_ns)?;
                    // Frame handling that produced sends (a Deliver for
                    // a woken waiter) is its own atomic unit. Handling
                    // that only mutated local state needs no spill: the
                    // in-memory advance rides in the next cut, and until
                    // then the sender's outbox replays the frame.
                    if self
                        .io
                        .durable
                        .as_ref()
                        .is_some_and(|d| !d.pending.is_empty())
                    {
                        self.io.durable_commit()?;
                    }
                }
                // A dead peer only matters if we later need to send to
                // it — which fails with a structured error there. The
                // driver independently notices the death.
                Ok(PeEvent::Peer(_, Err(_), _)) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
        }
    }
}

/// Connect to `addr`, retrying until `deadline` while nothing listens
/// there yet.
pub(crate) fn connect_with_retries(addr: &str, deadline: Instant) -> Result<TcpStream, RunError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(RunError::Transport {
                        detail: format!("connect to {addr} failed: {e}"),
                    });
                }
                // Failure path only: the driver binds its listener
                // before spawning PEs, and every peer binds its own
                // before its `Hello`, so on a healthy mesh the first
                // connect succeeds and this back-off never runs. A
                // driver joining `--listen` daemons retries only while
                // a freshly started one has not bound yet.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Accept `need` peer connections, each introduced by a `PeerHello`
/// carrying this session's run namespace. A hello from another run is
/// a hard error: with several runs multiplexed onto the same daemons,
/// a cross-run mesh edge would deliver messengers into the wrong
/// store.
fn accept_peers(
    listener: TcpListener,
    need: usize,
    run: u64,
    deadline: Instant,
) -> Result<Vec<(usize, TcpStream)>, RunError> {
    let transport = |detail: String| RunError::Transport { detail };
    let mut acceptor =
        Acceptor::new(listener).map_err(|e| transport(format!("peer listener: {e}")))?;
    let mut got = Vec::new();
    while got.len() < need {
        // Sleeps until a peer connects, bounded by the handshake deadline.
        let left = deadline.saturating_duration_since(Instant::now());
        let accepted = acceptor
            .accept(left)
            .map_err(|e| transport(format!("peer accept: {e}")))?;
        let Some(mut stream) = accepted else {
            if Instant::now() >= deadline {
                return Err(transport(format!(
                    "timed out waiting for {} peer connection(s)",
                    need - got.len()
                )));
            }
            continue;
        };
        match read_frame(&mut stream) {
            Ok(Frame::PeerHello { pe, run: r }) if r == run => got.push((pe as usize, stream)),
            Ok(Frame::PeerHello { pe, run: r }) => {
                return Err(transport(format!(
                    "PeerHello from PE {pe} of run {r}, this session is run {run}"
                )))
            }
            Ok(other) => return Err(transport(format!("expected PeerHello, got {other:?}"))),
            Err(e) => return Err(transport(format!("peer handshake read: {e}"))),
        }
    }
    Ok(got)
}

/// Process-lifetime observability state: the metrics registry, the
/// always-on frame-decode byte counter the reader threads feed, and
/// the `/healthz` snapshot. Created once in [`pe_main`] so the HTTP
/// endpoint is live before any driver connects and counters persist
/// across `--listen` sessions.
struct Obs {
    registry: Arc<MetricsRegistry>,
    decode_bytes: Arc<Counter>,
    health: Arc<Health>,
    /// Run ids with a driver session currently in flight on this
    /// daemon — the live set checkpoint GC must never prune. Run 0
    /// (the anonymous namespace) is never tracked.
    active_runs: Mutex<HashSet<u64>>,
}

impl Obs {
    fn new(opts: &PeOptions) -> Result<Obs, RunError> {
        let obs = Obs {
            registry: Arc::new(MetricsRegistry::new()),
            decode_bytes: Arc::new(Counter::new()),
            health: Arc::new(Health::new()),
            active_runs: Mutex::new(HashSet::new()),
        };
        if let Some(addr) = &opts.metrics_addr {
            let h = Arc::clone(&obs.health);
            serve_http_with(
                addr,
                Arc::clone(&obs.registry),
                Arc::new(move || h.render()),
                vec![(
                    "/debug/flight".to_string(),
                    Arc::new(|| ("application/json".to_string(), navp_obs::flight_json(256)))
                        as navp_metrics::RouteFn,
                )],
            )
            .map_err(|e| RunError::Transport {
                detail: format!("metrics bind {addr}: {e}"),
            })?;
        }
        Ok(obs)
    }
}

/// Run the PE process: handshake, mesh, event loop. In `--connect`
/// mode (driver-spawned children) the process serves exactly one
/// driver session and exits. In `--listen` mode it is a daemon: it
/// serves driver sessions *concurrently* — each accepted driver
/// connection gets its own session thread with its own store slice,
/// event table, peer mesh, and (run-scoped) durable state, so a
/// multi-tenant service can multiplex overlapping runs onto one
/// process — keeping its metrics registry (and the
/// `/metrics`/`/healthz` endpoint, when `--metrics-addr` is given)
/// alive across and shared between runs. Fatal errors are reported to
/// the driver before returning (or, in listen mode, logged and
/// survived). A stop signal with no session in flight exits a listen
/// daemon with [`GRACEFUL_EXIT`].
pub fn pe_main(mode: PeMode, opts: PeOptions) -> Result<(), RunError> {
    // Durable wrapper types must decode wherever restored injections
    // can arrive, and every PE honours SIGTERM/SIGINT with a clean
    // flush + [`GRACEFUL_EXIT`].
    register_durable();
    install_stop_handlers();
    let obs = Arc::new(Obs::new(&opts)?);
    match &mode {
        PeMode::Connect(addr) => {
            let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
            let stream = connect_with_retries(addr, deadline)?;
            driver_session(&opts, &obs, stream, deadline)
        }
        PeMode::Listen(bind) => {
            let transport = |detail: String| RunError::Transport { detail };
            let listener =
                TcpListener::bind(bind).map_err(|e| transport(format!("bind {bind}: {e}")))?;
            let mut acceptor = Acceptor::new(listener)
                .map_err(|e| transport(format!("listen on {bind}: {e}")))?;
            // Each session thread holds a clone until it ends, however it
            // ends, so the count above one is the sessions in flight.
            let sessions = Arc::new(());
            loop {
                // A session in flight stops the process itself (flush,
                // `PeStopped`, exit); an idle daemon has nothing to flush.
                if stop_requested() && Arc::strong_count(&sessions) == 1 {
                    std::process::exit(GRACEFUL_EXIT);
                }
                let accepted = acceptor
                    .accept(STOP_CHECK)
                    .map_err(|e| transport(format!("accept driver on {bind}: {e}")))?;
                let Some(stream) = accepted else { continue };
                let opts = opts.clone();
                let obs = Arc::clone(&obs);
                let session = Arc::clone(&sessions);
                std::thread::spawn(move || {
                    let _session = session;
                    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
                    if let Err(err) = driver_session(&opts, &obs, stream, deadline) {
                        eprintln!("navp-pe: driver session failed: {err}");
                    }
                    // Retention runs after each session, with the
                    // daemon's own in-flight runs as the live set, so
                    // a restorable cut is never deleted out from under
                    // a concurrent session.
                    if let (Some(base), Some(keep)) = (&opts.durable_dir, opts.durable_keep) {
                        let live = obs.active_runs.lock().unwrap().clone();
                        let removed =
                            core_durable::prune_run_dirs(base, keep, &|r| live.contains(&r));
                        if !removed.is_empty() {
                            eprintln!(
                                "navp-pe: pruned {} completed run checkpoint dir(s)",
                                removed.len()
                            );
                        }
                    }
                });
            }
        }
    }
}

/// How long an idle `--listen` daemon waits for a driver before it
/// checks for a stop signal again.
const STOP_CHECK: Duration = Duration::from_millis(50);

/// RAII membership in [`Obs::active_runs`]: marks the run in flight on
/// construction, un-marks on drop — so checkpoint GC sees a consistent
/// live set no matter how the session ends. Run 0 is the anonymous
/// namespace and is never tracked (nor ever pruned).
struct RunGuard<'a> {
    obs: &'a Obs,
    run: u64,
}

impl<'a> RunGuard<'a> {
    fn mark(obs: &'a Obs, run: u64) -> RunGuard<'a> {
        if run != 0 {
            obs.active_runs.lock().unwrap().insert(run);
        }
        RunGuard { obs, run }
    }
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        if self.run != 0 {
            self.obs.active_runs.lock().unwrap().remove(&self.run);
        }
    }
}

/// Publish the PE index to [`PE_ENV`]. The environment is
/// process-global while sessions are per-thread, so writes are
/// serialized and skipped when the value is already right — every
/// session of one daemon normally carries the same index (drivers
/// address daemons in mesh order), making this a no-op after the first
/// session.
fn set_pe_env(pe: usize) {
    static PE_ENV_LOCK: Mutex<()> = Mutex::new(());
    let _g = PE_ENV_LOCK.lock().unwrap();
    let val = pe.to_string();
    if std::env::var(PE_ENV).as_deref() != Ok(val.as_str()) {
        std::env::set_var(PE_ENV, val);
    }
}

/// Serve one driver on an established stream, reporting fatal errors
/// back before returning them.
///
/// The session has two halves with different I/O disciplines. The
/// *handshake* (assign → mesh → start) is a strict request/response
/// sequence on otherwise-quiet sockets, so it stays blocking, with a
/// throwaway [`FrameConn`] for writes. The *run* is where concurrency
/// lives: [`pe_run`] hands every socket to the process-global
/// [`IoLoop`] and the daemon goes frame-driven. Fatal errors before
/// the handoff are reported on the blocking conn; after it, on the
/// loop (the handoff marks the socket nonblocking, which retires the
/// blocking conn for good).
fn driver_session(
    opts: &PeOptions,
    obs: &Obs,
    mut driver_stream: TcpStream,
    deadline: Instant,
) -> Result<(), RunError> {
    let handshake_conn = FrameConn::new(driver_stream.try_clone().map_err(|e| {
        RunError::Transport {
            detail: format!("clone driver stream: {e}"),
        }
    })?);
    let setup = match pe_handshake(opts, obs, &mut driver_stream, &handshake_conn, deadline) {
        Ok(setup) => setup,
        Err(err) => {
            let _ = handshake_conn.send(&Frame::Fatal { err: err.clone() });
            return Err(err);
        }
    };
    drop(handshake_conn);
    pe_run(opts, obs, driver_stream, setup)
}

/// Everything the blocking handshake half of a session produces,
/// handed to [`pe_run`] at the moment the sockets join the event loop.
struct SessionSetup<'a> {
    peer_streams: Vec<Option<TcpStream>>,
    /// This PE, its store and its decoded time-zero injections.
    host: Host,
    plan: Option<FaultPlan>,
    run_opts: RunOpts,
    initial_live: u64,
    _run_guard: RunGuard<'a>,
}

fn pe_handshake<'a>(
    opts: &PeOptions,
    obs: &'a Obs,
    driver_stream: &mut TcpStream,
    driver: &FrameConn,
    deadline: Instant,
) -> Result<SessionSetup<'a>, RunError> {
    let transport = |detail: String| RunError::Transport { detail };

    // 1. Identity.
    let (pe, pes, run) = match read_frame(driver_stream) {
        Ok(Frame::Assign { pe, pes, run }) => (pe as usize, pes as usize, run),
        Ok(other) => return Err(transport(format!("expected Assign, got {other:?}"))),
        Err(e) => return Err(transport(format!("handshake read: {e}"))),
    };
    // Mark the run in flight for the duration of this session (RAII so
    // every exit path — error, panic, clean return — un-marks it);
    // checkpoint GC treats marked runs as unprunable.
    let run_guard = RunGuard::mark(obs, run);
    set_pe_env(pe);
    let registry = Arc::clone(&obs.registry);
    let decode_bytes = Arc::clone(&obs.decode_bytes);
    let health = Arc::clone(&obs.health);
    health.assign(pe, pes);

    // 2. Peer listener on the same interface the driver reached us on
    //    (loopback for local clusters, the NIC's address for --join).
    let local_ip = driver_stream
        .local_addr()
        .map_err(|e| transport(format!("local addr: {e}")))?
        .ip();
    let listener =
        TcpListener::bind((local_ip, 0)).map_err(|e| transport(format!("peer bind: {e}")))?;
    let listen = listener
        .local_addr()
        .map_err(|e| transport(format!("peer addr: {e}")))?
        .to_string();
    driver
        .send(&Frame::Hello {
            pe: pe as u32,
            pid: std::process::id(),
            listen,
        })
        .map_err(|e| transport(format!("send Hello: {e}")))?;

    // 3. Full mesh: connect to lower ids, accept from higher ids.
    let peer_addrs = match read_frame(driver_stream) {
        Ok(Frame::Bootstrap { peers }) => peers,
        Ok(other) => return Err(transport(format!("expected Bootstrap, got {other:?}"))),
        Err(e) => return Err(transport(format!("bootstrap read: {e}"))),
    };
    if peer_addrs.len() != pes {
        return Err(transport(format!(
            "bootstrap names {} PEs, expected {pes}",
            peer_addrs.len()
        )));
    }
    let acceptor = {
        let need = pes - 1 - pe;
        std::thread::spawn(move || accept_peers(listener, need, run, deadline))
    };
    let mut peer_streams: Vec<Option<TcpStream>> = (0..pes).map(|_| None).collect();
    for (q, addr) in peer_addrs.iter().enumerate().take(pe) {
        let stream = connect_with_retries(addr, deadline)?;
        FrameConn::new(stream.try_clone().map_err(|e| {
            transport(format!("clone peer stream: {e}"))
        })?)
        .send(&Frame::PeerHello { pe: pe as u32, run })
        .map_err(|e| transport(format!("send PeerHello to {q}: {e}")))?;
        peer_streams[q] = Some(stream);
    }
    for (q, stream) in acceptor
        .join()
        .map_err(|_| transport("peer acceptor panicked".into()))??
    {
        if q >= pes || peer_streams[q].is_some() || q == pe {
            return Err(transport(format!("bogus PeerHello from {q}")));
        }
        peer_streams[q] = Some(stream);
    }
    health.peers_connected.store(
        peer_streams.iter().filter(|s| s.is_some()).count() as u64,
        Ordering::Relaxed,
    );
    driver
        .send(&Frame::MeshReady { pe: pe as u32 })
        .map_err(|e| transport(format!("send MeshReady: {e}")))?;

    // 4. Start payload.
    let (store_img, injections, events, plan, initial_live, trace, metrics) =
        match read_frame(driver_stream) {
            Ok(Frame::Start {
                store,
                injections,
                events,
                plan,
                initial_live,
                trace,
                metrics,
            }) => (store, injections, events, plan, initial_live, trace, metrics),
            Ok(other) => return Err(transport(format!("expected Start, got {other:?}"))),
            Err(e) => return Err(transport(format!("start read: {e}"))),
        };
    let metered = metrics || opts.metrics_addr.is_some();
    let run_metrics = metered.then(|| {
        // Adopt the decode counter before RunMetrics registers the
        // name: the event loop counts into it from registration on
        // (and counted through every earlier session of this process).
        registry.counter_arc(
            "navp_frame_decode_bytes_total",
            "Wire bytes consumed by frame decoding",
            &[],
            Arc::clone(&decode_bytes),
        );
        RunMetrics::on_registry(Arc::clone(&registry), pes)
    });
    let store = decode_store(&store_img)
        .map_err(|e| transport(format!("PE {pe} cannot decode its store: {e}")))?;
    let mut admitted = Vec::with_capacity(injections.len());
    for (id, snap) in injections {
        let m = decode_messenger(&snap)
            .map_err(|e| transport(format!("PE {pe} cannot decode injection {id}: {e}")))?;
        admitted.push((pe, id, m));
    }
    // Durable state is scoped to the session's run namespace: run 0
    // spills into the base directory (the pre-service layout), any
    // other run into its own `run-<id>` subdir whose manifest the
    // driver wrote before connecting.
    let durable = opts.durable_dir.as_ref().map(|base| Durable {
        dir: core_durable::run_dir(base, run),
        codec: Arc::new(RegistryCodec),
        create: false,
    });
    // Recovery machinery (fault tracker, journal, checkpoint table) runs
    // for a fault plan *or* durable mode — the durable cut is that
    // machinery serialized. Crash-restart semantics follow the plan.
    let plan = plan.or_else(|| durable.is_some().then(FaultPlan::new));

    Ok(SessionSetup {
        peer_streams,
        host: Host {
            pes,
            first: pe,
            stores: vec![store],
            injections: admitted,
            events,
            run,
        },
        plan,
        run_opts: RunOpts {
            trace,
            metrics: run_metrics,
            durable,
        },
        initial_live,
        _run_guard: run_guard,
    })
}

/// The frame-driven half of a session: hand every socket to the
/// process-global event loop, build the daemon, run it, and tear the
/// handles down so a long-lived `--listen` daemon leaks nothing into
/// the loop between sessions.
fn pe_run(
    opts: &PeOptions,
    obs: &Obs,
    driver_stream: TcpStream,
    setup: SessionSetup<'_>,
) -> Result<(), RunError> {
    let transport = |detail: String| RunError::Transport { detail };
    let SessionSetup {
        peer_streams,
        host,
        plan,
        run_opts,
        initial_live,
        _run_guard,
    } = setup;
    let (pe, pes, run) = (host.first, host.pes, host.run);
    let (trace, metered) = (run_opts.trace, run_opts.metrics.is_some());
    let reader_bytes = metered.then(|| Arc::clone(&obs.decode_bytes));
    let ioloop = IoLoop::global();
    if metered {
        // The navp_net_io_* family is process-global (the loop serves
        // every session at once); adoption is idempotent.
        ioloop.stats().adopt_into(&obs.registry);
    }

    let (tx, rx) = std::sync::mpsc::channel();
    let driver = {
        let tx = tx.clone();
        ioloop
            .register(
                driver_stream,
                Box::new(move |r| tx.send(PeEvent::Driver(r)).is_ok()),
                reader_bytes.clone(),
            )
            .map_err(|e| transport(format!("register driver stream: {e}")))?
    };
    let mut peers: Vec<Option<IoHandle>> = (0..pes).map(|_| None).collect();
    for (q, stream) in peer_streams.into_iter().enumerate() {
        let Some(stream) = stream else { continue };
        let tx = tx.clone();
        let handle = ioloop
            .register(
                stream,
                Box::new(move |r| {
                    let recv_ns = navp_obs::flight().now_ns();
                    tx.send(PeEvent::Peer(q, r, recv_ns)).is_ok()
                }),
                reader_bytes.clone(),
            )
            .map_err(|e| transport(format!("register peer {q} stream: {e}")))?;
        peers[q] = Some(handle);
    }

    let setup = Setup::new(host, plan, &run_opts, |pe| pe_lane(pe, trace))?;
    let core = setup.cores.into_iter().next().expect("one hosted PE");
    let mut daemon = Daemon {
        io: NetIo {
            pe,
            pes,
            run,
            lane: Arc::clone(core.lane()),
            recovery: setup.rec,
            durable: setup.spill.map(|spill| NetDurable {
                spill,
                sent_to: vec![0; pes],
                recv_from: vec![0; pes],
                outbox: Vec::new(),
                pending: Vec::new(),
            }),
            events: setup.events,
            queue: setup
                .admitted
                .into_iter()
                .map(|(_, id, m)| (id, m, Arrival::Fresh))
                .collect(),
            next_inject: 0,
            initial_live,
            peers,
            driver,
            metrics: run_opts.metrics,
            health: opts.metrics_addr.is_some().then(|| Arc::clone(&obs.health)),
            d_wire: 0,
            t_peer_sent: 0,
            t_peer_recv: 0,
        },
        core,
        flushed: Tally::default(),
        flushed_recv: 0,
    };
    daemon
        .io
        .lane
        .record(ObsKind::RunStart, pe as u32, run, pes as u64, 0);

    // 6. Run. A panic inside a messenger becomes a structured
    //    WorkerPanic at the driver, not a silent EOF.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        daemon.event_loop(&rx)
    }));
    let result = match outcome {
        Ok(r) => r,
        Err(payload) => Err(RunError::WorkerPanic(format!(
            "PE {pe}: {}",
            panic_text(&*payload)
        ))),
    };
    daemon.io.lane.record(
        ObsKind::RunEnd,
        pe as u32,
        run,
        result.is_err() as u64,
        0,
    );
    if let Err(err) = &result {
        let _ = daemon.io.driver.send(&Frame::Fatal { err: err.clone() });
        // Leave the black box next to the durable state (or wherever
        // NAVP_FLIGHT_DIR points). Without either there is no home for
        // postmortems — ephemeral in-process meshes skip the dump.
        let dump_dir = opts.durable_dir.clone().or_else(|| {
            std::env::var("NAVP_FLIGHT_DIR")
                .ok()
                .filter(|d| !d.is_empty())
                .map(PathBuf::from)
        });
        if let Some(dir) = dump_dir {
            match navp_obs::dump_postmortem(&dir, &format!("run_error: {err}")) {
                Ok(path) => eprintln!("navp-pe: flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("navp-pe: flight dump failed: {e}"),
            }
        }
    }
    // Retire this session's handles — shutdown drains queued frames
    // (the Fatal above included) before the loop drops the sockets. A
    // --listen daemon serves many sessions per process; anything not
    // closed here would sit in the loop forever.
    daemon.io.driver.shutdown();
    for handle in daemon.io.peers.iter().flatten() {
        handle.shutdown();
    }
    result
}
