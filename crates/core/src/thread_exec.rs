//! The wall-clock executor: one OS thread per PE.
//!
//! [`ThreadExecutor`] is the MESSENGERS *daemon* reproduced with modern
//! threads: each PE runs a daemon loop that pops runnable messengers,
//! runs them through its [`PeCore`] until they block or leave, and
//! forwards hopping messengers to the destination daemon over a
//! `std::sync::mpsc` channel. The box holding the messenger's agent
//! variables is what actually moves — code never does, exactly as in
//! the paper ("although the state of the computation is moved on each
//! hop, the code is not moved").
//!
//! This executor does real work in real time (the arithmetic inside each
//! step is what is being measured), so `charge_*` calls are ignored. Use
//! it for benchmarks and to validate on live hardware the orderings the
//! virtual-time executor predicts.
//!
//! A watchdog converts silent deadlocks (every messenger parked on an
//! event nobody will signal) into [`RunError::Stalled`].
//!
//! ## Fault tolerance
//!
//! When the cluster carries a [`FaultPlan`](crate::FaultPlan), the
//! executor injects its faults and (with checkpointing on) absorbs PE
//! crashes. A crash is quantized to a *run boundary* (see
//! [`PeCore::run`]). On a crash the daemon restarts itself in place — it
//! discards its local queue, its core rebuilds the store, bumps the PE's
//! delivery *epoch*, and re-delivers the last checkpoint of every
//! messenger in its failure domain. The epoch defeats double delivery:
//! every channel send is stamped with the destination's epoch read under
//! the same lock that registers the checkpoint, so a message racing a
//! crash is either redelivered from its checkpoint (and the stale
//! original discarded on receipt) or delivered normally — never both.
//! Messengers parked on events live in the shared event service, which
//! survives daemon restarts.

use crate::agent::{Messenger, StepOutputs};
use crate::cluster::{Cluster, ClusterParts};
use crate::durable::DurableCodec;
use crate::error::RunError;
use crate::fault::FaultStats;
use crate::pe_core::{Arrival, EventTable, Parked, PeCore, PeIo, Recovery, Spill};
use navp_metrics::RunMetrics;
use navp_obs::Lane;
use navp_sim::key::{EventKey, NodeId};
use navp_sim::store::NodeStore;
use navp_trace::{merge_pe_traces, PeLog, Trace};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

enum DaemonMsg {
    Agent {
        /// Executor-wide messenger id (checkpoint key).
        id: u64,
        /// Destination epoch stamped at send time; stale epochs are
        /// discarded on receipt (the crash already re-delivered them).
        epoch: u64,
        msgr: Box<dyn Messenger>,
        via: Arrival,
    },
    Shutdown,
}

struct Shared {
    chans: Vec<Sender<DaemonMsg>>,
    live: AtomicUsize,
    progress: AtomicU64,
    next_id: AtomicU64,
    events: Mutex<EventTable<Box<dyn Messenger>>>,
    failure: Mutex<Option<RunError>>,
    /// Recovery state shared by all daemons, behind one lock so that
    /// epoch reads, checkpoint registration and crash collection
    /// serialize against each other (the exactly-once argument depends
    /// on it). Lock order: recovery → durable → events.
    recovery: Option<Mutex<Recovery>>,
    /// Durable checkpoint sink, `None` unless requested — durable-off
    /// runs perform zero filesystem syscalls.
    durable: Option<Mutex<Spill>>,
}

impl Shared {
    fn shutdown_all(&self) {
        for ch in &self.chans {
            // Ignore send failures: a daemon that already exited is fine.
            let _ = ch.send(DaemonMsg::Shutdown);
        }
    }

    fn fail(&self, err: RunError) {
        let mut f = self.failure.lock().unwrap();
        if f.is_none() {
            *f = Some(err);
        }
        drop(f);
        self.shutdown_all();
    }

    fn recovery(&self) -> Option<MutexGuard<'_, Recovery>> {
        self.recovery.as_ref().map(|r| r.lock().unwrap())
    }

    /// Deliver messenger `id` to `dst`: checkpoint it into the
    /// destination's failure domain, stamp the destination epoch, and
    /// send. Hops first pass through the fault plan's delay/drop rules
    /// (faults recorded on `lane`); the hold is slept off here.
    fn send_agent(
        &self,
        dst: NodeId,
        id: u64,
        msgr: Box<dyn Messenger>,
        via: Arrival,
        lane: &Lane,
    ) -> Result<(), RunError> {
        let epoch = match self.recovery() {
            None => 0,
            Some(mut r) => {
                if matches!(via, Arrival::Hop { .. }) {
                    let hold = r.hop_fault(dst, lane, 0)?;
                    if !hold.is_empty() {
                        drop(r);
                        // Keep the watchdog fed through injected latency.
                        self.progress.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(hold.wall());
                        r = self.recovery().expect("recovery is on");
                    }
                }
                r.checkpoint(id, dst, msgr.as_ref());
                r.epochs[dst]
            }
        };
        let _ = self.chans[dst].send(DaemonMsg::Agent {
            id,
            epoch,
            msgr,
            via,
        });
        Ok(())
    }

    /// Spill the whole cluster's consistent cut. Every PE's committed
    /// store is `initial + journal`, every live messenger sits in the
    /// checkpoint table, and the event service holds the parked waiters
    /// — the same invariants in-memory crash recovery relies on, so the
    /// cut is consistent even while other daemons are mid-run (their
    /// uncommitted writes simply aren't in it yet).
    fn spill(&self, lane: &Lane) -> Result<(), RunError> {
        let (Some(rec), Some(ds)) = (&self.recovery, &self.durable) else {
            return Ok(());
        };
        let r = rec.lock().unwrap();
        let mut spill = ds.lock().unwrap();
        let events = self.events.lock().unwrap();
        spill.spill_all(&r, &events, lane)
    }
}

/// One daemon's transport: the shared channels and event service, plus
/// its local runnable queue.
struct ThreadIo<'a> {
    shared: &'a Shared,
    pe: NodeId,
    lane: Arc<Lane>,
    /// Locally injected messengers run before the channel is polled
    /// again — MESSENGERS' local scheduling queue.
    local: VecDeque<(u64, Box<dyn Messenger>)>,
}

impl PeIo for ThreadIo<'_> {
    fn recovery(&mut self) -> Option<impl std::ops::DerefMut<Target = Recovery> + '_> {
        self.shared.recovery()
    }

    fn stepped(&mut self, _id: u64, _out: &StepOutputs, _store: &NodeStore, _m: &dyn Messenger) {
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
    }

    fn next_id(&mut self) -> u64 {
        self.shared.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn inject(&mut self, id: u64, msgr: Box<dyn Messenger>) {
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.local.push_back((id, msgr));
    }

    fn signal(&mut self, _id: u64, key: EventKey) -> Result<(), RunError> {
        let woken = self.shared.events.lock().unwrap().signal(key);
        if let Some(w) = woken {
            self.shared.progress.fetch_add(1, Ordering::Relaxed);
            // Waking is a delivery point: the messenger re-enters its
            // PE's failure domain.
            let via = Arrival::Wake {
                parked_ns: w.parked_ns,
            };
            self.shared
                .send_agent(w.origin, w.id, w.msgr, via, &self.lane)?;
        }
        Ok(())
    }

    fn wait(
        &mut self,
        id: u64,
        key: EventKey,
        msgr: Box<dyn Messenger>,
        parked_ns: u64,
    ) -> Result<Option<Box<dyn Messenger>>, RunError> {
        // Park and forget under both locks (recovery → events): a
        // daemon that signals `key` can only wake the waiter, and
        // re-checkpoint it, once its checkpoint is already gone.
        let mut rec = self.shared.recovery();
        let mut ev = self.shared.events.lock().unwrap();
        if ev.take_banked(key) {
            return Ok(Some(msgr));
        }
        let origin = self.pe;
        ev.park(
            key,
            Parked {
                id,
                origin,
                parked_ns,
                msgr,
            },
        );
        if let Some(r) = rec.as_mut() {
            r.forget(id);
        }
        Ok(None)
    }

    fn hop(
        &mut self,
        id: u64,
        dst: NodeId,
        bytes: u64,
        sent_ns: u64,
        msgr: Box<dyn Messenger>,
    ) -> Result<(), RunError> {
        let via = Arrival::Hop {
            from: self.pe,
            sent_ns,
            bytes,
            landed_ns: 0,
        };
        self.shared.send_agent(dst, id, msgr, via, &self.lane)
    }

    fn done(&mut self, _id: u64) {
        if self.shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.shutdown_all();
        }
    }

    fn restarted(&mut self, redelivered: Vec<(u64, Box<dyn Messenger>)>) {
        self.local.clear();
        let epoch = self.shared.recovery().map_or(0, |r| r.epochs[self.pe]);
        for (id, msgr) in redelivered {
            let _ = self.shared.chans[self.pe].send(DaemonMsg::Agent {
                id,
                epoch,
                msgr,
                via: Arrival::Fresh,
            });
        }
        self.shared.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Result of a wall-clock run.
pub struct WallReport {
    /// Elapsed wall-clock time of the run (excluding setup/teardown).
    pub wall: Duration,
    /// Post-run node-variable stores (index = PE).
    pub stores: Vec<NodeStore>,
    /// Total messenger steps executed.
    pub steps: u64,
    /// Total inter-PE hops taken.
    pub hops: u64,
    /// Total bytes carried by those hops (agent payload plus the fixed
    /// per-hop state overhead) — divide by `wall` for effective hop
    /// bandwidth.
    pub hop_bytes: u64,
    /// What the fault machinery did (all zero on a fault-free run).
    pub faults: FaultStats,
    /// The no-progress watchdog timeout this run was executed under.
    pub watchdog: Duration,
    /// Merged wall-clock trace (present iff tracing was enabled).
    pub trace: Option<Trace>,
    /// Trace events evicted by the per-PE ring buffers.
    pub trace_dropped: u64,
}

impl std::fmt::Debug for WallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallReport")
            .field("wall", &self.wall)
            .field("steps", &self.steps)
            .field("hops", &self.hops)
            .field("hop_bytes", &self.hop_bytes)
            .field("pes", &self.stores.len())
            .field("faults", &self.faults)
            .field("watchdog", &self.watchdog)
            .finish_non_exhaustive()
    }
}

/// Multithreaded executor: one daemon thread per PE, real migration over
/// channels, wall-clock timing.
pub struct ThreadExecutor {
    watchdog: Duration,
    trace: bool,
    metrics: Option<Arc<RunMetrics>>,
    durable: Option<(PathBuf, Arc<dyn DurableCodec>)>,
}

impl Default for ThreadExecutor {
    fn default() -> Self {
        ThreadExecutor::new()
    }
}

impl ThreadExecutor {
    /// Executor with the default 10 s no-progress watchdog.
    pub fn new() -> ThreadExecutor {
        ThreadExecutor {
            watchdog: Duration::from_secs(10),
            trace: false,
            metrics: None,
            durable: None,
        }
    }

    /// Spill a durable checkpoint of the whole cluster to `dir` at every
    /// run boundary (and once before the daemons start), so the process
    /// can be killed at any point and the computation restored bitwise
    /// with [`crate::durable::read_all_cuts`] +
    /// [`crate::durable::restore_cluster`]. Requires every messenger to
    /// be wire-serializable. Without this builder the executor performs
    /// **zero** filesystem syscalls.
    pub fn with_durable(
        mut self,
        dir: impl Into<PathBuf>,
        codec: Arc<dyn DurableCodec>,
    ) -> ThreadExecutor {
        self.durable = Some((dir.into(), codec));
        self
    }

    /// Override the no-progress watchdog (tests of deadlocking programs
    /// want this short).
    pub fn with_watchdog(mut self, watchdog: Duration) -> ThreadExecutor {
        self.watchdog = watchdog;
        self
    }

    /// The configured no-progress watchdog.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Record a wall-clock trace of the run (off by default). Every
    /// daemon keeps a bounded ring of events; the merged [`Trace`] lands
    /// in [`WallReport::trace`]. Products are unaffected.
    pub fn with_trace(mut self, trace: bool) -> ThreadExecutor {
        self.trace = trace;
        self
    }

    /// Export live metrics into `metrics` during the run (off by
    /// default). The executor updates the shared
    /// [`RunMetrics`] instruments as it goes;
    /// the caller keeps its own handle to scrape or snapshot them —
    /// also mid-run, which is the whole point. Products are unaffected.
    pub fn with_metrics(mut self, metrics: Arc<RunMetrics>) -> ThreadExecutor {
        self.metrics = Some(metrics);
        self
    }

    /// Run the cluster to completion on real threads.
    ///
    /// Under a fault plan, an unrecoverable crash returns
    /// [`RunError::PeCrashed`] (checkpointing disabled) or
    /// [`RunError::RecoveryFailed`] (lost state cannot be restored) —
    /// never a hang.
    pub fn run(&self, cluster: Cluster) -> Result<WallReport, RunError> {
        let ClusterParts {
            mut stores,
            injections,
            initial_events,
            fault_plan,
        } = cluster.into_parts();
        let pes = stores.len();
        if injections.is_empty() {
            return Ok(WallReport {
                wall: Duration::ZERO,
                stores,
                steps: 0,
                hops: 0,
                hop_bytes: 0,
                faults: FaultStats::default(),
                watchdog: self.watchdog,
                trace: self.trace.then(Trace::enabled),
                trace_dropped: 0,
            });
        }

        let durable = self.durable.is_some();
        let mut rec = Recovery::for_run(fault_plan, durable, &mut stores, &self.metrics)?;

        let mut senders = Vec::with_capacity(pes);
        let mut receivers: Vec<Receiver<DaemonMsg>> = Vec::with_capacity(pes);
        for _ in 0..pes {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        // All daemons anchor their recorders at one instant, so per-PE
        // timestamps are directly comparable (offsets are zero).
        let anchor = Instant::now();
        let mut cores: Vec<PeCore> = stores
            .into_iter()
            .enumerate()
            .map(|(pe, store)| {
                // Per-PE flight lane, fetched once; purely observational
                // (see `navp_obs`), so products stay bitwise-identical.
                let lane = navp_obs::flight().lane(&format!("pe{pe}"));
                PeCore::new(pe, pes, store, lane, self.metrics.clone())
                    .with_trace(anchor, self.trace)
            })
            .collect();
        let mut events = EventTable::default();
        for key in initial_events {
            events.bank(key);
        }
        // Queue the time-zero injections before any daemon starts; each
        // is a delivery point, so checkpoint it.
        let live = injections.len();
        for (i, (pe, msgr)) in injections.into_iter().enumerate() {
            cores[pe].admit(rec.as_mut(), i as u64, msgr.as_ref());
            let _ = senders[pe].send(DaemonMsg::Agent {
                id: i as u64,
                epoch: 0,
                msgr,
                via: Arrival::Fresh,
            });
        }
        let durable = match &self.durable {
            Some((dir, codec)) => Some(Mutex::new(Spill::create(
                dir.clone(),
                Arc::clone(codec),
                pes,
            )?)),
            None => None,
        };
        let shared = Shared {
            chans: senders,
            live: AtomicUsize::new(live),
            progress: AtomicU64::new(0),
            next_id: AtomicU64::new(live as u64),
            events: Mutex::new(events),
            failure: Mutex::new(None),
            recovery: rec.map(Mutex::new),
            durable,
        };
        // Boundary 0: the injected-but-unrun cluster, so even a kill
        // before the first run restores cleanly.
        shared.spill(cores[0].lane())?;

        let start = Instant::now();
        let mut joined: Vec<Option<PeCore>> = (0..pes).map(|_| None).collect();
        let mut panic_msg: Option<String> = None;

        std::thread::scope(|s| {
            let shared = &shared;
            let handles: Vec<_> = cores
                .into_iter()
                .zip(receivers)
                .map(|(core, rx)| {
                    s.spawn(move || {
                        // Report a messenger panic through the failure
                        // slot immediately, so the main loop stops at its
                        // next tick instead of waiting out the watchdog.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            daemon(core, rx, shared)
                        }));
                        match run {
                            Ok(core) => core,
                            Err(p) => {
                                shared.fail(RunError::WorkerPanic(panic_text(&*p)));
                                std::panic::resume_unwind(p);
                            }
                        }
                    })
                })
                .collect();

            // Watchdog: abort when no step/signal happens for `watchdog`.
            let tick = Duration::from_millis(20).min(self.watchdog);
            let mut last = shared.progress.load(Ordering::Relaxed);
            let mut stagnant = Duration::ZERO;
            loop {
                if shared.live.load(Ordering::SeqCst) == 0 {
                    break;
                }
                if shared.failure.lock().unwrap().is_some() {
                    break;
                }
                std::thread::sleep(tick);
                let now = shared.progress.load(Ordering::Relaxed);
                if now == last {
                    stagnant += tick;
                    if stagnant >= self.watchdog {
                        shared.fail(RunError::Stalled {
                            live: shared.live.load(Ordering::SeqCst),
                        });
                        break;
                    }
                } else {
                    last = now;
                    stagnant = Duration::ZERO;
                }
            }

            for (pe, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(core) => joined[pe] = Some(core),
                    Err(p) => panic_msg = Some(panic_text(&*p)),
                }
            }
        });
        let wall = start.elapsed();

        if let Some(msg) = panic_msg {
            return Err(RunError::WorkerPanic(msg));
        }
        if let Some(err) = shared.failure.lock().unwrap().take() {
            return Err(err);
        }
        let faults = shared.recovery().map(|r| r.stats()).unwrap_or_default();
        let (mut steps, mut hops, mut hop_bytes) = (0, 0, 0);
        let mut stores = Vec::with_capacity(pes);
        let mut logs = Vec::with_capacity(pes);
        for (pe, core) in joined.into_iter().enumerate() {
            let core = core.expect("all daemons joined");
            steps += core.tally.steps;
            hops += core.tally.hops;
            hop_bytes += core.tally.hop_bytes;
            let (store, mut recorder) = core.into_parts();
            let (events, dropped) = recorder.take();
            stores.push(store);
            logs.push(PeLog {
                pe,
                // One shared anchor ⇒ clocks already agree.
                offset_ns: 0,
                events,
                dropped,
            });
        }
        let (trace, trace_dropped) = if self.trace {
            let (t, d) = merge_pe_traces(logs);
            (Some(t), d)
        } else {
            (None, 0)
        };
        if let Some(m) = &self.metrics {
            m.trace_dropped.add(trace_dropped);
        }
        Ok(WallReport {
            wall,
            stores,
            steps,
            hops,
            hop_bytes,
            faults,
            watchdog: self.watchdog,
            trace,
            trace_dropped,
        })
    }
}

/// Human-readable payload of a caught panic.
fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// The daemon loop of one PE: deliveries in, runs through the core.
/// Returns the core (store, recorder, tally) when the PE shuts down.
fn daemon(mut core: PeCore, rx: Receiver<DaemonMsg>, shared: &Shared) -> PeCore {
    let pe = core.pe();
    let mut io = ThreadIo {
        shared,
        pe,
        lane: Arc::clone(core.lane()),
        local: VecDeque::new(),
    };
    loop {
        core.note_queue_depth(io.local.len());
        let (id, msgr) = if let Some(m) = io.local.pop_front() {
            m
        } else {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(DaemonMsg::Agent {
                    id,
                    epoch,
                    msgr,
                    via,
                }) => {
                    if shared.recovery().is_some_and(|r| r.epochs[pe] != epoch) {
                        // Sent before a crash of this PE; the crash
                        // re-delivered it from its checkpoint.
                        continue;
                    }
                    core.arrived(id, &via, msgr.as_ref());
                    (id, msgr)
                }
                Ok(DaemonMsg::Shutdown) => break,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        let ran = core.run(&mut io, id, msgr).and_then(|ran| {
            if ran {
                shared.spill(&io.lane)?;
            }
            Ok(())
        });
        if let Err(err) = ran {
            shared.fail(err);
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{PingPong, ToyCodec, WirePingPong};
    use crate::agent::Effect;
    use crate::durable;
    use crate::sim_exec::HOP_STATE_BYTES;
    use navp_trace::TraceKind;
    use navp_sim::key::Key;
    use crate::fault::FaultPlan;
    use crate::script::Script;

    #[test]
    fn simple_hop_and_write() {
        let mut c = Cluster::new(3).unwrap();
        c.store_mut(2).insert(Key::plain("B"), 20.0f64, 8);
        c.inject(
            0,
            Script::new("worker")
                .then(|_| Effect::Hop(2))
                .then(|ctx| {
                    let b = *ctx.store().get::<f64>(Key::plain("B")).unwrap();
                    ctx.store().insert(Key::plain("C"), b + 2.0, 8);
                    Effect::Done
                }),
        );
        let rep = ThreadExecutor::new().run(c).unwrap();
        assert_eq!(rep.stores[2].get::<f64>(Key::plain("C")), Some(&22.0));
        assert_eq!(rep.hops, 1);
        assert!(rep.steps >= 2);
        assert!(!rep.faults.any());
    }

    #[test]
    fn empty_cluster_returns_immediately() {
        let c = Cluster::new(2).unwrap();
        let rep = ThreadExecutor::new().run(c).unwrap();
        assert_eq!(rep.steps, 0);
    }

    #[test]
    fn events_across_pes() {
        let mut c = Cluster::new(2).unwrap();
        // Consumer on PE1 waits; producer hops to PE1 and signals there.
        c.inject(
            1,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("ready")))
                .then(|ctx| {
                    assert!(ctx.store_ref().contains(Key::plain("data")));
                    ctx.store().insert(Key::plain("ok"), true, 1);
                    Effect::Done
                }),
        );
        c.inject(
            0,
            Script::new("producer")
                .then(|_| Effect::Hop(1))
                .then(|ctx| {
                    ctx.store().insert(Key::plain("data"), 1u8, 1);
                    ctx.signal(Key::plain("ready"));
                    Effect::Done
                }),
        );
        let rep = ThreadExecutor::new().run(c).unwrap();
        assert_eq!(rep.stores[1].get::<bool>(Key::plain("ok")), Some(&true));
    }

    #[test]
    fn deadlock_hits_watchdog() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("stuck").then(|_| Effect::WaitEvent(Key::plain("never"))),
        );
        let err = ThreadExecutor::new()
            .with_watchdog(Duration::from_millis(200))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::Stalled { live: 1 }));
    }

    #[test]
    fn bad_hop_reported() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Script::new("wild").then(|_| Effect::Hop(5)));
        assert!(matches!(
            ThreadExecutor::new().run(c),
            Err(RunError::BadHop { dst: 5, .. })
        ));
    }

    #[test]
    fn worker_panic_reported() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Script::new("boom").then(|_| panic!("kapow")));
        match ThreadExecutor::new()
            .with_watchdog(Duration::from_millis(500))
            .run(c)
        {
            Err(RunError::WorkerPanic(msg)) => assert!(msg.contains("kapow")),
            other => panic!("expected panic error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn injection_fanout_counts() {
        // A spawner injecting 10 children, each hopping once then done.
        let mut c = Cluster::new(4).unwrap();
        c.inject(
            0,
            Script::new("spawner").then(|ctx| {
                for i in 0..10usize {
                    ctx.inject(
                        Script::new("child")
                            .then(move |_| Effect::Hop(i % 4))
                            .then(move |cctx| {
                                cctx.store().insert(Key::at("mark", i), i, 8);
                                Effect::Done
                            }),
                    );
                }
                Effect::Done
            }),
        );
        let rep = ThreadExecutor::new().run(c).unwrap();
        let total: usize = rep.stores.iter().map(|s| s.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn many_agents_many_hops_terminate() {
        let mut c = Cluster::new(4).unwrap();
        for a in 0..32usize {
            c.inject(
                a % 4,
                Script::new("tourist").then_each(16, move |k, _| Effect::Hop((a + k) % 4)),
            );
        }
        let rep = ThreadExecutor::new().run(c).unwrap();
        // 16 hop-steps per agent; some are local (free) but all counted as steps.
        assert_eq!(rep.steps, 32 * 17);
    }

    fn counts(rep: &WallReport) -> (u64, u64) {
        let k = Key::plain("count");
        (
            rep.stores[0].get::<u64>(k).copied().unwrap_or(0),
            rep.stores[1].get::<u64>(k).copied().unwrap_or(0),
        )
    }

    #[test]
    fn crash_recovery_preserves_results() {
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(0, PingPong { hops_left: 6 });
            c
        };
        let clean = ThreadExecutor::new().run(build()).unwrap();
        assert_eq!(counts(&clean), (4, 3));

        let faulted = build().with_fault_plan(FaultPlan::new().crash_pe(1, 2));
        let rep = ThreadExecutor::new().run(faulted).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "recovery must be exact");
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.redelivered, 1);
        assert!(rep.faults.replayed_writes >= 1);
    }

    #[test]
    fn crash_without_checkpointing_is_structured_not_a_hang() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c.set_fault_plan(FaultPlan::new().crash_pe(1, 1).without_checkpointing());
        // Generous watchdog: the crash error must preempt it.
        let err = ThreadExecutor::new()
            .with_watchdog(Duration::from_secs(30))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::PeCrashed { pe: 1, run: 1 }));
    }

    #[test]
    fn dropped_and_delayed_hops_still_deliver() {
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(0, PingPong { hops_left: 6 });
            c
        };
        let clean = ThreadExecutor::new().run(build()).unwrap();
        let plan = FaultPlan::new()
            .drop_hop(1, 1)
            .delay_hop(0, 2, 0.01)
            .with_retry(3, Duration::from_millis(1));
        let rep = ThreadExecutor::new()
            .run(build().with_fault_plan(plan))
            .unwrap();
        assert_eq!(counts(&rep), counts(&clean));
        assert_eq!(rep.faults.hops_dropped, 1);
        assert_eq!(rep.faults.send_retries, 1);
        assert_eq!(rep.faults.hops_delayed, 1);
    }

    #[test]
    fn drop_exhaustion_fails_structurally() {
        let mut plan = FaultPlan::new().with_retry(2, Duration::from_millis(1));
        for nth in 1..=3 {
            plan = plan.drop_hop(1, nth);
        }
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c.set_fault_plan(plan);
        assert!(matches!(
            ThreadExecutor::new().run(c).unwrap_err(),
            RunError::RecoveryFailed { pe: 1, .. }
        ));
    }

    #[test]
    fn lost_signal_hits_watchdog_with_stats_path() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("producer").then(|ctx| {
                ctx.signal(Key::plain("go"));
                Effect::Done
            }),
        );
        c.inject(
            0,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("go")))
                .then(|_| Effect::Done),
        );
        c.set_fault_plan(FaultPlan::new().lose_signal(0, 1));
        let err = ThreadExecutor::new()
            .with_watchdog(Duration::from_millis(200))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::Stalled { .. }));
    }

    #[test]
    fn crash_of_snapshotless_messenger_is_recovery_failure() {
        // Scripts carry closures and cannot snapshot: a crash that loses
        // one must surface as RecoveryFailed, not silently corrupt.
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("fragile")
                .then(|_| Effect::Hop(1))
                .then(|_| Effect::Hop(0))
                .then(|_| Effect::Done),
        );
        c.set_fault_plan(FaultPlan::new().crash_pe(1, 1));
        assert!(matches!(
            ThreadExecutor::new().run(c).unwrap_err(),
            RunError::RecoveryFailed { pe: 1, .. }
        ));
    }

    #[test]
    fn tracing_records_all_span_kinds_and_is_off_by_default() {
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(
                1,
                Script::new("consumer")
                    .then(|_| Effect::WaitEvent(Key::plain("ready")))
                    .then(|_| Effect::Done),
            );
            c.inject(
                0,
                Script::new("producer")
                    .then(|_| Effect::Hop(1))
                    .then(|ctx| {
                        ctx.signal(Key::plain("ready"));
                        Effect::Done
                    }),
            );
            c
        };
        let plain = ThreadExecutor::new().run(build()).unwrap();
        assert!(plain.trace.is_none(), "tracing must be off by default");

        let rep = ThreadExecutor::new().with_trace(true).run(build()).unwrap();
        let trace = rep.trace.expect("traced run yields a trace");
        assert_eq!(rep.trace_dropped, 0);
        let mut exec_pes = std::collections::HashSet::new();
        let (mut transfers, mut blocks, mut signals) = (0, 0, 0);
        for e in trace.events() {
            assert!(e.start <= e.end);
            match e.kind {
                TraceKind::Exec { pe } => {
                    exec_pes.insert(pe);
                }
                TraceKind::Transfer { from, to, bytes } => {
                    transfers += 1;
                    assert_eq!((from, to), (0, 1));
                    assert!(bytes >= HOP_STATE_BYTES);
                }
                TraceKind::Block { pe } => {
                    blocks += 1;
                    assert_eq!(pe, 1, "consumer waited on PE1");
                }
                TraceKind::Signal { pe } => {
                    signals += 1;
                    assert_eq!(pe, 1, "producer signalled after hopping to PE1");
                }
                TraceKind::Fault { .. } => panic!("no faults in this run"),
            }
        }
        assert_eq!(exec_pes.len(), 2, "both PEs executed");
        assert_eq!((transfers, signals), (1, 1));
        assert_eq!(blocks, 1, "the consumer's park must surface as a Block");
    }

    #[test]
    fn metrics_reconcile_with_report_counters() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            1,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("ready")))
                .then(|_| Effect::Done),
        );
        c.inject(
            0,
            Script::new("producer")
                .then(|_| Effect::Hop(1))
                .then(|ctx| {
                    ctx.signal(Key::plain("ready"));
                    Effect::Done
                }),
        );
        let m = RunMetrics::new(2);
        let rep = ThreadExecutor::new()
            .with_metrics(Arc::clone(&m))
            .run(c)
            .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.total("navp_hops_total") as u64, rep.hops);
        assert_eq!(snap.total("navp_hop_bytes_total") as u64, rep.hop_bytes);
        assert_eq!(snap.total("navp_steps_total") as u64, rep.steps);
        assert_eq!(snap.total("navp_injections_total") as u64, 2);
        assert_eq!(snap.total("navp_events_waited_total") as u64, 1);
        assert_eq!(snap.total("navp_events_signaled_total") as u64, 1);
        assert!(snap.total("navp_park_wait_ns_count") >= 1.0);
        assert!(m.park_wait_ns.sum() > 0, "the consumer parked for real time");
        navp_metrics::validate_prometheus(&m.registry.render()).expect("valid exposition");
    }

    #[test]
    fn metered_faulted_run_counts_injected_faults() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c.set_fault_plan(
            FaultPlan::new()
                .crash_pe(1, 2)
                .delay_hop(0, 2, 0.005)
                .with_retry(3, Duration::from_millis(1)),
        );
        let m = RunMetrics::new(2);
        let rep = ThreadExecutor::new()
            .with_metrics(Arc::clone(&m))
            .run(c)
            .unwrap();
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.hops_delayed, 1);
        assert_eq!(
            m.faults.get(),
            rep.faults.crashes + rep.faults.hops_delayed,
            "navp_fault_injections_total reconciles with FaultStats"
        );
        assert!(m.checkpoints.get() >= 1, "delivery points checkpointed");
        assert!(m.journal_commits.get() >= 1);
    }

    #[test]
    fn durable_restore_completes_an_aborted_run_bitwise() {
        let dir = std::env::temp_dir().join(format!("navp-thr-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let build = || {
            let mut c = Cluster::new(2).unwrap();
            c.inject(0, WirePingPong { hops_left: 6 });
            c
        };
        let clean = ThreadExecutor::new().run(build()).unwrap();

        // Abort the durable run mid-computation (checkpointing off, so
        // the injected crash kills the whole run — the in-process
        // analogue of kill -9), then restore from disk and finish.
        let c = build()
            .with_fault_plan(FaultPlan::new().crash_pe(1, 2).without_checkpointing());
        let err = ThreadExecutor::new()
            .with_durable(&dir, Arc::new(ToyCodec))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::PeCrashed { pe: 1, .. }), "{err}");

        let (_, cuts) = durable::read_all_cuts(&dir).unwrap();
        let restored = durable::restore_cluster(&cuts, &ToyCodec).unwrap();
        let rep = ThreadExecutor::new().run(restored).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "restore must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watchdog_is_surfaced_in_report() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Script::new("quick").then(|_| Effect::Done));
        let wd = Duration::from_millis(1234);
        let rep = ThreadExecutor::new().with_watchdog(wd).run(c).unwrap();
        assert_eq!(rep.watchdog, wd);
    }
}
