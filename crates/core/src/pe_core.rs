//! The PE core: one implementation of the MESSENGERS daemon's semantics.
//!
//! All three executors — [`SimExecutor`](crate::SimExecutor), the
//! [`ThreadExecutor`](crate::ThreadExecutor) daemons and the networked
//! `navp-pe` process — run messengers through [`PeCore::run`]. The core
//! is sans-I/O: it owns a PE's node store and does everything that
//! defines a *run* (the non-preemptive span from a delivery until the
//! messenger hops away, parks, or finishes):
//!
//! * the [`Messenger::step`] loop, local injections (ids supplied by the
//!   executor), self-hops and waits on banked events, which continue the
//!   same run;
//! * the fault plan's lost-signal check and the bad-hop check;
//! * hop-byte accounting, every [`RunMetrics`] update, the PE's flight
//!   lane and its wall-clock span recorder;
//! * the run-boundary crash/restart and the per-run journal commit.
//!
//! What differs between executors is only their clock and transport,
//! reached through [`PeIo`]: the simulator charges virtual time and
//! schedules deliveries on its event queue, the thread executor sends
//! over channels, and the net PE sends frames.
//!
//! The fault/checkpoint state lives in [`Recovery`] (one per cluster in
//! process, one per PE process on the net); the counting event service
//! is an [`EventTable`]; a durable spill goes through [`Spill`].

use crate::agent::{Effect, Messenger, MsgrCtx, StepOutputs, WireSnapshot};
use crate::durable::{self, DurableCodec, DurableCut, Manifest, ParkedWaiter};
use crate::error::RunError;
use crate::fault::{FaultPlan, FaultStats, FaultTracker, HopFault};
use crate::recovery::{CheckpointTable, WriteJournal};
use navp_metrics::RunMetrics;
use navp_obs::{EventKind, Lane};
use navp_sim::key::{EventKey, NodeId};
use navp_sim::store::NodeStore;
use navp_sim::VTime;
use navp_trace::recorder::DEFAULT_CAPACITY;
use navp_trace::{PeRecorder, TraceKind};
use std::collections::{HashMap, VecDeque};
use std::ops::DerefMut;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed per-hop state overhead in bytes (thread control block, program
/// counter, daemon bookkeeping) — the paper's "small amount of state data".
pub const HOP_STATE_BYTES: u64 = 256;

/// Flight-recorder `FaultInjected` site codes (the event's `a`
/// operand): which fault mechanism fired.
const FAULT_SITE_DELAY: u64 = 1;
const FAULT_SITE_DROP: u64 = 2;
const FAULT_SITE_CRASH: u64 = 3;

/// Record that a fault-plan injection fired at `site` on PE `pe`.
fn injected(lane: &Lane, pe: NodeId, run: u64, site: u64, detail: u64) {
    lane.record(EventKind::FaultInjected, pe as u32, run, site, detail);
}

/// Record a completed event park of `ns` nanoseconds on PE `pe`.
pub(crate) fn observe_park(metrics: &RunMetrics, pe: NodeId, ns: u64) {
    if let Some(p) = metrics.pe(pe) {
        p.park_ns.add(ns);
    }
    metrics.park_wait_ns.observe(ns);
}

/// How long a faulted hop delivery is held before it lands, as decided
/// by [`Recovery::hop_fault`]. Each executor applies it on its own
/// clock: virtual time in the simulator, a sleep elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HopHold {
    /// Dropped attempts that were retried, each after `backoff`.
    retries: u32,
    /// Backoff before each retry.
    backoff: Duration,
    /// Injected delay of the attempt that got through, in seconds.
    delay: Option<f64>,
}

impl HopHold {
    /// `true` when the delivery is not held at all.
    pub fn is_empty(&self) -> bool {
        self.retries == 0 && self.delay.is_none()
    }

    /// The hold in virtual time: each backoff and the delay are
    /// converted separately, so the sum is exact.
    pub fn virtual_time(&self) -> VTime {
        let backoff = VTime::from_secs_f64(self.backoff.as_secs_f64());
        let delay = self.delay.map_or(VTime::ZERO, VTime::from_secs_f64);
        VTime(backoff.0 * self.retries as u64) + delay
    }

    /// The hold in wall-clock time.
    pub fn wall(&self) -> Duration {
        self.backoff * self.retries + Duration::from_secs_f64(self.delay.unwrap_or(0.0).max(0.0))
    }
}

/// A restarted PE: its rebuilt store and the messengers to re-deliver.
type Restart = (NodeStore, Vec<(u64, Box<dyn Messenger>)>);

/// An event table's part of a durable cut: parked waiters and banked
/// counts.
type EventSection = (Vec<ParkedWaiter>, Vec<(EventKey, u64)>);

/// Fault injection plus checkpoint/restart state: the plan's tracker,
/// the live checkpoint of every messenger, and each hosted PE's
/// pristine store and write journal.
///
/// The simulator and the thread executor keep one for the whole cluster
/// (the thread executor behind a mutex); a net PE process keeps one for
/// itself.
pub struct Recovery {
    tracker: FaultTracker,
    ckpt: CheckpointTable,
    journals: Vec<WriteJournal>,
    /// Pristine pre-run stores; a crashed PE's store is rebuilt as
    /// `initial + journal replay`. Empty for PEs hosted elsewhere.
    initial: Vec<NodeStore>,
    /// Per-PE delivery epoch, bumped on each crash of that PE. Executors
    /// whose deliveries can race a crash stamp them with it.
    pub(crate) epochs: Vec<u64>,
    stats: FaultStats,
    metrics: Option<Arc<RunMetrics>>,
}

impl Recovery {
    /// Recovery state for a `pes`-PE cluster under `plan`, hosting the
    /// PEs `first..first + stores.len()`. Each hosted store is
    /// snapshotted as its crash-rebuild base (copy-on-write, so a
    /// reference bump per entry) and gets write tracking turned on.
    pub fn new(
        plan: FaultPlan,
        pes: usize,
        first: NodeId,
        stores: &mut [NodeStore],
        metrics: Option<Arc<RunMetrics>>,
    ) -> Recovery {
        let mut initial: Vec<NodeStore> = (0..pes).map(|_| NodeStore::new()).collect();
        for (k, s) in stores.iter_mut().enumerate() {
            initial[first + k] = s.clone();
            s.enable_tracking();
        }
        Recovery {
            tracker: FaultTracker::new(plan, pes),
            ckpt: CheckpointTable::new(),
            journals: (0..pes).map(|_| WriteJournal::new()).collect(),
            initial,
            epochs: vec![0; pes],
            stats: FaultStats::default(),
            metrics,
        }
    }

    /// The recovery state an in-process run over `stores` needs, if
    /// any: one exactly when [`FaultPlan::resolve`] yields a plan.
    pub fn for_run(
        plan: Option<FaultPlan>,
        durable: bool,
        stores: &mut [NodeStore],
        metrics: &Option<Arc<RunMetrics>>,
    ) -> Result<Option<Recovery>, RunError> {
        let plan = FaultPlan::resolve(plan, FaultPlan::from_env, durable)?;
        let pes = stores.len();
        Ok(plan.map(|plan| Recovery::new(plan, pes, 0, stores, metrics.clone())))
    }

    /// What the fault machinery did so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        self.tracker.plan()
    }

    /// A delivery point: checkpoint messenger `id` into PE `pe`'s
    /// failure domain.
    pub fn checkpoint(&mut self, id: u64, pe: NodeId, msgr: &dyn Messenger) {
        self.ckpt.register(id, pe, msgr);
        if let Some(m) = &self.metrics {
            m.checkpoints.inc();
            m.checkpoint_bytes.add(msgr.payload_bytes());
        }
    }

    /// Messenger `id` finished, parked in the crash-safe event service,
    /// or left for another process: drop its checkpoint.
    pub fn forget(&mut self, id: u64) {
        self.ckpt.remove(id);
    }

    fn fault(&mut self) {
        if let Some(m) = &self.metrics {
            m.faults.inc();
        }
    }

    /// Does the plan swallow the signal PE `pe` is emitting?
    fn signal_lost(&mut self, pe: NodeId) -> bool {
        let lost = self.tracker.on_signal(pe);
        if lost {
            self.stats.signals_lost += 1;
            self.fault();
        }
        lost
    }

    /// Resolve the fault plan's rules for one hop delivery to `dst`:
    /// dropped attempts are retried after a backoff until the retry
    /// budget runs out, a delayed attempt lands after its delay. Faults
    /// are recorded on `lane` under run namespace `run`.
    pub fn hop_fault(&mut self, dst: NodeId, lane: &Lane, run: u64) -> Result<HopHold, RunError> {
        let mut hold = HopHold {
            backoff: self.plan().retry_backoff,
            ..HopHold::default()
        };
        loop {
            match self.tracker.on_hop(dst) {
                None => return Ok(hold),
                Some(HopFault::Delay { seconds }) => {
                    self.stats.hops_delayed += 1;
                    self.fault();
                    injected(lane, dst, run, FAULT_SITE_DELAY, (seconds * 1e3) as u64);
                    hold.delay = Some(seconds);
                    return Ok(hold);
                }
                Some(HopFault::Drop) => {
                    self.stats.hops_dropped += 1;
                    self.fault();
                    let attempts = hold.retries + 1;
                    injected(lane, dst, run, FAULT_SITE_DROP, attempts as u64);
                    if attempts > self.plan().max_send_retries {
                        return Err(RunError::RecoveryFailed {
                            pe: dst,
                            reason: format!(
                                "hop delivery dropped {attempts} times; retry budget exhausted"
                            ),
                        });
                    }
                    self.stats.send_retries += 1;
                    hold.retries = attempts;
                }
            }
        }
    }

    /// Run boundary on PE `pe`: the only place the plan may crash it.
    /// `Ok(None)` when it survives. On a crash with checkpointing, the
    /// PE restarts: its rebuilt store (`initial + journal replay`) and
    /// every checkpointed messenger of its failure domain (re-checkpointed,
    /// ascending id) are returned for re-delivery.
    fn run_boundary(
        &mut self,
        pe: NodeId,
        lane: &Lane,
        run: u64,
    ) -> Result<Option<Restart>, RunError> {
        let Some(at_run) = self.tracker.on_run(pe) else {
            return Ok(None);
        };
        if !self.plan().checkpointing {
            return Err(RunError::PeCrashed { pe, run: at_run });
        }
        self.stats.crashes += 1;
        self.fault();
        injected(lane, pe, run, FAULT_SITE_CRASH, self.stats.crashes);
        let mut store = self.initial[pe].clone();
        self.stats.replayed_writes += self.journals[pe].replay_into(&mut store);
        store.enable_tracking();
        store.drain_dirty(); // the replay itself is not a new write
        self.epochs[pe] += 1;
        let mut redelivered = Vec::new();
        for (id, label, snap) in self.ckpt.drain_pe(pe) {
            let msgr = snap.ok_or_else(|| RunError::RecoveryFailed {
                pe,
                reason: format!("messenger {label} (id {id}) does not support snapshots"),
            })?;
            self.checkpoint(id, pe, msgr.as_ref());
            self.stats.redelivered += 1;
            redelivered.push((id, msgr));
        }
        Ok(Some((store, redelivered)))
    }

    /// Commit the run that just ended on PE `pe` to its journal (atomic
    /// with respect to crashes, which only fire at run boundaries).
    fn commit(&mut self, pe: NodeId, store: &mut NodeStore) {
        self.journals[pe].commit_dirty(store);
        if let Some(m) = &self.metrics {
            m.journal_commits.inc();
        }
    }
}

/// A messenger parked on an event. `M` is the boxed messenger in
/// process, or its wire snapshot on the net.
pub struct Parked<M> {
    /// The executor's messenger id.
    pub id: u64,
    /// PE the messenger parked on (it resumes there when woken).
    pub origin: NodeId,
    /// Park time on the parking executor's clock (0 when nobody reads it).
    pub parked_ns: u64,
    /// The parked state.
    pub msgr: M,
}

struct Slot<M> {
    count: u64,
    waiters: VecDeque<Parked<M>>,
}

impl<M> Default for Slot<M> {
    fn default() -> Self {
        Slot {
            count: 0,
            waiters: VecDeque::new(),
        }
    }
}

/// The counting event service: MESSENGERS' `signalEvent`/`waitEvent`.
/// Each signal wakes the oldest waiter or banks a count; each wait
/// consumes a banked count or parks. It survives PE crashes.
pub struct EventTable<M> {
    slots: HashMap<EventKey, Slot<M>>,
}

impl<M> Default for EventTable<M> {
    fn default() -> Self {
        EventTable {
            slots: HashMap::new(),
        }
    }
}

impl<M> EventTable<M> {
    /// Bank one signal of `key` (initial events).
    pub fn bank(&mut self, key: EventKey) {
        self.slots.entry(key).or_default().count += 1;
    }

    /// Signal `key`: the woken waiter, or `None` when the count banked.
    pub fn signal(&mut self, key: EventKey) -> Option<Parked<M>> {
        let slot = self.slots.entry(key).or_default();
        let woken = slot.waiters.pop_front();
        if woken.is_none() {
            slot.count += 1;
        }
        woken
    }

    /// Consume a banked count of `key`, if there is one.
    pub fn take_banked(&mut self, key: EventKey) -> bool {
        match self.slots.get_mut(&key) {
            Some(slot) if slot.count > 0 => {
                slot.count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Park a waiter on `key` (behind any earlier ones).
    pub fn park(&mut self, key: EventKey, waiter: Parked<M>) {
        self.slots.entry(key).or_default().waiters.push_back(waiter);
    }

    /// Every parked waiter, in no particular order.
    pub fn waiters(&self) -> impl Iterator<Item = (&EventKey, &Parked<M>)> {
        self.slots
            .iter()
            .flat_map(|(k, s)| s.waiters.iter().map(move |w| (k, w)))
    }
}

/// Parked state that can be written into a durable cut.
pub trait Parkable {
    /// The wire snapshot of the parked messenger.
    fn wire(&self) -> Result<WireSnapshot, RunError>;
}

impl Parkable for Box<dyn Messenger> {
    fn wire(&self) -> Result<WireSnapshot, RunError> {
        self.wire_snapshot()
            .ok_or_else(|| RunError::NotSerializable {
                agent: self.label(),
            })
    }
}

impl Parkable for WireSnapshot {
    fn wire(&self) -> Result<WireSnapshot, RunError> {
        Ok(self.clone())
    }
}

impl<M: Parkable> EventTable<M> {
    /// The table's section of a durable cut: waiters and banked counts
    /// in sorted key order, waiters FIFO within a key.
    fn cut_section(&self) -> Result<EventSection, RunError> {
        let mut keys: Vec<&EventKey> = self.slots.keys().collect();
        keys.sort();
        let (mut waiters, mut counts) = (Vec::new(), Vec::new());
        for key in keys {
            let slot = &self.slots[key];
            if slot.count > 0 {
                counts.push((*key, slot.count));
            }
            for w in &slot.waiters {
                waiters.push(ParkedWaiter {
                    id: w.id,
                    origin: w.origin as u32,
                    key: *key,
                    snap: w.msgr.wire()?,
                });
            }
        }
        Ok((waiters, counts))
    }
}

/// A durable spill target: directory, codec, session nonce, and the
/// monotone boundary counter stamped into each cut.
pub struct Spill {
    /// Directory holding the manifest and the `pe-<k>.ckpt` cuts.
    pub dir: PathBuf,
    /// Store and messenger codec.
    pub codec: Arc<dyn DurableCodec>,
    /// Session nonce (matches the directory's manifest).
    pub nonce: u64,
    /// Spills so far.
    pub boundary: u64,
}

fn spill_err(pe: NodeId, e: durable::DurableError) -> RunError {
    RunError::Transport {
        detail: format!("PE {pe} durable spill: {e}"),
    }
}

impl Spill {
    /// A fresh session in `dir` for a `pes`-PE cluster: writes the
    /// manifest with a new nonce.
    pub fn create(
        dir: PathBuf,
        codec: Arc<dyn DurableCodec>,
        pes: usize,
    ) -> Result<Spill, RunError> {
        let nonce = durable::fresh_nonce();
        durable::write_manifest(&dir, &Manifest { pes, nonce }).map_err(|e| spill_err(0, e))?;
        Ok(Spill {
            dir,
            codec,
            nonce,
            boundary: 0,
        })
    }

    /// PE `pe`'s cut at the next boundary: its committed store, the live
    /// checkpoints of its failure domain and, when given, the event
    /// table's section.
    pub fn cut<M: Parkable>(
        &self,
        rec: &Recovery,
        pe: NodeId,
        events: Option<&EventTable<M>>,
    ) -> Result<DurableCut, RunError> {
        let (waiters, counts) = match events {
            Some(ev) => ev.cut_section()?,
            None => (Vec::new(), Vec::new()),
        };
        let store = durable::committed_store(&rec.initial[pe], &rec.journals[pe]);
        let pes = rec.initial.len();
        durable::build_cut(
            pe,
            pes,
            self.nonce,
            self.boundary,
            &store,
            &rec.ckpt,
            waiters,
            counts,
            self.codec.as_ref(),
        )
        .map_err(|e| spill_err(pe, e))
    }

    /// Write `cut` atomically and count it.
    pub fn write(
        &self,
        rec: &Recovery,
        cut: &DurableCut,
        lane: &Lane,
        run: u64,
    ) -> Result<(), RunError> {
        let bytes =
            durable::write_cut(&self.dir, cut).map_err(|e| spill_err(cut.pe as usize, e))?;
        if let Some(m) = &rec.metrics {
            m.durable_flushes.inc();
            m.durable_bytes.add(bytes);
        }
        lane.record(EventKind::CheckpointCut, cut.pe, run, cut.boundary, bytes);
        Ok(())
    }

    /// Spill the whole in-process cluster's consistent cut at a run
    /// boundary, where the recovery invariants hold: every committed
    /// store is `initial + journal`, every live messenger is in the
    /// checkpoint table, and the event table holds the parked waiters.
    /// The event section rides in PE 0's cut (restore replays every
    /// cut's events, and each waiter records its own origin).
    pub fn spill_all<M: Parkable>(
        &mut self,
        rec: &Recovery,
        events: &EventTable<M>,
        lane: &Lane,
    ) -> Result<(), RunError> {
        self.boundary += 1;
        for pe in 0..rec.initial.len() {
            let cut = self.cut(rec, pe, (pe == 0).then_some(events))?;
            self.write(rec, &cut, lane, 0)?;
        }
        Ok(())
    }
}

/// The clock and transport a [`PeCore`] runs on. Each method is called
/// from inside [`PeCore::run`] at a fixed point of the daemon loop.
pub trait PeIo {
    /// The fault/checkpoint state, when the run has one. Borrowed only
    /// briefly: the core never holds it across another `PeIo` call.
    fn recovery(&mut self) -> Option<impl DerefMut<Target = Recovery> + '_>;

    /// Messenger `id` just took a step with these outputs, on this
    /// store. The simulator charges virtual time here.
    fn stepped(&mut self, id: u64, out: &StepOutputs, store: &NodeStore, msgr: &dyn Messenger) {
        let _ = (id, out, store, msgr);
    }

    /// A fresh executor-wide id for a local injection.
    fn next_id(&mut self) -> u64;

    /// A local injection (already checkpointed) becomes runnable here.
    fn inject(&mut self, id: u64, msgr: Box<dyn Messenger>);

    /// Route a signal emitted by messenger `id` to the event service.
    fn signal(&mut self, id: u64, key: EventKey) -> Result<(), RunError>;

    /// Messenger `id` waits on `key`: consume a banked count and hand
    /// the messenger back (the run continues), or park it, stamped
    /// `parked_ns`, and return `None`. Parking also drops the
    /// messenger's checkpoint — parked state is held by the event
    /// service, which survives PE crashes — atomically with the park: a
    /// signal that wakes and re-checkpoints the waiter must not be able
    /// to run in between.
    fn wait(
        &mut self,
        id: u64,
        key: EventKey,
        msgr: Box<dyn Messenger>,
        parked_ns: u64,
    ) -> Result<Option<Box<dyn Messenger>>, RunError>;

    /// Send messenger `id` (carrying `bytes`, left at `sent_ns` on the
    /// span clock) to PE `dst`.
    fn hop(
        &mut self,
        id: u64,
        dst: NodeId,
        bytes: u64,
        sent_ns: u64,
        msgr: Box<dyn Messenger>,
    ) -> Result<(), RunError>;

    /// Messenger `id` finished.
    fn done(&mut self, id: u64) {
        let _ = id;
    }

    /// The PE crashed and restarted: drop the local runnable queue and
    /// re-deliver these checkpointed messengers.
    fn restarted(&mut self, redelivered: Vec<(u64, Box<dyn Messenger>)>);
}

/// How a delivery reached its PE, so the receiving core can record the
/// hop or the event wait it ends ([`PeCore::arrived`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Injected, or re-delivered after a crash.
    Fresh,
    /// A hop from another PE.
    Hop {
        /// Sending PE.
        from: NodeId,
        /// Departure stamp on the sender's span clock.
        sent_ns: u64,
        /// Payload plus [`HOP_STATE_BYTES`].
        bytes: u64,
        /// Arrival stamp on the receiver's span clock (0: when the
        /// receiving core sees it).
        landed_ns: u64,
    },
    /// A woken waiter.
    Wake {
        /// Park stamp on this PE's clock (0: nobody stamped it).
        parked_ns: u64,
    },
}

/// Running totals of one PE's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Messenger steps executed.
    pub steps: u64,
    /// Inter-PE hops sent.
    pub hops: u64,
    /// Bytes those hops carried (payload plus [`HOP_STATE_BYTES`] each).
    pub hop_bytes: u64,
    /// Agent payload bytes those hops carried.
    pub hop_payload: u64,
    /// Messengers injected locally during runs.
    pub spawned: u64,
    /// Messengers that finished here.
    pub finished: u64,
}

/// One PE: its node store, its slice of the metric set, its flight lane
/// and span recorder, and the run loop.
pub struct PeCore {
    pe: NodeId,
    pes: usize,
    /// This PE's node-variable store.
    pub store: NodeStore,
    /// Run-id namespace stamped into flight events (0 in process).
    run: u64,
    lane: Arc<Lane>,
    metrics: Option<Arc<RunMetrics>>,
    recorder: PeRecorder,
    /// Park-time clock for metered-but-untraced runs; also the
    /// recorder's anchor.
    anchor: Instant,
    out: StepOutputs,
    /// What this PE has done so far.
    pub tally: Tally,
}

impl PeCore {
    /// PE `pe` of `pes`, owning `store`; flight events go to `lane`,
    /// metrics (when on) into this PE's slot of `metrics`. Spans are off
    /// and the run namespace is 0 until set.
    pub fn new(
        pe: NodeId,
        pes: usize,
        store: NodeStore,
        lane: Arc<Lane>,
        metrics: Option<Arc<RunMetrics>>,
    ) -> PeCore {
        let anchor = Instant::now();
        PeCore {
            pe,
            pes,
            store,
            run: 0,
            lane,
            metrics,
            recorder: PeRecorder::with_anchor(anchor, false, DEFAULT_CAPACITY),
            anchor,
            out: StepOutputs::default(),
            tally: Tally::default(),
        }
    }

    /// Record spans iff `trace`, on the clock anchored at `anchor`.
    pub fn with_trace(mut self, anchor: Instant, trace: bool) -> PeCore {
        self.anchor = anchor;
        self.recorder = PeRecorder::with_anchor(anchor, trace, DEFAULT_CAPACITY);
        self
    }

    /// Stamp flight events with run namespace `run`.
    pub fn with_run(mut self, run: u64) -> PeCore {
        self.run = run;
        self
    }

    /// This PE's index.
    pub fn pe(&self) -> NodeId {
        self.pe
    }

    /// This PE's flight lane.
    pub fn lane(&self) -> &Arc<Lane> {
        &self.lane
    }

    /// This PE's span recorder.
    pub fn recorder(&mut self) -> &mut PeRecorder {
        &mut self.recorder
    }

    /// Give up the store and recorder at the end of a run.
    pub fn into_parts(self) -> (NodeStore, PeRecorder) {
        (self.store, self.recorder)
    }

    /// Record a flight event of this PE's run.
    fn flight(&self, kind: EventKind, a: u64, b: u64) {
        self.lane.record(kind, self.pe as u32, self.run, a, b);
    }

    fn pe_metrics(&self) -> Option<&navp_metrics::PeMetrics> {
        self.metrics.as_ref().and_then(|m| m.pe(self.pe))
    }

    /// Publish the length of this PE's runnable queue.
    pub fn note_queue_depth(&self, depth: usize) {
        if let Some(p) = self.pe_metrics() {
            p.queue_depth.set(depth as i64);
        }
    }

    /// Admit messenger `id`, injected before the run starts: a delivery
    /// point on this PE.
    pub fn admit(&mut self, rec: Option<&mut Recovery>, id: u64, msgr: &dyn Messenger) {
        if let Some(r) = rec {
            r.checkpoint(id, self.pe, msgr);
        }
        if let Some(p) = self.pe_metrics() {
            p.injections.inc();
        }
    }

    /// Park-time clock: the recorder's when tracing (so spans and
    /// metrics agree), the anchor when only metered, 0 otherwise.
    fn clock_ns(&self) -> u64 {
        if self.recorder.is_enabled() {
            self.recorder.now_ns()
        } else if self.metrics.is_some() {
            self.anchor.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Messenger `id` was delivered here `via` a hop or a wake-up:
    /// record the transfer or the event wait that delivery ends.
    pub fn arrived(&mut self, id: u64, via: &Arrival, msgr: &dyn Messenger) {
        match *via {
            Arrival::Fresh | Arrival::Wake { parked_ns: 0 } => {}
            Arrival::Hop {
                from,
                sent_ns,
                bytes,
                landed_ns,
            } => {
                self.flight(EventKind::HopRecv, from as u64, bytes);
                if self.recorder.is_enabled() {
                    let end = match landed_ns {
                        0 => self.recorder.now_ns(),
                        t => t,
                    };
                    let kind = TraceKind::Transfer {
                        from,
                        to: self.pe,
                        bytes,
                    };
                    self.recorder.record(sent_ns, end, id, &msgr.label(), kind);
                }
            }
            Arrival::Wake { parked_ns } => {
                let now = self.clock_ns();
                if self.recorder.is_enabled() {
                    let kind = TraceKind::Block { pe: self.pe };
                    self.recorder
                        .record(parked_ns, now, id, &msgr.label(), kind);
                }
                if let Some(m) = &self.metrics {
                    observe_park(m, self.pe, now.saturating_sub(parked_ns));
                }
            }
        }
    }

    /// Close the run's Exec span; returns the end stamp.
    fn end_exec(&mut self, start: u64, id: u64, label: &str) -> u64 {
        let now = self.recorder.now_ns();
        if self.recorder.is_enabled() {
            self.recorder
                .record(start, now, id, label, TraceKind::Exec { pe: self.pe });
        }
        now
    }

    /// One run of messenger `id`, delivered here: the run-boundary crash
    /// check, then steps until it hops away, parks, or finishes, then
    /// the journal commit. Returns `false` when a crash consumed the
    /// delivery instead (its checkpoint was re-delivered).
    pub fn run(
        &mut self,
        io: &mut impl PeIo,
        id: u64,
        mut msgr: Box<dyn Messenger>,
    ) -> Result<bool, RunError> {
        let restart = match io.recovery() {
            Some(mut r) => r.run_boundary(self.pe, &self.lane, self.run)?,
            None => None,
        };
        if let Some((store, redelivered)) = restart {
            self.store = store;
            self.recorder
                .instant(u64::MAX, "crash", TraceKind::Fault { pe: self.pe });
            io.restarted(redelivered);
            return Ok(false);
        }

        // One Exec span per run; self-hops and banked waits extend it.
        let pe = self.pe;
        let label = if self.recorder.is_enabled() {
            msgr.label()
        } else {
            String::new()
        };
        let exec_start = self.recorder.now_ns();
        let metrics = self.metrics.clone();
        let pm = metrics.as_ref().and_then(|m| m.pe(pe));
        loop {
            self.out.clear();
            let effect = {
                let mut ctx = MsgrCtx::new(pe, self.pes, &mut self.store, &mut self.out);
                msgr.step(&mut ctx)
            };
            self.tally.steps += 1;
            if let Some(p) = pm {
                p.steps.inc();
            }
            io.stepped(id, &self.out, &self.store, msgr.as_ref());

            for inj in self.out.injections.drain(..) {
                let inj_id = io.next_id();
                if let Some(mut r) = io.recovery() {
                    r.checkpoint(inj_id, pe, inj.as_ref());
                }
                if let Some(p) = pm {
                    p.injections.inc();
                }
                self.tally.spawned += 1;
                io.inject(inj_id, inj);
            }
            for key in self.out.signals.drain(..) {
                if io.recovery().is_some_and(|mut r| r.signal_lost(pe)) {
                    continue;
                }
                io.signal(id, key)?;
                if let Some(p) = pm {
                    p.signals.inc();
                }
                self.lane
                    .record(EventKind::Signal, pe as u32, self.run, id, 0);
                self.recorder.instant(id, &label, TraceKind::Signal { pe });
            }

            match effect {
                Effect::Hop(dst) if dst == pe => continue,
                Effect::Hop(dst) => {
                    if dst >= self.pes {
                        return Err(RunError::BadHop {
                            agent: msgr.label(),
                            dst,
                            pes: self.pes,
                        });
                    }
                    let payload = msgr.payload_bytes();
                    let bytes = payload + HOP_STATE_BYTES;
                    self.tally.hops += 1;
                    self.tally.hop_bytes += bytes;
                    self.tally.hop_payload += payload;
                    if let Some(m) = &metrics {
                        if let Some(p) = pm {
                            p.hops.inc();
                            p.hop_bytes.add(bytes);
                        }
                        m.hop_payload_bytes.observe(payload);
                    }
                    self.flight(EventKind::HopSend, dst as u64, bytes);
                    let sent_ns = self.end_exec(exec_start, id, &label);
                    io.hop(id, dst, bytes, sent_ns, msgr)?;
                    break;
                }
                Effect::WaitEvent(key) => {
                    let parked_ns = self.clock_ns();
                    if let Some(m) = io.wait(id, key, msgr, parked_ns)? {
                        msgr = m;
                        continue;
                    }
                    self.end_exec(exec_start, id, &label);
                    if let Some(p) = pm {
                        p.waits.inc();
                    }
                    break;
                }
                Effect::Done => {
                    self.end_exec(exec_start, id, &label);
                    if let Some(mut r) = io.recovery() {
                        r.forget(id);
                    }
                    self.tally.finished += 1;
                    io.done(id);
                    break;
                }
            }
        }
        if let Some(mut r) = io.recovery() {
            r.commit(pe, &mut self.store);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_sim::Key;

    /// Parks on its first step.
    #[derive(Clone)]
    struct Waiter;
    impl Messenger for Waiter {
        fn step(&mut self, _ctx: &mut MsgrCtx<'_>) -> Effect {
            Effect::WaitEvent(Key::plain("go"))
        }
        fn label(&self) -> String {
            "waiter".to_string()
        }
        fn snapshot(&self) -> Option<Box<dyn Messenger>> {
            Some(Box::new(self.clone()))
        }
    }

    /// A transport whose `wait` parks the messenger (dropping its
    /// checkpoint, as the contract says) and is then overtaken by a
    /// signal from another daemon, which wakes the waiter and
    /// re-checkpoints it before `wait` even returns.
    struct RacingSignal {
        rec: Recovery,
        woken: Vec<(u64, Box<dyn Messenger>)>,
    }

    impl PeIo for RacingSignal {
        fn recovery(&mut self) -> Option<impl DerefMut<Target = Recovery> + '_> {
            Some(&mut self.rec)
        }
        fn next_id(&mut self) -> u64 {
            unreachable!("no injections")
        }
        fn inject(&mut self, _id: u64, _msgr: Box<dyn Messenger>) {
            unreachable!("no injections")
        }
        fn signal(&mut self, _id: u64, _key: EventKey) -> Result<(), RunError> {
            unreachable!("no signals")
        }
        fn wait(
            &mut self,
            id: u64,
            _key: EventKey,
            msgr: Box<dyn Messenger>,
            _parked_ns: u64,
        ) -> Result<Option<Box<dyn Messenger>>, RunError> {
            self.rec.forget(id);
            // The racing signal: waking is a delivery point.
            self.rec.checkpoint(id, 0, msgr.as_ref());
            self.woken.push((id, msgr));
            Ok(None)
        }
        fn hop(
            &mut self,
            _id: u64,
            _dst: NodeId,
            _bytes: u64,
            _sent_ns: u64,
            _msgr: Box<dyn Messenger>,
        ) -> Result<(), RunError> {
            unreachable!("no hops")
        }
        fn restarted(&mut self, _redelivered: Vec<(u64, Box<dyn Messenger>)>) {
            unreachable!("no crashes")
        }
    }

    #[test]
    fn woken_waiters_checkpoint_survives_the_park() {
        let mut stores = vec![NodeStore::new()];
        let rec = Recovery::new(FaultPlan::new(), 1, 0, &mut stores, None);
        let lane = navp_obs::flight().lane("pe-core-test");
        let mut core = PeCore::new(0, 1, stores.pop().unwrap(), lane, None);
        let mut io = RacingSignal {
            rec,
            woken: Vec::new(),
        };
        core.admit(Some(&mut io.rec), 7, &Waiter);
        assert!(core.run(&mut io, 7, Box::new(Waiter)).unwrap());
        assert_eq!(io.woken.len(), 1, "the waiter parked and was woken");
        let ids: Vec<u64> = io.rec.ckpt.iter_ordered().map(|(id, ..)| id).collect();
        assert_eq!(
            ids,
            vec![7],
            "the woken waiter's fresh checkpoint must survive the park, \
             or a crash of its PE loses it"
        );
    }
}
