//! The flight recorder proper: named, lock-free ring buffers of
//! compact structured events.
//!
//! Every hot-path subsystem (PE executors, the net I/O loop, the serve
//! scheduler) owns a *lane* — a fixed-capacity ring of [`FlightEvent`]
//! slots. Recording is wait-free: one `fetch_add` claims a slot index
//! and eight relaxed stores fill it, with a sequence stamp written last
//! (release) so a concurrent snapshot can detect and skip torn slots.
//! Nothing on the record path allocates or locks, which is what makes
//! it cheap enough to leave on by default.
//!
//! An event is a span: it carries a start and an end stamp, equal for
//! an instant. Every stamp is [`Flight::now_ns`], the one clock of the
//! process.
//!
//! The recorder is **on by default**; `NAVP_FLIGHT=0` (or `off`/
//! `false`) disables it, turning [`Lane::record`] into a single
//! relaxed load and a branch. `NAVP_FLIGHT_CAP` overrides the per-lane
//! capacity (default 4096 events, rounded up to a power of two).
//!
//! A traced run records into its own *run lanes* ([`Flight::run_lane`]):
//! fresh lanes that record whether or not the recorder is enabled, and
//! leave the registry when the run drops them. Tracing thus changes how
//! long a run's events are kept, not what is recorded.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Default events retained per lane. Each slot is 64 bytes, so a lane
/// is 256 KiB — small enough that every PE daemon carries one.
pub const DEFAULT_LANE_CAP: usize = 4096;

/// `FaultInjected` site codes (the event's `a` operand): which fault
/// mechanism fired.
pub const FAULT_SITE_DELAY: u64 = 1;
/// A hop delivery attempt was dropped.
pub const FAULT_SITE_DROP: u64 = 2;
/// A PE crashed at a run boundary and restarted.
pub const FAULT_SITE_CRASH: u64 = 3;

/// What happened. Encoded as a single byte on the wire; the numeric
/// values are part of the postmortem format and must never be reused.
/// `id` is the messenger an event belongs to (0 when none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A messenger hop was sent (`a` = destination PE, `b` = bytes).
    HopSend = 1,
    /// A messenger hop landed, spanning departure (on the sender's
    /// clock) to arrival (`a` = source PE, `b` = bytes).
    HopRecv = 2,
    /// A synchronization signal fired.
    Signal = 3,
    /// A durable checkpoint cut committed (`a` = boundary, `b` = bytes).
    CheckpointCut = 4,
    /// A fault-plan injection triggered (`a` = site code, see
    /// [`FAULT_SITE_CRASH`]; `b` = detail).
    FaultInjected = 5,
    /// The net I/O loop flushed a connection (`a` = bytes written).
    NetFlush = 6,
    /// A sender blocked on the backpressure cap (`a` = queued bytes).
    Backpressure = 7,
    /// The scheduler admitted a job (`a` = priority).
    JobAdmit = 8,
    /// A worker started driving a job (`a` = queue age in ms).
    JobStart = 9,
    /// A job reached a terminal state (`a` = state code, `b` = wall ms).
    JobFinish = 10,
    /// A run began on this process (`a` = PE count).
    RunStart = 11,
    /// A run ended (`a` = 0 ok / 1 error).
    RunEnd = 12,
    /// A messenger ran on a PE, from delivery until it hopped away,
    /// parked or finished.
    Exec = 13,
    /// A messenger waited on an event, from park until wake.
    Block = 14,
}

impl EventKind {
    /// Every kind, in wire-byte order.
    pub const ALL: [EventKind; 14] = [
        EventKind::HopSend,
        EventKind::HopRecv,
        EventKind::Signal,
        EventKind::CheckpointCut,
        EventKind::FaultInjected,
        EventKind::NetFlush,
        EventKind::Backpressure,
        EventKind::JobAdmit,
        EventKind::JobStart,
        EventKind::JobFinish,
        EventKind::RunStart,
        EventKind::RunEnd,
        EventKind::Exec,
        EventKind::Block,
    ];

    /// Stable lowercase name (postmortem rendering, `/debug/flight`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::HopSend => "hop_send",
            EventKind::HopRecv => "hop_recv",
            EventKind::Signal => "signal",
            EventKind::CheckpointCut => "checkpoint_cut",
            EventKind::FaultInjected => "fault_injected",
            EventKind::NetFlush => "net_flush",
            EventKind::Backpressure => "backpressure",
            EventKind::JobAdmit => "job_admit",
            EventKind::JobStart => "job_start",
            EventKind::JobFinish => "job_finish",
            EventKind::RunStart => "run_start",
            EventKind::RunEnd => "run_end",
            EventKind::Exec => "exec",
            EventKind::Block => "block",
        }
    }

    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<EventKind> {
        EventKind::ALL.get((b as usize).checked_sub(1)?).copied()
    }
}

/// One recorded event: a span from `t0_ns` to `t_ns` (equal for an
/// instant), both nanoseconds since this process's flight anchor (a
/// monotonic `Instant`, never wall time); `run` is the run-id
/// namespace the event belongs to (0 = anonymous); `id` is the
/// messenger; `a`/`b` are kind-specific operands documented on
/// [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Start of the span, nanoseconds since the flight anchor (the
    /// sender's anchor for a `HopRecv`).
    pub t0_ns: u64,
    /// End of the span (the event's time, for an instant).
    pub t_ns: u64,
    /// [`EventKind`] as its wire byte.
    pub kind: u8,
    /// PE index the event happened on (or 0 for process-wide lanes).
    pub pe: u32,
    /// Run-id namespace (= job id through navp-serve; 0 = anonymous).
    pub run: u64,
    /// Messenger id (0 when the event belongs to none).
    pub id: u64,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

/// One ring slot: eight words, aligned to fill one 64-byte cache line,
/// so recording an event touches one line. `stamp` is `index + 1` once
/// the slot's payload is fully written for that index (0 = never
/// written / in progress), so readers can detect slots torn by a
/// concurrent writer.
#[repr(align(64))]
struct Slot {
    stamp: AtomicU64,
    t0: AtomicU64,
    t: AtomicU64,
    kindpe: AtomicU64,
    run: AtomicU64,
    id: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        let z = || AtomicU64::new(0);
        Slot {
            stamp: z(),
            t0: z(),
            t: z(),
            kindpe: z(),
            run: z(),
            id: z(),
            a: z(),
            b: z(),
        }
    }
}

/// A named ring of [`FlightEvent`]s. Writers are wait-free and may be
/// many; snapshots are lock-free and non-destructive.
pub struct Lane {
    name: String,
    head: AtomicU64,
    cap: u64,
    /// A run lane: records even while the recorder is disabled.
    run_lane: bool,
    slots: Box<[Slot]>,
}

/// A consistent-enough copy of one lane: the most recent events in
/// record order, plus how many were lost (overwritten by wraparound or
/// torn by a concurrent writer during the snapshot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Lane name (e.g. `pe3`, `netloop`, `sched`).
    pub name: String,
    /// Surviving events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events recorded but not present in `events`.
    pub dropped: u64,
}

impl Lane {
    fn new(name: &str, cap: usize, run_lane: bool) -> Lane {
        let cap = cap.max(2).next_power_of_two();
        let slots: Vec<Slot> = (0..cap).map(|_| Slot::empty()).collect();
        Lane {
            name: name.to_string(),
            head: AtomicU64::new(0),
            cap: cap as u64,
            run_lane,
            slots: slots.into_boxed_slice(),
        }
    }

    /// Lane name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total events ever recorded into this lane.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Is this a traced run's lane ([`Flight::run_lane`])?
    pub fn is_run_lane(&self) -> bool {
        self.run_lane
    }

    /// Does [`Lane::put`] keep events right now? Always for a run lane,
    /// else while the recorder is enabled.
    #[inline]
    pub fn on(&self) -> bool {
        self.run_lane || flight().enabled()
    }

    /// Record an instant at the current time. Wait-free; a no-op (one
    /// relaxed load and a branch) when the lane is off.
    #[inline]
    pub fn record(&self, kind: EventKind, pe: u32, run: u64, a: u64, b: u64) {
        if !self.on() {
            return;
        }
        let t = flight().now_ns();
        self.write(&FlightEvent {
            t0_ns: t,
            t_ns: t,
            kind: kind as u8,
            pe,
            run,
            id: 0,
            a,
            b,
        });
    }

    /// Record `ev` as given (its stamps taken by the caller). Wait-free;
    /// a no-op when the lane is off.
    #[inline]
    pub fn put(&self, ev: FlightEvent) {
        if self.on() {
            self.write(&ev);
        }
    }

    fn write(&self, ev: &FlightEvent) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx & (self.cap - 1)) as usize];
        // Invalidate first so a racing reader never stitches an old
        // stamp onto new payload words.
        slot.stamp.store(0, Ordering::Release);
        slot.t0.store(ev.t0_ns, Ordering::Relaxed);
        slot.t.store(ev.t_ns, Ordering::Relaxed);
        slot.kindpe
            .store(((ev.kind as u64) << 32) | ev.pe as u64, Ordering::Relaxed);
        slot.run.store(ev.run, Ordering::Relaxed);
        slot.id.store(ev.id, Ordering::Relaxed);
        slot.a.store(ev.a, Ordering::Relaxed);
        slot.b.store(ev.b, Ordering::Relaxed);
        slot.stamp.store(idx + 1, Ordering::Release);
    }

    /// Copy out the most recent events without disturbing writers.
    /// Slots being concurrently rewritten fail the stamp check and
    /// count as dropped instead of yielding garbage.
    pub fn snapshot(&self) -> LaneSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(self.cap);
        let mut events = Vec::with_capacity((head - lo) as usize);
        let mut torn = 0u64;
        for idx in lo..head {
            let slot = &self.slots[(idx & (self.cap - 1)) as usize];
            if slot.stamp.load(Ordering::Acquire) != idx + 1 {
                torn += 1;
                continue;
            }
            let kindpe = slot.kindpe.load(Ordering::Relaxed);
            let ev = FlightEvent {
                t0_ns: slot.t0.load(Ordering::Relaxed),
                t_ns: slot.t.load(Ordering::Relaxed),
                kind: (kindpe >> 32) as u8,
                pe: kindpe as u32,
                run: slot.run.load(Ordering::Relaxed),
                id: slot.id.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.stamp.load(Ordering::Acquire) != idx + 1 {
                torn += 1;
                continue;
            }
            events.push(ev);
        }
        LaneSnapshot {
            name: self.name.clone(),
            events,
            dropped: lo + torn,
        }
    }
}

/// Events a traced run keeps per PE ([`Flight::run_lane`]).
pub const RUN_LANE_CAP: usize = 65_536;

/// The process-wide flight recorder: a registry of lanes sharing one
/// monotonic time anchor and one enable flag.
pub struct Flight {
    enabled: AtomicBool,
    anchor: Instant,
    cap: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Live run lanes, held weakly: a run lane leaves the registry when
    /// its run drops the last handle.
    run_lanes: Mutex<Vec<Weak<Lane>>>,
}

impl Flight {
    fn from_env() -> Flight {
        let enabled = match std::env::var("NAVP_FLIGHT") {
            Ok(v) => !matches!(v.trim(), "0" | "off" | "false"),
            Err(_) => true,
        };
        let cap = std::env::var("NAVP_FLIGHT_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_LANE_CAP);
        Flight {
            enabled: AtomicBool::new(enabled),
            anchor: Instant::now(),
            cap,
            lanes: Mutex::new(Vec::new()),
            run_lanes: Mutex::new(Vec::new()),
        }
    }

    /// Is recording live?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording at runtime (tests, overhead measurement).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the process flight anchor: the clock of every
    /// event stamp.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Get or create the lane with this name. Registration takes a
    /// mutex, so callers cache the returned `Arc` outside hot paths.
    pub fn lane(&self, name: &str) -> Arc<Lane> {
        let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(l) = lanes.iter().find(|l| l.name == name) {
            return Arc::clone(l);
        }
        let lane = Arc::new(Lane::new(name, self.cap, false));
        lanes.push(Arc::clone(&lane));
        lane
    }

    /// A fresh lane of [`RUN_LANE_CAP`] events for one traced run,
    /// never shared by name. It records even while the recorder is
    /// disabled, appears in [`Flight::snapshot_all`] (so a postmortem
    /// taken mid-run includes it) and leaves the registry once the
    /// last handle to it drops.
    pub fn run_lane(&self, name: &str) -> Arc<Lane> {
        let lane = Arc::new(Lane::new(name, RUN_LANE_CAP, true));
        let mut runs = self.run_lanes.lock().unwrap_or_else(|e| e.into_inner());
        runs.retain(|w| w.strong_count() > 0);
        runs.push(Arc::downgrade(&lane));
        lane
    }

    /// Snapshot every lane: named lanes in registration order, then the
    /// live run lanes.
    pub fn snapshot_all(&self) -> Vec<LaneSnapshot> {
        let mut lanes: Vec<Arc<Lane>> = {
            let guard = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
            guard.iter().map(Arc::clone).collect()
        };
        {
            let mut runs = self.run_lanes.lock().unwrap_or_else(|e| e.into_inner());
            runs.retain(|w| w.strong_count() > 0);
            lanes.extend(runs.iter().filter_map(Weak::upgrade));
        }
        lanes.iter().map(|l| l.snapshot()).collect()
    }
}

static FLIGHT: OnceLock<Flight> = OnceLock::new();

/// The process-wide recorder. First call reads `NAVP_FLIGHT` /
/// `NAVP_FLIGHT_CAP` and pins the time anchor.
pub fn flight() -> &'static Flight {
    FLIGHT.get_or_init(Flight::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests below share the process-global recorder (and its enable
    /// flag), so anything that toggles state takes this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn record_and_snapshot_round_trip() {
        let lane = Lane::new("t0", 64, false);
        // Bypass the global for a hermetic lane test: record directly.
        for i in 0..10u64 {
            let idx = lane.head.fetch_add(1, Ordering::Relaxed);
            let slot = &lane.slots[(idx & (lane.cap - 1)) as usize];
            slot.t.store(i * 100, Ordering::Relaxed);
            slot.kindpe
                .store(((EventKind::HopSend as u64) << 32) | 3, Ordering::Relaxed);
            slot.run.store(7, Ordering::Relaxed);
            slot.a.store(i, Ordering::Relaxed);
            slot.b.store(i * 2, Ordering::Relaxed);
            slot.stamp.store(idx + 1, Ordering::Release);
        }
        let snap = lane.snapshot();
        assert_eq!(snap.events.len(), 10);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events[4].a, 4);
        assert_eq!(snap.events[4].pe, 3);
        assert_eq!(snap.events[4].run, 7);
        assert_eq!(snap.events[4].kind, EventKind::HopSend as u8);
    }

    #[test]
    fn wraparound_counts_overwritten_events_as_dropped() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lane = flight().lane("wrap-test");
        let cap = lane.cap;
        flight().set_enabled(true);
        for i in 0..(cap + 37) {
            lane.record(EventKind::Signal, 0, 0, i, 0);
        }
        let snap = lane.snapshot();
        assert_eq!(snap.events.len() as u64, cap);
        assert_eq!(snap.dropped, 37);
        // Oldest surviving event is the 38th recorded.
        assert_eq!(snap.events[0].a, 37);
        assert_eq!(snap.events.last().unwrap().a, cap + 36);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lane = flight().lane("off-test");
        let was = flight().enabled();
        flight().set_enabled(false);
        lane.record(EventKind::Signal, 0, 0, 1, 2);
        flight().set_enabled(was);
        assert_eq!(lane.snapshot().events.len(), 0);
    }

    #[test]
    fn lanes_are_deduplicated_by_name() {
        let a = flight().lane("dedup-test");
        let b = flight().lane("dedup-test");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn kind_bytes_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
            assert!(!k.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(15), None);
    }

    #[test]
    fn slots_fill_one_cache_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 64);
        assert_eq!(std::mem::align_of::<Slot>(), 64);
    }

    #[test]
    fn spans_keep_both_stamps_and_the_messenger() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lane = flight().run_lane("span-test");
        lane.put(FlightEvent {
            t0_ns: 5,
            t_ns: 9,
            kind: EventKind::Exec as u8,
            pe: 2,
            run: 4,
            id: 77,
            a: 0,
            b: 0,
        });
        let ev = lane.snapshot().events[0];
        assert_eq!((ev.t0_ns, ev.t_ns, ev.id, ev.pe), (5, 9, 77, 2));
    }

    #[test]
    fn run_lanes_record_while_disabled_and_retire_when_dropped() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was = flight().enabled();
        flight().set_enabled(false);
        let lane = flight().run_lane("retire-test");
        lane.record(EventKind::Signal, 0, 0, 1, 2);
        flight().set_enabled(was);
        assert!(lane.is_run_lane());
        assert_eq!(lane.snapshot().events.len(), 1, "a run lane ignores the flag");
        let named = |n: &str| flight().snapshot_all().iter().any(|s| s.name == n);
        assert!(named("retire-test"), "live run lanes are in postmortems");
        drop(lane);
        assert!(!named("retire-test"), "a dropped run lane leaves the registry");
    }

    #[test]
    fn concurrent_writers_never_produce_garbage_kinds() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let lane = flight().lane("race-test");
        flight().set_enabled(true);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let lane = Arc::clone(&lane);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        lane.record(EventKind::HopSend, t, 9, i, i);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            let snap = lane.snapshot();
            for ev in &snap.events {
                assert!(EventKind::from_u8(ev.kind).is_some(), "torn slot leaked");
                assert_eq!(ev.run, 9);
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        let snap = lane.snapshot();
        assert_eq!(snap.events.len() as u64 + snap.dropped, 4 * 5_000);
    }
}
