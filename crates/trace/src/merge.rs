//! Deriving one trace from per-PE flight events.
//!
//! A traced run's cores record flight events ([`FlightEvent`]) into one
//! run lane per PE, each stamped with the recording process's flight
//! clock. Every event is a span, so turning one into a [`TraceEvent`]
//! is 1:1 — no send/receive or park/wake pairing:
//!
//! | flight event | trace record |
//! |---|---|
//! | `Exec` | `Exec { pe }`, delivery → departure |
//! | `HopRecv` | `Transfer { from: a, to: pe, bytes: b }`, send → arrival |
//! | `Block` | `Block { pe }`, park → wake |
//! | `Signal` | `Signal { pe }` (instant) |
//! | `FaultInjected` at the crash site | `Fault { pe }` (instant) |
//!
//! Other kinds (`HopSend`, checkpoint cuts, hop delays and drops) stay
//! in the flight record only.
//!
//! The executor measures, per PE, a signed offset that maps that PE's
//! flight clock onto the coordinator's timeline (Cristian's algorithm
//! over the collect round-trip for the net executor; zero for
//! in-process threads, which share one process clock). The merge
//! applies the offsets, normalizes the earliest instant to t=0, and
//! emits a sorted [`Trace`] that the sim's renderer and statistics
//! consume unchanged.
//!
//! Transfers are the one subtle case: the *receiving* PE records the
//! span, but its start is the **sender's** stamp (it travels with the
//! hop). So a Transfer start is corrected with the sender's offset and
//! its end with the receiver's; residual skew that would make a hop
//! look acausal is clamped to a zero-length span rather than a
//! negative one.

use navp_obs::{EventKind, FlightEvent, LaneSnapshot, FAULT_SITE_CRASH};
use navp_sim::trace::{Trace, TraceEvent, TraceKind};
use navp_sim::VTime;
use std::collections::HashMap;

/// One PE's collected log: its run lane, the labels of the messengers
/// delivered there, and the signed nanosecond offset mapping its flight
/// clock into the coordinator timeline.
#[derive(Debug, Clone, Default)]
pub struct PeLog {
    /// PE that recorded these events.
    pub pe: usize,
    /// Add this to the PE's flight stamps to get coordinator time.
    pub offset_ns: i64,
    /// The PE's run lane: events in recording order and how many the
    /// ring dropped (the trace is incomplete when nonzero).
    pub lane: LaneSnapshot,
    /// `(id, label)` of each messenger, taken at its first delivery on
    /// this PE.
    pub labels: Vec<(u64, String)>,
}

/// The trace record of one flight event, or `None` for kinds that stay
/// in the flight record only.
fn trace_kind(ev: &FlightEvent) -> Option<TraceKind> {
    let pe = ev.pe as usize;
    Some(match EventKind::from_u8(ev.kind)? {
        EventKind::Exec => TraceKind::Exec { pe },
        EventKind::HopRecv => TraceKind::Transfer {
            from: ev.a as usize,
            to: pe,
            bytes: ev.b,
        },
        EventKind::Block => TraceKind::Block { pe },
        EventKind::Signal => TraceKind::Signal { pe },
        EventKind::FaultInjected if ev.a == FAULT_SITE_CRASH => TraceKind::Fault { pe },
        _ => return None,
    })
}

/// Merge per-PE logs into one normalized [`Trace`]. Returns the trace
/// and the total number of events dropped across all PEs.
pub fn merge_pe_traces(logs: Vec<PeLog>) -> (Trace, u64) {
    let offsets: HashMap<usize, i64> = logs.iter().map(|l| (l.pe, l.offset_ns)).collect();
    let mut dropped = 0u64;
    // Work in i128 so offset application can't wrap; normalize after.
    let mut staged: Vec<(i128, i128, TraceEvent)> = Vec::new();
    for log in logs {
        dropped += log.lane.dropped;
        let own = log.offset_ns as i128;
        let labels: HashMap<u64, String> = log.labels.into_iter().collect();
        for ev in &log.lane.events {
            let Some(kind) = trace_kind(ev) else { continue };
            let (actor, label) = match kind {
                TraceKind::Fault { .. } => (u64::MAX, "crash".to_string()),
                _ => (ev.id, labels.get(&ev.id).cloned().unwrap_or_default()),
            };
            let start_off = match kind {
                // Transfer starts are stamped by the *sender's* clock.
                TraceKind::Transfer { from, .. } => {
                    offsets.get(&from).map(|o| *o as i128).unwrap_or(own)
                }
                _ => own,
            };
            let s = ev.t0_ns as i128 + start_off;
            let e = (ev.t_ns as i128 + own).max(s);
            let rec = TraceEvent {
                start: VTime::ZERO,
                end: VTime::ZERO,
                actor,
                label,
                kind,
            };
            staged.push((s, e, rec));
        }
    }
    if staged.is_empty() {
        return (Trace::enabled(), dropped);
    }
    let t0 = staged.iter().map(|(s, _, _)| *s).min().unwrap_or(0);
    staged.sort_by(|a, b| {
        (a.0, a.1, a.2.actor)
            .cmp(&(b.0, b.1, b.2.actor))
            .then_with(|| kind_rank(&a.2.kind).cmp(&kind_rank(&b.2.kind)))
    });
    let mut trace = Trace::enabled();
    for (s, e, mut ev) in staged {
        ev.start = VTime((s - t0).max(0) as u64);
        ev.end = VTime((e - t0).max(0) as u64);
        trace.push(ev);
    }
    (trace, dropped)
}

fn kind_rank(k: &TraceKind) -> u8 {
    match k {
        TraceKind::Exec { .. } => 0,
        TraceKind::Transfer { .. } => 1,
        TraceKind::Block { .. } => 2,
        TraceKind::Signal { .. } => 3,
        TraceKind::Fault { .. } => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t0: u64, t: u64, id: u64, kind: EventKind, pe: u32, a: u64, b: u64) -> FlightEvent {
        FlightEvent {
            t0_ns: t0,
            t_ns: t,
            kind: kind as u8,
            pe,
            run: 0,
            id,
            a,
            b,
        }
    }

    fn exec(t0: u64, t: u64, id: u64, pe: u32) -> FlightEvent {
        ev(t0, t, id, EventKind::Exec, pe, 0, 0)
    }

    fn log(pe: usize, offset_ns: i64, events: Vec<FlightEvent>, dropped: u64) -> PeLog {
        PeLog {
            pe,
            offset_ns,
            lane: LaneSnapshot {
                name: format!("pe{pe}.trace"),
                events,
                dropped,
            },
            labels: vec![(1, "M".into()), (2, "M".into()), (7, "M".into())],
        }
    }

    #[test]
    fn offsets_align_two_pe_clocks() {
        // PE0's clock is 1000ns behind the coordinator, PE1's 500 ahead.
        let logs = vec![
            log(0, 1000, vec![exec(0, 100, 1, 0)], 0),
            log(1, -500, vec![exec(1600, 1700, 2, 1)], 3),
        ];
        let (trace, dropped) = merge_pe_traces(logs);
        assert_eq!(dropped, 3);
        let evs = trace.events();
        assert_eq!(evs.len(), 2);
        // PE0: 0+1000=1000 → normalized 0. PE1: 1600-500=1100 → 100.
        assert_eq!(evs[0].start, VTime(0));
        assert_eq!(evs[0].end, VTime(100));
        assert_eq!(evs[1].start, VTime(100));
        assert_eq!(evs[1].end, VTime(200));
        assert_eq!(evs[1].label, "M", "labels come from the recording PE");
    }

    #[test]
    fn transfer_start_uses_sender_offset() {
        // Receiver PE1 records a hop from PE0; start is on PE0's clock.
        let hop = ev(100, 250, 7, EventKind::HopRecv, 1, 0, 64);
        let logs = vec![
            log(0, 0, vec![exec(0, 100, 7, 0)], 0),
            log(1, -50, vec![hop], 0),
        ];
        let (trace, _) = merge_pe_traces(logs);
        let t = trace
            .events()
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Transfer { .. }))
            .unwrap();
        assert_eq!(
            t.kind,
            TraceKind::Transfer {
                from: 0,
                to: 1,
                bytes: 64
            }
        );
        // start: 100 + offset[0]=0 → 100; end: 250 + offset[1]=-50 → 200.
        assert_eq!(t.start, VTime(100));
        assert_eq!(t.end, VTime(200));
    }

    #[test]
    fn acausal_skew_clamps_to_zero_length() {
        // Offsets so wrong the hop would end before it starts.
        let hop = ev(100, 110, 7, EventKind::HopRecv, 1, 0, 8);
        let logs = vec![log(0, 10_000, vec![], 0), log(1, 0, vec![hop], 0)];
        let (trace, _) = merge_pe_traces(logs);
        let t = &trace.events()[0];
        assert_eq!(t.start, t.end, "clamped, not negative");
    }

    #[test]
    fn empty_merge_is_an_empty_enabled_trace() {
        let (trace, dropped) = merge_pe_traces(vec![]);
        assert!(trace.events().is_empty());
        assert_eq!(dropped, 0);
        // Must still accept pushes (it is the executors' output type).
        assert_eq!(trace.makespan(), VTime::ZERO);
    }

    #[test]
    fn merge_sorts_by_corrected_start() {
        let logs = vec![log(0, 0, vec![exec(500, 600, 2, 0), exec(0, 100, 1, 0)], 0)];
        let (trace, _) = merge_pe_traces(logs);
        assert!(trace.events()[0].start <= trace.events()[1].start);
        assert_eq!(trace.events()[0].actor, 1);
    }

    #[test]
    fn each_event_maps_to_one_record_and_flight_only_kinds_are_skipped() {
        let crash = ev(40, 40, 0, EventKind::FaultInjected, 0, FAULT_SITE_CRASH, 1);
        let events = vec![
            exec(0, 10, 1, 0),
            ev(10, 10, 1, EventKind::HopSend, 0, 1, 64),
            ev(12, 30, 2, EventKind::Block, 0, 0, 0),
            ev(31, 31, 2, EventKind::Signal, 0, 0, 0),
            ev(35, 35, 0, EventKind::FaultInjected, 0, 1, 5), // a hop delay
            crash,
            ev(50, 50, 0, EventKind::CheckpointCut, 0, 1, 900),
        ];
        let (trace, _) = merge_pe_traces(vec![log(0, 0, events, 0)]);
        let kinds: Vec<&TraceKind> = trace.events().iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &TraceKind::Exec { pe: 0 },
                &TraceKind::Block { pe: 0 },
                &TraceKind::Signal { pe: 0 },
                &TraceKind::Fault { pe: 0 },
            ]
        );
        let fault = trace.events().last().unwrap();
        assert_eq!((fault.actor, fault.label.as_str()), (u64::MAX, "crash"));
        assert_eq!(trace.events()[1].end, VTime(30), "a block spans park to wake");
    }
}
