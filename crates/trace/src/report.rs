//! Derived metrics over a merged wall-clock trace.
//!
//! The paper argues with per-stage timing tables; a [`TraceReport`] is
//! the runtime-generated version of one: where the wall time went
//! (compute vs. waiting), how expensive hops were, and how long the
//! pipeline took to fill. It is computed once, after the run, from the
//! merged [`Trace`] — the hot path only ever appends events.

use navp_sim::trace::{Trace, TraceKind};
use std::collections::BTreeMap;
use std::fmt;

/// Latency distribution summary (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    fn from_samples(mut xs: Vec<f64>) -> LatencyStats {
        if xs.is_empty() {
            return LatencyStats::default();
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| xs[((p * (xs.len() - 1) as f64).round() as usize).min(xs.len() - 1)];
        LatencyStats {
            count: xs.len(),
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: *xs.last().unwrap(),
        }
    }
}

/// One messenger's itinerary through the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Itinerary {
    /// Stable actor id.
    pub actor: u64,
    /// Human label (first one recorded for this actor).
    pub label: String,
    /// Exec spans (messenger activations).
    pub execs: usize,
    /// Inter-PE hops taken.
    pub hops: usize,
    /// Total compute time, seconds.
    pub busy: f64,
    /// Distinct PEs the messenger executed on.
    pub pes_visited: usize,
}

/// Post-run metrics derived from a merged wall-clock [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// PEs the report covers.
    pub pes: usize,
    /// Wall makespan of the traced events, seconds.
    pub makespan: f64,
    /// Compute (Exec) seconds per PE; index = PE.
    pub busy_per_pe: Vec<f64>,
    /// `busy / makespan` per PE; index = PE.
    pub utilization_per_pe: Vec<f64>,
    /// Mean utilization over all PEs.
    pub utilization: f64,
    /// Inter-PE hop latency distribution (Transfer spans).
    pub hop_latency: LatencyStats,
    /// Bytes moved between distinct PEs.
    pub bytes_transferred: u64,
    /// Event-wait (Block) spans: count and total seconds per PE.
    pub waits_per_pe: Vec<(usize, f64)>,
    /// Seconds until *every* PE had started executing — the pipeline
    /// fill time of Figure 1(c)/(d). `None` when some PE never ran.
    pub pipeline_fill: Option<f64>,
    /// Per-messenger itinerary summaries, by actor id.
    pub itineraries: Vec<Itinerary>,
    /// Trace events evicted by the run lanes (report is partial if > 0).
    pub dropped: u64,
}

impl TraceReport {
    /// Compute a report from a merged trace. `dropped` is the total
    /// ring-buffer eviction count from collection.
    pub fn from_trace(trace: &Trace, pes: usize, dropped: u64) -> TraceReport {
        let makespan = trace.makespan().as_secs_f64();
        let busy_per_pe: Vec<f64> = trace
            .busy_per_pe(pes)
            .iter()
            .map(|t| t.as_secs_f64())
            .collect();
        let utilization_per_pe: Vec<f64> = busy_per_pe
            .iter()
            .map(|b| if makespan > 0.0 { b / makespan } else { 0.0 })
            .collect();
        let mut hops = Vec::new();
        let mut waits_per_pe = vec![(0usize, 0.0f64); pes];
        let mut first_exec: Vec<Option<f64>> = vec![None; pes];
        let mut itins: BTreeMap<u64, (String, usize, usize, f64, std::collections::BTreeSet<usize>)> =
            BTreeMap::new();
        for e in trace.events() {
            let span = e.end.saturating_sub(e.start).as_secs_f64();
            match e.kind {
                TraceKind::Exec { pe } => {
                    if pe < pes {
                        let f = &mut first_exec[pe];
                        let s = e.start.as_secs_f64();
                        *f = Some(f.map_or(s, |prev: f64| prev.min(s)));
                    }
                    let ent = itins.entry(e.actor).or_insert_with(|| {
                        (e.label.clone(), 0, 0, 0.0, Default::default())
                    });
                    ent.1 += 1;
                    ent.3 += span;
                    if let TraceKind::Exec { pe } = e.kind {
                        ent.4.insert(pe);
                    }
                }
                TraceKind::Transfer { from, to, .. } if from != to => {
                    hops.push(span);
                    let ent = itins.entry(e.actor).or_insert_with(|| {
                        (e.label.clone(), 0, 0, 0.0, Default::default())
                    });
                    ent.2 += 1;
                }
                TraceKind::Block { pe } if pe < pes => {
                    waits_per_pe[pe].0 += 1;
                    waits_per_pe[pe].1 += span;
                }
                _ => {}
            }
        }
        let pipeline_fill = if pes > 0 && first_exec.iter().all(Option::is_some) {
            first_exec.iter().map(|f| f.unwrap()).fold(0.0f64, f64::max).into()
        } else {
            None
        };
        TraceReport {
            pes,
            makespan,
            utilization: trace.utilization(pes),
            busy_per_pe,
            utilization_per_pe,
            hop_latency: LatencyStats::from_samples(hops),
            bytes_transferred: trace.bytes_transferred(),
            waits_per_pe,
            pipeline_fill,
            itineraries: itins
                .into_iter()
                .map(|(actor, (label, execs, hops, busy, pes))| Itinerary {
                    actor,
                    label,
                    execs,
                    hops,
                    busy,
                    pes_visited: pes.len(),
                })
                .collect(),
            dropped,
        }
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace report: {} PEs, makespan {:.3}ms, utilization {:.1}%{}",
            self.pes,
            ms(self.makespan),
            self.utilization * 100.0,
            if self.dropped > 0 {
                format!(" ({} events dropped — partial)", self.dropped)
            } else {
                String::new()
            }
        )?;
        writeln!(
            f,
            "{:>4} {:>10} {:>7} {:>7} {:>12}",
            "PE", "busy", "util", "waits", "wait time"
        )?;
        for pe in 0..self.pes {
            let (wn, wt) = self.waits_per_pe.get(pe).copied().unwrap_or((0, 0.0));
            writeln!(
                f,
                "{:>4} {:>8.3}ms {:>6.1}% {:>7} {:>10.3}ms",
                pe,
                ms(self.busy_per_pe.get(pe).copied().unwrap_or(0.0)),
                self.utilization_per_pe.get(pe).copied().unwrap_or(0.0) * 100.0,
                wn,
                ms(wt)
            )?;
        }
        let h = &self.hop_latency;
        writeln!(
            f,
            "hops: {} inter-PE ({} bytes), latency mean {:.3}ms p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms max {:.3}ms",
            h.count,
            self.bytes_transferred,
            ms(h.mean),
            ms(h.p50),
            ms(h.p90),
            ms(h.p99),
            ms(h.max)
        )?;
        match self.pipeline_fill {
            Some(t) => writeln!(f, "pipeline fill: {:.3}ms", ms(t))?,
            None => writeln!(f, "pipeline fill: n/a (some PE never executed)")?,
        }
        writeln!(f, "itineraries ({} messengers):", self.itineraries.len())?;
        for it in &self.itineraries {
            writeln!(
                f,
                "  {:<24} execs {:>4}  hops {:>4}  busy {:>8.3}ms  PEs {}",
                it.label,
                it.execs,
                it.hops,
                ms(it.busy),
                it.pes_visited
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_sim::trace::TraceEvent;
    use navp_sim::VTime;

    fn push(t: &mut Trace, s: u64, e: u64, actor: u64, label: &str, kind: TraceKind) {
        t.push(TraceEvent {
            start: VTime(s),
            end: VTime(e),
            actor,
            label: label.into(),
            kind,
        });
    }

    fn two_pe_trace() -> Trace {
        let mut t = Trace::enabled();
        // Actor 1 runs on PE0, hops to PE1, runs there.
        push(&mut t, 0, 100, 1, "A", TraceKind::Exec { pe: 0 });
        push(
            &mut t,
            100,
            150,
            1,
            "A",
            TraceKind::Transfer {
                from: 0,
                to: 1,
                bytes: 64,
            },
        );
        push(&mut t, 150, 250, 1, "A", TraceKind::Exec { pe: 1 });
        // PE1 waited for the hop.
        push(&mut t, 0, 150, 2, "B", TraceKind::Block { pe: 1 });
        t
    }

    #[test]
    fn report_totals_are_consistent() {
        let r = TraceReport::from_trace(&two_pe_trace(), 2, 0);
        assert_eq!(r.pes, 2);
        assert!((r.makespan - 250e-9).abs() < 1e-15);
        assert!((r.busy_per_pe[0] - 100e-9).abs() < 1e-15);
        assert!((r.busy_per_pe[1] - 100e-9).abs() < 1e-15);
        assert_eq!(r.hop_latency.count, 1);
        assert!((r.hop_latency.max - 50e-9).abs() < 1e-15);
        assert_eq!(r.bytes_transferred, 64);
        assert_eq!(r.waits_per_pe[1].0, 1);
        // PE1 first executes at 150ns → pipeline fill.
        assert!((r.pipeline_fill.unwrap() - 150e-9).abs() < 1e-15);
        let a = r.itineraries.iter().find(|i| i.actor == 1).unwrap();
        assert_eq!((a.execs, a.hops, a.pes_visited), (2, 1, 2));
    }

    #[test]
    fn pipeline_fill_absent_when_a_pe_never_runs() {
        let r = TraceReport::from_trace(&two_pe_trace(), 3, 0);
        assert_eq!(r.pipeline_fill, None);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut t = Trace::enabled();
        for i in 0..100u64 {
            push(
                &mut t,
                i * 10,
                i * 10 + i,
                i,
                "H",
                TraceKind::Transfer {
                    from: 0,
                    to: 1,
                    bytes: 1,
                },
            );
        }
        let h = TraceReport::from_trace(&t, 2, 0).hop_latency;
        assert_eq!(h.count, 100);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
        assert!(h.mean > 0.0);
    }

    #[test]
    fn display_renders_without_panicking() {
        let r = TraceReport::from_trace(&two_pe_trace(), 2, 5);
        let s = r.to_string();
        assert!(s.contains("2 PEs"), "{s}");
        assert!(s.contains("partial"), "{s}");
        assert!(s.contains("pipeline fill"), "{s}");
    }

    #[test]
    fn empty_trace_report_is_all_zeros() {
        let r = TraceReport::from_trace(&Trace::enabled(), 4, 0);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.hop_latency, LatencyStats::default());
        assert_eq!(r.pipeline_fill, None);
        assert!(r.itineraries.is_empty());
    }
}
