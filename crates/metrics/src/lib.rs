//! Live metrics for the NavP runtime.
//!
//! The crate provides the always-on observability layer the executors
//! thread through their hot paths: lock-free [`Counter`]s, [`Gauge`]s
//! and log-bucket [`Histogram`]s on relaxed atomics, registered in a
//! [`MetricsRegistry`] that renders hand-rolled Prometheus text-format
//! exposition (no serde — same policy as `ChromeTrace::to_chrome_json`
//! in `navp-trace`). The overhead discipline mirrors the flight
//! recorder's (`navp-obs`): instrumented code holds an `Option<Arc<RunMetrics>>` and pays one
//! predictable branch when metrics are off; when on, each event is one
//! or two relaxed `fetch_add`s on a cache-line the owning PE thread
//! mostly has to itself.
//!
//! - [`RunMetrics`] is the shared metric set every executor exports
//!   (hops, hop bytes, events, park time, injections, checkpoints,
//!   journal commits, fault injections, frame codec bytes, queue
//!   depths), pre-registered with stable `navp_*` names.
//! - [`MetricsSnapshot`] is a point-in-time flattened view that can be
//!   shipped over the wire (in each PE's end-of-run `Report` frame in
//!   `navp-net`) and merged across PEs.
//! - [`serve_http`] is a minimal HTTP/1.1 responder on std TCP serving
//!   `GET /metrics` (Prometheus exposition) and `GET /healthz` (JSON)
//!   — what `navp-pe --metrics-addr` binds.
//! - [`validate_prometheus`] is a line-format validator used by tests
//!   and the exposition round-trip checks.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod expo;
mod http;
mod snapshot;

pub use expo::{validate_prometheus, PromSummary};
pub use http::{serve_http, serve_http_with, RouteFn};
pub use snapshot::{MetricsSnapshot, Sample, SampleKind};

/// A monotonically increasing counter on one relaxed atomic.
///
/// All operations are `Ordering::Relaxed`: metrics are statistical and
/// never used for synchronization, so no fences are paid on the hot
/// path.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways (queue depths,
/// connected-peer counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets; upper bounds are the powers of
/// four `4^0 ..= 4^(BUCKETS-1)`, i.e. 1 to ~1.07e9, plus `+Inf`.
pub const BUCKETS: usize = 16;

/// Upper bound of finite bucket `i`: `4^i`.
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << (2 * i)
}

/// A fixed log-scale histogram of non-negative integer observations
/// (byte counts, nanoseconds).
///
/// Buckets are powers of four — coarse, but two bits of resolution per
/// bucket is plenty for "is this hop 1 KiB or 1 MiB" questions, and a
/// fixed array of relaxed atomics keeps `observe` allocation-free and
/// wait-free. Bucket counts are stored per-bucket and cumulated only
/// at exposition time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    overflow: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Record one observation: three relaxed `fetch_add`s, no branches
    /// beyond the overflow test.
    #[inline]
    pub fn observe(&self, v: u64) {
        // Index of the first bucket with bound >= v: ceil(log4 v),
        // computed from the bit length of v-1 (v <= 1 lands in bucket
        // 0, whose bound is 4^0 = 1).
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).div_ceil(2)
        };
        if idx < BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative counts per finite bucket (`counts[i]` = observations
    /// `<= 4^i`), plus the total (the `+Inf` bucket).
    pub fn cumulative(&self) -> ([u64; BUCKETS], u64) {
        let mut counts = [0u64; BUCKETS];
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            counts[i] = acc;
        }
        (counts, acc + self.overflow.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket that crosses the target rank — the standard
    /// Prometheus `histogram_quantile` estimate, bounded by the
    /// power-of-4 bucket resolution. Returns `None` on an empty
    /// histogram; observations past the last finite bucket clamp to
    /// its bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (counts, total) = self.cumulative();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        for (i, &cum) in counts.iter().enumerate() {
            if (cum as f64) >= rank {
                let lo = if i == 0 { 0.0 } else { bucket_bound(i - 1) as f64 };
                let hi = bucket_bound(i) as f64;
                let below = if i == 0 { 0 } else { counts[i - 1] };
                let in_bucket = cum - below;
                if in_bucket == 0 {
                    return Some(hi);
                }
                let frac = (rank - below as f64) / in_bucket as f64;
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        Some(bucket_bound(BUCKETS - 1) as f64)
    }
}

/// What a registered metric family is, for `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` suffix by convention).
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Log-bucket histogram (`_bucket`/`_sum`/`_count` exposition).
    Histogram,
}

impl MetricKind {
    fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    inst: Instrument,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A set of named metric families, each holding labeled series.
///
/// Registration takes a mutex (cold path, run setup only); the handles
/// it returns are plain `Arc`s updated lock-free. Registering the same
/// `(name, labels)` twice returns the existing handle, so per-PE
/// instruments can be re-derived idempotently.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut fams = self.families.lock().expect("metrics registry poisoned");
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(f.kind, kind, "metric {name} re-registered with a different kind");
                f
            }
            None => {
                fams.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                fams.last_mut().expect("just pushed")
            }
        };
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(s) = fam.series.iter().find(|s| s.labels == owned) {
            return clone_instrument(&s.inst);
        }
        let inst = make();
        fam.series.push(Series {
            labels: owned,
            inst: clone_instrument(&inst),
        });
        inst
    }

    /// Register (or look up) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::new()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Register a *pre-existing* counter handle under a name. Used when
    /// the instrument must exist before the registry does (the frame
    /// reader threads in `navp-pe` start counting decode bytes before
    /// the `Start` frame decides whether metrics are on).
    pub fn counter_arc(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        c: Arc<Counter>,
    ) -> Arc<Counter> {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Instrument::Counter(c)
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Register a *pre-existing* gauge handle under a name — the gauge
    /// twin of [`MetricsRegistry::counter_arc`]. Used when the
    /// instrument must exist before the registry does (the net event
    /// loop tracks pending bytes from process start; a session adopts
    /// the gauge once metrics are switched on).
    pub fn gauge_arc(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        g: Arc<Gauge>,
    ) -> Arc<Gauge> {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Instrument::Gauge(g)
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` headers followed by
    /// one sample line per series, histograms expanded to cumulative
    /// `_bucket{le=...}` plus `_sum`/`_count`.
    pub fn render(&self) -> String {
        let fams = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for f in fams.iter() {
            out.push_str(&format!("# HELP {} {}\n", f.name, escape_help(&f.help)));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
            for s in &f.series {
                match &s.inst {
                    Instrument::Counter(c) => {
                        push_sample(&mut out, &f.name, &s.labels, None, c.get() as f64)
                    }
                    Instrument::Gauge(g) => {
                        push_sample(&mut out, &f.name, &s.labels, None, g.get() as f64)
                    }
                    Instrument::Histogram(h) => {
                        let (cum, total) = h.cumulative();
                        for (i, c) in cum.iter().enumerate() {
                            push_sample(
                                &mut out,
                                &format!("{}_bucket", f.name),
                                &s.labels,
                                Some(&format!("{}", bucket_bound(i))),
                                *c as f64,
                            );
                        }
                        push_sample(
                            &mut out,
                            &format!("{}_bucket", f.name),
                            &s.labels,
                            Some("+Inf"),
                            total as f64,
                        );
                        push_sample(&mut out, &format!("{}_sum", f.name), &s.labels, None, h.sum() as f64);
                        push_sample(&mut out, &format!("{}_count", f.name), &s.labels, None, total as f64);
                    }
                }
            }
        }
        out
    }

    /// Flatten the registry into a point-in-time [`MetricsSnapshot`]
    /// (histograms become per-bound `_bucket` samples plus `_sum` and
    /// `_count`), suitable for wire transport and cross-PE merging.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let fams = self.families.lock().expect("metrics registry poisoned");
        let mut samples = Vec::new();
        for f in fams.iter() {
            for s in &f.series {
                match &s.inst {
                    Instrument::Counter(c) => samples.push(Sample {
                        name: f.name.clone(),
                        labels: s.labels.clone(),
                        kind: SampleKind::Counter,
                        value: c.get() as f64,
                    }),
                    Instrument::Gauge(g) => samples.push(Sample {
                        name: f.name.clone(),
                        labels: s.labels.clone(),
                        kind: SampleKind::Gauge,
                        value: g.get() as f64,
                    }),
                    Instrument::Histogram(h) => {
                        let (cum, total) = h.cumulative();
                        for (i, c) in cum.iter().enumerate() {
                            let mut labels = s.labels.clone();
                            labels.push(("le".to_string(), format!("{}", bucket_bound(i))));
                            samples.push(Sample {
                                name: format!("{}_bucket", f.name),
                                labels,
                                kind: SampleKind::Counter,
                                value: *c as f64,
                            });
                        }
                        let mut labels = s.labels.clone();
                        labels.push(("le".to_string(), "+Inf".to_string()));
                        samples.push(Sample {
                            name: format!("{}_bucket", f.name),
                            labels,
                            kind: SampleKind::Counter,
                            value: total as f64,
                        });
                        samples.push(Sample {
                            name: format!("{}_sum", f.name),
                            labels: s.labels.clone(),
                            kind: SampleKind::Counter,
                            value: h.sum() as f64,
                        });
                        samples.push(Sample {
                            name: format!("{}_count", f.name),
                            labels: s.labels.clone(),
                            kind: SampleKind::Counter,
                            value: total as f64,
                        });
                    }
                }
            }
        }
        MetricsSnapshot { samples }
    }
}

fn clone_instrument(i: &Instrument) -> Instrument {
    match i {
        Instrument::Counter(c) => Instrument::Counter(Arc::clone(c)),
        Instrument::Gauge(g) => Instrument::Gauge(Arc::clone(g)),
        Instrument::Histogram(h) => Instrument::Histogram(Arc::clone(h)),
    }
}

fn push_sample(out: &mut String, name: &str, labels: &[(String, String)], le: Option<&str>, v: f64) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, val) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}=\"{}\"", k, escape_label(val)));
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str(&format!("le=\"{le}\""));
        }
        out.push('}');
    }
    // Counters and bucket counts are integers; print them without a
    // fractional part so the exposition stays exact and diffable.
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        out.push_str(&format!(" {}\n", v as i64));
    } else {
        out.push_str(&format!(" {v}\n"));
    }
}

pub(crate) fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Per-PE slice of the shared run metric set.
#[derive(Clone)]
pub struct PeMetrics {
    /// Messenger hops departed from this PE (`navp_hops_total`).
    pub hops: Arc<Counter>,
    /// Bytes moved by those hops, payload + fixed migration-state
    /// overhead (`navp_hop_bytes_total`).
    pub hop_bytes: Arc<Counter>,
    /// Messenger compute steps executed here (`navp_steps_total`).
    pub steps: Arc<Counter>,
    /// Events signaled on this PE (`navp_events_signaled_total`).
    pub signals: Arc<Counter>,
    /// Event waits that parked a messenger here
    /// (`navp_events_waited_total`).
    pub waits: Arc<Counter>,
    /// Messengers injected at this PE (`navp_injections_total`).
    pub injections: Arc<Counter>,
    /// Total nanoseconds messengers spent parked on events here
    /// (`navp_park_ns_total`).
    pub park_ns: Arc<Counter>,
    /// Messengers currently queued for execution on this PE
    /// (`navp_queue_depth`).
    pub queue_depth: Arc<Gauge>,
}

/// The shared metric set every executor exports, pre-registered under
/// stable `navp_*` names in one [`MetricsRegistry`].
///
/// Executors hold an `Option<Arc<RunMetrics>>`; the `Option` test is
/// the single disabled-path branch. Per-PE instruments carry a
/// `pe="<k>"` label; process/cluster-wide ones are unlabeled.
pub struct RunMetrics {
    /// The registry all instruments live in (what `/metrics` renders).
    pub registry: Arc<MetricsRegistry>,
    /// Per-PE instruments, indexed by PE id.
    pub pe: Vec<PeMetrics>,
    /// Messenger state checkpoints registered at delivery points
    /// (`navp_checkpoints_total`).
    pub checkpoints: Arc<Counter>,
    /// Serialized bytes of those checkpoints
    /// (`navp_checkpoint_bytes_total`).
    pub checkpoint_bytes: Arc<Counter>,
    /// Write-journal commit batches (`navp_journal_commits_total`).
    pub journal_commits: Arc<Counter>,
    /// Durable checkpoint flushes — atomic cut files committed to disk
    /// (`navp_durable_flushes_total`).
    pub durable_flushes: Arc<Counter>,
    /// Bytes written by durable checkpoint flushes, container overhead
    /// included (`navp_durable_bytes_total`).
    pub durable_bytes: Arc<Counter>,
    /// Faults actually injected by a `FaultPlan` — crashes, delays,
    /// drops, lost signals (`navp_fault_injections_total`).
    pub faults: Arc<Counter>,
    /// Trace ring-buffer events lost to capacity
    /// (`navp_trace_dropped_events_total`).
    pub trace_dropped: Arc<Counter>,
    /// Wire bytes produced by frame encoding, after any send-side
    /// fault filtering (`navp_frame_encode_bytes_total`).
    pub frame_encode_bytes: Arc<Counter>,
    /// Wire bytes consumed by frame decoding
    /// (`navp_frame_decode_bytes_total`).
    pub frame_decode_bytes: Arc<Counter>,
    /// Frames queued toward peers but not yet written
    /// (`navp_send_queue_depth`).
    pub send_queue_depth: Arc<Gauge>,
    /// Distribution of per-hop payload sizes in bytes
    /// (`navp_hop_payload_bytes`).
    pub hop_payload_bytes: Arc<Histogram>,
    /// Distribution of event-park durations in nanoseconds
    /// (`navp_park_wait_ns`).
    pub park_wait_ns: Arc<Histogram>,
}

impl RunMetrics {
    /// Build the shared metric set for `pes` processing elements on a
    /// fresh registry.
    pub fn new(pes: usize) -> Arc<RunMetrics> {
        RunMetrics::on_registry(Arc::new(MetricsRegistry::new()), pes)
    }

    /// Build the shared metric set on an existing registry (used by
    /// `navp-pe`, whose registry outlives individual runs and also
    /// holds the early-created frame-decode counter).
    pub fn on_registry(registry: Arc<MetricsRegistry>, pes: usize) -> Arc<RunMetrics> {
        let mut pe = Vec::with_capacity(pes);
        for k in 0..pes {
            let l = format!("{k}");
            let labels: &[(&str, &str)] = &[("pe", l.as_str())];
            pe.push(PeMetrics {
                hops: registry.counter("navp_hops_total", "Messenger hops departed, by source PE", labels),
                hop_bytes: registry.counter(
                    "navp_hop_bytes_total",
                    "Bytes moved by messenger hops (payload + migration state), by source PE",
                    labels,
                ),
                steps: registry.counter("navp_steps_total", "Messenger compute steps executed, by PE", labels),
                signals: registry.counter(
                    "navp_events_signaled_total",
                    "Events signaled, by signaling PE",
                    labels,
                ),
                waits: registry.counter(
                    "navp_events_waited_total",
                    "Event waits that parked a messenger, by PE",
                    labels,
                ),
                injections: registry.counter(
                    "navp_injections_total",
                    "Messengers injected into the computation, by PE",
                    labels,
                ),
                park_ns: registry.counter(
                    "navp_park_ns_total",
                    "Nanoseconds messengers spent parked on events, by PE",
                    labels,
                ),
                queue_depth: registry.gauge(
                    "navp_queue_depth",
                    "Messengers queued for execution, by PE",
                    labels,
                ),
            });
        }
        Arc::new(RunMetrics {
            checkpoints: registry.counter(
                "navp_checkpoints_total",
                "Messenger checkpoints registered at delivery points",
                &[],
            ),
            checkpoint_bytes: registry.counter(
                "navp_checkpoint_bytes_total",
                "Serialized bytes of registered messenger checkpoints",
                &[],
            ),
            journal_commits: registry.counter(
                "navp_journal_commits_total",
                "Write-journal commit batches",
                &[],
            ),
            durable_flushes: registry.counter(
                "navp_durable_flushes_total",
                "Durable checkpoint cut files committed to disk",
                &[],
            ),
            durable_bytes: registry.counter(
                "navp_durable_bytes_total",
                "Bytes written by durable checkpoint flushes",
                &[],
            ),
            faults: registry.counter(
                "navp_fault_injections_total",
                "Faults injected by the active fault plan (crashes, delays, drops, lost signals)",
                &[],
            ),
            trace_dropped: registry.counter(
                "navp_trace_dropped_events_total",
                "Trace ring-buffer events dropped at capacity",
                &[],
            ),
            frame_encode_bytes: registry.counter(
                "navp_frame_encode_bytes_total",
                "Wire bytes produced by frame encoding",
                &[],
            ),
            frame_decode_bytes: registry.counter(
                "navp_frame_decode_bytes_total",
                "Wire bytes consumed by frame decoding",
                &[],
            ),
            send_queue_depth: registry.gauge(
                "navp_send_queue_depth",
                "Frames queued toward peers but not yet written",
                &[],
            ),
            hop_payload_bytes: registry.histogram(
                "navp_hop_payload_bytes",
                "Per-hop payload size in bytes",
                &[],
            ),
            park_wait_ns: registry.histogram(
                "navp_park_wait_ns",
                "Event-park duration in nanoseconds",
                &[],
            ),
            pe,
            registry,
        })
    }

    /// Per-PE instruments for PE `k`, if `k` is in range.
    ///
    /// Net daemons run a single PE but keep the full-width vector so
    /// PE ids line up across processes; this accessor keeps call sites
    /// honest about bounds.
    pub fn pe(&self, k: usize) -> Option<&PeMetrics> {
        self.pe.get(k)
    }

    /// Point-in-time snapshot of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_are_powers_of_four() {
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(1), 4);
        assert_eq!(bucket_bound(2), 16);
        assert_eq!(bucket_bound(15), 1 << 30);
    }

    #[test]
    fn histogram_observe_lands_in_the_right_bucket() {
        let h = Histogram::new();
        for v in [0, 1, 2, 4, 5, 16, 17, 64, 1 << 30, (1 << 30) + 1] {
            h.observe(v);
        }
        let (cum, total) = h.cumulative();
        assert_eq!(total, 10);
        assert_eq!(h.count(), 10);
        assert_eq!(cum[0], 2, "0 and 1 <= 4^0");
        assert_eq!(cum[1], 4, "2 and 4 <= 4^1");
        assert_eq!(cum[2], 6, "5 and 16 <= 4^2");
        assert_eq!(cum[3], 8, "17 and 64 <= 4^3");
        assert_eq!(cum[15], 9, "2^30 <= 4^15; 2^30+1 overflows to +Inf");
        assert_eq!(h.sum(), 1 + 2 + 4 + 5 + 16 + 17 + 64 + (1u64 << 30) + (1 << 30) + 1);
    }

    #[test]
    fn histogram_quantile_estimates() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 100 observations spread inside the (16, 64] bucket.
        for i in 0..100u64 {
            h.observe(17 + (i % 48));
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (16.0..=64.0).contains(&p50),
            "median must land inside its bucket, got {p50}"
        );
        // All observations in one bucket → p99 also inside it.
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 <= 64.0 && p99 >= p50, "p99 {p99} vs p50 {p50}");
        // Overflow observations clamp to the last finite bound.
        let big = Histogram::new();
        big.observe(u64::MAX / 2);
        assert_eq!(big.quantile(0.5), Some(bucket_bound(BUCKETS - 1) as f64));
    }

    #[test]
    fn registry_renders_valid_prometheus() {
        let r = MetricsRegistry::new();
        let c = r.counter("navp_hops_total", "hops", &[("pe", "0")]);
        c.add(3);
        let g = r.gauge("navp_queue_depth", "depth", &[("pe", "0")]);
        g.set(2);
        let h = r.histogram("navp_hop_payload_bytes", "payload", &[]);
        h.observe(100);
        h.observe(5_000_000_000); // +Inf
        let text = r.render();
        assert!(text.contains("# TYPE navp_hops_total counter"), "{text}");
        assert!(text.contains("navp_hops_total{pe=\"0\"} 3"), "{text}");
        assert!(text.contains("navp_queue_depth{pe=\"0\"} 2"), "{text}");
        assert!(text.contains("navp_hop_payload_bytes_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("navp_hop_payload_bytes_count 2"), "{text}");
        let summary = validate_prometheus(&text).expect("valid exposition");
        assert_eq!(summary.families, 3);
        assert!(summary.samples >= 2 + BUCKETS);
    }

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.counter("navp_x_total", "x", &[("pe", "1")]);
        let b = r.counter("navp_x_total", "x", &[("pe", "1")]);
        a.inc();
        assert_eq!(b.get(), 1, "same series returns the same handle");
        let other = r.counter("navp_x_total", "x", &[("pe", "2")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn counter_arc_adopts_a_preexisting_handle() {
        let pre = Arc::new(Counter::new());
        pre.add(9);
        let r = MetricsRegistry::new();
        let got = r.counter_arc("navp_pre_total", "pre", &[], Arc::clone(&pre));
        assert_eq!(got.get(), 9);
        assert!(r.render().contains("navp_pre_total 9"));
    }

    #[test]
    fn run_metrics_has_per_pe_labels() {
        let m = RunMetrics::new(4);
        m.pe(2).expect("pe 2").hops.add(5);
        m.faults.inc();
        let text = m.registry.render();
        assert!(text.contains("navp_hops_total{pe=\"2\"} 5"), "{text}");
        assert!(text.contains("navp_fault_injections_total 1"), "{text}");
        validate_prometheus(&text).expect("valid");
        assert!(m.pe(4).is_none());
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter("navp_esc_total", "esc", &[("what", "a\"b\\c\nd")]).inc();
        let text = r.render();
        assert!(text.contains("what=\"a\\\"b\\\\c\\nd\""), "{text}");
        validate_prometheus(&text).expect("escaped labels still validate");
    }
}
