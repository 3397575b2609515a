//! A minimal wall-clock timing harness for the `perf` binary.
//!
//! The repo builds with no external crates, so the benches use this
//! dependency-free stand-in: a *fixed* number of
//! warmup iterations (deterministic, unlike a time-boxed warmup),
//! a fixed number of timed samples, and min/median/p90 per iteration —
//! order statistics, because wall-clock samples on a shared machine are
//! skewed by interference and a mean smears outliers into every figure.
//! Each group accumulates its results as [`Entry`]s and can serialize
//! them as JSON (hand-rolled; see [`Group::write_json`]), which is how
//! `--bin perf` emits the `BENCH_*.json` perf baselines at the repo
//! root.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// What one iteration processes, for throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Elements per iteration → reported as Melem/s.
    Elems(u64),
    /// Floating-point operations per iteration → reported as GFLOP/s.
    Flops(u64),
    /// Payload bytes per iteration → reported as MiB/s.
    Bytes(u64),
    /// Whole jobs/runs per iteration → reported as runs/s (service
    /// throughput: submit-to-result round trips, not element counts).
    Runs(u64),
    /// Times normalized so a reference run takes 1 s → reported as the
    /// speedup over that reference (`x`).
    Speedup,
}

impl Metric {
    /// `(value, unit)` of this metric at the given per-iteration time.
    pub fn rate(&self, per_iter: Duration) -> (f64, &'static str) {
        let secs = per_iter.as_secs_f64().max(1e-12);
        match self {
            Metric::Elems(n) => (*n as f64 / secs / 1e6, "Melem/s"),
            Metric::Flops(n) => (*n as f64 / secs / 1e9, "GFLOP/s"),
            Metric::Bytes(n) => (*n as f64 / secs / (1024.0 * 1024.0), "MiB/s"),
            Metric::Runs(n) => (*n as f64 / secs, "runs/s"),
            Metric::Speedup => (1.0 / secs, "x"),
        }
    }
}

/// The recorded result of one `bench` call.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Benchmark label within its group.
    pub label: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Fastest iteration, ns.
    pub min_ns: u64,
    /// Median iteration, ns.
    pub median_ns: u64,
    /// 90th-percentile iteration, ns.
    pub p90_ns: u64,
    /// Work per iteration, if declared.
    pub metric: Option<Metric>,
}

impl Entry {
    /// The entry of `times` (one per sample, any order): fastest,
    /// median and 90th-percentile sample.
    ///
    /// # Panics
    /// Panics when `times` is empty.
    pub fn from_samples(label: &str, mut times: Vec<Duration>, metric: Option<Metric>) -> Entry {
        times.sort();
        let n = times.len();
        Entry {
            label: label.to_string(),
            samples: n,
            min_ns: times[0].as_nanos() as u64,
            median_ns: times[n / 2].as_nanos() as u64,
            p90_ns: times[((n - 1) * 9).div_ceil(10)].as_nanos() as u64,
            metric,
        }
    }

    /// GFLOP/s at the median iteration time, when the metric is flops.
    pub fn gflops(&self) -> Option<f64> {
        match self.metric {
            Some(m @ Metric::Flops(_)) => Some(m.rate(Duration::from_nanos(self.median_ns)).0),
            _ => None,
        }
    }

    /// Throughput `(value, unit)` at the median iteration time.
    pub fn rate(&self) -> Option<(f64, &'static str)> {
        self.metric
            .map(|m| m.rate(Duration::from_nanos(self.median_ns)))
    }

    fn write_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "{{\"label\":{},\"samples\":{},\"min_ns\":{},\"median_ns\":{},\"p90_ns\":{},\"wall_median_s\":{:.9}",
            json_str(&self.label),
            self.samples,
            self.min_ns,
            self.median_ns,
            self.p90_ns,
            self.median_ns as f64 / 1e9,
        )?;
        match self.metric {
            Some(Metric::Elems(n)) => write!(w, ",\"elems\":{n}")?,
            Some(Metric::Flops(n)) => write!(w, ",\"flops\":{n}")?,
            Some(Metric::Bytes(n)) => write!(w, ",\"bytes\":{n}")?,
            Some(Metric::Runs(n)) => write!(w, ",\"runs\":{n}")?,
            Some(Metric::Speedup) | None => {}
        }
        if let Some((value, unit)) = self.rate() {
            write!(w, ",\"rate\":{value:.6},\"rate_unit\":{}", json_str(unit))?;
        }
        write!(w, "}}")
    }
}

/// One benchmark group; prints a header on creation and accumulates an
/// [`Entry`] per `bench` call.
pub struct Group {
    name: String,
    samples: usize,
    warmup: usize,
    metric: Option<Metric>,
    entries: Vec<Entry>,
}

impl Group {
    /// Start a named group with the default 20 samples and 3 warmup
    /// iterations per benchmark.
    pub fn new(name: &str) -> Group {
        println!("\n== {name} ==");
        Group {
            name: name.to_string(),
            samples: 20,
            warmup: 3,
            metric: None,
            entries: Vec::new(),
        }
    }

    /// Group name (used as the JSON group key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the number of timed samples.
    pub fn sample_size(mut self, samples: usize) -> Group {
        self.samples = samples.max(3);
        self
    }

    /// Override the number of (untimed) warmup iterations. Fixed count,
    /// not time-boxed, so two runs of a bench do identical work.
    pub fn warmup(mut self, iters: usize) -> Group {
        self.warmup = iters;
        self
    }

    /// Report elements/second from this many elements per iteration.
    pub fn throughput(self, elements: u64) -> Group {
        self.metric_of(Metric::Elems(elements))
    }

    /// Report GFLOP/s from this many flops per iteration.
    pub fn flops(self, flops: u64) -> Group {
        self.metric_of(Metric::Flops(flops))
    }

    /// Report MiB/s from this many payload bytes per iteration.
    pub fn bytes(self, bytes: u64) -> Group {
        self.metric_of(Metric::Bytes(bytes))
    }

    /// Set the per-iteration work metric for subsequent `bench` calls.
    pub fn metric_of(mut self, m: Metric) -> Group {
        self.metric = Some(m);
        self
    }

    /// Time `f`, printing one summary line and recording an [`Entry`].
    pub fn bench<R>(&mut self, label: &str, f: impl FnMut() -> R) -> &Entry {
        let metric = self.metric;
        self.bench_metric(label, metric, f)
    }

    /// Time `f` with an explicit per-iteration metric (overriding the
    /// group default for this one benchmark).
    pub fn bench_metric<R>(
        &mut self,
        label: &str,
        metric: Option<Metric>,
        mut f: impl FnMut() -> R,
    ) -> &Entry {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            std::hint::black_box(f());
            times.push(t.elapsed());
        }
        self.record(Entry::from_samples(label, times, metric))
    }

    /// Record an externally measured result — used by `--bin perf` for
    /// rows whose samples it times itself (interleaved or normalized).
    pub fn record(&mut self, entry: Entry) -> &Entry {
        let mut line = format!(
            "{}/{}: min {} | median {} | p90 {} ({} samples)",
            self.name,
            entry.label,
            fmt_dur(Duration::from_nanos(entry.min_ns)),
            fmt_dur(Duration::from_nanos(entry.median_ns)),
            fmt_dur(Duration::from_nanos(entry.p90_ns)),
            entry.samples,
        );
        if let Some((value, unit)) = entry.rate() {
            line.push_str(&format!(" | {value:.3} {unit}"));
        }
        println!("{line}");
        self.entries.push(entry);
        self.entries.last().expect("just pushed")
    }

    /// Results recorded so far, in `bench` order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Serialize this group as one JSON object:
    /// `{"group": name, "entries": [...]}`.
    pub fn write_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{{\"group\":{},\"entries\":[", json_str(&self.name))?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            e.write_json(w)?;
        }
        write!(w, "]}}")
    }
}

/// Run `measure` (a whole bench) `count` times and keep each entry's
/// median round ([`median_round`]).
pub fn rounds(count: usize, mut measure: impl FnMut() -> Vec<Group>) -> Vec<Group> {
    median_round(
        (1..=count)
            .map(|round| {
                println!("\n-- round {round} of {count} --");
                measure()
            })
            .collect(),
    )
}

/// Combine repeated runs (rounds) of the same benches: per
/// `(group, label)`, keep the entry of the median round, ranked by its
/// fastest sample (`min_ns`). One lucky round (a rare favourable
/// schedule) or one round in a slow phase of a shared host does not
/// move the result; an odd round count picks a real round.
pub fn median_round(mut rounds: Vec<Vec<Group>>) -> Vec<Group> {
    let mut out = rounds.pop().expect("at least one round");
    for (gi, g) in out.iter_mut().enumerate() {
        for e in &mut g.entries {
            let mut same: Vec<&Entry> = rounds
                .iter()
                .filter_map(|r| r.get(gi))
                .filter_map(|rg| rg.entries.iter().find(|o| o.label == e.label))
                .collect();
            same.push(e);
            same.sort_by_key(|c| c.min_ns);
            *e = same[same.len() / 2].clone();
        }
    }
    out
}

/// The host a baseline was measured on, as a JSON object: logical
/// cores, CPU model, and the compiler that built the bench.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\":{cores},\"cpu\":{},\"rustc\":{}}}",
        json_str(&cpu),
        json_str(env!("NAVP_BENCH_RUSTC"))
    )
}

/// Write `groups` as one machine-readable JSON document:
/// `{"host":{...},"groups":[{"group":...,"entries":[...]}, ...]}` — the
/// format of the `BENCH_*.json` files at the repo root, with the
/// [`host_json`] they were measured on.
pub fn write_groups_json(path: &std::path::Path, groups: &[Group]) -> io::Result<()> {
    let mut buf = Vec::new();
    write!(buf, "{{\"host\":{},\"groups\":[", host_json())?;
    for (i, g) in groups.iter().enumerate() {
        if i > 0 {
            write!(buf, ",")?;
        }
        g.write_json(&mut buf)?;
    }
    writeln!(buf, "]}}")?;
    std::fs::write(path, buf)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_round_keeps_each_entrys_middle_round() {
        let entry = |label: &str, min_ns| Entry {
            label: label.into(),
            samples: 3,
            min_ns,
            median_ns: min_ns + 10,
            p90_ns: min_ns + 20,
            metric: None,
        };
        let round = |a, b| {
            let mut g = Group::new("g");
            g.record(entry("a", a));
            g.record(entry("b", b));
            vec![g]
        };
        // `a`: one lucky round (50) and one slow one (300) are both
        // outvoted; `b` ranks its rounds independently.
        let kept = median_round(vec![round(100, 200), round(50, 400), round(300, 250)]);
        let got: Vec<(u64, u64)> = kept[0]
            .entries()
            .iter()
            .map(|e| (e.min_ns, e.median_ns))
            .collect();
        assert_eq!(got, vec![(100, 110), (250, 260)]);
    }

    #[test]
    fn baselines_record_their_host_and_still_parse() {
        let mut g = Group::new("t").sample_size(3).warmup(0).flops(1_000);
        g.bench("spin", || std::hint::black_box((0..100).sum::<u64>()));
        let path =
            std::env::temp_dir().join(format!("navp-bench-host-{}.json", std::process::id()));
        write_groups_json(&path, &[g]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = navp_trace::json::Json::parse(&text).unwrap();
        let host = doc.get("host").expect("host object");
        assert!(host.get("cores").and_then(|c| c.as_num()).unwrap() >= 1.0);
        assert!(host.get("cpu").and_then(|c| c.as_str()).is_some());
        assert!(host.get("rustc").and_then(|c| c.as_str()).is_some());
        let entries = crate::check::parse_baseline(&text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].label, "spin");
    }

    #[test]
    fn entries_record_order_statistics_and_rates() {
        let mut g = Group::new("t").sample_size(5).warmup(1).flops(2_000_000);
        g.bench("spin", || std::hint::black_box((0..1000).sum::<u64>()));
        let e = &g.entries()[0];
        assert_eq!(e.samples, 5);
        assert!(e.min_ns <= e.median_ns && e.median_ns <= e.p90_ns);
        assert!(e.gflops().is_some());
    }

    #[test]
    fn json_shape_is_stable() {
        let mut g = Group::new("grp").sample_size(3).warmup(0);
        g.bench_metric("a \"quoted\"", Some(Metric::Bytes(1024)), || 1 + 1);
        let mut out = Vec::new();
        g.write_json(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("{\"group\":\"grp\",\"entries\":["), "{s}");
        assert!(s.contains("\\\"quoted\\\""), "{s}");
        assert!(s.contains("\"bytes\":1024"), "{s}");
        assert!(s.contains("\"rate_unit\":\"MiB/s\""), "{s}");
        assert!(s.contains("\"wall_median_s\":"), "{s}");
    }

    #[test]
    fn metric_rates() {
        let d = Duration::from_secs(1);
        assert_eq!(Metric::Flops(2_000_000_000).rate(d), (2.0, "GFLOP/s"));
        assert_eq!(Metric::Elems(3_000_000).rate(d), (3.0, "Melem/s"));
        let (v, u) = Metric::Bytes(1024 * 1024).rate(d);
        assert_eq!((v, u), (1.0, "MiB/s"));
        assert_eq!(Metric::Runs(12).rate(d), (12.0, "runs/s"));
    }
}
