//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <journey|gemm_large|kv|serve> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Every input is generated from `--seed`; the NavP crates only receive
//! the generated inputs. Every number is taken from outside the program:
//! the benchmark times its own calls into each layer's public functions,
//! reads counts from their return values, and scrapes the daemons'
//! `/metrics`. Every timed operation is checked against a reference
//! built during set-up.
//!
//! With `--trace 0` the last line of standard output holds the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics.
//! A traced run measures its own workload untraced, traced and (for the
//! thread-executor workloads) with the flight recorder off, each for a
//! third of `--seconds`; layers its workload does not reach are filled
//! by short probes of the other workloads. The line before the result
//! carries host and build metadata. The command exits non-zero when any
//! operation failed.

mod check;
mod gemm;
mod host;
mod kv;
mod serve;
mod spans;
mod stats;

use spans::{SpanId, Tracer};
use stats::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: name and unit.
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit.
const LAYERS: [(&str, &str); 56] = [
    ("matrix.gemm_us", "us"),
    ("matrix.gemm_gflops", "GFLOP/s"),
    ("matrix.seq_ms", "ms"),
    ("mm.operands_ms", "ms"),
    ("mm.cluster_ms", "ms"),
    ("mm.collect_ms", "ms"),
    ("mm.stage_ms.dsc1d", "ms"),
    ("mm.stage_ms.pipe1d", "ms"),
    ("mm.stage_ms.phase1d", "ms"),
    ("mm.stage_ms.dsc2d", "ms"),
    ("mm.stage_ms.pipe2d", "ms"),
    ("mm.stage_ms.dpc2d", "ms"),
    ("mm.speedup_vs_seq", "x"),
    ("core.exec_ms", "ms"),
    ("core.parallel_eff", "ratio"),
    ("core.steps", "count"),
    ("core.hops", "count"),
    ("core.hop_bytes", "bytes"),
    ("sim.predicted_ms", "ms"),
    ("sim.gap_ms", "ms"),
    ("kv.cluster_ms", "ms"),
    ("kv.exec_ms", "ms"),
    ("kv.collect_ms", "ms"),
    ("kv.step_ms.dsc", "ms"),
    ("kv.step_ms.pipe", "ms"),
    ("kv.step_ms.phase", "ms"),
    ("kv.seq_ms", "ms"),
    ("kv.shard_put_ns", "ns"),
    ("kv.shard_get_ns", "ns"),
    ("kv.shard_delete_ns", "ns"),
    ("kv.shard_scan_ns", "ns"),
    ("kv.shard_compact_ms", "ms"),
    ("kv.transfers", "count"),
    ("kv.bytes", "bytes"),
    ("kv.compactions", "count"),
    ("kv.dead_bytes_frac", "ratio"),
    ("net.spawn_ms", "ms"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.min_job_ms", "ms"),
    ("net.io_frames_per_job", "count"),
    ("net.io_bytes_per_job", "bytes"),
    ("net.io_syscalls_saved_per_job", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.notice_ms", "ms"),
    ("serve.rejected", "count"),
    ("obs.flight_overhead_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.gen_late_ms", "ms"),
    ("gflops", "GFLOP/s"),
    ("kv_ops_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("bench.samples", "count"),
    ("bench.tail_pct", "pct"),
];

/// The workloads, in the order traced runs probe them.
const WORKLOADS: [&str; 4] = ["journey", "gemm_large", "kv", "serve"];

/// How long a workload's timed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many seconds have passed.
    Seconds(f64),
    /// For exactly this many operations.
    Ops(u64),
}

impl Budget {
    fn done(&self, ops: u64, start: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => ops >= n,
        }
    }

    /// A third of this budget (at least one operation).
    pub fn third(&self) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s / 3.0),
            Budget::Ops(n) => Budget::Ops((n / 3).max(1)),
        }
    }

    /// Half of this budget (at least one operation).
    pub fn half(&self) -> Budget {
        match *self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Ops(n) => Budget::Ops((n / 2).max(1)),
        }
    }
}

/// How one workload is run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured part.
    pub budget: Budget,
    /// Set-ups to run; `setup_s` is their median.
    pub setups: usize,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run produced.
pub struct Outcome {
    /// Every checked operation.
    pub tally: Tally,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// PE layout, for the metadata line.
    pub pes: &'static str,
    /// Most PEs the workload runs at once.
    pub max_pes: usize,
    /// Spans of the traced part (none for an untraced run).
    pub trace: Tracer,
}

/// Times from one closed loop: one caller, each operation issued when
/// the previous one has been checked.
pub struct Loop {
    /// Wall time of each operation in ms; infinite for failed ones.
    pub times_ms: Vec<f64>,
    /// Operations checked.
    pub tally: Tally,
    /// Seconds the loop ran, checks included.
    pub elapsed_s: f64,
}

impl Loop {
    /// Median operation time in ms, by the Harrell–Davis estimate.
    pub fn p50(&self) -> f64 {
        stats::hd_percentile(&self.times_ms, 50.0)
    }
}

/// Run `op` in a closed loop for `budget`, timing each call from
/// outside and judging its result with `check` outside the timed region.
pub fn closed_loop<T>(
    budget: Budget,
    tr: &mut Tracer,
    mut op: impl FnMut(&mut Tracer, SpanId) -> Result<T, String>,
    mut check: impl FnMut(&T) -> bool,
) -> Loop {
    let start = Instant::now();
    let mut times_ms = Vec::new();
    let mut tally = Tally::default();
    while !budget.done(tally.attempted, start) {
        tr.set_op(tally.attempted);
        let t0 = Instant::now();
        let root = tr.open("op", SpanId::NONE);
        let out = op(tr, root);
        tr.close(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = match &out {
            Ok(v) => check(v),
            Err(e) => {
                eprintln!("perfbench: operation {} failed: {e}", tally.attempted);
                false
            }
        };
        if !ok {
            eprintln!(
                "perfbench: operation {} returned a wrong result",
                tally.attempted
            );
        }
        tally.record(ok);
        times_ms.push(if ok { ms } else { f64::INFINITY });
    }
    Loop {
        times_ms,
        tally,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Run `setup` `n` times (at least once); return the last result and the
/// median seconds one set-up took.
pub fn repeat_setup<S>(
    n: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        // Drop the previous set-up first, so each one starts from the
        // same state.
        drop(last.take());
        let t0 = Instant::now();
        let s = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    let s = last.expect("at least one set-up ran");
    Ok((s, stats::median(&secs)))
}

/// The end-to-end metrics of a closed-loop workload. In a closed loop a
/// job is due when its caller issues it, so job latency equals run time.
pub fn closed_e2e(setup_s: f64, lp: &Loop) -> Metrics {
    let p50 = lp.p50();
    let p90 = stats::hd_percentile(&lp.times_ms, 90.0);
    Metrics::from([
        ("setup_s", setup_s),
        ("run_p50_ms", p50),
        ("run_p90_ms", p90),
        ("job_p50_ms", p50),
        ("job_p90_ms", p90),
        ("jobs_per_s", lp.tally.attempted as f64 / lp.elapsed_s),
        ("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(f64::NAN)),
    ])
}

/// The tallies of several loops, added up.
pub fn total(loops: &[&Loop]) -> Tally {
    let mut t = Tally::default();
    for l in loops {
        t.attempted += l.tally.attempted;
        t.failed += l.tally.failed;
    }
    t
}

/// Layer metrics every traced closed-loop run reports about itself:
/// untraced part `a`, traced part `b`, flight-recorder-off part `c`.
pub fn closed_bench_layers(a: &Loop, b: &Loop, c: &Loop) -> Metrics {
    let all: Vec<f64> = [a, b, c]
        .iter()
        .flat_map(|l| l.times_ms.iter().copied())
        .collect();
    Metrics::from([
        ("bench.trace_overhead_frac", b.p50() / a.p50() - 1.0),
        ("obs.flight_overhead_frac", a.p50() / c.p50() - 1.0),
        ("failed_frac", total(&[a, b, c]).failed_frac()),
        ("bench.samples", all.len() as f64),
        (
            "bench.tail_pct",
            stats::tail_percentile(all.len()).unwrap_or(0.0),
        ),
    ])
}

/// Seeds derived from the workload seed, one per stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = navp::SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <journey|gemm_large|kv|serve> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn run_workload(name: &str, plan: &Plan) -> Result<Outcome, String> {
    match name {
        "journey" => gemm::run(gemm::Shape::journey(plan.seed), plan),
        "gemm_large" => gemm::run(gemm::Shape::large(plan.seed), plan),
        "kv" => kv::run(plan),
        "serve" => serve::run(plan),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(tally: Tally, names: &[(&str, &str)], values: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            number(*v)
        );
    }
    out.push_str("}}");
    Ok(out)
}

fn run(args: &Args) -> Result<(String, String, bool), String> {
    let plan = Plan {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        setups: 5,
        trace: args.trace,
    };
    let mut out = run_workload(&args.workload, &plan)?;
    let mut tally = out.tally;
    if args.trace {
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let missing = LAYERS.iter().any(|(n, _)| !out.layers.contains_key(n));
            if !missing {
                break;
            }
            let probe = Plan {
                seed: args.seed,
                budget: Budget::Ops(3),
                setups: 1,
                trace: true,
            };
            let p = run_workload(other, &probe)?;
            tally.attempted += p.tally.attempted;
            tally.failed += p.tally.failed;
            for (k, v) in p.layers {
                out.layers.entry(k).or_insert(v);
            }
        }
    }
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!(
            "spans-{}-{}-{}.jsonl",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, out.trace.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let mut meta = host::meta_json(&args.workload, args.seed, args.trace, out.pes, out.max_pes);
    if args.trace {
        meta.push_str("\n{\"self_ms_per_op\":{");
        for (i, (name, ms)) in out.trace.self_ms_per_op().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(meta, "{sep}\"{name}\":{}", number(*ms));
        }
        meta.push_str("}}");
    }
    let line = if args.trace {
        result_line(tally, &LAYERS, &out.layers)?
    } else {
        result_line(tally, &E2E, &out.e2e)?
    };
    Ok((meta, line, tally.failed == 0))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    host::watchdog(std::time::Duration::from_secs(170));
    match run(&args) {
        Ok((meta, line, correct)) => {
            println!("{meta}");
            println!("{line}");
            if !correct {
                eprintln!("perfbench: some operations failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names in `BENCHMARK.json`, in file order, per section.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = LAYERS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
        assert_eq!(declared("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.5);
        let names = [("setup_s", "s")];
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 1,
            },
            &names,
            &m,
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(result_line(Tally::default(), &E2E, &m).is_err());
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
