//! The `serve` workload: an open loop of seeded job arrivals sent to a
//! `navp-serve` process over loopback, which runs them on 2 persistent
//! `navp-pe --listen` daemons.

use crate::check::{job_ok, JobEnd};
use crate::spans::{SpanId, Tracer};
use crate::stats::{self, open_loop_latency, Tally};
use crate::{derive_seed, repeat_setup, Budget, Metrics, Outcome, Plan};
use navp::{Messenger, MsgrCtx, StepOutputs};
use navp_kv::KvConfig;
use navp_matrix::Grid2D;
use navp_mm::carrier1d::RowCarrier;
use navp_mm::util::Topo1D;
use navp_mm::{phase1d, MmConfig, Payload};
use navp_net::Frame;
use navp_serve::{product_checksum, submit, wait_terminal, JobKind, JobSpec};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, in jobs per second.
const RATE: f64 = 6.0;
/// The p90 job latency the offered rate must meet, in ms.
const P90_LIMIT_MS: f64 = 500.0;
/// GEMM jobs: phase1d on a 1x2 line at n=128, ab=32.
const GEMM_N: u32 = 128;
const GEMM_AB: u32 = 32;
/// kv jobs: `kv_pipe` on 2 PEs, this many ops in this many batches.
const KV_OPS: u32 = 2000;
const KV_BATCHES: u32 = 8;
/// How long the client follows one job before giving up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

fn free_addr() -> Result<String, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.to_string())
}

/// The repository's daemons, built next to this executable.
fn bin(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} is not built", path.display()))
    }
}

/// `GET path` over HTTP/1.1; the daemons close after each response.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(|e| e.to_string())?;
    if body.starts_with("HTTP/1.1 200") {
        Ok(body)
    } else {
        Err(format!(
            "GET {addr}{path}: {}",
            body.lines().next().unwrap_or("")
        ))
    }
}

/// Sum of every sample of metric `name` in a Prometheus text exposition.
fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The server and its two daemons; dropping it kills and reaps them.
struct Mesh {
    addr: String,
    metrics: Vec<String>,
    children: Vec<Child>,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
            crate::host::release(c.id());
        }
    }
}

impl Mesh {
    fn start() -> Result<Mesh, String> {
        let pe_bin = bin("navp-pe")?;
        let mut mesh = Mesh {
            addr: String::new(),
            metrics: Vec::new(),
            children: Vec::new(),
            _stdout: None,
        };
        let mut join = Vec::new();
        for _ in 0..2 {
            let (addr, metrics) = (free_addr()?, free_addr()?);
            let child = Command::new(&pe_bin)
                .args(["--listen", &addr, "--metrics-addr", &metrics])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning navp-pe: {e}"))?;
            crate::host::adopt(child.id());
            mesh.children.push(child);
            join.push(addr);
            mesh.metrics.push(metrics);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for m in &mesh.metrics {
            while http_get(m, "/healthz").is_err() {
                if Instant::now() > deadline {
                    return Err(format!("navp-pe health endpoint {m} never came up"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        mesh.addr = free_addr()?;
        let mut cmd = Command::new(bin("navp-serve")?);
        cmd.args([
            "--listen",
            &mesh.addr,
            "--max-inflight",
            "2",
            "--queue-cap",
            "64",
        ]);
        for a in &join {
            cmd.args(["--join", a]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning navp-serve: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        crate::host::adopt(child.id());
        mesh.children.push(child);
        let mut line = String::new();
        out.read_line(&mut line).map_err(|e| e.to_string())?;
        if !line.contains("listening") {
            return Err(format!("navp-serve did not start: {line:?}"));
        }
        mesh._stdout = Some(out);
        Ok(mesh)
    }

    /// Peak RSS of the server and daemons, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| crate::host::peak_rss_mb(Some(c.id())))
            .sum()
    }

    /// Sums of the daemons' `navp_net_io_*` counters: frames, bytes
    /// flushed, syscalls saved.
    fn io_counters(&self) -> Result<[f64; 3], String> {
        let mut sums = [0.0; 3];
        for m in &self.metrics {
            let text = http_get(m, "/metrics")?;
            sums[0] += metric_sum(&text, "navp_net_io_frames_total");
            sums[1] += metric_sum(&text, "navp_net_io_flushed_bytes_total");
            sums[2] += metric_sum(&text, "navp_net_io_syscalls_saved_total");
        }
        Ok(sums)
    }
}

/// One scheduled job: when it is due (seconds after the loop starts),
/// what it asks for, and the checksum its product must have.
#[derive(Clone)]
struct Job {
    due: f64,
    spec: JobSpec,
    want: u64,
}

fn gemm_spec(stage: &str, n: u32, ab: u32, seed_a: u64, seed_b: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Gemm,
        stage: stage.into(),
        n,
        ab,
        rows: 1,
        cols: 2,
        seed_a,
        seed_b,
        priority: 0,
        timeout_ms: 0,
        fault_spec: String::new(),
        trace: false,
    }
}

fn gemm_checksum(spec: &JobSpec) -> Result<u64, String> {
    let cfg = MmConfig {
        payload: Payload::Real {
            seed_a: spec.seed_a,
            seed_b: spec.seed_b,
        },
        ..MmConfig::real(spec.n as usize, spec.ab as usize)
    };
    let c = cfg.expected().map_err(|e| e.to_string())?;
    Ok(product_checksum(&c.expect("real payload has a reference")))
}

fn kv_job(seed: u64) -> (JobSpec, u64) {
    let spec = JobSpec {
        kind: JobKind::Kv,
        stage: "kv_pipe".into(),
        n: KV_OPS,
        ab: KV_BATCHES,
        seed_a: seed,
        seed_b: 0,
        ..gemm_spec("", 0, 0, 0, 0)
    };
    let cfg = KvConfig::new(KV_OPS as usize, KV_BATCHES as usize).with_seed(seed);
    (spec, navp_kv::expected(&cfg).checksum())
}

fn gemm_job(seed_a: u64, seed_b: u64) -> Result<(JobSpec, u64), String> {
    let spec = gemm_spec("phase1d", GEMM_N, GEMM_AB, seed_a, seed_b);
    let want = gemm_checksum(&spec)?;
    Ok((spec, want))
}

/// `n` arrivals of a Poisson process conditioned on `n` arrivals in
/// `[0, span)` (sorted uniform times), three GEMM jobs to one kv job in
/// every block of four, each job with its own seeds. `stream` keeps the
/// two halves of a traced run apart.
fn schedule(seed: u64, stream: u64, n: usize, span: f64) -> Result<Vec<Job>, String> {
    let mut rng = navp::SplitMix64::new(derive_seed(seed, stream));
    let mut unit = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut due: Vec<f64> = (0..n).map(|_| unit() * span).collect();
    due.sort_by(f64::total_cmp);
    let mut kv_slot = 0;
    let mut jobs = Vec::with_capacity(n);
    for (i, d) in due.into_iter().enumerate() {
        if i % 4 == 0 {
            kv_slot = (unit() * 4.0) as usize % 4;
        }
        let s = derive_seed(seed, stream * 1_000_003 + i as u64);
        let (spec, want) = if i % 4 == kv_slot {
            kv_job(s)
        } else {
            gemm_job(s, derive_seed(s, 1))?
        };
        jobs.push(Job { due: d, spec, want });
    }
    Ok(jobs)
}

/// How one job went, in seconds since the loop started.
struct Record {
    kind: JobKind,
    due: f64,
    sent: f64,
    acked: f64,
    seen: Option<f64>,
    end: JobEnd,
    ok: bool,
}

/// Send `jobs` on their schedule from one thread while this thread
/// follows each to a terminal state: one process, two threads, at most
/// two connections open at once.
fn open_loop(addr: &str, jobs: &[Job], tr: &mut Tracer) -> Vec<Record> {
    let start = Instant::now();
    let secs = move || start.elapsed().as_secs_f64();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, job) in jobs.iter().enumerate() {
                let wait = job.due - secs();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent = secs();
                let r = submit(addr, job.spec.clone());
                if tx.send((i, sent, secs(), r)).is_err() {
                    return;
                }
            }
        });
        let mut out = Vec::with_capacity(jobs.len());
        for (i, sent, acked, r) in rx {
            tr.set_op(i as u64);
            let root = tr.open("serve.job", SpanId::NONE);
            let end = match r {
                Ok(Ok(id)) => tr.time("serve.wait", root, || {
                    match wait_terminal(addr, id, JOB_TIMEOUT) {
                        Ok((info, outcome)) => JobEnd::Terminal(info, outcome),
                        Err(e) => JobEnd::Error(e.to_string()),
                    }
                }),
                Ok(Err(reason)) => JobEnd::Rejected(reason),
                Err(e) => JobEnd::Error(e.to_string()),
            };
            tr.close(root);
            let ok = job_ok(&end, jobs[i].want);
            if !ok {
                eprintln!("perfbench: job {i} failed: {end:?}");
            }
            let seen = matches!(end, JobEnd::Terminal(..)).then(secs);
            out.push(Record {
                kind: jobs[i].spec.kind,
                due: jobs[i].due,
                sent,
                acked,
                seen,
                end,
                ok,
            });
        }
        out
    })
}

fn tally(records: &[Record]) -> Tally {
    let mut t = Tally::default();
    for r in records {
        t.record(r.ok);
    }
    t
}

/// Latency from the due time, in ms; failed jobs miss every limit.
fn job_latencies(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .map(|r| open_loop_latency(r.due, r.seen.filter(|_| r.ok)) * 1e3)
        .collect()
}

/// Budget in jobs and the span of time they arrive over.
fn jobs_for(budget: Budget) -> (usize, f64) {
    match budget {
        Budget::Seconds(s) => (((RATE * s).round() as usize).max(1), s),
        Budget::Ops(n) => (n as usize, n as f64 / RATE),
    }
}

/// Submit `spec` and follow it to the end, alone on the service.
fn one_job(addr: &str, spec: &JobSpec, want: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let id = submit(addr, spec.clone())
        .map_err(|e| e.to_string())?
        .map_err(|r| format!("rejected: {r}"))?;
    let (info, outcome) = wait_terminal(addr, id, JOB_TIMEOUT).map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if job_ok(&JobEnd::Terminal(info.clone(), outcome), want) {
        Ok(ms)
    } else {
        Err(format!("job {id} ended wrong: {info:?}"))
    }
}

/// Run the serve workload under `plan`.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let (n, span) = jobs_for(if plan.trace {
        plan.budget.half()
    } else {
        plan.budget
    });
    let ((mesh, first, second), setup_s) = repeat_setup(plan.setups, || {
        let mesh = Mesh::start()?;
        let first = schedule(plan.seed, 1, n, span)?;
        let second = if plan.trace {
            schedule(plan.seed, 2, n, span)?
        } else {
            Vec::new()
        };
        // Warm-up: one job of each kind, untimed.
        let (spec, want) = gemm_job(1, 2)?;
        one_job(&mesh.addr, &spec, want)?;
        let (spec, want) = kv_job(3);
        one_job(&mesh.addr, &spec, want)?;
        Ok((mesh, first, second))
    })?;
    let mut untraced = Tracer::new(false);
    let a = open_loop(&mesh.addr, &first, &mut untraced);
    let lat_a = job_latencies(&a);
    let p90 = stats::hd_percentile(&lat_a, 90.0);
    eprintln!(
        "perfbench: serve job p90 {p90:.1} ms at {RATE} jobs/s, limit {P90_LIMIT_MS} ms: {}",
        if p90 <= P90_LIMIT_MS { "met" } else { "missed" }
    );
    if !plan.trace {
        let run_ms: Vec<f64> = a
            .iter()
            .map(|r| {
                r.seen
                    .filter(|_| r.ok)
                    .map_or(f64::INFINITY, |s| (s - r.sent) * 1e3)
            })
            .collect();
        let t = tally(&a);
        let last = a.iter().filter_map(|r| r.seen).fold(0.0, f64::max);
        let e2e = Metrics::from([
            ("setup_s", setup_s),
            ("run_p50_ms", stats::hd_percentile(&run_ms, 50.0)),
            ("run_p90_ms", stats::hd_percentile(&run_ms, 90.0)),
            ("job_p50_ms", stats::hd_percentile(&lat_a, 50.0)),
            ("job_p90_ms", p90),
            ("jobs_per_s", (t.attempted - t.failed) as f64 / last),
            (
                "peak_rss_mb",
                crate::host::peak_rss_mb(None).unwrap_or(f64::NAN) + mesh.peak_rss_mb(),
            ),
        ]);
        return Ok(Outcome {
            tally: t,
            e2e,
            layers: Metrics::new(),
            pes: "2 navp-pe daemons + navp-serve + generator",
            max_pes: 2,
            trace: Tracer::new(false),
        });
    }
    let io_before = mesh.io_counters()?;
    let mut traced = Tracer::new(true);
    let b = open_loop(&mesh.addr, &second, &mut traced);
    let io_after = mesh.io_counters()?;
    let mut min_ms = Vec::new();
    let mut tally_all = tally(&a);
    for i in 0..5 {
        let spec = gemm_spec("dsc1d", 2, 1, 7 + i, 8 + i);
        let want = gemm_checksum(&spec)?;
        match one_job(&mesh.addr, &spec, want) {
            Ok(ms) => {
                min_ms.push(ms);
                tally_all.record(true);
            }
            Err(e) => {
                eprintln!("perfbench: smallest job failed: {e}");
                tally_all.record(false);
            }
        }
    }
    let tb = tally(&b);
    tally_all.attempted += tb.attempted;
    tally_all.failed += tb.failed;
    let mut layers = serve_layers(&a, &b, io_after, io_before)?;
    layers.insert("net.min_job_ms", stats::median(&min_ms));
    layers.insert("net.spawn_ms", spawn_probe()?);
    let (enc, dec) = frame_probe()?;
    layers.insert("net.frame_encode_us", enc);
    layers.insert("net.frame_decode_us", dec);
    layers.insert("failed_frac", tally_all.failed_frac());
    Ok(Outcome {
        tally: tally_all,
        e2e: Metrics::new(),
        layers,
        pes: "2 navp-pe daemons + navp-serve + generator",
        max_pes: 2,
        trace: traced,
    })
}

fn serve_layers(
    a: &[Record],
    b: &[Record],
    after: [f64; 3],
    before: [f64; 3],
) -> Result<Metrics, String> {
    let done: Vec<(&Record, &navp_serve::JobInfo)> = b
        .iter()
        .filter(|r| r.ok)
        .filter_map(|r| match &r.end {
            JobEnd::Terminal(info, _) => Some((r, info)),
            _ => None,
        })
        .collect();
    let ok = done.len().max(1) as f64;
    let med = |f: &dyn Fn(&(&Record, &navp_serve::JobInfo)) -> f64| {
        stats::median(&done.iter().map(f).collect::<Vec<_>>())
    };
    // The server's stamps are whole milliseconds, so their median would
    // mostly read a whole number; their mean keeps the sub-ms shifts.
    let mean = |f: &dyn Fn(&navp_serve::JobInfo) -> u64| {
        done.iter().map(|(_, i)| f(i) as f64).sum::<f64>() / ok
    };
    // The server stamps jobs in ms since its own start; place that epoch
    // on this process's clock from the submit round trips.
    let epoch = med(&|(r, i)| (r.sent + r.acked) / 2.0 - i.queued_ms as f64 / 1e3);
    let rejected = a
        .iter()
        .chain(b)
        .filter(|r| matches!(r.end, JobEnd::Rejected(_)))
        .count();
    let late: Vec<f64> = a
        .iter()
        .chain(b)
        .map(|r| (r.sent - r.due).max(0.0) * 1e3)
        .collect();
    let elapsed = b.iter().filter_map(|r| r.seen).fold(0.0, f64::max);
    let done_of = |kind: JobKind| done.iter().filter(|(r, _)| r.kind == kind).count() as f64;
    let gemm_flops = done_of(JobKind::Gemm) * 2.0 * f64::from(GEMM_N).powi(3);
    let kv_ops = done_of(JobKind::Kv) * f64::from(KV_OPS);
    let untraced = stats::hd_percentile(&job_latencies(a), 50.0);
    let traced = stats::hd_percentile(&job_latencies(b), 50.0);
    Ok(Metrics::from([
        ("serve.submit_ms", med(&|(r, _)| (r.acked - r.sent) * 1e3)),
        (
            "serve.queue_ms",
            mean(&|i| i.started_ms.saturating_sub(i.queued_ms)),
        ),
        (
            "serve.run_ms",
            mean(&|i| i.finished_ms.saturating_sub(i.started_ms)),
        ),
        (
            "serve.notice_ms",
            med(&|(r, i)| (r.seen.unwrap_or(0.0) - epoch - i.finished_ms as f64 / 1e3) * 1e3),
        ),
        ("serve.rejected", rejected as f64),
        ("bench.gen_late_ms", stats::percentile(&late, 90.0)),
        ("bench.trace_overhead_frac", traced / untraced - 1.0),
        ("bench.samples", a.len() as f64),
        (
            "bench.tail_pct",
            stats::tail_percentile(a.len()).unwrap_or(0.0),
        ),
        ("net.io_frames_per_job", (after[0] - before[0]) / ok),
        ("net.io_bytes_per_job", (after[1] - before[1]) / ok),
        ("net.io_syscalls_saved_per_job", (after[2] - before[2]) / ok),
        ("gflops", gemm_flops / elapsed / 1e9),
        ("kv_ops_per_s", kv_ops / elapsed),
    ]))
}

/// The driver's side of a spawned PE's handshake: accept it, assign it
/// an identity, and read its hello. The connection is returned so it
/// stays open until the PE is killed.
fn handshake(listener: &TcpListener) -> Result<(Frame, TcpStream), String> {
    let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    navp_net::cluster::FrameConn::new(stream)
        .send(&Frame::Assign {
            pe: 0,
            pes: 1,
            run: 0,
        })
        .map_err(|e| e.to_string())?;
    let hello = navp_net::cluster::read_frame(&mut reader).map_err(|e| e.to_string())?;
    Ok((hello, reader))
}

/// Median milliseconds from `cluster::spawn_pe` until the new PE's
/// hello arrives.
fn spawn_probe() -> Result<f64, String> {
    let pe_bin = bin("navp-pe")?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let mut ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut child =
            navp_net::cluster::spawn_pe(&pe_bin, &addr, None).map_err(|e| e.to_string())?;
        crate::host::adopt(child.id());
        let hello = handshake(&listener);
        let took = t0.elapsed().as_secs_f64() * 1e3;
        let _ = child.kill();
        let _ = child.wait();
        crate::host::release(child.id());
        match hello?.0 {
            Frame::Hello { .. } => ms.push(took),
            other => return Err(format!("spawned PE sent {other:?} first")),
        }
    }
    Ok(stats::median(&ms))
}

/// Median microseconds to encode and to decode a hop of the `serve`
/// workload's GEMM carrier holding its block row of A.
fn frame_probe() -> Result<(f64, f64), String> {
    let cfg = MmConfig::real(GEMM_N as usize, GEMM_AB as usize);
    let grid = Grid2D::new(1, 2).map_err(|e| e.to_string())?;
    let topo = Topo1D::new(cfg.nb(), grid.cols).map_err(|e| e.to_string())?;
    let (a, b) = cfg.operands().map_err(|e| e.to_string())?;
    let mut cl = phase1d::cluster(&cfg, &topo, &a, &b).map_err(|e| e.to_string())?;
    let home = phase1d::a_home(&cfg, &topo, 0);
    let mut carrier = RowCarrier::new(cfg, topo, 0, phase1d::start_col(&cfg, 0));
    let mut out = StepOutputs::default();
    let store = cl.try_store_mut(home).map_err(|e| e.to_string())?;
    // The first step picks up the block row and asks to hop.
    carrier.step(&mut MsgrCtx::new(home, topo.pes, store, &mut out));
    let msgr = carrier
        .wire_snapshot()
        .ok_or("the carrier has no wire form")?;
    let frame = Frame::Hop {
        id: 1,
        sent_ns: 0,
        msgr,
    };
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut body = Vec::new();
    for _ in 0..500 {
        let t0 = Instant::now();
        body = black_box(frame.encode());
        enc.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let back = black_box(Frame::decode(&body).map_err(|e| format!("{e:?}"))?);
        dec.push(t0.elapsed().as_secs_f64() * 1e6);
        if back != frame {
            return Err("hop frame did not round-trip".into());
        }
    }
    black_box(body);
    Ok((stats::median(&enc), stats::median(&dec)))
}
