//! CLI client for `navp-serve`.
//!
//! ```text
//! navp-submit submit --to <addr> [--kind gemm|kv]
//!                    [--stage dsc1d] [--n 48] [--ab 12]
//!                    [--rows 1] [--cols 4] [--seed-a x] [--seed-b y]
//!                    [--priority p] [--timeout-ms t] [--fault spec]
//!                    [--trace] [--wait]
//! navp-submit status --to <addr> --id <n> [--watch]
//! navp-submit result --to <addr> --id <n>
//! navp-submit cancel --to <addr> --id <n>
//! navp-submit list   --to <addr>
//! navp-submit trace  --to <addr> --id <n> [--out file]
//! navp-submit postmortem <file.navpobs>
//! navp-submit perf   --to <addr> [--jobs-per-client k] [--out file]
//!                    [--check] [job flags as for submit]
//! ```
//!
//! `--kind kv` submits a key-value job (stages `kv_seq`, `kv_dsc`,
//! `kv_pipe`, `kv_phase`): the other flags are re-read as `--n` =
//! operations, `--ab` = batches, `--cols` = PEs (`--rows` must stay
//! 1), `--seed-a` = workload seed and `--seed-b` = value length in
//! bytes (0 = default). Unset flags default to the kv example spec,
//! regardless of flag order.
//!
//! `submit --trace` asks the service to retain the finished run's
//! per-PE execution trace; `trace --id <n>` then fetches it as Chrome
//! trace-event JSON (open in Perfetto / `chrome://tracing`), scoped to
//! exactly that job even on a mesh running many tenants. `status
//! --watch` polls the job twice a second, redrawing one status line
//! until the job reaches a terminal state. `postmortem` reads a
//! flight-recorder black box (`postmortem-*.navpobs`, written by any
//! navp daemon on panic/SIGQUIT/run error), verifies its checksum,
//! and renders the merged event timeline.
//!
//! `perf` measures service throughput (runs/s) and submit-to-result
//! latency (p50/p99) at 1, 4 and 16 concurrent clients, writes the
//! figures as `BENCH_service.json`, and with `--check` gates the
//! fastest batch of a fresh run against the committed baseline at the
//! same >15% tolerance as `perf --check` (exit 1 on regression).

use navp_bench::check::{compare, entries_of, parse_baseline, render_table};
use navp_bench::timing::{write_groups_json, Entry, Group, Metric};
use navp_serve::proto::{JobKind, JobSpec, JobState, Request, Response};
use navp_serve::{client, Client};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: navp-submit <submit|status|result|cancel|list|trace|postmortem|perf> --to <addr> [...]
  submit: [--kind gemm|kv] [--stage s] [--n n] [--ab ab] [--rows r] [--cols c]
          [--seed-a x] [--seed-b y] [--priority p] [--timeout-ms t] [--fault spec]
          [--trace] [--wait]
  status: --id <n> [--watch]
  result|cancel: --id <n>
  trace:  --id <n> [--out file]   (fetch a retained per-job Perfetto trace)
  postmortem: <file.navpobs>      (render a flight-recorder black box)
  perf:   [--jobs-per-client k] [--out file] [--check] plus submit's job flags";

fn die(msg: &str) -> ! {
    eprintln!("navp-submit: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    cmd: String,
    to: String,
    id: u64,
    spec: JobSpec,
    wait: bool,
    watch: bool,
    file: Option<PathBuf>,
    jobs_per_client: usize,
    out: Option<PathBuf>,
    check: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv
        .first()
        .cloned()
        .unwrap_or_else(|| die("missing subcommand"));
    // Resolve --kind first so the other flags overlay the right
    // example spec whatever order they come in.
    let kind = argv
        .iter()
        .position(|a| a == "--kind")
        .map(|i| {
            let v = argv
                .get(i + 1)
                .unwrap_or_else(|| die("--kind needs a value"));
            JobKind::parse(v).unwrap_or_else(|| die(&format!("--kind wants gemm|kv, got {v:?}")))
        })
        .unwrap_or(JobKind::Gemm);
    let mut args = Args {
        cmd,
        to: String::new(),
        id: 0,
        spec: match kind {
            JobKind::Gemm => JobSpec::example(),
            JobKind::Kv => JobSpec::example_kv(),
        },
        wait: false,
        watch: false,
        file: None,
        jobs_per_client: 4,
        out: None,
        check: false,
    };
    let mut it = argv.into_iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        let parse_u64 = |flag: &str, v: String| {
            v.parse::<u64>()
                .unwrap_or_else(|_| die(&format!("{flag} wants a number, got {v:?}")))
        };
        match flag.as_str() {
            "--to" => args.to = value(),
            "--kind" => {
                value(); // consumed in the pre-scan above
            }
            "--id" => args.id = parse_u64("--id", value()),
            "--stage" => args.spec.stage = value(),
            "--n" => args.spec.n = parse_u64("--n", value()) as u32,
            "--ab" => args.spec.ab = parse_u64("--ab", value()) as u32,
            "--rows" => args.spec.rows = parse_u64("--rows", value()) as u32,
            "--cols" => args.spec.cols = parse_u64("--cols", value()) as u32,
            "--seed-a" => args.spec.seed_a = parse_u64("--seed-a", value()),
            "--seed-b" => args.spec.seed_b = parse_u64("--seed-b", value()),
            "--priority" => args.spec.priority = parse_u64("--priority", value()) as u8,
            "--timeout-ms" => args.spec.timeout_ms = parse_u64("--timeout-ms", value()),
            "--fault" => args.spec.fault_spec = value(),
            "--trace" => args.spec.trace = true,
            "--wait" => args.wait = true,
            "--watch" => args.watch = true,
            "--jobs-per-client" => {
                args.jobs_per_client = parse_u64("--jobs-per-client", value()) as usize
            }
            "--out" => args.out = Some(value().into()),
            "--check" => args.check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if args.cmd == "postmortem" && !other.starts_with('-') && args.file.is_none() => {
                args.file = Some(PathBuf::from(other))
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if args.to.is_empty() && args.cmd != "postmortem" {
        die("--to <addr> is required");
    }
    args
}

fn print_info(info: &navp_serve::JobInfo) {
    println!(
        "job {}: {} (priority {}, queued@{}ms started@{}ms finished@{}ms){}{}",
        info.id,
        info.state.name(),
        info.priority,
        info.queued_ms,
        info.started_ms,
        info.finished_ms,
        if info.detail.is_empty() { "" } else { " — " },
        info.detail,
    );
}

fn expect_io<T>(r: std::io::Result<T>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("navp-submit: {e}");
        std::process::exit(1);
    })
}

/// One submit-and-wait round trip on `conn`; returns the
/// client-observed latency. Exits nonzero on rejection or a failed job.
fn run_one(conn: &mut Client, spec: &JobSpec) -> Duration {
    let t = Instant::now();
    let id = match expect_io(conn.submit(spec.clone())) {
        Ok(id) => id,
        Err(reason) => {
            eprintln!("navp-submit: rejected: {reason}");
            std::process::exit(1);
        }
    };
    let (info, outcome) = expect_io(conn.wait_terminal(id, Duration::from_secs(600)));
    if info.state != JobState::Done || !outcome.as_ref().is_some_and(|o| o.verified) {
        eprintln!(
            "navp-submit: job {id} ended {}: {}",
            info.state.name(),
            info.detail
        );
        std::process::exit(1);
    }
    t.elapsed()
}

/// One timed batch at concurrency `c`: `c` clients each running
/// `jobs_per_client` sequential submit-and-wait round trips over one
/// connection. Returns (batch wall time, every client-observed
/// latency).
fn perf_batch(args: &Args, c: usize) -> (u64, Vec<u64>) {
    let t = Instant::now();
    let lats: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..c)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = expect_io(Client::connect(&args.to));
                    (0..args.jobs_per_client)
                        .map(|_| run_one(&mut conn, &args.spec))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t.elapsed().as_nanos() as u64;
    let mut sorted: Vec<u64> = lats.iter().map(|d| d.as_nanos() as u64).collect();
    sorted.sort_unstable();
    (elapsed, sorted)
}

/// (min, median, p90) of per-batch values — the shape `Entry` stores,
/// so the regression gate compares medians over batches, not a single
/// noisy measurement.
fn batch_stats(mut vals: Vec<u64>) -> (u64, u64, u64) {
    vals.sort_unstable();
    let at = |p: f64| vals[((vals.len() - 1) as f64 * p).round() as usize];
    (vals[0], at(0.5), at(0.9))
}

const PERF_BATCHES: usize = 5;

fn cmd_perf(args: &Args) {
    let concurrencies: &[usize] = &[1, 4, 16];
    let mut throughput = Group::new("service_throughput").sample_size(PERF_BATCHES);
    let mut latency = Group::new("service_latency").sample_size(PERF_BATCHES);
    for &c in concurrencies {
        let total = c * args.jobs_per_client;
        // One untimed warm-up batch soaks connection setup, thread
        // spawn and page-cache effects out of the gated figures.
        let _ = perf_batch(args, c);
        let mut elapsed = Vec::new();
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        for _ in 0..PERF_BATCHES {
            let (wall, sorted) = perf_batch(args, c);
            let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
            elapsed.push(wall);
            p50s.push(q(0.50));
            p99s.push(q(0.99));
        }
        let (min_ns, median_ns, p90_ns) = batch_stats(elapsed);
        throughput.record(Entry {
            label: format!("c{c}"),
            samples: total,
            min_ns,
            median_ns,
            p90_ns,
            metric: Some(Metric::Runs(total as u64)),
        });
        for (name, vals) in [("p50", p50s), ("p99", p99s)] {
            let (min_ns, median_ns, p90_ns) = batch_stats(vals);
            latency.record(Entry {
                label: format!("{name}_c{c}"),
                samples: total,
                min_ns,
                median_ns,
                p90_ns,
                metric: None,
            });
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_service.json"));
    let groups = [throughput, latency];
    if args.check {
        let text = std::fs::read_to_string(&out).unwrap_or_else(|e| {
            eprintln!(
                "navp-submit: cannot read baseline {}: {e}\n\
                 run `navp-submit perf` without --check first to write it",
                out.display()
            );
            std::process::exit(2);
        });
        let old = parse_baseline(&text).unwrap_or_else(|e| {
            eprintln!("navp-submit: {}: {e}", out.display());
            std::process::exit(2);
        });
        let new = entries_of(&groups);
        let deltas = compare(&old, &new, 0.15);
        println!("\n{}", render_table(&deltas));
        if deltas.iter().any(|d| d.fail) {
            eprintln!("navp-submit: service perf regression past 15%");
            std::process::exit(1);
        }
        println!("service perf within tolerance of {}", out.display());
    } else {
        expect_io(write_groups_json(&out, &groups));
        println!("wrote {}", out.display());
    }
}

/// Fetch the retained per-job trace, validate it really is a Chrome
/// trace-event document, and write it to `--out` (or stdout).
fn cmd_trace(args: &Args) {
    let json = client::fetch_trace(&args.to, args.id).unwrap_or_else(|e| {
        eprintln!("navp-submit: trace {}: {e}", args.id);
        std::process::exit(1);
    });
    let sum = navp_trace::validate_chrome_json(&json).unwrap_or_else(|e| {
        eprintln!("navp-submit: job {} returned an invalid trace: {e}", args.id);
        std::process::exit(1);
    });
    match &args.out {
        Some(path) => {
            expect_io(std::fs::write(path, &json));
            println!(
                "job {}: trace with {} event(s) over {} PE(s) -> {} (open in Perfetto)",
                args.id,
                sum.events,
                sum.pids.len(),
                path.display()
            );
        }
        None => println!("{json}"),
    }
}

/// Render a flight-recorder black box: per-lane inventory, then the
/// merged timeline (all lanes interleaved by timestamp).
fn cmd_postmortem(path: &Path) {
    use navp_obs::{EventKind, Record};
    let records = navp_obs::read_postmortem(path).unwrap_or_else(|e| {
        eprintln!("navp-submit: {}: {e:?}", path.display());
        std::process::exit(1);
    });
    let mut lanes: Vec<(String, u64, usize)> = Vec::new();
    let mut timeline: Vec<(String, navp_obs::FlightEvent)> = Vec::new();
    for rec in &records {
        match rec {
            Record::Meta { reason, pid } => {
                println!("{}: pid {pid}, reason: {reason}", path.display());
            }
            Record::Lane { name, dropped } => lanes.push((name.clone(), *dropped, 0)),
            Record::Event(ev) => {
                let lane = lanes.last_mut().unwrap_or_else(|| {
                    eprintln!("navp-submit: event before any lane record");
                    std::process::exit(1);
                });
                lane.2 += 1;
                timeline.push((lane.0.clone(), *ev));
            }
        }
    }
    for (name, dropped, kept) in &lanes {
        println!("  lane {name:<10} {kept} event(s), {dropped} dropped to wraparound");
    }
    // Stable sort: events within one lane are already oldest-first,
    // so equal timestamps keep their lane order.
    timeline.sort_by_key(|(_, ev)| ev.t_ns);
    println!("  timeline ({} event(s), merged oldest-first):", timeline.len());
    for (lane, ev) in &timeline {
        let kind = EventKind::from_u8(ev.kind).map(EventKind::name).unwrap_or("?");
        println!(
            "    [{:>12.3}ms] {:<10} pe {:<3} run {:<4} {:<15} id {:<5} span {:>10.3}ms a={} b={}",
            ev.t_ns as f64 / 1e6,
            lane,
            ev.pe,
            ev.run,
            kind,
            ev.id,
            ev.t_ns.saturating_sub(ev.t0_ns) as f64 / 1e6,
            ev.a,
            ev.b,
        );
    }
}

/// `status --watch`: redraw one status line twice a second until the
/// job goes terminal; exit 0 for Done, 1 otherwise.
fn cmd_status_watch(args: &Args) {
    use std::io::Write as _;
    loop {
        let info = match expect_io(client::rpc(&args.to, &Request::Status { id: args.id })) {
            Response::Job { info } => info,
            Response::Error { detail } => {
                eprintln!("navp-submit: {detail}");
                std::process::exit(1);
            }
            other => die(&format!("unexpected response {other:?}")),
        };
        let line = format!(
            "job {}: {} (priority {}, queued@{}ms started@{}ms finished@{}ms){}{}",
            info.id,
            info.state.name(),
            info.priority,
            info.queued_ms,
            info.started_ms,
            info.finished_ms,
            if info.detail.is_empty() { "" } else { " — " },
            info.detail,
        );
        if info.state.is_terminal() {
            println!("\r\x1b[2K{line}");
            std::process::exit(if info.state == JobState::Done { 0 } else { 1 });
        }
        print!("\r\x1b[2K{line}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(500));
    }
}

fn main() {
    let args = parse_args();
    match args.cmd.as_str() {
        "submit" => {
            match expect_io(client::submit(&args.to, args.spec.clone())) {
                Ok(id) => {
                    println!("submitted job {id}");
                    if args.wait {
                        let (info, outcome) = expect_io(client::wait_terminal(
                            &args.to,
                            id,
                            Duration::from_secs(600),
                        ));
                        print_info(&info);
                        if let Some(o) = outcome {
                            println!(
                                "checksum {:#018x} verified {} wall {} ms",
                                o.checksum, o.verified, o.wall_ms
                            );
                        }
                        if info.state != JobState::Done {
                            std::process::exit(1);
                        }
                    }
                }
                Err(reason) => {
                    eprintln!("navp-submit: rejected, {reason}");
                    std::process::exit(3);
                }
            }
        }
        "status" if args.watch => cmd_status_watch(&args),
        "status" => match expect_io(client::rpc(&args.to, &Request::Status { id: args.id })) {
            Response::Job { info } => print_info(&info),
            Response::Error { detail } => {
                eprintln!("navp-submit: {detail}");
                std::process::exit(1);
            }
            other => die(&format!("unexpected response {other:?}")),
        },
        "result" => match expect_io(client::rpc(&args.to, &Request::Result { id: args.id })) {
            Response::Outcome { info, outcome } => {
                print_info(&info);
                match outcome {
                    Some(o) => println!(
                        "checksum {:#018x} verified {} wall {} ms",
                        o.checksum, o.verified, o.wall_ms
                    ),
                    None => println!("no outcome (job not done)"),
                }
            }
            Response::Error { detail } => {
                eprintln!("navp-submit: {detail}");
                std::process::exit(1);
            }
            other => die(&format!("unexpected response {other:?}")),
        },
        "cancel" => match expect_io(client::rpc(&args.to, &Request::Cancel { id: args.id })) {
            Response::Cancelled { id, ok } => {
                println!("cancel {id}: {}", if ok { "cancelled" } else { "too late" });
                if !ok {
                    std::process::exit(1);
                }
            }
            Response::Error { detail } => {
                eprintln!("navp-submit: {detail}");
                std::process::exit(1);
            }
            other => die(&format!("unexpected response {other:?}")),
        },
        "list" => match expect_io(client::rpc(&args.to, &Request::List)) {
            Response::Jobs { jobs } => {
                println!("{} job(s)", jobs.len());
                for info in &jobs {
                    print_info(info);
                }
            }
            other => die(&format!("unexpected response {other:?}")),
        },
        "trace" => cmd_trace(&args),
        "postmortem" => match &args.file {
            Some(path) => cmd_postmortem(path),
            None => die("postmortem needs a file argument"),
        },
        "perf" => cmd_perf(&args),
        other => die(&format!("unknown subcommand {other:?}")),
    }
}
