//! The job-service daemon: multiplexes concurrent client submissions
//! — GEMM and key-value jobs alike — onto one persistent PE mesh.
//!
//! ```text
//! navp-serve --listen <host:port>
//!            (--join <pe-host:port> ... | --spawn <n>)
//!            [--pe-bin <path>] [--metrics-addr <host:port>]
//!            [--durable-dir <path>] [--durable-keep <n>]
//!            [--journal <path>]
//!            [--queue-cap <n>] [--max-inflight <n>]
//! ```
//!
//! `--join` names already-running `navp-pe --listen` daemons (one per
//! PE, in PE order); `--spawn n` starts `n` local daemons itself on
//! free ports, forwarding `--durable-dir`/`--durable-keep` so the
//! mesh's checkpoint retention matches the service's. Every accepted
//! job runs under its own run namespace (run id = job id), so
//! concurrent runs on the same daemons cannot collide on tags, events
//! or checkpoint directories.
//!
//! `--metrics-addr` serves `GET /metrics` (the `navp_serve_*` set:
//! queue depth, in-flight gauge, admission rejects, job latency and
//! queue age — plus the `navp_kv_*` workload counters, with per-run
//! attribution), `GET /healthz` (JSON with latency and queue-age
//! p50/p99), `GET /debug/jobs` (the job table as JSON) and
//! `GET /debug/flight` (the in-process flight recorder's lanes).
//!
//! The flight recorder is always on: a panic, a `SIGQUIT`, or a run
//! error dumps a checksummed postmortem (`postmortem-*.navpobs`,
//! readable with `navp-submit postmortem`) into `--durable-dir` when
//! set, else the `NAVP_FLIGHT_DIR` directory.
//!
//! `--journal` (default: `jobs.journal` under `--durable-dir` when
//! that is set) keeps a checksummed record of every finished job, so
//! a restarted service still answers `status`/`result`/`list` for
//! them and never reuses a dead run's id.
//!
//! SIGTERM/SIGINT drains gracefully: admission stops (clients get a
//! clean `Draining` rejection), queued and in-flight jobs finish and
//! flush, then the process exits 0.

use navp_serve::{
    job_runner, serve, KvMetrics, MeshOpts, SchedConfig, Scheduler, ServeMetrics, ServerConfig,
    TraceStore,
};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    join: Vec<String>,
    spawn: usize,
    pe_bin: Option<PathBuf>,
    metrics_addr: Option<String>,
    durable_dir: Option<PathBuf>,
    durable_keep: Option<usize>,
    journal: Option<PathBuf>,
    queue_cap: usize,
    max_inflight: usize,
}

const USAGE: &str = "usage: navp-serve --listen <host:port> \
                     (--join <pe-host:port> ... | --spawn <n>) \
                     [--pe-bin <path>] [--metrics-addr <host:port>] \
                     [--durable-dir <path>] [--durable-keep <n>] \
                     [--journal <path>] \
                     [--queue-cap <n>] [--max-inflight <n>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: String::new(),
        join: Vec::new(),
        spawn: 0,
        pe_bin: None,
        metrics_addr: None,
        durable_dir: None,
        durable_keep: None,
        journal: None,
        queue_cap: 64,
        max_inflight: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--listen" => args.listen = value()?,
            "--join" => args.join.push(value()?),
            "--spawn" => {
                let n = value()?;
                args.spawn = n
                    .parse()
                    .map_err(|_| format!("--spawn wants a count, got {n:?}\n{USAGE}"))?;
            }
            "--pe-bin" => args.pe_bin = Some(value()?.into()),
            "--metrics-addr" => args.metrics_addr = Some(value()?),
            "--durable-dir" => args.durable_dir = Some(value()?.into()),
            "--durable-keep" => {
                let n = value()?;
                args.durable_keep = Some(
                    n.parse()
                        .map_err(|_| format!("--durable-keep wants a count, got {n:?}\n{USAGE}"))?,
                );
            }
            "--journal" => args.journal = Some(value()?.into()),
            "--queue-cap" => {
                let n = value()?;
                args.queue_cap = n
                    .parse()
                    .map_err(|_| format!("--queue-cap wants a count, got {n:?}\n{USAGE}"))?;
            }
            "--max-inflight" => {
                let n = value()?;
                args.max_inflight = n
                    .parse()
                    .map_err(|_| format!("--max-inflight wants a count, got {n:?}\n{USAGE}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.listen.is_empty() {
        return Err(format!("--listen is required\n{USAGE}"));
    }
    if args.join.is_empty() && args.spawn == 0 {
        return Err(format!("need --join addresses or --spawn <n>\n{USAGE}"));
    }
    if !args.join.is_empty() && args.spawn != 0 {
        return Err(format!("--join and --spawn are mutually exclusive\n{USAGE}"));
    }
    Ok(args)
}

/// The `/debug/jobs` payload: the scheduler's job table as JSON.
fn jobs_json(sched: &Scheduler) -> String {
    let mut out = String::from("{\"jobs\":[");
    for (i, j) in sched.list().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"state\":\"{}\",\"priority\":{},\"queued_ms\":{},\
             \"started_ms\":{},\"finished_ms\":{},\"detail\":\"",
            j.id,
            j.state.name(),
            j.priority,
            j.queued_ms,
            j.started_ms,
            j.finished_ms,
        );
        navp_obs::json_escape(&j.detail, &mut out);
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// Reserve a free localhost port by binding `:0` and releasing it.
fn free_addr() -> std::io::Result<String> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    Ok(l.local_addr()?.to_string())
}

/// Start `n` local `navp-pe --listen` daemons on free ports,
/// forwarding the durable flags so mesh retention matches ours.
fn spawn_mesh(args: &Args) -> std::io::Result<(Vec<String>, Vec<Child>)> {
    let pe_bin = navp_net::cluster::resolve_pe_bin(args.pe_bin.as_deref())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut addrs = Vec::new();
    let mut children = Vec::new();
    for _ in 0..args.spawn {
        let addr = free_addr()?;
        let mut cmd = Command::new(&pe_bin);
        cmd.args(["--listen", &addr]).stdin(Stdio::null());
        if let Some(dir) = &args.durable_dir {
            cmd.arg("--durable-dir").arg(dir);
        }
        if let Some(keep) = args.durable_keep {
            cmd.args(["--durable-keep", &keep.to_string()]);
        }
        children.push(cmd.spawn()?);
        addrs.push(addr);
    }
    Ok((addrs, children))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("navp-serve: {e}");
            std::process::exit(2);
        }
    };
    navp_net::install_stop_handlers();
    // Flight recorder: dump a postmortem on panic or SIGQUIT, into
    // the durable dir when one is configured.
    navp_obs::install_panic_hook();
    navp_obs::install_sigquit_dump();
    if let Some(dir) = &args.durable_dir {
        navp_obs::set_dump_dir(dir);
    }

    let (join, mut children) = if args.spawn > 0 {
        match spawn_mesh(&args) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("navp-serve: spawning mesh: {e}");
                std::process::exit(1);
            }
        }
    } else {
        (args.join.clone(), Vec::new())
    };

    let metrics = ServeMetrics::new();
    let kv_metrics = KvMetrics::on_registry(&metrics.registry);
    let traces = Arc::new(TraceStore::default());
    let runner = job_runner(
        MeshOpts {
            join: join.clone(),
            pe_bin: args.pe_bin.clone(),
            durable_dir: args.durable_dir.clone(),
            watchdog: Some(Duration::from_secs(120)),
            traces: Some(Arc::clone(&traces)),
        },
        Some(kv_metrics),
    );
    let cfg = ServerConfig {
        sched: SchedConfig {
            queue_cap: args.queue_cap,
            max_inflight: args.max_inflight,
        },
        durable_dir: args.durable_dir.clone(),
        durable_keep: args.durable_keep,
        journal: args.journal.clone(),
        traces: Some(traces),
        mesh_pes: Some(join.len()),
    };
    let server = match serve(&args.listen, cfg, Arc::clone(&metrics), runner) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("navp-serve: cannot bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    println!("navp-serve: listening on {}", server.local_addr());

    if let Some(addr) = &args.metrics_addr {
        let m = Arc::clone(&metrics);
        let health: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || m.health_json());
        let sched = Arc::clone(server.scheduler());
        let jobs_route: navp_metrics::RouteFn =
            Arc::new(move || ("application/json".to_string(), jobs_json(&sched)));
        let flight_route: navp_metrics::RouteFn = Arc::new(|| {
            ("application/json".to_string(), navp_obs::flight_json(256))
        });
        let routes = vec![
            ("/debug/jobs".to_string(), jobs_route),
            ("/debug/flight".to_string(), flight_route),
        ];
        match navp_metrics::serve_http_with(addr, Arc::clone(&metrics.registry), health, routes) {
            Ok(bound) => eprintln!("navp-serve: metrics on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("navp-serve: cannot bind metrics endpoint {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "navp-serve: mesh of {} PE daemon(s): {}",
        join.len(),
        join.join(", ")
    );

    // Park until SIGTERM/SIGINT, then drain: stop admission, let the
    // queue and in-flight runs finish, and exit 0.
    while !navp_net::stop_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("navp-serve: stop requested, draining (new submits rejected)");
    server.drain();
    if !server.wait_idle(Duration::from_secs(600)) {
        eprintln!("navp-serve: drain timed out with work still in flight");
        std::process::exit(1);
    }
    server.shutdown();
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
    eprintln!("navp-serve: drained, bye");
}
