//! Service acceptance: concurrent jobs multiplexed onto ONE persistent
//! 4-PE mesh must (a) overlap in wall-clock time — the mesh is shared,
//! not serialized — (b) each produce the bitwise product of its own
//! inputs (run namespacing keeps tenants apart), (c) keep their
//! per-run durable checkpoint directories apart, (d) survive one
//! tenant being crash-faulted mid-run without perturbing the others,
//! and (e) be observable on `/metrics` while in flight. The
//! `navp-serve` binary itself must drain gracefully on SIGTERM.

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::config::Payload;
use navp_repro::navp_mm::runner::{run_navp, On, Run};
use navp_repro::navp_mm::MmConfig;
use navp_repro::navp_serve::{
    client, gemm_runner, product_checksum, serve, JobSpec, JobState, MeshOpts, SchedConfig,
    ServeMetrics, ServerConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr").to_string();
    drop(l);
    addr
}

/// Kills its children on drop so a panicking test never leaks daemons.
struct Mesh {
    addrs: Vec<String>,
    children: Vec<Child>,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn spawn_mesh(pes: usize, durable_dir: Option<&std::path::Path>) -> Mesh {
    let bin = env!("CARGO_BIN_EXE_navp-pe");
    let addrs: Vec<String> = (0..pes).map(|_| free_addr()).collect();
    let children = addrs
        .iter()
        .map(|a| {
            let mut cmd = Command::new(bin);
            cmd.args(["--listen", a]).stdin(Stdio::null());
            if let Some(dir) = durable_dir {
                cmd.arg("--durable-dir").arg(dir);
            }
            cmd.spawn().expect("spawn navp-pe")
        })
        .collect();
    // Give the listeners a beat to bind; the driver also retries.
    std::thread::sleep(Duration::from_millis(300));
    Mesh { addrs, children }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("navp-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn job(seed_a: u64, seed_b: u64) -> JobSpec {
    JobSpec {
        seed_a,
        seed_b,
        ..JobSpec::example() // dsc1d, n=48, ab=12, 1x4
    }
}

/// The bitwise reference for a spec: the same stage on the in-process
/// thread executor (net-vs-threads parity is already a tested
/// invariant, so this is the product every tenant must reproduce).
fn reference_checksum(spec: &JobSpec) -> u64 {
    let stage = navp_repro::navp_serve::parse_stage(&spec.stage).expect("stage");
    let mut cfg = MmConfig::real(spec.n as usize, spec.ab as usize);
    cfg.payload = Payload::Real {
        seed_a: spec.seed_a,
        seed_b: spec.seed_b,
    };
    let grid = Grid2D::new(spec.rows as usize, spec.cols as usize).expect("grid");
    let out = run_navp(stage, &cfg, grid, Run::on(On::Threads)).expect("reference run");
    assert_eq!(out.verified, Some(true));
    product_checksum(&out.c.expect("reference product"))
}

fn http_get(addr: &str, path: &str) -> std::io::Result<(String, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: navp\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[test]
fn concurrent_jobs_overlap_with_bitwise_products_and_namespaced_checkpoints() {
    let durable = temp_dir("overlap");
    let mesh = spawn_mesh(4, Some(&durable));

    let metrics = ServeMetrics::new();
    let metrics_addr = navp_repro::navp_metrics::serve_http(
        "127.0.0.1:0",
        std::sync::Arc::clone(&metrics.registry),
        std::sync::Arc::new(|| String::from("{}")),
    )
    .expect("metrics endpoint")
    .to_string();

    let runner = gemm_runner(MeshOpts {
        join: mesh.addrs.clone(),
        durable_dir: Some(durable.clone()),
        watchdog: Some(Duration::from_secs(60)),
        ..MeshOpts::default()
    });
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            sched: SchedConfig {
                queue_cap: 16,
                max_inflight: 3,
            },
            ..ServerConfig::default()
        },
        std::sync::Arc::clone(&metrics),
        runner,
    )
    .expect("bind server");
    let addr = server.local_addr().to_string();

    // Three tenants with three distinct input pairs, submitted
    // back-to-back onto the same 4 daemons.
    let specs = [job(11, 12), job(21, 22), job(31, 32)];
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| {
            client::submit(&addr, s.clone())
                .expect("io")
                .expect("admitted")
        })
        .collect();

    // Scrape the service metrics while the runs are in flight: the
    // acceptance criterion is that queue depth and the in-flight gauge
    // are live on /metrics *during* the run.
    let mut saw_inflight = false;
    let scrape_deadline = Instant::now() + WAIT;
    while Instant::now() < scrape_deadline {
        let (status, body) = http_get(&metrics_addr, "/metrics").expect("scrape");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("navp_serve_queue_depth"), "{body}");
        assert!(body.contains("navp_serve_jobs_inflight"), "{body}");
        if body
            .lines()
            .any(|l| l.starts_with("navp_serve_jobs_inflight") && !l.ends_with(" 0"))
        {
            saw_inflight = true;
            break;
        }
        // Don't spin the full deadline if the runs already finished.
        let all_done = ids.iter().all(|&id| {
            matches!(
                client::rpc(&addr, &navp_repro::navp_serve::Request::Status { id }),
                Ok(navp_repro::navp_serve::Response::Job { info }) if info.state.is_terminal()
            )
        });
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_inflight, "never observed navp_serve_jobs_inflight > 0 mid-run");

    let mut infos = Vec::new();
    for (spec, &id) in specs.iter().zip(&ids) {
        let (info, outcome) = client::wait_terminal(&addr, id, WAIT).expect("terminal");
        assert_eq!(info.state, JobState::Done, "job {id}: {}", info.detail);
        let outcome = outcome.expect("outcome");
        assert!(outcome.verified, "job {id} product failed verification");
        assert_eq!(
            outcome.checksum,
            reference_checksum(spec),
            "job {id} product is not bitwise-identical to its reference"
        );
        infos.push(info);
    }

    // Distinct inputs must give distinct products — if run namespacing
    // leaked blocks between tenants, these would collide or corrupt.
    assert_ne!(infos.len(), 0);
    let sums: std::collections::HashSet<u64> = specs.iter().map(reference_checksum).collect();
    assert_eq!(sums.len(), 3, "test needs three distinct expected products");

    // NOT serialized: some pair of runs overlapped in wall-clock time.
    let overlapping = infos.iter().enumerate().any(|(i, a)| {
        infos.iter().skip(i + 1).any(|b| {
            a.started_ms < b.finished_ms && b.started_ms < a.finished_ms
        })
    });
    assert!(
        overlapping,
        "runs were serialized: {:?}",
        infos
            .iter()
            .map(|i| (i.id, i.started_ms, i.finished_ms))
            .collect::<Vec<_>>()
    );

    // Each tenant checkpointed under its own run-<id>/ subdirectory.
    let runs = navp_repro::navp::durable::list_run_dirs(&durable);
    assert_eq!(runs, ids, "per-run durable namespacing");

    server.shutdown();
    drop(mesh);
    std::fs::remove_dir_all(&durable).ok();
}

#[test]
fn crash_faulted_tenant_recovers_without_perturbing_the_other() {
    let mesh = spawn_mesh(4, None);
    let runner = gemm_runner(MeshOpts {
        join: mesh.addrs.clone(),
        watchdog: Some(Duration::from_secs(60)),
        ..MeshOpts::default()
    });
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            sched: SchedConfig {
                queue_cap: 8,
                max_inflight: 2,
            },
            ..ServerConfig::default()
        },
        ServeMetrics::new(),
        runner,
    )
    .expect("bind server");
    let addr = server.local_addr().to_string();

    // Tenant A is crash-faulted mid-run (checkpointing crash: PE 1
    // restarts in place); tenant B runs clean alongside it.
    let faulted = JobSpec {
        fault_spec: navp_repro::navp::FaultPlan::new().crash_pe(1, 1).to_spec(),
        ..job(41, 42)
    };
    let clean = job(51, 52);
    let id_a = client::submit(&addr, faulted.clone())
        .expect("io")
        .expect("admitted");
    let id_b = client::submit(&addr, clean.clone())
        .expect("io")
        .expect("admitted");

    let (info_a, out_a) = client::wait_terminal(&addr, id_a, WAIT).expect("terminal A");
    let (info_b, out_b) = client::wait_terminal(&addr, id_b, WAIT).expect("terminal B");
    assert_eq!(info_a.state, JobState::Done, "faulted job: {}", info_a.detail);
    assert_eq!(info_b.state, JobState::Done, "clean job: {}", info_b.detail);
    let (out_a, out_b) = (out_a.expect("A outcome"), out_b.expect("B outcome"));
    assert!(out_a.verified && out_b.verified);
    assert_eq!(
        out_a.checksum,
        reference_checksum(&faulted),
        "crash-recovered product must still be bitwise-identical"
    );
    assert_eq!(
        out_b.checksum,
        reference_checksum(&clean),
        "the clean tenant must be untouched by its neighbour's crash"
    );

    server.shutdown();
}

#[test]
fn per_job_deadline_times_out_end_to_end() {
    let mesh = spawn_mesh(2, None);
    let runner = gemm_runner(MeshOpts {
        join: mesh.addrs.clone(),
        watchdog: Some(Duration::from_secs(60)),
        ..MeshOpts::default()
    });
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        ServeMetrics::new(),
        runner,
    )
    .expect("bind server");
    let addr = server.local_addr().to_string();
    let spec = JobSpec {
        cols: 2,
        timeout_ms: 1, // a real mesh cannot finish a run in 1 ms
        ..JobSpec::example()
    };
    let id = client::submit(&addr, spec).expect("io").expect("admitted");
    let (info, outcome) = client::wait_terminal(&addr, id, WAIT).expect("terminal");
    assert_eq!(info.state, JobState::TimedOut, "{}", info.detail);
    assert!(info.detail.contains("deadline"), "{}", info.detail);
    assert!(outcome.is_none());
    server.shutdown();
}

#[test]
fn navp_serve_binary_drains_gracefully_on_sigterm() {
    let serve_bin = env!("CARGO_BIN_EXE_navp-serve");
    let pe_bin = env!("CARGO_BIN_EXE_navp-pe");
    let mut child = Command::new(serve_bin)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--spawn",
            "4",
            "--pe-bin",
            pe_bin,
            "--max-inflight",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn navp-serve");
    // The daemon prints its bound address once it is connectable.
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("a first line")
        .expect("readable stdout");
    let addr = first
        .rsplit(' ')
        .next()
        .expect("address on the listen line")
        .to_string();
    assert!(
        first.contains("listening on"),
        "unexpected banner: {first}"
    );

    // Two jobs whose first delivery to PE 1 is fault-delayed by 3 s:
    // they stay in flight deterministically, so the SIGTERM lands with
    // the mesh genuinely busy (a recoverable delay leaves the product
    // intact, so drain still has real work to finish).
    let slow = navp_repro::navp::FaultPlan::new()
        .delay_hop(1, 1, 3.0)
        .to_spec();
    for seed in 0..2u64 {
        let spec = JobSpec {
            fault_spec: slow.clone(),
            ..job(61 + seed, 62 + seed)
        };
        client::submit(&addr, spec).expect("io").expect("admitted");
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM");
    assert!(kill.success());

    // Admission closes with a clean Draining rejection (the stop flag
    // is polled at 100 ms, so allow it a moment to take effect).
    let deadline = Instant::now() + WAIT;
    loop {
        match client::submit(&addr, job(81, 82)).expect("io") {
            Err(navp_repro::navp_serve::RejectReason::Draining) => break,
            Ok(_) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50))
            }
            other => panic!("draining rejection never arrived, last: {other:?}"),
        }
    }

    // The process finishes the queued and in-flight jobs, then exits 0
    // (the drain-timeout failure path exits 1).
    let deadline = Instant::now() + WAIT;
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            None => {
                let _ = child.kill();
                panic!("navp-serve never exited after drain");
            }
        }
    };
    assert!(status.success(), "drain must exit 0, got {status}");
}
