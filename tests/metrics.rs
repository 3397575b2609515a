//! Metrics acceptance: metering must not perturb the computation
//! (metrics-off runs stay bitwise identical), metered counters must
//! reconcile with the executors' own accounting and the trace's span
//! counts, the Prometheus exposition must round-trip through the
//! line-format validator, and a running `navp-pe --metrics-addr`
//! daemon must serve live `/metrics` and `/healthz` mid-run.

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_metrics::{validate_prometheus, MetricsSnapshot, RunMetrics};
use navp_repro::navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run};
use navp_repro::navp_mm::MmConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn run(on: On<'_>) -> Run<'_> {
    // Generous watchdog: CI machines can be slow to spawn 4 processes.
    Run::on(on).watchdog(Some(Duration::from_secs(60)))
}

/// The `navp-pe` daemon this crate ships, resolved by Cargo.
fn net_opts() -> NetOpts {
    NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    }
}

/// Total of a counter family across all label sets, as u64.
fn total(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.total(name) as u64
}

#[test]
fn metrics_off_runs_carry_no_snapshot_and_identical_product() {
    let grid = Grid2D::new(2, 2).expect("grid");
    let cfg = MmConfig::real(16, 2);
    let plain = run_navp(NavpStage::Pipe2D, &cfg, grid, run(On::Threads)).expect("plain");
    assert!(plain.metrics.is_none(), "metrics must be off by default");
    let metered = run_navp(
        NavpStage::Pipe2D,
        &cfg,
        grid,
        run(On::Threads).metrics(true),
    )
    .expect("metered");
    let snap = metered.metrics.expect("metered run returns a snapshot");
    assert!(!snap.samples.is_empty());
    // Metering must not perturb the computation.
    let (a, b) = (plain.c.expect("plain c"), metered.c.expect("metered c"));
    assert_eq!(
        a.max_abs_diff(&b),
        0.0,
        "metered product must be bitwise identical"
    );
    assert_eq!(metered.verified, Some(true));
}

#[test]
fn thread_counters_reconcile_with_run_accounting() {
    // Pipelined 2-D: consumers genuinely park on events, so the wait
    // counters are exercised (phase-shifted stages never park — that
    // is their whole point).
    let grid = Grid2D::new(2, 2).expect("grid");
    let metered = run(On::Threads).metrics(true);
    let out =
        run_navp(NavpStage::Pipe2D, &MmConfig::real(16, 2), grid, metered).expect("metered run");
    let snap = out.metrics.expect("snapshot");
    assert_eq!(
        total(&snap, "navp_hops_total"),
        out.transfers,
        "hop counter disagrees with WallReport.hops"
    );
    assert_eq!(
        total(&snap, "navp_hop_bytes_total"),
        out.bytes,
        "hop-byte counter disagrees with WallReport.hop_bytes"
    );
    // The payload histogram saw exactly one observation per hop.
    assert_eq!(total(&snap, "navp_hop_payload_bytes_count"), out.transfers);
    // Every PE executed steps; messengers were injected somewhere
    // (which PEs inject is the stage's business — hops spread the work).
    for pe in 0..4 {
        let l = format!("{pe}");
        let labels: &[(&str, &str)] = &[("pe", l.as_str())];
        assert!(
            snap.value("navp_steps_total", labels).unwrap_or(0.0) > 0.0,
            "PE {pe} recorded no steps"
        );
    }
    assert!(total(&snap, "navp_injections_total") > 0);
    // Waits park, signals wake: a phase-shifted pipeline has both.
    assert!(total(&snap, "navp_events_waited_total") > 0);
    assert!(total(&snap, "navp_events_signaled_total") > 0);
}

#[test]
fn metered_traced_net_run_reconciles_counters_with_trace_spans() {
    let grid = Grid2D::new(2, 2).expect("grid");
    let opts = net_opts();
    let run = run(On::Net(&opts)).traced(true).metrics(true);
    let out = run_navp(NavpStage::Pipe2D, &MmConfig::real(16, 2), grid, run)
        .expect("metered traced net run");
    assert_eq!(out.verified, Some(true));
    let snap = out.metrics.expect("cluster snapshot merged over the mesh");

    // The merged hop counter agrees with the driver's own tally and
    // with the number of transfer spans in the trace.
    assert_eq!(total(&snap, "navp_hops_total"), out.transfers);
    let trace = out.trace.expect("trace shipped back");
    let transfer_spans = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, navp_repro::navp_trace::TraceKind::Transfer { .. }))
        .count() as u64;
    assert_eq!(
        total(&snap, "navp_hops_total"),
        transfer_spans,
        "hop counter disagrees with trace transfer spans"
    );
    // Tracing was on and nothing was dropped on this tiny run.
    assert_eq!(total(&snap, "navp_trace_dropped_events_total"), 0);
    assert_eq!(out.trace_report.expect("report").dropped, 0);

    // Real wire traffic was metered on both directions; four daemons
    // plus the driver mean decode can exceed the driver-visible bytes,
    // but neither side can be zero.
    assert!(total(&snap, "navp_frame_encode_bytes_total") > 0);
    assert!(total(&snap, "navp_frame_decode_bytes_total") > 0);
    // All four PEs contributed per-PE series to the merged snapshot.
    for pe in 0..4 {
        let l = format!("{pe}");
        let labels: &[(&str, &str)] = &[("pe", l.as_str())];
        assert!(
            snap.value("navp_steps_total", labels).unwrap_or(0.0) > 0.0,
            "PE {pe} missing from merged snapshot"
        );
    }
}

#[test]
fn registry_exposition_round_trips_through_the_validator() {
    let grid = Grid2D::line(4).expect("grid");
    let metrics = RunMetrics::new(4);
    let run = run(On::Threads).metered(std::sync::Arc::clone(&metrics));
    let out = run_navp(NavpStage::Dsc1D, &MmConfig::real(16, 2), grid, run).expect("metered run");
    assert_eq!(out.verified, Some(true));
    let text = metrics.registry.render();
    let sum = validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}"));
    assert!(sum.families >= 10, "expected the full metric set: {sum:?}");
    assert!(sum.samples > sum.families);
    // The rendered text and the snapshot agree on a spot value.
    let snap = out.metrics.expect("snapshot");
    let hops = total(&snap, "navp_hops_total");
    assert!(hops > 0);
    assert!(
        text.contains("# TYPE navp_hops_total counter"),
        "missing counter header:\n{text}"
    );
    assert!(
        text.contains("# TYPE navp_park_wait_ns histogram"),
        "missing histogram header:\n{text}"
    );
}

/// Minimal HTTP/1.1 GET against a local endpoint; returns
/// (status-line, body).
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

/// Reserve a distinct localhost port per slot. Binding port 0 and
/// releasing leaves a tiny race, but the kernel cycles ephemeral ports
/// so an immediate rebind collision is vanishingly unlikely.
fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = l.local_addr().expect("addr").to_string();
    drop(l);
    addr
}

#[test]
fn pe_daemon_serves_live_metrics_and_health_endpoints() {
    let pe_bin = env!("CARGO_BIN_EXE_navp-pe");
    // Two externally-managed daemons, each with its own /metrics.
    let listen: Vec<String> = (0..2).map(|_| free_addr()).collect();
    let metrics: Vec<String> = (0..2).map(|_| free_addr()).collect();
    let mut children: Vec<std::process::Child> = Vec::new();
    for (l, m) in listen.iter().zip(&metrics) {
        children.push(
            std::process::Command::new(pe_bin)
                .args(["--listen", l, "--metrics-addr", m])
                .stdin(std::process::Stdio::null())
                .spawn()
                .expect("spawn navp-pe"),
        );
    }
    let kill_all = |mut children: Vec<std::process::Child>| {
        for c in &mut children {
            let _ = c.kill();
            let _ = c.wait();
        }
    };

    // Both health endpoints are up before any run is assigned (the
    // observability server starts at process birth, not at Assign).
    let deadline = Instant::now() + Duration::from_secs(20);
    for m in &metrics {
        let health = loop {
            match http_get(m, "/healthz") {
                Ok((status, body)) if status.contains("200") => break body,
                _ if Instant::now() > deadline => {
                    kill_all(children);
                    panic!("healthz never came up on {m}");
                }
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        assert!(health.contains("\"pe\""), "not health JSON: {health}");
    }

    // Poll /metrics concurrently so at least some scrapes land while
    // the run is in flight.
    let scrape_addr = metrics[0].clone();
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let poller = std::thread::spawn(move || {
        let mut ok = 0usize;
        while stop_rx.try_recv().is_err() {
            if let Ok((status, body)) = http_get(&scrape_addr, "/metrics") {
                if status.contains("200") && validate_prometheus(&body).is_ok() {
                    ok += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        ok
    });

    // Join the daemons and run a 2-PE stage. The daemons meter because
    // --metrics-addr is set, whatever the driver-side config says.
    let opts = NetOpts {
        join: listen.clone(),
        ..NetOpts::default()
    };
    // The driver sockets bind moments after /healthz comes up; retry a
    // few times to close that window.
    let mut out = Err(navp_repro::navp_mm::runner::RunnerError::Topology(
        "never ran".into(),
    ));
    for attempt in 0..5 {
        let grid = Grid2D::line(2).expect("grid");
        out = run_navp(
            NavpStage::Dsc1D,
            &MmConfig::real(16, 2),
            grid,
            run(On::Net(&opts)),
        );
        if out.is_ok() {
            break;
        }
        eprintln!("join attempt {attempt} failed, retrying");
        std::thread::sleep(Duration::from_millis(200));
    }
    let _ = stop_tx.send(());
    let scrapes_ok = poller.join().expect("poller");
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            kill_all(children);
            panic!("joined net run failed: {e}");
        }
    };
    assert_eq!(out.verified, Some(true));
    assert!(scrapes_ok > 0, "no successful live /metrics scrape");

    // After the run the daemon is still alive and its counters show
    // the work: non-zero hops on at least one PE's registry.
    let mut hops = 0u64;
    let mut healths = Vec::new();
    for m in &metrics {
        let (status, body) = match http_get(m, "/metrics") {
            Ok(r) => r,
            Err(e) => {
                kill_all(children);
                panic!("post-run scrape of {m} failed: {e}");
            }
        };
        assert!(status.contains("200"), "{status}");
        let sum = validate_prometheus(&body)
            .unwrap_or_else(|e| panic!("daemon serves invalid exposition: {e}"));
        assert!(sum.samples > 0);
        for line in body.lines() {
            if line.starts_with("navp_hops_total") {
                if let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
                    hops += v as u64;
                }
            }
        }
        let (hstatus, hbody) = http_get(m, "/healthz").expect("healthz");
        assert!(hstatus.contains("200"), "{hstatus}");
        healths.push(hbody);
    }
    assert!(hops > 0, "daemons served zero navp_hops_total after a run");
    for h in &healths {
        assert!(
            h.contains("\"peers_connected\"") && h.contains("\"last_frame_age_s\""),
            "health JSON missing fields: {h}"
        );
    }
    // Unknown paths 404, wrong methods 405.
    let (status, _) = http_get(&metrics[0], "/nope").expect("404 path");
    assert!(status.contains("404"), "{status}");
    kill_all(children);
}
