//! Wall-clock tracing acceptance: traced runs of the *real* executors
//! (threads, net) must record a well-formed span timeline, derive a
//! sane [`TraceReport`], export valid Chrome/Perfetto JSON — and must
//! not perturb the computation (products stay bitwise identical, and
//! an untraced run carries no trace at all).

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::runner::{run_navp, run_navp_sim, NavpStage, NetOpts, On, Run, RunOutput};
use navp_repro::navp_mm::MmConfig;
use navp_repro::navp_sim::CostModel;
use navp_repro::navp_trace::{validate_chrome_json, ChromeTrace, Trace, TraceKind};
use std::time::Duration;

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

fn traced_threads(stage: NavpStage, grid: Grid2D) -> RunOutput {
    run_navp(
        stage,
        &MmConfig::real(16, 2),
        grid,
        run(On::Threads).traced(true),
    )
    .unwrap_or_else(|e| panic!("{} traced threads: {e}", stage.name()))
}

/// Inter-PE transfer spans (self-hops excluded).
fn inter_pe_transfers(trace: &Trace) -> usize {
    trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Transfer { from, to, .. } if from != to))
        .count()
}

#[test]
fn untraced_runs_carry_no_trace() {
    let grid = Grid2D::line(4).expect("grid");
    let out = run_navp(
        NavpStage::Dsc1D,
        &MmConfig::real(16, 2),
        grid,
        run(On::Threads),
    )
    .expect("untraced run");
    assert!(out.trace.is_none(), "tracing must be off by default");
    assert!(out.trace_report.is_none());
    assert_eq!(out.verified, Some(true));
}

#[test]
fn tracing_does_not_perturb_the_product() {
    let grid = Grid2D::new(2, 2).expect("grid");
    let plain = run_navp(
        NavpStage::Pipe2D,
        &MmConfig::real(16, 2),
        grid,
        run(On::Threads),
    )
    .expect("untraced");
    let traced = traced_threads(NavpStage::Pipe2D, grid);
    let (a, b) = (plain.c.expect("untraced c"), traced.c.expect("traced c"));
    assert_eq!(
        a.max_abs_diff(&b),
        0.0,
        "traced product must be bitwise identical"
    );
    assert_eq!(traced.verified, Some(true));
}

#[test]
fn threads_exec_spans_are_monotone_and_cover_every_pe() {
    let out = traced_threads(NavpStage::Phase1D, Grid2D::line(4).expect("grid"));
    let trace = out.trace.expect("trace requested");
    // Every span is well-formed (merged timeline starts at 0, ends
    // never precede starts).
    for e in trace.events() {
        assert!(e.end >= e.start, "span ends before it starts: {e:?}");
    }
    // Exec spans on one PE come from one worker thread: in merged
    // (start-sorted) order they must not overlap.
    let mut last_end = [0u64; 4];
    let mut execs = [0usize; 4];
    for e in trace.events() {
        if let TraceKind::Exec { pe } = e.kind {
            assert!(pe < 4, "exec on unknown PE {pe}");
            assert!(
                e.start.0 >= last_end[pe],
                "overlapping exec spans on PE {pe}: start {} < previous end {}",
                e.start.0,
                last_end[pe]
            );
            last_end[pe] = e.end.0;
            execs[pe] += 1;
        }
    }
    assert!(
        execs.iter().all(|&n| n > 0),
        "every PE must execute: {execs:?}"
    );
    assert!(inter_pe_transfers(&trace) > 0, "no hops recorded");

    let report = out.trace_report.expect("report derived");
    assert_eq!(report.pes, 4);
    assert_eq!(report.dropped, 0, "16x16 run must fit the ring buffers");
    assert!(report.makespan > 0.0);
    assert!(
        report.pipeline_fill.is_some(),
        "all PEs ran, so fill time is defined"
    );
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    assert!(report.hop_latency.count > 0);
    assert!(report.hop_latency.p50 <= report.hop_latency.max);
    assert!(!report.itineraries.is_empty());
}

#[test]
fn sim_and_threads_trace_shapes_agree_on_dsc1d() {
    let grid = Grid2D::line(4).expect("grid");
    let config = MmConfig::real(16, 2);
    let sim = run_navp_sim(
        NavpStage::Dsc1D,
        &config,
        grid,
        &CostModel::paper_cluster(),
        true,
    )
    .expect("sim run");
    let thr = traced_threads(NavpStage::Dsc1D, grid);
    let (st, tt) = (sim.trace.expect("sim trace"), thr.trace.expect("thr trace"));
    // Same algorithm, same grid: identical hop structure and bytes on
    // the wire, whichever executor ran it.
    assert_eq!(
        inter_pe_transfers(&st),
        inter_pe_transfers(&tt),
        "sim and threads disagree on inter-PE hop count"
    );
    assert_eq!(
        st.bytes_transferred(),
        tt.bytes_transferred(),
        "sim and threads disagree on bytes moved"
    );
    // Both cover the same PEs with compute.
    let pes_with_exec = |t: &Trace| {
        let mut seen = [false; 4];
        for e in t.events() {
            if let TraceKind::Exec { pe } = e.kind {
                seen[pe] = true;
            }
        }
        seen
    };
    assert_eq!(pes_with_exec(&st), pes_with_exec(&tt));
}

#[test]
fn chrome_export_roundtrips_through_the_validator() {
    let out = traced_threads(NavpStage::Pipe1D, Grid2D::line(4).expect("grid"));
    let trace = out.trace.expect("trace requested");
    let doc = trace.to_chrome_json();
    let sum = validate_chrome_json(&doc).unwrap_or_else(|e| panic!("invalid export: {e}"));
    assert_eq!(sum.events, trace.events().len());
    assert_eq!(sum.pids, vec![0, 1, 2, 3], "every PE appears in the export");
    assert!(sum.execs > 0, "no exec spans exported");
    assert!(sum.transfers > 0, "no transfer spans exported");
}

#[test]
fn traced_net_run_covers_every_pe() {
    let grid = Grid2D::new(2, 2).expect("grid");
    let opts = net_opts();
    let traced = run(On::Net(&opts)).traced(true);
    let out =
        run_navp(NavpStage::Pipe2D, &MmConfig::real(16, 2), grid, traced).expect("traced net run");
    assert_eq!(out.verified, Some(true), "tracing must not corrupt the product");
    let trace = out.trace.expect("net trace shipped back");

    // The merged timeline covers all four processes with compute and
    // real wire transfers, and blocking waits were observed somewhere.
    let mut exec_on = [false; 4];
    let (mut transfers, mut blocks) = (0usize, 0usize);
    for e in trace.events() {
        match e.kind {
            TraceKind::Exec { pe } => exec_on[pe] = true,
            TraceKind::Transfer { from, to, .. } if from != to => transfers += 1,
            TraceKind::Block { .. } => blocks += 1,
            _ => {}
        }
    }
    assert_eq!(exec_on, [true; 4], "some PE recorded no exec spans");
    assert!(transfers > 0, "no inter-PE transfers recorded");
    assert!(blocks > 0, "pipelined 2-D run must record event waits");

    // Clock-offset correction kept the merged timeline sane.
    for e in trace.events() {
        assert!(e.end >= e.start, "span ends before it starts: {e:?}");
    }

    let report = out.trace_report.expect("report derived");
    assert_eq!(report.pes, 4);
    assert!(report.hop_latency.count > 0);
    assert!(report.pipeline_fill.is_some());

    // And the export is Perfetto-openable, covering all four PEs.
    let sum = validate_chrome_json(&trace.to_chrome_json())
        .unwrap_or_else(|e| panic!("invalid export: {e}"));
    assert_eq!(sum.pids, vec![0, 1, 2, 3]);
    assert!(sum.execs > 0 && sum.transfers > 0 && sum.blocks > 0);

    // The spacetime renderer accepts a wall-clock trace unchanged.
    let art = trace.render_spacetime(4, 12);
    assert!(art.lines().count() >= 12, "spacetime diagram too short:\n{art}");
}
