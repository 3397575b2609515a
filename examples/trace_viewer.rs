//! Trace a live 4-PE run on both real executors and export it for
//! Perfetto.
//!
//! Run with: `cargo run --release --example trace_viewer`
//!
//! The sim executor replays the paper's figures in *virtual* time; this
//! example shows the same instrumentation on *wall* clocks: the 2-D
//! pipelined stage runs once on the thread executor and once as four OS
//! processes over loopback TCP, each with `MmConfig::with_trace(true)`.
//! For each run it prints the derived [`TraceReport`] and the ASCII
//! space-time diagram, then writes Chrome trace-event JSON to
//! `target/trace_threads.json` / `target/trace_net.json` — open either
//! in <https://ui.perfetto.dev> to get one swim-lane per PE with named
//! messenger tracks.
//!
//! The exports are self-checked with [`validate_chrome_json`]; the CI
//! loopback job runs this example as its traced acceptance step.

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run, RunOutput};
use navp_repro::navp_mm::MmConfig;
use navp_repro::navp_trace::{validate_chrome_json, ChromeTrace};
use std::path::Path;
use std::time::Duration;

fn show(tag: &str, out: &RunOutput, pes: usize, path: &Path) {
    let trace = out.trace.as_ref().expect("trace requested");
    let report = out.trace_report.as_ref().expect("report derived");
    println!("== {tag} ==\n");
    println!("{}", trace.render_spacetime(pes, 14));
    println!("{report}");

    let doc = trace.to_chrome_json();
    let sum = validate_chrome_json(&doc).unwrap_or_else(|e| panic!("{tag}: invalid export: {e}"));
    assert_eq!(
        sum.pids,
        (0..pes).collect::<Vec<_>>(),
        "{tag}: every PE must appear in the export"
    );
    assert!(
        sum.execs > 0 && sum.transfers > 0,
        "{tag}: export missing exec/transfer spans"
    );
    std::fs::write(path, &doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "wrote {} ({} events, {} PEs) — open in ui.perfetto.dev\n",
        path.display(),
        sum.events,
        sum.pids.len()
    );
}

fn main() {
    let cfg = MmConfig::real(16, 2);
    let traced = |on| {
        Run::on(on)
            .traced(true)
            .watchdog(Some(Duration::from_secs(60)))
    };
    let grid = Grid2D::new(2, 2).expect("grid");
    let out_dir = Path::new("target");
    std::fs::create_dir_all(out_dir).expect("target dir");

    let threads =
        run_navp(NavpStage::Pipe2D, &cfg, grid, traced(On::Threads)).expect("traced threads run");
    assert_eq!(threads.verified, Some(true));
    show(
        "threads: 4 PEs in one process",
        &threads,
        4,
        &out_dir.join("trace_threads.json"),
    );

    // The same stage as four `navp-pe` OS processes over loopback TCP;
    // per-PE traces ship back on the wire and merge onto the driver's
    // clock. Outside `cargo test` the daemon binary is found next to
    // this example's own executable.
    let opts = NetOpts::default();
    let net =
        run_navp(NavpStage::Pipe2D, &cfg, grid, traced(On::Net(&opts))).expect("traced net run");
    assert_eq!(net.verified, Some(true));
    show(
        "net: 4 PEs as OS processes (loopback TCP)",
        &net,
        4,
        &out_dir.join("trace_net.json"),
    );

    println!("ok: both products verified, both exports validate");
}
