//! A live terminal dashboard over a running NavP computation.
//!
//! The 2-D pipelined stage runs on the thread executor in a worker
//! thread while the main thread polls the *shared* [`RunMetrics`]
//! handle a few times a second and redraws a per-PE table: hop rate,
//! hop bandwidth, busy fraction (1 − parked time per wall second) and
//! current queue depth. Everything is read off lock-free counters —
//! the dashboard never perturbs the run it is watching.
//!
//! ```text
//! cargo run --release --example metrics_dashboard
//! ```

use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_metrics::{MetricsSnapshot, RunMetrics};
use navp_repro::navp_mm::config::MmConfig;
use navp_repro::navp_mm::runner::{run_navp, NavpStage, On, Run};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PES: usize = 4;
const ROUNDS: usize = 8;

/// Per-PE values read out of one snapshot.
#[derive(Clone, Copy, Default)]
struct PeRow {
    hops: f64,
    hop_bytes: f64,
    park_ns: f64,
    queue: f64,
}

fn rows(snap: &MetricsSnapshot) -> [PeRow; PES] {
    let mut out = [PeRow::default(); PES];
    for (pe, row) in out.iter_mut().enumerate() {
        let l = format!("{pe}");
        let labels: &[(&str, &str)] = &[("pe", l.as_str())];
        let v = |name: &str| snap.value(name, labels).unwrap_or(0.0);
        *row = PeRow {
            hops: v("navp_hops_total"),
            hop_bytes: v("navp_hop_bytes_total"),
            park_ns: v("navp_park_ns_total"),
            queue: v("navp_queue_depth"),
        };
    }
    out
}

fn main() {
    let cfg = MmConfig::real(256, 32);
    let grid = Grid2D::new(2, 2).expect("grid");
    let metrics = RunMetrics::new(PES);

    println!(
        "== live metrics: {} x{ROUNDS} on {} threads ==\n",
        NavpStage::Pipe2D.name(),
        PES
    );

    // The run(s), off the main thread. The dashboard holds the same
    // Arc<RunMetrics>, so counters are visible the instant they move.
    let worker_metrics = Arc::clone(&metrics);
    let worker = std::thread::spawn(move || {
        let mut last = None;
        for _ in 0..ROUNDS {
            let run = Run::on(On::Threads).metered(Arc::clone(&worker_metrics));
            let out = run_navp(NavpStage::Pipe2D, &cfg, grid, run).expect("metered run");
            assert_eq!(out.verified, Some(true));
            last = Some(out);
        }
        last.expect("at least one round")
    });

    // Poll-and-redraw loop: ANSI cursor-up rewrites the table in place
    // (on a dumb pipe the frames just stack, which is still readable).
    let interval = Duration::from_millis(150);
    let mut prev = rows(&metrics.snapshot());
    let mut prev_t = Instant::now();
    let mut frames = 0usize;
    let table_lines = PES + 3;
    while !worker.is_finished() {
        std::thread::sleep(interval);
        let now = Instant::now();
        let dt = now.duration_since(prev_t).as_secs_f64().max(1e-9);
        let cur = rows(&metrics.snapshot());
        if frames > 0 {
            print!("\x1b[{table_lines}A");
        }
        println!("  PE    hops/s      KiB/s   busy %   queue");
        println!("  --  --------  ---------  -------  ------");
        for pe in 0..PES {
            let hops_s = (cur[pe].hops - prev[pe].hops) / dt;
            let kib_s = (cur[pe].hop_bytes - prev[pe].hop_bytes) / dt / 1024.0;
            let parked = ((cur[pe].park_ns - prev[pe].park_ns) / 1e9 / dt).clamp(0.0, 1.0);
            let busy = (1.0 - parked) * 100.0;
            println!(
                "  {pe:>2}  {hops_s:>8.1}  {kib_s:>9.1}  {busy:>6.1}%  {:>6}",
                cur[pe].queue as i64
            );
        }
        println!("  frame {:>3}, {dt:.2}s window\x1b[K", frames + 1);
        prev = cur;
        prev_t = now;
        frames += 1;
    }
    let out = worker.join().expect("worker");

    // Final totals from the same registry the table was reading.
    let snap = metrics.snapshot();
    println!("\nrun complete: wall {:?} (last round), verified: {:?}",
        out.wall.expect("wall"), out.verified);
    println!(
        "totals over {ROUNDS} rounds: {} hops, {} hop bytes, {} steps, {} event waits",
        snap.total("navp_hops_total") as u64,
        snap.total("navp_hop_bytes_total") as u64,
        snap.total("navp_steps_total") as u64,
        snap.total("navp_events_waited_total") as u64,
    );
    assert!(frames > 0, "the run ended before a single frame rendered");
    assert!(snap.total("navp_hops_total") > 0.0);
    println!("ok: dashboard polled {frames} frames off live lock-free counters");
}
