//! Transfer accounting: the simulator's trace, its aggregate report,
//! and the networked executor's per-PE counters must all agree on how
//! many bytes the messengers carried.
//!
//! On the simulator every inter-PE hop appends one
//! `TraceKind::Transfer` record of `payload_bytes() + HOP_STATE_BYTES`
//! bytes, so for each stage:
//!
//! * Σ Transfer bytes  == the report's `bytes`,
//! * Transfer count    == the report's `transfers`,
//! * Σ Transfer bytes − count · HOP_STATE_BYTES == Σ payload at hop.
//!
//! The last quantity is re-measured *independently* by the TCP
//! executor (each PE sums `payload_bytes()` as it serializes a hop),
//! so comparing the two catches any executor that double-counts,
//! drops, or mis-sizes a hop.

use navp_repro::navp::sim_exec::HOP_STATE_BYTES;
use navp_repro::navp_matrix::Grid2D;
use navp_repro::navp_mm::runner::{run_navp, run_navp_sim, NavpStage, NetOpts, On, Run};
use navp_repro::navp_mm::MmConfig;
use navp_repro::navp_sim::{CostModel, TraceKind};
use std::time::Duration;

fn grid_for(stage: NavpStage) -> Grid2D {
    if stage.is_1d() {
        Grid2D::line(4).expect("grid")
    } else {
        Grid2D::new(2, 2).expect("grid")
    }
}

#[test]
fn trace_transfer_totals_match_the_report_for_all_six_stages() {
    let cfg = MmConfig::real(16, 2);
    for stage in NavpStage::ALL {
        let grid = grid_for(stage);
        let out = run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), true)
            .unwrap_or_else(|e| panic!("{}: {e}", stage.name()));
        let trace = out.trace.expect("trace requested");

        let mut sum = 0u64;
        let mut count = 0u64;
        for ev in trace.events() {
            if let TraceKind::Transfer { from, to, bytes } = ev.kind {
                if from != to {
                    sum += bytes;
                    count += 1;
                    assert!(
                        bytes >= HOP_STATE_BYTES,
                        "{}: a hop smaller than its own control state ({bytes} B)",
                        stage.name()
                    );
                }
            }
        }
        assert_eq!(
            sum,
            out.bytes,
            "{}: trace byte total disagrees with the report",
            stage.name()
        );
        assert_eq!(
            count,
            out.transfers,
            "{}: trace transfer count disagrees with the report",
            stage.name()
        );
        assert_eq!(sum, trace.bytes_transferred(), "{}", stage.name());
        assert_eq!(count as usize, trace.transfer_count(), "{}", stage.name());
        assert!(count > 0, "{}: a 4-PE run must hop", stage.name());
    }
}

#[test]
fn sim_trace_payloads_equal_net_executor_payload_counters() {
    // Same stage, same data, two executors with completely separate
    // accounting code: the trace-derived payload sum (Transfer bytes
    // minus the per-hop control-state constant) must equal what the
    // PE processes measured with `Messenger::payload_bytes()` at each
    // serialization point.
    let cfg = MmConfig::real(16, 2);
    let opts = NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    };
    for stage in [NavpStage::Dsc1D, NavpStage::Phase1D, NavpStage::Pipe2D] {
        let grid = grid_for(stage);
        let sim = run_navp_sim(stage, &cfg, grid, &CostModel::paper_cluster(), true)
            .unwrap_or_else(|e| panic!("{} sim: {e}", stage.name()));
        let run = Run::on(On::Net(&opts)).watchdog(Some(Duration::from_secs(60)));
        let net = run_navp(stage, &cfg, grid, run)
            .unwrap_or_else(|e| panic!("{} net: {e}", stage.name()));
        let trace = sim.trace.expect("trace requested");
        let sim_payload = trace.bytes_transferred() - HOP_STATE_BYTES * sim.transfers;
        let net_payload: u64 = net
            .per_pe_net
            .expect("per-PE stats")
            .iter()
            .map(|s| s.hop_payload_bytes)
            .sum();
        assert_eq!(
            sim.transfers,
            net.transfers,
            "{}: executors disagree on hop count",
            stage.name()
        );
        assert_eq!(
            sim_payload,
            net_payload,
            "{}: trace payload accounting disagrees with the wire",
            stage.name()
        );
    }
}
