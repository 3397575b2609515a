//! Runs the paper's tables under the calibrated cost model and prints
//! measured-vs-published numbers.

use crate::paper::Table;
use navp::{FaultPlan, FaultStats};
use navp_matrix::Grid2D;
use navp_mm::config::MmConfig;
use navp_mm::gentleman::GentlemanOpts;
use navp_mm::runner::{run_mp_sim, run_navp, run_seq_sim, MpAlg, NavpStage, On, Run, RunnerError};
use navp_sim::CostModel;
use std::fmt::Write as _;

/// Which implementation regenerates a published column.
#[derive(Clone, Copy, Debug)]
pub enum CellImpl {
    /// A NavP stage.
    Navp(NavpStage),
    /// A message-passing baseline.
    Mp(MpAlg),
}

/// Map a published column name onto the implementation that regenerates
/// it (the ScaLAPACK column maps onto the SUMMA stand-in; DESIGN.md
/// documents the substitution).
pub fn impl_of(column: &str) -> CellImpl {
    match column {
        "NavP (1D DSC)" => CellImpl::Navp(NavpStage::Dsc1D),
        "NavP (1D pipeline)" => CellImpl::Navp(NavpStage::Pipe1D),
        "NavP (1D phase)" => CellImpl::Navp(NavpStage::Phase1D),
        "NavP (2D DSC)" => CellImpl::Navp(NavpStage::Dsc2D),
        "NavP (2D pipeline)" => CellImpl::Navp(NavpStage::Pipe2D),
        "NavP (2D phase)" => CellImpl::Navp(NavpStage::Dpc2D),
        "MPI (Gentleman)" => CellImpl::Mp(MpAlg::Gentleman(GentlemanOpts::default())),
        "ScaLAPACK" => CellImpl::Mp(MpAlg::Summa),
        other => panic!("unknown published column: {other}"),
    }
}

/// One regenerated cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Measured virtual time, seconds.
    pub time: f64,
    /// Measured speedup over the clean (non-thrashing) model sequential.
    pub speedup: f64,
    /// The paper's published time.
    pub paper_time: f64,
    /// The paper's published speedup.
    pub paper_speedup: f64,
}

/// One regenerated row (fixed matrix order).
pub struct Row {
    /// Matrix order.
    pub n: usize,
    /// Algorithmic block order.
    pub ab: usize,
    /// Modeled clean sequential time (speedup denominator).
    pub seq_clean: f64,
    /// Modeled sequential time under the 256 MB memory model (thrashes
    /// at large orders, like the paper's measured sequential).
    pub seq_actual: f64,
    /// Cells, one per published column.
    pub cells: Vec<Cell>,
    /// Fault/recovery counters aggregated over the row's NavP cells
    /// (all zero when the table ran fault-free).
    pub faults: FaultStats,
}

/// A fully regenerated table.
pub struct TableResult {
    /// The published table this regenerates.
    pub spec: &'static Table,
    /// Regenerated rows.
    pub rows: Vec<Row>,
}

/// Regenerate every cell of `spec` under `cost`.
pub fn run_table(spec: &'static Table, cost: &CostModel) -> Result<TableResult, RunnerError> {
    run_table_with_faults(spec, cost, None)
}

/// As [`run_table`], running every NavP cell under `plan` (the
/// message-passing baselines have no fault machinery and run clean).
/// With checkpointing on, the regenerated numbers include recovery
/// time; the per-row counters report what was injected and absorbed.
pub fn run_table_with_faults(
    spec: &'static Table,
    cost: &CostModel,
    plan: Option<&FaultPlan>,
) -> Result<TableResult, RunnerError> {
    let grid = Grid2D::new(spec.grid.0, spec.grid.1)?;
    let mut rows = Vec::with_capacity(spec.orders.len());
    for (row_idx, (&n, &ab)) in spec.orders.iter().zip(spec.blocks).enumerate() {
        let cfg = MmConfig::phantom(n, ab);
        // Clean sequential: memory never limits (the paper's fitted
        // extrapolation of the non-thrashing regime).
        let mut clean_model = *cost;
        clean_model.mem_capacity = u64::MAX;
        let seq_clean = run_seq_sim(&cfg, &clean_model)?
            .virt_seconds
            .expect("sim run");
        // Actual sequential: one PE with the real memory limit.
        let seq_actual = run_seq_sim(&cfg, cost)?.virt_seconds.expect("sim run");

        let mut cells = Vec::with_capacity(spec.columns.len());
        let mut faults = FaultStats::default();
        for (col_idx, (name, paper_times)) in spec.columns.iter().enumerate() {
            let out = match impl_of(name) {
                CellImpl::Navp(stage) => run_navp(
                    stage,
                    &cfg,
                    grid,
                    Run::on(On::Sim(cost)).plan(plan.cloned()),
                )?,
                CellImpl::Mp(alg) => run_mp_sim(alg, &cfg, grid, cost)?,
            };
            if let Some(f) = &out.faults {
                faults.absorb(f);
            }
            let time = out.virt_seconds.expect("sim run");
            cells.push(Cell {
                time,
                speedup: seq_clean / time,
                paper_time: paper_times[row_idx],
                paper_speedup: spec.paper_speedup(col_idx, row_idx),
            });
        }
        rows.push(Row {
            n,
            ab,
            seq_clean,
            seq_actual,
            cells,
            faults,
        });
    }
    Ok(TableResult { spec, rows })
}

impl TableResult {
    /// Render the regenerated table next to the published numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.spec.id, self.spec.title);
        let _ = writeln!(
            out,
            "(measured = calibrated virtual-time model; paper = ICPP'05 published)"
        );
        let _ = write!(out, "{:>6} {:>4} | {:>9} {:>9} |", "N", "blk", "seq(s)", "seq-thr");
        for (name, _) in self.spec.columns {
            let _ = write!(out, " {name:^28} |");
        }
        out.push('\n');
        let _ = write!(out, "{:>6} {:>4} | {:>9} {:>9} |", "", "", "", "");
        for _ in self.spec.columns {
            let _ = write!(out, " {:>8} {:>5} {:>6} {:>5} |", "t(s)", "SU", "t-pap", "SUpap");
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(
                out,
                "{:>6} {:>4} | {:>9.2} {:>9.2} |",
                row.n, row.ab, row.seq_clean, row.seq_actual
            );
            for cell in &row.cells {
                let _ = write!(
                    out,
                    " {:>8.2} {:>5.2} {:>6.0} {:>5.2} |",
                    cell.time, cell.speedup, cell.paper_time, cell.paper_speedup
                );
            }
            out.push('\n');
            if row.faults.any() {
                let f = &row.faults;
                let _ = writeln!(
                    out,
                    "{:>11} | faults: crashes={} redelivered={} replayed_writes={} \
                     send_retries={} hops_delayed={} hops_dropped={} signals_lost={}",
                    "",
                    f.crashes,
                    f.redelivered,
                    f.replayed_writes,
                    f.send_retries,
                    f.hops_delayed,
                    f.hops_dropped,
                    f.signals_lost
                );
            }
        }
        out
    }

    /// Worst absolute speedup deviation from the paper, over all cells.
    pub fn max_speedup_deviation(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .map(|c| (c.speedup - c.paper_speedup).abs())
            .fold(0.0, f64::max)
    }

    /// Check the *ordering* of the columns at each row: who wins must
    /// match the paper wherever the paper's own gap is decisive. A row
    /// is a mismatch when some pair of columns is separated by more than
    /// `tol` (relative) in the published numbers AND the measured times
    /// order that pair the other way by more than `tol`.
    pub fn ranking_mismatches(&self, tol: f64) -> Vec<usize> {
        let beats = |a: f64, b: f64| a < b * (1.0 - tol);
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                for x in 0..row.cells.len() {
                    for y in 0..row.cells.len() {
                        let (cx, cy) = (&row.cells[x], &row.cells[y]);
                        if beats(cx.paper_time, cy.paper_time) && beats(cy.time, cx.time) {
                            return true;
                        }
                    }
                }
                false
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn impl_mapping_covers_every_published_column() {
        for t in paper::ALL {
            for (name, _) in t.columns {
                let _ = impl_of(name); // panics on unknown
            }
        }
    }

    #[test]
    fn small_table_run_produces_sane_cells() {
        // A miniature stand-in spec would need a const Table; instead run
        // Table 3's first row only by truncating via a local spec is not
        // possible with &'static — so regenerate Table 3 fully at model
        // speed in release CI, and here just verify the plumbing on the
        // smallest real table (Table 2: one row, one column).
        let res = run_table(&paper::TABLE2, &CostModel::paper_cluster()).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0].cells.len(), 1);
        let row = &res.rows[0];
        // Thrashing sequential must exceed clean sequential substantially.
        assert!(row.seq_actual > 1.5 * row.seq_clean);
        // DSC must land within a factor of ~1.3 of clean sequential.
        let dsc = &row.cells[0];
        assert!(dsc.speedup > 0.7 && dsc.speedup <= 1.05, "DSC {:?}", dsc);
        let art = res.render();
        assert!(art.contains("Table 2"));
        assert!(!art.contains("faults:"), "clean run renders no fault line");
    }

    #[test]
    fn faulted_table_reports_counters() {
        let plan = FaultPlan::new().crash_pe(0, 2);
        let res =
            run_table_with_faults(&paper::TABLE2, &CostModel::paper_cluster(), Some(&plan))
                .unwrap();
        let row = &res.rows[0];
        assert!(row.faults.crashes >= 1, "crash must have been injected");
        assert!(res.render().contains("faults: crashes="));
    }
}
