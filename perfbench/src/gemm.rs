//! The GEMM workloads, `journey` and `gemm_large`: NavP stages driven on
//! the thread executor through each layer's public entry points.

use crate::spans::{SpanId, Tracer};
use crate::{check, closed_bench_layers, closed_e2e, closed_loop, derive_seed, repeat_setup};
use crate::{total, Loop, Metrics, Outcome, Plan};
use navp::{Cluster, RunError, ThreadExecutor};
use navp_matrix::{BlockedMatrix, Grid2D, Matrix};
use navp_mm::runner::{run_navp_sim, NavpStage};
use navp_mm::util::{collect_c, Topo1D, Topo2D};
use navp_mm::{dpc2d, dsc1d, dsc2d, phase1d, pipe1d, pipe2d, MmConfig, Payload};
use navp_sim::CostModel;
use std::hint::black_box;
use std::time::Instant;

/// One GEMM workload: a problem and the stages one operation runs.
pub struct Shape {
    cfg: MmConfig,
    stages: Vec<(NavpStage, Grid2D)>,
    pes: &'static str,
    max_pes: usize,
}

fn grid(rows: usize, cols: usize) -> Grid2D {
    Grid2D::new(rows, cols).expect("nonzero grid")
}

fn config(n: usize, ab: usize, seed: u64) -> MmConfig {
    MmConfig {
        payload: Payload::Real {
            seed_a: derive_seed(seed, 1),
            seed_b: derive_seed(seed, 2),
        },
        ..MmConfig::real(n, ab)
    }
}

impl Shape {
    /// All six stages back to back at n=256, ab=32: the 1-D stages on a
    /// 2-PE line, the 2-D stages on a 2x2 grid.
    pub fn journey(seed: u64) -> Shape {
        let stages = NavpStage::ALL
            .into_iter()
            .map(|s| (s, if s.is_1d() { grid(1, 2) } else { grid(2, 2) }))
            .collect();
        Shape {
            cfg: config(256, 32, seed),
            stages,
            pes: "1-D stages 1x2, 2-D stages 2x2",
            max_pes: 4,
        }
    }

    /// The 1-D phase-shifted stage at the paper's N=1536, block order
    /// 128, on a 2-PE line.
    pub fn large(seed: u64) -> Shape {
        Shape {
            cfg: config(1536, 128, seed),
            stages: vec![(NavpStage::Phase1D, grid(1, 2))],
            pes: "phase1d 1x2",
            max_pes: 2,
        }
    }

    fn flops_per_op(&self) -> f64 {
        2.0 * (self.cfg.n as f64).powi(3) * self.stages.len() as f64
    }
}

fn stage_span(stage: NavpStage) -> &'static str {
    match stage {
        NavpStage::Dsc1D => "mm.stage.dsc1d",
        NavpStage::Pipe1D => "mm.stage.pipe1d",
        NavpStage::Phase1D => "mm.stage.phase1d",
        NavpStage::Dsc2D => "mm.stage.dsc2d",
        NavpStage::Pipe2D => "mm.stage.pipe2d",
        NavpStage::Dpc2D => "mm.stage.dpc2d",
    }
}

fn stage_metric(stage: NavpStage) -> &'static str {
    match stage {
        NavpStage::Dsc1D => "mm.stage_ms.dsc1d",
        NavpStage::Pipe1D => "mm.stage_ms.pipe1d",
        NavpStage::Phase1D => "mm.stage_ms.phase1d",
        NavpStage::Dsc2D => "mm.stage_ms.dsc2d",
        NavpStage::Pipe2D => "mm.stage_ms.pipe2d",
        NavpStage::Dpc2D => "mm.stage_ms.dpc2d",
    }
}

type Owner = Box<dyn Fn(usize, usize) -> usize>;

/// A stage's `cluster` builder plus the map from C block to owning PE.
fn build(
    stage: NavpStage,
    cfg: &MmConfig,
    grid: Grid2D,
    a: &BlockedMatrix,
    b: &BlockedMatrix,
) -> Result<(Cluster, Owner), String> {
    let err = |e: RunError| e.to_string();
    if stage.is_1d() {
        let topo = Topo1D::new(cfg.nb(), grid.cols).map_err(|e| e.to_string())?;
        let cl = match stage {
            NavpStage::Dsc1D => dsc1d::cluster(cfg, &topo, a, b),
            NavpStage::Pipe1D => pipe1d::cluster(cfg, &topo, a, b),
            _ => phase1d::cluster(cfg, &topo, a, b),
        }
        .map_err(err)?;
        Ok((cl, Box::new(move |_, bj| topo.pe_of_col(bj))))
    } else {
        let topo = Topo2D::new(cfg.nb(), grid).map_err(|e| e.to_string())?;
        let cl = match stage {
            NavpStage::Dsc2D => dsc2d::cluster(cfg, &topo, a, b),
            NavpStage::Pipe2D => pipe2d::cluster(cfg, &topo, a, b),
            _ => dpc2d::cluster(cfg, &topo, a, b),
        }
        .map_err(err)?;
        Ok((cl, Box::new(move |bi, bj| topo.node_of_block(bi, bj))))
    }
}

/// What one stage of one operation returned.
pub struct StageOut {
    c: Option<Matrix>,
    steps: u64,
    hops: u64,
    hop_bytes: u64,
}

/// One timed operation: every stage of the shape, each through
/// `MmConfig::operands`, the stage's `cluster` builder,
/// `ThreadExecutor::run` and `util::collect_c`.
fn op(shape: &Shape, tr: &mut Tracer, root: SpanId) -> Result<Vec<StageOut>, String> {
    let cfg = &shape.cfg;
    let mut outs = Vec::with_capacity(shape.stages.len());
    for &(stage, grid) in &shape.stages {
        let sp = tr.open(stage_span(stage), root);
        let (a, b) = tr
            .time("mm.operands", sp, || cfg.operands())
            .map_err(|e| e.to_string())?;
        let (cl, owner) = tr.time("mm.cluster", sp, || build(stage, cfg, grid, &a, &b))?;
        let mut rep = tr
            .time("core.exec", sp, || ThreadExecutor::new().run(cl))
            .map_err(|e| e.to_string())?;
        let c = tr
            .time("mm.collect", sp, || collect_c(&mut rep.stores, cfg, owner))
            .map_err(|e| e.to_string())?;
        tr.close(sp);
        outs.push(StageOut {
            c,
            steps: rep.steps,
            hops: rep.hops,
            hop_bytes: rep.hop_bytes,
        });
    }
    Ok(outs)
}

/// Counts of one operation, summed over its stages.
#[derive(Default, Clone, Copy, PartialEq)]
struct Counts {
    steps: u64,
    hops: u64,
    hop_bytes: u64,
}

fn counts(outs: &[StageOut]) -> Counts {
    outs.iter().fold(Counts::default(), |acc, o| Counts {
        steps: acc.steps + o.steps,
        hops: acc.hops + o.hops,
        hop_bytes: acc.hop_bytes + o.hop_bytes,
    })
}

/// Microseconds per `gemm_acc` call at block order `ab`, and its rate.
pub fn kernel_probe(ab: usize) -> (f64, f64) {
    let a = navp_matrix::gen::seeded_matrix(ab, 11);
    let b = navp_matrix::gen::seeded_matrix(ab, 12);
    let mut c = vec![0.0; ab * ab];
    let flops = 2.0 * (ab as f64).powi(3);
    // Calls per sample, so one sample takes about 100 µs.
    let reps = ((1e5 / flops) as usize).max(1);
    let mut us = Vec::new();
    let start = Instant::now();
    while us.len() < 50 || (start.elapsed().as_secs_f64() < 0.2 && us.len() < 2000) {
        let t0 = Instant::now();
        for _ in 0..reps {
            navp_matrix::kernel::gemm_acc(
                black_box(&mut c),
                black_box(a.as_slice()),
                black_box(b.as_slice()),
                ab,
                ab,
                ab,
            );
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    black_box(&c);
    let per_call = crate::stats::median(&us);
    (per_call, flops / per_call / 1e3)
}

/// Milliseconds for one plain single-threaded `gemm_acc` over the whole
/// problem: the sequential baseline.
fn seq_probe(cfg: &MmConfig) -> f64 {
    let (seed_a, seed_b) = match cfg.payload {
        Payload::Real { seed_a, seed_b } => (seed_a, seed_b),
        Payload::Phantom => (1, 2),
    };
    let n = cfg.n;
    let a = navp_matrix::gen::seeded_matrix(n, seed_a);
    let b = navp_matrix::gen::seeded_matrix(n, seed_b);
    let mut ms = Vec::new();
    for _ in 0..3 {
        let mut c = vec![0.0; n * n];
        let t0 = Instant::now();
        navp_matrix::kernel::gemm_acc(&mut c, a.as_slice(), b.as_slice(), n, n, n);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(&c);
    }
    crate::stats::median(&ms)
}

/// Makespan the sim predicts for one operation, under the ideal network
/// with the flop rate measured on this host.
fn sim_probe(shape: &Shape, gflops: f64) -> Result<f64, String> {
    let cost = CostModel {
        flop_rate: gflops * 1e9,
        ..CostModel::ideal_network()
    };
    let phantom = MmConfig::phantom(shape.cfg.n, shape.cfg.ab);
    let mut secs = 0.0;
    for &(stage, grid) in &shape.stages {
        let out = run_navp_sim(stage, &phantom, grid, &cost, false).map_err(|e| e.to_string())?;
        secs += out.virt_seconds.unwrap_or(0.0);
    }
    Ok(secs * 1e3)
}

/// Run a GEMM workload under `plan`.
pub fn run(shape: Shape, plan: &Plan) -> Result<Outcome, String> {
    let mut untraced = Tracer::new(false);
    let (want, setup_s) = repeat_setup(plan.setups, || {
        let want = shape
            .cfg
            .expected()
            .map_err(|e| e.to_string())?
            .expect("real payload has a reference");
        // Warm-up: one checked operation, untimed.
        let outs = op(&shape, &mut untraced, SpanId::NONE)?;
        if !outs.iter().all(|o| check::gemm_ok(o.c.as_ref(), &want)) {
            return Err("warm-up operation returned a wrong product".into());
        }
        Ok(want)
    })?;
    let mut seen: Option<Counts> = None;
    let mut counts_repeat = true;
    let mut check = |outs: &Vec<StageOut>| {
        let c = counts(outs);
        counts_repeat &= seen.is_none_or(|s| s == c);
        seen = Some(c);
        outs.iter().all(|o| check::gemm_ok(o.c.as_ref(), &want))
    };
    let run_op = |tr: &mut Tracer, root| op(&shape, tr, root);
    if !plan.trace {
        let lp = closed_loop(plan.budget, &mut untraced, run_op, &mut check);
        return Ok(Outcome {
            tally: lp.tally,
            e2e: closed_e2e(setup_s, &lp),
            layers: Metrics::new(),
            pes: shape.pes,
            max_pes: shape.max_pes,
            trace: Tracer::new(false),
        });
    }
    let part = plan.budget.third();
    let a = closed_loop(part, &mut untraced, run_op, &mut check);
    let mut traced = Tracer::new(true);
    let b = closed_loop(part, &mut traced, run_op, &mut check);
    let flight = navp_obs::flight();
    flight.set_enabled(false);
    let c = closed_loop(part, &mut untraced, run_op, &mut check);
    flight.set_enabled(true);
    let counts = seen.unwrap_or_default();
    if !counts_repeat {
        eprintln!("perfbench: step/hop counts differed between operations");
    }
    let mut layers = closed_bench_layers(&a, &b, &c);
    layers.extend(gemm_layers(&shape, &a, &traced, counts)?);
    Ok(Outcome {
        tally: total(&[&a, &b, &c]),
        e2e: Metrics::new(),
        layers,
        pes: shape.pes,
        max_pes: shape.max_pes,
        trace: traced,
    })
}

fn gemm_layers(
    shape: &Shape,
    a: &Loop,
    traced: &Tracer,
    counts: Counts,
) -> Result<Metrics, String> {
    let per_op = traced.median_ms_per_op();
    let span = |name: &str| per_op.get(name).copied().unwrap_or(0.0);
    let (gemm_us, gemm_gflops) = kernel_probe(shape.cfg.ab);
    let seq_ms = seq_probe(&shape.cfg);
    let predicted = sim_probe(shape, gemm_gflops)?;
    let gflops = shape.flops_per_op() / (a.p50() * 1e6);
    // PE-milliseconds the kernel could have used, stage by stage.
    let pe_ms: f64 = shape
        .stages
        .iter()
        .map(|(s, g)| span(stage_span(*s)) * (g.rows * g.cols) as f64)
        .sum();
    let mut m = Metrics::from([
        ("matrix.gemm_us", gemm_us),
        ("matrix.gemm_gflops", gemm_gflops),
        ("matrix.seq_ms", seq_ms),
        ("mm.operands_ms", span("mm.operands")),
        ("mm.cluster_ms", span("mm.cluster")),
        ("mm.collect_ms", span("mm.collect")),
        (
            "mm.speedup_vs_seq",
            seq_ms / (a.p50() / shape.stages.len() as f64),
        ),
        ("core.exec_ms", span("core.exec")),
        (
            "core.parallel_eff",
            shape.flops_per_op() / (pe_ms * 1e6 * gemm_gflops),
        ),
        ("core.steps", counts.steps as f64),
        ("core.hops", counts.hops as f64),
        ("core.hop_bytes", counts.hop_bytes as f64),
        ("sim.predicted_ms", predicted),
        ("sim.gap_ms", span("core.exec") - predicted),
        ("gflops", gflops),
        ("kv_ops_per_s", 0.0),
    ]);
    for (stage, _) in &shape.stages {
        m.insert(stage_metric(*stage), span(stage_span(*stage)));
    }
    Ok(m)
}
