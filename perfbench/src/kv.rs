//! The `kv` workload: the DSC, pipelined and phase-shifted kv steps run
//! back to back on 2 PEs of the thread executor.

use crate::spans::{SpanId, Tracer};
use crate::{check, closed_bench_layers, closed_e2e, closed_loop, derive_seed, repeat_setup};
use crate::{total, Loop, Metrics, Outcome, Plan};
use navp::ThreadExecutor;
use navp_kv::workload::{batch_ops, Op};
use navp_kv::{expected, run_kv_sim, stages, KvConfig, KvProduct, KvRunStats, KvStage, Shard};
use navp_sim::CostModel;
use std::hint::black_box;
use std::time::Instant;

const PES: usize = 2;
const STEPS: [KvStage; 3] = [KvStage::Dsc, KvStage::Pipe, KvStage::Phase];

fn config(seed: u64) -> KvConfig {
    KvConfig::new(50_000, 32).with_seed(derive_seed(seed, 3))
}

fn step_span(stage: KvStage) -> &'static str {
    match stage {
        KvStage::Seq => "kv.step.seq",
        KvStage::Dsc => "kv.step.dsc",
        KvStage::Pipe => "kv.step.pipe",
        KvStage::Phase => "kv.step.phase",
    }
}

fn step_metric(stage: KvStage) -> &'static str {
    match stage {
        KvStage::Seq => "kv.seq_ms",
        KvStage::Dsc => "kv.step_ms.dsc",
        KvStage::Pipe => "kv.step_ms.pipe",
        KvStage::Phase => "kv.step_ms.phase",
    }
}

/// What one step of one operation returned.
struct StepOut {
    product: KvProduct,
    stats: KvRunStats,
    steps: u64,
    hops: u64,
    hop_bytes: u64,
}

/// Counts one step of one operation returned.
#[derive(Clone, Copy)]
struct Counts {
    stats: KvRunStats,
    steps: u64,
    hops: u64,
    hop_bytes: u64,
}

/// One kv step through `stages::*_cluster`, `ThreadExecutor::run` and
/// `stages::collect`.
fn step(
    stage: KvStage,
    cfg: &KvConfig,
    tr: &mut Tracer,
    parent: SpanId,
) -> Result<StepOut, String> {
    let sp = tr.open(step_span(stage), parent);
    let cl = tr
        .time("kv.cluster", sp, || match stage {
            KvStage::Seq => stages::seq_cluster(cfg),
            KvStage::Dsc => stages::dsc_cluster(cfg, PES),
            KvStage::Pipe => stages::pipe_cluster(cfg, PES),
            KvStage::Phase => stages::phase_cluster(cfg, PES),
        })
        .map_err(|e| e.to_string())?;
    let rep = tr
        .time("core.exec", sp, || ThreadExecutor::new().run(cl))
        .map_err(|e| e.to_string())?;
    let pes = stage.effective_pes(PES);
    let (product, stats) = tr.time("kv.collect", sp, || {
        stages::collect(&rep.stores, cfg, |b| stage.res_home(pes, b))
    })?;
    tr.close(sp);
    Ok(StepOut {
        product,
        stats,
        steps: rep.steps,
        hops: rep.hops,
        hop_bytes: rep.hop_bytes,
    })
}

fn op(cfg: &KvConfig, tr: &mut Tracer, root: SpanId) -> Result<Vec<StepOut>, String> {
    STEPS.iter().map(|&s| step(s, cfg, tr, root)).collect()
}

/// Per-op-kind mean nanoseconds of the workload's op stream replayed
/// against one `Shard`, then milliseconds for one `compact`.
fn shard_probe(cfg: &KvConfig) -> [f64; 5] {
    // The cost of reading the clock twice, taken off every timed op.
    let mut empty: Vec<f64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            black_box(t0.elapsed().as_nanos() as f64)
        })
        .collect();
    empty.sort_by(f64::total_cmp);
    let clock_ns = empty[empty.len() / 2];
    let mut shard = Shard::new();
    let mut ns = [0.0f64; 4];
    let mut n = [0u64; 4];
    for b in 0..cfg.batches {
        for op in batch_ops(cfg, b) {
            let (kind, t) = match op {
                Op::Put { key, value } => {
                    let t0 = Instant::now();
                    black_box(shard.put(key, value));
                    (0, t0.elapsed())
                }
                Op::Get { key } => {
                    let t0 = Instant::now();
                    black_box(shard.get(key));
                    (1, t0.elapsed())
                }
                Op::Delete { key } => {
                    let t0 = Instant::now();
                    black_box(shard.delete(key));
                    (2, t0.elapsed())
                }
                Op::Scan { start, end, limit } => {
                    let t0 = Instant::now();
                    black_box(shard.scan(start, end, limit));
                    (3, t0.elapsed())
                }
            };
            ns[kind] += t.as_nanos() as f64 - clock_ns;
            n[kind] += 1;
        }
    }
    let t0 = Instant::now();
    black_box(shard.compact());
    let compact_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mean = |k: usize| ns[k] / n[k].max(1) as f64;
    [mean(0), mean(1), mean(2), mean(3), compact_ms]
}

/// Run the kv workload under `plan`.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let cfg = config(plan.seed);
    let mut untraced = Tracer::new(false);
    let (want, setup_s) = repeat_setup(plan.setups, || {
        let want = expected(&cfg);
        let outs = op(&cfg, &mut untraced, SpanId::NONE)?;
        if !outs.iter().all(|o| check::kv_ok(&o.product, &want)) {
            return Err("warm-up operation returned a wrong product".into());
        }
        Ok(want)
    })?;
    let mut last: Option<Vec<Counts>> = None;
    let mut check = |outs: &Vec<StepOut>| {
        last = Some(
            outs.iter()
                .map(|o| Counts {
                    stats: o.stats,
                    steps: o.steps,
                    hops: o.hops,
                    hop_bytes: o.hop_bytes,
                })
                .collect(),
        );
        outs.iter().all(|o| check::kv_ok(&o.product, &want))
    };
    let run_op = |tr: &mut Tracer, root| op(&cfg, tr, root);
    if !plan.trace {
        let lp = closed_loop(plan.budget, &mut untraced, run_op, &mut check);
        return Ok(Outcome {
            tally: lp.tally,
            e2e: closed_e2e(setup_s, &lp),
            layers: Metrics::new(),
            pes: "2 PEs",
            max_pes: PES,
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
    let steps = last.unwrap_or_default();
    let mut seq_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = step(KvStage::Seq, &cfg, &mut untraced, SpanId::NONE)?;
        seq_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if !check::kv_ok(&out.product, &want) {
            return Err("sequential anchor returned a wrong product".into());
        }
    }
    let mut layers = closed_bench_layers(&a, &b, &c);
    layers.extend(kv_layers(&cfg, &a, &traced, &steps)?);
    layers.insert("kv.seq_ms", crate::stats::median(&seq_ms));
    Ok(Outcome {
        tally: total(&[&a, &b, &c]),
        e2e: Metrics::new(),
        layers,
        pes: "2 PEs",
        max_pes: PES,
        trace: traced,
    })
}

fn kv_layers(
    cfg: &KvConfig,
    a: &Loop,
    traced: &Tracer,
    steps: &[Counts],
) -> Result<Metrics, String> {
    let per_op = traced.median_ms_per_op();
    let span = |name: &str| per_op.get(name).copied().unwrap_or(0.0);
    let sum = |f: &dyn Fn(&Counts) -> u64| steps.iter().map(f).sum::<u64>() as f64;
    let ops = sum(&|s| s.stats.ops);
    let live = sum(&|s| s.stats.live_bytes);
    let dead = sum(&|s| s.stats.dead_bytes);
    let (_, gemm_gflops) = crate::gemm::kernel_probe(32);
    let cost = CostModel {
        flop_rate: gemm_gflops * 1e9,
        ..CostModel::ideal_network()
    };
    let mut predicted = 0.0;
    for stage in STEPS {
        let out = run_kv_sim(stage, cfg, PES, &cost, false).map_err(|e| e.to_string())?;
        predicted += out.virt_seconds.unwrap_or(0.0) * 1e3;
    }
    let [put, get, delete, scan, compact] = shard_probe(cfg);
    let mut m = Metrics::from([
        ("kv.cluster_ms", span("kv.cluster")),
        ("kv.exec_ms", span("core.exec")),
        ("kv.collect_ms", span("kv.collect")),
        ("kv.shard_put_ns", put),
        ("kv.shard_get_ns", get),
        ("kv.shard_delete_ns", delete),
        ("kv.shard_scan_ns", scan),
        ("kv.shard_compact_ms", compact),
        ("kv.transfers", sum(&|s| s.hops)),
        ("kv.bytes", sum(&|s| s.hop_bytes)),
        ("kv.compactions", sum(&|s| s.stats.compactions)),
        ("kv.dead_bytes_frac", dead / (live + dead).max(1.0)),
        ("core.exec_ms", span("core.exec")),
        // The kv steps do no floating-point work.
        ("core.parallel_eff", 0.0),
        ("core.steps", sum(&|s| s.steps)),
        ("core.hops", sum(&|s| s.hops)),
        ("core.hop_bytes", sum(&|s| s.hop_bytes)),
        ("sim.predicted_ms", predicted),
        ("sim.gap_ms", span("core.exec") - predicted),
        ("gflops", 0.0),
        ("kv_ops_per_s", ops / (a.p50() / 1e3)),
    ]);
    for stage in STEPS {
        m.insert(step_metric(stage), span(step_span(stage)));
    }
    Ok(m)
}
