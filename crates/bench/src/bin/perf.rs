//! Wall-clock perf baseline: packed vs naive GEMM kernel GFLOP/s,
//! NavP-stage wall times, the flight recorder's on-vs-off overhead on
//! phase1d, mesh scaling rows (phase1d over loopback TCP at 4/16/64
//! PEs), and the paper's Table 1 ladder at N=1536 on two thread PEs,
//! written as machine-readable JSON (`BENCH_kernel.json`,
//! `BENCH_stages.json`) at the repo root. With `--kv` the binary
//! benches the key-value workload instead — journey steps across
//! 1/2/4 PEs as ops/s — against `BENCH_kv.json`.
//!
//! Usage: `cargo run --release -p navp-bench --bin perf [-- --kv] [-- --quick] [-- --check]`
//!
//! `--quick` skips the 128³ kernel and the ladder and times the stages
//! at n=256 instead of n=384, so the CI perf smoke job finishes in
//! seconds.
//! Every entry a quick run shares with the committed baseline takes
//! the same number of samples as the full run, so `--check` compares a
//! fastest-of-k with a fastest-of-k. The acceptance gate (packed
//! kernel strictly faster than naive at 256³) is checked in both modes;
//! in full mode so are the block gate (one carrier column of 128³ block
//! updates within 10% of the packed one-call rate) and the ladder gate
//! (1-D DSC slower than the pipelined and the phase-shifted stage).
//! Failure exits non-zero.
//!
//! `--check` flips the binary from baseline *writer* to regression
//! *gate*: the committed `BENCH_*.json` files are loaded, the benches
//! re-run (nothing is overwritten), and the run fails with a
//! per-metric delta table when a throughput entry drops or a wall
//! entry grows by more than 15%, comparing each entry's fastest sample
//! (see [`navp_bench::check`]). Both sides take that figure from the
//! median of several whole runs ([`ROUNDS`], [`KV_ROUNDS`]).
//! `--check --quick` gates the subset of entries the quick run shares
//! with the full committed baseline.

use navp_bench::check::{compare, entries_of, parse_baseline, render_table, BenchEntry};
use navp_bench::timing::{rounds, write_groups_json, Entry, Group, Metric};
use navp_kv::{run_kv, KvConfig, KvStage};
use navp_matrix::block::PackedA;
use navp_matrix::gen::seeded_matrix;
use navp_matrix::kernel::{gemm_acc, gemm_acc_naive, gemm_flops};
use navp_matrix::{BlockData, Grid2D};
use navp_mm::config::MmConfig;
use navp_mm::runner::{run_navp, NavpStage, NetOpts, On, Run};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Repo root, resolved at compile time relative to this crate so the
/// JSON baselines land in the same place regardless of the cwd the
/// binary is launched from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct Opts {
    quick: bool,
    check: bool,
    kv: bool,
}

fn parse_opts() -> Opts {
    let mut quick = false;
    let mut check = false;
    let mut kv = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--kv" => kv = true,
            "--help" | "-h" => {
                println!("usage: perf [--kv] [--quick] [--check]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (usage: perf [--kv] [--quick] [--check])");
                std::process::exit(2);
            }
        }
    }
    Opts { quick, check, kv }
}

/// Kernel section: packed vs naive at the paper block orders plus a
/// 512³ point where the working set is far beyond L2 and the packing
/// pays off hardest.
fn bench_kernel(opts: &Opts) -> Vec<Group> {
    let orders: &[usize] = if opts.quick {
        &[256, 512]
    } else {
        &[128, 256, 512]
    };
    let mut groups = Vec::new();
    for &n in orders {
        let a = seeded_matrix(n, 1);
        let b = seeded_matrix(n, 2);
        let mut out = vec![0.0f64; n * n];
        // Bigger orders take longer per iteration; scale samples down
        // so the full run stays under a few minutes.
        let samples = if n == 512 { 7 } else { 15 };
        let mut g = Group::new(&format!("kernel_{n}"))
            .sample_size(samples)
            .warmup(2)
            .flops(gemm_flops(n, n, n));
        let naive = g
            .bench(&format!("naive_{n}"), || {
                gemm_acc_naive(&mut out, a.as_slice(), b.as_slice(), n, n, n);
                std::hint::black_box(&mut out);
            })
            .clone();
        let packed = g
            .bench(&format!("packed_{n}"), || {
                gemm_acc(&mut out, a.as_slice(), b.as_slice(), n, n, n);
                std::hint::black_box(&mut out);
            })
            .clone();
        let speedup = naive.median_ns as f64 / packed.median_ns.max(1) as f64;
        println!("kernel_{n}: packed is {speedup:.2}x naive (median)");
        if n == 128 {
            bench_block_column(&mut g);
        }
        groups.push(g);
    }
    groups
}

/// One carrier column at block order 128, `C(mi, col) = Σ_k mA(k) ·
/// B(k, col)` over 12 blocks: 12 block updates into one fresh C, with
/// the operands held the way a 1-D run holds them — the carried row
/// packed for the visit, the resident B blocks with their cached packs
/// (filled by the warmup).
fn bench_block_column(g: &mut Group) {
    let (ab, nb) = (128, 12);
    let blocks = |seed: u64| -> Vec<BlockData> {
        (0..nb)
            .map(|k| BlockData::real(seeded_matrix(ab, seed + k)))
            .collect()
    };
    let (a_row, b_col) = (blocks(100), blocks(200));
    let row: Vec<PackedA<'_>> = a_row.iter().map(BlockData::pack_a).collect();
    let flops = nb * gemm_flops(ab, ab, ab);
    g.bench_metric("block_128", Some(Metric::Flops(flops)), || {
        let mut c = BlockData::zeros(ab, ab);
        for (a, b) in row.iter().zip(&b_col) {
            c.gemm_acc_packed(a, b).expect("uniform blocks");
        }
        c
    });
}

/// The acceptance gate: packed strictly faster than naive at 256³.
fn packed_beats_naive(groups: &[Group]) -> bool {
    let median = |label: &str| {
        groups
            .iter()
            .filter(|g| g.name() == "kernel_256")
            .flat_map(|g| g.entries())
            .find(|e| e.label == label)
            .map(|e| e.median_ns)
    };
    matches!((median("packed_256"), median("naive_256")), (Some(p), Some(n)) if p < n)
}

/// The block-kernel gate: one carrier column (`block_128`) runs at
/// least 90% of the packed one-call rate at the same order
/// (`packed_128`), comparing fastest samples of the median round.
/// `true` when the 128³ kernel did not run (quick mode).
fn block_near_one_call(groups: &[Group]) -> bool {
    let Some(g) = groups.iter().find(|g| g.name() == "kernel_128") else {
        return true;
    };
    let best = |label: &str| {
        let e = g.entries().iter().find(|e| e.label == label).expect("kernel_128 row");
        e.gflops().expect("flops metric") * e.median_ns as f64 / e.min_ns.max(1) as f64
    };
    let ratio = best("block_128") / best("packed_128");
    println!("kernel_128: block_128 runs at {ratio:.2}x the packed one-call rate (fastest samples)");
    ratio >= 0.9
}

/// Stage section: each NavP pipeline stage timed wall-clock on real
/// threads, reported as GFLOP/s (2n³ flops per run).
fn bench_stages(opts: &Opts) -> Group {
    // nb must be divisible by the grid dims used below (line(4), 2x2).
    let (n, ab) = if opts.quick { (256, 32) } else { (384, 32) };
    let samples = if opts.quick { 3 } else { 7 };
    let cfg = MmConfig::real(n, ab);
    let flops = 2 * (cfg.n as u64).pow(3);
    let mut wall = Group::new(&format!("wall_navp_stages_n{n}"))
        .sample_size(samples)
        .warmup(1)
        .flops(flops);
    for stage in NavpStage::ALL {
        let grid = if stage.is_1d() {
            Grid2D::line(4).expect("grid")
        } else {
            Grid2D::new(2, 2).expect("grid")
        };
        // One verified probe checks the answer against the sequential
        // reference; the timed samples skip the check.
        let probe = run_navp(stage, &cfg, grid, Run::on(On::Threads)).expect("run");
        assert_eq!(probe.verified, Some(true), "{} failed to verify", stage.name());
        wall.bench(stage.name(), || {
            run_navp(stage, &cfg, grid, Run::on(On::Threads).unverified())
                .expect("run")
                .wall
        });
    }
    wall
}

/// Matrix order and block order of the ladder: the paper's Table 1.
const LADDER: (usize, usize) = (1536, 128);

/// The ladder section: the paper's Table 1 at N=1536, ab=128 on real
/// cores — the one-call sequential kernel and the three 1-D stages on a
/// 1x2 thread line, all timed in the same round. A stage sample is the
/// executor's wall (the run, without operand generation or collection);
/// its warmup run is verified. The group holds each row's samples
/// normalized to the round's fastest sequential sample, so sequential
/// takes 1 s, each rate is the per-round speedup over sequential, and
/// the median round [`rounds`] keeps is the median speedup.
fn bench_ladder() -> Group {
    let (n, ab) = LADDER;
    let (warmup, samples) = (1, 3);
    let a = seeded_matrix(n, 1);
    let b = seeded_matrix(n, 2);
    let mut out = vec![0.0f64; n * n];
    let seq: Vec<Duration> = (0..warmup + samples)
        .map(|_| {
            let t0 = Instant::now();
            gemm_acc(black_box(&mut out), a.as_slice(), b.as_slice(), n, n, n);
            t0.elapsed()
        })
        .skip(warmup)
        .collect();
    drop((a, b, out));
    let cfg = MmConfig::real(n, ab);
    let grid = Grid2D::line(2).expect("grid");
    let mut rows = vec![("sequential", seq)];
    for stage in [NavpStage::Dsc1D, NavpStage::Pipe1D, NavpStage::Phase1D] {
        let probe = run_navp(stage, &cfg, grid, Run::on(On::Threads)).expect("run");
        assert_eq!(probe.verified, Some(true), "{} failed to verify", stage.name());
        let walls = (0..samples)
            .map(|_| {
                run_navp(stage, &cfg, grid, Run::on(On::Threads).unverified())
                    .expect("run")
                    .wall
                    .expect("wall-clock executor")
            })
            .collect();
        rows.push((stage.name(), walls));
    }
    let seq_min = rows[0].1.iter().min().copied().expect("samples");
    let mut g = Group::new(&format!("ladder_speedup_n{n}"));
    for (label, walls) in rows {
        let wall = Entry::from_samples(label, walls.clone(), None);
        println!(
            "ladder_n{n}/{label}: wall min {:.1} ms | median {:.1} ms",
            wall.min_ns as f64 / 1e6,
            wall.median_ns as f64 / 1e6
        );
        let norm = walls.iter().map(|w| w.div_f64(seq_min.as_secs_f64())).collect();
        g.record(Entry::from_samples(label, norm, Some(Metric::Speedup)));
    }
    g
}

/// The ladder gate: the 1-D DSC stage is slower than both the pipelined
/// and the phase-shifted stage (margins over 40% on two cores). Pipe vs
/// phase is printed, not gated: its margin is within run-to-run noise.
/// `true` when the ladder did not run (quick mode).
fn ladder_ranked(groups: &[Group]) -> bool {
    let name = format!("ladder_speedup_n{}", LADDER.0);
    let Some(g) = groups.iter().find(|g| g.name() == name) else {
        return true;
    };
    let speedup = |stage: NavpStage| {
        let e = g.entries().iter().find(|e| e.label == stage.name()).expect("ladder row");
        1e9 / e.min_ns.max(1) as f64
    };
    let (dsc, pipe, phase) = (
        speedup(NavpStage::Dsc1D),
        speedup(NavpStage::Pipe1D),
        speedup(NavpStage::Phase1D),
    );
    println!(
        "ladder_n{}: speedup over sequential, median round: DSC {dsc:.2}x, pipe {pipe:.2}x, \
         phase {phase:.2}x (phase/pipe {:.2}, not gated)",
        LADDER.0,
        phase / pipe
    );
    dsc < pipe && dsc < phase
}

/// Flight-recorder overhead section: phase1d on real threads with the
/// recorder on versus forced off. The recorder's contract is to be an
/// *observer* — `tests/obs.rs` pins the products bitwise identical —
/// and this group pins the cost side: the committed `flight_on` /
/// `flight_off` rows let `perf --check` catch a future event that
/// silently makes recording expensive. Samples alternate on, off, on,
/// off… so a host slow phase lands on both rows alike, and the
/// printed overhead is the median of the per-pair on/off ratios.
fn bench_recorder_overhead() -> Group {
    let (n, ab) = (256, 32);
    let (warmup, pairs) = (1, 9);
    let cfg = MmConfig::real(n, ab);
    let grid = Grid2D::line(4).expect("grid");
    let flops = Some(Metric::Flops(2 * (n as u64).pow(3)));
    let was = navp_obs::flight().enabled();
    let sample = |on: bool| {
        navp_obs::flight().set_enabled(on);
        run_navp(
            NavpStage::Phase1D,
            &cfg,
            grid,
            Run::on(On::Threads).unverified(),
        )
        .expect("run")
        .wall
        .expect("wall-clock executor")
    };
    for _ in 0..warmup {
        sample(true);
        sample(false);
    }
    let (on, off): (Vec<Duration>, Vec<Duration>) =
        (0..pairs).map(|_| (sample(true), sample(false))).unzip();
    navp_obs::flight().set_enabled(was);
    let mut ratios: Vec<f64> = on
        .iter()
        .zip(&off)
        .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64().max(1e-12))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mut g = Group::new(&format!("recorder_overhead_n{n}"));
    g.record(Entry::from_samples("flight_on", on, flops));
    g.record(Entry::from_samples("flight_off", off, flops));
    println!(
        "recorder_overhead_n{n}: flight on is {:+.2}% vs off (median of {pairs} paired on/off ratios)",
        (ratios[ratios.len() / 2] - 1.0) * 100.0
    );
    g
}

/// Mesh-scaling section: the phase1d stage on the *networked* executor
/// (real `navp-pe` processes over loopback TCP) at 4, 16 and 64 PEs.
/// The matrix order is fixed at 256 and the block order shrinks as
/// `ab = n / (2p)`, so every PE always owns two block rows and the
/// per-hop payload shrinks as the mesh grows — exactly the
/// many-small-frames regime the batching event loop exists for.
/// Entries report GFLOP/s. The problem is already CI-sized, so quick
/// and full runs are the same and `--check --quick` shares every
/// scaling entry with the full committed baseline.
fn bench_net_scaling() -> Group {
    let n = 256usize;
    let samples = 5;
    let net_opts = NetOpts::default();
    let mut wall = Group::new(&format!("wall_net_scaling_n{n}"))
        .sample_size(samples)
        .warmup(1)
        .flops(2 * (n as u64).pow(3));
    for pes in [4usize, 16, 64] {
        let ab = n / (2 * pes);
        let cfg = MmConfig::real(n, ab);
        let grid = Grid2D::line(pes).expect("grid");
        let run = || Run::on(On::Net(&net_opts)).watchdog(Some(Duration::from_secs(120)));
        // Every run, the probe and each timed sample, verifies against
        // the sequential product (a plain `Run` verifies), so a scaling
        // row can never be fast-but-wrong.
        let probe = run_navp(NavpStage::Phase1D, &cfg, grid, run()).expect("net run");
        assert_eq!(
            probe.verified,
            Some(true),
            "phase1d on {pes} PEs failed to verify"
        );
        wall.bench(&format!("phase1d_p{pes}"), || {
            run_navp(NavpStage::Phase1D, &cfg, grid, run())
                .expect("net run")
                .wall
        });
    }
    wall
}

/// Key-value section: each journey step timed wall-clock on real
/// threads across 1-, 2- and 4-PE meshes (the sequential anchor only
/// on 1 — it collapses to one PE regardless), reported as operation
/// throughput. The workload is small enough that quick and full runs
/// are the same, so `--check --quick` shares every entry with the full
/// committed baseline.
fn bench_kv() -> Vec<Group> {
    let (ops, batches) = (4_000, 16);
    let samples = 9;
    let cfg = KvConfig::new(ops, batches).with_seed(0x5EED_CAFE);
    let mut wall = Group::new(&format!("kv_journey_ops{ops}"))
        .sample_size(samples)
        .warmup(1)
        .metric_of(Metric::Elems(ops as u64));
    let mut points = vec![(1, KvStage::Seq)];
    for pes in [2, 4] {
        for stage in [KvStage::Dsc, KvStage::Pipe, KvStage::Phase] {
            points.push((pes, stage));
        }
    }
    for (pes, stage) in points {
        // One verified probe checks the product against the
        // sequential reference; the timed samples skip the check.
        let probe = run_kv(stage, &cfg, pes, Run::on(On::Threads)).expect("run");
        assert_eq!(
            probe.verified,
            Some(true),
            "{} on {pes} PEs failed to verify",
            stage.name()
        );
        wall.bench(&format!("{}_p{pes}", stage.name()), || {
            run_kv(stage, &cfg, pes, Run::on(On::Threads).unverified())
                .expect("run")
                .wall
        });
    }
    vec![wall]
}

/// Load one committed baseline, exiting with a usage hint if absent.
fn load_baseline(path: &Path) -> Vec<BenchEntry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!(
            "cannot read baseline {}: {e}\nrun `perf` without --check first to write it",
            path.display()
        );
        std::process::exit(2);
    });
    parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// The regression tolerance: fail on >15% throughput loss or wall-time
/// growth against the committed baseline.
const TOLERANCE: f64 = 0.15;

/// Rounds of measurement behind every gated figure. Wall-clock
/// samples on a shared host come in slow phases (memory-bandwidth
/// contention that comes and goes over seconds) longer than one
/// entry's samples, and oversubscribed thread runs now and then land a
/// rare lucky schedule, so one round's fastest sample is not
/// repeatable. Baselines and checks alike run the whole bench this many
/// times and keep each entry's median round ([`rounds`]).
const ROUNDS: usize = 7;

/// Rounds of the kv bench. One kv round takes about a second, against
/// several for the GEMM bench, so it takes more rounds to span the
/// same stretch of the host's slow and fast phases.
const KV_ROUNDS: usize = 15;

/// Gate `fresh` against `baseline`: print the per-entry delta table
/// and exit 1 when no entry is shared (re-write the baseline with
/// `rewrite`) or any entry regressed past [`TOLERANCE`].
fn gate(baseline: &[BenchEntry], fresh: &[BenchEntry], rewrite: &str) {
    let deltas = compare(baseline, fresh, TOLERANCE);
    if deltas.is_empty() {
        eprintln!(
            "FAIL: no (group, label) pairs shared with the committed baseline — \
             re-write it with `{rewrite}`"
        );
        std::process::exit(1);
    }
    println!(
        "\nregression gate: {} shared entries, fastest sample of the median round, \
         tolerance {:.0}%\n",
        deltas.len(),
        TOLERANCE * 100.0
    );
    print!("{}", render_table(&deltas));
    let failed = deltas.iter().filter(|d| d.fail).count();
    if failed > 0 {
        eprintln!(
            "\nFAIL: {failed} of {} entries regressed past {:.0}%",
            deltas.len(),
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("\nOK: no entry regressed past {:.0}%", TOLERANCE * 100.0);
}

/// The `--kv` path: bench the key-value workload against its own
/// baseline file and exit. Mirrors the GEMM flow minus the kernel
/// gate — the acceptance bar for kv is that every step verifies,
/// which `bench_kv` asserts on its probe runs.
fn kv_main(opts: &Opts, root: &Path) -> ! {
    let kv_path = root.join("BENCH_kv.json");
    let baseline = opts.check.then(|| load_baseline(&kv_path));
    let groups = rounds(KV_ROUNDS, bench_kv);
    match baseline {
        Some(baseline) => gate(&baseline, &entries_of(&groups), "perf --kv"),
        None => {
            write_groups_json(&kv_path, &groups).expect("write BENCH_kv.json");
            println!("\nwrote {}", kv_path.display());
        }
    }
    std::process::exit(0);
}

fn main() {
    let opts = parse_opts();
    let root = repo_root();
    println!(
        "perf {}{} ({} mode); baselines at {}",
        if opts.kv { "kv " } else { "" },
        if opts.check { "regression check" } else { "baseline" },
        if opts.quick { "quick" } else { "full" },
        root.display()
    );
    if opts.kv {
        kv_main(&opts, &root);
    }
    let kernel_path = root.join("BENCH_kernel.json");
    let stages_path = root.join("BENCH_stages.json");
    // In check mode, load the committed baselines *before* spending
    // minutes re-measuring, so a missing file fails fast.
    let baseline = opts.check.then(|| {
        let mut b = load_baseline(&kernel_path);
        b.extend(load_baseline(&stages_path));
        b
    });

    let groups = rounds(ROUNDS, || {
        let mut groups = bench_kernel(&opts);
        groups.push(bench_stages(&opts));
        groups.push(bench_recorder_overhead());
        groups.push(bench_net_scaling());
        if !opts.quick {
            groups.push(bench_ladder());
        }
        groups
    });
    let packed_ok = packed_beats_naive(&groups);
    let block_ok = block_near_one_call(&groups);
    let ladder_ok = ladder_ranked(&groups);
    match baseline {
        Some(baseline) => gate(&baseline, &entries_of(&groups), "perf"),
        None => {
            let (kernel, stages): (Vec<Group>, Vec<Group>) = groups
                .into_iter()
                .partition(|g| g.name().starts_with("kernel_"));
            write_groups_json(&kernel_path, &kernel).expect("write BENCH_kernel.json");
            println!("\nwrote {}", kernel_path.display());
            write_groups_json(&stages_path, &stages).expect("write BENCH_stages.json");
            println!("wrote {}", stages_path.display());
        }
    }
    if !packed_ok {
        eprintln!("FAIL: packed kernel is not faster than naive at 256^3");
        std::process::exit(1);
    }
    println!("OK: packed kernel faster than naive at 256^3");
    if !block_ok {
        eprintln!("FAIL: block_128 is below 90% of the packed one-call rate");
        std::process::exit(1);
    }
    if !ladder_ok {
        eprintln!("FAIL: 1-D DSC is not slower than both pipelined and phase-shifted");
        std::process::exit(1);
    }
    if !opts.quick {
        println!("OK: block_128 within 10% of the packed one-call rate");
        println!("OK: 1-D DSC slower than pipelined and phase-shifted");
    }
}
