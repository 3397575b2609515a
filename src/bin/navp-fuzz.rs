//! Deterministic fault-space fuzzer for the case-study stages.
//!
//! Explore mode (default) sweeps seeded fault schedules over a stage,
//! checking every run for bitwise product parity against the
//! fault-free baseline; violations are delta-minimized and written as
//! replayable `repro-<seed>.navpfault` files. Replay mode
//! (`--replay <file>`) re-executes one repro (or any fault-spec file)
//! and reports whether it still violates.
//!
//! ```text
//! navp-fuzz [--workload gemm|kv]
//!           [--stage dsc1d|pipe1d|phase1d|dsc2d|pipe2d|dpc2d
//!                  | kv_seq|kv_dsc|kv_pipe|kv_phase]
//!           [--grid RxC] [--n N] [--ab AB]
//!           [--seeds COUNT] [--root-seed SEED] [--budget-secs S]
//!           [--out DIR] [--threads] [--replay FILE]
//! ```
//!
//! `--workload kv` fuzzes the key-value workload instead: `--stage`
//! names a kv journey step (default `kv_pipe`), `--n` is total
//! operations, `--ab` is batches, and the grid's columns give the PE
//! count (kv meshes are 1-D lines). Both workloads go through the same
//! driver ([`navp::explore`]): each supplies only one run of a plan,
//! reduced to its product's bytes.
//!
//! Exit status: 0 = clean (or replay no longer violates), 1 = parity
//! violations found (repros written), 2 = usage error.
//!
//! The flight recorder runs throughout: when violations are found and
//! `--out` is set, the recorder is dumped as a `postmortem-*.navpobs`
//! black box next to the `repro-*.navpfault` files (readable with
//! `navp-submit postmortem`), and a panic or `SIGQUIT` mid-sweep
//! leaves one behind too.

use navp::explore::{explore, replay, rule_count, ExploreConfig, Outcome};
use navp::{FaultPlan, RunError};
use navp_kv::{KvConfig, KvStage};
use navp_matrix::Grid2D;
use navp_mm::{MmConfig, On};
use navp_sim::CostModel;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Gemm,
    Kv,
}

struct Args {
    workload: Workload,
    stage: String,
    grid: Option<Grid2D>,
    n: usize,
    ab: usize,
    /// Seeds, budget and repro directory; `pes` is set from the target.
    explore: ExploreConfig,
    threads: bool,
    replay: Option<PathBuf>,
}

fn parse_grid(s: &str) -> Result<Grid2D, String> {
    let (r, c) = s
        .split_once('x')
        .ok_or_else(|| format!("grid must be RxC, got `{s}`"))?;
    let rows: usize = r.parse().map_err(|_| format!("bad grid rows `{r}`"))?;
    let cols: usize = c.parse().map_err(|_| format!("bad grid cols `{c}`"))?;
    Grid2D::new(rows, cols).map_err(|e| format!("bad grid: {e}"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Gemm,
        stage: String::new(),
        grid: None,
        n: 12,
        ab: 2,
        explore: ExploreConfig::new(0xFA_57_F0_0D, 1000, 0),
        threads: false,
        replay: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = match value()?.as_str() {
                    "gemm" => Workload::Gemm,
                    "kv" => Workload::Kv,
                    other => return Err(format!("unknown workload `{other}`")),
                }
            }
            "--stage" => args.stage = value()?,
            "--grid" => args.grid = Some(parse_grid(&value()?)?),
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--ab" => args.ab = value()?.parse().map_err(|e| format!("--ab: {e}"))?,
            "--seeds" => {
                args.explore.schedules = value()?.parse().map_err(|e| format!("--seeds: {e}"))?
            }
            "--root-seed" => {
                let v = value()?;
                let v = v.trim();
                args.explore.root_seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--root-seed: {e}"))?;
            }
            "--budget-secs" => {
                args.explore.budget = Some(Duration::from_secs(
                    value()?.parse().map_err(|e| format!("--budget-secs: {e}"))?,
                ))
            }
            "--out" => args.explore.out_dir = Some(PathBuf::from(value()?)),
            "--threads" => args.threads = true,
            "--replay" => args.replay = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.stage.is_empty() {
        args.stage = match args.workload {
            Workload::Gemm => "dsc1d".into(),
            Workload::Kv => "kv_pipe".into(),
        };
    }
    match args.workload {
        Workload::Gemm => {
            if !args.n.is_multiple_of(args.ab) {
                return Err(format!("--ab {} must divide --n {}", args.ab, args.n));
            }
        }
        Workload::Kv => {
            if args.n == 0 || args.ab == 0 || args.ab > args.n {
                return Err(format!(
                    "kv shape needs 0 < --ab <= --n, got --n {} --ab {}",
                    args.n, args.ab
                ));
            }
        }
    }
    Ok(args)
}

/// One run of a plan, reduced to the product's bytes.
type ProductFn<'a> = dyn Fn(&FaultPlan) -> Result<Vec<u8>, RunError> + 'a;

/// What the driver fuzzes: the stage's name and shape for the summary,
/// the PE count its plans target, and how to run one plan.
struct Target<'a> {
    stage: &'static str,
    shape: String,
    pes: usize,
    run: Box<ProductFn<'a>>,
}

fn target<'a>(args: &Args, on: On<'a>) -> Result<Target<'a>, String> {
    let (n, ab) = (args.n, args.ab);
    match args.workload {
        Workload::Gemm => {
            let stage = navp_serve::parse_stage(&args.stage)
                .ok_or_else(|| format!("unknown GEMM stage `{}`", args.stage))?;
            let grid = args.grid.unwrap_or_else(|| {
                if stage.is_1d() {
                    Grid2D::line(3).expect("line(3)")
                } else {
                    Grid2D::new(2, 2).expect("2x2")
                }
            });
            let cfg = MmConfig::real(n, ab);
            Ok(Target {
                stage: stage.name(),
                shape: format!("{}x{} PEs, N={n}, AB={ab}", grid.rows, grid.cols),
                pes: grid.rows * grid.cols,
                run: Box::new(move |plan| {
                    navp_mm::fuzz::product_bytes(stage, &cfg, grid, on, plan)
                }),
            })
        }
        Workload::Kv => {
            let stage = KvStage::parse(&args.stage)
                .ok_or_else(|| format!("unknown kv stage `{}`", args.stage))?;
            let pes = stage.effective_pes(args.grid.map_or(3, |g| g.rows * g.cols));
            let cfg = KvConfig::new(n, ab);
            Ok(Target {
                stage: stage.name(),
                shape: format!("{pes} PEs, ops={n}, batches={ab}"),
                pes,
                run: Box::new(move |plan| {
                    navp_kv::fuzz::product_bytes(stage, &cfg, pes, on, plan)
                }),
            })
        }
    }
}

/// Leave a flight-recorder black box next to the repro files: when a
/// sweep found violations and `--out` is set, the postmortem lands in
/// the same directory the `repro-*.navpfault` files went to.
fn dump_black_box(out: &Option<PathBuf>, stage: &str, violations: usize) {
    if violations == 0 {
        return;
    }
    if let Some(dir) = out {
        let reason = format!("fuzz {stage}: {violations} parity violation(s)");
        match navp_obs::dump_postmortem(dir, &reason) {
            Ok(path) => println!("  flight recorder -> {}", path.display()),
            Err(e) => eprintln!("navp-fuzz: flight dump failed: {e}"),
        }
    }
}

/// Report `e` and exit with the usage-error status.
fn die(e: impl std::fmt::Display) -> ! {
    eprintln!("navp-fuzz: {e}");
    std::process::exit(2);
}

fn main() {
    let mut args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("navp-fuzz: {e}");
        die(
            "usage: navp-fuzz [--workload gemm|kv] [--stage NAME] [--grid RxC] \
             [--n N] [--ab AB] [--seeds COUNT] [--root-seed SEED] \
             [--budget-secs S] [--out DIR] [--threads] [--replay FILE]",
        )
    });
    // Black box: panics and SIGQUIT mid-sweep dump the flight
    // recorder; with --out it lands next to the repro files.
    navp_obs::install_panic_hook();
    navp_obs::install_sigquit_dump();
    if let Some(dir) = &args.explore.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(format!("creating {}: {e}", dir.display()));
        }
        navp_obs::set_dump_dir(dir);
    }
    let cost = CostModel::paper_cluster();
    let on = if args.threads { On::Threads } else { On::Sim(&cost) };
    let target = target(&args, on).unwrap_or_else(|e| die(e));

    if let Some(path) = &args.replay {
        match replay(path, &target.run) {
            Ok(outcome) => {
                println!("{}: {outcome:?}", path.display());
                let still_violates = matches!(outcome, Outcome::Violation(_));
                std::process::exit(if still_violates { 1 } else { 0 });
            }
            Err(e) => die(format!("replay failed: {e}")),
        }
    }

    args.explore.pes = target.pes;
    let start = Instant::now();
    let report = explore(&args.explore, &target.run).unwrap_or_else(|e| die(e));
    println!(
        "fuzzed {} ({}): {} schedules in {:.1}s — \
         {} matched, {} expected failures, {} violations",
        target.stage,
        target.shape,
        report.explored,
        start.elapsed().as_secs_f64(),
        report.matches,
        report.expected_failures,
        report.violations.len(),
    );
    for v in &report.violations {
        match &v.path {
            Some(p) => println!(
                "  seed {:#018x}: {} ({} -> {} rules) -> {}",
                v.seed,
                v.detail,
                v.original_rules,
                rule_count(&v.plan),
                p.display()
            ),
            None => println!("  seed {:#018x}: {}", v.seed, v.detail),
        }
    }
    dump_black_box(&args.explore.out_dir, target.stage, report.violations.len());
    std::process::exit(if report.violations.is_empty() { 0 } else { 1 });
}
