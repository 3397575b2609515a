//! navp-kv end-to-end acceptance: the four journey steps —
//! sequential, DSC, pipelined, phase-shifted — produce *bitwise
//! identical* products across the sim, thread, and networked
//! executors; parity survives seeded transport faults; and kv jobs
//! run through `navp-serve` next to GEMM jobs on one live mesh of
//! real `navp-pe` processes.
//!
//! Bitwise (not approximate) equality is the bar for the same reason
//! as GEMM: batches own disjoint key regions and compaction is
//! observation-neutral, so any difference at all means an executor
//! reordered, dropped, or corrupted an operation.

use navp_repro::navp::FaultPlan;
use navp_repro::navp_kv::{run_kv, run_kv_sim, KvConfig, KvStage};
use navp_repro::navp_mm::runner::{NetOpts, On, Run};
use navp_repro::navp_serve::{
    client, job_runner, serve, JobSpec, JobState, MeshOpts, SchedConfig, ServeMetrics,
    ServerConfig,
};
use navp_repro::navp_sim::CostModel;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const T: Duration = Duration::from_secs(120);

/// The `navp-pe` daemon this crate ships, resolved by Cargo.
fn opts() -> NetOpts {
    NetOpts {
        pe_bin: Some(env!("CARGO_BIN_EXE_navp-pe").into()),
        ..NetOpts::default()
    }
}

fn run(on: On<'_>) -> Run<'_> {
    // Generous watchdog: CI machines can be slow to spawn 4 processes.
    Run::on(on).watchdog(Some(Duration::from_secs(60)))
}

const STAGES: [KvStage; 4] = [KvStage::Seq, KvStage::Dsc, KvStage::Pipe, KvStage::Phase];

#[test]
fn all_four_journey_steps_agree_bitwise_across_all_three_executors() {
    let cfg = KvConfig::new(160, 8);
    let pes = 4;
    // The sequential step on the thread executor anchors the journey:
    // every other (step, executor) pair must reproduce it bit for bit.
    let reference = run_kv(KvStage::Seq, &cfg, pes, run(On::Threads))
        .expect("seq threads")
        .product;
    for stage in STAGES {
        let sim = run_kv_sim(stage, &cfg, pes, &CostModel::paper_cluster(), false)
            .unwrap_or_else(|e| panic!("{stage} sim: {e}"));
        let threads = run_kv(stage, &cfg, pes, run(On::Threads))
            .unwrap_or_else(|e| panic!("{stage} threads: {e}"));
        let net = run_kv(stage, &cfg, pes, run(On::Net(&opts())))
            .unwrap_or_else(|e| panic!("{stage} net: {e}"));
        for (exec, out) in [("sim", &sim), ("threads", &threads), ("net", &net)] {
            assert_eq!(
                out.verified,
                Some(true),
                "{stage}/{exec} failed the reference model"
            );
            assert_eq!(
                out.product, reference,
                "{stage}/{exec} product differs from the sequential anchor"
            );
        }
    }
}

#[test]
fn net_kv_parity_survives_a_seeded_hop_delay_plan() {
    // Delay-only faults stress the transport (retries, reordering
    // windows) without touching data-path semantics, so the product
    // must stay bitwise intact.
    let cfg = KvConfig::new(120, 6);
    let plan = FaultPlan::new()
        .delay_hop(0, 1, 0.05)
        .delay_hop(1, 2, 0.08)
        .delay_hop(2, 1, 0.05)
        .delay_hop(3, 1, 0.03);
    for stage in [KvStage::Pipe, KvStage::Phase] {
        let want = run_kv(stage, &cfg, 4, run(On::Threads))
            .unwrap_or_else(|e| panic!("{stage} threads: {e}"));
        let got = run_kv(
            stage,
            &cfg,
            4,
            run(On::Net(&opts())).plan(Some(plan.clone())),
        )
        .unwrap_or_else(|e| panic!("{stage} net faulted: {e}"));
        assert_eq!(got.verified, Some(true), "{stage} faulted net product wrong");
        assert_eq!(
            got.product, want.product,
            "{stage}: faulted net product differs from clean threads"
        );
    }
}

struct Mesh {
    addrs: Vec<String>,
    children: Vec<Child>,
}

impl Drop for Mesh {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    l.local_addr().expect("local addr").to_string()
}

fn spawn_mesh(pes: usize) -> Mesh {
    let bin = env!("CARGO_BIN_EXE_navp-pe");
    let addrs: Vec<String> = (0..pes).map(|_| free_addr()).collect();
    let children = addrs
        .iter()
        .map(|a| {
            let mut cmd = Command::new(bin);
            cmd.args(["--listen", a]).stdin(Stdio::null());
            cmd.spawn().expect("spawn navp-pe")
        })
        .collect();
    // No wait for the listeners to bind: the joining driver retries its
    // connect until the handshake window runs out.
    Mesh { addrs, children }
}

#[test]
fn mixed_gemm_and_kv_jobs_share_one_live_mesh() {
    let mesh = spawn_mesh(4);
    let runner = job_runner(
        MeshOpts {
            join: mesh.addrs.clone(),
            watchdog: Some(Duration::from_secs(60)),
            ..MeshOpts::default()
        },
        None,
    );
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            sched: SchedConfig {
                queue_cap: 16,
                max_inflight: 2,
            },
            ..ServerConfig::default()
        },
        ServeMetrics::new(),
        runner,
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // One GEMM job and two kv jobs (different stages and seeds), all
    // admitted up front so the workers interleave them on the mesh.
    let kv_a = JobSpec {
        stage: "kv_pipe".into(),
        seed_a: 0x0DDB_A115,
        ..JobSpec::example_kv()
    };
    let kv_b = JobSpec {
        stage: "kv_phase".into(),
        n: 120,
        ab: 6,
        ..JobSpec::example_kv()
    };
    let specs = [JobSpec::example(), kv_a.clone(), kv_b.clone()];
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| {
            client::submit(&addr, s.clone())
                .expect("io")
                .expect("admitted")
        })
        .collect();
    let mut checksums = Vec::new();
    for (&id, spec) in ids.iter().zip(&specs) {
        let (info, outcome) = client::wait_terminal(&addr, id, T).expect("terminal");
        assert_eq!(
            info.state,
            JobState::Done,
            "job {id} ({}): {}",
            spec.stage,
            info.detail
        );
        let outcome = outcome.expect("outcome");
        assert!(outcome.verified, "job {id} unverified");
        checksums.push(outcome.checksum);
    }

    // The service's kv checksums must equal what a local in-process
    // run of the same spec computes — the mesh added nothing and lost
    // nothing.
    for (i, spec) in specs.iter().enumerate().skip(1) {
        let stage = KvStage::parse(&spec.stage).expect("kv stage");
        let cfg = KvConfig::new(spec.n as usize, spec.ab as usize).with_seed(spec.seed_a);
        let want = run_kv(stage, &cfg, spec.cols as usize, Run::on(On::Threads))
            .expect("local reference run")
            .product
            .checksum();
        assert_eq!(checksums[i], want, "job {} checksum mismatch", ids[i]);
    }

    server.drain();
    assert!(server.wait_idle(T));
    server.shutdown();
}
