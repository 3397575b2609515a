//! The two executors must implement the *same semantics*: any program's
//! observable results — final node-variable contents — must agree between
//! the virtual-time simulator and the real threads, and runtime
//! features (initial events, injection, payload accounting) must behave
//! identically.

use navp::script::Script;
use navp::{Cluster, Effect, FaultPlan, Key, Messenger, MsgrCtx, SimExecutor, ThreadExecutor};
use navp_metrics::RunMetrics;
use navp_sim::CostModel;
use std::sync::Arc;

fn both(build: impl Fn() -> Cluster) -> (Vec<navp::NodeStore>, Vec<navp::NodeStore>) {
    let sim = SimExecutor::new(CostModel::paper_cluster())
        .run(build())
        .expect("sim run");
    let thr = ThreadExecutor::new().run(build()).expect("thread run");
    (sim.stores, thr.stores)
}

#[test]
fn initial_events_satisfy_first_wait_on_both() {
    let build = || {
        let mut cl = Cluster::new(1).expect("cluster");
        cl.signal_initial(Key::plain("go"));
        cl.signal_initial(Key::plain("go"));
        cl.inject(
            0,
            Script::new("waiter")
                .then(|_| Effect::WaitEvent(Key::plain("go")))
                .then(|_| Effect::WaitEvent(Key::plain("go")))
                .then(|ctx| {
                    ctx.store().insert(Key::plain("woke"), 2u32, 4);
                    Effect::Done
                }),
        );
        cl
    };
    let (sim, thr) = both(build);
    assert_eq!(sim[0].get::<u32>(Key::plain("woke")), Some(&2));
    assert_eq!(thr[0].get::<u32>(Key::plain("woke")), Some(&2));
}

#[test]
fn chained_producers_consumers_agree() {
    // A ring of producer/consumer pairs across 4 PEs with token-passing.
    let build = || {
        let pes = 4;
        let mut cl = Cluster::new(pes).expect("cluster");
        cl.signal_initial(Key::at("token", 0));
        for pe in 0..pes {
            cl.inject(
                pe,
                Script::new("worker")
                    .then(move |_| Effect::WaitEvent(Key::at("token", pe)))
                    .then(move |ctx| {
                        let so_far = ctx
                            .store()
                            .get::<u64>(Key::plain("sum"))
                            .copied()
                            .unwrap_or(0);
                        ctx.store().insert(Key::plain("sum"), so_far + pe as u64, 8);
                        ctx.signal(Key::at("token", (pe + 1) % pes));
                        Effect::Done
                    }),
            );
        }
        cl
    };
    let (sim, thr) = both(build);
    for pe in 0..4 {
        assert_eq!(
            sim[pe].get::<u64>(Key::plain("sum")),
            thr[pe].get::<u64>(Key::plain("sum")),
            "PE {pe} disagrees"
        );
    }
}

#[test]
fn heavy_contention_reaches_same_totals() {
    // 20 messengers all incrementing counters on 2 PEs through hops;
    // the final totals are deterministic even though thread scheduling
    // is not.
    let build = || {
        let mut cl = Cluster::new(2).expect("cluster");
        for a in 0..20usize {
            cl.inject(
                a % 2,
                Script::new("inc").then_each(6, |_, ctx| {
                    let here = ctx.here();
                    let n = ctx
                        .store()
                        .get::<u64>(Key::plain("count"))
                        .copied()
                        .unwrap_or(0);
                    ctx.store().insert(Key::plain("count"), n + 1, 8);
                    Effect::Hop(1 - here)
                }),
            );
        }
        cl
    };
    let (sim, thr) = both(build);
    let total =
        |stores: &[navp::NodeStore]| -> u64 {
            stores
                .iter()
                .map(|s| s.get::<u64>(Key::plain("count")).copied().unwrap_or(0))
                .sum()
        };
    assert_eq!(total(&sim), 120);
    assert_eq!(total(&thr), 120);
}

/// A checkpointable messenger that ping-pongs between two PEs, bumping
/// a per-PE visit counter on each arrival.
#[derive(Clone)]
struct PingPong {
    hops_left: usize,
}

impl Messenger for PingPong {
    fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
        let k = Key::plain("count");
        let cur = ctx.store_ref().get::<u64>(k).copied().unwrap_or(0);
        ctx.store().insert(k, cur + 1, 8);
        if self.hops_left == 0 {
            return Effect::Done;
        }
        self.hops_left -= 1;
        Effect::Hop((ctx.here() + 1) % ctx.num_nodes())
    }
    fn payload_bytes(&self) -> u64 {
        64
    }
    fn snapshot(&self) -> Option<Box<dyn Messenger>> {
        Some(Box::new(self.clone()))
    }
}

#[test]
fn crash_recovery_counters_agree_across_executors() {
    let build = || {
        let mut cl = Cluster::new(2).expect("cluster");
        cl.inject(0, PingPong { hops_left: 6 });
        cl.with_fault_plan(FaultPlan::new().crash_pe(1, 2))
    };
    let sim_m = RunMetrics::new(2);
    let sim = SimExecutor::new(CostModel::paper_cluster())
        .with_metrics(Arc::clone(&sim_m))
        .run(build())
        .expect("sim run");
    let thr_m = RunMetrics::new(2);
    let thr = ThreadExecutor::new()
        .with_metrics(Arc::clone(&thr_m))
        .run(build())
        .expect("thread run");
    assert_eq!(sim.faults, thr.faults);
    let (sim_s, thr_s) = (sim_m.snapshot(), thr_m.snapshot());
    for name in [
        "navp_checkpoints_total",
        "navp_checkpoint_bytes_total",
        "navp_journal_commits_total",
        "navp_hops_total",
        "navp_steps_total",
        "navp_fault_injections_total",
    ] {
        assert_eq!(sim_s.total(name), thr_s.total(name), "{name} disagrees");
    }
}
