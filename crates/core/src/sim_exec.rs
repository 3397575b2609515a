//! The deterministic virtual-time executor.
//!
//! [`SimExecutor`] runs a [`Cluster`] of messengers under the
//! [`navp_sim`] machine model as a discrete-event simulation:
//!
//! * each PE's CPU runs one messenger step at a time (steps queue behind
//!   each other, so compute contention is modeled);
//! * a hop serializes on the sender's NIC, then takes
//!   `latency + payload/bandwidth` to arrive — this is the paper's
//!   "cost of a hop() is the cost of moving the agent variables plus a
//!   small amount of state data";
//! * paging time is charged when a PE's resident node variables (plus
//!   visiting agent payloads) exceed physical memory;
//! * events with equal timestamps fire in scheduling order, so a given
//!   configuration replays **bit-identically** — the property the
//!   determinism tests pin down with trace fingerprints.
//!
//! Messengers run through the same [`PeCore`] as on the real
//! executors; this module supplies only the virtual clock, the event
//! queue and the deadlock report.
//!
//! The result is a [`SimReport`]: virtual makespan, the post-run stores
//! (to extract the product matrix), and optionally a full [`Trace`].

use crate::agent::{Messenger, StepOutputs};
use crate::cluster::{Cluster, ClusterParts};
use crate::durable::DurableCodec;
use crate::error::RunError;
use crate::fault::FaultStats;
use crate::pe_core::{observe_park, Arrival, EventTable, Parked, PeCore, PeIo, Recovery, Spill};
use navp_metrics::RunMetrics;
use navp_obs::Lane;
use navp_sim::key::{EventKey, NodeId};
use navp_sim::memory::MemoryModel;
use navp_sim::store::NodeStore;
use navp_sim::trace::{Trace, TraceEvent, TraceKind};
use navp_sim::{CostModel, EventQueue, PeResources, VTime};
use std::path::PathBuf;
use std::sync::Arc;

pub use crate::pe_core::HOP_STATE_BYTES;

struct AgentSlot {
    msgr: Option<Box<dyn Messenger>>,
    pe: NodeId,
    label: String,
    /// Delivery generation: bumped when a crash re-delivers this agent
    /// from a checkpoint, so queue entries from before the crash are
    /// recognized as stale and discarded.
    gen: u64,
    /// How its pending delivery arrives.
    via: Arrival,
}

/// Result of a virtual-time run.
pub struct SimReport {
    /// Virtual time at which the last messenger finished.
    pub makespan: VTime,
    /// Post-run node-variable stores (index = PE).
    pub stores: Vec<NodeStore>,
    /// Execution trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Total messenger steps executed.
    pub steps: u64,
    /// Total inter-PE hops taken.
    pub hops: u64,
    /// Total bytes carried across PEs by hops.
    pub hop_bytes: u64,
    /// What the fault machinery did (all zero on a fault-free run).
    pub faults: FaultStats,
}

impl std::fmt::Debug for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimReport")
            .field("makespan", &self.makespan)
            .field("steps", &self.steps)
            .field("hops", &self.hops)
            .field("hop_bytes", &self.hop_bytes)
            .field("pes", &self.stores.len())
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

/// Deterministic discrete-event executor for NavP programs.
pub struct SimExecutor {
    cost: CostModel,
    tracing: bool,
    metrics: Option<Arc<RunMetrics>>,
    durable: Option<(PathBuf, Arc<dyn DurableCodec>)>,
}

/// The simulated cluster's clock and transport: one [`PeIo`] shared by
/// every PE's core, pointed at the PE whose run is being simulated.
struct Sim<'a> {
    cost: &'a CostModel,
    metrics: Option<&'a RunMetrics>,
    lane: Arc<Lane>,
    res: Vec<PeResources>,
    // Queue payloads carry the agent's delivery generation so
    // deliveries scheduled before a crash are discarded as stale.
    queue: EventQueue<(usize, u64)>,
    agents: Vec<AgentSlot>,
    events: EventTable<Box<dyn Messenger>>,
    trace: Trace,
    rec: Option<Recovery>,
    live: usize,
    makespan: VTime,
    /// The PE running now, and its clock: the delivery time until the
    /// first step, then the end of the latest step.
    pe: NodeId,
    t: VTime,
}

impl Sim<'_> {
    fn push(&mut self, start: VTime, end: VTime, aid: usize, kind: TraceKind) {
        let label = self.agents[aid].label.clone();
        self.trace.push(TraceEvent {
            start,
            end,
            actor: aid as u64,
            label,
            kind,
        });
    }

    /// A new agent on `pe`, runnable at `at`.
    fn spawn(&mut self, pe: NodeId, msgr: Box<dyn Messenger>, at: VTime) {
        self.agents.push(AgentSlot {
            label: msgr.label(),
            msgr: Some(msgr),
            pe,
            gen: 0,
            via: Arrival::Fresh,
        });
        self.live += 1;
        self.queue.schedule(at, (self.agents.len() - 1, 0));
    }
}

impl PeIo for Sim<'_> {
    fn recovery(&mut self) -> Option<impl std::ops::DerefMut<Target = Recovery> + '_> {
        self.rec.as_mut()
    }

    fn stepped(&mut self, id: u64, out: &StepOutputs, store: &NodeStore, msgr: &dyn Messenger) {
        let (aid, pe, t) = (id as usize, self.pe, self.t);
        // Duration: modeled compute + daemon overhead + paging.
        let mut dur = self.cost.compute_time(out.flops, out.factor.max(1.0))
            + self.cost.overhead()
            + VTime::from_secs_f64(out.extra_seconds);
        if out.touched_bytes > 0 {
            let mut mem = MemoryModel::new();
            mem.grow(store.total_bytes() + msgr.payload_bytes());
            let fault = mem.fault_time(out.touched_bytes, self.cost);
            if fault > VTime::ZERO {
                dur += fault;
                self.push(t, t + fault, aid, TraceKind::Fault { pe });
            }
        }
        let (start, end) = self.res[pe].run(t, dur);
        self.makespan = self.makespan.max(end);
        self.push(start, end, aid, TraceKind::Exec { pe });
        self.t = end;
    }

    fn next_id(&mut self) -> u64 {
        self.agents.len() as u64
    }

    fn inject(&mut self, _id: u64, msgr: Box<dyn Messenger>) {
        // Local injections become runnable when the step completes.
        self.spawn(self.pe, msgr, self.t);
    }

    fn signal(&mut self, id: u64, key: EventKey) -> Result<(), RunError> {
        let end = self.t;
        self.push(end, end, id as usize, TraceKind::Signal { pe: self.pe });
        if let Some(w) = self.events.signal(key) {
            // Waking a parked messenger is a delivery point: it
            // re-enters its PE's failure domain, so checkpoint it.
            let waiter = w.id as usize;
            if let Some(r) = &mut self.rec {
                r.checkpoint(w.id, w.origin, w.msgr.as_ref());
            }
            if let Some(m) = self.metrics {
                let parked = VTime(w.parked_ns).as_secs_f64();
                let ns = ((end.as_secs_f64() - parked).max(0.0) * 1e9) as u64;
                observe_park(m, w.origin, ns);
            }
            self.agents[waiter].msgr = Some(w.msgr);
            self.queue.schedule(end, (waiter, self.agents[waiter].gen));
        }
        Ok(())
    }

    fn wait(
        &mut self,
        id: u64,
        key: EventKey,
        msgr: Box<dyn Messenger>,
        _parked_ns: u64,
    ) -> Result<Option<Box<dyn Messenger>>, RunError> {
        if self.events.take_banked(key) {
            return Ok(Some(msgr));
        }
        let end = self.t;
        self.push(end, end, id as usize, TraceKind::Block { pe: self.pe });
        self.events.park(
            key,
            Parked {
                id,
                origin: self.pe,
                parked_ns: end.0,
                msgr,
            },
        );
        if let Some(r) = self.rec.as_mut() {
            r.forget(id);
        }
        Ok(None)
    }

    fn hop(
        &mut self,
        id: u64,
        dst: NodeId,
        bytes: u64,
        _sent_ns: u64,
        msgr: Box<dyn Messenger>,
    ) -> Result<(), RunError> {
        let (aid, pe, end) = (id as usize, self.pe, self.t);
        let (_departed, mut arrival) = self.res[pe].send(end, bytes, self.cost);
        if let Some(r) = &mut self.rec {
            arrival += r.hop_fault(dst, &self.lane, 0)?.virtual_time();
            // The hop is a delivery point: checkpoint the post-run
            // state into the destination's failure domain.
            r.checkpoint(id, dst, msgr.as_ref());
        }
        self.push(
            end,
            arrival,
            aid,
            TraceKind::Transfer {
                from: pe,
                to: dst,
                bytes,
            },
        );
        let agent = &mut self.agents[aid];
        agent.pe = dst;
        agent.msgr = Some(msgr);
        agent.via = Arrival::Hop {
            from: pe,
            sent_ns: 0,
            bytes,
            landed_ns: 0,
        };
        let gen = agent.gen;
        self.makespan = self.makespan.max(arrival);
        self.queue.schedule(arrival, (aid, gen));
        Ok(())
    }

    fn done(&mut self, _id: u64) {
        self.live -= 1;
    }

    fn restarted(&mut self, redelivered: Vec<(u64, Box<dyn Messenger>)>) {
        let seconds = self.rec.as_ref().map_or(0.0, |r| r.plan().recovery_seconds);
        let resume = self.t + VTime::from_secs_f64(seconds);
        for (id, msgr) in redelivered {
            let agent = &mut self.agents[id as usize];
            agent.gen += 1;
            agent.msgr = Some(msgr);
            agent.via = Arrival::Fresh;
            let gen = agent.gen;
            self.queue.schedule(resume, (id as usize, gen));
        }
        self.makespan = self.makespan.max(resume);
    }
}

impl SimExecutor {
    /// An executor over the given machine model, tracing disabled.
    pub fn new(cost: CostModel) -> SimExecutor {
        SimExecutor {
            cost,
            tracing: false,
            metrics: None,
            durable: None,
        }
    }

    /// Spill a durable checkpoint of the whole cluster to `dir` at every
    /// run boundary (and once before the first run), so the process can
    /// be killed at any point and the computation restored bitwise with
    /// [`crate::durable::read_all_cuts`] + [`crate::durable::restore_cluster`].
    ///
    /// Requires every messenger to be wire-serializable
    /// ([`Messenger::wire_snapshot`]); otherwise the run fails with
    /// [`RunError::NotSerializable`]. Without this builder the executor
    /// performs **zero** filesystem syscalls.
    pub fn with_durable(
        mut self,
        dir: impl Into<PathBuf>,
        codec: Arc<dyn DurableCodec>,
    ) -> SimExecutor {
        self.durable = Some((dir.into(), codec));
        self
    }

    /// Enable full tracing (needed for space-time diagrams; costs memory
    /// proportional to the number of steps).
    pub fn with_trace(mut self) -> SimExecutor {
        self.tracing = true;
        self
    }

    /// Export live metrics into `metrics` during the run (off by
    /// default). Counters mirror the real executors'; durations (park
    /// time) are *virtual* nanoseconds, because that is the clock this
    /// executor runs on.
    pub fn with_metrics(mut self, metrics: Arc<RunMetrics>) -> SimExecutor {
        self.metrics = Some(metrics);
        self
    }

    /// Run the cluster to completion.
    ///
    /// Returns [`RunError::Deadlock`] when messengers remain but no event
    /// can ever fire, and [`RunError::BadHop`] on a hop outside the
    /// cluster. Under a fault plan, an unrecoverable crash returns
    /// [`RunError::PeCrashed`] (checkpointing disabled) or
    /// [`RunError::RecoveryFailed`] (lost state cannot be restored).
    pub fn run(&self, cluster: Cluster) -> Result<SimReport, RunError> {
        let ClusterParts {
            mut stores,
            injections,
            initial_events,
            fault_plan,
        } = cluster.into_parts();
        let num_nodes = stores.len();
        let durable = self.durable.is_some();
        let rec = Recovery::for_run(fault_plan, durable, &mut stores, &self.metrics)?;
        // Flight-recorder lane for the whole simulated mesh. Events
        // are observational only — nothing reads them back into the
        // run, so products stay bitwise-identical recorder on or off.
        let lane = navp_obs::flight().lane("sim");
        let mut cores: Vec<PeCore> = stores
            .into_iter()
            .enumerate()
            .map(|(pe, store)| {
                PeCore::new(
                    pe,
                    num_nodes,
                    store,
                    Arc::clone(&lane),
                    self.metrics.clone(),
                )
            })
            .collect();
        let mut sim = Sim {
            cost: &self.cost,
            metrics: self.metrics.as_deref(),
            lane,
            res: (0..num_nodes).map(|_| PeResources::new()).collect(),
            queue: EventQueue::new(),
            agents: Vec::with_capacity(injections.len()),
            events: EventTable::default(),
            trace: if self.tracing {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            rec,
            live: 0,
            makespan: VTime::ZERO,
            pe: 0,
            t: VTime::ZERO,
        };
        for key in initial_events {
            sim.events.bank(key);
        }
        for (pe, msgr) in injections {
            cores[pe].admit(sim.rec.as_mut(), sim.agents.len() as u64, msgr.as_ref());
            sim.spawn(pe, msgr, VTime::ZERO);
        }

        let mut spill = match &self.durable {
            Some((dir, codec)) => {
                let mut spill = Spill::create(dir.clone(), Arc::clone(codec), num_nodes)?;
                // Boundary 0: the injected-but-unrun cluster, so even a
                // kill before the first run restores cleanly.
                let rec = sim
                    .rec
                    .as_ref()
                    .expect("durable mode forces fault machinery");
                spill.spill_all(rec, &sim.events, &sim.lane)?;
                Some(spill)
            }
            None => None,
        };

        while let Some((t, (aid, gen))) = sim.queue.pop() {
            if sim.agents[aid].gen != gen {
                // Scheduled before a crash re-delivered this agent.
                continue;
            }
            let pe = sim.agents[aid].pe;
            // Done agents are never rescheduled, but be defensive.
            let Some(msgr) = sim.agents[aid].msgr.take() else {
                continue;
            };
            let via = std::mem::replace(&mut sim.agents[aid].via, Arrival::Fresh);
            cores[pe].arrived(aid as u64, &via, msgr.as_ref());
            (sim.pe, sim.t) = (pe, t);
            // The daemon is non-preemptive: the run continues through
            // local hops and banked waits, `t` advancing step by step.
            let ran = cores[pe].run(&mut sim, aid as u64, msgr)?;
            if let (true, Some(spill), Some(rec)) = (ran, &mut spill, &sim.rec) {
                spill.spill_all(rec, &sim.events, &sim.lane)?;
            }
        }

        if sim.live > 0 {
            let mut blocked: Vec<(String, String)> = sim
                .events
                .waiters()
                .map(|(key, w)| (sim.agents[w.id as usize].label.clone(), key.to_string()))
                .collect();
            blocked.sort();
            return Err(RunError::Deadlock { blocked });
        }

        let (mut steps, mut hops, mut hop_bytes) = (0, 0, 0);
        let stores = cores
            .into_iter()
            .map(|c| {
                steps += c.tally.steps;
                hops += c.tally.hops;
                hop_bytes += c.tally.hop_bytes;
                c.store
            })
            .collect();
        Ok(SimReport {
            makespan: sim.makespan,
            stores,
            trace: sim.trace,
            steps,
            hops,
            hop_bytes,
            faults: sim.rec.map(|r| r.stats()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{PingPong, ToyCodec, WirePingPong};
    use crate::agent::{Effect, MsgrCtx};
    use navp_sim::key::Key;
    use crate::script::Script;

    fn cost() -> CostModel {
        CostModel::paper_cluster()
    }

    #[test]
    fn single_agent_compute_time() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("solo").then(|ctx| {
                ctx.charge_flops(111_000_000); // 1.0 s at paper rate
                Effect::Done
            }),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert!((rep.makespan.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(rep.steps, 1);
        assert_eq!(rep.hops, 0);
    }

    #[test]
    fn hop_charges_transfer_and_moves_locus() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("hopper")
                .with_payload(11_500_000) // 1 s of serialization
                .then(|_| Effect::Hop(1))
                .then(|ctx| {
                    assert_eq!(ctx.here(), 1);
                    ctx.store().insert(Key::plain("arrived"), true, 1);
                    Effect::Done
                }),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        // makespan = serialize(payload + state) + latency
        let expect = (11_500_000.0 + HOP_STATE_BYTES as f64) / 11.5e6 + 0.8e-3;
        assert!((rep.makespan.as_secs_f64() - expect).abs() < 1e-6);
        assert_eq!(rep.hops, 1);
        assert_eq!(rep.stores[1].get::<bool>(Key::plain("arrived")), Some(&true));
    }

    #[test]
    fn local_hop_is_free_of_network_cost() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("stay")
                .with_payload(1 << 30)
                .then(|_| Effect::Hop(0))
                .then(|_| Effect::Done),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert_eq!(rep.makespan, VTime::ZERO);
        assert_eq!(rep.hops, 0);
    }

    #[test]
    fn events_synchronize_producer_consumer() {
        let mut c = Cluster::new(1).unwrap();
        // Consumer waits first, producer signals after 1 s of work.
        c.inject(
            0,
            Script::new("consumer")
                .then(|_| Effect::WaitEvent(Key::plain("go")))
                .then(|ctx| {
                    ctx.store().insert(Key::plain("done"), true, 1);
                    Effect::Done
                }),
        );
        c.inject(
            0,
            Script::new("producer").then(|ctx| {
                ctx.charge_seconds(1.0);
                ctx.signal(Key::plain("go"));
                Effect::Done
            }),
        );
        let mut m = cost();
        m.daemon_overhead = 0.0;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert!((rep.makespan.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(rep.stores[0].get::<bool>(Key::plain("done")), Some(&true));
    }

    #[test]
    fn event_signals_bank_like_semaphores() {
        let mut c = Cluster::new(1).unwrap();
        // Producer signals twice *before* the consumers wait.
        c.inject(
            0,
            Script::new("producer").then(|ctx| {
                ctx.signal(Key::plain("tok"));
                ctx.signal(Key::plain("tok"));
                Effect::Done
            }),
        );
        for i in 0..2 {
            c.inject(
                0,
                Script::new("consumer")
                    .then(|_| Effect::WaitEvent(Key::plain("tok")))
                    .then(move |ctx| {
                        ctx.store().insert(Key::at("got", i), true, 1);
                        Effect::Done
                    }),
            );
        }
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(rep.stores[0].get::<bool>(Key::at("got", 0)), Some(&true));
        assert_eq!(rep.stores[0].get::<bool>(Key::at("got", 1)), Some(&true));
    }

    #[test]
    fn deadlock_is_reported_with_blockers() {
        let mut c = Cluster::new(1).unwrap();
        c.inject(
            0,
            Script::new("stuck").then(|_| Effect::WaitEvent(Key::plain("never"))),
        );
        let err = SimExecutor::new(cost()).run(c).unwrap_err();
        match err {
            RunError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert!(blocked[0].0.contains("stuck"));
                assert!(blocked[0].1.contains("never"));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn bad_hop_is_reported() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, Script::new("wild").then(|_| Effect::Hop(7)));
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::BadHop { dst: 7, pes: 2, .. })
        ));
    }

    #[test]
    fn injection_spawns_locally() {
        let mut c = Cluster::new(2).unwrap();
        c.inject(
            0,
            Script::new("spawner").then(|ctx| {
                let here = ctx.here();
                ctx.inject(Script::new("child").then(move |cctx| {
                    assert_eq!(cctx.here(), here, "injection must be local");
                    cctx.store().insert(Key::plain("child-ran"), true, 1);
                    Effect::Done
                }));
                Effect::Done
            }),
        );
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(
            rep.stores[0].get::<bool>(Key::plain("child-ran")),
            Some(&true)
        );
        assert!(rep.stores[1].is_empty());
    }

    #[test]
    fn pipelined_agents_overlap_in_virtual_time() {
        // Two agents, each: 1 s work on PE0, hop, 1 s work on PE1.
        // Pipelined makespan must be ~3 s, not 4 s.
        let mut c = Cluster::new(2).unwrap();
        for i in 0..2 {
            c.inject(
                0,
                Script::new(if i == 0 { "first" } else { "second" })
                    .then(|ctx| {
                        ctx.charge_seconds(1.0);
                        Effect::Hop(1)
                    })
                    .then(|ctx| {
                        ctx.charge_seconds(1.0);
                        Effect::Done
                    }),
            );
        }
        let mut m = cost();
        m.daemon_overhead = 0.0;
        m.nic_latency = 0.0;
        m.nic_bandwidth = f64::INFINITY;
        let rep = SimExecutor::new(m).run(c).unwrap();
        assert!((rep.makespan.as_secs_f64() - 3.0).abs() < 1e-9, "{}", rep.makespan);
    }

    #[test]
    fn deterministic_fingerprints() {
        let build = || {
            let mut c = Cluster::new(3).unwrap();
            for i in 0..5usize {
                c.inject(
                    i % 3,
                    Script::new("w")
                        .then(move |ctx| {
                            ctx.charge_flops(1000 * (i as u64 + 1));
                            Effect::Hop((i + 1) % 3)
                        })
                        .then(|_| Effect::Done),
                );
            }
            c
        };
        let r1 = SimExecutor::new(cost()).with_trace().run(build()).unwrap();
        let r2 = SimExecutor::new(cost()).with_trace().run(build()).unwrap();
        assert_eq!(r1.trace.fingerprint(), r2.trace.fingerprint());
        assert_eq!(r1.makespan, r2.makespan);
    }

    fn pingpong_cluster() -> Cluster {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, PingPong { hops_left: 6 });
        c
    }

    fn counts(rep: &SimReport) -> (u64, u64) {
        let k = Key::plain("count");
        (
            rep.stores[0].get::<u64>(k).copied().unwrap_or(0),
            rep.stores[1].get::<u64>(k).copied().unwrap_or(0),
        )
    }

    #[test]
    fn crash_recovery_preserves_results() {
        use crate::fault::FaultPlan;
        let clean = SimExecutor::new(cost()).run(pingpong_cluster()).unwrap();
        assert_eq!(counts(&clean), (4, 3));
        assert!(!clean.faults.any());

        // Crash PE 1 just before its second run: the store rebuild must
        // replay the first visit's write and the messenger must resume
        // from its hop checkpoint.
        let faulted = pingpong_cluster().with_fault_plan(FaultPlan::new().crash_pe(1, 2));
        let rep = SimExecutor::new(cost()).run(faulted).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "recovery must be exact");
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.redelivered, 1);
        assert!(rep.faults.replayed_writes >= 1);
        assert!(rep.makespan > clean.makespan, "recovery costs virtual time");
    }

    #[test]
    fn crash_without_checkpointing_is_structured() {
        use crate::fault::FaultPlan;
        let c = pingpong_cluster()
            .with_fault_plan(FaultPlan::new().crash_pe(0, 1).without_checkpointing());
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::PeCrashed { pe: 0, run: 1 })
        ));
    }

    #[test]
    fn dropped_hop_retries_then_delivers() {
        use crate::fault::FaultPlan;
        let clean = SimExecutor::new(cost()).run(pingpong_cluster()).unwrap();
        let c = pingpong_cluster().with_fault_plan(FaultPlan::new().drop_hop(1, 1));
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(counts(&rep), counts(&clean));
        assert_eq!(rep.faults.hops_dropped, 1);
        assert_eq!(rep.faults.send_retries, 1);
    }

    #[test]
    fn drop_exhaustion_is_recovery_failure() {
        use crate::fault::FaultPlan;
        let mut plan = FaultPlan::new();
        for nth in 1..=4 {
            plan = plan.drop_hop(1, nth);
        }
        let c = pingpong_cluster().with_fault_plan(plan);
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::RecoveryFailed { pe: 1, .. })
        ));
    }

    #[test]
    fn delayed_hop_extends_makespan() {
        use crate::fault::FaultPlan;
        let clean = SimExecutor::new(cost()).run(pingpong_cluster()).unwrap();
        let c = pingpong_cluster().with_fault_plan(FaultPlan::new().delay_hop(1, 1, 2.0));
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(counts(&rep), counts(&clean));
        assert_eq!(rep.faults.hops_delayed, 1);
        assert!(rep.makespan.as_secs_f64() >= clean.makespan.as_secs_f64() + 1.999);
    }

    #[test]
    fn lost_signal_deadlocks_waiter() {
        use crate::fault::FaultPlan;
        let build = || {
            let mut c = Cluster::new(1).unwrap();
            c.inject(
                0,
                Script::new("producer").then(|ctx| {
                    ctx.signal(Key::plain("go"));
                    Effect::Done
                }),
            );
            c.inject(
                0,
                Script::new("consumer")
                    .then(|_| Effect::WaitEvent(Key::plain("go")))
                    .then(|_| Effect::Done),
            );
            c
        };
        // Sanity: fault-free it terminates.
        SimExecutor::new(cost()).run(build()).unwrap();
        let c = build().with_fault_plan(FaultPlan::new().lose_signal(0, 1));
        assert!(matches!(
            SimExecutor::new(cost()).run(c),
            Err(RunError::Deadlock { .. })
        ));
    }

    #[test]
    fn crash_spares_parked_waiters() {
        use crate::fault::FaultPlan;
        // The consumer parks on PE 0 before the crash; its state lives in
        // the event service and must survive the crash that destroys the
        // producer's delivery (which is then re-delivered and re-run).
        #[derive(Clone)]
        struct Producer {
            fired: bool,
        }
        impl Messenger for Producer {
            fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
                if !self.fired {
                    self.fired = true;
                    return Effect::Hop(ctx.here()); // run boundary filler
                }
                ctx.signal(Key::plain("go"));
                Effect::Done
            }
            fn snapshot(&self) -> Option<Box<dyn Messenger>> {
                Some(Box::new(self.clone()))
            }
        }
        #[derive(Clone)]
        struct Consumer {
            waited: bool,
        }
        impl Messenger for Consumer {
            fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
                if !self.waited {
                    self.waited = true;
                    return Effect::WaitEvent(Key::plain("go"));
                }
                ctx.store().insert(Key::plain("done"), true, 1);
                Effect::Done
            }
            fn snapshot(&self) -> Option<Box<dyn Messenger>> {
                Some(Box::new(self.clone()))
            }
        }
        let mut c = Cluster::new(1).unwrap();
        c.inject(0, Consumer { waited: false });
        c.inject(0, Producer { fired: false });
        c.set_fault_plan(FaultPlan::new().crash_pe(0, 2));
        let rep = SimExecutor::new(cost()).run(c).unwrap();
        assert_eq!(rep.stores[0].get::<bool>(Key::plain("done")), Some(&true));
        assert_eq!(rep.faults.crashes, 1);
        assert_eq!(rep.faults.redelivered, 1, "only the producer is lost");
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::fault::FaultPlan;
        let run = || {
            let c = pingpong_cluster().with_fault_plan(FaultPlan::seeded(0xFA17, 2));
            SimExecutor::new(cost()).with_trace().run(c).unwrap()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.trace.fingerprint(), r2.trace.fingerprint());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.faults, r2.faults);
    }

    #[test]
    fn metrics_reconcile_with_sim_report() {
        let m = RunMetrics::new(2);
        let rep = SimExecutor::new(cost())
            .with_metrics(Arc::clone(&m))
            .run(pingpong_cluster())
            .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.total("navp_hops_total") as u64, rep.hops);
        assert_eq!(snap.total("navp_hop_bytes_total") as u64, rep.hop_bytes);
        assert_eq!(snap.total("navp_steps_total") as u64, rep.steps);
        assert_eq!(snap.total("navp_injections_total") as u64, 1);
        navp_metrics::validate_prometheus(&m.registry.render()).expect("valid");
    }

    fn wire_cluster() -> Cluster {
        let mut c = Cluster::new(2).unwrap();
        c.inject(0, WirePingPong { hops_left: 6 });
        c
    }

    #[test]
    fn durable_spill_restores_finished_run() {
        let dir = std::env::temp_dir().join(format!("navp-sim-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let clean = SimExecutor::new(cost()).run(wire_cluster()).unwrap();
        let rep = SimExecutor::new(cost())
            .with_durable(&dir, Arc::new(ToyCodec))
            .run(wire_cluster())
            .unwrap();
        assert_eq!(counts(&rep), counts(&clean), "durable mode must not change results");

        let (_, cuts) = crate::durable::read_all_cuts(&dir).unwrap();
        let restored = crate::durable::restore_cluster(&cuts, &ToyCodec).unwrap();
        let rep2 = SimExecutor::new(cost()).run(restored).unwrap();
        assert_eq!(counts(&rep2), counts(&clean), "restored final cut is the final state");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_restore_completes_a_killed_run_bitwise() {
        use crate::fault::FaultPlan;
        let dir = std::env::temp_dir().join(format!("navp-sim-killed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let clean = SimExecutor::new(cost()).run(wire_cluster()).unwrap();

        // Checkpointing off: the injected crash aborts the whole run
        // mid-computation, the closest in-process analogue of kill -9.
        let c = wire_cluster()
            .with_fault_plan(FaultPlan::new().crash_pe(1, 2).without_checkpointing());
        let err = SimExecutor::new(cost())
            .with_durable(&dir, Arc::new(ToyCodec))
            .run(c)
            .unwrap_err();
        assert!(matches!(err, RunError::PeCrashed { pe: 1, .. }), "{err}");

        // The durable directory holds the last committed boundary;
        // restoring and finishing must reproduce the clean result.
        let (_, cuts) = crate::durable::read_all_cuts(&dir).unwrap();
        let restored = crate::durable::restore_cluster(&cuts, &ToyCodec).unwrap();
        let rep = SimExecutor::new(cost()).run(restored).unwrap();
        assert_eq!(counts(&rep), counts(&clean), "restore must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_metrics_count_flushes() {
        let dir = std::env::temp_dir().join(format!("navp-sim-dmx-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let m = RunMetrics::new(2);
        SimExecutor::new(cost())
            .with_durable(&dir, Arc::new(ToyCodec))
            .with_metrics(Arc::clone(&m))
            .run(wire_cluster())
            .unwrap();
        let snap = m.snapshot();
        assert!(snap.total("navp_durable_flushes_total") > 0.0);
        assert!(snap.total("navp_durable_bytes_total") > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paging_charged_when_overloaded() {
        let mut m = cost();
        m.daemon_overhead = 0.0;
        m.mem_capacity = 1000;
        m.fault_bandwidth = 1e3; // 1 KB/s: faults are very visible
        let mut c = Cluster::new(1).unwrap();
        c.store_mut(0).insert(Key::plain("big"), (), 8000); // 8x overload
        c.inject(
            0,
            Script::new("toucher").then(|ctx| {
                ctx.charge_touched(1000);
                Effect::Done
            }),
        );
        let rep = SimExecutor::new(m).run(c).unwrap();
        // miss fraction = 1 - 3/8 = 0.625; 625 bytes at 1 KB/s = 0.625 s
        assert!((rep.makespan.as_secs_f64() - 0.625).abs() < 1e-6);
    }
}
