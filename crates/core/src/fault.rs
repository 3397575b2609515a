//! Deterministic fault injection for the NavP runtime.
//!
//! A [`FaultPlan`] is a declarative list of faults — PE crashes, hop
//! delivery delays/drops, lost event signals — that both executors
//! consume through a [`FaultTracker`]. All trigger points are counted
//! deterministically (the Nth messenger run on a PE, the Nth hop
//! arriving at a PE, the Nth signal emitted on a PE), so a given plan
//! produces the same fault schedule on every run: faults are part of
//! the experiment, not noise.
//!
//! Crashes are quantized to *run boundaries*: a PE fails between
//! messenger runs, never mid-step. Under NavP's non-preemptive
//! execution model a run is the natural unit of atomicity — the same
//! granularity at which `recovery` journals node-variable writes — so
//! boundary crashes lose whole runs, never half of one.

use crate::error::RunError;
use std::time::Duration;

/// What happens to a hop's delivery at the destination PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HopFault {
    /// Delivery is delayed by this many (virtual or wall) seconds.
    Delay {
        /// Extra latency added to the hop.
        seconds: f64,
    },
    /// The delivery attempt is lost; the runtime retries with backoff.
    Drop,
}

/// Crash PE `pe` when it is about to start its `at_run`-th messenger
/// run (1-based). Fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRule {
    /// The PE to crash.
    pub pe: usize,
    /// 1-based run count on that PE at which the crash fires.
    pub at_run: u64,
}

/// Apply `fault` to the `nth` hop (1-based) arriving at PE `dst`.
/// Fires once; a dropped delivery's retries are fresh arrivals and keep
/// counting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopFaultRule {
    /// Destination PE whose arrivals are counted.
    pub dst: usize,
    /// 1-based arrival count at which the fault fires.
    pub nth: u64,
    /// The fault to apply.
    pub fault: HopFault,
}

/// Silently swallow the `nth` event signal (1-based) emitted on PE
/// `pe`. Fires once. Lost signals are *not* recoverable — they model
/// the bug class the paper's counting events are designed to surface —
/// so [`FaultPlan::seeded`] generates them only rarely and the
/// fault-space explorer classifies the resulting deadlock/stall as the
/// *expected* outcome rather than a parity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostSignalRule {
    /// The PE whose emitted signals are counted.
    pub pe: usize,
    /// 1-based signal count at which the loss fires.
    pub nth: u64,
}

/// A deterministic schedule of injected faults plus the recovery knobs
/// the executors honour while absorbing them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PE crash rules.
    pub crashes: Vec<CrashRule>,
    /// Hop delivery fault rules.
    pub hop_faults: Vec<HopFaultRule>,
    /// Lost-signal rules.
    pub lost_signals: Vec<LostSignalRule>,
    /// When `true` (default) the executors checkpoint messenger state at
    /// hop boundaries and journal node-store writes, so crashes are
    /// recovered. When `false` a crash surfaces as
    /// [`RunError::PeCrashed`](crate::RunError::PeCrashed).
    pub checkpointing: bool,
    /// How many times a dropped delivery is retried before recovery is
    /// declared failed.
    pub max_send_retries: u32,
    /// Wall-clock backoff between delivery retries (thread executor);
    /// the simulator charges its `as_secs_f64()` in virtual time.
    pub retry_backoff: Duration,
    /// Virtual seconds the simulator charges for rebuilding a crashed
    /// PE (daemon restart + journal replay).
    pub recovery_seconds: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            crashes: Vec::new(),
            hop_faults: Vec::new(),
            lost_signals: Vec::new(),
            checkpointing: true,
            max_send_retries: 3,
            retry_backoff: Duration::from_millis(1),
            recovery_seconds: 0.05,
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults, checkpointing on).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.hop_faults.is_empty() && self.lost_signals.is_empty()
    }

    /// Crash `pe` at its `at_run`-th messenger run (1-based).
    pub fn crash_pe(mut self, pe: usize, at_run: u64) -> FaultPlan {
        self.crashes.push(CrashRule { pe, at_run });
        self
    }

    /// Delay the `nth` hop arriving at `dst` by `seconds`.
    pub fn delay_hop(mut self, dst: usize, nth: u64, seconds: f64) -> FaultPlan {
        self.hop_faults.push(HopFaultRule {
            dst,
            nth,
            fault: HopFault::Delay { seconds },
        });
        self
    }

    /// Drop the `nth` delivery attempt arriving at `dst` (the runtime
    /// retries it).
    pub fn drop_hop(mut self, dst: usize, nth: u64) -> FaultPlan {
        self.hop_faults.push(HopFaultRule {
            dst,
            nth,
            fault: HopFault::Drop,
        });
        self
    }

    /// Swallow the `nth` signal emitted on `pe`.
    pub fn lose_signal(mut self, pe: usize, nth: u64) -> FaultPlan {
        self.lost_signals.push(LostSignalRule { pe, nth });
        self
    }

    /// Disable hop-boundary checkpointing: any crash becomes a
    /// structured [`RunError::PeCrashed`](crate::RunError::PeCrashed)
    /// instead of being recovered.
    pub fn without_checkpointing(mut self) -> FaultPlan {
        self.checkpointing = false;
        self
    }

    /// Tune the dropped-delivery retry budget and backoff.
    pub fn with_retry(mut self, max_send_retries: u32, backoff: Duration) -> FaultPlan {
        self.max_send_retries = max_send_retries;
        self.retry_backoff = backoff;
        self
    }

    /// Set the virtual-time cost the simulator charges per recovery.
    pub fn with_recovery_seconds(mut self, seconds: f64) -> FaultPlan {
        self.recovery_seconds = seconds;
        self
    }

    /// A seeded plan covering all four fault kinds for a `pes`-PE
    /// cluster, placed deterministically from `seed`.
    ///
    /// Each kind draws from its own [`SplitMix64::split`] stream, so
    /// extending one kind's sampling never perturbs the others' plans
    /// for existing seeds. Every plan carries at least one crash and at
    /// least one hop fault (delays and drops both appear across the
    /// seed space); about one seed in eight also loses a signal —
    /// unrecoverable by design, which the fault-space explorer treats
    /// as an *expected* deadlock/stall rather than a parity violation.
    pub fn seeded(seed: u64, pes: usize) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        if pes == 0 {
            return plan;
        }
        let mut crash_rng = rng.split();
        let mut hop_rng = rng.split();
        let mut signal_rng = rng.split();
        let crashes = 1 + crash_rng.next_u64() % 2;
        for _ in 0..crashes {
            let pe = (crash_rng.next_u64() as usize) % pes;
            let run = 1 + crash_rng.next_u64() % 8;
            plan = plan.crash_pe(pe, run);
        }
        let hops = 1 + hop_rng.next_u64() % 3;
        for _ in 0..hops {
            let dst = (hop_rng.next_u64() as usize) % pes;
            let nth = 1 + hop_rng.next_u64() % 6;
            if hop_rng.next_u64().is_multiple_of(2) {
                let seconds = 0.001 + (hop_rng.next_u64() % 1000) as f64 * 1e-5;
                plan = plan.delay_hop(dst, nth, seconds);
            } else {
                plan = plan.drop_hop(dst, nth);
            }
        }
        if signal_rng.next_u64().is_multiple_of(8) {
            let pe = (signal_rng.next_u64() as usize) % pes;
            let nth = 1 + signal_rng.next_u64() % 4;
            plan = plan.lose_signal(pe, nth);
        }
        plan
    }

    /// `true` when every fault in the plan is recoverable under
    /// checkpointing: no lost signals (those deadlock a waiter by
    /// design) and checkpointing itself is on.
    pub fn is_recoverable(&self) -> bool {
        self.checkpointing && self.lost_signals.is_empty()
    }

    /// Render the plan as the line-oriented `navpfault` text format
    /// shared by repro files and `NAVP_FAULT_SPEC` env injection.
    /// [`FaultPlan::parse_spec`] inverts this exactly: f64 fields use
    /// Rust's shortest round-trip formatting, and the retry backoff is
    /// written in milliseconds when it is a whole number of them, else
    /// in nanoseconds. It is also the plan's wire form (the net
    /// `Start` frame carries it).
    pub fn to_spec(&self) -> String {
        let mut out = String::new();
        for c in &self.crashes {
            out.push_str(&format!("crash pe={} run={}\n", c.pe, c.at_run));
        }
        for h in &self.hop_faults {
            match h.fault {
                HopFault::Delay { seconds } => out.push_str(&format!(
                    "delay pe={} arrival={} seconds={}\n",
                    h.dst, h.nth, seconds
                )),
                HopFault::Drop => {
                    out.push_str(&format!("drop pe={} arrival={}\n", h.dst, h.nth))
                }
            }
        }
        for s in &self.lost_signals {
            out.push_str(&format!("lose-signal pe={} signal={}\n", s.pe, s.nth));
        }
        if !self.checkpointing {
            out.push_str("checkpointing off\n");
        }
        let d = FaultPlan::default();
        if self.max_send_retries != d.max_send_retries || self.retry_backoff != d.retry_backoff {
            let b = self.retry_backoff;
            let backoff = if b.subsec_nanos().is_multiple_of(1_000_000) {
                format!("backoff-ms={}", b.as_millis())
            } else {
                format!("backoff-ns={}", b.as_nanos())
            };
            out.push_str(&format!("retry max={} {backoff}\n", self.max_send_retries));
        }
        if self.recovery_seconds != d.recovery_seconds {
            out.push_str(&format!("recovery-seconds {}\n", self.recovery_seconds));
        }
        out
    }

    /// Parse the `navpfault` text format produced by
    /// [`FaultPlan::to_spec`]. Blank lines and `#` comments are
    /// ignored; any other unrecognized line is a descriptive error.
    pub fn parse_spec(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            let mut words = line.split_whitespace();
            let verb = words.next().expect("non-empty line has a first word");
            let rest: Vec<&str> = words.collect();
            match verb {
                "crash" => {
                    let pe: u64 = field(&rest, "pe").ok_or_else(|| err("crash needs pe=N"))?;
                    let run: u64 = field(&rest, "run").ok_or_else(|| err("crash needs run=N"))?;
                    plan = plan.crash_pe(pe as usize, run);
                }
                "delay" => {
                    let pe: u64 = field(&rest, "pe").ok_or_else(|| err("delay needs pe=N"))?;
                    let nth: u64 =
                        field(&rest, "arrival").ok_or_else(|| err("delay needs arrival=N"))?;
                    let secs: f64 =
                        field(&rest, "seconds").ok_or_else(|| err("delay needs seconds=F"))?;
                    plan = plan.delay_hop(pe as usize, nth, secs);
                }
                "drop" => {
                    let pe: u64 = field(&rest, "pe").ok_or_else(|| err("drop needs pe=N"))?;
                    let nth: u64 =
                        field(&rest, "arrival").ok_or_else(|| err("drop needs arrival=N"))?;
                    plan = plan.drop_hop(pe as usize, nth);
                }
                "lose-signal" => {
                    let pe: u64 = field(&rest, "pe").ok_or_else(|| err("lose-signal needs pe=N"))?;
                    let nth: u64 = field(&rest, "signal")
                        .ok_or_else(|| err("lose-signal needs signal=N"))?;
                    plan = plan.lose_signal(pe as usize, nth);
                }
                "checkpointing" => match rest.as_slice() {
                    ["off"] => plan = plan.without_checkpointing(),
                    ["on"] => plan.checkpointing = true,
                    _ => return Err(err("checkpointing takes `on` or `off`")),
                },
                "retry" => {
                    let max: u64 = field(&rest, "max").ok_or_else(|| err("retry needs max=N"))?;
                    let backoff = field::<u128>(&rest, "backoff-ms")
                        .and_then(|ms| ms.checked_mul(1_000_000))
                        .or_else(|| field(&rest, "backoff-ns"))
                        .and_then(nanos_duration)
                        .ok_or_else(|| err("retry needs backoff-ms=N or backoff-ns=N"))?;
                    plan = plan.with_retry(max as u32, backoff);
                }
                "recovery-seconds" => {
                    let secs: f64 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("recovery-seconds takes one float"))?;
                    plan = plan.with_recovery_seconds(secs);
                }
                _ => return Err(err("unknown fault verb")),
            }
        }
        Ok(plan)
    }

    /// Read a plan from the `NAVP_FAULT_SPEC` environment variable, if
    /// set. `Ok(None)` means the variable is unset (no injection); a
    /// malformed spec is a descriptive `Err`.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var(FAULT_SPEC_ENV) {
            Ok(text) => FaultPlan::parse_spec(&text).map(Some),
            Err(_) => Ok(None),
        }
    }

    /// The plan a run injects, the same rule on every executor: the
    /// cluster's `explicit` plan, or else the one `env` reads (normally
    /// [`FaultPlan::from_env`]; repro files paste in verbatim, and a
    /// malformed spec is a loud error, not a silently clean run). A plan
    /// that injects nothing resolves to `None` — unless the run is
    /// `durable`: the cut it spills *is* the recovery state, so it runs
    /// under an empty plan.
    pub fn resolve(
        explicit: Option<FaultPlan>,
        env: impl FnOnce() -> Result<Option<FaultPlan>, String>,
        durable: bool,
    ) -> Result<Option<FaultPlan>, RunError> {
        let plan = match explicit {
            Some(p) => Some(p),
            None => env().map_err(|detail| RunError::Transport { detail })?,
        };
        Ok(match plan.filter(|p| !p.is_empty()) {
            None if durable => Some(FaultPlan::new()),
            other => other,
        })
    }
}

/// Environment variable holding a `navpfault` spec ([`FaultPlan::parse_spec`])
/// to inject into a run without touching code.
pub const FAULT_SPEC_ENV: &str = "NAVP_FAULT_SPEC";

fn field<T: std::str::FromStr>(words: &[&str], key: &str) -> Option<T> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// `ns` nanoseconds as a [`Duration`], `None` past its range.
fn nanos_duration(ns: u128) -> Option<Duration> {
    let secs = u64::try_from(ns / 1_000_000_000).ok()?;
    Some(Duration::new(secs, (ns % 1_000_000_000) as u32))
}

/// SplitMix64 — the deterministic generator behind [`FaultPlan::seeded`]
/// and the fault-space explorer ([`crate::explore`]).
///
/// Splittable: [`SplitMix64::split`] derives an independent child
/// stream, so each fault kind (and each explored schedule) gets its own
/// stream and sampling one never perturbs the others.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derive an independent child generator (one draw from this
    /// stream becomes the child's seed).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64(self.next_u64())
    }
}

/// Counters reporting what fault machinery actually did during a run.
/// Attached to both executors' reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// PE crashes injected (and, with checkpointing, recovered).
    pub crashes: u64,
    /// Checkpointed messengers re-delivered after crashes.
    pub redelivered: u64,
    /// Journaled node-store writes replayed during store rebuilds.
    pub replayed_writes: u64,
    /// Delivery retries performed after dropped sends.
    pub send_retries: u64,
    /// Hop deliveries delayed by an injected fault.
    pub hops_delayed: u64,
    /// Hop delivery attempts dropped by an injected fault.
    pub hops_dropped: u64,
    /// Event signals swallowed by an injected fault.
    pub signals_lost: u64,
}

impl FaultStats {
    /// `true` when any counter is nonzero.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Accumulate another run's counters into this one (for aggregating
    /// across the runs of a table or suite).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.crashes += other.crashes;
        self.redelivered += other.redelivered;
        self.replayed_writes += other.replayed_writes;
        self.send_retries += other.send_retries;
        self.hops_delayed += other.hops_delayed;
        self.hops_dropped += other.hops_dropped;
        self.signals_lost += other.signals_lost;
    }
}

/// Runtime companion of a [`FaultPlan`]: owns the per-PE counters and
/// answers "does a fault fire here?" at each instrumentation point.
/// Each rule fires at most once.
#[derive(Debug)]
pub struct FaultTracker {
    plan: FaultPlan,
    /// Messenger runs completed per PE.
    runs: Vec<u64>,
    /// Hop delivery attempts arrived per PE.
    arrivals: Vec<u64>,
    /// Signals emitted per PE.
    signals: Vec<u64>,
    crash_fired: Vec<bool>,
    hop_fired: Vec<bool>,
    signal_fired: Vec<bool>,
}

impl FaultTracker {
    /// A tracker for `plan` over a `pes`-PE cluster.
    pub fn new(plan: FaultPlan, pes: usize) -> FaultTracker {
        let crash_fired = vec![false; plan.crashes.len()];
        let hop_fired = vec![false; plan.hop_faults.len()];
        let signal_fired = vec![false; plan.lost_signals.len()];
        FaultTracker {
            plan,
            runs: vec![0; pes],
            arrivals: vec![0; pes],
            signals: vec![0; pes],
            crash_fired,
            hop_fired,
            signal_fired,
        }
    }

    /// The plan driving this tracker.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Called when PE `pe` is about to start a messenger run. Returns
    /// `Some(run_count)` when a crash rule fires here — the PE must
    /// crash *before* the run executes.
    pub fn on_run(&mut self, pe: usize) -> Option<u64> {
        self.runs[pe] += 1;
        let run = self.runs[pe];
        for (i, rule) in self.plan.crashes.iter().enumerate() {
            if !self.crash_fired[i] && rule.pe == pe && rule.at_run == run {
                self.crash_fired[i] = true;
                return Some(run);
            }
        }
        None
    }

    /// Called per delivery attempt of a hop arriving at PE `dst`.
    /// Returns the fault to apply, if one fires.
    pub fn on_hop(&mut self, dst: usize) -> Option<HopFault> {
        self.arrivals[dst] += 1;
        let n = self.arrivals[dst];
        for (i, rule) in self.plan.hop_faults.iter().enumerate() {
            if !self.hop_fired[i] && rule.dst == dst && rule.nth == n {
                self.hop_fired[i] = true;
                return Some(rule.fault);
            }
        }
        None
    }

    /// Called when a messenger on PE `pe` emits a signal. Returns `true`
    /// when the signal must be swallowed.
    pub fn on_signal(&mut self, pe: usize) -> bool {
        self.signals[pe] += 1;
        let n = self.signals[pe];
        for (i, rule) in self.plan.lost_signals.iter().enumerate() {
            if !self.signal_fired[i] && rule.pe == pe && rule.nth == n {
                self.signal_fired[i] = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().crash_pe(0, 1).is_empty());
    }

    #[test]
    fn crash_fires_once_at_exact_run() {
        let plan = FaultPlan::new().crash_pe(1, 3);
        let mut t = FaultTracker::new(plan, 2);
        assert_eq!(t.on_run(1), None);
        assert_eq!(t.on_run(0), None); // other PE's count is independent
        assert_eq!(t.on_run(1), None);
        assert_eq!(t.on_run(1), Some(3));
        assert_eq!(t.on_run(1), None); // single-shot
    }

    #[test]
    fn hop_fault_counts_arrivals_per_pe() {
        let plan = FaultPlan::new().drop_hop(0, 2).delay_hop(1, 1, 0.5);
        let mut t = FaultTracker::new(plan, 2);
        assert_eq!(t.on_hop(1), Some(HopFault::Delay { seconds: 0.5 }));
        assert_eq!(t.on_hop(0), None);
        assert_eq!(t.on_hop(0), Some(HopFault::Drop));
        assert_eq!(t.on_hop(0), None);
    }

    #[test]
    fn lost_signal_fires_once() {
        let plan = FaultPlan::new().lose_signal(0, 2);
        let mut t = FaultTracker::new(plan, 1);
        assert!(!t.on_signal(0));
        assert!(t.on_signal(0));
        assert!(!t.on_signal(0));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 4);
        let b = FaultPlan::seeded(42, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.checkpointing);
        assert!(a.crashes.iter().all(|c| c.pe < 4));
        assert!(a.hop_faults.iter().all(|h| h.dst < 4));
        assert!(a.lost_signals.iter().all(|s| s.pe < 4));
        let c = FaultPlan::seeded(43, 4);
        assert_ne!(a, c, "different seeds give different plans");
        assert!(FaultPlan::seeded(7, 0).is_empty());
    }

    #[test]
    fn seeded_plans_cover_all_four_fault_kinds() {
        let (mut delays, mut drops, mut losses, mut recoverable) = (0, 0, 0, 0);
        for seed in 0..256u64 {
            let p = FaultPlan::seeded(seed, 4);
            assert!(!p.crashes.is_empty(), "every seeded plan crashes something");
            assert!(!p.hop_faults.is_empty(), "every seeded plan faults a hop");
            for h in &p.hop_faults {
                match h.fault {
                    HopFault::Delay { seconds } => {
                        assert!(seconds > 0.0);
                        delays += 1;
                    }
                    HopFault::Drop => drops += 1,
                }
            }
            losses += p.lost_signals.len();
            recoverable += p.is_recoverable() as usize;
        }
        assert!(delays > 0, "delayed hops must appear in the seed space");
        assert!(drops > 0, "dropped hops must appear in the seed space");
        assert!(losses > 0, "lost signals must appear in the seed space");
        assert!(
            recoverable > 128,
            "most seeded plans stay recoverable ({recoverable}/256)"
        );
    }

    #[test]
    fn spec_round_trips_every_rule_kind() {
        let plan = FaultPlan::new()
            .crash_pe(1, 3)
            .delay_hop(2, 5, 0.00125)
            .drop_hop(0, 1)
            .lose_signal(3, 2)
            .with_retry(7, Duration::from_millis(25))
            .with_recovery_seconds(1.5)
            .without_checkpointing();
        let spec = plan.to_spec();
        let back = FaultPlan::parse_spec(&spec).expect("own spec parses");
        assert_eq!(back, plan, "spec:\n{spec}");
    }

    #[test]
    fn spec_round_trips_sub_millisecond_backoffs() {
        for backoff in [
            Duration::from_micros(500),
            Duration::from_nanos(1_234_567),
            Duration::new(3, 7),
        ] {
            let plan = FaultPlan::new().with_retry(3, backoff);
            let spec = plan.to_spec();
            let back = FaultPlan::parse_spec(&spec).expect("own spec parses");
            assert_eq!(back.retry_backoff, backoff, "spec:\n{spec}");
            assert_eq!(back, plan);
        }
        // Whole milliseconds keep the `backoff-ms` form.
        let spec = FaultPlan::new().with_retry(3, Duration::from_millis(25)).to_spec();
        assert_eq!(spec, "retry max=3 backoff-ms=25\n");
        let back = FaultPlan::parse_spec("retry max=2 backoff-ms=4").unwrap();
        assert_eq!(back.retry_backoff, Duration::from_millis(4));
    }

    #[test]
    fn spec_round_trips_seeded_plans_bitwise() {
        // Property: for any seeded plan, to_spec ∘ parse_spec is the
        // identity — including exact f64 delay values (Rust's shortest
        // round-trip float formatting).
        for seed in 0..512u64 {
            for pes in 1..5usize {
                let plan = FaultPlan::seeded(seed, pes);
                let back = FaultPlan::parse_spec(&plan.to_spec())
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                assert_eq!(back, plan, "seed {seed} pes {pes}");
            }
        }
    }

    #[test]
    fn spec_ignores_comments_and_rejects_junk() {
        let plan = FaultPlan::parse_spec(
            "# repro header\n\n  crash pe=0 run=1  \n# trailing note\n",
        )
        .expect("comments and blanks are fine");
        assert_eq!(plan.crashes, vec![CrashRule { pe: 0, at_run: 1 }]);

        for bad in [
            "crash pe=0",                  // missing run
            "delay pe=0 arrival=1",        // missing seconds
            "warp pe=0 run=1",             // unknown verb
            "checkpointing maybe",         // bad flag
            "retry max=x backoff-ms=1",    // unparsable number
            "recovery-seconds",            // missing value
        ] {
            let err = FaultPlan::parse_spec(bad).expect_err(bad);
            assert!(err.starts_with("line 1:"), "{bad}: {err}");
        }
    }

    #[test]
    fn default_plan_spec_is_empty_and_parses_back() {
        let spec = FaultPlan::new().to_spec();
        assert!(spec.is_empty(), "defaults are elided: {spec:?}");
        assert_eq!(FaultPlan::parse_spec(&spec).unwrap(), FaultPlan::new());
    }

    #[test]
    fn splitmix_streams_are_independent() {
        let mut a = SplitMix64::new(9);
        let mut b = a.split();
        let mut c = a.split();
        assert_ne!(b.next_u64(), c.next_u64(), "children diverge");
        let mut a2 = SplitMix64::new(9);
        let mut b2 = a2.split();
        assert_eq!(b2.next_u64(), {
            let mut b3 = SplitMix64::new(9).split();
            b3.next_u64()
        });
    }

    #[test]
    fn plan_resolution_order() {
        let crash = FaultPlan::new().crash_pe(1, 2);
        let delay = FaultPlan::new().delay_hop(0, 1, 0.5);
        let empty = FaultPlan::new();
        // `env` stands in for what `NAVP_FAULT_SPEC` holds.
        let resolve = |explicit: Option<FaultPlan>, env: Option<FaultPlan>, durable| {
            FaultPlan::resolve(explicit, move || Ok(env), durable).unwrap()
        };
        // An explicit plan beats the environment, which is never read.
        let got = FaultPlan::resolve(Some(crash.clone()), || panic!("env read"), false);
        assert_eq!(got.unwrap(), Some(crash.clone()));
        // The environment beats no plan.
        let from_env = resolve(None, Some(delay.clone()), false);
        assert_eq!(from_env, Some(delay.clone()));
        assert_eq!(resolve(None, None, false), None);
        // A durable run always gets a plan, empty if nothing else.
        assert_eq!(resolve(None, None, true), Some(empty.clone()));
        assert_eq!(resolve(Some(crash.clone()), None, true), Some(crash));
        // An explicit empty plan injects nothing: it resolves to no plan
        // (and still shadows the environment).
        assert_eq!(resolve(Some(empty.clone()), Some(delay), false), None);
        assert_eq!(resolve(Some(empty.clone()), None, true), Some(empty));
        // A malformed spec is an error, not a clean run.
        let bad = || Err("line 1: unknown fault verb".to_string());
        assert!(matches!(
            FaultPlan::resolve(None, bad, false),
            Err(RunError::Transport { .. })
        ));
    }

    #[test]
    fn stats_any() {
        assert!(!FaultStats::default().any());
        let s = FaultStats {
            crashes: 1,
            ..FaultStats::default()
        };
        assert!(s.any());
    }
}
