//! # Navigational Programming (NavP) runtime
//!
//! A Rust reproduction of the programming model of MESSENGERS, the system
//! underlying *"Incremental Parallelization Using Navigational
//! Programming: A Case Study"* (ICPP 2005).
//!
//! In NavP a distributed program is composed from **self-migrating
//! computations**. A computation (a *messenger*, here [`Messenger`])
//! executes on one PE at a time and navigates the cluster explicitly:
//!
//! * [`Effect::Hop`] moves the computation's locus to another PE. Its
//!   **agent variables** — in this reproduction, simply the fields of the
//!   struct implementing [`Messenger`] — travel with it; node-resident
//!   data stays behind in **node variables** ([`NodeStore`]).
//! * [`MsgrCtx::signal`] / [`Effect::WaitEvent`] synchronize messengers
//!   through counting events, MESSENGERS' `signalEvent`/`waitEvent`.
//! * [`MsgrCtx::inject`] spawns another messenger **on the current PE**
//!   (all injection is local, as in MESSENGERS; a program that wants to
//!   start work elsewhere hops there first — exactly what the paper's
//!   spawner loops do).
//!
//! ## Writing a messenger
//!
//! MESSENGERS checkpoints a migrating thread's state automatically. Rust
//! has no portable way to move a live stack between threads, so a
//! messenger is written as an explicit state machine: [`Messenger::step`]
//! runs the code *between* two navigational commands and returns the next
//! command. The borrow checker then enforces MESSENGERS' discipline
//! statically: node variables (`&mut` borrowed from the context only
//! inside `step`) cannot leak across a hop, and agent variables (owned
//! fields) move with the box. See [`script::Script`] for a closure-based
//! shorthand used by tests and small examples.
//!
//! ## Executing
//!
//! Three interchangeable executors run the same messengers, all through
//! one PE core ([`pe_core::PeCore`]) that holds the daemon's semantics —
//! stepping, injection, signals and waits, hops, checkpoints, crash
//! restart and the journal commit — while each executor supplies only
//! its clock and transport:
//!
//! * [`SimExecutor`] — a deterministic discrete-event simulator over the
//!   [`navp_sim`] virtual cluster. Work is charged through
//!   [`MsgrCtx::charge_flops`] and friends; the result is a virtual-time
//!   makespan plus a full [`navp_sim::Trace`]. This is what regenerates
//!   the paper's tables at the original problem sizes.
//! * [`ThreadExecutor`] — one OS thread per PE with real agent migration
//!   over channels; measures wall-clock time on the host machine.
//! * The networked executor in the `navp-net` crate — one OS process per
//!   PE, messengers migrating as TCP frames.
//!
//! All of them honour an optional [`FaultPlan`] attached to the
//! cluster: deterministic PE crashes, hop-delivery delays/drops and lost
//! event signals, absorbed (when checkpointing is on) by the
//! hop-boundary checkpoint/restart machinery in [`recovery`].
//!
//! The three transformations themselves (DSC, pipelining, phase
//! shifting) are applied by hand in the case-study crates (`navp-mm`,
//! `navp-kv`): each stage is a set of serializable messengers, so it
//! runs unchanged on every executor. [`script::Script`] builds a
//! messenger from closures for tests and examples that stay in process.

#![warn(missing_docs)]

pub mod agent;
pub mod cluster;
pub mod durable;
pub mod error;
pub mod explore;
pub mod fault;
pub mod pe_core;
pub mod recovery;
pub mod script;
pub mod sim_exec;
#[cfg(test)]
mod testkit;
pub mod thread_exec;

pub use agent::{Effect, Messenger, MsgrCtx, StepOutputs, WireSnapshot};
pub use cluster::Cluster;
pub use error::RunError;
pub use fault::{FaultPlan, FaultStats, SplitMix64, FAULT_SPEC_ENV};
pub use navp_sim::key::{EventKey, Key, NodeId, VarKey};
pub use sim_exec::{SimExecutor, SimReport};
pub use navp_sim::store::NodeStore;
pub use thread_exec::{ThreadExecutor, WallReport};
