//! # The case study: incremental parallelization of matrix multiplication
//!
//! This crate reproduces Section 3–4 of the paper: the complete chain of
//! NavP transformations applied to `C = A * B`, plus the message-passing
//! baselines it is compared against.
//!
//! The **incremental** stages, in paper order — every one is a complete,
//! runnable, *verified* program, and each is an improvement on its
//! predecessor:
//!
//! | Stage | Paper | Module | Transformation applied |
//! |-------|-------|--------|------------------------|
//! | Sequential | Fig. 2 | [`seq`] | — |
//! | 1-D DSC | Fig. 4/5 | [`dsc1d`] | distribute data + insert hops |
//! | 1-D pipelined | Fig. 6/7 | [`pipe1d`] | split into pipelined carriers |
//! | 1-D phase-shifted | Fig. 8/9 | [`phase1d`] | enter pipeline at different PEs |
//! | 2-D DSC | Fig. 10/11 | [`dsc2d`] | DSC again, in the i dimension |
//! | 2-D pipelined | Fig. 12/13 | [`pipe2d`] | pipeline B entries (ACarrier/BCarrier) |
//! | 2-D full DPC | Fig. 14/15 | [`dpc2d`] | phase-shift both dimensions |
//!
//! Baselines (Section 4 / Table 3–4 columns):
//!
//! * [`gentleman`] — Gentleman's algorithm over `navp-mp`, block
//!   partitioned, single-step ("fully connected switch") staggering,
//!   pointer swapping for local shifts; optionally Cannon-style stepwise
//!   staggering for the ablation.
//! * [`summa`] — a SUMMA-style pdgemm standing in for ScaLAPACK (the
//!   paper's third column; see DESIGN.md for the substitution argument).
//! * [`doall`] — the shared-memory `doall` of Figure 3 (std threads), the
//!   Section 6 comparison point and a second correctness oracle.
//!
//! All implementations work on *algorithmic blocks* (paper block orders
//! 128/256), bottom out in the same kernel, and run at either
//! granularity of realism: `Real` payloads (verified against the
//! sequential product) or `Phantom` payloads (cost-model-only, used to
//! replay the paper's problem sizes). [`runner`] puts every stage behind
//! one entry point, [`run_navp`], which runs it as one [`Run`] says —
//! on the sim, thread or networked executor, with faults, durable
//! checkpoints, tracing or metrics — and the baselines behind
//! [`run_mp_sim`] and [`run_mp_threads`]. Tests, examples, the fuzzer,
//! the job service and the bench harness all use them.

#![warn(missing_docs)]

pub mod carrier1d;
pub mod carrier2d;
pub mod config;
pub mod doall;
pub mod dpc2d;
pub mod dsc1d;
pub mod dsc2d;
pub mod fuzz;
pub mod gentleman;
pub mod launch;
pub mod net;
pub mod phase1d;
pub mod pipe1d;
pub mod pipe2d;
pub mod runner;
pub mod seq;
pub mod summa;
pub mod util;

pub use config::{MmConfig, Payload};
pub use net::register_net;
pub use runner::{
    run_mp_sim, run_mp_threads, run_navp, run_navp_sim, run_seq_sim, MpAlg, NavpStage, NetOpts, On,
    Run, RunOutput, RunnerError,
};
