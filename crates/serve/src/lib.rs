//! # navp-serve: a multi-tenant job service for the NavP mesh
//!
//! The executors run *one* computation and tear the world down;
//! `navp-serve` turns a persistent `navp-pe --listen` mesh into a
//! shared resource. A driver-side daemon accepts job submissions over
//! TCP, queues them with admission control, and multiplexes the
//! accepted runs onto the same PE daemons concurrently — each run in
//! its own namespace (the job id is the wire-level run id from
//! `navp_net::Frame::Assign`), so two tenants cannot collide on
//! messenger tags, events, or durable checkpoint directories.
//!
//! The pieces:
//!
//! * [`proto`] — the length-prefixed submit protocol
//!   ([`proto::Request`] / [`proto::Response`]) over the same
//!   hand-rolled codec the PE mesh speaks; every read bounds-checked,
//!   trailing bytes rejected.
//! * [`sched`] — the job scheduler: bounded priority queue, a worker
//!   pool capping in-flight runs, per-job deadlines, rejection with a
//!   reason when full or draining.
//! * [`server`] — the TCP front-end gluing protocol to scheduler,
//!   plus post-completion checkpoint GC
//!   ([`navp::durable::prune_run_dirs`]).
//! * [`client`] — blocking client helpers shared by `navp-submit` and
//!   the integration tests.
//! * [`metrics`] — the `navp_serve_*` metric set (queue depth,
//!   in-flight gauge, admission rejects, job latency histogram) on a
//!   [`navp_metrics::MetricsRegistry`] ready for `/metrics`.
//! * [`gemm`] — the production runner: maps a [`proto::JobSpec`] onto
//!   one [`navp_mm::Run`] of [`navp_mm::run_navp`] on the joined mesh;
//!   [`kv`] does the same for kv jobs with [`navp_kv::run_kv`].
//!
//! See DESIGN.md §14 for the architecture and the protocol table.

#![warn(missing_docs)]

pub mod client;
pub mod gemm;
pub mod journal;
pub mod kv;
pub mod metrics;
pub mod proto;
pub mod sched;
pub mod server;
pub mod traces;

pub use client::{fetch_trace, rpc, submit, wait_terminal, Client};
pub use gemm::{gemm_runner, parse_stage, product_checksum, MeshOpts};
pub use journal::{Journal, JournalEntry};
pub use kv::{job_runner, kv_runner, KvMetrics};
pub use metrics::ServeMetrics;
pub use proto::{JobInfo, JobKind, JobOutcome, JobSpec, JobState, RejectReason, Request, Response};
pub use sched::{JobFailure, RunnerFn, SchedConfig, Scheduler};
pub use server::{serve, Server, ServerConfig};
pub use traces::{TraceStore, DEFAULT_TRACE_KEEP};
