//! Wall-clock tracing for the *real* NavP executors.
//!
//! The simulator (`navp_sim`) already records a [`Trace`] in virtual
//! time — that is how the repo regenerates the paper's Figure-1
//! space-time diagrams. This crate extends the same trace model to the
//! wall-clock executors:
//!
//! * [`merge_pe_traces`] — derives one [`Trace`] from the PEs' flight
//!   events. The executors record nothing else: a traced run's cores
//!   write their hop, exec, park and signal spans into per-run flight
//!   lanes (`navp_obs::Flight::run_lane`), and each event becomes one
//!   trace record, placed on a common timeline by a signed per-PE clock
//!   offset measured at collection time (Cristian's algorithm in the
//!   net executor; zero for in-process threads, which share the
//!   process flight clock).
//! * [`ChromeTrace`] — Chrome trace-event / Perfetto JSON export, so a
//!   traced run opens directly in `ui.perfetto.dev`, plus a hand-rolled
//!   validator ([`validate_chrome_json`]) used by tests and CI (the
//!   workspace has no serde).
//! * [`TraceReport`] — derived metrics: per-PE utilization, hop-latency
//!   percentiles, event-wait breakdown, pipeline-fill time, and
//!   messenger itinerary summaries.
//!
//! The design contract, matching the sim: tracing is off by default,
//! must not touch the data path (products stay bitwise identical), and
//! bounded rings mean a runaway run degrades to dropped trace events,
//! never to unbounded memory.

pub mod chrome;
pub mod json;
pub mod merge;
pub mod report;

pub use chrome::{validate_chrome_json, ChromeSummary, ChromeTrace};
pub use merge::{merge_pe_traces, PeLog};
pub use report::TraceReport;

// Re-export the shared trace model so executor crates need only one
// trace dependency.
pub use navp_sim::trace::{Trace, TraceEvent, TraceKind};
pub use navp_sim::VTime;
