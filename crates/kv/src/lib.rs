//! `navp-kv`: a second workload proving the NavP journey beyond GEMM.
//!
//! The paper's thesis is a *methodology* — incremental parallelization
//! by distributing data, making the sequential computation migrate to
//! it, then cutting the migrating computation into pipelined, finally
//! phase-shifted, messengers. The matrix case study (`navp-mm`)
//! demonstrates it on a regular, compute-bound kernel. This crate
//! demonstrates the same journey on an *irregular, data-dependent*
//! workload: a log-structured key-value store.
//!
//! * Each PE owns a hash-partitioned [`Shard`](shard::Shard): an
//!   append-only log plus an in-memory index.
//! * Clients are seeded batches of get/put/scan/delete operations
//!   ([`workload`]); a [`BatchCarrier`](carrier::BatchCarrier)
//!   navigates to whichever PE owns each key, mutates locally, and
//!   accumulates results as agent variables.
//! * Background log compaction is a low-priority roving messenger
//!   ([`Compactor`](carrier::Compactor)) that overlaps with serving in
//!   the final journey step.
//!
//! The four steps — [`KvStage::Seq`], [`KvStage::Dsc`],
//! [`KvStage::Pipe`], [`KvStage::Phase`] — run through [`run_kv`],
//! which takes the matrix runner's [`Run`](navp_mm::Run) — executor,
//! faults, durable or restore directory, tracing, metrics, watchdog —
//! and shares its one dispatch. They produce bitwise-identical
//! products across the sim, thread, and networked executors *and across
//! each other*, because batches own disjoint key regions and compaction
//! is observation-neutral. The workload integrates with the rest of the
//! repo end to end: wire codecs ([`net::register_net`]) make it run on
//! real `navp-pe` daemons and inside durable checkpoints, the fault
//! fuzzer drives it via [`fuzz`], and the `navp-serve` job service
//! schedules kv jobs next to GEMM jobs on one mesh.

#![warn(missing_docs)]

pub mod carrier;
pub mod config;
pub mod fuzz;
pub mod net;
pub mod runner;
pub mod shard;
pub mod stages;
pub mod workload;

pub use carrier::{BatchCarrier, BatchResult, Compactor, DscKvCarrier};
pub use config::KvConfig;
pub use net::register_net;
pub use runner::{run_kv, run_kv_sim, KvError, KvRunOutput, KvStage};
pub use shard::Shard;
pub use stages::KvRunStats;
pub use workload::{expected, KvProduct};
