//! The evaluation harness: everything needed to regenerate every table
//! and figure of the paper's Section 5.
//!
//! * [`paper`] — the paper's published numbers, transcribed verbatim,
//!   so each regenerated cell prints measured-vs-paper side by side;
//! * [`harness`] — table specifications and the runner that executes
//!   each cell under the calibrated cost model at the paper's problem
//!   sizes (phantom payloads: identical costs, no wasted arithmetic);
//! * [`layout`] — renders the data-placement diagrams of Figures 4–14
//!   from the *actual* cluster builders (not hand-drawn);
//! * [`check`] — the perf-regression gate joining a committed
//!   `BENCH_*.json` baseline against a fresh re-run (`perf --check`);
//! * binaries `all` (Tables 1–4), `figures`, `ablation` and `perf` —
//!   run `cargo run --release -p navp-bench --bin all` to regenerate
//!   every table.

#![warn(missing_docs)]

pub mod check;
pub mod harness;
pub mod layout;
pub mod paper;
pub mod timing;
