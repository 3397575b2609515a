//! # navp-net: a TCP-distributed executor for the NavP runtime
//!
//! The third executor of the reproduction: where [`navp::SimExecutor`]
//! models a cluster in virtual time and [`navp::ThreadExecutor`] runs
//! one OS thread per PE, `navp-net` runs one OS **process** per PE,
//! connected by a full TCP mesh. Messengers really migrate: a hop
//! serializes the agent variables ([`navp::Messenger::wire_snapshot`]),
//! ships them as a length-prefixed binary frame, and reconstitutes the
//! messenger in the destination process via a type-tag registry.
//!
//! The pieces:
//!
//! * [`codec`] — the hand-rolled little-endian wire primitives
//!   ([`codec::WireWriter`] / [`codec::WireReader`]); every read is
//!   bounds-checked and returns [`codec::DecodeError`], never panics.
//!   (Re-exported from `navp_sim::codec`, where the durable checkpoint
//!   format in `navp::durable` shares it.)
//! * [`frame`] — the protocol: [`frame::Frame`] covers bootstrap,
//!   mesh wiring, hops, event traffic, progress deltas, store
//!   collection and shutdown.
//! * [`registry`] — global type-tag registries mapping
//!   [`navp::WireSnapshot`] tags and store-value tags to decode
//!   functions; primitives are pre-registered, applications register
//!   their own types before a run (see `navp_mm::net::register_net`).
//! * [`exec`] — the driver: [`NetExecutor`] keeps the exact
//!   step/Effect contract of the other executors, spawns or joins PE
//!   processes, and tallies progress until the cluster drains.
//! * [`pe`] — the PE daemon ([`pe::pe_main`]) that `navp-pe` runs: the
//!   transport around the shared [`navp::pe_core::PeCore`] — frames,
//!   event homing, the runnable queue, and fault holds on real sockets
//!   (the core does stepping, checkpoints and crash restart).
//! * [`sys`] + [`netloop`] — the mesh event loop: a hand-rolled
//!   epoll/poll readiness wrapper and the process-global nonblocking
//!   I/O threads that own every mesh socket, with coalesced,
//!   scatter-gather (`writev`) frame batching on the write side and an
//!   incremental [`frame::FrameDecoder`] on the read side.
//! * [`cluster`] — socket plumbing: framed connections, deterministic
//!   event homing, process spawning.
//! * [`testing`] — wire-serializable messengers for the loopback
//!   tests and the `navp-net-testpe` helper binary.
//!
//! Faults map onto real transport: a *delay* rule holds the arriving
//! frame, a *drop* rule discards it and burns a retry, and a *crash*
//! rule either restarts the daemon in place (checkpointing on) or
//! exits the process (checkpointing off), which the driver surfaces as
//! [`navp::RunError::PeerDisconnected`]. See DESIGN.md §9.

#![warn(missing_docs)]

pub mod cluster;
pub mod durable;
pub mod exec;
pub mod frame;
pub mod netloop;
pub mod pe;
pub mod registry;
pub mod sys;
pub mod testing;

pub use navp_sim::codec;

pub use cluster::{event_home, FrameConn, PE_BIN_ENV};
pub use codec::{DecodeError, WireReader, WireWriter};
pub use durable::{restore_from_dir, RegistryCodec};
pub use exec::{NetExecutor, NetPeStats, NetReport};
pub use frame::{Frame, FrameDecoder};
pub use netloop::{IoHandle, IoLoop, IoStats};
pub use pe::{
    install_stop_handlers, pe_main, stop_requested, PeMode, PeOptions, CRASH_EXIT, GRACEFUL_EXIT,
    PE_ENV,
};
pub use registry::{
    decode_messenger, decode_store, encode_messenger, encode_store, register_messenger,
    register_value, MsgrDecodeFn, ValueCodec,
};

/// Parsed PE-binary command line: the driver-reachability mode plus
/// the optional observability endpoint.
#[derive(Debug, Clone)]
pub struct PeArgs {
    /// How this PE reaches its driver (`--connect` / `--listen`).
    pub mode: PeMode,
    /// `--metrics-addr host:port`: serve `GET /metrics` (Prometheus
    /// text) and `GET /healthz` (JSON) on this address for the life of
    /// the process. `None` when the flag is absent.
    pub metrics_addr: Option<String>,
    /// `--durable-dir path`: spill checkpoint state to this directory
    /// at every run boundary so the process survives `kill -9`.
    /// `None` when the flag is absent (durability off, zero syscalls).
    pub durable_dir: Option<std::path::PathBuf>,
    /// `--durable-keep n`: after each `--listen` session, prune
    /// completed runs' checkpoint subdirectories oldest-first until at
    /// most `n` remain (in-flight runs are never pruned). `None` when
    /// the flag is absent (keep everything).
    pub durable_keep: Option<usize>,
}

/// Parse the standard PE-binary argument list (`--connect addr` or
/// `--listen addr`, optionally `--metrics-addr addr` and
/// `--durable-dir path`, in any order) shared by `navp-pe` and
/// `navp-net-testpe`. Returns `Err` with a usage string on anything
/// else.
pub fn parse_pe_args<I: IntoIterator<Item = String>>(args: I) -> Result<PeArgs, String> {
    const USAGE: &str = "usage: --connect <driver-host:port> | --listen <bind-host:port> \
                         [--metrics-addr <bind-host:port>] [--durable-dir <path>] \
                         [--durable-keep <n>]";
    let argv: Vec<String> = args.into_iter().collect();
    let mut mode: Option<PeMode> = None;
    let mut metrics_addr: Option<String> = None;
    let mut durable_dir: Option<std::path::PathBuf> = None;
    let mut durable_keep: Option<usize> = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::vec::IntoIter<String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--connect" => {
                let addr = value(&mut it)?;
                if mode.replace(PeMode::Connect(addr)).is_some() {
                    return Err(format!("more than one --connect/--listen\n{USAGE}"));
                }
            }
            "--listen" => {
                let addr = value(&mut it)?;
                if mode.replace(PeMode::Listen(addr)).is_some() {
                    return Err(format!("more than one --connect/--listen\n{USAGE}"));
                }
            }
            "--metrics-addr" => {
                let addr = value(&mut it)?;
                if metrics_addr.replace(addr).is_some() {
                    return Err(format!("more than one --metrics-addr\n{USAGE}"));
                }
            }
            "--durable-dir" => {
                let dir = value(&mut it)?;
                if durable_dir.replace(dir.into()).is_some() {
                    return Err(format!("more than one --durable-dir\n{USAGE}"));
                }
            }
            "--durable-keep" => {
                let n = value(&mut it)?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--durable-keep wants a count, got {n:?}\n{USAGE}"))?;
                if durable_keep.replace(n).is_some() {
                    return Err(format!("more than one --durable-keep\n{USAGE}"));
                }
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    match mode {
        Some(mode) => Ok(PeArgs {
            mode,
            metrics_addr,
            durable_dir,
            durable_keep,
        }),
        None => Err(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pe_args_parse() {
        let a = parse_pe_args(argv(&["--connect", "127.0.0.1:9000"])).unwrap();
        assert!(matches!(a.mode, PeMode::Connect(ref x) if x == "127.0.0.1:9000"));
        assert_eq!(a.metrics_addr, None);
        let a = parse_pe_args(argv(&["--listen", "0.0.0.0:7000"])).unwrap();
        assert!(matches!(a.mode, PeMode::Listen(ref x) if x == "0.0.0.0:7000"));
        assert!(parse_pe_args(Vec::new()).is_err());
        assert!(parse_pe_args(argv(&["--bogus", "x"])).is_err());
    }

    #[test]
    fn pe_args_parse_metrics_addr_any_order() {
        let a = parse_pe_args(argv(&[
            "--metrics-addr",
            "127.0.0.1:9100",
            "--listen",
            "0.0.0.0:7000",
        ]))
        .unwrap();
        assert!(matches!(a.mode, PeMode::Listen(_)));
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        let a = parse_pe_args(argv(&[
            "--durable-dir",
            "/tmp/ckpt",
            "--connect",
            "127.0.0.1:9000",
        ]))
        .unwrap();
        assert_eq!(a.durable_dir.as_deref(), Some(std::path::Path::new("/tmp/ckpt")));
        assert_eq!(a.durable_keep, None);
        let a = parse_pe_args(argv(&[
            "--listen",
            "0.0.0.0:7000",
            "--durable-dir",
            "/tmp/ckpt",
            "--durable-keep",
            "8",
        ]))
        .unwrap();
        assert_eq!(a.durable_keep, Some(8));
        assert!(parse_pe_args(argv(&["--listen", "a:1", "--durable-keep"])).is_err());
        assert!(parse_pe_args(argv(&["--listen", "a:1", "--durable-keep", "many"])).is_err());
        assert!(parse_pe_args(argv(&[
            "--listen", "a:1", "--durable-keep", "1", "--durable-keep", "2"
        ]))
        .is_err());
        assert!(parse_pe_args(argv(&["--connect", "a:1", "--durable-dir"])).is_err());
        assert!(parse_pe_args(argv(&[
            "--connect", "a:1", "--durable-dir", "x", "--durable-dir", "y"
        ]))
        .is_err());
        // The flag needs a value, a mode is still mandatory, and
        // duplicate flags are rejected.
        assert!(parse_pe_args(argv(&["--connect", "a:1", "--metrics-addr"])).is_err());
        assert!(parse_pe_args(argv(&["--metrics-addr", "a:1"])).is_err());
        assert!(parse_pe_args(argv(&["--connect", "a:1", "--listen", "b:2"])).is_err());
    }
}
