//! `navp-obs` — the always-on flight recorder and its black box.
//!
//! Three pieces, deliberately dependency-free so every other crate in
//! the workspace can use them without cycles:
//!
//! * [`ring`]: per-subsystem lock-free ring buffers of compact
//!   structured events ([`EventKind`], [`FlightEvent`]), cheap enough
//!   to leave enabled by default and bitwise-neutral to run products —
//!   instrumentation observes, it never participates. An event is a
//!   span (an instant has equal stamps), and it is the one thing the
//!   executors record: `navp-trace` derives wall-clock traces from a
//!   traced run's lanes ([`Flight::run_lane`]).
//! * [`log`]: the hand-rolled, length-prefixed event-log codec and the
//!   checksummed postmortem container ([`write_postmortem`] /
//!   [`read_postmortem`]), plus the incremental [`LogDecoder`].
//! * dump triggers (this module): [`install_panic_hook`] chains onto
//!   the process panic hook, [`install_sigquit_dump`] turns `SIGQUIT`
//!   (`kill -QUIT`, Ctrl-\\) into "write the black box, then exit with
//!   [`FLIGHT_DUMP_EXIT`]", and run-error paths call
//!   [`dump_postmortem`] directly. Every fuzzer repro and daemon crash
//!   leaves a readable `postmortem-*.navpobs` behind.

pub mod log;
pub mod ring;

pub use log::{
    decode_container, decode_records, dump_postmortem, encode_container, encode_records,
    flight_json, json_escape, lane_from_records, lane_records, read_postmortem, snapshot_records,
    write_postmortem, LogDecoder, LogError, Record,
};
pub use ring::{
    flight, EventKind, Flight, FlightEvent, Lane, LaneSnapshot, DEFAULT_LANE_CAP,
    FAULT_SITE_CRASH, FAULT_SITE_DELAY, FAULT_SITE_DROP, RUN_LANE_CAP,
};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Exit status when a process dumps its flight recorder and exits on
/// `SIGQUIT`. Distinct from the net executor's crash (113) and
/// graceful-stop (114) statuses.
pub const FLIGHT_DUMP_EXIT: i32 = 115;

static DUMP_DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();

fn dump_dir_cell() -> &'static Mutex<Option<PathBuf>> {
    DUMP_DIR.get_or_init(|| Mutex::new(None))
}

/// Direct future postmortems into `dir` (daemons pass their durable
/// dir so black boxes land next to checkpoints and journals).
pub fn set_dump_dir(dir: &Path) {
    let mut guard = dump_dir_cell().lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(dir.to_path_buf());
}

/// Where postmortems go: [`set_dump_dir`] if called, else the
/// `NAVP_FLIGHT_DIR` environment variable, else the current directory.
pub fn dump_dir() -> PathBuf {
    if let Some(dir) = dump_dir_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
    {
        return dir;
    }
    match std::env::var("NAVP_FLIGHT_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("."),
    }
}

/// Dump the flight recorder into [`dump_dir`], reporting the path on
/// stderr. Best-effort: failures are reported, never propagated —
/// dump paths run inside panic handlers.
pub fn dump_now(reason: &str) -> Option<PathBuf> {
    match dump_postmortem(&dump_dir(), reason) {
        Ok(path) => {
            eprintln!("navp-obs: flight recorder dumped to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("navp-obs: flight dump failed: {e}");
            None
        }
    }
}

/// Chain a flight-recorder dump onto the process panic hook. The
/// previous hook (backtrace printing) still runs afterwards.
/// Idempotent: installs once per process.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = match info.location() {
                Some(loc) => format!("panic at {}:{}", loc.file(), loc.line()),
                None => "panic".to_string(),
            };
            dump_now(&reason);
            prev(info);
        }));
    });
}

// Raw signal(2), mirroring `navp_net::pe::install_stop_handlers`: the
// workspace links no libc crate, and the handler body is one relaxed
// store, which is async-signal-safe.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGQUIT: i32 = 3;

static SIGQUIT_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigquit(_sig: i32) {
    SIGQUIT_SEEN.store(true, Ordering::Relaxed);
}

/// Has a `SIGQUIT` arrived since [`install_sigquit_dump`]?
pub fn sigquit_seen() -> bool {
    SIGQUIT_SEEN.load(Ordering::Relaxed)
}

/// Install the `SIGQUIT` black-box trigger: the handler sets a flag, a
/// detached watcher thread polls it (~50 ms) and, on the first quit,
/// dumps the flight recorder and exits with [`FLIGHT_DUMP_EXIT`].
/// Idempotent: installs once per process.
#[allow(clippy::fn_to_numeric_cast_any)]
pub fn install_sigquit_dump() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        #[cfg(unix)]
        unsafe {
            signal(SIGQUIT, on_sigquit as extern "C" fn(i32) as usize);
        }
        std::thread::Builder::new()
            .name("navp-obs-sigquit".into())
            .spawn(|| loop {
                if sigquit_seen() {
                    dump_now("sigquit");
                    std::process::exit(FLIGHT_DUMP_EXIT);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            })
            .expect("spawn sigquit watcher");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_dir_prefers_explicit_over_env_over_cwd() {
        // No config, no env (the test env does not set NAVP_FLIGHT_DIR).
        assert_eq!(dump_dir(), PathBuf::from("."));
        let dir = std::env::temp_dir().join("navpobs-dir-test");
        set_dump_dir(&dir);
        assert_eq!(dump_dir(), dir);
    }

    #[test]
    fn exit_codes_stay_distinct() {
        assert_ne!(FLIGHT_DUMP_EXIT, 113, "net CRASH_EXIT");
        assert_ne!(FLIGHT_DUMP_EXIT, 114, "net GRACEFUL_EXIT");
    }
}
