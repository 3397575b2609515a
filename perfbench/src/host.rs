//! Host and build metadata recorded with every result, and peak memory
//! read from `/proc`.

use std::fmt::Write as _;
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

/// Child processes still running, for [`watchdog`] to kill.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Record a child process the benchmark started.
pub fn adopt(pid: u32) {
    CHILDREN.lock().expect("child list lock").push(pid);
}

/// Forget a child process once it has been reaped.
pub fn release(pid: u32) {
    CHILDREN
        .lock()
        .expect("child list lock")
        .retain(|p| *p != pid);
}

/// If the run is still going after `limit`, kill every child process
/// and exit non-zero without a result.
pub fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: still running after {limit:?}; giving up");
        let pids = CHILDREN.lock().map(|c| c.clone()).unwrap_or_default();
        for pid in pids {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        std::process::exit(1);
    });
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process for
/// `None`, in MiB. `None` when `/proc` does not say.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "fma" => std::arch::is_x86_feature_detected!("fma"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// The metadata object: host, build, and how many PEs the workload puts
/// on how many cores.
pub fn meta_json(workload: &str, seed: u64, trace: bool, pes: &str, max_pes: usize) -> String {
    let cores = cores();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"meta\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\
         \"nproc\":{cores},\"cpu\":\"{}\",\"avx2\":{},\"fma\":{},\
         \"rustc\":\"{}\",\"commit\":\"{}\",\"pes\":\"{pes}\",\
         \"oversubscribed\":{}}}}}",
        cpu_model().replace('"', "'"),
        has("avx2"),
        has("fma"),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        max_pes > cores,
    );
    out
}
