//! Socket plumbing shared by the driver and the PE daemon: framed
//! stream I/O for the handshake, event homing, and launching `navp-pe`
//! processes.

use crate::frame::{Frame, MAX_FRAME};
use navp::{EventKey, RunError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

/// Environment variable naming the `navp-pe` binary to spawn for local
/// clusters (overrides the sibling-of-current-exe search).
pub const PE_BIN_ENV: &str = "NAVP_PE_BIN";

/// The write half of a framed connection. Frame writes are atomic
/// (length prefix + body under one lock), so any thread may send.
pub struct FrameConn {
    stream: Mutex<ConnInner>,
}

struct ConnInner {
    stream: TcpStream,
    /// Reusable send buffer (length prefix + encoded body). Lives under
    /// the same lock as the stream, so the steady state allocates
    /// nothing per send: the buffer grows to the largest frame this
    /// connection has carried and stays there.
    buf: Vec<u8>,
}

/// The socket-option policy every mesh connection gets (DESIGN.md
/// §16): `TCP_NODELAY` on (frames are latency-sensitive and the event
/// loop already batches, so Nagle would only add delay on top), and
/// explicit [`crate::netloop::SOCKET_BUF_BYTES`] kernel send/receive
/// buffers — large enough to absorb a burst of coalesced frames
/// without blocking the loop, small enough not to hide backpressure.
/// Best-effort: a kernel that clamps the sizes doesn't fail the
/// connection.
pub fn tune_socket(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = crate::sys::set_socket_buffers(
        stream,
        crate::netloop::SOCKET_BUF_BYTES,
        crate::netloop::SOCKET_BUF_BYTES,
    );
}

impl FrameConn {
    /// Wrap a connected stream (applies [`tune_socket`]).
    pub fn new(stream: TcpStream) -> FrameConn {
        tune_socket(&stream);
        FrameConn {
            stream: Mutex::new(ConnInner {
                stream,
                buf: Vec::new(),
            }),
        }
    }

    /// Encode and send one frame. Returns the total bytes written
    /// (prefix + body). One buffer, one `write_all`: the length prefix
    /// is patched in after the body is encoded behind it.
    pub fn send(&self, frame: &Frame) -> std::io::Result<u64> {
        let mut inner = self.stream.lock().expect("frame conn poisoned");
        let inner = &mut *inner;
        inner.buf.clear();
        inner.buf.extend_from_slice(&[0u8; 4]);
        frame.encode_into(&mut inner.buf);
        let body_len = (inner.buf.len() - 4) as u32;
        inner.buf[..4].copy_from_slice(&body_len.to_le_bytes());
        inner.stream.write_all(&inner.buf)?;
        Ok(inner.buf.len() as u64)
    }

    /// Shut down both directions, unblocking any reader thread.
    pub fn shutdown(&self) {
        if let Ok(s) = self.stream.lock() {
            let _ = s.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Read one frame body off a stream (blocking). An EOF before the
/// first prefix byte yields `UnexpectedEof`; a declared length beyond
/// [`MAX_FRAME`] or an undecodable body yields `InvalidData`.
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Frame> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Frame::decode(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// The deterministic home PE of an event: signals and waits for a key
/// are routed to its home, which owns the count and the parked waiters.
/// Both sides of every connection compute the same home (FNV-1a over
/// the key's fields).
pub fn event_home(key: &EventKey, pes: usize) -> usize {
    debug_assert!(pes > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in key.name.as_bytes() {
        mix(*b);
    }
    for b in key.i.to_le_bytes() {
        mix(b);
    }
    for b in key.j.to_le_bytes() {
        mix(b);
    }
    (h % pes as u64) as usize
}

/// Locate the `navp-pe` binary for local spawning: an explicit path
/// wins, then [`PE_BIN_ENV`], then a search next to the current
/// executable (handles `target/<profile>/`, `…/deps/` and
/// `…/examples/` layouts).
pub fn resolve_pe_bin(explicit: Option<&Path>) -> Result<PathBuf, RunError> {
    if let Some(p) = explicit {
        return Ok(p.to_path_buf());
    }
    if let Some(p) = std::env::var_os(PE_BIN_ENV) {
        return Ok(PathBuf::from(p));
    }
    let exe_name = format!("navp-pe{}", std::env::consts::EXE_SUFFIX);
    if let Ok(me) = std::env::current_exe() {
        let mut dirs: Vec<PathBuf> = Vec::new();
        if let Some(dir) = me.parent() {
            dirs.push(dir.to_path_buf());
            // Tests run from target/<profile>/deps/, examples from
            // target/<profile>/examples/ — the binary is one level up.
            if let Some(parent) = dir.parent() {
                dirs.push(parent.to_path_buf());
            }
        }
        for dir in dirs {
            let candidate = dir.join(&exe_name);
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(RunError::Transport {
        detail: format!(
            "cannot locate the navp-pe binary: build it (`cargo build --release`) and/or \
             set {PE_BIN_ENV} to its path"
        ),
    })
}

/// Spawn one local PE process that connects back to `driver_addr`.
/// Stdio is inherited so a PE's panic message reaches the terminal.
pub fn spawn_pe(
    bin: &Path,
    driver_addr: &str,
    durable_dir: Option<&Path>,
) -> Result<Child, RunError> {
    let mut cmd = Command::new(bin);
    cmd.arg("--connect").arg(driver_addr).stdin(Stdio::null());
    if let Some(dir) = durable_dir {
        cmd.arg("--durable-dir").arg(dir);
    }
    cmd.spawn().map_err(|e| RunError::Transport {
        detail: format!("failed to spawn {}: {e}", bin.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp::Key;
    use std::net::TcpListener;

    #[test]
    fn frames_cross_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let f1 = read_frame(&mut s).unwrap();
            let f2 = read_frame(&mut s).unwrap();
            (f1, f2)
        });
        let conn = FrameConn::new(TcpStream::connect(addr).unwrap());
        let sent = Frame::Assign { pe: 1, pes: 4, run: 7 };
        let n = conn.send(&sent).unwrap();
        assert_eq!(n as usize, 4 + sent.encode().len());
        conn.send(&Frame::Shutdown).unwrap();
        let (f1, f2) = t.join().unwrap();
        assert_eq!(f1, sent);
        assert_eq!(f2, Frame::Shutdown);
    }

    #[test]
    fn oversized_frame_prefix_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_frame(&mut s)
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        let got = t.join().unwrap();
        assert!(got.is_err());
        assert_eq!(got.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn event_home_is_deterministic_and_in_range() {
        let keys = [
            Key::plain("EP"),
            Key::at2("EP", 1, 2),
            Key::at2("EC", 1, 2),
            Key::at("B", 9),
        ];
        for pes in 1..6 {
            for k in &keys {
                let h = event_home(k, pes);
                assert!(h < pes);
                assert_eq!(h, event_home(k, pes), "stable");
            }
        }
        // Distinct keys spread over homes (not a constant function).
        let homes: std::collections::HashSet<_> =
            (0..32).map(|i| event_home(&Key::at("E", i), 4)).collect();
        assert!(homes.len() > 1);
    }

    #[test]
    fn missing_pe_bin_is_structured() {
        // An explicit path always wins (even if it doesn't exist yet —
        // spawn reports that later, with the path in the message).
        let p = resolve_pe_bin(Some(Path::new("/tmp/custom-pe"))).unwrap();
        assert_eq!(p, PathBuf::from("/tmp/custom-pe"));
        let e = spawn_pe(Path::new("/nonexistent/navp-pe"), "127.0.0.1:1", None).unwrap_err();
        assert!(matches!(e, RunError::Transport { .. }));
    }
}
