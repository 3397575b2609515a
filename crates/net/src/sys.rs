//! Raw OS primitives for the nonblocking mesh event loop: an `epoll`
//! readiness poller on Linux (with a `poll(2)` fallback on other
//! Unixes), a self-pipe waker, and explicit socket-buffer sizing.
//!
//! Everything goes through one-line `extern "C"` declarations — no
//! libc crate, matching the raw `signal(2)` shim in [`crate::pe`]. The
//! surface is deliberately tiny: the event loop in [`crate::netloop`]
//! needs exactly "tell me which fds are readable/writable", "wake the
//! loop from another thread", and "size the kernel socket buffers";
//! the handshakes add "wait for a connection" ([`Acceptor`]) and the
//! driver's teardown "kill a process by pid" ([`kill_process`]).

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

extern "C" {
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
}

fn os_err(ret: c_int) -> io::Result<()> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// One fd's readiness, as reported by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Readiness {
    /// The ready file descriptor.
    pub fd: RawFd,
    /// Data (or EOF) is available to read.
    pub readable: bool,
    /// The socket will accept more bytes.
    pub writable: bool,
    /// Error/hangup condition — treat as readable so the read path
    /// surfaces the actual `io::Error` (or EOF).
    pub error: bool,
}

// ---------------------------------------------------------------- epoll

/// Readiness poller: `epoll` on Linux. Interest is level-triggered and
/// always includes readability; writability is toggled per fd as the
/// connection's send queue fills and drains.
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: RawFd,
    /// Scratch event array reused across waits.
    events: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
impl Poller {
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const CTL_ADD: c_int = 1;
    const CTL_DEL: c_int = 2;
    const CTL_MOD: c_int = 3;

    /// A fresh close-on-exec epoll instance.
    pub fn new() -> io::Result<Poller> {
        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
        }
        const EPOLL_CLOEXEC: c_int = 0o2000000;
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            events: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, writable: bool) -> io::Result<()> {
        extern "C" {
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut c_void) -> c_int;
        }
        let mut ev = EpollEvent {
            events: Self::EPOLLIN | if writable { Self::EPOLLOUT } else { 0 },
            data: fd as u64,
        };
        let evp = if op == Self::CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent as *mut c_void
        };
        os_err(unsafe { epoll_ctl(self.epfd, op, fd, evp) })
    }

    /// Start watching `fd` (readable always; writable iff asked).
    pub fn add(&mut self, fd: RawFd, writable: bool) -> io::Result<()> {
        self.ctl(Self::CTL_ADD, fd, writable)
    }

    /// Change `fd`'s write interest.
    pub fn modify(&mut self, fd: RawFd, writable: bool) -> io::Result<()> {
        self.ctl(Self::CTL_MOD, fd, writable)
    }

    /// Stop watching `fd`.
    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(Self::CTL_DEL, fd, false)
    }

    /// Block up to `timeout_ms` (-1 = forever) and append every ready
    /// fd to `out`.
    pub fn wait(&mut self, out: &mut Vec<Readiness>, timeout_ms: i32) -> io::Result<()> {
        extern "C" {
            fn epoll_wait(
                epfd: c_int,
                events: *mut c_void,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.events.as_mut_ptr() as *mut c_void,
                self.events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &self.events[..n as usize] {
            let bits = { ev.events };
            let data = { ev.data };
            out.push(Readiness {
                fd: data as RawFd,
                readable: bits & Self::EPOLLIN != 0,
                writable: bits & Self::EPOLLOUT != 0,
                error: bits & (Self::EPOLLERR | Self::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

// ------------------------------------------------- poll(2) fallback

/// Readiness poller: `poll(2)` on non-Linux Unixes. O(n) per wait, but
/// the mesh never watches more than a few hundred fds per shard.
#[cfg(all(unix, not(target_os = "linux")))]
pub struct Poller {
    fds: Vec<PollFd>,
}

#[cfg(all(unix, not(target_os = "linux")))]
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Poller {
    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// A fresh (empty) poll set.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { fds: Vec::new() })
    }

    /// Start watching `fd` (readable always; writable iff asked).
    pub fn add(&mut self, fd: RawFd, writable: bool) -> io::Result<()> {
        self.fds.push(PollFd {
            fd,
            events: Self::POLLIN | if writable { Self::POLLOUT } else { 0 },
            revents: 0,
        });
        Ok(())
    }

    /// Change `fd`'s write interest.
    pub fn modify(&mut self, fd: RawFd, writable: bool) -> io::Result<()> {
        for p in &mut self.fds {
            if p.fd == fd {
                p.events = Self::POLLIN | if writable { Self::POLLOUT } else { 0 };
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not watched"))
    }

    /// Stop watching `fd`.
    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        self.fds.retain(|p| p.fd != fd);
        Ok(())
    }

    /// Block up to `timeout_ms` (-1 = forever) and append every ready
    /// fd to `out`.
    pub fn wait(&mut self, out: &mut Vec<Readiness>, timeout_ms: i32) -> io::Result<()> {
        extern "C" {
            fn poll(fds: *mut c_void, nfds: usize, timeout: c_int) -> c_int;
        }
        for p in &mut self.fds {
            p.revents = 0;
        }
        let n = unsafe {
            poll(
                self.fds.as_mut_ptr() as *mut c_void,
                self.fds.len(),
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for p in &self.fds {
            if p.revents != 0 {
                out.push(Readiness {
                    fd: p.fd,
                    readable: p.revents & Self::POLLIN != 0,
                    writable: p.revents & Self::POLLOUT != 0,
                    error: p.revents & (Self::POLLERR | Self::POLLHUP) != 0,
                });
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------- waker

/// A self-pipe waker: any thread writes one byte to pull the event
/// loop out of its poll. Both ends are nonblocking; a full pipe means
/// a wake is already pending, which is exactly as good as another.
pub struct Waker {
    r: RawFd,
    w: RawFd,
}

impl Waker {
    /// A fresh nonblocking pipe pair.
    pub fn new() -> io::Result<Waker> {
        #[cfg(target_os = "linux")]
        let (r, w) = {
            extern "C" {
                fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
            }
            const O_NONBLOCK: c_int = 0o4000;
            const O_CLOEXEC: c_int = 0o2000000;
            let mut fds = [0 as c_int; 2];
            os_err(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
            (fds[0], fds[1])
        };
        #[cfg(all(unix, not(target_os = "linux")))]
        let (r, w) = {
            extern "C" {
                fn pipe(fds: *mut c_int) -> c_int;
                fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
            }
            const F_SETFL: c_int = 4;
            const O_NONBLOCK: c_int = 0x0004; // BSD/macOS value
            let mut fds = [0 as c_int; 2];
            os_err(unsafe { pipe(fds.as_mut_ptr()) })?;
            for fd in fds {
                os_err(unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) })?;
            }
            (fds[0], fds[1])
        };
        Ok(Waker { r, w })
    }

    /// The read end — register this with the [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.r
    }

    /// The write end, for handles that outlive the borrow. The fd stays
    /// valid for the waker's lifetime (the event loop never drops it).
    pub fn write_fd(&self) -> RawFd {
        self.w
    }

    /// Drain every pending wake byte (loop side, after a poll).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.r, buf.as_mut_ptr() as *mut c_void, buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

/// Wake the loop owning `write_fd` (one byte down the self-pipe;
/// `EAGAIN` means a wake is already queued — success either way).
pub fn wake(write_fd: RawFd) {
    let b = [1u8];
    unsafe { write(write_fd, b.as_ptr() as *const c_void, 1) };
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.r);
            close(self.w);
        }
    }
}

// ------------------------------------------------- accept readiness

/// A nonblocking listener watched by its own [`Poller`], so an accept
/// loop sleeps until a connection arrives or its deadline passes —
/// never on a fixed timer.
pub struct Acceptor {
    listener: TcpListener,
    poller: Poller,
    ready: Vec<Readiness>,
}

impl Acceptor {
    /// Watch `listener` (switched to nonblocking).
    pub fn new(listener: TcpListener) -> io::Result<Acceptor> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), false)?;
        Ok(Acceptor {
            listener,
            poller,
            ready: Vec::new(),
        })
    }

    /// Accept one connection, waiting up to `timeout` for it to arrive;
    /// `Ok(None)` when none did. The stream comes back blocking.
    pub fn accept(&mut self, timeout: Duration) -> io::Result<Option<TcpStream>> {
        for waited in [false, true] {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Some(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if !waited {
                // Round up, so a sub-millisecond remainder still blocks.
                let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128);
                self.ready.clear();
                self.poller.wait(&mut self.ready, ms as i32)?;
            }
        }
        Ok(None)
    }
}

/// Send `SIGKILL` to process `pid`.
pub fn kill_process(pid: u32) -> io::Result<()> {
    const SIGKILL: c_int = 9;
    os_err(unsafe { kill(pid as c_int, SIGKILL) })
}

// --------------------------------------------------- socket options

/// Size a socket's kernel buffers explicitly (`SO_SNDBUF` /
/// `SO_RCVBUF`). The defaults on loopback are auto-tuned and fine, but
/// an explicit size keeps the batching behaviour reproducible across
/// hosts: the send queue's flush cadence depends on how much the
/// kernel will absorb per `writev`. Linux doubles the requested value
/// for bookkeeping; that is expected and harmless.
pub fn set_socket_buffers(stream: &TcpStream, snd_bytes: usize, rcv_bytes: usize) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    const SOL_SOCKET: c_int = 1;
    #[cfg(target_os = "linux")]
    const SO_SNDBUF: c_int = 7;
    #[cfg(target_os = "linux")]
    const SO_RCVBUF: c_int = 8;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SOL_SOCKET: c_int = 0xffff;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SO_SNDBUF: c_int = 0x1001;
    #[cfg(all(unix, not(target_os = "linux")))]
    const SO_RCVBUF: c_int = 0x1002;
    let fd = stream.as_raw_fd();
    for (opt, bytes) in [(SO_SNDBUF, snd_bytes), (SO_RCVBUF, rcv_bytes)] {
        let val = bytes as c_int;
        os_err(unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                &val as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn waker_wakes_poller() {
        let mut p = Poller::new().unwrap();
        let w = Waker::new().unwrap();
        p.add(w.read_fd(), false).unwrap();
        let mut ready = Vec::new();
        p.wait(&mut ready, 0).unwrap();
        assert!(ready.is_empty(), "nothing ready before a wake");
        wake(w.write_fd());
        p.wait(&mut ready, 1000).unwrap();
        assert!(ready.iter().any(|r| r.fd == w.read_fd() && r.readable));
        w.drain();
        ready.clear();
        p.wait(&mut ready, 0).unwrap();
        assert!(ready.is_empty(), "drained waker is quiet again");
    }

    #[test]
    fn poller_sees_socket_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut p = Poller::new().unwrap();
        p.add(client.as_raw_fd(), true).unwrap();
        let mut ready = Vec::new();
        p.wait(&mut ready, 1000).unwrap();
        let r = ready
            .iter()
            .find(|r| r.fd == client.as_raw_fd())
            .expect("connected socket reports");
        assert!(r.writable && !r.readable);

        server.write_all(b"x").unwrap();
        p.modify(client.as_raw_fd(), false).unwrap();
        ready.clear();
        p.wait(&mut ready, 1000).unwrap();
        let r = ready
            .iter()
            .find(|r| r.fd == client.as_raw_fd())
            .expect("pending byte reports");
        assert!(r.readable && !r.writable, "write interest was dropped");
        p.delete(client.as_raw_fd()).unwrap();
    }

    #[test]
    fn acceptor_wakes_on_a_connection_and_times_out_without_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut acceptor = Acceptor::new(listener).unwrap();
        let t0 = std::time::Instant::now();
        let none = acceptor.accept(Duration::from_millis(20)).unwrap();
        assert!(none.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20), "waits out the timeout");
        let connect = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let t0 = std::time::Instant::now();
        acceptor
            .accept(Duration::from_secs(30))
            .unwrap()
            .expect("connection accepted");
        assert!(t0.elapsed() < Duration::from_secs(10), "woke on readiness");
        drop(connect.join().unwrap());
    }

    #[test]
    fn socket_buffers_apply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_socket_buffers(&stream, 256 * 1024, 256 * 1024).unwrap();
    }
}
