//! Blocking client helpers: what `navp-submit` and the integration
//! tests use to talk to a `navp-serve` instance.

use crate::proto::{
    read_msg, write_msg, JobInfo, JobOutcome, JobSpec, RejectReason, Request, Response,
};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A persistent connection issuing request/response pairs in order.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a `navp-serve` listen address.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        navp_net::cluster::tune_socket(&stream);
        Ok(Client { stream })
    }

    /// Send one request and read its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_msg(&mut self.stream, &req.encode())?;
        let body = read_msg(&mut self.stream)?;
        Response::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Submit a job. The outer `Result` is transport; the inner one is
    /// the server's admission verdict.
    pub fn submit(&mut self, spec: JobSpec) -> io::Result<Result<u64, RejectReason>> {
        match self.request(&Request::Submit { spec })? {
            Response::Submitted { id } => Ok(Ok(id)),
            Response::Rejected { reason } => Ok(Err(reason)),
            other => Err(unexpected(other)),
        }
    }

    /// Wait until the job reaches a terminal state, up to `timeout`;
    /// `TimedOut` errors mean the *client* gave up waiting, not that the
    /// job failed. Each `Wait` request blocks on the server until the
    /// job is terminal or the server's cap ([`crate::server::MAX_WAIT`])
    /// ends it, so the answer arrives when the job finishes, not on a
    /// timer.
    pub fn wait_terminal(
        &mut self,
        id: u64,
        timeout: Duration,
    ) -> io::Result<(JobInfo, Option<JobOutcome>)> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let timeout_ms = left.as_millis().min(u64::MAX as u128) as u64;
            match self.request(&Request::Wait { id, timeout_ms })? {
                Response::Outcome { info, outcome } => {
                    if info.state.is_terminal() {
                        return Ok((info, outcome));
                    }
                }
                Response::Error { detail } => {
                    return Err(io::Error::new(io::ErrorKind::NotFound, detail))
                }
                other => return Err(unexpected(other)),
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} not terminal within {timeout:?}"),
                ));
            }
        }
    }
}

/// One-shot request over a fresh connection.
pub fn rpc(addr: &str, req: &Request) -> io::Result<Response> {
    Client::connect(addr)?.request(req)
}

/// Submit a job over a fresh connection; see [`Client::submit`].
pub fn submit(addr: &str, spec: JobSpec) -> io::Result<Result<u64, RejectReason>> {
    Client::connect(addr)?.submit(spec)
}

/// Wait for a job over a fresh connection; see [`Client::wait_terminal`].
pub fn wait_terminal(
    addr: &str,
    id: u64,
    timeout: Duration,
) -> io::Result<(JobInfo, Option<JobOutcome>)> {
    Client::connect(addr)?.wait_terminal(id, timeout)
}

/// Fetch the retained Chrome trace of a job submitted with the
/// `trace` flag. Server-side misses (unknown id, no retained trace)
/// come back as `NotFound` with the server's detail.
pub fn fetch_trace(addr: &str, id: u64) -> io::Result<String> {
    match rpc(addr, &Request::Trace { id })? {
        Response::Trace {
            id: got,
            chrome_json,
        } if got == id => Ok(chrome_json),
        Response::Error { detail } => Err(io::Error::new(io::ErrorKind::NotFound, detail)),
        other => Err(unexpected(other)),
    }
}

fn unexpected(resp: Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response: {resp:?}"),
    )
}
