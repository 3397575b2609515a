//! The TCP front-end: accepts clients, speaks [`crate::proto`], and
//! forwards everything to the [`Scheduler`].
//!
//! One thread per client connection (clients are few and chatty, not
//! many and idle), requests answered in order on the same socket until
//! the client hangs up. The accept loop blocks in `accept`, and
//! `Request::Wait` blocks on the scheduler until the job is terminal,
//! so neither a connection nor a result waits on a timer. Draining
//! keeps the listener *open* so waiting clients can still poll their
//! jobs and new submits get a clean `Draining` rejection instead of a
//! connection refusal.
//!
//! When durable checkpoints are configured, the server also owns
//! retention: after every job reaches a terminal state it prunes
//! completed runs' checkpoint subdirectories oldest-first down to
//! `durable_keep`, never touching a live (queued or running) run's
//! directory — the liveness set comes from the scheduler itself.

use crate::metrics::ServeMetrics;
use crate::proto::{read_msg, write_msg, JobSpec, RejectReason, Request, Response};
use crate::sched::{RunnerFn, SchedConfig, Scheduler};
use crate::traces::TraceStore;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest a `Request::Wait` holds its connection thread before
/// answering with the job's current state, whatever the client asked
/// for — so a client that vanishes mid-wait never pins a thread long.
pub const MAX_WAIT: Duration = Duration::from_secs(1);

/// Server configuration: scheduler sizing plus checkpoint retention.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Scheduler sizing (queue capacity, in-flight cap).
    pub sched: SchedConfig,
    /// Base durable checkpoint directory the mesh spills into; used
    /// here only for retention (the runner threads it into the runs).
    pub durable_dir: Option<PathBuf>,
    /// Keep at most this many *completed* runs' checkpoint
    /// subdirectories; `None` keeps everything.
    pub durable_keep: Option<usize>,
    /// Persistent job journal path. `None` defaults to
    /// `jobs.journal` under `durable_dir` when that is set, so a
    /// durable service remembers finished jobs across restarts with no
    /// extra flag; with neither, no journal is kept.
    pub journal: Option<PathBuf>,
    /// Retained per-job Chrome traces, shared with the runner (thread
    /// the *same* [`TraceStore`] into [`crate::gemm::MeshOpts`]) so
    /// `Request::Trace` can serve what the runners recorded. `None`
    /// answers every trace fetch with an error.
    pub traces: Option<Arc<TraceStore>>,
    /// PE count of the joined mesh: a job of any other width
    /// ([`JobSpec::pes`]) is rejected at submit with
    /// [`RejectReason::MeshMismatch`]. `None` (PEs spawned per run)
    /// admits any width.
    pub mesh_pes: Option<usize>,
}

/// A running service instance.
pub struct Server {
    sched: Arc<Scheduler>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Bind `addr` and start serving. Binding is synchronous — when this
/// returns, [`Server::local_addr`] is connectable — so `addr` may end
/// in `:0` for tests.
pub fn serve(
    addr: &str,
    cfg: ServerConfig,
    metrics: Arc<ServeMetrics>,
    runner: Arc<RunnerFn>,
) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    let on_finish: Option<Box<crate::sched::FinishHook>> =
        match (cfg.durable_dir.clone(), cfg.durable_keep) {
            (Some(base), Some(keep)) => Some(Box::new(move |_id, live| {
                let live = live.clone();
                let removed =
                    navp::durable::prune_run_dirs(&base, keep, &|run| live.contains(&run));
                if !removed.is_empty() {
                    eprintln!(
                        "navp-serve: pruned checkpoint dir(s) of completed run(s) {removed:?}"
                    );
                }
            })),
            _ => None,
        };
    let journal_path = cfg
        .journal
        .clone()
        .or_else(|| cfg.durable_dir.as_ref().map(|d| d.join("jobs.journal")));
    let journal = match journal_path {
        Some(path) => {
            let (journal, restored) = crate::journal::Journal::open(&path)?;
            if !restored.is_empty() {
                eprintln!(
                    "navp-serve: job journal {} restored {} finished job(s)",
                    path.display(),
                    restored.len()
                );
            }
            Some((journal, restored))
        }
        None => None,
    };
    let sched = Arc::new(Scheduler::start_with_journal(
        cfg.sched, metrics, runner, on_finish, journal,
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let sched = Arc::clone(&sched);
        let stop = Arc::clone(&stop);
        let traces = cfg.traces.clone();
        let mesh_pes = cfg.mesh_pes;
        std::thread::Builder::new()
            .name("navp-serve-accept".into())
            .spawn(move || accept_loop(listener, sched, traces, mesh_pes, stop))
            .expect("spawn accept loop")
    };
    Ok(Server {
        sched,
        addr: local,
        stop,
        accept: Some(accept),
    })
}

/// Block in `accept` and hand each connection its own thread, until
/// [`Server::shutdown`] sets `stop` and connects to wake the loop.
fn accept_loop(
    listener: TcpListener,
    sched: Arc<Scheduler>,
    traces: Option<Arc<TraceStore>>,
    mesh_pes: Option<usize>,
    stop: Arc<AtomicBool>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => {
                let sched = Arc::clone(&sched);
                let traces = traces.clone();
                let _ = std::thread::Builder::new()
                    .name("navp-serve-client".into())
                    .spawn(move || {
                        if let Err(e) = handle_client(stream, &sched, traces.as_deref(), mesh_pes)
                        {
                            // Disconnects are normal; anything else is
                            // worth a line.
                            if e.kind() != io::ErrorKind::UnexpectedEof {
                                eprintln!("navp-serve: client session: {e}");
                            }
                        }
                    });
            }
            Err(e) => {
                eprintln!("navp-serve: accept: {e}");
                // Failure path only (e.g. out of descriptors): back off
                // instead of spinning on the same error.
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Serve one client: length-prefixed requests answered in order until
/// the peer closes the connection.
fn handle_client(
    mut stream: TcpStream,
    sched: &Scheduler,
    traces: Option<&TraceStore>,
    mesh_pes: Option<usize>,
) -> io::Result<()> {
    navp_net::cluster::tune_socket(&stream);
    loop {
        let body = match read_msg(&mut stream) {
            Ok(b) => b,
            // Clean hangup between requests.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let resp = match Request::decode(&body) {
            Ok(req) => dispatch(sched, traces, mesh_pes, req),
            Err(e) => Response::Error {
                detail: format!("bad request: {e}"),
            },
        };
        write_msg(&mut stream, &resp.encode())?;
    }
}

/// Turn away a job whose width is not the joined mesh's.
fn check_width(spec: &JobSpec, mesh_pes: Option<usize>) -> Result<(), RejectReason> {
    match (spec.pes(), mesh_pes) {
        (Some(job), Some(mesh)) if job != mesh => Err(RejectReason::MeshMismatch {
            job: job as u64,
            mesh: mesh as u64,
        }),
        _ => Ok(()),
    }
}

fn dispatch(
    sched: &Scheduler,
    traces: Option<&TraceStore>,
    mesh_pes: Option<usize>,
    req: Request,
) -> Response {
    match req {
        Request::Submit { spec } => {
            match check_width(&spec, mesh_pes).and_then(|()| sched.submit(spec)) {
                Ok(id) => Response::Submitted { id },
                Err(reason) => Response::Rejected { reason },
            }
        }
        Request::Status { id } => match sched.status(id) {
            Some(info) => Response::Job { info },
            None => Response::Error {
                detail: format!("no such job {id}"),
            },
        },
        Request::Result { id } => match sched.result(id) {
            Some((info, outcome)) => Response::Outcome { info, outcome },
            None => Response::Error {
                detail: format!("no such job {id}"),
            },
        },
        Request::Wait { id, timeout_ms } => {
            let timeout = Duration::from_millis(timeout_ms).min(MAX_WAIT);
            match sched.wait_result(id, timeout) {
                Some((info, outcome)) => Response::Outcome { info, outcome },
                None => Response::Error {
                    detail: format!("no such job {id}"),
                },
            }
        }
        Request::Cancel { id } => match sched.cancel(id) {
            Some(ok) => Response::Cancelled { id, ok },
            None => Response::Error {
                detail: format!("no such job {id}"),
            },
        },
        Request::List => Response::Jobs { jobs: sched.list() },
        Request::Trace { id } => {
            let Some(info) = sched.status(id) else {
                return Response::Error {
                    detail: format!("no such job {id}"),
                };
            };
            let Some(traces) = traces else {
                return Response::Error {
                    detail: "trace retention is not enabled on this server".into(),
                };
            };
            match traces.get(id) {
                Some(chrome_json) => Response::Trace { id, chrome_json },
                None => Response::Error {
                    detail: if info.state.is_terminal() {
                        format!(
                            "job {id} has no retained trace (submit with --trace, \
                             and fetch before it is evicted)"
                        )
                    } else {
                        format!("job {id} is {}; its trace lands when the run finishes", info.state.name())
                    },
                },
            }
        }
    }
}

impl Server {
    /// The bound address (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler, for in-process drivers and tests.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Stop admission; connections stay up for status polling.
    pub fn drain(&self) {
        self.sched.drain();
    }

    /// Block until no job is queued or running, up to `timeout`.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.sched.wait_idle(timeout)
    }

    /// Stop the accept loop and the workers (in-flight runs finish
    /// first — drain + wait for idle beforehand for a graceful stop).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked `accept` with a connection of our own.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        match TcpStream::connect(wake) {
            Ok(_) => {
                if let Some(h) = self.accept.take() {
                    let _ = h.join();
                }
            }
            // Unreachable listener: leave the accept thread detached
            // rather than join a loop that cannot wake.
            Err(e) => eprintln!("navp-serve: cannot wake the accept loop: {e}"),
        }
        self.sched.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::proto::{JobOutcome, JobSpec, JobState, RejectReason};
    use crate::sched::JobFailure;

    const T: Duration = Duration::from_secs(30);

    fn fast_runner(fail_every: u64) -> Arc<RunnerFn> {
        Arc::new(move |_spec, id| {
            std::thread::sleep(Duration::from_millis(20));
            if fail_every != 0 && id % fail_every == 0 {
                Err(JobFailure {
                    timed_out: false,
                    detail: "synthetic".into(),
                })
            } else {
                Ok(JobOutcome {
                    checksum: id,
                    verified: true,
                    wall_ms: 20,
                })
            }
        })
    }

    #[test]
    fn end_to_end_over_tcp_submit_poll_list_cancel() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            ServeMetrics::new(),
            fast_runner(0),
        )
        .expect("bind");
        let addr = server.local_addr().to_string();

        let id = client::submit(&addr, JobSpec::example())
            .expect("io")
            .expect("admitted");
        let (info, outcome) = client::wait_terminal(&addr, id, T).expect("terminal");
        assert_eq!(info.state, JobState::Done);
        let outcome = outcome.expect("outcome");
        assert_eq!(outcome.checksum, id);
        assert!(outcome.verified);

        // Unknown ids are Errors, not hangs.
        match client::rpc(&addr, &Request::Status { id: 999 }).unwrap() {
            Response::Error { detail } => assert!(detail.contains("999"), "{detail}"),
            other => panic!("expected Error, got {other:?}"),
        }
        // List knows the finished job.
        match client::rpc(&addr, &Request::List).unwrap() {
            Response::Jobs { jobs } => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].id, id);
            }
            other => panic!("expected Jobs, got {other:?}"),
        }
        // Cancelling a finished job is a clean `false`.
        match client::rpc(&addr, &Request::Cancel { id }).unwrap() {
            Response::Cancelled { ok, .. } => assert!(!ok),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn drain_rejects_submits_but_serves_polls() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            ServeMetrics::new(),
            fast_runner(0),
        )
        .expect("bind");
        let addr = server.local_addr().to_string();
        let id = client::submit(&addr, JobSpec::example())
            .expect("io")
            .expect("admitted");
        server.drain();
        assert_eq!(
            client::submit(&addr, JobSpec::example()).expect("io"),
            Err(RejectReason::Draining),
            "post-drain submits get a clean rejection"
        );
        // The already-admitted job still finishes and stays pollable.
        let (info, _) = client::wait_terminal(&addr, id, T).expect("terminal");
        assert_eq!(info.state, JobState::Done);
        assert!(server.wait_idle(T));
        server.shutdown();
    }

    #[test]
    fn a_job_wider_or_narrower_than_the_mesh_is_rejected_at_submit() {
        let cfg = |mesh_pes| ServerConfig {
            mesh_pes,
            ..ServerConfig::default()
        };
        let server = serve("127.0.0.1:0", cfg(Some(2)), ServeMetrics::new(), fast_runner(0))
            .expect("bind");
        let addr = server.local_addr().to_string();
        let mismatch = |job| Err(RejectReason::MeshMismatch { job, mesh: 2 });
        // GEMM: rows × cols PEs.
        assert_eq!(client::submit(&addr, JobSpec::example()).expect("io"), mismatch(4));
        // kv: the step's effective width (the sequential step is 1 PE).
        assert_eq!(client::submit(&addr, JobSpec::example_kv()).expect("io"), mismatch(4));
        let seq = JobSpec {
            stage: "kv_seq".into(),
            cols: 2,
            ..JobSpec::example_kv()
        };
        assert_eq!(client::submit(&addr, seq).expect("io"), mismatch(1));
        // Matching widths are admitted and run.
        for spec in [
            JobSpec {
                cols: 2,
                ..JobSpec::example()
            },
            JobSpec {
                cols: 2,
                ..JobSpec::example_kv()
            },
        ] {
            let id = client::submit(&addr, spec).expect("io").expect("admitted");
            let (info, _) = client::wait_terminal(&addr, id, T).expect("terminal");
            assert_eq!(info.state, JobState::Done);
        }
        server.shutdown();

        // PEs spawned per run: any width is admitted.
        let server = serve("127.0.0.1:0", cfg(None), ServeMetrics::new(), fast_runner(0))
            .expect("bind");
        let addr = server.local_addr().to_string();
        assert!(client::submit(&addr, JobSpec::example()).expect("io").is_ok());
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_error_not_disconnect() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            ServeMetrics::new(),
            fast_runner(0),
        )
        .expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        crate::proto::write_msg(&mut stream, &[250]).expect("send garbage");
        let body = crate::proto::read_msg(&mut stream).expect("still answered");
        match Response::decode(&body).expect("decodable") {
            Response::Error { detail } => assert!(detail.contains("bad request"), "{detail}"),
            other => panic!("expected Error, got {other:?}"),
        }
        // The same connection still works for a valid request.
        crate::proto::write_msg(&mut stream, &Request::List.encode()).expect("send");
        let body = crate::proto::read_msg(&mut stream).expect("answered");
        assert!(matches!(Response::decode(&body).unwrap(), Response::Jobs { .. }));
        server.shutdown();
    }

    #[test]
    fn trace_fetch_serves_exactly_the_requested_jobs_trace() {
        let traces = Arc::new(TraceStore::default());
        let store = Arc::clone(&traces);
        let runner: Arc<RunnerFn> = Arc::new(move |spec, id| {
            // Stand-in for the mesh runners: park a per-job trace when
            // (and only when) the spec asked for one.
            if spec.trace {
                store.put(id, format!("{{\"traceEvents\":[],\"job\":{id}}}"));
            }
            Ok(JobOutcome {
                checksum: id,
                verified: true,
                wall_ms: 1,
            })
        });
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                traces: Some(traces),
                ..ServerConfig::default()
            },
            ServeMetrics::new(),
            runner,
        )
        .expect("bind");
        let addr = server.local_addr().to_string();
        let traced = client::submit(
            &addr,
            JobSpec {
                trace: true,
                ..JobSpec::example()
            },
        )
        .expect("io")
        .expect("admitted");
        let plain = client::submit(&addr, JobSpec::example())
            .expect("io")
            .expect("admitted");
        for id in [traced, plain] {
            client::wait_terminal(&addr, id, T).expect("terminal");
        }
        let json = client::fetch_trace(&addr, traced).expect("trace");
        assert!(json.contains(&format!("\"job\":{traced}")), "{json}");
        // Untraced jobs and unknown ids both miss cleanly.
        let err = client::fetch_trace(&addr, plain).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("no retained trace"), "{err}");
        let err = client::fetch_trace(&addr, 999).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        server.shutdown();
    }

    #[test]
    fn restarted_server_remembers_finished_jobs() {
        let dir = std::env::temp_dir().join(format!(
            "navp-serve-journal-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServerConfig {
            journal: Some(dir.join("jobs.journal")),
            ..ServerConfig::default()
        };
        // First life: one GEMM and one kv job finish.
        let (gemm_id, kv_id) = {
            let server = serve("127.0.0.1:0", cfg.clone(), ServeMetrics::new(), fast_runner(0))
                .expect("bind");
            let addr = server.local_addr().to_string();
            let gemm_id = client::submit(&addr, JobSpec::example())
                .expect("io")
                .expect("admitted");
            let kv_id = client::submit(&addr, JobSpec::example_kv())
                .expect("io")
                .expect("admitted");
            for id in [gemm_id, kv_id] {
                let (info, _) = client::wait_terminal(&addr, id, T).expect("terminal");
                assert_eq!(info.state, JobState::Done);
            }
            server.shutdown();
            (gemm_id, kv_id)
        };
        // Second life: the journal seeds the job table.
        let server =
            serve("127.0.0.1:0", cfg, ServeMetrics::new(), fast_runner(0)).expect("bind");
        let addr = server.local_addr().to_string();
        match client::rpc(&addr, &Request::List).unwrap() {
            Response::Jobs { jobs } => {
                assert_eq!(
                    jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
                    vec![gemm_id, kv_id]
                );
                assert!(jobs.iter().all(|j| j.state == JobState::Done));
            }
            other => panic!("expected Jobs, got {other:?}"),
        }
        // Result still serves the restored outcome.
        match client::rpc(&addr, &Request::Result { id: kv_id }).unwrap() {
            Response::Outcome { info, outcome } => {
                assert_eq!(info.state, JobState::Done);
                assert_eq!(outcome.expect("outcome").checksum, kv_id);
            }
            other => panic!("expected Outcome, got {other:?}"),
        }
        // Ids keep increasing past the restored ones: the id doubles
        // as the run namespace, so reuse would collide on the mesh.
        let next = client::submit(&addr, JobSpec::example())
            .expect("io")
            .expect("admitted");
        assert_eq!(next, kv_id + 1);
        client::wait_terminal(&addr, next, T).expect("terminal");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_gc_prunes_completed_runs_only() {
        let base = std::env::temp_dir().join(format!(
            "navp-serve-gc-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&base).unwrap();
        // Runner that fabricates the run's checkpoint dir, as the mesh
        // would, then finishes.
        let dir = base.clone();
        let runner: Arc<RunnerFn> = Arc::new(move |_spec, id| {
            let run = navp::durable::run_dir(&dir, id);
            std::fs::create_dir_all(&run).unwrap();
            std::fs::write(run.join("pe-0.ckpt"), b"cut").unwrap();
            std::thread::sleep(Duration::from_millis(10));
            Ok(JobOutcome {
                checksum: id,
                verified: true,
                wall_ms: 10,
            })
        });
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                sched: SchedConfig {
                    queue_cap: 8,
                    max_inflight: 1,
                },
                durable_dir: Some(base.clone()),
                durable_keep: Some(1),
                journal: None,
                traces: None,
                mesh_pes: None,
            },
            ServeMetrics::new(),
            runner,
        )
        .expect("bind");
        let addr = server.local_addr().to_string();
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                client::submit(&addr, JobSpec::example())
                    .expect("io")
                    .expect("admitted")
            })
            .collect();
        for &id in &ids {
            let (info, _) = client::wait_terminal(&addr, id, T).expect("terminal");
            assert_eq!(info.state, JobState::Done);
        }
        assert!(server.wait_idle(T));
        // Retention ran after each completion: only the newest
        // completed run's directory survives.
        let kept = navp::durable::list_run_dirs(&base);
        assert_eq!(kept, vec![*ids.last().unwrap()], "keep=1 leaves the newest");
        server.shutdown();
        std::fs::remove_dir_all(&base).ok();
    }
}
