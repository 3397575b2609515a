//! The submit protocol: what `navp-submit` speaks to `navp-serve`.
//!
//! Same conventions as the PE mesh protocol (`navp_net::frame`): every
//! message is a little-endian `u32` length prefix followed by a kind
//! byte and a hand-rolled body over [`WireWriter`] / [`WireReader`].
//! Every read is bounds-checked, unknown kinds and trailing bytes are
//! decode errors, and the length prefix is capped at [`MAX_MSG`] so a
//! corrupt client cannot make the server allocate gigabytes.

use navp_net::codec::{DecodeError, WireReader, WireWriter};
use std::io::{Read, Write};

/// Hard cap on one protocol message. Requests and responses carry
/// specs, summaries and (for `Trace`) rendered Chrome trace JSON —
/// never matrix data — so 8 MiB is generous even for a large mesh's
/// per-job timeline.
pub const MAX_MSG: usize = 8 << 20;

/// `JobSpec` trailing-flags bit: record and retain a per-job Chrome
/// trace the client can fetch with [`Request::Trace`].
const FLAG_TRACE: u8 = 1;

/// Which workload family a job runs. The service multiplexes all of
/// them onto the same PE mesh; the runner dispatches on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobKind {
    /// The matrix-multiplication case study (`navp-mm`). The default,
    /// and the only kind older clients can submit.
    #[default]
    Gemm,
    /// The key-value workload (`navp-kv`). Field mapping: `n` = total
    /// operations, `ab` = batches, `cols` = mesh width (`rows` must be
    /// 1), `seed_a` = workload seed, `seed_b` = value length in bytes
    /// (0 = default).
    Kv,
}

impl JobKind {
    /// Stable name used by CLIs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Gemm => "gemm",
            JobKind::Kv => "kv",
        }
    }

    /// Parse a kind name.
    pub fn parse(s: &str) -> Option<JobKind> {
        match s {
            "gemm" => Some(JobKind::Gemm),
            "kv" => Some(JobKind::Kv),
            _ => None,
        }
    }

    pub(crate) fn from_wire(b: u8) -> Result<JobKind, DecodeError> {
        match b {
            0 => Ok(JobKind::Gemm),
            1 => Ok(JobKind::Kv),
            _ => Err(DecodeError::BadValue("job kind")),
        }
    }

    pub(crate) fn to_wire(self) -> u8 {
        match self {
            JobKind::Gemm => 0,
            JobKind::Kv => 1,
        }
    }
}

/// One job submission: which stage to run, at what size, on which
/// logical grid, with what inputs and limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload family; dictates how the numeric fields are read.
    ///
    /// Wire compatibility: the kind is encoded as a trailing byte only
    /// when it is not [`JobKind::Gemm`], and decoded only when present,
    /// so GEMM specs are byte-identical to the pre-kind format in both
    /// directions — old clients talk to new servers and vice versa.
    pub kind: JobKind,
    /// Stage name: `dsc1d`, `pipe1d`, `phase1d`, `dsc2d`, `pipe2d`
    /// or `dpc2d` (see [`crate::gemm::parse_stage`]) for GEMM jobs;
    /// `kv_seq`, `kv_dsc`, `kv_pipe` or `kv_phase` for kv jobs.
    pub stage: String,
    /// Matrix order N.
    pub n: u32,
    /// Algorithmic block order (must divide `n`).
    pub ab: u32,
    /// PE grid rows (1 for the 1-D stages).
    pub rows: u32,
    /// PE grid columns.
    pub cols: u32,
    /// Seed for matrix A — distinct seeds give tenants distinct inputs.
    pub seed_a: u64,
    /// Seed for matrix B.
    pub seed_b: u64,
    /// Scheduling priority; higher runs first among queued jobs.
    pub priority: u8,
    /// Per-job wall-clock budget in milliseconds; `0` = unbounded.
    pub timeout_ms: u64,
    /// Optional `navpfault` spec ([`navp::FaultPlan::parse_spec`])
    /// injected into the run; empty = no faults.
    pub fault_spec: String,
    /// Ask the server to record this run's event trace and keep the
    /// rendered Chrome JSON for a later [`Request::Trace`] fetch.
    ///
    /// Wire compatibility: encoded as a trailing flags byte
    /// ([`FLAG_TRACE`]) only when set — and when set, the kind byte is
    /// always written first so field positions stay unambiguous. Old
    /// servers never see the flag from old clients, and specs without
    /// it are byte-identical to the pre-flag format.
    pub trace: bool,
}

impl JobSpec {
    /// How many PEs the job runs on: rows × cols for GEMM, and for kv
    /// the step's [`navp_kv::KvStage::effective_pes`] of `cols`. `None`
    /// names an unknown kv step, which the runner fails.
    pub fn pes(&self) -> Option<usize> {
        match self.kind {
            JobKind::Gemm => Some(self.rows as usize * self.cols as usize),
            JobKind::Kv => navp_kv::KvStage::parse(&self.stage)
                .map(|s| s.effective_pes(self.cols as usize)),
        }
    }

    /// A runnable default: 1-D DSC at N=48, ab=12 on a 1×4 line.
    pub fn example() -> JobSpec {
        JobSpec {
            kind: JobKind::Gemm,
            stage: "dsc1d".into(),
            n: 48,
            ab: 12,
            rows: 1,
            cols: 4,
            seed_a: 0xA11CE,
            seed_b: 0xB0B,
            priority: 0,
            timeout_ms: 0,
            fault_spec: String::new(),
            trace: false,
        }
    }

    /// A runnable kv default: the pipelined step, 96 ops in 8 batches
    /// on 4 PEs.
    pub fn example_kv() -> JobSpec {
        JobSpec {
            kind: JobKind::Kv,
            stage: "kv_pipe".into(),
            n: 96,
            ab: 8,
            rows: 1,
            cols: 4,
            seed_a: 0x5eed_cafe,
            seed_b: 0,
            priority: 0,
            timeout_ms: 0,
            fault_spec: String::new(),
            trace: false,
        }
    }

    /// Encode. Only valid as the *final* element of a message: the
    /// kind and flags bytes, when present, are trailing fields (see
    /// [`JobSpec::kind`] and [`JobSpec::trace`]). Embedders that
    /// append more fields after the spec (e.g. the job journal) must
    /// frame the kind explicitly.
    pub(crate) fn put(&self, w: &mut WireWriter) {
        self.put_base(w);
        if self.kind != JobKind::Gemm || self.trace {
            w.put_u8(self.kind.to_wire());
        }
        if self.trace {
            w.put_u8(FLAG_TRACE);
        }
    }

    /// Decode; the dual of [`JobSpec::put`], so it consumes a trailing
    /// kind byte and then a flags byte iff they remain in the buffer.
    /// Redundant trailers a canonical encoder never writes (a bare
    /// GEMM kind byte with no flags, or an all-zero flags byte) are
    /// rejected, keeping decode(encode(x)) the *only* byte form of x.
    pub(crate) fn get(r: &mut WireReader) -> Result<JobSpec, DecodeError> {
        let mut spec = JobSpec::get_base(r)?;
        if r.remaining() > 0 {
            spec.kind = JobKind::from_wire(r.get_u8()?)?;
            if spec.kind == JobKind::Gemm && r.remaining() == 0 {
                return Err(DecodeError::BadValue("redundant gemm kind byte"));
            }
        }
        if r.remaining() > 0 {
            let flags = r.get_u8()?;
            if flags & !FLAG_TRACE != 0 || flags == 0 {
                return Err(DecodeError::BadValue("job flags"));
            }
            spec.trace = flags & FLAG_TRACE != 0;
        }
        Ok(spec)
    }

    /// The ten pre-kind fields, for embedders (the job journal) that
    /// append more fields after the spec and therefore frame the kind
    /// explicitly instead of as a trailing byte.
    pub(crate) fn put_base(&self, w: &mut WireWriter) {
        w.put_str(&self.stage);
        w.put_u32(self.n);
        w.put_u32(self.ab);
        w.put_u32(self.rows);
        w.put_u32(self.cols);
        w.put_u64(self.seed_a);
        w.put_u64(self.seed_b);
        w.put_u8(self.priority);
        w.put_u64(self.timeout_ms);
        w.put_str(&self.fault_spec);
    }

    /// Decode the ten pre-kind fields; `kind` comes back as `Gemm`
    /// and `trace` as `false`.
    pub(crate) fn get_base(r: &mut WireReader) -> Result<JobSpec, DecodeError> {
        Ok(JobSpec {
            kind: JobKind::Gemm,
            trace: false,
            stage: r.get_str()?,
            n: r.get_u32()?,
            ab: r.get_u32()?,
            rows: r.get_u32()?,
            cols: r.get_u32()?,
            seed_a: r.get_u64()?,
            seed_b: r.get_u64()?,
            priority: r.get_u8()?,
            timeout_ms: r.get_u64()?,
            fault_spec: r.get_str()?,
        })
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker slot.
    Queued,
    /// A worker is driving the run on the mesh.
    Running,
    /// Finished successfully; an outcome is available.
    Done,
    /// The run errored; `detail` says how.
    Failed,
    /// The run exceeded its `timeout_ms` budget.
    TimedOut,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// `true` once the job can never run again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Stable lowercase name (metric label, CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timeout",
            JobState::Cancelled => "cancelled",
        }
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::TimedOut => 4,
            JobState::Cancelled => 5,
        }
    }

    fn from_u8(v: u8) -> Result<JobState, DecodeError> {
        Ok(match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::TimedOut,
            5 => JobState::Cancelled,
            _ => return Err(DecodeError::BadValue("job state")),
        })
    }
}

/// A job's visible status. Timestamps are milliseconds since the
/// server started (a monotonic anchor, not wall time), `0` meaning
/// "not yet" for `started_ms`/`finished_ms` — clients compare them to
/// each other, e.g. to prove two runs overlapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Job id; doubles as the run namespace on the mesh.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Priority it was submitted with.
    pub priority: u8,
    /// When the job was accepted into the queue.
    pub queued_ms: u64,
    /// When a worker picked it up (`0` while queued).
    pub started_ms: u64,
    /// When it reached a terminal state (`0` before that).
    pub finished_ms: u64,
    /// Failure detail (empty unless `Failed`/`TimedOut`).
    pub detail: String,
}

impl JobInfo {
    pub(crate) fn put(&self, w: &mut WireWriter) {
        w.put_u64(self.id);
        w.put_u8(self.state.to_u8());
        w.put_u8(self.priority);
        w.put_u64(self.queued_ms);
        w.put_u64(self.started_ms);
        w.put_u64(self.finished_ms);
        w.put_str(&self.detail);
    }

    pub(crate) fn get(r: &mut WireReader) -> Result<JobInfo, DecodeError> {
        Ok(JobInfo {
            id: r.get_u64()?,
            state: JobState::from_u8(r.get_u8()?)?,
            priority: r.get_u8()?,
            queued_ms: r.get_u64()?,
            started_ms: r.get_u64()?,
            finished_ms: r.get_u64()?,
            detail: r.get_str()?,
        })
    }
}

/// What a completed run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// FNV-1a over the product matrix's `f64` bit patterns
    /// ([`crate::gemm::product_checksum`]) — two runs computed the
    /// bitwise-identical product iff their checksums match.
    pub checksum: u64,
    /// Whether the product matched the sequential reference.
    pub verified: bool,
    /// Mesh wall-clock of the run itself (excludes queueing).
    pub wall_ms: u64,
}

impl JobOutcome {
    pub(crate) fn put(&self, w: &mut WireWriter) {
        w.put_u64(self.checksum);
        w.put_bool(self.verified);
        w.put_u64(self.wall_ms);
    }

    pub(crate) fn get(r: &mut WireReader) -> Result<JobOutcome, DecodeError> {
        Ok(JobOutcome {
            checksum: r.get_u64()?,
            verified: r.get_bool()?,
            wall_ms: r.get_u64()?,
        })
    }
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue is at capacity; retry later.
    QueueFull {
        /// The configured queue capacity that was hit.
        cap: u64,
    },
    /// The server is draining for shutdown and admits nothing new.
    Draining,
    /// The job's PE count ([`JobSpec::pes`]) is not the joined mesh's.
    MeshMismatch {
        /// PEs the job runs on.
        job: u64,
        /// PEs in the mesh the service joined.
        mesh: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { cap } => {
                write!(f, "queue full (capacity {cap})")
            }
            RejectReason::Draining => write!(f, "server is draining"),
            RejectReason::MeshMismatch { job, mesh } => {
                write!(f, "job runs on {job} PEs but the mesh has {mesh}")
            }
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job; answered by `Submitted` or `Rejected`.
    Submit {
        /// What to run.
        spec: JobSpec,
    },
    /// Fetch a job's [`JobInfo`]; answered by `Job` or `Error`.
    Status {
        /// Which job.
        id: u64,
    },
    /// Fetch a job's info plus its outcome when terminal; answered by
    /// `Outcome` or `Error`.
    Result {
        /// Which job.
        id: u64,
    },
    /// Cancel a *queued* job; answered by `Cancelled` (`ok` false when
    /// the job already ran or is running) or `Error` for unknown ids.
    Cancel {
        /// Which job.
        id: u64,
    },
    /// List every job the server knows; answered by `Jobs`.
    List,
    /// Fetch the retained Chrome trace of a job submitted with
    /// `trace`; answered by `Trace` or `Error` (unknown id, job not
    /// finished yet, or no trace was requested/retained).
    Trace {
        /// Which job.
        id: u64,
    },
    /// Block until a job is terminal, then answer like `Result`:
    /// `Outcome` (non-terminal when the wait timed out) or `Error` for
    /// unknown ids. The server caps the wait (see
    /// [`crate::server::MAX_WAIT`]); clients re-issue it until their
    /// own deadline.
    Wait {
        /// Which job.
        id: u64,
        /// How long the server may hold the answer back.
        timeout_ms: u64,
    },
}

const Q_SUBMIT: u8 = 1;
const Q_STATUS: u8 = 2;
const Q_RESULT: u8 = 3;
const Q_CANCEL: u8 = 4;
const Q_LIST: u8 = 5;
const Q_TRACE: u8 = 6;
const Q_WAIT: u8 = 7;

impl Request {
    /// Encode to a message body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Request::Submit { spec } => {
                w.put_u8(Q_SUBMIT);
                spec.put(&mut w);
            }
            Request::Status { id } => {
                w.put_u8(Q_STATUS);
                w.put_u64(*id);
            }
            Request::Result { id } => {
                w.put_u8(Q_RESULT);
                w.put_u64(*id);
            }
            Request::Cancel { id } => {
                w.put_u8(Q_CANCEL);
                w.put_u64(*id);
            }
            Request::List => w.put_u8(Q_LIST),
            Request::Trace { id } => {
                w.put_u8(Q_TRACE);
                w.put_u64(*id);
            }
            Request::Wait { id, timeout_ms } => {
                w.put_u8(Q_WAIT);
                w.put_u64(*id);
                w.put_u64(*timeout_ms);
            }
        }
        w.into_vec()
    }

    /// Decode a message body; trailing bytes are an error.
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        let mut r = WireReader::new(body);
        let req = match r.get_u8()? {
            Q_SUBMIT => Request::Submit {
                spec: JobSpec::get(&mut r)?,
            },
            Q_STATUS => Request::Status { id: r.get_u64()? },
            Q_RESULT => Request::Result { id: r.get_u64()? },
            Q_CANCEL => Request::Cancel { id: r.get_u64()? },
            Q_LIST => Request::List,
            Q_TRACE => Request::Trace { id: r.get_u64()? },
            Q_WAIT => Request::Wait {
                id: r.get_u64()?,
                timeout_ms: r.get_u64()?,
            },
            k => return Err(DecodeError::UnknownTag(format!("request kind {k}"))),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::BadValue("trailing bytes after request"));
        }
        Ok(req)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job was admitted under this id.
    Submitted {
        /// Assigned job id (= run namespace).
        id: u64,
    },
    /// The job was turned away; nothing was queued.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Status of one job.
    Job {
        /// The job's current info.
        info: JobInfo,
    },
    /// Status plus outcome (present once `Done`).
    Outcome {
        /// The job's current info.
        info: JobInfo,
        /// Its product summary, when the run completed.
        outcome: Option<JobOutcome>,
    },
    /// Reply to `Cancel`.
    Cancelled {
        /// The job id echoed back.
        id: u64,
        /// `true` iff the job was still queued and is now cancelled.
        ok: bool,
    },
    /// Every job, oldest first.
    Jobs {
        /// One info per job.
        jobs: Vec<JobInfo>,
    },
    /// The request could not be served (unknown id, …).
    Error {
        /// Human-readable reason.
        detail: String,
    },
    /// A retained per-job Chrome trace, ready to open in Perfetto.
    Trace {
        /// The job id echoed back.
        id: u64,
        /// The rendered Chrome trace JSON for exactly this job's run.
        chrome_json: String,
    },
}

const R_SUBMITTED: u8 = 1;
const R_REJECTED: u8 = 2;
const R_JOB: u8 = 3;
const R_OUTCOME: u8 = 4;
const R_CANCELLED: u8 = 5;
const R_JOBS: u8 = 6;
const R_ERROR: u8 = 7;
const R_TRACE: u8 = 8;

impl Response {
    /// Encode to a message body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Response::Submitted { id } => {
                w.put_u8(R_SUBMITTED);
                w.put_u64(*id);
            }
            Response::Rejected { reason } => {
                w.put_u8(R_REJECTED);
                match reason {
                    RejectReason::QueueFull { cap } => {
                        w.put_u8(0);
                        w.put_u64(*cap);
                    }
                    RejectReason::Draining => w.put_u8(1),
                    RejectReason::MeshMismatch { job, mesh } => {
                        w.put_u8(2);
                        w.put_u64(*job);
                        w.put_u64(*mesh);
                    }
                }
            }
            Response::Job { info } => {
                w.put_u8(R_JOB);
                info.put(&mut w);
            }
            Response::Outcome { info, outcome } => {
                w.put_u8(R_OUTCOME);
                info.put(&mut w);
                match outcome {
                    Some(o) => {
                        w.put_bool(true);
                        o.put(&mut w);
                    }
                    None => w.put_bool(false),
                }
            }
            Response::Cancelled { id, ok } => {
                w.put_u8(R_CANCELLED);
                w.put_u64(*id);
                w.put_bool(*ok);
            }
            Response::Jobs { jobs } => {
                w.put_u8(R_JOBS);
                w.put_u32(jobs.len() as u32);
                for j in jobs {
                    j.put(&mut w);
                }
            }
            Response::Error { detail } => {
                w.put_u8(R_ERROR);
                w.put_str(detail);
            }
            Response::Trace { id, chrome_json } => {
                w.put_u8(R_TRACE);
                w.put_u64(*id);
                w.put_str(chrome_json);
            }
        }
        w.into_vec()
    }

    /// Decode a message body; trailing bytes are an error.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut r = WireReader::new(body);
        let resp = match r.get_u8()? {
            R_SUBMITTED => Response::Submitted { id: r.get_u64()? },
            R_REJECTED => Response::Rejected {
                reason: match r.get_u8()? {
                    0 => RejectReason::QueueFull { cap: r.get_u64()? },
                    1 => RejectReason::Draining,
                    2 => RejectReason::MeshMismatch {
                        job: r.get_u64()?,
                        mesh: r.get_u64()?,
                    },
                    _ => return Err(DecodeError::BadValue("reject reason")),
                },
            },
            R_JOB => Response::Job {
                info: JobInfo::get(&mut r)?,
            },
            R_OUTCOME => {
                let info = JobInfo::get(&mut r)?;
                let outcome = if r.get_bool()? {
                    Some(JobOutcome::get(&mut r)?)
                } else {
                    None
                };
                Response::Outcome { info, outcome }
            }
            R_CANCELLED => Response::Cancelled {
                id: r.get_u64()?,
                ok: r.get_bool()?,
            },
            R_JOBS => {
                let count = r.get_u32()? as usize;
                if count > MAX_MSG / 8 {
                    return Err(DecodeError::BadLength {
                        declared: count as u64,
                        available: (MAX_MSG / 8) as u64,
                    });
                }
                let mut jobs = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    jobs.push(JobInfo::get(&mut r)?);
                }
                Response::Jobs { jobs }
            }
            R_ERROR => Response::Error {
                detail: r.get_str()?,
            },
            R_TRACE => Response::Trace {
                id: r.get_u64()?,
                chrome_json: r.get_str()?,
            },
            k => return Err(DecodeError::UnknownTag(format!("response kind {k}"))),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::BadValue("trailing bytes after response"));
        }
        Ok(resp)
    }
}

/// Write one length-prefixed message.
pub fn write_msg<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    assert!(body.len() <= MAX_MSG, "message exceeds MAX_MSG");
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one length-prefixed message; lengths past [`MAX_MSG`] are
/// `InvalidData` so a corrupt prefix cannot drive allocation.
pub fn read_msg<R: Read>(r: &mut R) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_MSG {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("message length {len} exceeds cap {MAX_MSG}"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u64, state: JobState) -> JobInfo {
        JobInfo {
            id,
            state,
            priority: 3,
            queued_ms: 10,
            started_ms: 20,
            finished_ms: 30,
            detail: "why".into(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                spec: JobSpec::example(),
            },
            Request::Status { id: 7 },
            Request::Result { id: u64::MAX },
            Request::Cancel { id: 0 },
            Request::List,
            Request::Trace { id: 12 },
            Request::Wait {
                id: 3,
                timeout_ms: 1_000,
            },
            Request::Wait {
                id: u64::MAX,
                timeout_ms: u64::MAX,
            },
            Request::Submit {
                spec: JobSpec {
                    trace: true,
                    ..JobSpec::example()
                },
            },
            Request::Submit {
                spec: JobSpec {
                    trace: true,
                    ..JobSpec::example_kv()
                },
            },
        ];
        for req in reqs {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Submitted { id: 42 },
            Response::Rejected {
                reason: RejectReason::QueueFull { cap: 64 },
            },
            Response::Rejected {
                reason: RejectReason::Draining,
            },
            Response::Rejected {
                reason: RejectReason::MeshMismatch { job: 4, mesh: 2 },
            },
            Response::Job {
                info: info(1, JobState::Running),
            },
            Response::Outcome {
                info: info(2, JobState::Done),
                outcome: Some(JobOutcome {
                    checksum: 0xDEAD_BEEF,
                    verified: true,
                    wall_ms: 123,
                }),
            },
            Response::Outcome {
                info: info(3, JobState::Failed),
                outcome: None,
            },
            Response::Cancelled { id: 5, ok: false },
            Response::Jobs {
                jobs: vec![info(1, JobState::Queued), info(2, JobState::Cancelled)],
            },
            Response::Error {
                detail: "no such job".into(),
            },
            Response::Trace {
                id: 12,
                chrome_json: "{\"traceEvents\":[]}".into(),
            },
        ];
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp, "{resp:?}");
        }
    }

    /// The pre-kind 10-field encoding of a spec, as an old client
    /// would have produced it.
    fn old_format(spec: &JobSpec) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_str(&spec.stage);
        w.put_u32(spec.n);
        w.put_u32(spec.ab);
        w.put_u32(spec.rows);
        w.put_u32(spec.cols);
        w.put_u64(spec.seed_a);
        w.put_u64(spec.seed_b);
        w.put_u8(spec.priority);
        w.put_u64(spec.timeout_ms);
        w.put_str(&spec.fault_spec);
        w.into_vec()
    }

    #[test]
    fn kv_specs_round_trip_with_their_kind() {
        let req = Request::Submit {
            spec: JobSpec::example_kv(),
        };
        let body = req.encode();
        let Request::Submit { spec } = Request::decode(&body).unwrap() else {
            panic!("wrong request kind");
        };
        assert_eq!(spec.kind, JobKind::Kv);
        assert_eq!(spec, JobSpec::example_kv());
    }

    #[test]
    fn gemm_specs_stay_byte_identical_to_the_old_format() {
        let spec = JobSpec::example();
        let mut w = WireWriter::new();
        spec.put(&mut w);
        assert_eq!(
            w.into_vec(),
            old_format(&spec),
            "a GEMM spec must encode exactly as the pre-kind format"
        );
    }

    #[test]
    fn old_format_specs_decode_as_gemm() {
        // An old client's Submit frame: kind tag + 10-field spec.
        let mut body = vec![Q_SUBMIT];
        body.extend_from_slice(&old_format(&JobSpec::example()));
        let Request::Submit { spec } = Request::decode(&body).unwrap() else {
            panic!("wrong request kind");
        };
        assert_eq!(spec.kind, JobKind::Gemm);
        assert_eq!(spec, JobSpec::example());
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let mut body = vec![Q_SUBMIT];
        body.extend_from_slice(&old_format(&JobSpec::example()));
        body.push(7); // not a JobKind
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn traced_gemm_specs_write_the_kind_byte_before_the_flags() {
        // trace=true on a GEMM spec must still emit the kind byte so
        // the flags byte cannot be mistaken for a kind.
        let spec = JobSpec {
            trace: true,
            ..JobSpec::example()
        };
        let mut w = WireWriter::new();
        spec.put(&mut w);
        let bytes = w.into_vec();
        let mut expect = old_format(&spec);
        expect.push(JobKind::Gemm.to_wire());
        expect.push(FLAG_TRACE);
        assert_eq!(bytes, expect);
        let mut r = WireReader::new(&bytes);
        assert_eq!(JobSpec::get(&mut r).unwrap(), spec);
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let mut body = vec![Q_SUBMIT];
        body.extend_from_slice(&old_format(&JobSpec::example()));
        body.push(JobKind::Gemm.to_wire());
        body.push(FLAG_TRACE | 2); // bit 1 is not assigned
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn untraced_specs_never_grow_a_flags_byte() {
        // The flags byte must stay opt-in: a kv spec without trace is
        // byte-identical to the pre-flag kv encoding.
        let spec = JobSpec::example_kv();
        let mut w = WireWriter::new();
        spec.put(&mut w);
        let mut expect = old_format(&spec);
        expect.push(JobKind::Kv.to_wire());
        assert_eq!(w.into_vec(), expect);
    }

    #[test]
    fn job_kind_names_round_trip() {
        for kind in [JobKind::Gemm, JobKind::Kv] {
            assert_eq!(JobKind::parse(kind.name()), Some(kind));
            assert_eq!(JobKind::from_wire(kind.to_wire()).unwrap(), kind);
        }
        assert_eq!(JobKind::parse("summa"), None);
        assert!(JobKind::from_wire(2).is_err());
    }

    #[test]
    fn trailing_bytes_and_unknown_kinds_rejected() {
        let mut body = Request::List.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        assert!(Request::decode(&[200]).is_err());
        let mut body = Response::Submitted { id: 1 }.encode();
        body.push(9);
        assert!(Response::decode(&body).is_err());
        assert!(Response::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err(), "empty body is truncated");
    }

    #[test]
    fn wait_requests_reject_truncation_and_trailing_bytes() {
        let body = Request::Wait {
            id: 5,
            timeout_ms: 250,
        }
        .encode();
        assert_eq!(body.len(), 17, "tag + id + timeout");
        assert_eq!(body[0], 7, "Wait is request tag 7");
        for cut in 0..body.len() {
            assert!(Request::decode(&body[..cut]).is_err(), "cut {cut}");
        }
        let mut long = body.clone();
        long.push(0);
        assert!(Request::decode(&long).is_err(), "trailing byte");
    }

    #[test]
    fn framing_round_trips_and_caps_length() {
        let body = Request::Status { id: 9 }.encode();
        let mut buf = Vec::new();
        write_msg(&mut buf, &body).unwrap();
        let got = read_msg(&mut buf.as_slice()).unwrap();
        assert_eq!(got, body);
        // A corrupt prefix past the cap is refused without allocating.
        let huge = ((MAX_MSG + 1) as u32).to_le_bytes();
        let err = read_msg(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn job_state_names_are_stable() {
        for (state, name) in [
            (JobState::Queued, "queued"),
            (JobState::Running, "running"),
            (JobState::Done, "done"),
            (JobState::Failed, "failed"),
            (JobState::TimedOut, "timeout"),
            (JobState::Cancelled, "cancelled"),
        ] {
            assert_eq!(state.name(), name);
            assert_eq!(state.is_terminal(), !matches!(state, JobState::Queued | JobState::Running));
            assert_eq!(JobState::from_u8(state.to_u8()).unwrap(), state);
        }
        assert!(JobState::from_u8(6).is_err());
    }
}
