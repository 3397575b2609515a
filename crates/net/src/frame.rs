//! The length-prefixed frame protocol between the driver and PE
//! processes (and between PE peers).
//!
//! Every message on a stream is one *frame*:
//!
//! ```text
//! u32 len (LE) | u8 kind | payload…        (len counts kind + payload)
//! ```
//!
//! [`Frame::encode`] / [`Frame::decode`] convert between the in-memory
//! enum and the body bytes; [`read_frame_body`] / frame writing live in
//! `cluster` next to the sockets. Payload layouts are defined by the
//! `codec` primitives — little-endian integers, bit-exact floats,
//! length-prefixed strings — and every variant roundtrips exactly
//! (property-tested in `tests/codec_props.rs`).

use crate::codec::{DecodeError, WireReader, WireWriter};
use navp::fault::FaultPlan;
use navp::{FaultStats, Key, RunError, WireSnapshot};
use navp_metrics::{Sample, SampleKind};
use navp_obs::LaneSnapshot;

/// Upper bound on one frame's body. A frame carries at most one
/// messenger or one PE's store image; anything past this cap is a
/// corrupt length prefix, not data.
pub const MAX_FRAME: usize = 1 << 28; // 256 MiB

/// One serialized store entry: key, value-codec tag, declared resident
/// bytes, encoded value.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// The node variable's key.
    pub key: Key,
    /// Registry tag of the value codec that encoded `val`.
    pub tag: String,
    /// Declared resident bytes (store byte accounting, not `val.len()`).
    pub bytes: u64,
    /// Encoded value.
    pub val: Vec<u8>,
}

/// Every message of the navp-net protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Driver → PE: your identity and the cluster size.
    Assign {
        /// This process's PE index.
        pe: u32,
        /// Cluster size.
        pes: u32,
        /// Run namespace. `0` is the anonymous single-run namespace
        /// (legacy drivers); a nonzero id scopes this session's
        /// durable checkpoints to a per-run subdirectory so
        /// concurrent runs on one daemon cannot collide.
        run: u64,
    },
    /// PE → driver: the address my peer listener is bound to.
    Hello {
        /// Echoed PE index.
        pe: u32,
        /// The PE's OS process id. PE identity is assigned in
        /// connection-accept order, not spawn order, so the driver
        /// needs this to know *which* child process a PE is (e.g. to
        /// report its exit status when the connection drops).
        pid: u32,
        /// `host:port` other PEs can reach me on.
        listen: String,
    },
    /// Driver → PE: everyone's peer-listener address, indexed by PE.
    Bootstrap {
        /// `peers[p]` is PE `p`'s listen address.
        peers: Vec<String>,
    },
    /// PE → PE: identifies the connecting side of a mesh edge.
    PeerHello {
        /// The connecting PE's index.
        pe: u32,
        /// The run namespace the connecting PE was assigned. A
        /// session accepts a mesh edge only from its own run, so two
        /// concurrent runs multiplexed onto the same daemons can
        /// never cross-wire their meshes.
        run: u64,
    },
    /// PE → driver: my mesh edges are all up (barrier arrival).
    MeshReady {
        /// Echoed PE index.
        pe: u32,
    },
    /// Driver → PE: everything needed to run — store slice, time-zero
    /// injections (with driver-assigned ids), pre-banked events homed
    /// here, the fault plan, and the cluster-wide injection count (the
    /// base for locally generated messenger ids).
    Start {
        /// This PE's node-variable store image.
        store: Vec<StoreEntry>,
        /// Time-zero injections for this PE, `(id, snapshot)`.
        injections: Vec<(u64, WireSnapshot)>,
        /// Pre-signalled events whose home is this PE (with
        /// multiplicity).
        events: Vec<Key>,
        /// Fault plan, if the run is faulted.
        plan: Option<FaultPlan>,
        /// Total time-zero injections across the cluster.
        initial_live: u64,
        /// Record a wall-clock trace during the run.
        trace: bool,
        /// Export live metrics during the run (served on the PE's
        /// `--metrics-addr` endpoint and returned in
        /// [`Frame::Report`]).
        metrics: bool,
    },
    /// PE → PE: a messenger hopping here.
    Hop {
        /// The messenger's executor id.
        id: u64,
        /// When the sender put it on the wire, on the *sender's* flight
        /// clock (0 when the sender read no clock). The receiver records
        /// the hop's `HopRecv` span with this start; the merge step
        /// corrects the clock domain.
        sent_ns: u64,
        /// Its serialized agent variables.
        msgr: WireSnapshot,
    },
    /// PE → PE: a messenger of `origin` blocks on `key`, whose home is
    /// the receiving PE. The home parks the snapshot (or wakes it
    /// immediately against a banked count).
    EventWait {
        /// The awaited event.
        key: Key,
        /// The messenger's executor id.
        id: u64,
        /// PE the messenger was running on (where it resumes).
        origin: u32,
        /// When the messenger parked, on the *origin's* flight clock
        /// (0 when it read no clock). Echoed back in `Deliver` so the
        /// origin can record the full event-wait span against its own
        /// clock.
        parked_ns: u64,
        /// Its serialized agent variables.
        msgr: WireSnapshot,
    },
    /// PE → PE: one signal of `key`, routed to its home PE.
    EventSignal {
        /// The signalled event.
        key: Key,
    },
    /// PE → PE: a parked messenger woken by a signal, returning to its
    /// origin PE to resume.
    Deliver {
        /// The messenger's executor id.
        id: u64,
        /// The park timestamp echoed from `EventWait` (origin clock).
        parked_ns: u64,
        /// Its serialized agent variables.
        msgr: WireSnapshot,
    },
    /// PE → driver: progress accounting since the last delta. All
    /// fields are increments; an all-zero delta is a liveness heartbeat
    /// (sent e.g. while holding a delayed hop).
    Delta {
        /// Messengers injected locally.
        spawned: u64,
        /// Messengers finished locally.
        finished: u64,
        /// Messenger steps executed.
        steps: u64,
        /// Inter-PE hops sent.
        hops: u64,
        /// Sum of `Messenger::payload_bytes` over those hops.
        hop_payload: u64,
        /// Encoded frame bytes sent to peers (payload traffic only).
        wire_bytes: u64,
    },
    /// Driver → PE: termination probe. The deltas' live tally can dip
    /// to zero while messengers are still in flight between PEs (a
    /// "finished" delta may outrace the matching "spawned" delta on a
    /// different connection), so the driver confirms quiescence with a
    /// Mattern-style four-counter probe: two consecutive rounds with
    /// identical lifetime counters and `peer_sent == peer_recv`
    /// cluster-wide prove no messenger and no frame is in flight.
    Probe {
        /// Monotone round number (stale acks are discarded).
        round: u64,
    },
    /// PE → driver: lifetime counters at the moment the probe was
    /// processed (the PE's runnable queue is empty at that point).
    ProbeAck {
        /// Echoed round number.
        round: u64,
        /// Messengers injected locally, lifetime total.
        spawned: u64,
        /// Messengers finished locally, lifetime total.
        finished: u64,
        /// Payload frames sent to peers, lifetime total.
        peer_sent: u64,
        /// Payload frames received from peers, lifetime total.
        peer_recv: u64,
    },
    /// Driver → PE: the run is over; send your [`Frame::Report`].
    Collect,
    /// PE → driver: everything the PE holds at the end of the run. The
    /// driver stamps its `Collect` send and this frame's arrival on its
    /// own clock and pairs them with `pe_ns` (Cristian's algorithm) to
    /// place this PE's flight events on the driver's timeline.
    Report {
        /// The PE's post-run store.
        store: Vec<StoreEntry>,
        /// What the local fault machinery did.
        stats: FaultStats,
        /// Flattened metric samples (histograms pre-expanded to
        /// buckets), taken after the lane's `dropped` count was added.
        /// Empty when the PE ran without metrics.
        samples: Vec<Sample>,
        /// The PE's flight clock when it processed the collect.
        pe_ns: u64,
        /// A traced run's lane, on the PE's flight clock, encoded as
        /// `navp_obs` records; `None` when untraced.
        lane: Option<LaneSnapshot>,
        /// `(id, label)` of each messenger delivered on the PE (traced
        /// runs only).
        labels: Vec<(u64, String)>,
    },
    /// PE → driver: the run failed on this PE.
    Fatal {
        /// The structured error.
        err: RunError,
    },
    /// Driver → PE: exit cleanly.
    Shutdown,
}

const K_ASSIGN: u8 = 1;
const K_HELLO: u8 = 2;
const K_BOOTSTRAP: u8 = 3;
const K_PEER_HELLO: u8 = 4;
const K_MESH_READY: u8 = 5;
const K_START: u8 = 6;
const K_HOP: u8 = 7;
const K_EVENT_WAIT: u8 = 8;
const K_EVENT_SIGNAL: u8 = 9;
const K_DELIVER: u8 = 10;
const K_DELTA: u8 = 11;
const K_COLLECT: u8 = 12;
const K_REPORT: u8 = 13;
const K_FATAL: u8 = 14;
const K_SHUTDOWN: u8 = 15;
const K_PROBE: u8 = 16;
const K_PROBE_ACK: u8 = 17;
// Kinds 18–21 carried the retired per-PE trace and metrics collect
// exchanges (now part of `Report`); they stay unassigned.

fn put_snapshot(w: &mut WireWriter, s: &WireSnapshot) {
    w.put_str(&s.tag);
    w.put_bytes(&s.bytes);
}

fn get_snapshot(r: &mut WireReader<'_>) -> Result<WireSnapshot, DecodeError> {
    let tag = r.get_str()?;
    let bytes = r.get_bytes()?;
    Ok(WireSnapshot { tag, bytes })
}

fn put_store(w: &mut WireWriter, entries: &[StoreEntry]) {
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_key(&e.key);
        w.put_str(&e.tag);
        w.put_u64(e.bytes);
        w.put_bytes(&e.val);
    }
}

fn get_store(r: &mut WireReader<'_>) -> Result<Vec<StoreEntry>, DecodeError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(StoreEntry {
            key: r.get_key()?,
            tag: r.get_str()?,
            bytes: r.get_u64()?,
            val: r.get_bytes()?,
        });
    }
    Ok(out)
}

fn put_stats(w: &mut WireWriter, s: &FaultStats) {
    w.put_u64(s.crashes);
    w.put_u64(s.redelivered);
    w.put_u64(s.replayed_writes);
    w.put_u64(s.send_retries);
    w.put_u64(s.hops_delayed);
    w.put_u64(s.hops_dropped);
    w.put_u64(s.signals_lost);
}

fn get_stats(r: &mut WireReader<'_>) -> Result<FaultStats, DecodeError> {
    Ok(FaultStats {
        crashes: r.get_u64()?,
        redelivered: r.get_u64()?,
        replayed_writes: r.get_u64()?,
        send_retries: r.get_u64()?,
        hops_delayed: r.get_u64()?,
        hops_dropped: r.get_u64()?,
        signals_lost: r.get_u64()?,
    })
}

fn put_sample(w: &mut WireWriter, s: &Sample) {
    w.put_str(&s.name);
    w.put_u32(s.labels.len() as u32);
    for (k, v) in &s.labels {
        w.put_str(k);
        w.put_str(v);
    }
    w.put_u8(s.kind.to_u8());
    w.put_f64(s.value);
}

fn get_sample(r: &mut WireReader<'_>) -> Result<Sample, DecodeError> {
    let name = r.get_str()?;
    let n = r.get_u32()? as usize;
    let mut labels = Vec::new();
    for _ in 0..n {
        labels.push((r.get_str()?, r.get_str()?));
    }
    Ok(Sample {
        name,
        labels,
        kind: SampleKind::from_u8(r.get_u8()?),
        value: r.get_f64()?,
    })
}

fn put_lane(w: &mut WireWriter, lane: &Option<LaneSnapshot>) {
    w.put_bool(lane.is_some());
    if let Some(lane) = lane {
        w.put_bytes(&navp_obs::encode_records(&navp_obs::lane_records(lane)));
    }
}

fn get_lane(r: &mut WireReader<'_>) -> Result<Option<LaneSnapshot>, DecodeError> {
    if !r.get_bool()? {
        return Ok(None);
    }
    let bad = |_| DecodeError::BadValue("flight lane records");
    let records = navp_obs::decode_records(&r.get_bytes()?).map_err(bad)?;
    navp_obs::lane_from_records(records).map(Some).map_err(bad)
}

fn put_err(w: &mut WireWriter, e: &RunError) {
    match e {
        RunError::NoPes => w.put_u8(0),
        RunError::BadHop { agent, dst, pes } => {
            w.put_u8(1);
            w.put_str(agent);
            w.put_usize(*dst);
            w.put_usize(*pes);
        }
        RunError::Deadlock { blocked } => {
            w.put_u8(2);
            w.put_u32(blocked.len() as u32);
            for (who, on) in blocked {
                w.put_str(who);
                w.put_str(on);
            }
        }
        RunError::Stalled { live } => {
            w.put_u8(3);
            w.put_usize(*live);
        }
        RunError::WorkerPanic(msg) => {
            w.put_u8(4);
            w.put_str(msg);
        }
        RunError::PeCrashed { pe, run } => {
            w.put_u8(5);
            w.put_usize(*pe);
            w.put_u64(*run);
        }
        RunError::RecoveryFailed { pe, reason } => {
            w.put_u8(6);
            w.put_usize(*pe);
            w.put_str(reason);
        }
        RunError::PeOutOfRange { pe, pes } => {
            w.put_u8(7);
            w.put_usize(*pe);
            w.put_usize(*pes);
        }
        RunError::PeerDisconnected { pe, detail } => {
            w.put_u8(8);
            w.put_usize(*pe);
            w.put_str(detail);
        }
        RunError::NotSerializable { agent } => {
            w.put_u8(9);
            w.put_str(agent);
        }
        RunError::Transport { detail } => {
            w.put_u8(10);
            w.put_str(detail);
        }
        RunError::PeStopped { pe } => {
            w.put_u8(11);
            w.put_usize(*pe);
        }
        RunError::DeadlineExceeded { limit_ms } => {
            w.put_u8(12);
            w.put_u64(*limit_ms);
        }
    }
}

fn get_err(r: &mut WireReader<'_>) -> Result<RunError, DecodeError> {
    Ok(match r.get_u8()? {
        0 => RunError::NoPes,
        1 => RunError::BadHop {
            agent: r.get_str()?,
            dst: r.get_usize()?,
            pes: r.get_usize()?,
        },
        2 => {
            let n = r.get_u32()? as usize;
            let mut blocked = Vec::new();
            for _ in 0..n {
                blocked.push((r.get_str()?, r.get_str()?));
            }
            RunError::Deadlock { blocked }
        }
        3 => RunError::Stalled {
            live: r.get_usize()?,
        },
        4 => RunError::WorkerPanic(r.get_str()?),
        5 => RunError::PeCrashed {
            pe: r.get_usize()?,
            run: r.get_u64()?,
        },
        6 => RunError::RecoveryFailed {
            pe: r.get_usize()?,
            reason: r.get_str()?,
        },
        7 => RunError::PeOutOfRange {
            pe: r.get_usize()?,
            pes: r.get_usize()?,
        },
        8 => RunError::PeerDisconnected {
            pe: r.get_usize()?,
            detail: r.get_str()?,
        },
        9 => RunError::NotSerializable {
            agent: r.get_str()?,
        },
        10 => RunError::Transport {
            detail: r.get_str()?,
        },
        11 => RunError::PeStopped { pe: r.get_usize()? },
        12 => RunError::DeadlineExceeded {
            limit_ms: r.get_u64()?,
        },
        _ => return Err(DecodeError::BadValue("error kind")),
    })
}

impl Frame {
    /// Encode to a frame body (kind byte + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the frame body to `buf`, reusing its allocation — the
    /// steady-state send path writes every frame (length prefix + body)
    /// into one long-lived buffer instead of allocating per message.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut w = WireWriter::over(std::mem::take(buf));
        match self {
            Frame::Assign { pe, pes, run } => {
                w.put_u8(K_ASSIGN);
                w.put_u32(*pe);
                w.put_u32(*pes);
                w.put_u64(*run);
            }
            Frame::Hello { pe, pid, listen } => {
                w.put_u8(K_HELLO);
                w.put_u32(*pe);
                w.put_u32(*pid);
                w.put_str(listen);
            }
            Frame::Bootstrap { peers } => {
                w.put_u8(K_BOOTSTRAP);
                w.put_u32(peers.len() as u32);
                for p in peers {
                    w.put_str(p);
                }
            }
            Frame::PeerHello { pe, run } => {
                w.put_u8(K_PEER_HELLO);
                w.put_u32(*pe);
                w.put_u64(*run);
            }
            Frame::MeshReady { pe } => {
                w.put_u8(K_MESH_READY);
                w.put_u32(*pe);
            }
            Frame::Start {
                store,
                injections,
                events,
                plan,
                initial_live,
                trace,
                metrics,
            } => {
                w.put_u8(K_START);
                put_store(&mut w, store);
                w.put_u32(injections.len() as u32);
                for (id, m) in injections {
                    w.put_u64(*id);
                    put_snapshot(&mut w, m);
                }
                w.put_u32(events.len() as u32);
                for k in events {
                    w.put_key(k);
                }
                // The plan travels in its `navpfault` text form, the one
                // repro files and `NAVP_FAULT_SPEC` hold.
                match plan {
                    Some(p) => {
                        w.put_bool(true);
                        w.put_str(&p.to_spec());
                    }
                    None => w.put_bool(false),
                }
                w.put_u64(*initial_live);
                w.put_bool(*trace);
                w.put_bool(*metrics);
            }
            Frame::Hop { id, sent_ns, msgr } => {
                w.put_u8(K_HOP);
                w.put_u64(*id);
                w.put_u64(*sent_ns);
                put_snapshot(&mut w, msgr);
            }
            Frame::EventWait {
                key,
                id,
                origin,
                parked_ns,
                msgr,
            } => {
                w.put_u8(K_EVENT_WAIT);
                w.put_key(key);
                w.put_u64(*id);
                w.put_u32(*origin);
                w.put_u64(*parked_ns);
                put_snapshot(&mut w, msgr);
            }
            Frame::EventSignal { key } => {
                w.put_u8(K_EVENT_SIGNAL);
                w.put_key(key);
            }
            Frame::Deliver {
                id,
                parked_ns,
                msgr,
            } => {
                w.put_u8(K_DELIVER);
                w.put_u64(*id);
                w.put_u64(*parked_ns);
                put_snapshot(&mut w, msgr);
            }
            Frame::Delta {
                spawned,
                finished,
                steps,
                hops,
                hop_payload,
                wire_bytes,
            } => {
                w.put_u8(K_DELTA);
                w.put_u64(*spawned);
                w.put_u64(*finished);
                w.put_u64(*steps);
                w.put_u64(*hops);
                w.put_u64(*hop_payload);
                w.put_u64(*wire_bytes);
            }
            Frame::Probe { round } => {
                w.put_u8(K_PROBE);
                w.put_u64(*round);
            }
            Frame::ProbeAck {
                round,
                spawned,
                finished,
                peer_sent,
                peer_recv,
            } => {
                w.put_u8(K_PROBE_ACK);
                w.put_u64(*round);
                w.put_u64(*spawned);
                w.put_u64(*finished);
                w.put_u64(*peer_sent);
                w.put_u64(*peer_recv);
            }
            Frame::Collect => w.put_u8(K_COLLECT),
            Frame::Report {
                store,
                stats,
                samples,
                pe_ns,
                lane,
                labels,
            } => {
                w.put_u8(K_REPORT);
                put_store(&mut w, store);
                put_stats(&mut w, stats);
                w.put_u32(samples.len() as u32);
                for s in samples {
                    put_sample(&mut w, s);
                }
                w.put_u64(*pe_ns);
                put_lane(&mut w, lane);
                w.put_u32(labels.len() as u32);
                for (id, label) in labels {
                    w.put_u64(*id);
                    w.put_str(label);
                }
            }
            Frame::Fatal { err } => {
                w.put_u8(K_FATAL);
                put_err(&mut w, err);
            }
            Frame::Shutdown => w.put_u8(K_SHUTDOWN),
        }
        *buf = w.into_vec();
    }

    /// Decode a frame body (as produced by [`Frame::encode`]). Never
    /// panics on corrupt input.
    pub fn decode(body: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = WireReader::new(body);
        let frame = match r.get_u8()? {
            K_ASSIGN => Frame::Assign {
                pe: r.get_u32()?,
                pes: r.get_u32()?,
                run: r.get_u64()?,
            },
            K_HELLO => Frame::Hello {
                pe: r.get_u32()?,
                pid: r.get_u32()?,
                listen: r.get_str()?,
            },
            K_BOOTSTRAP => {
                let n = r.get_u32()? as usize;
                let mut peers = Vec::new();
                for _ in 0..n {
                    peers.push(r.get_str()?);
                }
                Frame::Bootstrap { peers }
            }
            K_PEER_HELLO => Frame::PeerHello {
                pe: r.get_u32()?,
                run: r.get_u64()?,
            },
            K_MESH_READY => Frame::MeshReady { pe: r.get_u32()? },
            K_START => {
                let store = get_store(&mut r)?;
                let n = r.get_u32()? as usize;
                let mut injections = Vec::new();
                for _ in 0..n {
                    let id = r.get_u64()?;
                    injections.push((id, get_snapshot(&mut r)?));
                }
                let n = r.get_u32()? as usize;
                let mut events = Vec::new();
                for _ in 0..n {
                    events.push(r.get_key()?);
                }
                let plan = if r.get_bool()? {
                    let spec = r.get_str()?;
                    Some(
                        FaultPlan::parse_spec(&spec)
                            .map_err(|_| DecodeError::BadValue("fault spec"))?,
                    )
                } else {
                    None
                };
                Frame::Start {
                    store,
                    injections,
                    events,
                    plan,
                    initial_live: r.get_u64()?,
                    trace: r.get_bool()?,
                    metrics: r.get_bool()?,
                }
            }
            K_HOP => Frame::Hop {
                id: r.get_u64()?,
                sent_ns: r.get_u64()?,
                msgr: get_snapshot(&mut r)?,
            },
            K_EVENT_WAIT => Frame::EventWait {
                key: r.get_key()?,
                id: r.get_u64()?,
                origin: r.get_u32()?,
                parked_ns: r.get_u64()?,
                msgr: get_snapshot(&mut r)?,
            },
            K_EVENT_SIGNAL => Frame::EventSignal { key: r.get_key()? },
            K_DELIVER => Frame::Deliver {
                id: r.get_u64()?,
                parked_ns: r.get_u64()?,
                msgr: get_snapshot(&mut r)?,
            },
            K_DELTA => Frame::Delta {
                spawned: r.get_u64()?,
                finished: r.get_u64()?,
                steps: r.get_u64()?,
                hops: r.get_u64()?,
                hop_payload: r.get_u64()?,
                wire_bytes: r.get_u64()?,
            },
            K_PROBE => Frame::Probe {
                round: r.get_u64()?,
            },
            K_PROBE_ACK => Frame::ProbeAck {
                round: r.get_u64()?,
                spawned: r.get_u64()?,
                finished: r.get_u64()?,
                peer_sent: r.get_u64()?,
                peer_recv: r.get_u64()?,
            },
            K_COLLECT => Frame::Collect,
            K_REPORT => {
                let store = get_store(&mut r)?;
                let stats = get_stats(&mut r)?;
                let n = r.get_u32()? as usize;
                let mut samples = Vec::new();
                for _ in 0..n {
                    samples.push(get_sample(&mut r)?);
                }
                let pe_ns = r.get_u64()?;
                let lane = get_lane(&mut r)?;
                let n = r.get_u32()? as usize;
                let mut labels = Vec::new();
                for _ in 0..n {
                    labels.push((r.get_u64()?, r.get_str()?));
                }
                Frame::Report {
                    store,
                    stats,
                    samples,
                    pe_ns,
                    lane,
                    labels,
                }
            }
            K_FATAL => Frame::Fatal {
                err: get_err(&mut r)?,
            },
            K_SHUTDOWN => Frame::Shutdown,
            k => return Err(DecodeError::UnknownTag(format!("frame kind {k}"))),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::BadValue("trailing bytes after frame"));
        }
        Ok(frame)
    }
}

/// Incremental decoder for a byte stream of length-prefixed frames —
/// the read-side state machine of the nonblocking event loop.
///
/// Bytes arrive in whatever chunks the kernel hands back; a chunk may
/// hold a fraction of one frame or a coalesced batch of many. Feed
/// every chunk with [`FrameDecoder::extend`], then drain complete
/// frames with [`FrameDecoder::next_frame`]:
///
/// * `Ok(Some((frame, wire_bytes)))` — one complete frame (wire size =
///   4-byte prefix + body), consumed from the buffer;
/// * `Ok(None)` — the remaining bytes are a prefix of a frame still in
///   flight; feed more input;
/// * `Err(_)` — the stream is corrupt (oversized length prefix or an
///   undecodable body). The connection is unrecoverable: framing has
///   no resync point.
///
/// The wire format is byte-identical to the blocking
/// [`read_frame`](crate::cluster::read_frame) path, so a batch of
/// coalesced frames written in one `writev` is indistinguishable from
/// the same frames written one syscall each.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily, so steady-state
    /// decoding moves no bytes).
    pos: usize,
}

/// Compact once the dead prefix outgrows this (bytes). Small enough to
/// bound memory, large enough that back-to-back small frames never
/// trigger a move.
const DECODER_COMPACT_AT: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > DECODER_COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a partial frame mid-flight,
    /// or zero at a clean frame boundary).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self) -> Result<Option<(Frame, u64)>, DecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes checked"),
        ) as usize;
        if len > MAX_FRAME {
            return Err(DecodeError::BadValue("frame length exceeds cap"));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let body = &self.buf[self.pos + 4..self.pos + 4 + len];
        let frame = Frame::decode(body)?;
        self.pos += 4 + len;
        Ok(Some((frame, (4 + len) as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let body = f.encode();
        assert!(body.len() <= MAX_FRAME);
        assert_eq!(Frame::decode(&body).as_ref(), Ok(&f), "frame {f:?}");
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Frame::Assign {
            pe: 3,
            pes: 4,
            run: 0,
        });
        roundtrip(Frame::Assign {
            pe: 3,
            pes: 4,
            run: 0x00C0_FFEE_u64 << 16,
        });
        roundtrip(Frame::Hello {
            pe: 1,
            pid: 4321,
            listen: "127.0.0.1:4242".into(),
        });
        roundtrip(Frame::Bootstrap {
            peers: vec!["a:1".into(), "b:2".into()],
        });
        roundtrip(Frame::PeerHello { pe: 2, run: 77 });
        roundtrip(Frame::MeshReady { pe: 0 });
        roundtrip(Frame::Probe { round: 2 });
        roundtrip(Frame::ProbeAck {
            round: 2,
            spawned: 3,
            finished: 4,
            peer_sent: 5,
            peer_recv: 6,
        });
        roundtrip(Frame::Collect);
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn payload_frames_roundtrip() {
        let snap = WireSnapshot::new("t.Ping", vec![1, 2, 3]);
        roundtrip(Frame::Hop {
            id: 9,
            sent_ns: 12_345,
            msgr: snap.clone(),
        });
        roundtrip(Frame::EventWait {
            key: Key::at2("EP", 1, 2),
            id: 5,
            origin: 3,
            parked_ns: 77,
            msgr: snap.clone(),
        });
        roundtrip(Frame::EventSignal {
            key: Key::at("EC", 7),
        });
        roundtrip(Frame::Deliver {
            id: 5,
            parked_ns: 77,
            msgr: snap,
        });
        roundtrip(Frame::Delta {
            spawned: 1,
            finished: 2,
            steps: 3,
            hops: 4,
            hop_payload: 5,
            wire_bytes: 6,
        });
    }

    #[test]
    fn start_and_dump_roundtrip() {
        let store = vec![StoreEntry {
            key: Key::at("B", 4),
            tag: "mm.Block".into(),
            bytes: 128,
            val: vec![0xAA; 16],
        }];
        roundtrip(Frame::Start {
            store: store.clone(),
            injections: vec![(0, WireSnapshot::new("t.Ping", vec![]))],
            events: vec![Key::at2("EC", 0, 1), Key::at2("EC", 0, 1)],
            plan: Some(
                FaultPlan::new()
                    .crash_pe(1, 3)
                    .delay_hop(0, 2, 0.25)
                    .drop_hop(2, 1)
                    .lose_signal(0, 9),
            ),
            initial_live: 6,
            trace: true,
            metrics: true,
        });
        roundtrip(Frame::Report {
            store,
            stats: FaultStats {
                crashes: 1,
                hops_delayed: 2,
                ..FaultStats::default()
            },
            samples: vec![],
            pe_ns: 0,
            lane: None,
            labels: vec![],
        });
    }

    #[test]
    fn start_plans_travel_as_their_spec() {
        let start = |plan| Frame::Start {
            store: vec![],
            injections: vec![],
            events: vec![],
            plan,
            initial_live: 1,
            trace: false,
            metrics: false,
        };
        let plan = FaultPlan::new()
            .drop_hop(1, 2)
            .with_retry(3, std::time::Duration::from_micros(500))
            .with_recovery_seconds(0.125);
        roundtrip(start(Some(plan.clone())));
        roundtrip(start(Some(FaultPlan::new())));
        roundtrip(start(None));
        // A spec the parser rejects is a decode error, not a panic.
        let spec = plan.to_spec();
        let mut bad = start(Some(plan)).encode();
        let at = bad
            .windows(spec.len())
            .position(|w| w == spec.as_bytes())
            .expect("the spec is on the wire verbatim");
        bad[at] = b'?';
        assert_eq!(
            Frame::decode(&bad),
            Err(DecodeError::BadValue("fault spec"))
        );
    }

    #[test]
    fn every_error_variant_roundtrips() {
        let errs = vec![
            RunError::NoPes,
            RunError::BadHop {
                agent: "x".into(),
                dst: 9,
                pes: 4,
            },
            RunError::Deadlock {
                blocked: vec![("a".into(), "EP(0,0)".into())],
            },
            RunError::Stalled { live: 3 },
            RunError::WorkerPanic("boom".into()),
            RunError::PeCrashed { pe: 1, run: 5 },
            RunError::RecoveryFailed {
                pe: 2,
                reason: "no snapshot".into(),
            },
            RunError::PeOutOfRange { pe: 8, pes: 4 },
            RunError::PeerDisconnected {
                pe: 3,
                detail: "EOF".into(),
            },
            RunError::NotSerializable { agent: "y".into() },
            RunError::Transport {
                detail: "refused".into(),
            },
            RunError::PeStopped { pe: 2 },
            RunError::DeadlineExceeded { limit_ms: 2500 },
        ];
        for err in errs {
            roundtrip(Frame::Fatal { err });
        }
    }

    // Every sample kind and flight record is covered by the codec
    // property tests; the two tests below round-trip the four shapes an
    // end-of-run Report takes: traced and metered, traced only, metered
    // only, neither.
    fn sample() -> Sample {
        Sample {
            name: "navp_park_wait_ns_bucket".into(),
            labels: vec![("pe".into(), "0".into()), ("le".into(), "+Inf".into())],
            kind: SampleKind::Counter,
            value: 17.0,
        }
    }

    fn exec_lane() -> LaneSnapshot {
        LaneSnapshot {
            name: "pe0.trace".into(),
            events: vec![navp_obs::FlightEvent {
                t0_ns: 10,
                t_ns: 20,
                kind: navp_obs::EventKind::Exec as u8,
                pe: 0,
                run: 0,
                id: 1,
                a: 0,
                b: 0,
            }],
            dropped: 3,
        }
    }

    fn report(samples: &[Sample], pe_ns: u64, lane: Option<LaneSnapshot>) -> Frame {
        let labels = match lane {
            Some(_) => vec![(1, "carrier".to_string())],
            None => vec![],
        };
        Frame::Report {
            store: vec![StoreEntry {
                key: Key::at("C", 1),
                tag: "mm.Block".into(),
                bytes: 64,
                val: vec![7; 8],
            }],
            stats: FaultStats {
                redelivered: 2,
                ..FaultStats::default()
            },
            samples: samples.to_vec(),
            pe_ns,
            lane,
            labels,
        }
    }

    #[test]
    fn trace_frames_roundtrip() {
        roundtrip(report(&[sample()], 987_654_321, Some(exec_lane()))); // traced and metered
        roundtrip(report(&[], 987_654_321, Some(exec_lane()))); // traced only

        // A corrupt flight-event kind is rejected, not panicked on.
        let mut body = report(&[], 1, Some(exec_lane())).encode();
        // The tail is the lane's one event record (56 bytes: u16
        // length, tag, t0, t, then the kind byte), then 23 label bytes.
        let kind_at = body.len() - 23 - 56 + 19;
        assert_eq!(body[kind_at], navp_obs::EventKind::Exec as u8);
        body[kind_at] = 99;
        assert!(Frame::decode(&body).is_err());
    }

    #[test]
    fn metrics_frames_roundtrip() {
        roundtrip(report(&[sample()], 0, None)); // metered only
        roundtrip(report(&[], 0, None)); // neither
    }

    #[test]
    fn retired_kinds_are_unknown() {
        for kind in 18..=21u8 {
            assert!(
                matches!(Frame::decode(&[kind]), Err(DecodeError::UnknownTag(_))),
                "kind {kind} must stay retired"
            );
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_rejected() {
        assert!(matches!(
            Frame::decode(&[200]),
            Err(DecodeError::UnknownTag(_))
        ));
        let mut body = Frame::Shutdown.encode();
        body.push(0);
        assert_eq!(
            Frame::decode(&body),
            Err(DecodeError::BadValue("trailing bytes after frame"))
        );
        assert_eq!(Frame::decode(&[]), Err(DecodeError::Truncated));
    }
}
