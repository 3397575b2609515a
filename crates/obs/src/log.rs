//! The structured event-log codec and the postmortem file format.
//!
//! Same discipline as `frame.rs` and the job journal: hand-rolled,
//! length-prefixed, little-endian, no serde. The *log* is a stream of
//! records, each `u16 len | u8 tag | body`; the *postmortem file*
//! wraps one complete log in a checksummed container (magic, version,
//! payload length, FNV-1a over the payload) committed by atomic
//! tmp-write + rename, mirroring `navp::durable`.
//!
//! [`LogDecoder`] consumes the record stream incrementally: bytes can
//! arrive split at arbitrary boundaries, a truncated tail simply
//! yields `Ok(None)` until more bytes arrive, and a corrupt record
//! (unknown tag, short body, trailing bytes inside a record) is a hard
//! error — the same tolerate-truncation / reject-corruption split the
//! frame decoder makes.

use crate::ring::{flight, EventKind, FlightEvent, LaneSnapshot};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Postmortem container magic. Eight bytes, never versioned — version
/// bumps go through the explicit version field.
pub const MAGIC: [u8; 8] = *b"NAVPOBS\0";

/// Container format version. Version 2 events are spans: they carry a
/// start stamp and the messenger id.
pub const VERSION: u32 = 2;

/// Hard cap on one record body; the `u16` length prefix enforces it
/// structurally.
pub const MAX_RECORD: usize = u16::MAX as usize;

const TAG_META: u8 = 1;
const TAG_LANE: u8 = 2;
const TAG_EVENT: u8 = 3;

/// Why a decode or file read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The container file does not start with [`MAGIC`].
    BadMagic,
    /// The container version is not [`VERSION`].
    BadVersion(u32),
    /// The file ended before the declared payload/checksum.
    Truncated,
    /// FNV-1a over the payload did not match the stored checksum.
    ChecksumMismatch,
    /// A record carried an unknown tag byte.
    UnknownTag(u8),
    /// A record body was malformed.
    BadRecord(&'static str),
    /// Underlying I/O failure (message text; the `io::Error` kind).
    Io(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not a navp postmortem (bad magic)"),
            LogError::BadVersion(v) => write!(f, "unsupported postmortem version {v}"),
            LogError::Truncated => write!(f, "postmortem truncated"),
            LogError::ChecksumMismatch => write!(f, "postmortem checksum mismatch"),
            LogError::UnknownTag(t) => write!(f, "unknown record tag {t}"),
            LogError::BadRecord(what) => write!(f, "malformed record: {what}"),
            LogError::Io(e) => write!(f, "postmortem i/o: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

/// One record in the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// File header: why the dump happened and which process wrote it.
    Meta {
        /// Dump trigger (`panic: …`, `sigquit`, `run_error: …`).
        reason: String,
        /// OS process id of the writer.
        pid: u64,
    },
    /// Start of one lane's events; applies until the next `Lane`.
    Lane {
        /// Lane name (e.g. `pe3`, `netloop`, `sched`).
        name: String,
        /// Events recorded into the ring but lost to wraparound/tearing.
        dropped: u64,
    },
    /// One flight event, belonging to the most recent `Lane`.
    Event(FlightEvent),
}

/// FNV-1a over a byte slice; same constants as `navp::durable` so the
/// two on-disk formats share one checksum story.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string too long for log");
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> BodyReader<'a> {
        BodyReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LogError> {
        if self.buf.len() - self.pos < n {
            return Err(LogError::BadRecord("short body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, LogError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16(&mut self) -> Result<u16, LogError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn get_u32(&mut self) -> Result<u32, LogError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64(&mut self) -> Result<u64, LogError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_str(&mut self) -> Result<String, LogError> {
        let len = self.get_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LogError::BadRecord("non-utf8 string"))
    }

    fn finish(&self) -> Result<(), LogError> {
        if self.pos != self.buf.len() {
            return Err(LogError::BadRecord("trailing bytes in record"));
        }
        Ok(())
    }
}

impl Record {
    /// Append this record (length prefix included) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(64);
        match self {
            Record::Meta { reason, pid } => {
                body.push(TAG_META);
                put_str(&mut body, reason);
                put_u64(&mut body, *pid);
            }
            Record::Lane { name, dropped } => {
                body.push(TAG_LANE);
                put_str(&mut body, name);
                put_u64(&mut body, *dropped);
            }
            Record::Event(ev) => {
                body.push(TAG_EVENT);
                put_u64(&mut body, ev.t0_ns);
                put_u64(&mut body, ev.t_ns);
                body.push(ev.kind);
                put_u32(&mut body, ev.pe);
                put_u64(&mut body, ev.run);
                put_u64(&mut body, ev.id);
                put_u64(&mut body, ev.a);
                put_u64(&mut body, ev.b);
            }
        }
        assert!(body.len() <= MAX_RECORD, "record exceeds MAX_RECORD");
        put_u16(out, body.len() as u16);
        out.extend_from_slice(&body);
    }

    fn decode_body(body: &[u8]) -> Result<Record, LogError> {
        let mut r = BodyReader::new(body);
        let rec = match r.get_u8()? {
            TAG_META => Record::Meta {
                reason: r.get_str()?,
                pid: r.get_u64()?,
            },
            TAG_LANE => Record::Lane {
                name: r.get_str()?,
                dropped: r.get_u64()?,
            },
            TAG_EVENT => {
                let t0_ns = r.get_u64()?;
                let t_ns = r.get_u64()?;
                let kind = r.get_u8()?;
                if EventKind::from_u8(kind).is_none() {
                    return Err(LogError::BadRecord("unknown event kind"));
                }
                Record::Event(FlightEvent {
                    t0_ns,
                    t_ns,
                    kind,
                    pe: r.get_u32()?,
                    run: r.get_u64()?,
                    id: r.get_u64()?,
                    a: r.get_u64()?,
                    b: r.get_u64()?,
                })
            }
            t => return Err(LogError::UnknownTag(t)),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// Encode a record stream (no container framing).
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 64);
    for rec in records {
        rec.encode_into(&mut out);
    }
    out
}

/// Incremental record-stream decoder: feed bytes in arbitrary chunks,
/// pull complete records out. A partial record at the end of the
/// buffered bytes is not an error — `next_record` returns `Ok(None)`
/// until the rest arrives.
#[derive(Default)]
pub struct LogDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl LogDecoder {
    /// Fresh decoder with no buffered bytes.
    pub fn new() -> LogDecoder {
        LogDecoder::default()
    }

    /// Buffer more stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long stream fed
        // in small chunks doesn't hold its whole history in memory.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete record.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete record, `Ok(None)` if the tail is
    /// still incomplete, or an error for a corrupt record.
    pub fn next_record(&mut self) -> Result<Option<Record>, LogError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 2 {
            return Ok(None);
        }
        let len = u16::from_le_bytes([avail[0], avail[1]]) as usize;
        if len == 0 {
            return Err(LogError::BadRecord("empty record"));
        }
        if avail.len() < 2 + len {
            return Ok(None);
        }
        let rec = Record::decode_body(&avail[2..2 + len])?;
        self.pos += 2 + len;
        Ok(Some(rec))
    }
}

/// Decode a complete record stream; a partial record at the end is
/// [`LogError::Truncated`] (inside a checksummed container that can
/// only mean a writer bug, not torn I/O).
pub fn decode_records(payload: &[u8]) -> Result<Vec<Record>, LogError> {
    let mut dec = LogDecoder::new();
    dec.extend(payload);
    let mut records = Vec::new();
    while let Some(rec) = dec.next_record()? {
        records.push(rec);
    }
    if dec.pending() != 0 {
        return Err(LogError::Truncated);
    }
    Ok(records)
}

/// Wrap a record stream in the checksummed container format.
pub fn encode_container(records: &[Record]) -> Vec<u8> {
    let payload = encode_records(records);
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

/// Parse a container; the dual of [`encode_container`].
pub fn decode_container(bytes: &[u8]) -> Result<Vec<Record>, LogError> {
    if bytes.len() < 8 {
        return Err(LogError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(LogError::BadMagic);
    }
    if bytes.len() < 20 {
        return Err(LogError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(LogError::BadVersion(version));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    if bytes.len() < 20 + len + 8 {
        return Err(LogError::Truncated);
    }
    let payload = &bytes[20..20 + len];
    let stored = u64::from_le_bytes(bytes[20 + len..20 + len + 8].try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(LogError::ChecksumMismatch);
    }
    decode_records(payload)
}

/// Write a postmortem container atomically: tmp file, fsync, rename.
pub fn write_postmortem(path: &Path, records: &[Record]) -> Result<(), LogError> {
    let bytes = encode_container(records);
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| LogError::Io(e.to_string());
    let mut f = fs::File::create(&tmp).map_err(io)?;
    f.write_all(&bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    fs::rename(&tmp, path).map_err(io)?;
    Ok(())
}

/// Read and verify a postmortem file.
pub fn read_postmortem(path: &Path) -> Result<Vec<Record>, LogError> {
    let bytes = fs::read(path).map_err(|e| LogError::Io(e.to_string()))?;
    decode_container(&bytes)
}

/// Build the record stream for the current process: a `Meta` header
/// followed by every lane's snapshot.
pub fn current_records(reason: &str) -> Vec<Record> {
    snapshot_records(reason, &flight().snapshot_all())
}

/// Build a record stream from explicit snapshots (tests, remote dumps).
pub fn snapshot_records(reason: &str, snaps: &[LaneSnapshot]) -> Vec<Record> {
    let mut records = vec![Record::Meta {
        reason: reason.to_string(),
        pid: std::process::id() as u64,
    }];
    for snap in snaps {
        records.extend(lane_records(snap));
    }
    records
}

/// One lane's records: its `Lane` header, then its events.
pub fn lane_records(snap: &LaneSnapshot) -> Vec<Record> {
    let mut records = Vec::with_capacity(1 + snap.events.len());
    records.push(Record::Lane {
        name: snap.name.clone(),
        dropped: snap.dropped,
    });
    records.extend(snap.events.iter().map(|&ev| Record::Event(ev)));
    records
}

/// The dual of [`lane_records`]: exactly one `Lane` header, then its
/// events.
pub fn lane_from_records(records: Vec<Record>) -> Result<LaneSnapshot, LogError> {
    let mut records = records.into_iter();
    let Some(Record::Lane { name, dropped }) = records.next() else {
        return Err(LogError::BadRecord("lane must start with its header"));
    };
    let events = records
        .map(|rec| match rec {
            Record::Event(ev) => Ok(ev),
            _ => Err(LogError::BadRecord("one lane holds only events")),
        })
        .collect::<Result<_, _>>()?;
    Ok(LaneSnapshot {
        name,
        events,
        dropped,
    })
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dump the current flight recorder into `dir` and return the file
/// path. Filenames are `postmortem-<pid>-<seq>.navpobs` — pid plus a
/// process-local counter, no wall clock.
pub fn dump_postmortem(dir: &Path, reason: &str) -> Result<PathBuf, LogError> {
    fs::create_dir_all(dir).map_err(|e| LogError::Io(e.to_string()))?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "postmortem-{}-{}.navpobs",
        std::process::id(),
        seq
    ));
    write_postmortem(&path, &current_records(reason))?;
    Ok(path)
}

/// Append `s` to `out` with JSON string escaping (quotes, backslashes
/// and control characters). Shared by `/debug/*` endpoint renderers.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render the live recorder as JSON for `/debug/flight`: one object
/// per lane with its drop count and the `limit` most recent events.
pub fn flight_json(limit: usize) -> String {
    let snaps = flight().snapshot_all();
    let mut out = String::with_capacity(4096);
    out.push_str("{\"enabled\":");
    out.push_str(if flight().enabled() { "true" } else { "false" });
    out.push_str(",\"lanes\":[");
    for (i, snap) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        json_escape(&snap.name, &mut out);
        let skip = snap.events.len().saturating_sub(limit);
        out.push_str(&format!(
            "\",\"recorded\":{},\"dropped\":{},\"events\":[",
            snap.events.len() as u64 + snap.dropped,
            snap.dropped + skip as u64,
        ));
        for (j, ev) in snap.events[skip..].iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let kind = EventKind::from_u8(ev.kind).map(|k| k.name()).unwrap_or("?");
            out.push_str(&format!(
                "{{\"t0_ns\":{},\"t_ns\":{},\"kind\":\"{}\",\"pe\":{},\"run\":{},\"id\":{},\
                 \"a\":{},\"b\":{}}}",
                ev.t0_ns, ev.t_ns, kind, ev.pe, ev.run, ev.id, ev.a, ev.b
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta {
                reason: "sigquit".into(),
                pid: 1234,
            },
            Record::Lane {
                name: "pe0".into(),
                dropped: 3,
            },
            Record::Event(FlightEvent {
                t0_ns: 1000,
                t_ns: 1000,
                kind: EventKind::HopSend as u8,
                pe: 0,
                run: 7,
                id: 3,
                a: 1,
                b: 4096,
            }),
            Record::Event(FlightEvent {
                t0_ns: 1200,
                t_ns: 2000,
                kind: EventKind::Exec as u8,
                pe: 0,
                run: 7,
                id: 3,
                a: 2,
                b: 65536,
            }),
            Record::Lane {
                name: "netloop".into(),
                dropped: 0,
            },
            Record::Event(FlightEvent {
                t0_ns: 1500,
                t_ns: 1500,
                kind: EventKind::Backpressure as u8,
                pe: 0,
                run: 0,
                id: 0,
                a: 67108864,
                b: 0,
            }),
        ]
    }

    #[test]
    fn records_round_trip_through_the_stream_codec() {
        let records = sample_records();
        let payload = encode_records(&records);
        assert_eq!(decode_records(&payload).unwrap(), records);
    }

    #[test]
    fn container_round_trips_and_detects_corruption() {
        let records = sample_records();
        let bytes = encode_container(&records);
        assert_eq!(decode_container(&bytes).unwrap(), records);

        // Flip one payload byte: checksum must catch it.
        let mut bad = bytes.clone();
        bad[24] ^= 0xFF;
        assert!(matches!(
            decode_container(&bad),
            Err(LogError::ChecksumMismatch) | Err(LogError::Truncated)
        ));

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_container(&bad), Err(LogError::BadMagic));

        // Future version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert_eq!(decode_container(&bad), Err(LogError::BadVersion(99)));

        // Truncated tail.
        assert_eq!(
            decode_container(&bytes[..bytes.len() - 3]),
            Err(LogError::Truncated)
        );
    }

    #[test]
    fn version_one_containers_are_rejected_not_misread() {
        // A version-1 event: t_ns, kind, pe, run, a, b (no start stamp,
        // no messenger id), in a container that is otherwise valid.
        let mut body = vec![TAG_EVENT];
        put_u64(&mut body, 1000);
        body.push(EventKind::HopSend as u8);
        put_u32(&mut body, 0);
        for v in [7, 1, 4096] {
            put_u64(&mut body, v);
        }
        let mut payload = Vec::new();
        put_u16(&mut payload, body.len() as u16);
        payload.extend_from_slice(&body);
        let mut v1 = MAGIC.to_vec();
        put_u32(&mut v1, 1);
        put_u64(&mut v1, payload.len() as u64);
        v1.extend_from_slice(&payload);
        put_u64(&mut v1, fnv1a(&payload));
        assert_eq!(decode_container(&v1), Err(LogError::BadVersion(1)));
    }

    #[test]
    fn lanes_round_trip_through_their_records() {
        let snap = LaneSnapshot {
            name: "pe1.trace".into(),
            events: vec![FlightEvent {
                t0_ns: 10,
                t_ns: 20,
                kind: EventKind::HopRecv as u8,
                pe: 1,
                run: 0,
                id: 4,
                a: 0,
                b: 512,
            }],
            dropped: 2,
        };
        let bytes = encode_records(&lane_records(&snap));
        let back = lane_from_records(decode_records(&bytes).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert!(lane_from_records(sample_records()).is_err(), "a Meta header is no lane");
    }

    #[test]
    fn decoder_tolerates_arbitrary_split_boundaries() {
        let records = sample_records();
        let payload = encode_records(&records);
        // Feed one byte at a time — the harshest split.
        let mut dec = LogDecoder::new();
        let mut got = Vec::new();
        for &b in &payload {
            dec.extend(&[b]);
            while let Some(rec) = dec.next_record().unwrap() {
                got.push(rec);
            }
        }
        assert_eq!(got, records);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn truncated_tail_is_not_an_error_until_completed() {
        let payload = encode_records(&sample_records());
        let mut dec = LogDecoder::new();
        dec.extend(&payload[..payload.len() - 1]);
        while dec.next_record().unwrap().is_some() {}
        assert!(dec.pending() > 0, "partial record stays pending");
        dec.extend(&payload[payload.len() - 1..]);
        assert!(dec.next_record().unwrap().is_some());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupt_records_are_rejected() {
        // Unknown tag.
        let mut stream = Vec::new();
        put_u16(&mut stream, 1);
        stream.push(200);
        let mut dec = LogDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_record(), Err(LogError::UnknownTag(200)));

        // Event with an unknown kind byte.
        let mut body = vec![TAG_EVENT];
        put_u64(&mut body, 1);
        put_u64(&mut body, 1);
        body.push(99); // not an EventKind
        put_u32(&mut body, 0);
        for _ in 0..4 {
            put_u64(&mut body, 0);
        }
        let mut stream = Vec::new();
        put_u16(&mut stream, body.len() as u16);
        stream.extend_from_slice(&body);
        let mut dec = LogDecoder::new();
        dec.extend(&stream);
        assert!(matches!(dec.next_record(), Err(LogError::BadRecord(_))));

        // Trailing bytes inside a record.
        let mut body = vec![TAG_META];
        put_str(&mut body, "x");
        put_u64(&mut body, 1);
        body.push(0xAA);
        let mut stream = Vec::new();
        put_u16(&mut stream, body.len() as u16);
        stream.extend_from_slice(&body);
        let mut dec = LogDecoder::new();
        dec.extend(&stream);
        assert!(matches!(dec.next_record(), Err(LogError::BadRecord(_))));

        // Zero-length record.
        let mut stream = Vec::new();
        put_u16(&mut stream, 0);
        let mut dec = LogDecoder::new();
        dec.extend(&stream);
        assert!(matches!(dec.next_record(), Err(LogError::BadRecord(_))));
    }

    #[test]
    fn postmortem_file_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("navpobs-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pm.navpobs");
        let records = sample_records();
        write_postmortem(&path, &records).unwrap();
        assert_eq!(read_postmortem(&path).unwrap(), records);
        assert!(!path.with_extension("tmp").exists(), "tmp file renamed away");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flight_json_is_well_formed_enough() {
        let lane = flight().lane("json-test");
        lane.record(EventKind::Signal, 1, 2, 3, 4);
        let json = flight_json(8);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"lanes\""));
        assert!(json.contains("json-test"));
        // Balanced braces/brackets — a cheap structural check.
        let braces = json.matches('{').count();
        assert_eq!(braces, json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
