//! The persistent job journal: `navp-serve`'s memory across restarts.
//!
//! Every job that reaches a terminal state is appended as one
//! checksummed record to a flat file in the durable directory. On the
//! next start the scheduler reloads the journal and seeds its job
//! table with the finished jobs, so `Status`, `Result` and `List`
//! still answer for work the previous process completed — and job ids
//! keep increasing monotonically across restarts, which matters
//! because the id doubles as the run namespace on the mesh (reusing
//! one would collide with a dead run's checkpoint directory).
//!
//! Record format, all little-endian:
//!
//! ```text
//! u32 body_len | body | u64 fnv1a(body)
//! ```
//!
//! The body is a [`WireWriter`] frame: an *explicit* kind byte, the
//! ten base spec fields, the job's [`JobInfo`], and the optional
//! [`JobOutcome`]. The kind is framed explicitly (not as the
//! protocol's trailing byte) because the spec is *not* the final
//! element here — see [`JobSpec::put`].
//!
//! Crash-safety is the same story as the checkpoint files
//! (`navp::durable`): a torn final record — short body, bad checksum,
//! undecodable frame — is detected on open, reported, and truncated
//! away; every record before it is intact because records are only
//! ever appended.

use crate::proto::{JobInfo, JobKind, JobOutcome, JobSpec, MAX_MSG};
use navp::durable::fnv1a;
use navp_net::codec::{WireReader, WireWriter};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One journaled job: the spec it ran, the terminal info, and the
/// outcome when it completed.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// What was submitted.
    pub spec: JobSpec,
    /// The job's final (terminal) info. Timestamps are anchored to the
    /// epoch of the server that recorded them, so across a restart
    /// they are only comparable to each other, not to new jobs'.
    pub info: JobInfo,
    /// The product summary, when the job ended `Done`.
    pub outcome: Option<JobOutcome>,
}

impl JournalEntry {
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u8(self.spec.kind.to_wire());
        self.spec.put_base(&mut w);
        self.info.put(&mut w);
        match &self.outcome {
            Some(o) => {
                w.put_bool(true);
                o.put(&mut w);
            }
            None => w.put_bool(false),
        }
        w.into_vec()
    }

    fn decode(body: &[u8]) -> Option<JournalEntry> {
        let mut r = WireReader::new(body);
        let kind = JobKind::from_wire(r.get_u8().ok()?).ok()?;
        let mut spec = JobSpec::get_base(&mut r).ok()?;
        spec.kind = kind;
        let info = JobInfo::get(&mut r).ok()?;
        let outcome = if r.get_bool().ok()? {
            Some(JobOutcome::get(&mut r).ok()?)
        } else {
            None
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(JournalEntry {
            spec,
            info,
            outcome,
        })
    }
}

/// An open journal file, positioned for appending.
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, replay every
    /// intact record, truncate any torn tail, and return the handle
    /// plus the restored entries in record order.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<JournalEntry>)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut entries = Vec::new();
        let mut pos = 0usize;
        let good = loop {
            if pos == bytes.len() {
                break pos; // clean end
            }
            let Some(rec) = read_record(&bytes[pos..]) else {
                break pos; // torn tail starts here
            };
            let (entry, consumed) = rec;
            entries.push(entry);
            pos += consumed;
        };
        if good < bytes.len() {
            eprintln!(
                "navp-serve: job journal {}: truncating torn tail ({} byte(s) after {} intact record(s))",
                path.display(),
                bytes.len() - good,
                entries.len()
            );
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            entries,
        ))
    }

    /// Append one record and flush it to disk before returning, so a
    /// journaled job survives a crash immediately after.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<()> {
        let body = entry.encode();
        assert!(body.len() <= MAX_MSG, "journal record exceeds MAX_MSG");
        let mut rec = Vec::with_capacity(body.len() + 12);
        rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
        rec.extend_from_slice(&body);
        rec.extend_from_slice(&fnv1a(&body).to_le_bytes());
        self.file.write_all(&rec)?;
        self.file.sync_data()
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parse one record off the front of `bytes`; `None` for anything
/// torn or corrupt (short frame, bad checksum, undecodable body).
fn read_record(bytes: &[u8]) -> Option<(JournalEntry, usize)> {
    if bytes.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if len > MAX_MSG || bytes.len() < 4 + len + 8 {
        return None;
    }
    let body = &bytes[4..4 + len];
    let sum = u64::from_le_bytes(bytes[4 + len..4 + len + 8].try_into().unwrap());
    if fnv1a(body) != sum {
        return None;
    }
    let entry = JournalEntry::decode(body)?;
    Some((entry, 4 + len + 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobState;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "navp-journal-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn entry(id: u64, kind: JobKind, state: JobState) -> JournalEntry {
        let spec = match kind {
            JobKind::Gemm => JobSpec::example(),
            JobKind::Kv => JobSpec::example_kv(),
        };
        JournalEntry {
            spec,
            info: JobInfo {
                id,
                state,
                priority: 1,
                queued_ms: 5,
                started_ms: 6,
                finished_ms: 9,
                detail: if state == JobState::Failed {
                    "boom".into()
                } else {
                    String::new()
                },
            },
            outcome: (state == JobState::Done).then_some(JobOutcome {
                checksum: 0xFEED ^ id,
                verified: true,
                wall_ms: 3,
            }),
        }
    }

    #[test]
    fn journal_round_trips_both_kinds_across_reopen() {
        let path = tmp("roundtrip");
        let written = vec![
            entry(1, JobKind::Gemm, JobState::Done),
            entry(2, JobKind::Kv, JobState::Done),
            entry(3, JobKind::Kv, JobState::Failed),
            entry(4, JobKind::Gemm, JobState::Cancelled),
        ];
        {
            let (mut j, restored) = Journal::open(&path).unwrap();
            assert!(restored.is_empty(), "fresh journal is empty");
            for e in &written {
                j.append(e).unwrap();
            }
        }
        let (_, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored, written);
        assert_eq!(restored[1].spec.kind, JobKind::Kv);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&entry(1, JobKind::Gemm, JobState::Done)).unwrap();
            j.append(&entry(2, JobKind::Kv, JobState::Done)).unwrap();
        }
        let intact = std::fs::metadata(&path).unwrap().len();
        // A crash mid-append: half a record's worth of garbage.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x55; 7]).unwrap();
        drop(f);
        let (mut j, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 2, "intact records survive");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact,
            "the torn tail is gone"
        );
        // And the journal is appendable again.
        j.append(&entry(3, JobKind::Kv, JobState::Done)).unwrap();
        let (_, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_bad_record() {
        let path = tmp("badsum");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&entry(1, JobKind::Gemm, JobState::Done)).unwrap();
            j.append(&entry(2, JobKind::Kv, JobState::Done)).unwrap();
        }
        // Flip one byte in the *last* record's checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, restored) = Journal::open(&path).unwrap();
        assert_eq!(restored.len(), 1, "only the record before the corruption");
        assert_eq!(restored[0].info.id, 1);
        std::fs::remove_file(&path).ok();
    }
}
