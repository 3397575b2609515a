//! Property tests for the navp-serve wire protocol: randomly
//! generated requests and responses of both job kinds round-trip
//! bitwise, pre-kind (old-format) frames still decode as GEMM jobs,
//! and no truncation or corruption of a frame can panic the decoder.
//!
//! The generator is a local SplitMix64 so every "random" case is
//! identical on every run and in CI.

use navp_net::codec::WireWriter;
use navp_serve::{
    JobInfo, JobKind, JobOutcome, JobSpec, JobState, RejectReason, Request, Response,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Arbitrary short string — includes empty, non-ASCII-safe bytes are
/// avoided (the codec carries UTF-8 strings).
fn arb_str(rng: &mut SplitMix64) -> String {
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| char::from(b'!' + rng.below(90) as u8))
        .collect()
}

fn arb_spec(rng: &mut SplitMix64) -> JobSpec {
    let kind = if rng.below(2) == 0 {
        JobKind::Gemm
    } else {
        JobKind::Kv
    };
    // Stage names mix real ones with arbitrary strings: the codec
    // carries the spec regardless; validation happens at run time.
    let stage = match rng.below(4) {
        0 => "dsc1d".to_string(),
        1 => "kv_pipe".to_string(),
        2 => "kv_phase".to_string(),
        _ => arb_str(rng),
    };
    JobSpec {
        kind,
        stage,
        n: rng.next_u64() as u32,
        ab: rng.next_u64() as u32,
        rows: rng.next_u64() as u32,
        cols: rng.next_u64() as u32,
        seed_a: rng.next_u64(),
        seed_b: rng.next_u64(),
        priority: rng.next_u64() as u8,
        timeout_ms: rng.next_u64(),
        fault_spec: if rng.below(3) == 0 { arb_str(rng) } else { String::new() },
        trace: rng.below(4) == 0,
    }
}

fn arb_info(rng: &mut SplitMix64) -> JobInfo {
    let states = [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::TimedOut,
        JobState::Cancelled,
    ];
    JobInfo {
        id: rng.next_u64(),
        state: states[rng.below(states.len() as u64) as usize],
        priority: rng.next_u64() as u8,
        queued_ms: rng.next_u64(),
        started_ms: rng.next_u64(),
        finished_ms: rng.next_u64(),
        detail: arb_str(rng),
    }
}

fn arb_outcome(rng: &mut SplitMix64) -> JobOutcome {
    JobOutcome {
        checksum: rng.next_u64(),
        verified: rng.below(2) == 1,
        wall_ms: rng.next_u64(),
    }
}

fn arb_request(rng: &mut SplitMix64) -> Request {
    match rng.below(7) {
        0 => Request::Submit {
            spec: arb_spec(rng),
        },
        1 => Request::Status { id: rng.next_u64() },
        2 => Request::Result { id: rng.next_u64() },
        3 => Request::Cancel { id: rng.next_u64() },
        4 => Request::Trace { id: rng.next_u64() },
        5 => Request::Wait {
            id: rng.next_u64(),
            timeout_ms: rng.next_u64(),
        },
        _ => Request::List,
    }
}

fn arb_response(rng: &mut SplitMix64) -> Response {
    match rng.below(8) {
        0 => Response::Submitted { id: rng.next_u64() },
        1 => Response::Rejected {
            reason: if rng.below(2) == 0 {
                RejectReason::QueueFull {
                    cap: rng.next_u64(),
                }
            } else {
                RejectReason::Draining
            },
        },
        2 => Response::Job {
            info: arb_info(rng),
        },
        3 => Response::Outcome {
            info: arb_info(rng),
            outcome: if rng.below(2) == 0 {
                Some(arb_outcome(rng))
            } else {
                None
            },
        },
        4 => Response::Cancelled {
            id: rng.next_u64(),
            ok: rng.below(2) == 1,
        },
        5 => Response::Jobs {
            jobs: (0..rng.below(8)).map(|_| arb_info(rng)).collect(),
        },
        6 => Response::Trace {
            id: rng.next_u64(),
            chrome_json: arb_str(rng),
        },
        _ => Response::Error {
            detail: arb_str(rng),
        },
    }
}

/// Hand-encode the pre-kind Submit frame: request tag plus the ten
/// original spec fields and nothing else — exactly what an old client
/// puts on the wire.
fn old_format_submit(spec: &JobSpec) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(1); // Q_SUBMIT
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
fn arbitrary_requests_of_both_kinds_roundtrip_bitwise() {
    let mut rng = SplitMix64(0x0005_E61E_0001);
    let mut kv_seen = 0u32;
    for case in 0..400 {
        let req = arb_request(&mut rng);
        if matches!(
            &req,
            Request::Submit { spec } if spec.kind == JobKind::Kv
        ) {
            kv_seen += 1;
        }
        let bytes = req.encode();
        let back = Request::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(back, req, "case {case}");
        assert_eq!(back.encode(), bytes, "case {case}: re-encode not canonical");
    }
    assert!(kv_seen > 10, "generator never produced kv submits");
}

#[test]
fn arbitrary_responses_roundtrip_bitwise() {
    let mut rng = SplitMix64(0x0005_E61E_0002);
    for case in 0..400 {
        let resp = arb_response(&mut rng);
        let bytes = resp.encode();
        let back = Response::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(back, resp, "case {case}");
        assert_eq!(back.encode(), bytes, "case {case}: re-encode not canonical");
    }
}

#[test]
fn old_format_submit_frames_decode_as_gemm_with_fields_intact() {
    let mut rng = SplitMix64(0x0005_E61E_0003);
    for case in 0..200 {
        let mut spec = arb_spec(&mut rng);
        let bytes = old_format_submit(&spec);
        let back = Request::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: old frame rejected: {e}"));
        // The old wire had no kind or flags fields, so whatever the
        // spec was generated with, the decoded one is an untraced GEMM
        // with every other field untouched.
        spec.kind = JobKind::Gemm;
        spec.trace = false;
        assert_eq!(back, Request::Submit { spec }, "case {case}");
    }
}

/// Truncation: never a panic, and any prefix that *does* decode (a kv
/// Submit cut just before its trailing kind byte is a valid old-format
/// GEMM frame — that is the compatibility contract, not a bug) must
/// re-encode to exactly the bytes it was decoded from.
#[test]
fn request_truncation_never_panics_and_ok_prefixes_are_canonical() {
    let mut rng = SplitMix64(0x0005_E61E_0004);
    for _ in 0..60 {
        let req = arb_request(&mut rng);
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            if let Ok(back) = Request::decode(&bytes[..cut]) {
                assert_eq!(
                    back.encode(),
                    &bytes[..cut],
                    "cut {cut} of {req:?} decoded non-canonically"
                );
            }
        }
    }
}

#[test]
fn response_truncation_never_panics_and_ok_prefixes_are_canonical() {
    let mut rng = SplitMix64(0x0005_E61E_0005);
    for _ in 0..60 {
        let resp = arb_response(&mut rng);
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            if let Ok(back) = Response::decode(&bytes[..cut]) {
                assert_eq!(
                    back.encode(),
                    &bytes[..cut],
                    "cut {cut} of {resp:?} decoded non-canonically"
                );
            }
        }
    }
}

#[test]
fn single_byte_corruption_never_panics_either_direction() {
    let mut rng = SplitMix64(0x0005_E61E_0006);
    for _ in 0..40 {
        let req_bytes = arb_request(&mut rng).encode();
        let resp_bytes = arb_response(&mut rng).encode();
        for bytes in [&req_bytes, &resp_bytes] {
            for pos in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut corrupt = bytes.clone();
                    corrupt[pos] ^= flip;
                    // Either decodes (payload bits) or errors — never
                    // panics, never allocates past the message cap.
                    let _ = Request::decode(&corrupt);
                    let _ = Response::decode(&corrupt);
                }
            }
        }
    }
}
