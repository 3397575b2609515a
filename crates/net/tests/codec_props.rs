//! Property tests for the wire protocol: randomly generated frames
//! roundtrip bitwise, and *no* truncation or corruption of an encoded
//! frame can panic the decoder — every failure is a structured
//! [`DecodeError`].
//!
//! The generator is a local SplitMix64 (same construction as
//! `navp::fault`'s seeded plans) so the "random" cases are identical on
//! every run and in CI.

use navp::fault::{FaultPlan, FaultStats};
use navp::{Key, RunError, WireSnapshot};
use navp_metrics::{Sample, SampleKind};
use navp_net::frame::{Frame, StoreEntry};
use navp_net::DecodeError;
use navp_obs::{EventKind, FlightEvent, LaneSnapshot};

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

const NAMES: [&str; 6] = ["a", "EP", "EC", "row", "B", "中文"];

fn arb_key(rng: &mut SplitMix64) -> Key {
    Key::at2(
        NAMES[rng.below(NAMES.len() as u64) as usize],
        rng.below(64) as usize,
        rng.below(64) as usize,
    )
}

fn arb_bytes(rng: &mut SplitMix64, max: u64) -> Vec<u8> {
    (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
}

fn arb_snapshot(rng: &mut SplitMix64) -> WireSnapshot {
    WireSnapshot::new(
        format!("tag.{}", rng.below(1000)),
        arb_bytes(rng, 48),
    )
}

fn arb_store(rng: &mut SplitMix64) -> Vec<StoreEntry> {
    (0..rng.below(5))
        .map(|_| StoreEntry {
            key: arb_key(rng),
            tag: format!("t{}", rng.below(10)),
            bytes: rng.below(1 << 20),
            val: arb_bytes(rng, 32),
        })
        .collect()
}

fn arb_plan(rng: &mut SplitMix64) -> Option<FaultPlan> {
    match rng.below(3) {
        0 => None,
        1 => Some(FaultPlan::seeded(rng.next_u64(), 4)),
        _ => Some(
            FaultPlan::new()
                .delay_hop(rng.below(4) as usize, 1 + rng.below(5), 0.001)
                .drop_hop(rng.below(4) as usize, 1 + rng.below(5))
                .lose_signal(rng.below(4) as usize, 1 + rng.below(5))
                .without_checkpointing(),
        ),
    }
}

fn arb_error(rng: &mut SplitMix64) -> RunError {
    match rng.below(11) {
        0 => RunError::NoPes,
        1 => RunError::BadHop {
            agent: "A".into(),
            dst: rng.below(99) as usize,
            pes: 4,
        },
        2 => RunError::Deadlock {
            blocked: (0..rng.below(3))
                .map(|i| (format!("m{i}"), format!("E({i},0)")))
                .collect(),
        },
        3 => RunError::Stalled {
            live: rng.below(9) as usize,
        },
        4 => RunError::WorkerPanic(format!("p{}", rng.below(9))),
        5 => RunError::PeCrashed {
            pe: rng.below(4) as usize,
            run: rng.below(9),
        },
        6 => RunError::RecoveryFailed {
            pe: rng.below(4) as usize,
            reason: "r".into(),
        },
        7 => RunError::PeOutOfRange {
            pe: rng.below(9) as usize,
            pes: 4,
        },
        8 => RunError::PeerDisconnected {
            pe: rng.below(4) as usize,
            detail: "eof".into(),
        },
        9 => RunError::NotSerializable {
            agent: format!("m{}", rng.below(9)),
        },
        _ => RunError::Transport {
            detail: "t".into(),
        },
    }
}

fn arb_lane(rng: &mut SplitMix64) -> LaneSnapshot {
    let events = (0..rng.below(6))
        .map(|_| {
            let t0_ns = rng.below(1 << 40);
            FlightEvent {
                t0_ns,
                t_ns: t0_ns + rng.below(1 << 20),
                kind: EventKind::ALL[rng.below(EventKind::ALL.len() as u64) as usize] as u8,
                pe: rng.below(16) as u32,
                run: rng.next_u64(),
                id: rng.next_u64(),
                a: rng.next_u64(),
                b: rng.next_u64(),
            }
        })
        .collect();
    LaneSnapshot {
        name: format!("pe{}.trace", rng.below(16)),
        events,
        dropped: rng.below(100),
    }
}

fn arb_sample(rng: &mut SplitMix64) -> Sample {
    Sample {
        name: format!("navp_arb_{}_total", rng.below(6)),
        labels: (0..rng.below(3))
            .map(|i| (format!("l{i}"), format!("v{}", rng.below(9))))
            .collect(),
        kind: if rng.below(2) == 1 {
            SampleKind::Gauge
        } else {
            SampleKind::Counter
        },
        value: rng.below(1_000_000) as f64,
    }
}

fn arb_frame(rng: &mut SplitMix64) -> Frame {
    match rng.below(17) {
        0 => Frame::Assign {
            pe: rng.below(16) as u32,
            pes: rng.below(16) as u32,
            run: rng.next_u64(),
        },
        1 => Frame::Hello {
            pe: rng.below(16) as u32,
            pid: rng.next_u64() as u32,
            listen: format!("127.0.0.1:{}", rng.below(65536)),
        },
        2 => Frame::Bootstrap {
            peers: (0..rng.below(5))
                .map(|i| format!("10.0.0.{i}:{}", rng.below(65536)))
                .collect(),
        },
        3 => Frame::PeerHello {
            pe: rng.below(16) as u32,
            run: rng.next_u64(),
        },
        4 => Frame::MeshReady {
            pe: rng.below(16) as u32,
        },
        5 => Frame::Start {
            store: arb_store(rng),
            injections: (0..rng.below(4))
                .map(|_| (rng.next_u64(), arb_snapshot(rng)))
                .collect(),
            events: (0..rng.below(4)).map(|_| arb_key(rng)).collect(),
            plan: arb_plan(rng),
            initial_live: rng.below(1000),
            trace: rng.below(2) == 1,
            metrics: rng.below(2) == 1,
        },
        6 => Frame::Hop {
            id: rng.next_u64(),
            sent_ns: rng.next_u64() >> 1,
            msgr: arb_snapshot(rng),
        },
        7 => Frame::EventWait {
            key: arb_key(rng),
            id: rng.next_u64(),
            origin: rng.below(16) as u32,
            parked_ns: rng.next_u64() >> 1,
            msgr: arb_snapshot(rng),
        },
        8 => Frame::EventSignal { key: arb_key(rng) },
        9 => Frame::Deliver {
            id: rng.next_u64(),
            parked_ns: rng.next_u64() >> 1,
            msgr: arb_snapshot(rng),
        },
        10 => Frame::Delta {
            spawned: rng.below(100),
            finished: rng.below(100),
            steps: rng.next_u64() >> 1,
            hops: rng.below(1 << 30),
            hop_payload: rng.next_u64() >> 1,
            wire_bytes: rng.next_u64() >> 1,
        },
        11 => Frame::Collect,
        12 => {
            // Traced and metered, traced only, metered only, or neither.
            let (metered, traced) = (rng.below(2) == 1, rng.below(2) == 1);
            Frame::Report {
                store: arb_store(rng),
                stats: FaultStats {
                    crashes: rng.below(5),
                    redelivered: rng.below(5),
                    replayed_writes: rng.below(100),
                    send_retries: rng.below(5),
                    hops_delayed: rng.below(5),
                    hops_dropped: rng.below(5),
                    signals_lost: rng.below(5),
                },
                samples: if metered {
                    (0..rng.below(6)).map(|_| arb_sample(rng)).collect()
                } else {
                    Vec::new()
                },
                pe_ns: rng.next_u64() >> 1,
                lane: traced.then(|| arb_lane(rng)),
                labels: if traced {
                    (0..rng.below(4))
                        .map(|_| {
                            let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                            (rng.next_u64(), name.to_string())
                        })
                        .collect()
                } else {
                    Vec::new()
                },
            }
        }
        13 => Frame::Fatal {
            err: arb_error(rng),
        },
        14 => Frame::Probe {
            round: rng.below(1000),
        },
        15 => Frame::ProbeAck {
            round: rng.below(1000),
            spawned: rng.below(10_000),
            finished: rng.below(10_000),
            peer_sent: rng.below(10_000),
            peer_recv: rng.below(10_000),
        },
        _ => Frame::Shutdown,
    }
}

#[test]
fn arbitrary_frames_roundtrip_bitwise() {
    let mut rng = SplitMix64(0xF00D);
    for case in 0..500 {
        let frame = arb_frame(&mut rng);
        let bytes = frame.encode();
        let back = Frame::decode(&bytes).unwrap_or_else(|e| {
            panic!("case {case}: decode failed with {e} for {frame:?}")
        });
        assert_eq!(back, frame, "case {case}");
        // Re-encoding the decoded frame is also bitwise stable.
        assert_eq!(back.encode(), bytes, "case {case}: encode not canonical");
    }
}

#[test]
fn every_truncation_is_an_error_never_a_panic() {
    let mut rng = SplitMix64(0xBEEF);
    for _ in 0..60 {
        let frame = arb_frame(&mut rng);
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Ok(other) => panic!("truncated {frame:?} at {cut} decoded as {other:?}"),
                Err(e) => {
                    // Must be a structured decode error with a Display.
                    let _ = e.to_string();
                }
            }
        }
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let mut rng = SplitMix64(0xCAFE);
    for _ in 0..40 {
        let frame = arb_frame(&mut rng);
        let bytes = frame.encode();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= flip;
                // Either it still decodes (the flipped bits were plain
                // payload) or it errors — but it never panics and never
                // over-reads.
                let _ = Frame::decode(&corrupt).map(|f| f.encode());
            }
        }
    }
}

/// An f64 payload of length `n` salted with every special value the
/// wire must carry bitwise: quiet/negative NaNs, both infinities,
/// signed zero, and subnormals, interleaved with ordinary values.
fn f64_payload(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let specials = [
        f64::NAN,
        f64::from_bits(0xFFF8_0000_0000_0001), // negative NaN, payload bits set
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 2.0, // subnormal
        f64::MAX,
    ];
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                specials[rng.below(specials.len() as u64) as usize]
            } else {
                f64::from_bits(rng.next_u64() >> rng.below(12))
            }
        })
        .collect()
}

/// The bulk `put_f64_slice`/`get_f64_slice` fast path must produce
/// byte-identical encodings to the element-wise reference path, and
/// every (bulk, element-wise) encode/decode pairing must round-trip
/// each element bitwise — across lengths 0..1k and NaN/inf/-0.0
/// payloads.
#[test]
fn bulk_f64_slice_matches_elementwise_bitwise() {
    use navp_net::codec::{WireReader, WireWriter};
    let mut rng = SplitMix64(0x5EED);
    for n in (0..64).chain([65, 127, 128, 255, 511, 512, 777, 1000, 1024]) {
        let payload = f64_payload(&mut rng, n);

        let mut bulk = WireWriter::new();
        bulk.put_f64_slice(&payload);
        let bulk = bulk.into_vec();
        let mut elem = WireWriter::new();
        elem.put_f64_slice_elementwise(&payload);
        let elem = elem.into_vec();
        assert_eq!(bulk, elem, "wire bytes diverge at n={n}");

        // Both decode paths, crossed over both encode paths.
        for bytes in [&bulk, &elem] {
            let fast = WireReader::new(bytes).get_f64_slice().unwrap();
            let slow = WireReader::new(bytes)
                .get_f64_slice_elementwise()
                .unwrap();
            for (which, got) in [("bulk", &fast), ("elementwise", &slow)] {
                assert_eq!(got.len(), n);
                for (i, (g, want)) in got.iter().zip(&payload).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{which} decode not bitwise at n={n} index {i}"
                    );
                }
            }
        }
    }
}

/// Truncated f64-slice payloads fail structurally on the bulk path,
/// exactly like the element-wise path — never a panic or over-read.
#[test]
fn bulk_f64_slice_rejects_truncation_like_elementwise() {
    use navp_net::codec::{WireReader, WireWriter};
    let mut w = WireWriter::new();
    w.put_f64_slice(&[1.0, f64::NAN, -0.0]);
    let bytes = w.into_vec();
    for cut in 0..bytes.len() {
        let fast = WireReader::new(&bytes[..cut]).get_f64_slice();
        let slow = WireReader::new(&bytes[..cut]).get_f64_slice_elementwise();
        assert!(fast.is_err(), "bulk decoded a {cut}-byte prefix");
        assert!(slow.is_err(), "elementwise decoded a {cut}-byte prefix");
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SplitMix64(0xD1CE);
    for _ in 0..2000 {
        let garbage = arb_bytes(&mut rng, 64);
        let _ = Frame::decode(&garbage);
    }
    assert!(matches!(
        Frame::decode(&[]),
        Err(DecodeError::Truncated)
    ));
}

// ---- batching wire format (event-loop coalescing + FrameDecoder) ----

use navp_net::FrameDecoder;

/// Encode a batch of frames exactly as the event loop coalesces them:
/// back-to-back `u32 len LE | body` records in one buffer.
fn coalesce(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        let at = buf.len();
        buf.extend_from_slice(&[0u8; 4]);
        f.encode_into(&mut buf);
        let body = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&body.to_le_bytes());
    }
    buf
}

/// Drain every complete frame the decoder currently holds.
fn drain(dec: &mut FrameDecoder) -> Vec<(Frame, u64)> {
    let mut out = Vec::new();
    while let Some(got) = dec.next_frame().expect("valid batch") {
        out.push(got);
    }
    out
}

/// A coalesced multi-frame buffer — the event loop's batched wire
/// image — round-trips through the incremental decoder: same frames,
/// same order, each reporting its exact wire size.
#[test]
fn coalesced_batches_roundtrip_through_the_decoder() {
    let mut rng = SplitMix64(0xBA7C);
    for case in 0..200 {
        let frames: Vec<Frame> = (0..1 + rng.below(12)).map(|_| arb_frame(&mut rng)).collect();
        let buf = coalesce(&frames);
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        let got = drain(&mut dec);
        assert_eq!(got.len(), frames.len(), "case {case}");
        let mut wire_total = 0u64;
        for ((got, wire), want) in got.iter().zip(&frames) {
            assert_eq!(got, want, "case {case}");
            assert_eq!(*wire, 4 + want.encode().len() as u64, "case {case}");
            wire_total += wire;
        }
        assert_eq!(wire_total as usize, buf.len(), "case {case}");
        assert_eq!(dec.buffered(), 0, "case {case}: decoder retained bytes");
    }
}

/// The decoder is chunking-oblivious: feeding a batch in arbitrary
/// splits — byte-by-byte, random cuts, cuts straddling length
/// prefixes — always yields the identical frame sequence.
#[test]
fn arbitrary_split_boundaries_do_not_change_the_decode() {
    let mut rng = SplitMix64(0x5117);
    for case in 0..100 {
        let frames: Vec<Frame> = (0..1 + rng.below(8)).map(|_| arb_frame(&mut rng)).collect();
        let buf = coalesce(&frames);
        for trial in 0..4 {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut at = 0usize;
            while at < buf.len() {
                let step = match trial {
                    0 => 1, // byte at a time
                    1 => buf.len(), // all at once
                    2 => 3, // constant misaligned stride
                    _ => 1 + rng.below(buf.len() as u64 / 2 + 1) as usize,
                };
                let end = (at + step).min(buf.len());
                dec.extend(&buf[at..end]);
                got.extend(drain(&mut dec).into_iter().map(|(f, _)| f));
                at = end;
            }
            assert_eq!(got, frames, "case {case} trial {trial}");
            assert_eq!(dec.buffered(), 0, "case {case} trial {trial}");
        }
    }
}

/// A batch cut anywhere mid-stream decodes every *complete* frame
/// before the cut and reports the tail as pending (never an error,
/// never a phantom frame) — that's exactly the partial-read state the
/// event loop parks between readiness events.
#[test]
fn truncated_tails_are_pending_not_frames() {
    let mut rng = SplitMix64(0x7A11);
    for _ in 0..60 {
        let frames: Vec<Frame> = (0..1 + rng.below(4)).map(|_| arb_frame(&mut rng)).collect();
        let buf = coalesce(&frames);
        // Frame start offsets, to know how many frames precede a cut.
        let mut starts = vec![0usize];
        for f in &frames {
            starts.push(starts.last().unwrap() + 4 + f.encode().len());
        }
        for cut in 0..buf.len() {
            let complete = starts.iter().filter(|&&s| s > 0 && s <= cut).count();
            let mut dec = FrameDecoder::new();
            dec.extend(&buf[..cut]);
            let got = drain(&mut dec);
            assert_eq!(got.len(), complete, "cut at {cut}");
            assert_eq!(dec.buffered(), cut - starts[complete], "cut at {cut}");
        }
    }
}

/// Corrupting a batch's tail frame must never panic the decoder, and
/// every frame *before* the corruption still decodes. A corrupted
/// length prefix either shifts framing (yielding pending bytes or a
/// structured error) or trips the MAX_FRAME cap — never an over-read.
#[test]
fn corrupt_tails_fail_structurally_after_clean_prefix_frames() {
    let mut rng = SplitMix64(0xC0DE);
    for _ in 0..40 {
        let clean: Vec<Frame> = (0..1 + rng.below(3)).map(|_| arb_frame(&mut rng)).collect();
        let tail = arb_frame(&mut rng);
        let clean_buf = coalesce(&clean);
        let tail_buf = coalesce(std::slice::from_ref(&tail));
        for flip in [0x01u8, 0x80, 0xFF] {
            for pos in 0..tail_buf.len() {
                let mut buf = clean_buf.clone();
                let mut corrupt_tail = tail_buf.clone();
                corrupt_tail[pos] ^= flip;
                buf.extend_from_slice(&corrupt_tail);
                let mut dec = FrameDecoder::new();
                dec.extend(&buf);
                // The clean prefix always comes out intact.
                for want in &clean {
                    match dec.next_frame() {
                        Ok(Some((got, _))) => assert_eq!(&got, want),
                        other => panic!("clean prefix frame lost: {other:?}"),
                    }
                }
                // The corrupted tail: any structured outcome is fine —
                // decoded (payload-bit flip), pending (length shifted),
                // or DecodeError — but never a panic.
                while let Ok(Some(_)) = dec.next_frame() {}
            }
        }
    }
}

/// An oversized declared length is rejected as soon as the prefix is
/// visible — the decoder never buffers toward an absurd length.
#[test]
fn oversized_length_prefix_rejected_immediately() {
    let mut dec = FrameDecoder::new();
    dec.extend(&u32::MAX.to_le_bytes());
    assert!(dec.next_frame().is_err());
}
