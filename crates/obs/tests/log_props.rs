//! Property tests for the flight-recorder event-log codec, in the
//! style of `crates/kv/tests/codec_props.rs`: a seeded SplitMix64
//! generator drives random record streams through encode → chunked
//! decode and targeted corruptions, so every failure is reproducible
//! from its case number.

use navp_obs::{
    decode_container, encode_container, encode_records, EventKind, FlightEvent, LogDecoder,
    LogError, Record,
};

/// SplitMix64: tiny, seedable, good enough to fuzz a codec.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn arb_string(rng: &mut Rng) -> String {
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| {
            // Mix ASCII with some multibyte chars to exercise UTF-8.
            match rng.below(12) {
                0 => 'λ',
                1 => '—',
                2 => '"',
                3 => '\\',
                _ => (b'a' + rng.below(26) as u8) as char,
            }
        })
        .collect()
}

fn arb_event(rng: &mut Rng) -> FlightEvent {
    FlightEvent {
        t0_ns: rng.next(),
        t_ns: rng.next(),
        kind: (1 + rng.below(14)) as u8,
        pe: rng.next() as u32,
        run: rng.next(),
        id: rng.next(),
        a: rng.next(),
        b: rng.next(),
    }
}

fn arb_record(rng: &mut Rng) -> Record {
    match rng.below(5) {
        0 => Record::Meta {
            reason: arb_string(rng),
            pid: rng.next(),
        },
        1 => Record::Lane {
            name: arb_string(rng),
            dropped: rng.next(),
        },
        _ => Record::Event(arb_event(rng)),
    }
}

fn arb_stream(rng: &mut Rng) -> Vec<Record> {
    let len = rng.below(40) as usize;
    (0..len).map(|_| arb_record(rng)).collect()
}

#[test]
fn streams_round_trip_across_arbitrary_split_boundaries() {
    for case in 0..200u64 {
        let mut rng = Rng(0x0B5E_55ED ^ case.wrapping_mul(0x1234_5678_9ABC_DEF1));
        let records = arb_stream(&mut rng);
        let payload = encode_records(&records);

        // Random chunking, including empty chunks.
        let mut dec = LogDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < payload.len() {
            let chunk = (rng.below(9)) as usize;
            let end = (pos + chunk).min(payload.len());
            dec.extend(&payload[pos..end]);
            pos = end;
            while let Some(rec) = dec
                .next_record()
                .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"))
            {
                got.push(rec);
            }
        }
        assert_eq!(got, records, "case {case}");
        assert_eq!(dec.pending(), 0, "case {case}: bytes left over");
    }
}

#[test]
fn truncated_tails_stay_pending_never_error() {
    for case in 0..100u64 {
        let mut rng = Rng(0x7A11 ^ case.wrapping_mul(0xDEAD_BEEF_CAFE_F00D));
        let mut records = arb_stream(&mut rng);
        records.push(Record::Event(arb_event(&mut rng))); // ensure non-empty
        let payload = encode_records(&records);

        // Cut anywhere strictly inside the final record.
        let last_start = {
            let mut pos = 0;
            for rec in &records[..records.len() - 1] {
                let mut buf = Vec::new();
                rec.encode_into(&mut buf);
                pos += buf.len();
            }
            pos
        };
        let cut = last_start + 1 + rng.below((payload.len() - last_start - 1) as u64) as usize;
        let mut dec = LogDecoder::new();
        dec.extend(&payload[..cut]);
        let mut got = Vec::new();
        while let Some(rec) = dec
            .next_record()
            .unwrap_or_else(|e| panic!("case {case}: truncation became an error: {e}"))
        {
            got.push(rec);
        }
        assert_eq!(&got[..], &records[..records.len() - 1], "case {case}");
        assert!(dec.pending() > 0, "case {case}");

        // Completing the tail recovers the final record.
        dec.extend(&payload[cut..]);
        assert_eq!(
            dec.next_record().unwrap(),
            Some(records.last().unwrap().clone()),
            "case {case}"
        );
    }
}

#[test]
fn corrupt_tags_are_rejected() {
    for case in 0..100u64 {
        let mut rng = Rng(0xBAD_7A6 ^ case.wrapping_mul(0x0123_4567_89AB_CDEF));
        let rec = arb_record(&mut rng);
        let mut payload = Vec::new();
        rec.encode_into(&mut payload);
        // Byte 2 is the tag; replace it with a byte that is no tag.
        payload[2] = (200 + rng.below(50)) as u8;
        let mut dec = LogDecoder::new();
        dec.extend(&payload);
        match dec.next_record() {
            Err(LogError::UnknownTag(_)) => {}
            other => panic!("case {case}: corrupt tag accepted: {other:?}"),
        }
    }
}

#[test]
fn length_tampering_is_caught() {
    for case in 0..100u64 {
        let mut rng = Rng(0x1E46 ^ case.wrapping_mul(0x0FEE_DFAC_E0DD_BA11));
        let rec = Record::Event(arb_event(&mut rng));
        let mut payload = Vec::new();
        rec.encode_into(&mut payload);
        let true_len = u16::from_le_bytes([payload[0], payload[1]]);
        // Shrink the declared length: the body reader must refuse the
        // short body or the leftover bytes must break the next frame.
        let shrunk = rng.below(true_len as u64) as u16;
        payload[0] = shrunk.to_le_bytes()[0];
        payload[1] = shrunk.to_le_bytes()[1];
        let mut dec = LogDecoder::new();
        dec.extend(&payload);
        let mut saw_error = false;
        loop {
            match dec.next_record() {
                Err(_) => {
                    saw_error = true;
                    break;
                }
                Ok(Some(got)) => {
                    // A shorter prefix that still parses must not be
                    // mistaken for the original record.
                    assert_ne!(got, rec, "case {case}: tampered record round-tripped");
                }
                Ok(None) => break,
            }
        }
        let clean = !saw_error && dec.pending() == 0;
        assert!(
            saw_error || !clean,
            "case {case}: length tampering fully consumed without error"
        );
    }
}

#[test]
fn container_payload_corruption_is_always_caught() {
    for case in 0..150u64 {
        let mut rng = Rng(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9));
        let mut records = arb_stream(&mut rng);
        records.push(Record::Event(arb_event(&mut rng)));
        let bytes = encode_container(&records);
        assert_eq!(decode_container(&bytes).unwrap(), records, "case {case}");

        // Flip a random bit anywhere in the file.
        let mut bad = bytes.clone();
        let at = rng.below(bad.len() as u64) as usize;
        bad[at] ^= 1 << rng.below(8);
        assert!(
            decode_container(&bad).is_err(),
            "case {case}: single-bit flip at {at} went undetected"
        );
    }
}

#[test]
fn event_kind_bytes_cover_exactly_one_through_fourteen() {
    for b in 0..=u8::MAX {
        let known = EventKind::from_u8(b).is_some();
        assert_eq!(known, (1..=14).contains(&b), "kind byte {b}");
    }
}
