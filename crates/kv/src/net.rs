//! Wire codecs for the key-value workload, and [`register_net`], which
//! installs the decode half of every kv messenger and store value into
//! the global type-tag registry.
//!
//! Operation streams are *never* serialized: a carrier's ops are a pure
//! function of `(KvConfig, batch)`, so the wire snapshot carries the
//! config and regenerates them on the receiving PE. What does travel is
//! exactly what the NavP model says travels — the agent variables: the
//! accumulated result buffer, in-flight scan hits, and the cursors.

use navp_net::codec::{DecodeError, WireReader, WireWriter};
use navp_net::registry::{register_messenger, register_value, ValueCodec};
use navp_sim::store::StoreValue;

use crate::carrier::{BatchCarrier, BatchResult, Compactor, DscKvCarrier, ScanState};
use crate::config::KvConfig;
use crate::shard::Shard;
use crate::workload::batch_ops;

/// Registry tag of [`BatchCarrier`].
pub const BATCH_TAG: &str = "kv.Batch";
/// Registry tag of [`DscKvCarrier`].
pub const DSC_TAG: &str = "kv.Dsc";
/// Registry tag of [`Compactor`].
pub const COMPACTOR_TAG: &str = "kv.Compactor";
/// Registry tag of [`Shard`].
pub const SHARD_TAG: &str = "kv.Shard";
/// Registry tag of [`BatchResult`].
pub const RESULT_TAG: &str = "kv.Res";

pub(crate) fn put_cfg(w: &mut WireWriter, cfg: &KvConfig) {
    w.put_usize(cfg.ops);
    w.put_usize(cfg.batches);
    w.put_usize(cfg.value_len);
    w.put_u64(cfg.keys_per_batch);
    w.put_usize(cfg.scan_limit);
    w.put_u64(cfg.seed);
}

/// Hard caps on decoded workload sizes. Ops are *regenerated* from
/// the config on decode, so without a ceiling a corrupt (or hostile)
/// frame with a huge-but-self-consistent `ops` would make the decoder
/// do unbounded work and allocation before any run starts. Orders of
/// magnitude above any real configuration, orders below any danger.
const MAX_WIRE_OPS: usize = 1 << 24;
/// Companion cap for per-value payload bytes.
const MAX_WIRE_VALUE_LEN: usize = 1 << 20;

pub(crate) fn get_cfg(r: &mut WireReader<'_>) -> Result<KvConfig, DecodeError> {
    let ops = r.get_usize()?;
    let batches = r.get_usize()?;
    if ops == 0 || batches == 0 || batches > ops || ops > MAX_WIRE_OPS {
        return Err(DecodeError::BadValue("kv workload shape"));
    }
    let value_len = r.get_usize()?;
    if value_len == 0 || value_len > MAX_WIRE_VALUE_LEN {
        return Err(DecodeError::BadValue("kv value length"));
    }
    let keys_per_batch = r.get_u64()?;
    if keys_per_batch == 0 {
        return Err(DecodeError::BadValue("kv keyspace"));
    }
    let scan_limit = r.get_usize()?;
    let seed = r.get_u64()?;
    Ok(KvConfig {
        ops,
        batches,
        value_len,
        keys_per_batch,
        scan_limit,
        seed,
    })
}

fn put_scan(w: &mut WireWriter, st: &Option<ScanState>) {
    match st {
        Some(s) => {
            w.put_bool(true);
            w.put_u64(s.start);
            w.put_u64(s.end);
            w.put_usize(s.limit);
            w.put_usize(s.next_pe);
            w.put_u32(s.acc.len() as u32);
            for &(k, d) in &s.acc {
                w.put_u64(k);
                w.put_u64(d);
            }
        }
        None => w.put_bool(false),
    }
}

fn get_scan(r: &mut WireReader<'_>) -> Result<Option<ScanState>, DecodeError> {
    if !r.get_bool()? {
        return Ok(None);
    }
    let start = r.get_u64()?;
    let end = r.get_u64()?;
    let limit = r.get_usize()?;
    let next_pe = r.get_usize()?;
    let n = r.get_u32()?;
    if r.remaining() < n as usize * 16 {
        return Err(DecodeError::BadLength {
            declared: n as u64 * 16,
            available: r.remaining() as u64,
        });
    }
    let mut acc = Vec::with_capacity(n as usize);
    for _ in 0..n {
        acc.push((r.get_u64()?, r.get_u64()?));
    }
    Ok(Some(ScanState {
        start,
        end,
        limit,
        next_pe,
        acc,
    }))
}

pub(crate) fn encode_batch_carrier(c: &BatchCarrier) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_cfg(&mut w, &c.cfg);
    w.put_usize(c.pes);
    w.put_usize(c.batch);
    w.put_usize(c.home);
    w.put_usize(c.pos);
    w.put_bytes(&c.results);
    w.put_u64(c.scanned);
    put_scan(&mut w, &c.scan);
    w.put_bool(c.deposited);
    w.into_vec()
}

pub(crate) fn decode_batch_carrier(r: &mut WireReader<'_>) -> Result<BatchCarrier, DecodeError> {
    let cfg = get_cfg(r)?;
    let pes = r.get_usize()?;
    let batch = r.get_usize()?;
    if pes == 0 || batch >= cfg.batches {
        return Err(DecodeError::BadValue("kv carrier shape"));
    }
    let home = r.get_usize()?;
    if home >= pes {
        return Err(DecodeError::BadValue("kv carrier home"));
    }
    let ops = batch_ops(&cfg, batch);
    let pos = r.get_usize()?;
    if pos > ops.len() {
        return Err(DecodeError::BadValue("kv carrier cursor"));
    }
    Ok(BatchCarrier {
        cfg,
        pes,
        batch,
        home,
        ops,
        pos,
        results: r.get_bytes()?,
        scanned: r.get_u64()?,
        scan: get_scan(r)?,
        deposited: r.get_bool()?,
    })
}

pub(crate) fn encode_dsc_carrier(c: &DscKvCarrier) -> Vec<u8> {
    let mut w = WireWriter::new();
    put_cfg(&mut w, &c.cfg);
    w.put_usize(c.pes);
    w.put_usize(c.home);
    w.put_usize(c.next_batch);
    match &c.inner {
        Some(inner) => {
            w.put_bool(true);
            w.put_bytes(&encode_batch_carrier(inner));
        }
        None => w.put_bool(false),
    }
    w.into_vec()
}

pub(crate) fn decode_dsc_carrier(r: &mut WireReader<'_>) -> Result<DscKvCarrier, DecodeError> {
    let cfg = get_cfg(r)?;
    let pes = r.get_usize()?;
    let home = r.get_usize()?;
    if pes == 0 || home >= pes {
        return Err(DecodeError::BadValue("kv dsc shape"));
    }
    let next_batch = r.get_usize()?;
    if next_batch > cfg.batches {
        return Err(DecodeError::BadValue("kv dsc cursor"));
    }
    let inner = if r.get_bool()? {
        let bytes = r.get_bytes()?;
        let mut ir = WireReader::new(&bytes);
        Some(decode_batch_carrier(&mut ir)?)
    } else {
        None
    };
    Ok(DscKvCarrier {
        cfg,
        pes,
        home,
        next_batch,
        inner,
    })
}

pub(crate) fn encode_compactor(c: &Compactor) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(c.pes);
    w.put_usize(c.rounds);
    w.put_usize(c.cursor);
    w.put_u64(c.reclaimed);
    w.into_vec()
}

pub(crate) fn decode_compactor(r: &mut WireReader<'_>) -> Result<Compactor, DecodeError> {
    let pes = r.get_usize()?;
    let rounds = r.get_usize()?;
    let cursor = r.get_usize()?;
    if pes == 0 || cursor >= pes {
        return Err(DecodeError::BadValue("kv compactor cursor"));
    }
    Ok(Compactor {
        pes,
        rounds,
        cursor,
        reclaimed: r.get_u64()?,
    })
}

pub(crate) fn put_shard(w: &mut WireWriter, s: &Shard) {
    w.put_u64(s.compactions());
    let log = s.log_records();
    w.put_u32(log.len() as u32);
    for (key, rec) in log {
        w.put_u64(*key);
        match rec {
            Some(v) => {
                w.put_bool(true);
                w.put_bytes(v);
            }
            None => w.put_bool(false),
        }
    }
}

pub(crate) fn get_shard(r: &mut WireReader<'_>) -> Result<Shard, DecodeError> {
    let compactions = r.get_u64()?;
    let n = r.get_u32()? as usize;
    // Each record costs at least key + presence byte; reject declared
    // lengths the buffer cannot possibly hold before allocating.
    if r.remaining() < n * 9 {
        return Err(DecodeError::BadLength {
            declared: n as u64 * 9,
            available: r.remaining() as u64,
        });
    }
    let mut log = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u64()?;
        let rec = if r.get_bool()? {
            Some(r.get_bytes()?)
        } else {
            None
        };
        log.push((key, rec));
    }
    Ok(Shard::replay(log, compactions))
}

/// Install the kv workload's wire codecs: the three messengers plus the
/// `kv.Shard` / `kv.Res` store-value codecs. Idempotent; the itinerary
/// launcher the pipe/phase steps use is `mm.Launcher`, installed by
/// [`navp_mm::register_net`], which this calls too — one call makes a
/// process able to host the whole workload.
pub fn register_net() {
    navp_mm::register_net();
    register_messenger(BATCH_TAG, |r| Ok(Box::new(decode_batch_carrier(r)?)));
    register_messenger(DSC_TAG, |r| Ok(Box::new(decode_dsc_carrier(r)?)));
    register_messenger(COMPACTOR_TAG, |r| Ok(Box::new(decode_compactor(r)?)));
    register_value(ValueCodec {
        tag: SHARD_TAG,
        try_encode: |v| {
            v.as_any().downcast_ref::<Shard>().map(|s| {
                let mut w = WireWriter::new();
                put_shard(&mut w, s);
                w.into_vec()
            })
        },
        decode: |r| Ok(Box::new(get_shard(r)?) as Box<dyn StoreValue>),
    });
    register_value(ValueCodec {
        tag: RESULT_TAG,
        try_encode: |v| {
            v.as_any().downcast_ref::<BatchResult>().map(|res| {
                let mut w = WireWriter::new();
                w.put_bytes(&res.bytes);
                w.put_u64(res.ops);
                w.put_u64(res.scanned);
                w.into_vec()
            })
        },
        decode: |r| {
            let res = BatchResult {
                bytes: r.get_bytes()?,
                ops: r.get_u64()?,
                scanned: r.get_u64()?,
            };
            Ok(Box::new(res) as Box<dyn StoreValue>)
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp::Messenger;
    use navp_net::registry::{decode_messenger, decode_value, encode_messenger, encode_value};

    #[test]
    fn messengers_round_trip_through_the_registry() {
        register_net();
        let cfg = KvConfig::new(60, 3);
        let mut batch = BatchCarrier::new(cfg, 4, 1, 0);
        batch.pos = 2;
        batch.results = vec![1, 2, 3];
        batch.scan = Some(ScanState {
            start: 5,
            end: 10,
            limit: 4,
            next_pe: 2,
            acc: vec![(6, 77), (7, 88)],
        });
        let wire = encode_messenger(&batch).expect("encode batch");
        let back = decode_messenger(&wire).expect("decode batch");
        let snap = back.wire_snapshot().expect("re-snapshot");
        assert_eq!(snap.tag, BATCH_TAG);
        assert_eq!(snap.bytes, encode_batch_carrier(&batch));

        let mut dsc = DscKvCarrier::new(cfg, 4, 0);
        dsc.next_batch = 2;
        dsc.inner = Some(BatchCarrier::new(cfg, 4, 1, 0));
        let wire = encode_messenger(&dsc).expect("encode dsc");
        let back = decode_messenger(&wire).expect("decode dsc");
        assert_eq!(back.wire_snapshot().unwrap().bytes, encode_dsc_carrier(&dsc));

        let comp = Compactor::new(4, 2);
        let wire = encode_messenger(&comp).expect("encode compactor");
        let back = decode_messenger(&wire).expect("decode compactor");
        assert_eq!(back.wire_snapshot().unwrap().bytes, encode_compactor(&comp));
    }

    #[test]
    fn shard_and_result_values_round_trip() {
        register_net();
        let mut shard = Shard::new();
        for k in 0..32u64 {
            shard.put(k, vec![k as u8; 24]);
        }
        for k in 0..8u64 {
            shard.delete(k * 3);
        }
        let (tag, bytes) = encode_value(&shard).expect("encode shard");
        assert_eq!(tag, SHARD_TAG);
        let back = decode_value(tag, &bytes).expect("decode shard");
        assert_eq!(back.as_any().downcast_ref::<Shard>(), Some(&shard));

        let res = BatchResult {
            bytes: vec![9, 8, 7],
            ops: 12,
            scanned: 3,
        };
        let (tag, bytes) = encode_value(&res).expect("encode result");
        assert_eq!(tag, RESULT_TAG);
        let back = decode_value(tag, &bytes).expect("decode result");
        assert_eq!(back.as_any().downcast_ref::<BatchResult>(), Some(&res));
    }

    #[test]
    fn decoders_reject_malformed_shapes() {
        let cfg = KvConfig::new(10, 2);
        let mut w = WireWriter::new();
        put_cfg(&mut w, &cfg);
        w.put_usize(4); // pes
        w.put_usize(9); // batch out of range
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert!(decode_batch_carrier(&mut r).is_err());
    }
}
