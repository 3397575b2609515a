//! Wire codecs for networked (multi-process) runs of the case study.
//!
//! Every carrier in the incremental chain snapshots its agent variables
//! into a [`WireSnapshot`] (see each carrier's `wire_snapshot`); this
//! module holds the shared field codecs — config, topologies, blocks —
//! and [`register_net`], which installs the decode half of every
//! messenger plus the store-value codecs (`mm.Block`, `mm.BSlot`) into
//! the `navp-net` registry. Both the driver and the `navp-pe` binary
//! call it before a run.

use crate::carrier1d::{DscCarrier, RowCarrier};
use crate::carrier2d::{ACarrier, BCarrier, BSlot};
use crate::config::{MmConfig, Payload};
use crate::dsc2d::{ColCarrier, RowCarrier2D};
use crate::launch::Launcher;
use crate::util::{Topo1D, Topo2D};
use navp_matrix::{BlockData, Grid2D, Matrix};
use navp_net::codec::{DecodeError, WireReader, WireWriter};
use navp_net::registry::{register_messenger, register_value, ValueCodec};
use navp_sim::store::StoreValue;

pub(crate) fn put_cfg(w: &mut WireWriter, cfg: &MmConfig) {
    w.put_usize(cfg.n);
    w.put_usize(cfg.ab);
    match cfg.payload {
        Payload::Real { seed_a, seed_b } => {
            w.put_u8(0);
            w.put_u64(seed_a);
            w.put_u64(seed_b);
        }
        Payload::Phantom => w.put_u8(1),
    }
}

pub(crate) fn get_cfg(r: &mut WireReader<'_>) -> Result<MmConfig, DecodeError> {
    let n = r.get_usize()?;
    let ab = r.get_usize()?;
    let payload = match r.get_u8()? {
        0 => Payload::Real {
            seed_a: r.get_u64()?,
            seed_b: r.get_u64()?,
        },
        1 => Payload::Phantom,
        _ => return Err(DecodeError::BadValue("payload kind")),
    };
    Ok(MmConfig { n, ab, payload })
}

pub(crate) fn put_topo1(w: &mut WireWriter, t: &Topo1D) {
    w.put_usize(t.dist.nb());
    w.put_usize(t.pes);
}

pub(crate) fn get_topo1(r: &mut WireReader<'_>) -> Result<Topo1D, DecodeError> {
    let nb = r.get_usize()?;
    let pes = r.get_usize()?;
    Topo1D::new(nb, pes).map_err(|_| DecodeError::BadValue("1-D topology"))
}

pub(crate) fn put_topo2(w: &mut WireWriter, t: &Topo2D) {
    w.put_usize(t.dist.row.nb());
    w.put_usize(t.grid.rows);
    w.put_usize(t.grid.cols);
}

pub(crate) fn get_topo2(r: &mut WireReader<'_>) -> Result<Topo2D, DecodeError> {
    let nb = r.get_usize()?;
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let grid = Grid2D::new(rows, cols).map_err(|_| DecodeError::BadValue("grid"))?;
    Topo2D::new(nb, grid).map_err(|_| DecodeError::BadValue("2-D topology"))
}

pub(crate) fn put_block(w: &mut WireWriter, b: &BlockData) {
    match b {
        BlockData::Real(m) => {
            w.put_u8(0);
            w.put_usize(m.rows());
            w.put_usize(m.cols());
            w.put_f64_slice(m.as_slice());
        }
        BlockData::Phantom { rows, cols } => {
            w.put_u8(1);
            w.put_usize(*rows);
            w.put_usize(*cols);
        }
    }
}

pub(crate) fn get_block(r: &mut WireReader<'_>) -> Result<BlockData, DecodeError> {
    match r.get_u8()? {
        0 => {
            let rows = r.get_usize()?;
            let cols = r.get_usize()?;
            let data = r.get_f64_slice()?;
            let m = Matrix::from_vec(rows, cols, data)
                .map_err(|_| DecodeError::BadValue("block shape"))?;
            Ok(BlockData::real(m))
        }
        1 => Ok(BlockData::Phantom {
            rows: r.get_usize()?,
            cols: r.get_usize()?,
        }),
        _ => Err(DecodeError::BadValue("block kind")),
    }
}

pub(crate) fn put_blocks(w: &mut WireWriter, blocks: &[BlockData]) {
    w.put_u32(blocks.len() as u32);
    for b in blocks {
        put_block(w, b);
    }
}

pub(crate) fn get_blocks(r: &mut WireReader<'_>) -> Result<Vec<BlockData>, DecodeError> {
    let n = r.get_u32()?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(get_block(r)?);
    }
    Ok(out)
}

pub(crate) fn put_opt_block(w: &mut WireWriter, b: &Option<BlockData>) {
    match b {
        Some(b) => {
            w.put_bool(true);
            put_block(w, b);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn get_opt_block(r: &mut WireReader<'_>) -> Result<Option<BlockData>, DecodeError> {
    Ok(if r.get_bool()? {
        Some(get_block(r)?)
    } else {
        None
    })
}

/// Install the case study's wire codecs: decode functions for all six
/// carriers and the launcher, plus the `mm.Block` / `mm.BSlot`
/// store-value codecs. Idempotent; call before any networked run (the
/// `navp-pe` binary calls it at startup).
pub fn register_net() {
    register_messenger("mm.RowCarrier", |r| Ok(Box::new(RowCarrier::wire_decode(r)?)));
    register_messenger("mm.DSC", |r| Ok(Box::new(DscCarrier::wire_decode(r)?)));
    register_messenger("mm.ACarrier", |r| Ok(Box::new(ACarrier::wire_decode(r)?)));
    register_messenger("mm.BCarrier", |r| Ok(Box::new(BCarrier::wire_decode(r)?)));
    register_messenger("mm.RowCarrier2D", |r| {
        Ok(Box::new(RowCarrier2D::wire_decode(r)?))
    });
    register_messenger("mm.ColCarrier", |r| Ok(Box::new(ColCarrier::wire_decode(r)?)));
    register_messenger("mm.Launcher", |r| Ok(Box::new(Launcher::wire_decode(r)?)));
    register_value(ValueCodec {
        tag: "mm.Block",
        try_encode: |v| {
            v.as_any().downcast_ref::<BlockData>().map(|b| {
                let mut w = WireWriter::new();
                put_block(&mut w, b);
                w.into_vec()
            })
        },
        decode: |r| Ok(Box::new(get_block(r)?) as Box<dyn StoreValue>),
    });
    register_value(ValueCodec {
        tag: "mm.BSlot",
        try_encode: |v| {
            v.as_any().downcast_ref::<BSlot>().map(|(k, b)| {
                let mut w = WireWriter::new();
                w.put_usize(*k);
                put_block(&mut w, b);
                w.into_vec()
            })
        },
        decode: |r| {
            let k = r.get_usize()?;
            let b = get_block(r)?;
            Ok(Box::new((k, b)) as Box<dyn StoreValue>)
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_net::registry::{decode_messenger, decode_value, encode_messenger, encode_value};

    #[test]
    fn cfg_topo_and_block_roundtrip() {
        let mut w = WireWriter::new();
        let cfg = MmConfig::real(12, 2);
        put_cfg(&mut w, &cfg);
        put_topo1(&mut w, &Topo1D::new(6, 3).unwrap());
        let t2 = Topo2D::new(6, Grid2D::new(2, 3).unwrap()).unwrap();
        put_topo2(&mut w, &t2);
        put_block(&mut w, &BlockData::phantom(4, 4));
        let real = {
            let m = navp_matrix::gen::seeded_matrix(3, 7);
            BlockData::real(m)
        };
        put_block(&mut w, &real);
        let buf = w.into_vec();

        let mut r = WireReader::new(&buf);
        assert_eq!(get_cfg(&mut r).unwrap(), cfg);
        let t1 = get_topo1(&mut r).unwrap();
        assert_eq!((t1.pes, t1.dist.nb()), (3, 6));
        let t2b = get_topo2(&mut r).unwrap();
        assert_eq!(t2b.grid, t2.grid);
        assert!(get_block(&mut r).unwrap().is_phantom());
        assert_eq!(get_block(&mut r).unwrap(), real);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn a_packed_block_encodes_as_its_values() {
        let m = navp_matrix::gen::seeded_matrix(8, 5);
        let packed = BlockData::real(m.clone());
        // Use it as a `B` operand, which fills its pack.
        BlockData::zeros(8, 8).gemm_acc(&BlockData::real(m.clone()), &packed).unwrap();
        let bytes = |b: &BlockData| {
            let mut w = WireWriter::new();
            put_block(&mut w, b);
            w.into_vec()
        };
        assert_eq!(bytes(&packed), bytes(&BlockData::real(m)));
        let buf = bytes(&packed);
        assert_eq!(get_block(&mut WireReader::new(&buf)).unwrap(), packed);
    }

    #[test]
    fn block_value_codec_claims_blocks() {
        register_net();
        let b = BlockData::real(navp_matrix::gen::seeded_matrix(2, 3));
        let (tag, bytes) = encode_value(&b).unwrap();
        assert_eq!(tag, "mm.Block");
        let back = decode_value(tag, &bytes).unwrap();
        assert_eq!(back.as_any().downcast_ref::<BlockData>(), Some(&b));

        let slot: BSlot = (4, BlockData::phantom(2, 2));
        let (tag, bytes) = encode_value(&slot).unwrap();
        assert_eq!(tag, "mm.BSlot");
        let back = decode_value(tag, &bytes).unwrap();
        assert_eq!(back.as_any().downcast_ref::<BSlot>(), Some(&slot));
    }

    #[test]
    fn every_carrier_roundtrips_through_the_registry() {
        register_net();
        let cfg = MmConfig::real(8, 2);
        let t1 = Topo1D::new(4, 2).unwrap();
        let t2 = Topo2D::new(4, Grid2D::new(2, 2).unwrap()).unwrap();
        let carriers: Vec<Box<dyn navp::Messenger>> = vec![
            Box::new(RowCarrier::new(cfg, t1, 1, 3)),
            Box::new(DscCarrier::new(cfg, t1, 0)),
            Box::new(ACarrier::new(cfg, t2, 1, 2, 3)),
            Box::new(BCarrier::new(cfg, t2, 2, 1, 0)),
            Box::new(RowCarrier2D::new(cfg, t2, 3)),
            Box::new(ColCarrier::new(cfg, t2, 2)),
        ];
        for m in carriers {
            let snap = encode_messenger(m.as_ref()).unwrap();
            let back = decode_messenger(&snap).unwrap();
            assert_eq!(back.label(), m.label());
            // Decoded state re-encodes to the same bytes: the snapshot
            // captures every agent variable.
            assert_eq!(encode_messenger(back.as_ref()).unwrap().bytes, snap.bytes);
        }
    }

    #[test]
    fn launcher_snapshot_carries_nested_messengers() {
        use crate::launch::Stop;
        register_net();
        let cfg = MmConfig::phantom(8, 2);
        let t1 = Topo1D::new(4, 2).unwrap();
        let l = Launcher::new(
            "test-launch",
            vec![
                Stop {
                    pe: 1,
                    inject: vec![Box::new(RowCarrier::new(cfg, t1, 0, 0))],
                    signal: vec![navp::Key::at2("EC", 3, 0)],
                },
                Stop::inject_one(0, RowCarrier::new(cfg, t1, 1, 1)),
            ],
        );
        let snap = encode_messenger(&l).unwrap();
        assert_eq!(snap.tag, "mm.Launcher");
        let back = decode_messenger(&snap).unwrap();
        assert_eq!(back.label(), "test-launch");
        assert_eq!(encode_messenger(back.as_ref()).unwrap().bytes, snap.bytes);
    }
}
