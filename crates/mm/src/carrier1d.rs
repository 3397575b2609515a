//! The migrating carriers of the 1-D stages.
//!
//! At block granularity (the paper's "take each element as a sub-matrix
//! block"), a row carrier owns one block row of `A` as its agent
//! variable `mA` and walks the block *columns* in a stage-specific
//! sequence, computing `C(mi, col) = Σ_k mA(k) · B(k, col)` wherever the
//! column lives. Hops between blocks that share a PE are local and free,
//! so the fine-grain pseudocode and this block version induce the same
//! inter-PE traffic.

use crate::config::MmConfig;
use crate::net;
use crate::util::{a_key, b_key, c_key, gemm_flops, gemm_touched, insert_block, new_c_block, Topo1D};
use navp::{Effect, Messenger, MsgrCtx, NodeId, WireSnapshot};
use navp_matrix::block::PackedA;
use navp_matrix::BlockData;
use navp_net::codec::{DecodeError, WireReader, WireWriter};

/// A carrier computing exactly one block row `mi` of `C`.
///
/// * `pipe1d` (Fig. 7) uses `start_col = 0` and home PE 0;
/// * `phase1d` (Fig. 9) uses `start_col = (nb-1-mi) % nb` — the paper's
///   `hop(node((N-1-mi+mj) % N))` — and home `pe_of(mi)`.
#[derive(Clone)]
pub struct RowCarrier {
    cfg: MmConfig,
    topo: Topo1D,
    /// Block row this carrier owns.
    pub mi: usize,
    start_col: usize,
    mj: usize,
    m_a: Vec<BlockData>,
    picked: bool,
}

impl RowCarrier {
    /// Build a carrier for block row `mi` starting its column walk at
    /// `start_col`. Inject it on the PE holding `A(mi, *)`.
    pub fn new(cfg: MmConfig, topo: Topo1D, mi: usize, start_col: usize) -> RowCarrier {
        RowCarrier {
            cfg,
            topo,
            mi,
            start_col,
            mj: 0,
            m_a: Vec::new(),
            picked: false,
        }
    }

    fn col(&self, mj: usize) -> usize {
        (self.start_col + mj) % self.cfg.nb()
    }

    pub(crate) fn wire_put(&self, w: &mut WireWriter) {
        net::put_cfg(w, &self.cfg);
        net::put_topo1(w, &self.topo);
        w.put_usize(self.mi);
        w.put_usize(self.start_col);
        w.put_usize(self.mj);
        net::put_blocks(w, &self.m_a);
        w.put_bool(self.picked);
    }

    pub(crate) fn wire_decode(r: &mut WireReader<'_>) -> Result<RowCarrier, DecodeError> {
        Ok(RowCarrier {
            cfg: net::get_cfg(r)?,
            topo: net::get_topo1(r)?,
            mi: r.get_usize()?,
            start_col: r.get_usize()?,
            mj: r.get_usize()?,
            m_a: net::get_blocks(r)?,
            picked: r.get_bool()?,
        })
    }

    /// Pick up `mA(*) = A(mi, *)` from the local store.
    fn pick_up(&mut self, ctx: &mut MsgrCtx<'_>) {
        let nb = self.cfg.nb();
        self.m_a = (0..nb)
            .map(|k| {
                ctx.store()
                    .take::<BlockData>(a_key(self.mi, k))
                    .expect("A block row resident where the carrier starts")
            })
            .collect();
        ctx.charge_touched(self.m_a.iter().map(BlockData::bytes).sum());
        self.picked = true;
    }

    /// Compute `C(mi, col)` on the current PE from `row`, this
    /// carrier's `mA` packed for the visit.
    fn compute_col(&self, ctx: &mut MsgrCtx<'_>, col: usize, row: &[PackedA<'_>]) {
        let mut c = new_c_block(self.cfg.payload, self.cfg.ab);
        for (k, a_blk) in row.iter().enumerate() {
            let b = ctx
                .store()
                .get::<BlockData>(b_key(k, col))
                .expect("B column resident on its owner PE");
            c.gemm_acc_packed(a_blk, b).expect("uniform block shapes");
            ctx.charge_flops(gemm_flops(self.cfg.ab));
            ctx.charge_touched(gemm_touched(self.cfg.ab));
        }
        insert_block(ctx.store(), c_key(self.mi, col), c);
    }
}

impl Messenger for RowCarrier {
    fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
        let nb = self.cfg.nb();
        if !self.picked {
            self.pick_up(ctx);
            return Effect::Hop(self.topo.pe_of_col(self.col(0)));
        }
        // A messenger runs until it leaves the PE (MESSENGERS' daemon is
        // not preemptive), so all consecutive columns resident here are
        // one step — this is what lets a pipelined successor start on
        // this PE only after we are done with it, and not interleave.
        // `mA` is packed once for the visit and dropped when it ends.
        let row: Vec<PackedA<'_>> = self.m_a.iter().map(BlockData::pack_a).collect();
        loop {
            let col = self.col(self.mj);
            debug_assert_eq!(ctx.here(), self.topo.pe_of_col(col));
            self.compute_col(ctx, col, &row);
            self.mj += 1;
            if self.mj == nb {
                return Effect::Done;
            }
            let next = self.topo.pe_of_col(self.col(self.mj));
            if next != ctx.here() {
                return Effect::Hop(next);
            }
        }
    }

    fn payload_bytes(&self) -> u64 {
        self.m_a.iter().map(BlockData::bytes).sum()
    }

    fn label(&self) -> String {
        format!("RowCarrier({})", self.mi)
    }

    fn snapshot(&self) -> Option<Box<dyn Messenger>> {
        Some(Box::new(self.clone()))
    }

    fn wire_snapshot(&self) -> Option<WireSnapshot> {
        let mut w = WireWriter::new();
        self.wire_put(&mut w);
        Some(WireSnapshot::new("mm.RowCarrier", w.into_vec()))
    }
}

/// The single thread of 1-D DSC (Fig. 5): computes *every* block row,
/// returning to PE 0 between rows to pick up the next one.
#[derive(Clone)]
pub struct DscCarrier {
    inner: Option<RowCarrier>,
    cfg: MmConfig,
    topo: Topo1D,
    next_row: usize,
    home: NodeId,
}

impl DscCarrier {
    /// Build the DSC thread; inject it on `home` (PE 0, which holds A).
    pub fn new(cfg: MmConfig, topo: Topo1D, home: NodeId) -> DscCarrier {
        DscCarrier {
            inner: None,
            cfg,
            topo,
            next_row: 0,
            home,
        }
    }

    pub(crate) fn wire_decode(r: &mut WireReader<'_>) -> Result<DscCarrier, DecodeError> {
        let inner = if r.get_bool()? {
            Some(RowCarrier::wire_decode(r)?)
        } else {
            None
        };
        Ok(DscCarrier {
            inner,
            cfg: net::get_cfg(r)?,
            topo: net::get_topo1(r)?,
            next_row: r.get_usize()?,
            home: r.get_usize()?,
        })
    }
}

impl Messenger for DscCarrier {
    fn step(&mut self, ctx: &mut MsgrCtx<'_>) -> Effect {
        loop {
            if let Some(row) = self.inner.as_mut() {
                match row.step(ctx) {
                    Effect::Done => {
                        self.inner = None;
                        if self.next_row == self.cfg.nb() {
                            return Effect::Done;
                        }
                        // Back to home to pick up the next row (Fig. 5's
                        // return to node(0) at mj = 0).
                        return Effect::Hop(self.home);
                    }
                    other => return other,
                }
            }
            debug_assert_eq!(ctx.here(), self.home);
            self.inner = Some(RowCarrier::new(self.cfg, self.topo, self.next_row, 0));
            self.next_row += 1;
            // Continue the loop: the fresh row carrier picks up and hops
            // within this same arrival when its first column is local.
        }
    }

    fn payload_bytes(&self) -> u64 {
        self.inner.as_ref().map_or(0, RowCarrier::payload_bytes)
    }

    fn label(&self) -> String {
        "DSC".to_string()
    }

    fn snapshot(&self) -> Option<Box<dyn Messenger>> {
        Some(Box::new(self.clone()))
    }

    fn wire_snapshot(&self) -> Option<WireSnapshot> {
        let mut w = WireWriter::new();
        match &self.inner {
            Some(row) => {
                w.put_bool(true);
                row.wire_put(&mut w);
            }
            None => w.put_bool(false),
        }
        net::put_cfg(&mut w, &self.cfg);
        net::put_topo1(&mut w, &self.topo);
        w.put_usize(self.next_row);
        w.put_usize(self.home);
        Some(WireSnapshot::new("mm.DSC", w.into_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp::Cluster;

    /// Drive a carrier through a 1-PE cluster so every hop is local.
    #[test]
    fn row_carrier_computes_one_row() {
        let cfg = MmConfig::real(6, 2);
        let topo = Topo1D::new(3, 1).unwrap();
        let (a, b) = cfg.operands().unwrap();
        let mut cl = Cluster::new(1).unwrap();
        for bi in 0..3 {
            for bj in 0..3 {
                insert_block(cl.store_mut(0), a_key(bi, bj), a.block(bi, bj).clone());
                insert_block(cl.store_mut(0), b_key(bi, bj), b.block(bi, bj).clone());
            }
        }
        cl.inject(0, RowCarrier::new(cfg, topo, 1, 2));
        let rep = navp::SimExecutor::new(navp_sim::CostModel::paper_cluster())
            .run(cl)
            .unwrap();
        let want = cfg.expected().unwrap().unwrap();
        for bj in 0..3 {
            let got: &BlockData = rep.stores[0].get(c_key(1, bj)).unwrap();
            let got = got.as_real().unwrap();
            let want_blk = want.submatrix(2, bj * 2, 2, 2);
            assert!(want_blk.max_abs_diff(got) < 1e-10, "col {bj}");
        }
        // Rows 0 and 2 untouched.
        assert!(!rep.stores[0].contains(c_key(0, 0)));
    }

    #[test]
    fn carrier_payload_appears_after_pickup() {
        let cfg = MmConfig::phantom(8, 2);
        let topo = Topo1D::new(4, 1).unwrap();
        let c = RowCarrier::new(cfg, topo, 0, 0);
        assert_eq!(c.payload_bytes(), 0);
        // After a run the payload was carried; verified indirectly by the
        // executor-level hop-bytes assertions in the stage tests.
    }
}
