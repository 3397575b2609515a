//! Shared plumbing for the stage implementations: key naming, topology,
//! cost charging, data placement and result collection.

use crate::config::{MmConfig, Payload};
use navp_matrix::{BlockData, Dist1D, Dist2D, Grid2D, Matrix, MatrixError};
use navp_sim::key::Key;
use navp_sim::store::NodeStore;

/// Node-variable key of algorithmic block `A(bi, bk)`.
pub fn a_key(bi: usize, bk: usize) -> Key {
    Key::at2("A", bi, bk)
}

/// Node-variable key of algorithmic block `B(bk, bj)`.
pub fn b_key(bk: usize, bj: usize) -> Key {
    Key::at2("B", bk, bj)
}

/// Node-variable key of algorithmic block `C(bi, bj)`.
pub fn c_key(bi: usize, bj: usize) -> Key {
    Key::at2("C", bi, bj)
}

/// Key of the B column *deposit* left by a 2-D DSC `ColCarrier`
/// (`B(bk, mj)` copied down PE column `mj`).
pub fn bdep_key(bk: usize, mj: usize) -> Key {
    Key::at2("Bdep", bk, mj)
}

/// Key of the single B *slot* of C-block `(bi, bj)` used by the 2-D
/// pipelined/DPC stages' BCarrier–ACarrier ping-pong.
pub fn bslot_key(bi: usize, bj: usize) -> Key {
    Key::at2("Bslot", bi, bj)
}

/// `EP` event: "B for inner index `k` is in place at slot `slot`".
///
/// The paper keys `EP`/`EC` by node only and relies on MESSENGERS' FIFO
/// event queues to pair the k-th deposit with the k-th consumer. Our
/// threaded executor gives no cross-PE FIFO guarantee, so we key the
/// events by `(slot, k)` — the same number of signals and waits, the
/// same synchronization volume, but correct under any scheduling.
pub fn ep_key(slot: usize, k: usize) -> Key {
    Key::at2("EP", slot, k)
}

/// `EC` event: "the B previously in slot `slot` has been consumed; the
/// deposit for inner index `k` may proceed". See [`ep_key`].
pub fn ec_key(slot: usize, k: usize) -> Key {
    Key::at2("EC", slot, k)
}

/// `EP` event of the 2-D DSC stage: "the B column `mj` deposit needed by
/// block-row carrier `mi` is in place".
pub fn ep_col_key(mj: usize, mi: usize) -> Key {
    Key::at2("EPc", mj, mi)
}

/// A 1-D west→east PE line with block columns banded over it (Fig. 4).
#[derive(Clone, Copy, Debug)]
pub struct Topo1D {
    /// Number of PEs.
    pub pes: usize,
    /// Banding of the `nb` block indices over the PEs.
    pub dist: Dist1D,
}

impl Topo1D {
    /// Build a 1-D topology for a problem with `nb` blocks per side.
    pub fn new(nb: usize, pes: usize) -> Result<Topo1D, MatrixError> {
        Ok(Topo1D {
            pes,
            dist: Dist1D::new(nb, pes)?,
        })
    }

    /// PE owning block column `bj`.
    pub fn pe_of_col(&self, bj: usize) -> usize {
        self.dist.pe_of(bj)
    }
}

/// A 2-D PE grid with block rows banded over grid rows and block columns
/// over grid columns (Fig. 10).
#[derive(Clone, Copy, Debug)]
pub struct Topo2D {
    /// The PE grid.
    pub grid: Grid2D,
    /// Bandings in each dimension.
    pub dist: Dist2D,
}

impl Topo2D {
    /// Build a 2-D topology for a problem with `nb` blocks per side.
    pub fn new(nb: usize, grid: Grid2D) -> Result<Topo2D, MatrixError> {
        Ok(Topo2D {
            grid,
            dist: Dist2D::new(nb, grid)?,
        })
    }

    /// Flat PE id of the node hosting C-block `(bi, bj)` — the paper's
    /// `node(i, j)` at block granularity.
    pub fn node_of_block(&self, bi: usize, bj: usize) -> usize {
        let (v, h) = self.dist.owner(bi, bj);
        self.grid.node(v, h)
    }
}

/// Flops of one `ab`-order block gemm.
pub fn gemm_flops(ab: usize) -> u64 {
    2 * (ab as u64).pow(3)
}

/// Bytes touched by one block gemm (three blocks), the uniform accounting
/// every implementation charges to the paging model.
pub fn gemm_touched(ab: usize) -> u64 {
    3 * (ab * ab * 8) as u64
}

/// Insert a block into a store under `key`, declaring its bytes.
pub fn insert_block(store: &mut NodeStore, key: Key, block: BlockData) {
    let bytes = block.bytes();
    store.insert(key, block, bytes);
}

/// A fresh zero C block matching the payload mode.
pub fn new_c_block(payload: Payload, ab: usize) -> BlockData {
    match payload {
        Payload::Real { .. } => BlockData::zeros(ab, ab),
        Payload::Phantom => BlockData::phantom(ab, ab),
    }
}

/// Gather the product out of post-run stores: block `(bi, bj)` is taken
/// from the store `owner(bi, bj)` under [`c_key`]. Returns `Ok(None)` for
/// phantom payloads (after checking every block exists) and the assembled
/// dense matrix for real ones.
pub fn collect_c(
    stores: &mut [NodeStore],
    cfg: &MmConfig,
    owner: impl Fn(usize, usize) -> usize,
) -> Result<Option<Matrix>, MatrixError> {
    let (nb, ab) = (cfg.nb(), cfg.ab);
    let mut out = Matrix::zeros(cfg.n, cfg.n);
    let mut any_phantom = false;
    for bi in 0..nb {
        for bj in 0..nb {
            let pe = owner(bi, bj);
            let block: BlockData = stores[pe]
                .take(c_key(bi, bj))
                .ok_or(MatrixError::Degenerate("missing C block after run"))?;
            match block.as_real() {
                Ok(m) => out.set_submatrix(bi * ab, bj * ab, m),
                Err(_) => any_phantom = true,
            }
        }
    }
    Ok((!any_phantom).then_some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use navp_matrix::BlockedMatrix;

    #[test]
    fn keys_are_distinct_namespaces() {
        assert_ne!(a_key(1, 2), b_key(1, 2));
        assert_ne!(b_key(1, 2), c_key(1, 2));
        assert_ne!(ep_key(1, 2), ec_key(1, 2));
        assert_ne!(bdep_key(0, 0), bslot_key(0, 0));
    }

    #[test]
    fn topo1d_banding() {
        let t = Topo1D::new(12, 3).unwrap();
        assert_eq!(t.pe_of_col(0), 0);
        assert_eq!(t.pe_of_col(11), 2);
        assert!(Topo1D::new(10, 3).is_err());
    }

    #[test]
    fn topo2d_node_mapping() {
        let t = Topo2D::new(6, Grid2D::new(3, 3).unwrap()).unwrap();
        // Block (5, 0) -> grid (2, 0) -> flat 6.
        assert_eq!(t.node_of_block(5, 0), 6);
        assert_eq!(t.node_of_block(0, 5), 2);
    }

    #[test]
    fn charge_quantities() {
        assert_eq!(gemm_flops(128), 2 * 128u64.pow(3));
        assert_eq!(gemm_touched(128), 3 * 128 * 128 * 8);
    }

    #[test]
    fn collect_assembles_real_blocks() {
        let cfg = MmConfig::real(4, 2);
        let mut stores = vec![NodeStore::new(), NodeStore::new()];
        // Put C blocks: col 0 blocks on PE0, col 1 on PE1.
        let m = navp_matrix::gen::indexed_matrix(4);
        let bm = BlockedMatrix::from_matrix(&m, 2).unwrap();
        for (bj, store) in stores.iter_mut().enumerate() {
            for bi in 0..2 {
                insert_block(store, c_key(bi, bj), bm.block(bi, bj).clone());
            }
        }
        let got = collect_c(&mut stores, &cfg, |_bi, bj| bj).unwrap().unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn collect_reports_missing() {
        let cfg = MmConfig::real(4, 2);
        let mut stores = vec![NodeStore::new()];
        assert!(collect_c(&mut stores, &cfg, |_, _| 0).is_err());
    }

    #[test]
    fn collect_phantom_is_none() {
        let cfg = MmConfig::phantom(4, 2);
        let mut stores = vec![NodeStore::new()];
        for bi in 0..2 {
            for bj in 0..2 {
                insert_block(&mut stores[0], c_key(bi, bj), BlockData::phantom(2, 2));
            }
        }
        assert!(collect_c(&mut stores, &cfg, |_, _| 0).unwrap().is_none());
    }
}
