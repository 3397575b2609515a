//! Matrices decomposed into *algorithmic blocks*.
//!
//! The paper distinguishes **distribution blocks** (the chunk of a matrix
//! resident on one PE) from **algorithmic blocks** (the unit a migrating
//! carrier moves and the kernel multiplies). [`BlockedMatrix`] stores a
//! square matrix as an `nb x nb` grid of `ab x ab` blocks, where
//! `nb = n / ab`.
//!
//! Blocks are [`BlockData`]: either `Real` (actual `f64` payload, used when
//! verifying correctness) or `Phantom` (logical shape only, used when a
//! simulation replays the paper's problem sizes — order up to 9216 — purely
//! under the cost model).

use crate::dense::Matrix;
use crate::error::MatrixError;
use crate::gen::SplitMix64;
use crate::kernel;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The shared payload of a real block: its values, plus the kernel
/// panels of its `B` role, packed the first time the block is used as
/// a `B` operand.
///
/// Everything that clones the [`Arc`] around a payload (store clones,
/// snapshots, checkpoints, the PE threads) shares that pack, so a
/// resident `B` block is packed once however many carriers use it. The
/// pack is a cache of the values and nothing else sees it: [`Clone`]
/// starts the copy without one, the only `&mut` access to the values
/// drops it, and equality, [`BlockData::bytes`] and the wire codec
/// read only the values.
pub struct RealBlock {
    m: Matrix,
    pack_b: OnceLock<Vec<f64>>,
}

impl RealBlock {
    fn new(m: Matrix) -> RealBlock {
        RealBlock {
            m,
            pack_b: OnceLock::new(),
        }
    }

    /// Mutable access to the values. Drops the pack, which the write
    /// may make stale.
    fn matrix_mut(&mut self) -> &mut Matrix {
        self.pack_b.take();
        &mut self.m
    }

    /// This block packed for the `B` role ([`kernel::pack_b`]), packed
    /// on first use.
    ///
    /// # Panics
    /// Panics when the block does not fit one kernel panel
    /// ([`kernel::fits_one_panel`]).
    fn packed_b(&self) -> &[f64] {
        self.pack_b
            .get_or_init(|| kernel::pack_b(self.m.as_slice(), self.m.rows(), self.m.cols()))
    }
}

impl Deref for RealBlock {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        &self.m
    }
}

impl Clone for RealBlock {
    fn clone(&self) -> RealBlock {
        RealBlock::new(self.m.clone())
    }
}

impl PartialEq for RealBlock {
    fn eq(&self, other: &RealBlock) -> bool {
        self.m == other.m
    }
}

impl fmt::Debug for RealBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.m.fmt(f)
    }
}

/// A block in the `A` role of [`BlockData::gemm_acc_packed`], with its
/// kernel panels packed once ([`BlockData::pack_a`]) for as long as the
/// holder keeps it: a carrier packs its `A` row when it arrives on a PE
/// and drops the packs when it leaves, so carried packs never pile up
/// while the carriers wait.
pub struct PackedA<'a> {
    block: &'a BlockData,
    panels: Option<Vec<f64>>,
}

/// The payload of one algorithmic block.
///
/// Real payloads live behind an [`Arc`] so cloning a block — which
/// happens on every messenger snapshot, checkpoint, and journal commit
/// — is a reference bump. The payload is only copied when a shared
/// block is actually accumulated into ([`BlockData::gemm_acc`] un-shares
/// via [`Arc::make_mut`]).
#[derive(Clone, Debug, PartialEq)]
pub enum BlockData {
    /// A real block with data; arithmetic actually happens.
    Real(Arc<RealBlock>),
    /// A placeholder with the logical shape of a block; arithmetic is
    /// skipped but costs (flops, bytes) are still accounted by callers.
    Phantom {
        /// Logical number of rows.
        rows: usize,
        /// Logical number of columns.
        cols: usize,
    },
}

impl BlockData {
    /// A real block wrapping `m` (single shared owner; no copy).
    pub fn real(m: Matrix) -> Self {
        BlockData::Real(Arc::new(RealBlock::new(m)))
    }

    /// A real block of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BlockData::real(Matrix::zeros(rows, cols))
    }

    /// A phantom block of the given logical shape.
    pub fn phantom(rows: usize, cols: usize) -> Self {
        BlockData::Phantom { rows, cols }
    }

    /// Logical `(rows, cols)` regardless of payload kind.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            BlockData::Real(m) => m.shape(),
            BlockData::Phantom { rows, cols } => (*rows, *cols),
        }
    }

    /// `true` for [`BlockData::Phantom`].
    pub fn is_phantom(&self) -> bool {
        matches!(self, BlockData::Phantom { .. })
    }

    /// Payload size in bytes a carrier pays to move this block. Phantom
    /// blocks report the bytes their *logical* payload would occupy, so
    /// simulations charge identical communication costs in both modes.
    pub fn bytes(&self) -> u64 {
        let (r, c) = self.shape();
        (r * c * std::mem::size_of::<f64>()) as u64
    }

    /// Flops of a `self += a * b` block update with these logical shapes.
    pub fn gemm_cost(a: &BlockData, b: &BlockData) -> u64 {
        let (m, k) = a.shape();
        let (_, n) = b.shape();
        kernel::gemm_flops(m, k, n)
    }

    /// `self += a * b`.
    ///
    /// Performs real arithmetic only when all three blocks are `Real`;
    /// shape compatibility is checked in both modes so phantom runs catch
    /// the same indexing bugs real runs would. `b`'s cached pack is used
    /// when the operands fit one kernel panel.
    pub fn gemm_acc(&mut self, a: &BlockData, b: &BlockData) -> Result<(), MatrixError> {
        let a = PackedA { block: a, panels: None };
        self.gemm_acc_packed(&a, b)
    }

    /// Pack this block for the `A` role of [`BlockData::gemm_acc_packed`].
    /// Phantom blocks, and blocks deeper than one kernel panel, stay
    /// unpacked.
    pub fn pack_a(&self) -> PackedA<'_> {
        let panels = match self {
            BlockData::Real(m) if m.cols() <= kernel::KC => {
                Some(kernel::pack_a(m.as_slice(), m.rows(), m.cols()))
            }
            _ => None,
        };
        PackedA { block: self, panels }
    }

    /// `self += a * b` with `a` packed by [`BlockData::pack_a`]. When the
    /// operands fit one kernel panel, `a`'s panels and `b`'s cached pack
    /// go to [`kernel::gemm_packed`]; otherwise the raw values go to
    /// [`kernel::gemm_acc`]. Every path gives the same bits.
    pub fn gemm_acc_packed(&mut self, a: &PackedA<'_>, b: &BlockData) -> Result<(), MatrixError> {
        let (m, ka) = a.block.shape();
        let (kb, n) = b.shape();
        let (cm, cn) = self.shape();
        if ka != kb || cm != m || cn != n {
            return Err(MatrixError::ShapeMismatch {
                op: "block gemm_acc",
                lhs: (m, ka),
                rhs: (kb, n),
            });
        }
        if let (BlockData::Real(c), BlockData::Real(ar), BlockData::Real(br)) = (self, a.block, b) {
            // Un-share `c` if a checkpoint still references it; the
            // accumulation then happens in place on the sole owner.
            let c = Arc::make_mut(c).matrix_mut().as_mut_slice();
            if kernel::fits_one_panel(ka, n) {
                let av = match &a.panels {
                    Some(p) => kernel::OperandA::Packed(p),
                    None => kernel::OperandA::Raw(ar.as_slice()),
                };
                kernel::gemm_packed(c, av, br.packed_b(), m, ka, n);
            } else {
                kernel::gemm_acc(c, ar.as_slice(), br.as_slice(), m, ka, n);
            }
        }
        // Mixing real and phantom blocks is a configuration error in
        // the caller, but the cost model still lines up, so treat any
        // phantom operand as a phantom update.
        Ok(())
    }

    /// Borrow the real payload, or fail for phantom blocks.
    pub fn as_real(&self) -> Result<&Matrix, MatrixError> {
        match self {
            BlockData::Real(m) => Ok(&m.m),
            BlockData::Phantom { .. } => Err(MatrixError::PhantomData("as_real")),
        }
    }
}

/// A square matrix of order `n` stored as a grid of `ab x ab` algorithmic
/// blocks (`ab` must divide `n`). Block `(bi, bj)` covers rows
/// `bi*ab..(bi+1)*ab` and columns `bj*ab..(bj+1)*ab` of the full matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockedMatrix {
    n: usize,
    ab: usize,
    nb: usize,
    blocks: Vec<BlockData>,
}

impl BlockedMatrix {
    /// Decompose `m` (square) into `ab x ab` real blocks.
    pub fn from_matrix(m: &Matrix, ab: usize) -> Result<Self, MatrixError> {
        let (r, c) = m.shape();
        if r != c {
            return Err(MatrixError::ShapeMismatch {
                op: "from_matrix (square required)",
                lhs: (r, c),
                rhs: (r, r),
            });
        }
        Self::check(r, ab)?;
        let nb = r / ab;
        Ok(BlockedMatrix {
            n: r,
            ab,
            nb,
            blocks: (0..nb * nb)
                .map(|i| BlockData::real(m.submatrix(i / nb * ab, i % nb * ab, ab, ab)))
                .collect(),
        })
    }

    /// The blocks of [`crate::gen::seeded_matrix`]`(n, seed)`, generated
    /// straight into `ab x ab` blocks: the same row-major stream, so the
    /// values are bitwise those of `from_matrix(&seeded_matrix(n, seed), ab)`
    /// without the dense intermediate.
    pub fn seeded(n: usize, ab: usize, seed: u64) -> Result<Self, MatrixError> {
        Self::check(n, ab)?;
        let nb = n / ab;
        let mut rng = SplitMix64(seed);
        let mut data: Vec<Vec<f64>> = (0..nb * nb).map(|_| Vec::with_capacity(ab * ab)).collect();
        for i in 0..n {
            let bi = i / ab;
            for blk in &mut data[bi * nb..(bi + 1) * nb] {
                blk.extend((0..ab).map(|_| rng.next_unit()));
            }
        }
        let blocks = data
            .into_iter()
            .map(|d| BlockData::real(Matrix::from_vec(ab, ab, d).expect("ab*ab values per block")))
            .collect();
        Ok(BlockedMatrix { n, ab, nb, blocks })
    }

    /// An all-zero real blocked matrix of order `n`.
    pub fn zeros(n: usize, ab: usize) -> Result<Self, MatrixError> {
        Self::check(n, ab)?;
        let nb = n / ab;
        Ok(BlockedMatrix {
            n,
            ab,
            nb,
            blocks: (0..nb * nb).map(|_| BlockData::zeros(ab, ab)).collect(),
        })
    }

    /// A phantom blocked matrix of order `n` — shapes and costs only.
    pub fn phantom(n: usize, ab: usize) -> Result<Self, MatrixError> {
        Self::check(n, ab)?;
        let nb = n / ab;
        Ok(BlockedMatrix {
            n,
            ab,
            nb,
            blocks: (0..nb * nb).map(|_| BlockData::phantom(ab, ab)).collect(),
        })
    }

    fn check(n: usize, ab: usize) -> Result<(), MatrixError> {
        if n == 0 || ab == 0 {
            return Err(MatrixError::Degenerate("matrix or block order is zero"));
        }
        if !n.is_multiple_of(ab) {
            return Err(MatrixError::IndivisibleBlock { n, block: ab });
        }
        Ok(())
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of blocks per side (`n / ab`).
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// `true` when every block is phantom.
    pub fn is_phantom(&self) -> bool {
        self.blocks.iter().all(BlockData::is_phantom)
    }

    /// Borrow block `(bi, bj)`.
    ///
    /// # Panics
    /// Panics when the block index is out of range.
    pub fn block(&self, bi: usize, bj: usize) -> &BlockData {
        assert!(bi < self.nb && bj < self.nb, "block index out of range");
        &self.blocks[bi * self.nb + bj]
    }

    /// Move block `(bi, bj)` out, leaving a phantom of the same shape —
    /// the blocked-matrix analogue of a carrier picking up its payload.
    pub fn take_block(&mut self, bi: usize, bj: usize) -> BlockData {
        let (r, c) = self.block(bi, bj).shape();
        std::mem::replace(
            &mut self.blocks[bi * self.nb + bj],
            BlockData::phantom(r, c),
        )
    }

    /// Store `data` into slot `(bi, bj)`.
    pub fn put_block(&mut self, bi: usize, bj: usize, data: BlockData) {
        assert!(bi < self.nb && bj < self.nb, "block index out of range");
        self.blocks[bi * self.nb + bj] = data;
    }

    /// Reassemble the full dense matrix. Fails if any block is phantom.
    pub fn to_matrix(&self) -> Result<Matrix, MatrixError> {
        let mut out = Matrix::zeros(self.n, self.n);
        for bi in 0..self.nb {
            for bj in 0..self.nb {
                let blk = self.block(bi, bj).as_real()?;
                out.set_submatrix(bi * self.ab, bj * self.ab, blk);
            }
        }
        Ok(out)
    }

    /// Blocked product `C = self * rhs` executed sequentially in the
    /// paper's Figure 2 loop order lifted to blocks (i, j, k over blocks).
    ///
    /// This is the **sequential baseline** every distributed implementation
    /// is verified against and timed relative to.
    pub fn multiply_blocked(&self, rhs: &BlockedMatrix) -> Result<BlockedMatrix, MatrixError> {
        if self.n != rhs.n || self.ab != rhs.ab {
            return Err(MatrixError::ShapeMismatch {
                op: "multiply_blocked",
                lhs: (self.n, self.ab),
                rhs: (rhs.n, rhs.ab),
            });
        }
        let mut c = if self.is_phantom() || rhs.is_phantom() {
            BlockedMatrix::phantom(self.n, self.ab)?
        } else {
            BlockedMatrix::zeros(self.n, self.ab)?
        };
        for bi in 0..self.nb {
            for bj in 0..self.nb {
                for bk in 0..self.nb {
                    let (a, b) = (self.block(bi, bk), rhs.block(bk, bj));
                    // Split borrow: c's block is disjoint from a and b.
                    c.blocks[bi * c.nb + bj].gemm_acc(a, b)?;
                }
            }
        }
        Ok(c)
    }

    /// Total flops of a blocked multiply of this order/blocking.
    pub fn multiply_flops(&self) -> u64 {
        2 * (self.n as u64).pow(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn construction_checks() {
        assert!(BlockedMatrix::zeros(6, 2).is_ok());
        assert!(matches!(
            BlockedMatrix::zeros(6, 4),
            Err(MatrixError::IndivisibleBlock { .. })
        ));
        assert!(BlockedMatrix::zeros(0, 1).is_err());
        assert!(BlockedMatrix::phantom(8, 0).is_err());
    }

    #[test]
    fn roundtrip_matrix_blocks() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let bm = BlockedMatrix::from_matrix(&m, 2).unwrap();
        assert_eq!(bm.nb(), 3);
        assert_eq!(bm.block(1, 2).as_real().unwrap()[(0, 0)], m[(2, 4)]);
        assert_eq!(bm.to_matrix().unwrap(), m);
    }

    #[test]
    fn blocked_multiply_matches_dense() {
        let a = gen::seeded_matrix(12, 42);
        let b = gen::seeded_matrix(12, 43);
        let want = a.multiply(&b).unwrap();
        for ab in [1, 2, 3, 4, 6, 12] {
            let ba = BlockedMatrix::from_matrix(&a, ab).unwrap();
            let bb = BlockedMatrix::from_matrix(&b, ab).unwrap();
            let got = ba.multiply_blocked(&bb).unwrap().to_matrix().unwrap();
            assert!(
                want.max_abs_diff(&got) < 1e-10,
                "mismatch at block order {ab}"
            );
        }
    }

    #[test]
    fn phantom_multiply_is_shape_only() {
        let a = BlockedMatrix::phantom(8, 2).unwrap();
        let b = BlockedMatrix::phantom(8, 2).unwrap();
        let c = a.multiply_blocked(&b).unwrap();
        assert!(c.is_phantom());
        assert!(c.to_matrix().is_err());
        assert_eq!(c.multiply_flops(), 2 * 8u64.pow(3));
    }

    #[test]
    fn take_and_put_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut bm = BlockedMatrix::from_matrix(&m, 2).unwrap();
        let blk = bm.take_block(0, 1);
        assert!(!blk.is_phantom());
        assert!(bm.block(0, 1).is_phantom());
        bm.put_block(0, 1, blk);
        assert_eq!(bm.to_matrix().unwrap(), m);
    }

    #[test]
    fn block_bytes_and_cost() {
        let a = BlockData::phantom(128, 128);
        assert_eq!(a.bytes(), 128 * 128 * 8);
        let b = BlockData::phantom(128, 128);
        assert_eq!(BlockData::gemm_cost(&a, &b), 2 * 128u64.pow(3));
    }

    /// Bit patterns of a real block's values.
    fn bits(b: &BlockData) -> Vec<u64> {
        b.as_real()
            .unwrap()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn cached_packs_match_the_raw_kernel_bitwise() {
        // Ragged orders exercise the micro-tile and MC-chunk tails;
        // KC + 3 exceeds one panel and takes the raw-slice path.
        for n in [1, 3, 5, 33, 130, kernel::KC + 3] {
            let a = gen::seeded_matrix(n, 7);
            let b = gen::seeded_matrix(n, 8);
            let c0 = gen::seeded_matrix(n, 9);
            let mut want = c0.as_slice().to_vec();
            kernel::gemm_acc(&mut want, a.as_slice(), b.as_slice(), n, n, n);
            let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
            let (a, b, c0) = (BlockData::real(a), BlockData::real(b), BlockData::real(c0));
            let packed = a.pack_a();
            // Twice: the first call packs `b`, the second reuses its pack.
            for _ in 0..2 {
                let mut raw_a = c0.clone();
                raw_a.gemm_acc(&a, &b).unwrap();
                assert_eq!(bits(&raw_a), want, "order {n}, A packed per call");
                let mut packed_a = c0.clone();
                packed_a.gemm_acc_packed(&packed, &b).unwrap();
                assert_eq!(bits(&packed_a), want, "order {n}, A packed ahead");
            }
        }
    }

    #[test]
    fn block_used_as_both_operands() {
        let m = gen::seeded_matrix(33, 3);
        let want = m.multiply(&m).unwrap();
        let ab = BlockData::real(m);
        let mut c = BlockData::zeros(33, 33);
        c.gemm_acc_packed(&ab.pack_a(), &ab).unwrap();
        assert_eq!(c.as_real().unwrap(), &want);
    }

    #[test]
    fn accumulated_block_drops_its_stale_pack() {
        let a = BlockData::real(gen::seeded_matrix(8, 1));
        let b = BlockData::real(gen::seeded_matrix(8, 2));
        let id = BlockData::real(Matrix::identity(8));
        // `c` is packed as a `B` operand, then written (uniquely owned,
        // so in place), then used as a `B` operand again.
        let mut c = BlockData::real(gen::seeded_matrix(8, 3));
        BlockData::zeros(8, 8).gemm_acc(&id, &c).unwrap();
        c.gemm_acc(&a, &b).unwrap();
        let mut got = BlockData::zeros(8, 8);
        got.gemm_acc(&id, &c).unwrap();
        let mut want = Matrix::zeros(8, 8);
        let (idm, cm) = (id.as_real().unwrap(), c.as_real().unwrap());
        kernel::gemm_acc(want.as_mut_slice(), idm.as_slice(), cm.as_slice(), 8, 8, 8);
        assert_eq!(got.as_real().unwrap(), &want);
    }

    #[test]
    fn clones_share_one_pack_and_copies_start_without() {
        let blk = BlockData::real(gen::seeded_matrix(16, 4));
        let alias = blk.clone();
        let (BlockData::Real(x), BlockData::Real(y)) = (&blk, &alias) else {
            unreachable!("real blocks");
        };
        assert!(std::ptr::eq(x.packed_b(), y.packed_b()));
        let copy = RealBlock::clone(x);
        assert!(copy.pack_b.get().is_none());
        assert_eq!(&copy, x.as_ref());
    }

    #[test]
    fn seeded_blocks_match_the_dense_stream() {
        for (n, ab) in [(12, 1), (12, 4), (12, 12), (256, 32)] {
            let want = BlockedMatrix::from_matrix(&gen::seeded_matrix(n, 77), ab).unwrap();
            let got = BlockedMatrix::seeded(n, ab, 77).unwrap();
            assert_eq!(got, want, "n={n} ab={ab}");
            let bits = |m: &BlockedMatrix| -> Vec<u64> {
                m.to_matrix()
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want));
        }
        assert!(BlockedMatrix::seeded(12, 5, 1).is_err());
    }

    #[test]
    fn gemm_acc_shape_errors() {
        let mut c = BlockData::zeros(2, 2);
        let a = BlockData::zeros(2, 3);
        let b = BlockData::zeros(4, 2);
        assert!(c.gemm_acc(&a, &b).is_err());
    }
}
