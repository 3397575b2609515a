//! The block multiply kernel.
//!
//! Every implementation in the case study — sequential, the six NavP
//! stages, Gentleman, Cannon and SUMMA — bottoms out in the same
//! `C += A * B` kernel on contiguous row-major blocks, so measured
//! differences between them come from *data movement and scheduling*,
//! never from kernel differences. That mirrors the paper, where all
//! implementations share the same compiled block multiply.
//!
//! ## The packed, tiled hot path
//!
//! [`gemm_acc`] is a cache-blocked, register-blocked, packing GEMM in
//! the BLIS/Goto style:
//!
//! * the iteration space is tiled `NC x KC x MC` so one `KC x NC` panel
//!   of `B` stays L2-resident while `MC x KC` panels of `A` stream
//!   through it;
//! * both panels are repacked into contiguous micro-panels (`MR`-row
//!   panels of `A`, `NR`-column panels of `B`). A call on raw slices
//!   packs them panel by panel into thread-local buffers reused across
//!   calls. Operands whose order fits one panel (`k <= KC`, `n <= NC`)
//!   can instead be packed once, whole, by [`pack_a`] and [`pack_b`]
//!   and multiplied any number of times by [`gemm_packed`]: a
//!   [`crate::BlockData`] keeps its `B` pack with the block from its
//!   first use, and a carrier packs its `A` row once per visit to a PE
//!   ([`crate::BlockData::pack_a`]);
//! * the innermost [`MR`]`x`[`NR`] micro-kernel keeps all `MR * NR`
//!   accumulators in registers and is written so LLVM autovectorizes
//!   it; on x86-64 with AVX2+FMA an explicit intrinsics variant is
//!   selected once per process via runtime feature detection;
//! * ragged edges are handled by zero-padding the packed micro-panels
//!   and writing back only the valid `mr x nr` window, so every tile
//!   runs the same unrolled code.
//!
//! Determinism: for a fixed shape `(m, k, n)` on a fixed machine the
//! summation order is a pure function of the blocking constants — every
//! `c[i][j]` accumulates its `k` terms in ascending order, one partial
//! sum per `KC` panel — so repeated runs are bitwise identical, and all
//! implementations that share this kernel stay bitwise comparable to
//! each other. The order *differs* from the historical i-k-j kernel
//! (kept as [`gemm_acc_naive`]), which is why cross-implementation
//! parity tests compare runs against each other, never against frozen
//! bit patterns.

use std::cell::RefCell;

/// Rows per micro-tile (register blocking in `m`).
pub const MR: usize = 4;
/// Columns per micro-tile (register blocking in `n`).
pub const NR: usize = 8;
/// Rows of the packed `A` panel (L1/L2 blocking in `m`).
pub const MC: usize = 64;
/// Depth of the packed panels (blocking in `k`).
pub const KC: usize = 256;
/// Columns of the packed `B` panel (L2/L3 blocking in `n`).
pub const NC: usize = 512;

thread_local! {
    /// Reused packing buffers: `(packed A, packed B)`. One pair per
    /// thread, grown to the high-water mark and never shrunk, so the
    /// steady state of a run does no allocation in the kernel.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `c += a * b` for contiguous row-major operands:
/// `a` is `m x k`, `b` is `k x n`, `c` is `m x n`.
///
/// This is the shared hot path of every implementation; see the module
/// docs for the blocking scheme. Results are deterministic for a fixed
/// shape on a fixed machine, but the accumulation order differs from
/// [`gemm_acc_naive`], so the two kernels agree only to rounding.
///
/// # Panics
/// Panics when the slice lengths do not match the stated shape.
pub fn gemm_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert_eq!(c.len(), m * n, "c has wrong length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let micro = micro_kernel_fn();
    PACK_BUFS.with(|bufs| {
        let (pack_a, pack_b) = &mut *bufs.borrow_mut();
        // Tile footprints for this call (zero-padded to whole
        // micro-panels so the micro-kernel never branches on edges).
        let a_panel = MC.min(m).next_multiple_of(MR) * KC.min(k);
        let b_panel = KC.min(k) * NC.min(n).next_multiple_of(NR);
        if pack_a.len() < a_panel {
            pack_a.resize(a_panel, 0.0);
        }
        if pack_b.len() < b_panel {
            pack_b.resize(b_panel, 0.0);
        }
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b_panel(pack_b, b, n, pc, jc, kc, nc);
                let rows = OperandA::Raw(a);
                panel_rows(c, n, jc, nc, pc, kc, m, rows, k, pack_a, pack_b, micro);
            }
        }
    });
}

/// `true` when a `k x n` operand pair fits one packed panel
/// (`k <= KC`, `n <= NC`), so [`gemm_packed`] applies.
#[inline]
pub const fn fits_one_panel(k: usize, n: usize) -> bool {
    k <= KC && n <= NC
}

/// Pack all of the row-major `m x k` matrix `a` (`k <= KC`) into the
/// `MR`-row micro-panels [`gemm_packed`] reads. The rows of each
/// `MC`-row chunk are the panel [`gemm_acc`] packs for that chunk.
///
/// # Panics
/// Panics when `a` has the wrong length or `k > KC`.
pub fn pack_a(a: &[f64], m: usize, k: usize) -> Vec<f64> {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert!(k <= KC, "packed A deeper than one panel");
    let mut dst = vec![0.0; m.next_multiple_of(MR) * k];
    pack_a_panel(&mut dst, a, k, 0, 0, m, k);
    dst
}

/// Pack all of the row-major `k x n` matrix `b` (`k <= KC`, `n <= NC`)
/// into the `NR`-column micro-panels [`gemm_packed`] reads: the panel
/// [`gemm_acc`] packs for it.
///
/// # Panics
/// Panics when `b` has the wrong length or does not fit one panel.
pub fn pack_b(b: &[f64], k: usize, n: usize) -> Vec<f64> {
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert!(fits_one_panel(k, n), "packed B larger than one panel");
    let mut dst = vec![0.0; k * n.next_multiple_of(NR)];
    pack_b_panel(&mut dst, b, n, 0, 0, k, n);
    dst
}

/// The `A` operand of [`gemm_packed`].
#[derive(Clone, Copy)]
pub enum OperandA<'a> {
    /// Row-major values, packed chunk by chunk into the thread's buffer.
    Raw(&'a [f64]),
    /// Panels packed ahead by [`pack_a`].
    Packed(&'a [f64]),
}

/// `c += a * b` with `b` packed ahead by [`pack_b`] and `a` raw or
/// packed by [`pack_a`]. It runs the same packing, macro- and
/// micro-kernel over the same panels as [`gemm_acc`], so the two are
/// bitwise equal.
///
/// # Panics
/// Panics when a length does not match the stated shape or the shape
/// does not fit one panel.
pub fn gemm_packed(c: &mut [f64], a: OperandA<'_>, pb: &[f64], m: usize, k: usize, n: usize) {
    assert!(fits_one_panel(k, n), "packed operands larger than one panel");
    let a_len = match a {
        OperandA::Raw(a) => a.len() == m * k,
        OperandA::Packed(pa) => pa.len() == m.next_multiple_of(MR) * k,
    };
    assert!(a_len, "a has wrong length");
    assert_eq!(pb.len(), k * n.next_multiple_of(NR), "packed b has wrong length");
    assert_eq!(c.len(), m * n, "c has wrong length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let micro = micro_kernel_fn();
    PACK_BUFS.with(|bufs| {
        let pack_a = &mut bufs.borrow_mut().0;
        let a_panel = MC.min(m).next_multiple_of(MR) * k;
        if pack_a.len() < a_panel {
            pack_a.resize(a_panel, 0.0);
        }
        panel_rows(c, n, 0, n, 0, k, m, a, k, pack_a, pb, micro);
    });
}

/// Multiply all `m` rows of `A` by the packed `kc x nc` panel `pb` of
/// `B` at `(pc, jc)`, one `MC`-row chunk at a time: the chunk's panels
/// are sliced from a packed `A` (which holds all of `A`, so `pc = 0`
/// and `kc = k`), or packed from a raw `a` (lead dim `lda`) into
/// `buf`, and then run through the macro-kernel.
#[allow(clippy::too_many_arguments)]
fn panel_rows(
    c: &mut [f64],
    ldc: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    m: usize,
    a: OperandA<'_>,
    lda: usize,
    buf: &mut [f64],
    pb: &[f64],
    micro: MicroKernel,
) {
    for ic in (0..m).step_by(MC) {
        let mc = MC.min(m - ic);
        let pa: &[f64] = match a {
            OperandA::Packed(pa) => &pa[ic * kc..],
            OperandA::Raw(a) => {
                pack_a_panel(buf, a, lda, ic, pc, mc, kc);
                buf
            }
        };
        macro_kernel(c, ldc, ic, jc, mc, nc, kc, pa, pb, micro);
    }
}

/// Pack `a[ic..ic+mc][pc..pc+kc]` (lead dim `lda`) into `MR`-row
/// micro-panels: panel `p` holds, for each `kk`, the `MR` column-`kk`
/// entries of rows `ic + p*MR ..`, zero-padded past `mc`.
fn pack_a_panel(dst: &mut [f64], a: &[f64], lda: usize, ic: usize, pc: usize, mc: usize, kc: usize) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let base = p * MR * kc;
        let rows = MR.min(mc - p * MR);
        for kk in 0..kc {
            let out = &mut dst[base + kk * MR..base + kk * MR + MR];
            for r in 0..rows {
                out[r] = a[(ic + p * MR + r) * lda + pc + kk];
            }
            out[rows..].fill(0.0);
        }
    }
}

/// Pack `b[pc..pc+kc][jc..jc+nc]` (lead dim `ldb`) into `NR`-column
/// micro-panels: panel `q` holds, for each `kk`, `NR` consecutive
/// entries of row `pc + kk`, zero-padded past `nc`.
fn pack_b_panel(dst: &mut [f64], b: &[f64], ldb: usize, pc: usize, jc: usize, kc: usize, nc: usize) {
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let base = q * NR * kc;
        let cols = NR.min(nc - q * NR);
        for kk in 0..kc {
            let src = (pc + kk) * ldb + jc + q * NR;
            let out = &mut dst[base + kk * NR..base + kk * NR + NR];
            out[..cols].copy_from_slice(&b[src..src + cols]);
            out[cols..].fill(0.0);
        }
    }
}

/// Run the micro-kernel over every `MR x NR` tile of the packed panels,
/// accumulating into the valid window of `c` (lead dim `ldc`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    c: &mut [f64],
    ldc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    pack_a: &[f64],
    pack_b: &[f64],
    micro: MicroKernel,
) {
    let mut acc = [0.0f64; MR * NR];
    for q in 0..nc.div_ceil(NR) {
        let nr = NR.min(nc - q * NR);
        let bp = &pack_b[q * NR * kc..(q + 1) * NR * kc];
        for p in 0..mc.div_ceil(MR) {
            let mr = MR.min(mc - p * MR);
            let ap = &pack_a[p * MR * kc..(p + 1) * MR * kc];
            acc.fill(0.0);
            micro(kc, ap, bp, &mut acc);
            // Write back only the valid window; the padded lanes hold
            // products of zero-padding and are discarded.
            for r in 0..mr {
                let row = (ic + p * MR + r) * ldc + jc + q * NR;
                let dst = &mut c[row..row + nr];
                let src = &acc[r * NR..r * NR + nr];
                for (cv, &av) in dst.iter_mut().zip(src) {
                    *cv += av;
                }
            }
        }
    }
}

/// Signature of the `MR x NR` micro-kernel over packed panels:
/// `acc += ap * bp` with `ap` laid out `kc x MR` and `bp` `kc x NR`.
type MicroKernel = fn(usize, &[f64], &[f64], &mut [f64; MR * NR]);

/// Portable micro-kernel; fixed trip counts let LLVM unroll and
/// autovectorize the `MR x NR` update.
fn micro_kernel_generic(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
    for kk in 0..kc {
        let ar: &[f64; MR] = ap[kk * MR..kk * MR + MR].try_into().expect("packed A");
        let br: &[f64; NR] = bp[kk * NR..kk * NR + NR].try_into().expect("packed B");
        for r in 0..MR {
            let av = ar[r];
            for j in 0..NR {
                acc[r * NR + j] += av * br[j];
            }
        }
    }
}

/// AVX2+FMA micro-kernel: 4x8 doubles = 8 YMM accumulators, two FMA
/// chains per row per step. Selected at runtime when the CPU supports
/// it; the choice is stable for the life of the process, so results
/// stay deterministic on a given machine.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_avx2_impl(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut c00 = _mm256_setzero_pd();
    let mut c01 = _mm256_setzero_pd();
    let mut c10 = _mm256_setzero_pd();
    let mut c11 = _mm256_setzero_pd();
    let mut c20 = _mm256_setzero_pd();
    let mut c21 = _mm256_setzero_pd();
    let mut c30 = _mm256_setzero_pd();
    let mut c31 = _mm256_setzero_pd();
    let mut a_ptr = ap.as_ptr();
    let mut b_ptr = bp.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_pd(b_ptr);
        let b1 = _mm256_loadu_pd(b_ptr.add(4));
        let a0 = _mm256_broadcast_sd(&*a_ptr);
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a0, b1, c01);
        let a1 = _mm256_broadcast_sd(&*a_ptr.add(1));
        c10 = _mm256_fmadd_pd(a1, b0, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let a2 = _mm256_broadcast_sd(&*a_ptr.add(2));
        c20 = _mm256_fmadd_pd(a2, b0, c20);
        c21 = _mm256_fmadd_pd(a2, b1, c21);
        let a3 = _mm256_broadcast_sd(&*a_ptr.add(3));
        c30 = _mm256_fmadd_pd(a3, b0, c30);
        c31 = _mm256_fmadd_pd(a3, b1, c31);
        a_ptr = a_ptr.add(MR);
        b_ptr = b_ptr.add(NR);
    }
    let out = acc.as_mut_ptr();
    _mm256_storeu_pd(out, c00);
    _mm256_storeu_pd(out.add(4), c01);
    _mm256_storeu_pd(out.add(8), c10);
    _mm256_storeu_pd(out.add(12), c11);
    _mm256_storeu_pd(out.add(16), c20);
    _mm256_storeu_pd(out.add(20), c21);
    _mm256_storeu_pd(out.add(24), c30);
    _mm256_storeu_pd(out.add(28), c31);
}

#[cfg(target_arch = "x86_64")]
fn micro_kernel_avx2(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; MR * NR]) {
    // Safety: only reachable after `is_x86_feature_detected!` confirmed
    // avx2 and fma; slice bounds are asserted by the packers.
    unsafe { micro_kernel_avx2_impl(kc, ap, bp, acc) }
}

/// Pick the micro-kernel once per process (stable ⇒ deterministic).
fn micro_kernel_fn() -> MicroKernel {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static PICK: OnceLock<MicroKernel> = OnceLock::new();
        *PICK.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                micro_kernel_avx2
            } else {
                micro_kernel_generic
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        micro_kernel_generic
    }
}

/// The historical i-k-j triple loop, kept as the reference kernel the
/// packed path is benchmarked and property-tested against. The
/// innermost loop streams a row of `b` against a row of `c` with a
/// scalar of `a` in a register — the access pattern the paper's
/// Section 5 credits for NavP's (and the sequential code's) cache
/// behaviour.
///
/// # Panics
/// Panics when the slice lengths do not match the stated shape.
pub fn gemm_acc_naive(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong length");
    assert_eq!(b.len(), k * n, "b has wrong length");
    assert_eq!(c.len(), m * n, "c has wrong length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
}

/// Number of floating-point operations `gemm_acc` performs for an
/// `m x k` by `k x n` block pair (one multiply and one add per update).
#[inline]
pub const fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// `c += a * b` where all three operands are square `order x order` blocks.
/// Convenience wrapper used by the block algorithms.
pub fn gemm_acc_square(c: &mut [f64], a: &[f64], b: &[f64], order: usize) {
    gemm_acc(c, a, b, order, order, order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    #[test]
    fn kernel_matches_naive() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * j) as f64 - 3.0);
        let b = Matrix::from_fn(6, 5, |i, j| (i + j) as f64 * 0.25);
        let want = a.multiply_naive(&b).unwrap();
        let mut c = vec![0.0; 4 * 5];
        gemm_acc(&mut c, a.as_slice(), b.as_slice(), 4, 6, 5);
        let got = Matrix::from_vec(4, 5, c).unwrap();
        assert!(want.max_abs_diff(&got) < 1e-12);
    }

    #[test]
    fn packed_and_reference_kernels_agree() {
        // Shapes straddling every blocking boundary: micro-tile tails,
        // multiple KC panels, multiple MC rows.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (MR, KC + 3, NR), (MC + 1, 2 * KC + 1, NR + 1)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
            let b = Matrix::from_fn(k, n, |i, j| 0.5 - ((i + 2 * j) % 9) as f64 * 0.125);
            let mut c_fast = vec![0.5; m * n];
            let mut c_ref = vec![0.5; m * n];
            gemm_acc(&mut c_fast, a.as_slice(), b.as_slice(), m, k, n);
            gemm_acc_naive(&mut c_ref, a.as_slice(), b.as_slice(), m, k, n);
            let fast = Matrix::from_vec(m, n, c_fast).unwrap();
            let refm = Matrix::from_vec(m, n, c_ref).unwrap();
            assert!(
                fast.max_abs_diff(&refm) < 1e-9 * (k as f64),
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_operands_match_per_call_packing_bitwise() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (MC + 5, 33, NR + 3), (130, KC, NC)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) % 13) as f64 / 7.0 - 0.9);
            let b = Matrix::from_fn(k, n, |i, j| 0.5 - ((i + 2 * j) % 9) as f64 / 11.0);
            let mut want = vec![0.25; m * n];
            gemm_acc(&mut want, a.as_slice(), b.as_slice(), m, k, n);
            let pb = pack_b(b.as_slice(), k, n);
            let pa = pack_a(a.as_slice(), m, k);
            for (how, av) in [
                ("raw", OperandA::Raw(a.as_slice())),
                ("packed", OperandA::Packed(&pa)),
            ] {
                let mut got = vec![0.25; m * n];
                gemm_packed(&mut got, av, &pb, m, k, n);
                let same = got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{m}x{k}x{n} with {how} A");
            }
        }
    }

    #[test]
    fn kernel_accumulates() {
        let a = Matrix::identity(3);
        let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let mut c = vec![1.0; 9];
        gemm_acc_square(&mut c, a.as_slice(), b.as_slice(), 3);
        for (idx, v) in c.iter().enumerate() {
            assert_eq!(*v, 1.0 + idx as f64);
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        let a = Matrix::from_fn(33, 17, |i, j| (i as f64 - j as f64) / 3.0);
        let b = Matrix::from_fn(17, 13, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let run = || {
            let mut c = vec![0.25; 33 * 13];
            gemm_acc(&mut c, a.as_slice(), b.as_slice(), 33, 17, 13);
            c
        };
        let (one, two) = (run(), run());
        assert!(one
            .iter()
            .zip(&two)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn flops_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(128, 128, 128), 2 * 128u64.pow(3));
    }

    #[test]
    #[should_panic(expected = "a has wrong length")]
    fn kernel_rejects_bad_lengths() {
        let mut c = vec![0.0; 4];
        gemm_acc(&mut c, &[0.0; 3], &[0.0; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "a has wrong length")]
    fn naive_kernel_rejects_bad_lengths() {
        let mut c = vec![0.0; 4];
        gemm_acc_naive(&mut c, &[0.0; 3], &[0.0; 4], 2, 2, 2);
    }

    #[test]
    fn zero_a_leaves_c_unchanged() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut c = vec![7.0; 4];
        gemm_acc_square(&mut c, a.as_slice(), b.as_slice(), 2);
        assert!(c.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let mut c: Vec<f64> = vec![];
        gemm_acc(&mut c, &[], &[], 0, 0, 0);
        gemm_acc(&mut c, &[], &[], 0, 5, 0);
        let mut c = vec![3.0; 4];
        gemm_acc(&mut c, &[], &[], 2, 0, 2);
        assert!(c.iter().all(|&x| x == 3.0));
    }
}
