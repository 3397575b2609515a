//! Deterministic test-matrix generators.
//!
//! Seeded so every executor and every implementation multiplies the *same*
//! inputs, letting integration tests compare results across paradigms.

use crate::dense::Matrix;

/// SplitMix64: a tiny, high-quality, dependency-free PRNG. Every stream
/// is fully determined by its seed, which is all these generators need.
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)` using the top 53 bits.
    pub(crate) fn next_unit(&mut self) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * u - 1.0
    }
}

/// A square matrix of order `n` with entries uniform in `[-1, 1)`,
/// reproducible from `seed`.
pub fn seeded_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64(seed);
    Matrix::from_fn(n, n, |_, _| rng.next_unit())
}

/// A well-conditioned structured matrix: `m[i][j] = sin(i+1) * cos(j+1) + δ_ij`.
/// Useful when a test wants entries that depend on position (to catch
/// misplaced blocks) without randomness.
pub fn structured_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        ((i + 1) as f64).sin() * ((j + 1) as f64).cos() + if i == j { 1.0 } else { 0.0 }
    })
}

/// The "position tag" matrix `m[i][j] = (i * n + j) as f64`. Each entry is
/// unique, so any block placed at the wrong coordinates changes the product.
pub fn indexed_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| (i * n + j) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_reproducible_and_seed_sensitive() {
        let a = seeded_matrix(16, 7);
        let b = seeded_matrix(16, 7);
        let c = seeded_matrix(16, 8);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn structured_entries_positional() {
        let m = structured_matrix(4);
        assert!((m[(0, 0)] - (1f64.sin() * 1f64.cos() + 1.0)).abs() < 1e-12);
        assert!((m[(2, 1)] - 3f64.sin() * 2f64.cos()).abs() < 1e-12);
    }

    #[test]
    fn indexed_entries_unique() {
        let m = indexed_matrix(5);
        assert_eq!(m[(3, 4)], 19.0);
        let mut seen: Vec<f64> = m.as_slice().to_vec();
        seen.sort_by(f64::total_cmp);
        seen.dedup();
        assert_eq!(seen.len(), 25);
    }
}
