//! Problem configuration shared by every implementation.

use navp_matrix::{BlockedMatrix, Matrix, MatrixError};

/// What the blocks contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Real `f64` data generated from the two seeds; results are
    /// verifiable against the sequential product.
    Real {
        /// Seed for matrix A.
        seed_a: u64,
        /// Seed for matrix B.
        seed_b: u64,
    },
    /// Shape-only blocks: no arithmetic, identical modeled costs. Used to
    /// replay the paper's problem sizes (N up to 9216) in seconds.
    Phantom,
}

/// One matrix-multiplication problem instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmConfig {
    /// Matrix order N (paper: 1024..9216).
    pub n: usize,
    /// Algorithmic block order (paper: 128 or 256; must divide `n`).
    pub ab: usize,
    /// Real or phantom payloads.
    pub payload: Payload,
}

impl MmConfig {
    /// A real-payload config with default seeds.
    pub fn real(n: usize, ab: usize) -> MmConfig {
        MmConfig {
            n,
            ab,
            payload: Payload::Real {
                seed_a: 0xA11CE,
                seed_b: 0xB0B,
            },
        }
    }

    /// A phantom-payload config.
    pub fn phantom(n: usize, ab: usize) -> MmConfig {
        MmConfig {
            n,
            ab,
            payload: Payload::Phantom,
        }
    }

    /// Blocks per side (`n / ab`).
    pub fn nb(&self) -> usize {
        self.n / self.ab
    }

    /// Bytes of one algorithmic block.
    pub fn block_bytes(&self) -> u64 {
        (self.ab * self.ab * 8) as u64
    }

    /// Build the input operands as blocked matrices.
    pub fn operands(&self) -> Result<(BlockedMatrix, BlockedMatrix), MatrixError> {
        match self.payload {
            Payload::Real { seed_a, seed_b } => Ok((
                BlockedMatrix::seeded(self.n, self.ab, seed_a)?,
                BlockedMatrix::seeded(self.n, self.ab, seed_b)?,
            )),
            Payload::Phantom => Ok((
                BlockedMatrix::phantom(self.n, self.ab)?,
                BlockedMatrix::phantom(self.n, self.ab)?,
            )),
        }
    }

    /// The reference product (real payloads only): the sequential blocked
    /// multiply every distributed implementation must reproduce.
    pub fn expected(&self) -> Result<Option<Matrix>, MatrixError> {
        match self.payload {
            Payload::Phantom => Ok(None),
            Payload::Real { .. } => {
                // Drop the operands, and the packs their blocks keep,
                // before the dense product is allocated: peak memory.
                let c = {
                    let (a, b) = self.operands()?;
                    a.multiply_blocked(&b)?
                };
                Ok(Some(c.to_matrix()?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_operands_are_reproducible() {
        let cfg = MmConfig::real(8, 2);
        let (a1, _) = cfg.operands().unwrap();
        let (a2, _) = cfg.operands().unwrap();
        assert_eq!(a1.to_matrix().unwrap(), a2.to_matrix().unwrap());
        assert_eq!(cfg.nb(), 4);
        assert_eq!(cfg.block_bytes(), 32);
    }

    #[test]
    fn phantom_operands_have_no_data() {
        let cfg = MmConfig::phantom(1024, 128);
        let (a, b) = cfg.operands().unwrap();
        assert!(a.is_phantom() && b.is_phantom());
        assert!(cfg.expected().unwrap().is_none());
    }

    #[test]
    fn expected_matches_dense_product() {
        let cfg = MmConfig::real(12, 3);
        let want = cfg.expected().unwrap().unwrap();
        let (a, b) = cfg.operands().unwrap();
        let dense = a
            .to_matrix()
            .unwrap()
            .multiply(&b.to_matrix().unwrap())
            .unwrap();
        assert!(want.max_abs_diff(&dense) < 1e-10);
    }

    #[test]
    fn indivisible_block_rejected() {
        assert!(MmConfig::real(10, 3).operands().is_err());
    }
}
