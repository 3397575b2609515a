//! Problem definition for the key-value workload.
//!
//! A [`KvConfig`] pins down the *entire* workload — every operation in
//! every batch is a pure function of the config — so the same run can be
//! regenerated on any PE, any executor, or any process without shipping
//! the operation stream over the wire. This mirrors how the matrix
//! workload derives its operands from `(seed, n)` rather than
//! serializing matrices into every messenger.

/// Configuration of one key-value run: a seeded stream of
/// put/get/scan/delete operations split into client batches over a
/// hash-partitioned keyspace.
///
/// Determinism contract: two runs with equal configs execute the exact
/// same operations and (because batches own disjoint key regions)
/// produce bitwise-identical results on every executor and every
/// journey step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Total number of operations across all batches.
    pub ops: usize,
    /// Number of client batches the operations are split into. Each
    /// batch owns a disjoint key region so concurrent batches commute.
    pub batches: usize,
    /// Payload size in bytes of each value written by a put.
    pub value_len: usize,
    /// Number of distinct keys each batch draws from.
    pub keys_per_batch: u64,
    /// Maximum number of entries a scan returns.
    pub scan_limit: usize,
    /// Root seed of the workload generator.
    pub seed: u64,
}

impl KvConfig {
    /// A workload of `ops` operations in `batches` batches with the
    /// default value size, keyspace, scan limit, and seed.
    pub fn new(ops: usize, batches: usize) -> KvConfig {
        assert!(ops > 0, "workload needs at least one op");
        assert!(batches > 0, "workload needs at least one batch");
        assert!(
            batches <= ops,
            "more batches ({batches}) than ops ({ops})"
        );
        KvConfig {
            ops,
            batches,
            value_len: 32,
            keys_per_batch: 256,
            scan_limit: 16,
            seed: 0x5eed_cafe,
        }
    }

    /// Override the workload seed.
    pub fn with_seed(mut self, seed: u64) -> KvConfig {
        self.seed = seed;
        self
    }

    /// Override the value payload size.
    pub fn with_value_len(mut self, len: usize) -> KvConfig {
        assert!(len > 0, "values must be non-empty");
        self.value_len = len;
        self
    }

    /// Override the per-batch keyspace size.
    pub fn with_keys_per_batch(mut self, keys: u64) -> KvConfig {
        assert!(keys > 0, "keyspace must be non-empty");
        self.keys_per_batch = keys;
        self
    }

    /// Operations assigned to batch `b`: batch `ops / batches` rounded
    /// so the first `ops % batches` batches take one extra op.
    pub fn batch_len(&self, b: usize) -> usize {
        let base = self.ops / self.batches;
        let extra = self.ops % self.batches;
        base + usize::from(b < extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_lengths_sum_to_ops() {
        for (ops, batches) in [(10, 3), (8, 8), (100, 7), (1, 1)] {
            let cfg = KvConfig::new(ops, batches);
            let total: usize = (0..batches).map(|b| cfg.batch_len(b)).sum();
            assert_eq!(total, ops);
        }
    }

    #[test]
    #[should_panic(expected = "more batches")]
    fn more_batches_than_ops_rejected() {
        KvConfig::new(2, 3);
    }
}
