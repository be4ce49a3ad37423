//! Estimator hyper-parameters.

use serde::{Deserialize, Serialize};

/// Configuration of a [`crate::NeuroCard`] estimator.
///
/// Defaults are scaled for the synthetic workloads of this reproduction (thousands of base
/// rows, a few CPU cores); the paper's configurations on the real IMDB data use the same
/// structure with larger values (e.g. 7M training tuples, dff 128, demb 16–64).
///
/// The config round-trips through JSON (it is the `config` section of a
/// [`crate::ModelArtifact`]); all fields are plain numbers, so the round trip is exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeuroCardConfig {
    /// Per-column embedding dimension (`demb`).
    pub d_emb: usize,
    /// Hidden width of the masked layers (`dff`).
    pub d_hidden: usize,
    /// Number of masked residual blocks.
    pub num_blocks: usize,
    /// Column factorization threshold bits (§5): a column whose dictionary needs more than
    /// this many bits is split into sub-columns of at most this many bits.  `None` disables
    /// factorization (the ablation's "None" row).
    pub fact_bits: Option<u32>,
    /// Number of training tuples to stream from the join sampler.
    pub training_tuples: usize,
    /// SGD mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Probability that an input column is replaced by the MASK token during training
    /// (wildcard skipping, §3.4).
    pub wildcard_skip_prob: f32,
    /// Number of progressive samples drawn per query at inference time (§7.2 uses 512; the
    /// synthetic workloads reach stable estimates with fewer).
    pub progressive_samples: usize,
    /// Number of sampler threads used to produce training batches.  Together with `seed`
    /// this fixes the training sample stream exactly; see `prefetch_depth`.
    pub sampler_threads: usize,
    /// Number of training batches the sampler pool keeps in flight *ahead* of the batch
    /// currently being trained on (0 = no prefetch: sample, then train, strictly
    /// alternating).  With depth ≥ 1 the pool samples and encodes batch `k+1` while the
    /// model runs forward/backward on batch `k`.  The sample stream is a pure function of
    /// `(seed, sampler_threads)`; the prefetch depth never changes training results, only
    /// wall-clock overlap.
    pub prefetch_depth: usize,
    /// Whether raw join-key columns are part of the learned tuple.  The paper's
    /// configurations leave them out: queries never filter them, the join semantics are
    /// carried entirely by the indicator/fanout virtual columns, and keys are the
    /// highest-cardinality columns of the schema.  Enable only when filters on join keys
    /// must be supported.
    pub model_join_keys: bool,
    /// Seed controlling sampling, initialisation and inference randomness.
    pub seed: u64,
}

impl Default for NeuroCardConfig {
    fn default() -> Self {
        NeuroCardConfig {
            d_emb: 12,
            d_hidden: 96,
            num_blocks: 2,
            fact_bits: Some(10),
            training_tuples: 60_000,
            batch_size: 128,
            learning_rate: 2e-3,
            wildcard_skip_prob: 0.25,
            progressive_samples: 100,
            sampler_threads: 1,
            prefetch_depth: 1,
            model_join_keys: false,
            seed: 42,
        }
    }
}

impl NeuroCardConfig {
    /// A deliberately tiny configuration for unit tests (fast to train, low accuracy).
    pub fn tiny() -> Self {
        NeuroCardConfig {
            d_emb: 6,
            d_hidden: 32,
            num_blocks: 1,
            fact_bits: Some(8),
            training_tuples: 3_000,
            batch_size: 64,
            learning_rate: 5e-3,
            wildcard_skip_prob: 0.25,
            progressive_samples: 50,
            sampler_threads: 1,
            prefetch_depth: 1,
            model_join_keys: false,
            seed: 7,
        }
    }

    /// The "larger" configuration used for the `NeuroCard-large` rows of the paper's
    /// tables: bigger embeddings, more training data.
    pub fn large() -> Self {
        NeuroCardConfig {
            d_emb: 24,
            d_hidden: 128,
            num_blocks: 3,
            training_tuples: 120_000,
            ..Default::default()
        }
    }

    /// Returns a copy with a different seed (convenience for variance studies).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different number of training tuples.
    pub fn with_training_tuples(mut self, tuples: usize) -> Self {
        self.training_tuples = tuples;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = NeuroCardConfig::default();
        assert!(c.d_emb > 0 && c.d_hidden > 0 && c.batch_size > 0);
        assert!(c.training_tuples >= c.batch_size);
        assert!(c.fact_bits.unwrap() >= 4);
        assert!(c.wildcard_skip_prob > 0.0 && c.wildcard_skip_prob < 1.0);
        assert!(c.sampler_threads >= 1);
        // Depth 1 by default: sample/encode batch k+1 while batch k trains.
        assert_eq!(c.prefetch_depth, 1);
    }

    #[test]
    fn builders() {
        let c = NeuroCardConfig::tiny()
            .with_seed(9)
            .with_training_tuples(500);
        assert_eq!(c.seed, 9);
        assert_eq!(c.training_tuples, 500);
        let l = NeuroCardConfig::large();
        assert!(l.d_emb > NeuroCardConfig::default().d_emb);
    }
}
