//! Flat binary (de)serialisation of model parameters.
//!
//! The format is intentionally simple: a magic header, the number of parameter tensors, and
//! for each tensor its shape followed by little-endian `f32` data.  It is used to persist a
//! trained estimator, to clone models cheaply for the update experiments, and to report the
//! on-disk model size.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::made::ResMade;

const MAGIC: u32 = 0x4E43_4D44; // "NCMD"

/// Serialises the parameters of a model (in [`ResMade::params`] order) to bytes.
pub fn model_to_bytes(model: &ResMade) -> Bytes {
    let params = model.params();
    let mut buf = BytesMut::with_capacity(16 + model.num_params() * 4);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(params.len() as u32);
    for p in params {
        buf.put_u32_le(p.value.rows() as u32);
        buf.put_u32_le(p.value.cols() as u32);
        for &v in p.value.data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Errors from [`load_params_from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Wrong magic number or truncated header.
    BadHeader,
    /// Parameter count or a shape does not match the target model.
    ShapeMismatch {
        /// Index of the offending parameter tensor.
        index: usize,
    },
    /// The byte stream ended early.
    Truncated,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadHeader => write!(f, "bad magic number or truncated header"),
            LoadError::ShapeMismatch { index } => {
                write!(
                    f,
                    "parameter {index} has a different shape than the target model"
                )
            }
            LoadError::Truncated => write!(f, "byte stream ended before all parameters were read"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads parameters serialised by [`model_to_bytes`] into an existing model of the *same
/// architecture* (same config).
pub fn load_params_from_bytes(model: &mut ResMade, bytes: &[u8]) -> Result<(), LoadError> {
    let mut buf = bytes;
    if buf.remaining() < 8 || buf.get_u32_le() != MAGIC {
        return Err(LoadError::BadHeader);
    }
    let count = buf.get_u32_le() as usize;
    let mut params = model.params_mut();
    if count != params.len() {
        return Err(LoadError::ShapeMismatch { index: 0 });
    }
    for (i, p) in params.iter_mut().enumerate() {
        if buf.remaining() < 8 {
            return Err(LoadError::Truncated);
        }
        let rows = buf.get_u32_le() as usize;
        let cols = buf.get_u32_le() as usize;
        if rows != p.value.rows() || cols != p.value.cols() {
            return Err(LoadError::ShapeMismatch { index: i });
        }
        if buf.remaining() < rows * cols * 4 {
            return Err(LoadError::Truncated);
        }
        for v in p.value.data_mut() {
            *v = buf.get_f32_le();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::made::{InferenceScratch, MadeConfig};

    fn model(seed: u64) -> ResMade {
        ResMade::new(MadeConfig {
            domains: vec![5, 3, 7],
            d_emb: 4,
            d_hidden: 16,
            num_blocks: 1,
            seed,
        })
    }

    #[test]
    fn roundtrip_restores_exact_predictions() {
        let original = model(1);
        let bytes = model_to_bytes(&original);
        assert!(bytes.len() >= original.num_params() * 4);
        let mut target = model(99); // different init
        let probs = |m: &ResMade| {
            m.conditional_probs_into(&[1, 0, 0], 2, &mut InferenceScratch::new())
                .clone()
        };
        let before = probs(&target);
        load_params_from_bytes(&mut target, &bytes).unwrap();
        let after = probs(&target);
        let reference = probs(&original);
        assert_ne!(before.data(), reference.data());
        assert_eq!(after.data(), reference.data());
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let original = model(1);
        let bytes = model_to_bytes(&original);
        let mut target = model(2);
        assert_eq!(
            load_params_from_bytes(&mut target, &bytes[..3]),
            Err(LoadError::BadHeader)
        );
        assert_eq!(
            load_params_from_bytes(&mut target, &bytes[..bytes.len() / 2]),
            Err(LoadError::Truncated)
        );
        let mut wrong_magic = bytes.to_vec();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            load_params_from_bytes(&mut target, &wrong_magic),
            Err(LoadError::BadHeader)
        );
        // Mismatched architecture.
        let mut other = ResMade::new(MadeConfig {
            domains: vec![5, 3],
            d_emb: 4,
            d_hidden: 16,
            num_blocks: 1,
            seed: 3,
        });
        assert!(matches!(
            load_params_from_bytes(&mut other, &bytes),
            Err(LoadError::ShapeMismatch { .. })
        ));
        for e in [
            LoadError::BadHeader,
            LoadError::Truncated,
            LoadError::ShapeMismatch { index: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
