//! Flat binary (de)serialisation of model parameters.
//!
//! The format is intentionally simple: a magic header, the number of parameter tensors, and
//! for each tensor its shape followed by little-endian `f32` data.  It is used to persist a
//! trained estimator, to clone models cheaply for the update experiments, and to report the
//! on-disk model size.  A blob must end with its last parameter.  [`fnv1a64`] is the hash
//! the model artifact's checksum and schema fingerprint use.

use crate::made::ResMade;

const MAGIC: u32 = 0x4E43_4D44; // "NCMD"

/// FNV-1a 64-bit hash (deterministic, dependency-free; this is an integrity check
/// against accidental corruption, not a cryptographic signature).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialises the parameters of a model (in [`ResMade::params`] order) to bytes.
pub fn model_to_bytes(model: &ResMade) -> Vec<u8> {
    let params = model.params();
    let mut buf = Vec::with_capacity(16 + model.num_params() * 4);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        buf.extend_from_slice(&(p.value.rows() as u32).to_le_bytes());
        buf.extend_from_slice(&(p.value.cols() as u32).to_le_bytes());
        for &v in p.value.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
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
    /// This many bytes follow the last parameter.
    TrailingBytes(usize),
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
            LoadError::TrailingBytes(n) => write!(f, "{n} unread bytes after the last parameter"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads parameters serialised by [`model_to_bytes`] into an existing model of the *same
/// architecture* (same config).
pub fn load_params_from_bytes(model: &mut ResMade, bytes: &[u8]) -> Result<(), LoadError> {
    let mut buf = bytes;
    if take_u32(&mut buf) != Some(MAGIC) {
        return Err(LoadError::BadHeader);
    }
    let count = take_u32(&mut buf).ok_or(LoadError::BadHeader)? as usize;
    let mut params = model.params_mut();
    if count != params.len() {
        return Err(LoadError::ShapeMismatch { index: 0 });
    }
    for (i, p) in params.iter_mut().enumerate() {
        let rows = take_u32(&mut buf).ok_or(LoadError::Truncated)? as usize;
        let cols = take_u32(&mut buf).ok_or(LoadError::Truncated)? as usize;
        if rows != p.value.rows() || cols != p.value.cols() {
            return Err(LoadError::ShapeMismatch { index: i });
        }
        let (values, rest) = buf
            .split_at_checked(rows * cols * 4)
            .ok_or(LoadError::Truncated)?;
        for (v, bits) in p.value.data_mut().iter_mut().zip(values.as_chunks().0) {
            *v = f32::from_le_bytes(*bits);
        }
        buf = rest;
    }
    match buf.len() {
        0 => Ok(()),
        n => Err(LoadError::TrailingBytes(n)),
    }
}

/// Reads a little-endian `u32` off the front of `buf`, or `None` if fewer than four bytes
/// are left.
fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (word, rest) = buf.split_first_chunk()?;
    *buf = rest;
    Some(u32::from_le_bytes(*word))
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
        // Bytes after the last parameter: no writer emits them, so they are damage.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 13]);
        assert_eq!(
            load_params_from_bytes(&mut target, &padded),
            Err(LoadError::TrailingBytes(13))
        );
        for e in [
            LoadError::BadHeader,
            LoadError::Truncated,
            LoadError::ShapeMismatch { index: 1 },
            LoadError::TrailingBytes(13),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned test vectors (FNV-1a 64 reference values).
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
