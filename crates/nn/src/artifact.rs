//! Versioned, checksummed multi-section binary container for model artifacts.
//!
//! The flat weight format of [`crate::serialize`] only persists parameter tensors; a
//! deployable model additionally needs its configuration, schema metadata, dictionaries
//! and factorization layout.  This module supplies the generic *container* those pieces
//! travel in — named binary sections behind a validated header — while the section
//! payloads themselves are encoded by the crate that owns each piece (the estimator crate
//! assembles the full NeuroCard artifact on top of this).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      u32   "NCAR" (0x4E43_4152)
//! version    u32   container format version (currently 1)
//! sections   u32   number of sections
//! checksum   u64   FNV-1a 64 over everything after this field
//! per section:
//!   name_len u32, name bytes (UTF-8), payload_len u64, payload bytes
//! ```
//!
//! The checksum guards against torn writes and bit rot; version and section presence are
//! validated on load and reported through [`ArtifactError`] instead of panicking.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// `"NCAR"` — NeuroCard ARtifact.
pub const ARTIFACT_MAGIC: u32 = 0x4E43_4152;

/// Container format version written by [`ArtifactWriter`] and accepted by
/// [`ArtifactReader`].
pub const ARTIFACT_VERSION: u32 = 1;

/// Why an artifact container failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The byte stream does not start with the artifact magic number.
    BadMagic,
    /// The container was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The stored checksum does not match the payload (torn write / corruption).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the loaded bytes.
        computed: u64,
    },
    /// The byte stream ended before the declared sections were read.
    Truncated,
    /// A section name is not valid UTF-8 or a length field is implausible.
    Malformed(String),
    /// The same section name appears twice.
    DuplicateSection(String),
    /// A required section is absent.
    MissingSection(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a model artifact (bad magic number)"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads {supported})"
            ),
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: header says {stored:#018x}, payload hashes to \
                 {computed:#018x}"
            ),
            ArtifactError::Truncated => write!(f, "artifact byte stream ended early"),
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactError::DuplicateSection(name) => {
                write!(f, "artifact contains section {name:?} twice")
            }
            ArtifactError::MissingSection(name) => {
                write!(f, "artifact is missing required section {name:?}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

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

/// Accumulates named sections and renders the framed, checksummed container.
#[derive(Debug, Default)]
pub struct ArtifactWriter {
    sections: Vec<(String, Bytes)>,
}

impl ArtifactWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ArtifactWriter::default()
    }

    /// Appends a section.  Names must be unique; order is preserved.
    pub fn section(&mut self, name: &str, payload: impl Into<Bytes>) -> &mut Self {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "section {name:?} already written"
        );
        self.sections.push((name.to_string(), payload.into()));
        self
    }

    /// Renders the container bytes (header + checksum + section table).
    pub fn finish(&self) -> Bytes {
        let mut body = BytesMut::new();
        for (name, payload) in &self.sections {
            body.put_u32_le(name.len() as u32);
            body.put_slice(name.as_bytes());
            body.put_u64_le(payload.len() as u64);
            body.put_slice(payload);
        }
        let mut out = BytesMut::with_capacity(20 + body.len());
        out.put_u32_le(ARTIFACT_MAGIC);
        out.put_u32_le(ARTIFACT_VERSION);
        out.put_u32_le(self.sections.len() as u32);
        out.put_u64_le(fnv1a64(&body));
        out.put_slice(&body);
        out.freeze()
    }
}

/// Parsed view of a container: validated header plus the named section payloads.
#[derive(Debug)]
pub struct ArtifactReader {
    version: u32,
    sections: Vec<(String, Vec<u8>)>,
}

impl ArtifactReader {
    /// Parses and validates a container produced by [`ArtifactWriter::finish`].
    pub fn parse(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut buf = bytes;
        if buf.remaining() < 20 {
            return Err(
                if buf.remaining() >= 4 && bytes[0..4] != ARTIFACT_MAGIC.to_le_bytes() {
                    ArtifactError::BadMagic
                } else {
                    ArtifactError::Truncated
                },
            );
        }
        if buf.get_u32_le() != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = buf.get_u32_le();
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        let count = buf.get_u32_le() as usize;
        let stored = buf.get_u64_le();
        let computed = fnv1a64(buf);
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }
        // The count is untrusted input (the checksum only guards against *accidental*
        // damage): cap the pre-allocation like the other binary readers do.
        let mut sections = Vec::with_capacity(count.min(1 << 10));
        for _ in 0..count {
            if buf.remaining() < 4 {
                return Err(ArtifactError::Truncated);
            }
            let name_len = buf.get_u32_le() as usize;
            if buf.remaining() < name_len {
                return Err(ArtifactError::Truncated);
            }
            let mut name_bytes = vec![0u8; name_len];
            buf.copy_to_slice(&mut name_bytes);
            let name = String::from_utf8(name_bytes)
                .map_err(|_| ArtifactError::Malformed("section name is not UTF-8".into()))?;
            if buf.remaining() < 8 {
                return Err(ArtifactError::Truncated);
            }
            let payload_len = buf.get_u64_le() as usize;
            if buf.remaining() < payload_len {
                return Err(ArtifactError::Truncated);
            }
            let mut payload = vec![0u8; payload_len];
            buf.copy_to_slice(&mut payload);
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(ArtifactError::DuplicateSection(name));
            }
            sections.push((name, payload));
        }
        if buf.remaining() != 0 {
            return Err(ArtifactError::Malformed(format!(
                "{} unread bytes after the last section",
                buf.remaining()
            )));
        }
        Ok(ArtifactReader { version, sections })
    }

    /// Container format version (always [`ARTIFACT_VERSION`] after a successful parse).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Section names in file order.
    pub fn names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Payload of section `name`, or `None` if absent.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Payload of a required section.
    pub fn require(&self, name: &str) -> Result<&[u8], ArtifactError> {
        self.get(name)
            .ok_or_else(|| ArtifactError::MissingSection(name.to_string()))
    }

    /// Moves a required section's payload out of the reader (no copy) — for large
    /// sections like model weights, where cloning would double transient memory.
    pub fn take(&mut self, name: &str) -> Result<Vec<u8>, ArtifactError> {
        match self.sections.iter().position(|(n, _)| n == name) {
            Some(i) => Ok(self.sections.remove(i).1),
            None => Err(ArtifactError::MissingSection(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bytes {
        let mut w = ArtifactWriter::new();
        w.section("manifest", b"{\"v\":1}".to_vec());
        w.section("weights", vec![1u8, 2, 3, 4, 5]);
        w.section("empty", Vec::new());
        w.finish()
    }

    #[test]
    fn round_trip_preserves_sections_and_order() {
        let bytes = sample();
        let r = ArtifactReader::parse(&bytes).unwrap();
        assert_eq!(r.version(), ARTIFACT_VERSION);
        assert_eq!(r.names(), vec!["manifest", "weights", "empty"]);
        assert_eq!(r.get("weights"), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(r.require("manifest").unwrap(), b"{\"v\":1}");
        assert_eq!(r.get("empty"), Some(&[][..]));
        assert_eq!(r.get("nope"), None);
        assert_eq!(
            r.require("nope"),
            Err(ArtifactError::MissingSection("nope".into()))
        );
    }

    #[test]
    fn header_validation() {
        let bytes = sample();
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            ArtifactReader::parse(&bad).unwrap_err(),
            ArtifactError::BadMagic
        );
        // Unsupported version.
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(matches!(
            ArtifactReader::parse(&bad).unwrap_err(),
            ArtifactError::UnsupportedVersion { found: 99, .. }
        ));
        // Flipping any payload bit trips the checksum.
        let mut bad = bytes.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            ArtifactReader::parse(&bad).unwrap_err(),
            ArtifactError::ChecksumMismatch { .. }
        ));
        // Truncation anywhere fails cleanly (checksum covers the body, so most cuts trip
        // it; header cuts report Truncated).
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(ArtifactReader::parse(&bytes[..cut]).is_err());
        }
        assert!(ArtifactReader::parse(&[]).is_err());
    }

    #[test]
    fn duplicate_sections_rejected_at_write_and_read() {
        // The writer asserts on duplicates...
        let result = std::panic::catch_unwind(|| {
            let mut w = ArtifactWriter::new();
            w.section("a", vec![1]);
            w.section("a", vec![2]);
        });
        assert!(result.is_err());
        // ...and the reader reports them (hand-crafted duplicate body).
        let mut body = BytesMut::new();
        for _ in 0..2 {
            body.put_u32_le(1);
            body.put_slice(b"a");
            body.put_u64_le(0);
        }
        let mut out = BytesMut::new();
        out.put_u32_le(ARTIFACT_MAGIC);
        out.put_u32_le(ARTIFACT_VERSION);
        out.put_u32_le(2);
        out.put_u64_le(fnv1a64(&body));
        out.put_slice(&body);
        assert_eq!(
            ArtifactReader::parse(&out.freeze()).unwrap_err(),
            ArtifactError::DuplicateSection("a".into())
        );
    }

    #[test]
    fn errors_render_messages() {
        for e in [
            ArtifactError::BadMagic,
            ArtifactError::UnsupportedVersion {
                found: 2,
                supported: 1,
            },
            ArtifactError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            ArtifactError::Truncated,
            ArtifactError::Malformed("x".into()),
            ArtifactError::DuplicateSection("s".into()),
            ArtifactError::MissingSection("s".into()),
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
