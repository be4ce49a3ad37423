//! Checked little-endian binary encoding of storage types.
//!
//! Used by the model-artifact format to persist column dictionaries (and the [`Value`]s
//! inside them) without going through JSON, and by its container and the wire protocol
//! to read their framing through [`BinReader`].  Reads are fully validated: a truncated or
//! corrupt stream yields a [`BinError`] instead of a panic, which is what an artifact
//! loader needs when handed arbitrary bytes.

use crate::dict::ColumnDictionary;
use crate::value::Value;

/// Why a binary decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The stream ended before the value was complete.
    Truncated,
    /// An unknown type tag was encountered.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeds the remaining input (corrupt or hostile stream).
    BadLength(u64),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Truncated => write!(f, "binary stream ended early"),
            BinError::BadTag(t) => write!(f, "unknown type tag {t:#04x}"),
            BinError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            BinError::BadLength(n) => write!(f, "length prefix {n} exceeds remaining input"),
        }
    }
}

impl std::error::Error for BinError {}

/// A checked read cursor over a byte slice.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
}

impl<'a> BinReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the whole input was consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads the next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.buf.len() < n {
            return Err(BinError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, BinError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, BinError> {
        Ok(u128::from_le_bytes(self.bytes(16)?.try_into().unwrap()))
    }

    /// Reads a `u64` length prefix, validated against the remaining input so corrupt
    /// prefixes cannot trigger huge allocations.
    pub fn len(&mut self) -> Result<usize, BinError> {
        let n = self.u64()?;
        if n > self.buf.len() as u64 {
            return Err(BinError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, BinError> {
        let n = self.len()?;
        let bytes = self.bytes(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| BinError::BadUtf8)
    }
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;

impl Value {
    /// Appends the tagged binary encoding of this value.
    pub fn write_binary(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                put_string(out, s);
            }
        }
    }

    /// Reads a value written by [`Value::write_binary`].
    pub fn read_binary(r: &mut BinReader<'_>) -> Result<Value, BinError> {
        match r.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(r.i64()?)),
            TAG_STR => Ok(Value::from(r.string()?)),
            tag => Err(BinError::BadTag(tag)),
        }
    }
}

impl ColumnDictionary {
    /// Binary encoding: value count then each distinct value in code order.
    pub fn to_binary(&self) -> Vec<u8> {
        let values = self.values();
        let mut out = Vec::with_capacity(8 + values.len() * 9);
        out.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            v.write_binary(&mut out);
        }
        out
    }

    /// Reads a dictionary written by [`ColumnDictionary::to_binary`], revalidating the
    /// strict value ordering the dictionary's binary searches rely on.
    pub fn read_binary(r: &mut BinReader<'_>) -> Result<ColumnDictionary, BinError> {
        let count = r.u64()?;
        let mut values = Vec::with_capacity(count.min(1 << 20) as usize);
        for _ in 0..count {
            values.push(Value::read_binary(r)?);
        }
        if !values.windows(2).all(|w| w[0] < w[1]) {
            return Err(BinError::BadLength(count));
        }
        Ok(ColumnDictionary::from_sorted_values(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn values_round_trip() {
        let values = [
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("caf\u{e9} \u{1F600}"),
        ];
        let mut out = Vec::new();
        for v in &values {
            v.write_binary(&mut out);
        }
        let mut r = BinReader::new(&out);
        for v in &values {
            assert_eq!(&Value::read_binary(&mut r).unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn dictionary_round_trips_and_validates() {
        let col = Column::from_values(
            "c",
            &[
                Value::Int(30),
                Value::Null,
                Value::Int(10),
                Value::from("z"),
                Value::Int(10),
            ],
        );
        let dict = ColumnDictionary::from_column(&col);
        let bytes = dict.to_binary();
        let mut r = BinReader::new(&bytes);
        let back = ColumnDictionary::read_binary(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.values(), dict.values());
        assert_eq!(back.encode(&Value::Int(10)), dict.encode(&Value::Int(10)));

        // Unsorted payloads are rejected (corrupt stream).
        let mut evil = Vec::new();
        evil.extend_from_slice(&2u64.to_le_bytes());
        Value::Int(5).write_binary(&mut evil);
        Value::Int(3).write_binary(&mut evil);
        assert!(ColumnDictionary::read_binary(&mut BinReader::new(&evil)).is_err());
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        let mut out = Vec::new();
        Value::from("hello").write_binary(&mut out);
        // Truncations at every prefix length.
        for cut in 0..out.len() {
            assert!(Value::read_binary(&mut BinReader::new(&out[..cut])).is_err());
        }
        // Unknown tag.
        assert_eq!(
            Value::read_binary(&mut BinReader::new(&[9u8])),
            Err(BinError::BadTag(9))
        );
        // Hostile length prefix does not allocate.
        let mut evil = vec![TAG_STR];
        evil.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Value::read_binary(&mut BinReader::new(&evil)),
            Err(BinError::BadLength(u64::MAX))
        );
        // Invalid UTF-8.
        let mut bad = vec![TAG_STR];
        bad.extend_from_slice(&2u64.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            Value::read_binary(&mut BinReader::new(&bad)),
            Err(BinError::BadUtf8)
        );
        for e in [
            BinError::Truncated,
            BinError::BadTag(1),
            BinError::BadUtf8,
            BinError::BadLength(2),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
