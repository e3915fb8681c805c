//! A tiny, dependency-free binary codec for traces, run records and
//! fingerprints.
//!
//! The workspace is built offline (no serde), so traces and run records
//! are serialized by hand through this pair of cursor types. The encoding is
//! deliberately boring: little-endian fixed-width integers, length-prefixed
//! byte strings, and nothing self-describing — framing, versioning and
//! checksumming live one layer up (see `warden-sim`'s `checkpoint` module).
//!
//! Every `take_*` method is total: malformed or truncated input produces a
//! typed [`CodecError`], never a panic, so torn record files can be
//! rejected gracefully.

use std::fmt;

/// Why a byte stream could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream ended before a value's bytes were available.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were actually left.
        available: usize,
    },
    /// An enum tag or flag byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A structurally valid value violated a domain constraint.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Specifics.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated stream: needed {needed} bytes, {available} left"
                )
            }
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag} while decoding {what}"),
            CodecError::Invalid { what, detail } => write!(f, "invalid {what}: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash over a byte slice (the checksum and fingerprint
/// primitive of the record format).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// An append-only byte sink.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `f64` by bit pattern (exact round trip, including NaN
    /// payloads — recorded energy must read back bit-identical).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes with no length prefix (fixed-size fields).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// A forward-only cursor over encoded bytes.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail unless every byte was consumed (guards against version skew
    /// silently ignoring trailing state).
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid {
                what: "stream end",
                detail: format!("{} unconsumed trailing bytes", self.remaining()),
            })
        }
    }

    /// Take `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Take a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take_raw(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Take a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take_raw(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Take a `u64` and narrow it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            what: "usize",
            detail: format!("{v} does not fit this platform's usize"),
        })
    }

    /// Take a boolean byte (anything other than 0/1 is rejected).
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag {
                what: "bool",
                tag: t as u64,
            }),
        }
    }

    /// Take an `f64` by bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Take a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.take_usize()?;
        self.take_raw(n)
    }

    /// Take a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let b = self.take_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| CodecError::Invalid {
            what: "utf-8 string",
            detail: e.to_string(),
        })
    }

    /// Take a `u64` element count, guarded against lengths that could not
    /// possibly fit in the remaining bytes (`min_elem_bytes` per element).
    /// This keeps corrupted counts from triggering huge allocations.
    pub fn take_count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.take_usize()?;
        let bound = self.remaining() / min_elem_bytes.max(1);
        if n > bound {
            return Err(CodecError::Invalid {
                what: "element count",
                detail: format!("{n} elements cannot fit in {} bytes", self.remaining()),
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_bool(true);
        e.put_f64(-0.0);
        e.put_str("warden");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.take_str().unwrap(), "warden");
        assert_eq!(d.take_bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64(42);
        e.put_str("abc");
        e.put_bool(false);
        let bytes = e.into_bytes();
        for n in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..n]);
            let r = (|| -> Result<(), CodecError> {
                d.take_u64()?;
                d.take_str()?;
                d.take_bool()?;
                Ok(())
            })();
            assert!(r.is_err(), "prefix of {n} bytes must fail");
        }
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.take_bool(), Err(CodecError::BadTag { .. })));
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let mut d = Decoder::new(&[0; 9]);
        d.take_u64().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn absurd_count_rejected_without_allocation() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.take_count(8).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // The empty hash is the offset basis; the prime matches the one
        // Memory::digest has always used, so these values are frozen — a
        // change here would invalidate existing records and run keys.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
