//! Bounds-checked binary encoding primitives shared by every wire
//! message.
//!
//! The encoding is deliberately boring: little-endian fixed-width
//! integers, `f64` as its IEEE-754 bit pattern (so values — NaN
//! payloads included — round-trip **bit-for-bit**), length-prefixed
//! UTF-8 strings and length-prefixed sequences. [`Encoder`] appends to
//! a byte buffer; [`Decoder`] walks one with an explicit cursor and
//! returns a typed [`WireError`] on any malformed input — truncated
//! buffers, oversized length prefixes, unknown tags, invalid UTF-8 —
//! **never panicking**, so a server can feed it attacker-controlled
//! bytes. Collection length prefixes are validated against the bytes
//! actually remaining before any allocation, so a forged
//! four-billion-element prefix costs nothing.

use std::fmt;

/// Hard cap on one frame's payload (16 MiB). A drained
/// [`ServiceReport`](qucp_runtime::ServiceReport) of thousands of jobs
/// fits comfortably; a length prefix beyond the cap is rejected before
/// any buffer is reserved.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A typed decoding or framing fault. Every variant is a *diagnosis*,
/// not a panic: malformed input of any shape maps onto one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a field's bytes did.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A message decoded cleanly but left unconsumed bytes behind.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A frame or collection length prefix exceeded its bound.
    LengthOverflow {
        /// The advertised length.
        len: u64,
        /// The maximum the context allows.
        max: u64,
    },
    /// An enum tag byte matched no known variant.
    UnknownTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A field held a structurally impossible value (an out-of-range
    /// outcome index, a self-looped link, a duplicate map key …).
    InvalidValue {
        /// What was being decoded.
        context: &'static str,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// The connect-time magic bytes did not spell `QCPD`.
    BadMagic {
        /// The four bytes received.
        got: u32,
    },
    /// A transport-level I/O failure (connection reset, timeout, …).
    Io {
        /// The `std::io::ErrorKind`, rendered.
        kind: String,
        /// The underlying error message.
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated frame: field needs {needed} bytes, {remaining} remain"
                )
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete message")
            }
            WireError::LengthOverflow { len, max } => {
                write!(f, "length prefix {len} exceeds the bound {max}")
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} decoding {context}")
            }
            WireError::InvalidValue { context } => {
                write!(f, "structurally invalid value decoding {context}")
            }
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadMagic { got } => {
                write!(f, "bad connect magic {got:#010x} (expected \"QCPD\")")
            }
            WireError::Io { kind, message } => write!(f, "transport I/O error ({kind}): {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            kind: format!("{:?}", e.kind()),
            message: e.to_string(),
        }
    }
}

/// A reused encode buffer keeps its capacity from message to message
/// up to this size; past it the memory goes back after the message is
/// sent, so one multi-megabyte report pins nothing on an idle
/// connection.
const SCRATCH_RETAIN_LEN: usize = 64 * 1024;

/// Applies [`SCRATCH_RETAIN_LEN`] to a scratch buffer whose message
/// has been sent.
pub(crate) fn release_large_scratch(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN_LEN {
        *buf = Vec::new();
    }
}

/// Appends wire-encoded fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder that appends to `buf`, keeping the capacity it has —
    /// how a connection's scratch buffer is written again and again
    /// without a heap request.
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the wire is 64-bit regardless of
    /// host width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — the value
    /// round-trips bit-for-bit, NaN payloads and signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an `Option` as a presence byte plus the value.
    pub fn option<T>(&mut self, v: &Option<T>, mut encode: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                encode(self, inner);
            }
        }
    }

    /// Appends a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut encode: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            encode(self, item);
        }
    }
}

/// Walks a byte buffer with bounds checks; every read returns
/// `Result<_, WireError>`.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless the buffer was
    /// consumed exactly. Call after decoding a complete message.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `u64` and narrows it to the host `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow {
            len: v,
            max: usize::MAX as u64,
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte; anything but 0 or 1 is malformed.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag {
                context: "bool",
                tag,
            }),
        }
    }

    /// Reads a sequence length prefix, validating it against the bytes
    /// actually remaining (each element occupies at least
    /// `min_elem_bytes`), so a forged huge prefix is rejected before
    /// any allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.u64()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > cap {
            return Err(WireError::LengthOverflow { len, max: cap });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads an `Option` from its presence byte.
    pub fn option<T>(
        &mut self,
        mut decode: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(decode(self)?)),
            tag => Err(WireError::UnknownTag {
                context: "option",
                tag,
            }),
        }
    }

    /// Reads a length-prefixed sequence; `min_elem_bytes` guards the
    /// pre-allocation (see [`Decoder::seq_len`]).
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut decode: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.seq_len(min_elem_bytes)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(decode(self)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(515);
        e.u32(70_000);
        e.u64(1 << 40);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.str("qucpd");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 515);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "qucpd");
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut e = Encoder::new();
        e.u64(42);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..5]);
        assert!(matches!(
            d.u64().unwrap_err(),
            WireError::Truncated {
                needed: 8,
                remaining: 5
            }
        ));
    }

    #[test]
    fn forged_length_prefix_is_rejected_before_allocation() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // a 2^64-element sequence in a 12-byte buffer
        e.u32(0);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.seq(8, |d| d.u64()).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Encoder::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert!(matches!(
            d.expect_end().unwrap_err(),
            WireError::TrailingBytes { count: 1 }
        ));
    }

    #[test]
    fn bad_bool_and_option_tags_are_typed() {
        let mut d = Decoder::new(&[3]);
        assert!(matches!(
            d.bool().unwrap_err(),
            WireError::UnknownTag { tag: 3, .. }
        ));
        let mut d = Decoder::new(&[9]);
        assert!(matches!(
            d.option(|d| d.u8()).unwrap_err(),
            WireError::UnknownTag { tag: 9, .. }
        ));
    }
}
