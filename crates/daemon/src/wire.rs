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
//!
//! A type's layout is stated **once**, as its [`Wire`] impl: `put` and
//! `get` of the structs and enums of the catalog are both generated
//! from one field list (`wire_struct!`) or one frozen tag list
//! (`wire_enum!`), so the two directions cannot disagree, and the
//! fewest bytes a value can occupy ([`Wire::MIN_BYTES`], what the
//! length guard divides by) is derived from the same list.

use std::fmt;
use std::sync::Arc;

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

    /// Reads the length prefix of a sequence of `T`, validating it
    /// against the bytes actually remaining (each element occupies at
    /// least [`T::MIN_BYTES`](Wire::MIN_BYTES)), so a forged huge
    /// prefix is rejected before any allocation.
    pub fn seq_len<T: Wire>(&mut self) -> Result<usize, WireError> {
        let len = self.u64()?;
        let cap = (self.remaining() / T::MIN_BYTES.max(1)) as u64;
        if len > cap {
            return Err(WireError::LengthOverflow { len, max: cap });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        self.str_ref().map(String::from)
    }

    /// Reads a length-prefixed UTF-8 string in place: the slice of the
    /// buffer that holds it.
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        let len = self.seq_len::<u8>()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }
}

/// A type with a wire layout: how it is appended, how it is read back,
/// and the fewest bytes it can take.
pub trait Wire: Sized {
    /// The fewest bytes any value of the type occupies. A sequence
    /// decoder divides the bytes that remain by it before it reserves
    /// anything ([`Decoder::seq_len`]), so an understatement only
    /// loosens that guard and an overstatement rejects valid frames.
    const MIN_BYTES: usize;

    /// Appends `self`.
    fn put(&self, e: &mut Encoder);

    /// Reads one value, or says why the bytes are not one.
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

/// `value` as one frame payload, written over `out` (whose capacity is
/// reused).
pub(crate) fn encode_into<T: Wire>(value: &T, out: &mut Vec<u8>) {
    out.clear();
    let mut e = Encoder::appending_to(std::mem::take(out));
    value.put(&mut e);
    *out = e.finish();
}

/// One frame payload as a `T`, rejecting trailing bytes.
pub(crate) fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut d = Decoder::new(bytes);
    let value = T::get(&mut d)?;
    d.expect_end()?;
    Ok(value)
}

macro_rules! wire_scalar {
    ($($ty:ident: $bytes:literal),+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = $bytes;
            fn put(&self, e: &mut Encoder) {
                e.$ty(*self);
            }
            fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                d.$ty()
            }
        }
    )+};
}

wire_scalar!(u8: 1, u16: 2, u32: 4, u64: 8, usize: 8, f64: 8, bool: 1);

impl Wire for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.str()
    }
}

/// [`String`]'s layout, read into one allocation.
impl Wire for Arc<str> {
    const MIN_BYTES: usize = String::MIN_BYTES;
    fn put(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        d.str_ref().map(Arc::from)
    }
}

/// `Vec<u64>`'s layout, read into one allocation sized from the
/// declared length.
impl Wire for Arc<[u64]> {
    const MIN_BYTES: usize = Vec::<u64>::MIN_BYTES;
    fn put(&self, e: &mut Encoder) {
        e.usize(self.len());
        for &word in self.iter() {
            e.u64(word);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        // `seq_len` has checked that the bytes hold `len` words; their
        // exact-size chunks collect into one allocation, where pushing
        // them into a `Vec` first would take two.
        let len = d.seq_len::<u64>()?;
        let words = d.take(len * u64::MIN_BYTES)?;
        Ok(words
            .chunks_exact(u64::MIN_BYTES)
            .map(|word| u64::from_le_bytes(word.try_into().expect("len 8")))
            .collect())
    }
}

/// The shared value's own layout.
impl<T: Wire> Wire for Arc<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, e: &mut Encoder) {
        (**self).put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        T::get(d).map(Arc::new)
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(inner) => {
                e.u8(1);
                inner.put(e);
            }
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            tag => Err(WireError::UnknownTag {
                context: "option",
                tag,
            }),
        }
    }
}

/// A length prefix, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Encoder) {
        e.usize(self.len());
        for item in self {
            item.put(e);
        }
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = d.seq_len::<T>()?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::get(d)?);
        }
        Ok(items)
    }
}

/// The boxed value's own layout.
impl<T: Wire> Wire for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, e: &mut Encoder) {
        (**self).put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        T::get(d).map(Box::new)
    }
}

/// Both halves, in order — the element of a sequence of pairs.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, e: &mut Encoder) {
        self.0.put(e);
        self.1.put(e);
    }
    fn get(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// The smallest of `sizes` (the variants of a `wire_enum!`).
pub(crate) const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// `impl Wire` for a struct from its field list: the fields travel in
/// the order written, each in its own type's layout.
///
/// (The generated functions carry `#[inline]`, here and in
/// `wire_enum!`: an impl of a public trait is kept as a function of
/// its own, where the private one-caller function it replaces was
/// folded into its caller — without the hint a `Submit` decodes a call
/// per gate, 1.4× slower.)
///
/// ```text
/// wire_struct!(JobTicket { seq: usize, id: u64 });
/// ```
///
/// The list is the layout. Appending a field changes every frame that
/// carries the type, so it takes a protocol version (and a decoder that
/// treats the new tail as optional — see `RouteCacheStats`).
macro_rules! wire_struct {
    ($name:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN_BYTES)+;
            #[inline]
            fn put(&self, e: &mut $crate::wire::Encoder) {
                $($crate::wire::Wire::put(&self.$field, e);)+
            }
            #[inline]
            fn get(
                d: &mut $crate::wire::Decoder<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                // Struct-expression fields are evaluated as written.
                Ok($name { $($field: <$ty as $crate::wire::Wire>::get(d)?),+ })
            }
        }
    };
}
pub(crate) use wire_struct;

/// `impl Wire` for an enum from its frozen tag list: one tag byte, then
/// the variant's fields in the order written. `[Const]` before a
/// variant puts a constant of that (unit-like, `Default`) type ahead of
/// its fields — the handshake's magic.
///
/// ```text
/// wire_enum! {
///     RoutingChoice: "RoutingChoice",
///     0 => EarliestFree,
///     1 => CalibrationAware { pressure_per_ns: f64 },
/// }
/// ```
///
/// **Append-only:** a new variant is one line at the end of its list
/// with the next free number (and a protocol version); a number, once
/// given, is never moved, reused or removed. The string is the
/// `context` of the [`WireError::UnknownTag`] a foreign tag earns.
macro_rules! wire_enum {
    (
        $ty:ty: $context:literal,
        $(
            $tag:literal => $([$pre:ty])? $variant:ident
            $(( $($tf:ident: $tty:ty),+ ))?
            $({ $($sf:ident: $sty:ty),+ })?
        ),+ $(,)?
    ) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 1 + $crate::wire::min_of(&[$(
                0 $(+ <$pre as $crate::wire::Wire>::MIN_BYTES)?
                $($(+ <$tty as $crate::wire::Wire>::MIN_BYTES)+)?
                $($(+ <$sty as $crate::wire::Wire>::MIN_BYTES)+)?
            ),+]);
            #[inline]
            fn put(&self, e: &mut $crate::wire::Encoder) {
                match self {$(
                    Self::$variant $(( $($tf),+ ))? $({ $($sf),+ })? => {
                        e.u8($tag);
                        $($crate::wire::Wire::put(&<$pre>::default(), e);)?
                        $($($crate::wire::Wire::put($tf, e);)+)?
                        $($($crate::wire::Wire::put($sf, e);)+)?
                    }
                )+}
            }
            #[inline]
            fn get(
                d: &mut $crate::wire::Decoder<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(match d.u8()? {
                    $($tag => {
                        $(<$pre as $crate::wire::Wire>::get(d)?;)?
                        // Arguments and fields are evaluated as written.
                        Self::$variant
                            $(( $(<$tty as $crate::wire::Wire>::get(d)?),+ ))?
                            $({ $($sf: <$sty as $crate::wire::Wire>::get(d)?),+ })?
                    })+
                    tag => {
                        return Err($crate::wire::WireError::UnknownTag {
                            context: $context,
                            tag,
                        })
                    }
                })
            }
        }
    };
}
pub(crate) use wire_enum;

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
            Vec::<u64>::get(&mut d).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[derive(Debug, PartialEq)]
    struct Span {
        from: u16,
        to: Option<u64>,
    }
    wire_struct!(Span {
        from: u16,
        to: Option<u64>
    });

    #[derive(Debug, PartialEq)]
    enum Mark {
        Line(u8, u32),
        Named { name: String, span: Span },
    }
    wire_enum! {
        Mark: "Mark",
        3 => Line(width: u8, colour: u32),
        7 => Named { name: String, span: Span },
    }

    #[test]
    fn a_declared_layout_is_the_tag_then_the_fields_as_written() {
        let mark = Mark::Named {
            name: "ab".into(),
            span: Span {
                from: 0x0102,
                to: Some(5),
            },
        };
        let mut bytes = Vec::new();
        encode_into(&mark, &mut bytes);
        let expected: &[u8] = &[
            7, // tag
            2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b', // name
            2, 1, // span.from
            1, 5, 0, 0, 0, 0, 0, 0, 0, // span.to
        ];
        assert_eq!(bytes, expected);
        assert_eq!(decode::<Mark>(&bytes), Ok(mark));
        encode_into(&Mark::Line(9, 0x0a0b_0c0d), &mut bytes);
        assert_eq!(bytes, [3, 9, 0x0d, 0x0c, 0x0b, 0x0a]);
        assert_eq!(
            decode::<Mark>(&[4]),
            Err(WireError::UnknownTag {
                context: "Mark",
                tag: 4
            })
        );
    }

    #[test]
    fn min_bytes_is_derived_from_the_declaration_and_bounds_a_sequence() {
        assert_eq!(Span::MIN_BYTES, 2 + 1);
        // The tag plus the smaller variant: `Line`, 1 + 4.
        assert_eq!(Mark::MIN_BYTES, 1 + 5);
        assert_eq!(Box::<Mark>::MIN_BYTES, 6);
        assert_eq!(<(Span, u64)>::MIN_BYTES, 3 + 8);
        // Thirteen bytes behind the prefix hold at most two marks.
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 13]);
        assert_eq!(
            decode::<Vec<Mark>>(&bytes),
            Err(WireError::LengthOverflow { len: 3, max: 2 })
        );
    }

    fn bytes_of<T: Wire>(value: &T) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_into(value, &mut bytes);
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A shared value travels as its owned twin — `Arc<str>` as
        /// `String`, `Arc<[u64]>` as `Vec<u64>`, `Arc<T>` as `T`: the
        /// same bytes, the same fewest bytes, and the twin's bytes
        /// decode to the shared value.
        #[test]
        fn a_shared_value_encodes_the_bytes_of_its_owned_twin(
            chars in proptest::collection::vec(0u32..0x11_0000, 0usize..12),
            words in proptest::collection::vec(0u64..u64::MAX, 0usize..12),
            fields in (0u16..u16::MAX, 0u64..4),
        ) {
            let (from, to) = fields;
            let text: String = chars.iter().filter_map(|&c| char::from_u32(c)).collect();
            let shared: Arc<str> = Arc::from(text.as_str());
            proptest::prop_assert_eq!(bytes_of(&shared), bytes_of(&text));
            proptest::prop_assert_eq!(decode::<Arc<str>>(&bytes_of(&text)), Ok(shared));

            let shared: Arc<[u64]> = Arc::from(words.as_slice());
            proptest::prop_assert_eq!(bytes_of(&shared), bytes_of(&words));
            proptest::prop_assert_eq!(decode::<Arc<[u64]>>(&bytes_of(&words)), Ok(shared));

            let span = Span { from, to: to.checked_sub(1) };
            let shared = Arc::new(Span { from, to: span.to });
            proptest::prop_assert_eq!(bytes_of(&shared), bytes_of(&span));
            proptest::prop_assert_eq!(decode::<Arc<Span>>(&bytes_of(&span)), Ok(shared));

            proptest::prop_assert_eq!(Arc::<str>::MIN_BYTES, String::MIN_BYTES);
            proptest::prop_assert_eq!(Arc::<[u64]>::MIN_BYTES, Vec::<u64>::MIN_BYTES);
            proptest::prop_assert_eq!(Arc::<Span>::MIN_BYTES, Span::MIN_BYTES);
        }
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
            Option::<u8>::get(&mut d).unwrap_err(),
            WireError::UnknownTag { tag: 9, .. }
        ));
    }
}
