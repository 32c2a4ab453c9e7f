//! Frame transport: length-prefixed frames over byte streams, and the
//! [`Transport`] abstraction the client speaks through.
//!
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many payload bytes. The length is validated against
//! [`MAX_FRAME_LEN`] *before* any buffer is reserved, on both the read
//! and the write side, so neither a forged header nor a runaway
//! payload can exhaust memory.
//!
//! # One writer, one reader
//!
//! There is one way a frame leaves and one way it arrives, shared by
//! the client and the server.
//!
//! **Writing** ([`write_frame`]) hands the header and the payload to
//! the stream in one vectored write — one syscall and, over TCP, one
//! segment. A short write continues from the byte it reached; the
//! frame is never restarted. The connection loop uses the same writer
//! with a say at every stall, which is how a write blocked on a peer
//! that stopped reading still notices shutdown.
//!
//! **Reading** ([`FrameReader`]) is buffered. Each reader owns a fixed
//! buffer of 16 KiB, allocated once for the life of its connection:
//! one `read` fills it with whatever the stream has, frames are parsed
//! out of it in place, and bytes past the current frame stay for the
//! next call — a request that arrives whole costs one `read`, and a
//! hundred requests written at once cost one `read` per 16 KiB. Fill
//! state survives `WouldBlock`/`TimedOut`/`Interrupted`, so a frame
//! that stalls anywhere is reassembled intact. The large-frame rule: a
//! frame that cannot fit the buffer (a drained report runs to
//! megabytes) is read straight into its own allocation of exactly the
//! announced size, made only after the [`MAX_FRAME_LEN`] check; the
//! buffer never grows, so one big report leaves nothing pinned. The
//! server borrows each request out of the buffer
//! ([`FrameReader::poll`]) and decodes it there;
//! [`StreamTransport`] owns a reader too and copies each response out
//! once, into the `Vec` that [`Transport::call`] returns.
//!
//! The two-step reader this replaced (`read_exact` the header,
//! allocate, `read_exact` the payload) is kept as `oracle::read_frame`,
//! compiled for tests only: it is short enough to be read as the
//! definition of the format, and a property test holds the buffered
//! reader to it over arbitrary frame sizes, chunkings and stalls.

use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;

use crate::wire::{WireError, MAX_FRAME_LEN};

/// Bytes of a frame's length prefix.
const HEADER_LEN: usize = 4;

/// Size of a [`FrameReader`]'s buffer. Routine frames (a submit, a
/// claimed result) are well under 1 KiB; only reports and event logs
/// take the large-frame path.
const READ_BUF_LEN: usize = 16 * 1024;

/// The one place a frame length is judged, ahead of any allocation or
/// any byte sent.
fn check_frame_len(len: usize) -> Result<(), WireError> {
    if len > MAX_FRAME_LEN {
        return Err(WireError::LengthOverflow {
            len: len as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    Ok(())
}

/// Whether a failed `read`/`write` only means "not now": a timeout or
/// nonblocking stream with nothing to give, or a signal. No byte was
/// transferred, so the caller may try the same call again.
fn is_stall(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Writes one frame (length prefix + payload) and flushes. Blocking:
/// a signal is retried, a write timeout set on the stream is an error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    write_frame_with(w, payload, |kind, _| kind == io::ErrorKind::Interrupted)
}

/// [`write_frame`] with a say at every stall: when a write reports
/// `WouldBlock`, `TimedOut` or `Interrupted`, `on_stall(kind, sent)` —
/// `sent` counting the bytes of `header ‖ payload` the stream has
/// taken so far — decides between carrying on from that byte (`true`)
/// and giving up with the error (`false`).
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    payload: &[u8],
    mut on_stall: impl FnMut(io::ErrorKind, usize) -> bool,
) -> Result<(), WireError> {
    check_frame_len(payload.len())?;
    let header = (payload.len() as u32).to_le_bytes();
    let total = HEADER_LEN + payload.len();
    let mut sent = 0;
    while sent < total {
        let written = if sent < HEADER_LEN {
            w.write_vectored(&[IoSlice::new(&header[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - HEADER_LEN..])
        };
        match written {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if is_stall(&e) && on_stall(e.kind(), sent) => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// What one [`FrameReader::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameProgress<'a> {
    /// A complete frame's payload: borrowed from the reader's buffer
    /// until the next call, or owned for a frame that took the
    /// large-frame path.
    Frame(Cow<'a, [u8]>),
    /// Clean EOF at a frame boundary — the peer hung up between
    /// messages. (EOF *inside* a frame is a [`WireError`] instead.)
    Eof,
    /// The read would block or timed out. Any bytes already consumed
    /// stay buffered; the next `poll` resumes exactly where this one
    /// stopped.
    Pending,
}

/// Buffered, resumable frame reader — the only one (see the module
/// docs for who owns the buffer and the large-frame rule).
///
/// A reader that forgets its place when a read times out mid-frame
/// misparses the next bytes as a fresh length header: permanent
/// framing desync. `FrameReader` keeps everything it has received
/// *across* calls, so a frame interrupted by any number of
/// `WouldBlock`/`TimedOut` reads is reassembled intact. The daemon's
/// connection loop polls it between shutdown checks; the client blocks
/// on it ([`FrameReader::read_frame`]).
pub struct FrameReader {
    /// Fixed at [`READ_BUF_LEN`]; `buf[start..end]` holds the bytes
    /// received and not yet returned as a frame.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// A frame that cannot fit `buf`: its exact-size payload and how
    /// much of it has arrived.
    large: Option<(Vec<u8>, usize)>,
}

/// One step of [`FrameReader::advance`].
enum Advance {
    /// A whole frame's payload sits at this range of the buffer.
    Buffered(Range<usize>),
    /// A whole frame that took the large-frame path.
    Large(Vec<u8>),
    Eof,
    /// See [`is_stall`]; everything received so far is kept.
    Stalled(io::Error),
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl std::fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader")
            .field("buffered", &(self.end - self.start))
            .field(
                "large",
                &self.large.as_ref().map(|(p, filled)| (*filled, p.len())),
            )
            .finish()
    }
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> Self {
        FrameReader {
            buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
            large: None,
        }
    }

    /// Whether bytes have been received that no call has returned yet.
    /// After a `Pending` that is a partial frame: the peer stalled
    /// mid-frame, the connection is not idle.
    pub fn mid_frame(&self) -> bool {
        self.end > self.start || self.large.is_some()
    }

    /// Reads as much of the current frame as the stream will give and
    /// hands its payload out without a copy: borrowed from the reader's
    /// buffer until the next call (a large frame comes owned, in the
    /// allocation it was read into). Never loses bytes: `Pending`
    /// preserves all progress for the next call. Issues no `read`
    /// while a whole frame is already buffered.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<FrameProgress<'_>, WireError> {
        Ok(match self.advance(r)? {
            Advance::Buffered(range) => FrameProgress::Frame(Cow::Borrowed(&self.buf[range])),
            Advance::Large(payload) => FrameProgress::Frame(Cow::Owned(payload)),
            Advance::Eof => FrameProgress::Eof,
            Advance::Stalled(_) => FrameProgress::Pending,
        })
    }

    /// Blocks until one frame is in: a signal is retried, a read
    /// timeout set on the stream is an error. `Ok(None)` on clean EOF
    /// at a frame boundary; mid-frame EOF is an error.
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
        loop {
            return match self.advance(r)? {
                Advance::Buffered(range) => Ok(Some(self.buf[range].to_vec())),
                Advance::Large(payload) => Ok(Some(payload)),
                Advance::Eof => Ok(None),
                Advance::Stalled(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Advance::Stalled(e) => Err(e.into()),
            };
        }
    }

    /// Parses the next frame out of what is buffered, reading only
    /// when that is not a whole frame yet. Enforces [`MAX_FRAME_LEN`]
    /// before allocating.
    fn advance(&mut self, r: &mut impl Read) -> Result<Advance, WireError> {
        loop {
            if let Some((payload, filled)) = &mut self.large {
                if *filled < payload.len() {
                    match r.read(&mut payload[*filled..]) {
                        Ok(0) => {
                            return Err(WireError::Truncated {
                                needed: payload.len(),
                                remaining: *filled,
                            })
                        }
                        Ok(n) => *filled += n,
                        Err(e) if is_stall(&e) => return Ok(Advance::Stalled(e)),
                        Err(e) => return Err(e.into()),
                    }
                    continue;
                }
                let (payload, _) = self.large.take().expect("matched above");
                return Ok(Advance::Large(payload));
            }

            let buffered = self.end - self.start;
            // What an EOF here would cut short: (bytes needed, bytes had).
            let mut cut = (HEADER_LEN, buffered);
            if buffered >= HEADER_LEN {
                let body = self.start + HEADER_LEN;
                let header = self.buf[self.start..body].try_into().expect("4 bytes");
                let len = u32::from_le_bytes(header) as usize;
                check_frame_len(len)?;
                if self.end - body >= len {
                    self.start = body + len;
                    if self.start == self.end {
                        // Drained: the next read gets the whole buffer
                        // (the range handed out stays intact until then).
                        self.start = 0;
                        self.end = 0;
                    }
                    return Ok(Advance::Buffered(body..body + len));
                }
                if HEADER_LEN + len > self.buf.len() {
                    let mut payload = vec![0u8; len];
                    let had = self.end - body;
                    payload[..had].copy_from_slice(&self.buf[body..self.end]);
                    self.start = 0;
                    self.end = 0;
                    self.large = Some((payload, had));
                    continue;
                }
                cut = (len, self.end - body);
            }

            // A partial frame that fits the buffer: move it to the
            // front so the read has all the room there is.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end = buffered;
                self.start = 0;
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if buffered == 0 => return Ok(Advance::Eof),
                Ok(0) => {
                    return Err(WireError::Truncated {
                        needed: cut.0,
                        remaining: cut.1,
                    })
                }
                Ok(n) => self.end += n,
                Err(e) if is_stall(&e) => return Ok(Advance::Stalled(e)),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// One request/response exchange. The client is strictly synchronous —
/// a transport carries exactly one outstanding request — which keeps
/// the protocol trivially orderable and the mock implementation a pure
/// function call.
pub trait Transport {
    /// Sends one encoded request payload and returns the peer's encoded
    /// response payload.
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, WireError>;
}

/// [`Transport`] over any duplex byte stream — a `UnixStream`, a
/// `TcpStream`, or anything else implementing `Read + Write`.
///
/// An error ends it. Once a request may have left, its response may
/// still arrive: a `call` that fails after that point (a read timeout
/// set through [`get_ref`](Self::get_ref), a reset peer, bad framing)
/// leaves the stream one response out of step, and a further exchange
/// would hand back its predecessor's answer. The first such failure
/// therefore marks the transport broken, and every later `call`
/// returns [`WireError::Io`] without touching the stream; reconnect to
/// continue.
#[derive(Debug)]
pub struct StreamTransport<S: Read + Write> {
    stream: S,
    reader: FrameReader,
    broken: bool,
}

impl<S: Read + Write> StreamTransport<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Self {
        StreamTransport {
            stream,
            reader: FrameReader::new(),
            broken: false,
        }
    }

    /// The underlying stream, for shutdown-side effects.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }
}

impl<S: Read + Write> Transport for StreamTransport<S> {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, WireError> {
        if self.broken {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "an earlier call on this transport failed mid-exchange; \
                 its late response may still be in the stream",
            )
            .into());
        }
        // Refused before a byte is sent: the stream is still in step.
        check_frame_len(request.len())?;
        let reply = write_frame(&mut self.stream, request)
            .and_then(|()| self.reader.read_frame(&mut self.stream))
            .and_then(|frame| {
                frame.ok_or_else(|| WireError::Io {
                    kind: "UnexpectedEof".into(),
                    message: "server closed the connection before responding".into(),
                })
            });
        self.broken = reply.is_err();
        reply
    }
}

/// The format, written down twice more for the tests: the two-step
/// reader the buffered one replaced (the parent's code, moved) and the
/// frame layout spelled out by hand.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The format's definition and the test oracle: reads one frame's
    /// payload in two steps, enforcing [`MAX_FRAME_LEN`] before
    /// allocating. Returns `Ok(None)` on clean EOF at a frame boundary
    /// (the peer hung up between messages); mid-frame EOF is an error.
    /// All-or-nothing — a stall mid-frame loses the bytes consumed — which
    /// is why nothing outside the tests calls it.
    pub(crate) fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
        let mut header = [0u8; 4];
        match read_exact_or_eof(r, &mut header)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Filled => {}
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::LengthOverflow {
                len: len as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Ok(Some(payload))
    }

    /// The write side of that definition: `header ‖ payload`, spelled out
    /// rather than produced by the writer under test.
    pub(crate) fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    enum ReadOutcome {
        Filled,
        Eof,
    }

    /// `read_exact`, except EOF *before the first byte* is reported as
    /// [`ReadOutcome::Eof`] instead of an error — that is how a peer
    /// closing the connection between frames looks.
    fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
        let mut filled = 0;
        while filled < buf.len() {
            match r.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
                Ok(0) => {
                    return Err(WireError::Truncated {
                        needed: buf.len(),
                        remaining: filled,
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(ReadOutcome::Filled)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{framed, read_frame};
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn midframe_eof_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..6]; // header + 2 of 5 payload bytes
        assert!(matches!(
            read_frame(&mut r).unwrap_err(),
            WireError::Io { .. } | WireError::Truncated { .. }
        ));
    }

    /// A stream that serves a script of byte chunks interleaved with
    /// `WouldBlock`/`TimedOut` stalls — the shape of a socket with a
    /// read timeout under load.
    struct StallingStream {
        script: Vec<Result<Vec<u8>, std::io::ErrorKind>>,
    }

    impl Read for StallingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.script.is_empty() {
                return Ok(0); // EOF
            }
            match self.script.remove(0) {
                Ok(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.script.insert(0, Ok(chunk[n..].to_vec()));
                    }
                    Ok(n)
                }
                Err(kind) => Err(std::io::Error::new(kind, "stall")),
            }
        }
    }

    #[test]
    fn frame_reader_survives_stalls_mid_frame_without_desync() {
        use std::io::ErrorKind;
        let mut first = Vec::new();
        write_frame(&mut first, b"hello").unwrap();
        let mut second = Vec::new();
        write_frame(&mut second, b"world!").unwrap();
        // Stalls after 2 header bytes, again after 3 payload bytes —
        // the exact situation that desyncs the one-shot read_frame.
        let mut stream = StallingStream {
            script: vec![
                Ok(first[..2].to_vec()),
                Err(ErrorKind::WouldBlock),
                Ok(first[2..4].to_vec()),
                Ok(first[4..7].to_vec()),
                Err(ErrorKind::TimedOut),
                Ok(first[7..].to_vec()),
                Err(ErrorKind::WouldBlock),
                Ok(second.clone()),
            ],
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut stalls = 0;
        loop {
            match reader.poll(&mut stream).expect("no framing error") {
                FrameProgress::Frame(payload) => frames.push(payload.into_owned()),
                FrameProgress::Pending => stalls += 1,
                FrameProgress::Eof => break,
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), b"world!".to_vec()]);
        assert_eq!(stalls, 3, "every scripted stall surfaced as Pending");
    }

    #[test]
    fn frame_reader_reports_mid_frame_state() {
        use std::io::ErrorKind;
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"abc").unwrap();
        let mut stream = StallingStream {
            script: vec![Ok(bytes[..3].to_vec()), Err(ErrorKind::WouldBlock)],
        };
        let mut reader = FrameReader::new();
        assert!(!reader.mid_frame());
        assert_eq!(reader.poll(&mut stream).unwrap(), FrameProgress::Pending);
        assert!(reader.mid_frame(), "partial header counts as mid-frame");
    }

    #[test]
    fn frame_reader_matches_read_frame_on_clean_streams() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        let mut reader = FrameReader::new();
        assert_eq!(
            reader.poll(&mut r).unwrap(),
            FrameProgress::Frame(Cow::Borrowed(b"hello"))
        );
        assert_eq!(
            reader.poll(&mut r).unwrap(),
            FrameProgress::Frame(Cow::Borrowed(b""))
        );
        assert_eq!(reader.poll(&mut r).unwrap(), FrameProgress::Eof);
    }

    #[test]
    fn frame_reader_rejects_oversized_header_and_midframe_eof() {
        // Forged length prefix.
        let huge = u32::MAX.to_le_bytes().to_vec();
        let mut r = &huge[..];
        assert!(matches!(
            FrameReader::new().poll(&mut r).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        // EOF inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..6];
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.poll(&mut r).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn oversized_write_is_refused() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &payload).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        assert!(buf.is_empty(), "nothing must be written on refusal");
    }

    // -----------------------------------------------------------------
    // The buffered reader and the resumable writer, held to the oracle.
    // -----------------------------------------------------------------

    use proptest::prelude::*;
    use std::io::ErrorKind;

    const STALLS: [ErrorKind; 3] = [
        ErrorKind::WouldBlock,
        ErrorKind::TimedOut,
        ErrorKind::Interrupted,
    ];

    /// Payload sizes around everything the reader branches on: empty,
    /// one byte, routine, a window in which first the frame and then
    /// the payload alone outgrow the buffer, and several buffers long.
    fn arb_payload_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1usize),
            2usize..600,
            (READ_BUF_LEN - 10)..=(READ_BUF_LEN + 5),
            (3 * READ_BUF_LEN)..(3 * READ_BUF_LEN + 64),
        ]
    }

    /// How many bytes one scripted call moves: a dribble or a flood.
    fn arb_step_len() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..8, 1usize..40_000]
    }

    /// Bytes that depend on position and frame, so a shifted, dropped
    /// or repeated byte shows.
    fn payload(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    /// Cuts `bytes` into the chunks `cuts` dictates (cycled); a stall
    /// index below `STALLS.len()` puts that stall ahead of the chunk —
    /// and one may follow the last chunk too.
    fn read_script(bytes: &[u8], cuts: &[(usize, usize)]) -> Vec<Result<Vec<u8>, ErrorKind>> {
        let mut script = Vec::new();
        let mut rest = bytes;
        for &(len, stall) in cuts.iter().cycle() {
            if let Some(&kind) = STALLS.get(stall) {
                script.push(Err(kind));
            }
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            script.push(Ok(chunk.to_vec()));
            rest = tail;
        }
        script
    }

    /// A writer that takes at most the scripted number of bytes per
    /// call, or stalls; past the script it takes everything. With
    /// `vectored` off it behaves like a writer that never overrode
    /// `write_vectored` (std then offers it the first non-empty slice).
    struct ScriptedWriter {
        script: Vec<Result<usize, ErrorKind>>,
        vectored: bool,
        out: Vec<u8>,
    }

    impl ScriptedWriter {
        fn take(&mut self, offered: &[&[u8]]) -> io::Result<usize> {
            let mut room = match self.script.is_empty() {
                true => usize::MAX,
                false => self.script.remove(0)?,
            };
            let before = self.out.len();
            for buf in offered {
                let n = buf.len().min(room);
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.out.len() - before)
        }
    }

    impl Write for ScriptedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.take(&[buf])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut slices: Vec<&[u8]> = bufs.iter().map(|b| &**b).collect();
            if !self.vectored {
                slices.retain(|b| !b.is_empty());
                slices.truncate(1);
            }
            self.take(&slices)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The check for any change to the read path: whatever the
        /// frame sizes, however the stream is cut and wherever it
        /// stalls, the buffered reader yields exactly the payloads the
        /// two-step oracle reads from the uncut bytes — polled (one
        /// `Pending` per stall, nothing lost) and blocking (signals
        /// retried).
        #[test]
        fn buffered_reader_matches_the_oracle_under_any_chunking_and_stalls(
            lens in proptest::collection::vec(arb_payload_len(), 0usize..6),
            cuts in proptest::collection::vec((arb_step_len(), 0usize..8), 1usize..12),
        ) {
            let mut bytes = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                bytes.extend(framed(&payload(len, i as u8)));
            }
            let mut expected = Vec::new();
            let mut uncut = &bytes[..];
            while let Some(frame) = read_frame(&mut uncut).expect("well-formed") {
                expected.push(frame);
            }
            prop_assert_eq!(expected.len(), lens.len());

            let script = read_script(&bytes, &cuts);
            let stalls = script.iter().filter(|step| step.is_err()).count();

            let mut stream = StallingStream { script: script.clone() };
            let mut reader = FrameReader::new();
            let (mut frames, mut pendings) = (Vec::new(), 0);
            loop {
                match reader.poll(&mut stream).expect("no framing error") {
                    FrameProgress::Frame(payload) => frames.push(payload.into_owned()),
                    FrameProgress::Pending => pendings += 1,
                    FrameProgress::Eof => break,
                }
            }
            prop_assert!(frames == expected, "polled frames differ from the oracle's");
            prop_assert_eq!(pendings, stalls);
            prop_assert!(!reader.mid_frame());

            let signals = script
                .into_iter()
                .map(|step| step.map_err(|_| ErrorKind::Interrupted))
                .collect();
            let mut stream = StallingStream { script: signals };
            let mut reader = FrameReader::new();
            let mut frames = Vec::new();
            while let Some(frame) = reader.read_frame(&mut stream).expect("signals are retried") {
                frames.push(frame);
            }
            prop_assert!(frames == expected, "blocking frames differ from the oracle's");
        }

        /// The same for the write path: short writes and stalls
        /// anywhere, with or without vectored support underneath, and
        /// the stream receives exactly `header ‖ payload` — every
        /// stall reported once, with the byte the frame resumes from.
        #[test]
        fn resumable_writer_emits_header_then_payload_under_any_script(
            len in arb_payload_len(),
            steps in proptest::collection::vec((arb_step_len(), 0usize..8), 0usize..12),
            vectored in 0u8..2,
        ) {
            let payload = payload(len, 7);
            let mut script = Vec::new();
            for &(n, stall) in &steps {
                script.extend(STALLS.get(stall).map(|&kind| Err(kind)));
                script.push(Ok(n));
            }
            let scripted = script.iter().filter(|step| step.is_err()).count();
            let mut writer = ScriptedWriter { script, vectored: vectored == 1, out: Vec::new() };
            let mut resumed_from = Vec::new();
            write_frame_with(&mut writer, &payload, |_, sent| {
                resumed_from.push(sent);
                true
            })
            .expect("every stall was waved on");
            prop_assert!(writer.out == framed(&payload), "the stream did not get header ‖ payload");
            let unused = writer.script.iter().filter(|step| step.is_err()).count();
            prop_assert_eq!(resumed_from.len(), scripted - unused);
            prop_assert!(resumed_from.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(resumed_from.iter().all(|&sent| sent < writer.out.len()));
        }
    }

    #[test]
    fn a_blocking_write_gives_up_at_a_timeout_a_resumed_one_finishes_the_frame() {
        let script = || {
            vec![
                Ok(2),
                Err(ErrorKind::Interrupted),
                Ok(3),
                Err(ErrorKind::TimedOut),
                Ok(1),
            ]
        };
        let mut writer = ScriptedWriter {
            script: script(),
            vectored: true,
            out: Vec::new(),
        };
        assert!(matches!(
            write_frame(&mut writer, b"hello").unwrap_err(),
            WireError::Io { .. }
        ));
        assert_eq!(writer.out, framed(b"hello")[..5], "the signal was retried");

        let mut writer = ScriptedWriter {
            script: script(),
            vectored: true,
            out: Vec::new(),
        };
        write_frame_with(&mut writer, b"hello", |_, _| true).unwrap();
        assert_eq!(writer.out, framed(b"hello"));
    }

    /// A duplex double: reads follow a script, writes are recorded.
    struct ScriptedDuplex {
        reads: StallingStream,
        written: Vec<u8>,
    }

    impl Read for ScriptedDuplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads.read(buf)
        }
    }

    impl Write for ScriptedDuplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_call_ends_the_transport_instead_of_shifting_every_answer() {
        // The answer to request a arrives after the read timed out.
        let stream = ScriptedDuplex {
            reads: StallingStream {
                script: vec![
                    Err(ErrorKind::TimedOut),
                    Ok(framed(b"answer-a")),
                    Ok(framed(b"answer-b")),
                ],
            },
            written: Vec::new(),
        };
        let mut transport = StreamTransport::new(stream);
        assert!(matches!(
            transport.call(b"request-a").unwrap_err(),
            WireError::Io { .. }
        ));
        // The two-step reader handed "answer-a" to request b here.
        assert!(matches!(
            transport.call(b"request-b").unwrap_err(),
            WireError::Io { .. }
        ));
        assert_eq!(
            transport.get_ref().written,
            framed(b"request-a"),
            "a broken transport sends nothing more"
        );
    }

    #[test]
    fn an_oversized_request_is_refused_unsent_and_breaks_nothing() {
        let stream = ScriptedDuplex {
            reads: StallingStream {
                script: vec![Ok(framed(b"pong"))],
            },
            written: Vec::new(),
        };
        let mut transport = StreamTransport::new(stream);
        assert!(matches!(
            transport.call(&vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
        assert!(transport.get_ref().written.is_empty());
        assert_eq!(transport.call(b"ping").unwrap(), b"pong");
    }
}
