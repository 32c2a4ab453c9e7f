//! `qucp-daemon` — the long-running front door to the QuCP runtime:
//! the `qucpd` socket daemon, its versioned binary wire protocol, and
//! a blocking [`Client`].
//!
//! The library [`Service`](qucp_runtime::Service) built in earlier
//! iterations is deterministic and fast, but in-process only. This
//! crate runs it as a shared process: remote clients submit circuits
//! over a unix-domain socket (or TCP), a wall-clock driver folds real
//! monotonic time into `advance_dispatch(now)` + `advance_drift(now)`
//! (completion notifications stay with client ticks), and the
//! daemon's reply to a drain is **bit-identical** to calling the
//! service in process — the protocol carries `f64`s as IEEE-754 bit
//! patterns end to end.
//!
//! # Frame layout
//!
//! Every message travels as one frame on a reliable byte stream:
//!
//! ```text
//! ┌────────────┬──────────────────────────────┐
//! │ u32 le len │ payload (len bytes)          │
//! └────────────┴──────────────────────────────┘
//! payload := tag (u8) | body
//! ```
//!
//! - `len` counts payload bytes only and is bounded by
//!   [`MAX_FRAME_LEN`] (16 MiB); an oversized header is rejected
//!   before any allocation.
//! - Request tags occupy `0x01..=0x7f`, response tags `0x81..=0xff`
//!   (the high bit marks the direction).
//! - Body fields are little-endian fixed-width integers; `usize` is
//!   always 8 bytes on the wire; `f64` is its IEEE-754 bit pattern
//!   (NaN payloads and signed zeros round-trip bit-for-bit); strings
//!   and sequences are length-prefixed; options carry a presence byte.
//! - Decoders are total: truncated frames, forged length prefixes,
//!   unknown tags, invalid UTF-8 and structurally impossible values
//!   all map to a typed [`WireError`] (server side: a [`Fault`]
//!   frame), never a panic.
//!
//! # Version rules
//!
//! The first frame on every connection must be `Hello`, carrying the
//! magic `"QCPD"` and the client's newest version. The server replies
//! `HelloAck` with `min(client, server)` — both sides then speak that
//! version — or an `UnsupportedVersion` fault when the client
//! predates [`MIN_SUPPORTED_VERSION`]. Any other request before the
//! handshake earns a `HandshakeRequired` fault. Tag numbers are
//! **append-only**: each enum's tags are one numbered list in
//! [`proto`], a new variant is one line at the end of that list with
//! the next free number (and a new protocol version), and a number,
//! once given, is never moved or reused. A struct's fields travel in
//! the order of its one field list; a field added to it must be an
//! optional tail its decoder can do without (`RouteCacheStats`).
//! `crates/daemon/tests/golden_frames.rs` holds every version-3 frame
//! as committed bytes, so a list edited in place fails a test.
//!
//! # What a round trip costs
//!
//! One exchange — a request frame out, a response frame back — costs
//! what the protocol needs and no more, on a unix socket and on TCP
//! alike:
//!
//! - **Four syscalls.** Each side sends a frame with one vectored
//!   write (header and payload together: one segment on TCP, where
//!   both ends also set `TCP_NODELAY`) and receives it with one `read`
//!   into a buffer it keeps, when the frame arrives whole. A frame
//!   that arrives in pieces, or stalls, costs one `read` per piece and
//!   loses nothing; several frames that arrive together cost one
//!   `read` between them.
//! - **Two wake-ups.** The request wakes the connection's one server
//!   thread, which reads it, handles it under the service lock and
//!   writes the response itself; the response wakes the client. There
//!   is no second thread and no queue between handling and sending.
//! - **One allocation for framing and codec**: the response `Vec` that
//!   [`Transport::call`] returns. The client encodes into a scratch
//!   buffer it keeps ([`Request::encode_into`]); the server decodes
//!   the request straight out of its read buffer and encodes the
//!   response into a scratch buffer of its own
//!   ([`ServerSession::handle_frame_into`]). A scratch buffer that one
//!   large message grew past 64 KiB is released after that message.
//!   What remains is the messages themselves — the circuit a `Submit`
//!   decodes into, the counts a result carries. A result's counts are
//!   one request however many outcomes they hold: the decoder reads
//!   the entries into one vector of the frame's length, which the
//!   histogram keeps.
//!
//! Three properties come with that shape rather than with extra code:
//!
//! - **Responses leave in request order.** A client may write several
//!   requests before it reads; the answers come back in that order.
//! - **Backpressure instead of a queue.** The daemon holds at most one
//!   unsent response per connection. A peer that stops reading stops
//!   being read once its socket fills, and its own writes then block;
//!   other connections are served meanwhile, and shutdown gives such a
//!   peer half a second, not forever.
//! - **A transport error ends the client.** After a failed exchange
//!   the late response could still arrive and be taken for the next
//!   call's answer, so a [`StreamTransport`] that has failed once
//!   answers every further call with [`WireError::Io`]; reconnect to
//!   go on. (A request refused for its size before a byte was sent
//!   breaks nothing.)
//!
//! # What a connection keeps
//!
//! Jobs run on the thread whose `Tick` or `Drain` dispatches them — a
//! connection's own. A thread that has run a job keeps the simulator's
//! run scratch (the error-shot buffers, the level pool and the sampling
//! tables) for its next run, at most 1 MiB of it (`qucp_sim`'s
//! executor docs, "Where a run's memory lives"), until the connection
//! closes; `N` connections that ran jobs hold at most `N` MiB of it.
//! Measured on a two-core x86-64 Linux host, with the daemon in
//! process on Toronto and each connection in turn submitting the twelve
//! wide `sim_campaigns` jobs at 8 192 shots and ticking them through:
//! the resident set reads 7.4–7.6 MB after 8 connections and 16.5–16.6
//! MB after 32, where a build that frees every run's buffers reads
//! 8.2–8.3 and 14.4–14.7 MB — about 60 kB a connection more at 32.
//!
//! # Structure
//!
//! - [`wire`] — bounds-checked encoding primitives; the [`Wire`]
//!   trait (`put`, `get`, and `MIN_BYTES`, the fewest bytes a value
//!   takes, which bounds every sequence length before anything is
//!   reserved) with its impls for scalars, strings, options, vectors,
//!   boxes and pairs; and the two macros that write a struct's impl
//!   from its field list and an enum's from its tag list.
//! - [`proto`] — the message catalog, and one layout declaration per
//!   type that crosses the wire: a field list, a tag list, or — where
//!   the decoder validates what it read (a circuit's gates, a link
//!   pair, counts, a measured-crosstalk map, the optional tail of the
//!   cache counters, the handshake magic) — a hand-written [`Wire`]
//!   impl. The runtime's error travels as itself
//!   ([`WireRuntimeError`] is `RuntimeError<String>`).
//! - [`transport`] — framing over byte streams: the one frame writer,
//!   the one buffered [`FrameReader`]; the [`Transport`] trait.
//! - [`server`] — [`ServerSession`] (pure protocol handler), the
//!   socket accept loop (one thread per connection), the wall-clock
//!   driver.
//! - [`client`] — the blocking [`Client`] handle.
//! - [`mock`] — [`MockTransport`]: the whole protocol with no sockets
//!   or threads.

#![warn(missing_docs)]

pub mod client;
pub mod mock;
pub mod proto;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{Client, ClientError};
pub use mock::MockTransport;
pub use proto::{
    negotiate, Fault, Request, Response, WireRuntimeError, MAGIC, MIN_SUPPORTED_VERSION,
    PROTOCOL_VERSION,
};
pub use server::{Daemon, DaemonConfig, DaemonHandle, ServerSession};
pub use transport::{write_frame, FrameProgress, FrameReader, StreamTransport, Transport};
pub use wire::{Decoder, Encoder, Wire, WireError, MAX_FRAME_LEN};
