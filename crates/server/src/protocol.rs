//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one **frame**: a little-endian
//! `u32` payload length followed by the payload, whose first byte is the
//! opcode. Requests and their responses pair up one-to-one on a connection
//! (the protocol is strictly request/response; pipelining works because the
//! server answers in order, but nothing requires it). All integers are
//! little-endian; node ids are the engine's **dense** ids in
//! `0..node_count` (the `HELLO` response carries `node_count`, so a client
//! can generate valid ids without knowing the dataset's label space).
//!
//! | request | body | response | body |
//! |---|---|---|---|
//! | [`OP_HELLO`] | — | [`OP_HELLO_OK`] | `u64 node_count, u8 backend (0 resident / 1 paged), u32 snapshot_version (0 = built in memory)` |
//! | [`OP_QUERY`] | `u64 p, u64 q` | [`OP_QUERY_OK`] | `f64 resistance` |
//! | [`OP_BATCH`] | `u8 flags (bit 0 = partial, other bits must be 0), u32 deadline_ms (0 = none), u32 count, count × (u64 p, u64 q)` | [`OP_BATCH_OK`] | `u32 count, count × f64` (a fail-fast batch) |
//! | | | [`OP_BATCH_PARTIAL_OK`] | `u32 count, u32 failed, count × u8 status, count × f64, UTF-8 first-failure message` (a partial batch, or a fail-fast one cut short under brownout) |
//! | [`OP_PING`] | — | [`OP_PING_OK`] | `u8 backend (0 resident / 1 paged), u64 node_count, f64 uptime_secs, u64 epoch, u8 health (0 ok / 1 degraded / 2 draining), u8 brownout (0 off / 1 on), UTF-8 snapshot path (may be empty)` |
//! | [`OP_STATS`] | — | [`OP_STATS_OK`] | UTF-8 JSON (see [`crate::server`]) |
//! | [`OP_SHUTDOWN`] | — | [`OP_SHUTDOWN_OK`] | — (the server then stops accepting and drains) |
//! | [`OP_RELOAD`] | UTF-8 snapshot path | [`OP_RELOAD_OK`] | `u64 epoch, u64 node_count, u32 snapshot_version` (the swapped-in engine) |
//!
//! Any request can instead draw [`OP_ERROR`] with a UTF-8 message (bad
//! node id, malformed body, unknown opcode) — the connection stays usable —
//! or [`OP_BUSY`] when the server sheds the request under overload: the
//! request was well-formed, the client should back off and retry.
//! A batch whose deadline expired — or that the server judged unmeetable
//! up front — draws [`OP_DEADLINE`] instead: unlike `OP_BUSY`, retrying the
//! same request with the same deadline is pointless; the client should
//! relax the deadline or shrink the batch.
//! `deadline_ms` is the client's end-to-end budget in milliseconds from the
//! moment the server parses the request; `0` means no deadline (the request
//! is still cancelled if the client disconnects mid-computation). A batch
//! body with reserved flag bits set, or whose count disagrees with its
//! size, draws `OP_ERROR` like any other malformed request.
//! Frames over [`MAX_FRAME_BYTES`] are rejected without allocation — that
//! caps a batch at about four million pairs, far above anything the engine
//! wants in one piece anyway.
//!
//! A partial-batch response carries one status byte per query
//! ([`STATUS_OK`], [`STATUS_STORE_FAILURE`], [`STATUS_OUT_OF_BOUNDS`],
//! [`STATUS_BUSY`], [`STATUS_OTHER`], [`STATUS_DEADLINE`]) followed by one
//! `f64` per query (0.0 where the status is a failure), so a poisoned page
//! degrades the queries that touch it instead of failing the whole batch.
//!
//! Opcodes `0x07`, `0x09` and `0x0A` are reserved: a client speaking the
//! earlier protocol, which sent its partial and deadline-carrying batches
//! there, draws `OP_ERROR` instead of having its body misread.

use std::io::{self, Read, Write};

/// Handshake: ask who is serving.
pub const OP_HELLO: u8 = 0x01;
/// One pair query (dense ids).
pub const OP_QUERY: u8 = 0x02;
/// A batch of pair queries (dense ids), with a flags byte
/// ([`BATCH_FLAG_PARTIAL`]) and an optional deadline. The server sheds the
/// batch up front when its service-time estimate says the deadline cannot
/// be met, and abandons the remaining work — at the next chunk boundary,
/// never mid-kernel — when the deadline expires or the client disconnects
/// mid-computation.
pub const OP_BATCH: u8 = 0x03;
/// Server statistics as JSON.
pub const OP_STATS: u8 = 0x04;
/// Stop accepting, drain connections, exit the serve loop.
pub const OP_SHUTDOWN: u8 = 0x05;
/// Health check: round-trips engine liveness without touching columns.
pub const OP_PING: u8 = 0x06;
/// Hot reload: atomically swap the served engine to the snapshot named in
/// the body (a UTF-8 path the *server* process can read). In-flight requests
/// finish on the old epoch; every request accepted after the swap serves the
/// new one.
pub const OP_RELOAD: u8 = 0x08;
/// [`OP_BATCH`] flag bit: answer in partial-results mode — per-query
/// statuses in an [`OP_BATCH_PARTIAL_OK`] instead of all-or-nothing. Queries
/// answered before a deadline tripped keep their bit-identical values; the
/// abandoned tail carries [`STATUS_DEADLINE`].
pub const BATCH_FLAG_PARTIAL: u8 = 0x01;

/// Response to [`OP_HELLO`].
pub const OP_HELLO_OK: u8 = 0x81;
/// Response to [`OP_QUERY`].
pub const OP_QUERY_OK: u8 = 0x82;
/// Response to [`OP_BATCH`].
pub const OP_BATCH_OK: u8 = 0x83;
/// Response to [`OP_STATS`].
pub const OP_STATS_OK: u8 = 0x84;
/// Response to [`OP_SHUTDOWN`] (acknowledged before the listener stops).
pub const OP_SHUTDOWN_OK: u8 = 0x85;
/// Response to [`OP_PING`].
pub const OP_PING_OK: u8 = 0x86;
/// Response to a partial [`OP_BATCH`] (see [`BATCH_FLAG_PARTIAL`]).
pub const OP_BATCH_PARTIAL_OK: u8 = 0x87;
/// Response to [`OP_RELOAD`]: the new engine is live.
pub const OP_RELOAD_OK: u8 = 0x88;
/// Deadline response to a batch: its deadline expired mid-computation (or
/// was judged unmeetable up front) and the whole batch was abandoned; body
/// is a UTF-8 message. Unlike [`OP_BUSY`] this is not an invitation to
/// retry as-is — relax the deadline or shrink the batch.
pub const OP_DEADLINE: u8 = 0xFD;
/// Overload response to any request: the server shed it (admission queue
/// full or lease timeout); body is a UTF-8 message. Back off and retry.
pub const OP_BUSY: u8 = 0xFE;
/// Error response to any request; body is a UTF-8 message.
pub const OP_ERROR: u8 = 0xFF;

/// Partial-batch per-query status: answered, value is valid.
pub const STATUS_OK: u8 = 0;
/// Partial-batch per-query status: the store could not produce a column
/// this pair touches (exhausted retries, persistent corruption).
pub const STATUS_STORE_FAILURE: u8 = 1;
/// Partial-batch per-query status: a node id was out of bounds.
pub const STATUS_OUT_OF_BOUNDS: u8 = 2;
/// Partial-batch per-query status: admission shed this query mid-batch.
pub const STATUS_BUSY: u8 = 3;
/// Partial-batch per-query status: any other typed engine failure.
pub const STATUS_OTHER: u8 = 4;
/// Partial-batch per-query status: the deadline expired (or the client
/// disconnected) before this query ran; its work was abandoned at a chunk
/// boundary. Queries with [`STATUS_OK`] in the same response completed
/// before the trip and their values are bit-identical to an undisturbed
/// run.
pub const STATUS_DEADLINE: u8 = 5;

/// Largest accepted frame payload (64 MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Server health as carried in [`OP_PING_OK`] (one byte on the wire) and in
/// the stats document (its [`Health::as_str`] form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving normally, no integrity failures observed.
    Ok,
    /// Still serving, but typed store failures or scrubber findings have
    /// been recorded — the snapshot (or the disk under it) deserves a look.
    Degraded,
    /// Shutdown in progress: the listener is closed and in-flight requests
    /// are draining.
    Draining,
}

impl Health {
    /// Wire encoding (`0` ok, `1` degraded, `2` draining).
    pub fn as_u8(self) -> u8 {
        match self {
            Health::Ok => 0,
            Health::Degraded => 1,
            Health::Draining => 2,
        }
    }

    /// Decodes the wire byte; `None` for anything unassigned.
    pub fn from_u8(value: u8) -> Option<Health> {
        match value {
            0 => Some(Health::Ok),
            1 => Some(Health::Degraded),
            2 => Some(Health::Draining),
            _ => None,
        }
    }

    /// The stats-document spelling: `"ok"`, `"degraded"` or `"draining"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Draining => "draining",
        }
    }
}

/// Writes one frame (length prefix + payload). The caller flushes.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)
}

/// Reads one frame's payload. `Ok(None)` on clean EOF at a frame boundary
/// (the peer closed the connection); errors on EOF mid-frame, or on a
/// length prefix beyond [`MAX_FRAME_BYTES`].
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match reader.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A cursor over a received payload with checked little-endian reads.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `bytes` (typically a frame payload past the opcode).
    pub fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        let Some(end) = end else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated payload",
            ));
        };
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Next little-endian `f64`.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// All remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.at..];
        self.at = self.bytes.len();
        rest
    }

    /// Errors unless the payload was consumed exactly.
    pub fn finish(self) -> io::Result<()> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in payload",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[OP_QUERY, 1, 2, 3]).expect("write");
        write_frame(&mut wire, &[]).expect("write empty");
        let mut reader = wire.as_slice();
        assert_eq!(
            read_frame(&mut reader).expect("read").as_deref(),
            Some(&[OP_QUERY, 1, 2, 3][..])
        );
        assert_eq!(
            read_frame(&mut reader).expect("read").as_deref(),
            Some(&[][..])
        );
        assert_eq!(read_frame(&mut reader).expect("eof"), None);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        let mut truncated = Vec::new();
        write_frame(&mut truncated, &[0u8; 16]).expect("write");
        truncated.truncate(10);
        assert!(read_frame(&mut truncated.as_slice()).is_err());
    }

    #[test]
    fn payload_reader_checks_bounds_and_trailing_bytes() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        let mut reader = PayloadReader::new(&bytes);
        assert_eq!(reader.u64().expect("u64"), 7);
        assert_eq!(reader.f64().expect("f64"), 1.5);
        assert!(reader.u8().is_err(), "reading past the end fails");
        let mut reader = PayloadReader::new(&bytes);
        assert_eq!(reader.u64().expect("u64"), 7);
        assert!(reader.finish().is_err(), "unconsumed bytes are an error");
    }
}
