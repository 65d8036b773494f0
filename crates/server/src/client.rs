//! A blocking client for the effres wire protocol.
//!
//! [`Client::connect`] dials, performs the `HELLO` handshake, and exposes
//! one method per request type. Each method writes one frame, flushes, and
//! blocks for the matching response — the protocol is strictly
//! request/response, so a client needs no background machinery. A `Client`
//! owns its connection and is cheap enough to open per thread; the load
//! generator in `effres-cli bench-client` does exactly that.
//!
//! For operating against a server that sheds load or closes idle
//! connections, [`Client::connect_with`] takes a [`ReconnectPolicy`]
//! (bounded attempts with exponential backoff) and [`Client::reconnect`]
//! re-dials the same peer under that policy — the server's idle-deadline
//! close then costs one handshake, not a failed request. An
//! [`OP_BUSY`] response surfaces as
//! [`ClientError::Busy`], distinct from real errors, so callers know to
//! back off and retry rather than give up.

use crate::protocol::{
    read_frame, write_frame, Health, PayloadReader, BATCH_FLAG_PARTIAL, OP_BATCH, OP_BATCH_OK,
    OP_BATCH_PARTIAL_OK, OP_BUSY, OP_DEADLINE, OP_ERROR, OP_HELLO, OP_HELLO_OK, OP_PING,
    OP_PING_OK, OP_QUERY, OP_QUERY_OK, OP_RELOAD, OP_RELOAD_OK, OP_SHUTDOWN, OP_SHUTDOWN_OK,
    OP_STATS, OP_STATS_OK, STATUS_BUSY, STATUS_DEADLINE, STATUS_OK,
};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What the server announced in its `HELLO` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Number of nodes served; valid dense ids are `0..node_count`.
    pub node_count: u64,
    /// Whether the backend is paged (out-of-core) rather than resident.
    pub paged: bool,
    /// Snapshot format version of the served file (v1/v2/v3), or `None`
    /// when the server built its estimator in memory.
    pub snapshot_version: Option<u32>,
}

/// What the server answered to a `PING` health check.
#[derive(Debug, Clone, PartialEq)]
pub struct PingReport {
    /// Whether the backend is paged (out-of-core) rather than resident.
    pub paged: bool,
    /// Number of nodes served.
    pub node_count: u64,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Serving epoch: 1 for the engine the server started with, +1 per hot
    /// reload since.
    pub epoch: u64,
    /// Server health: ok, degraded (integrity failures on the books, or
    /// brownout) or draining (shutdown in progress).
    pub health: Health,
    /// Whether the brownout overload controller currently holds the server
    /// in degraded mode (fail-fast batches served in partial mode).
    pub brownout: bool,
    /// The snapshot file the current epoch serves, when it came from one.
    pub snapshot_path: Option<String>,
}

/// What the server answered to a successful `RELOAD`: the identity of the
/// engine it atomically swapped in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadReport {
    /// The new serving epoch.
    pub epoch: u64,
    /// Node count of the swapped-in engine.
    pub node_count: u64,
    /// Snapshot format version of the reloaded file, or `None` if the
    /// server did not report one.
    pub snapshot_version: Option<u32>,
}

/// A batch answer with per-query status bytes (the `STATUS_*` constants in
/// [`crate::protocol`]) next to per-query values (0.0 where the status is a
/// failure) — what [`Client::query_batch_with`] returns in either mode.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialBatch {
    /// Per-query status byte, in request order.
    pub statuses: Vec<u8>,
    /// Per-query value, in request order; only meaningful where the status
    /// is [`STATUS_OK`].
    pub values: Vec<f64>,
    /// How many queries failed.
    pub failed: u32,
    /// The first failed query's error message, if any failed.
    pub first_failure: Option<String>,
}

impl PartialBatch {
    /// `true` when every query succeeded (the values match what a plain
    /// batch would have returned, bit for bit).
    pub fn is_complete(&self) -> bool {
        self.failed == 0
    }

    /// The values of a complete batch; a batch cut short surfaces as the
    /// typed error of its dominant failure — a deadline miss, then a shed,
    /// then any other failure.
    pub fn into_values(self) -> Result<Vec<f64>, ClientError> {
        if self.is_complete() {
            return Ok(self.values);
        }
        let message = self.first_failure.unwrap_or_default();
        Err(if self.statuses.contains(&STATUS_DEADLINE) {
            ClientError::DeadlineExceeded(message)
        } else if self.statuses.contains(&STATUS_BUSY) {
            ClientError::Busy(message)
        } else {
            ClientError::Remote(message)
        })
    }
}

/// How [`Client::connect_with`] and [`Client::reconnect`] retry dialing:
/// up to `attempts` tries, sleeping `initial_backoff` before the second and
/// doubling up to `max_backoff` between subsequent tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Total connection attempts (at least 1).
    pub attempts: u32,
    /// Sleep before the second attempt.
    pub initial_backoff: Duration,
    /// Ceiling for the doubled backoff.
    pub max_backoff: Duration,
}

impl ReconnectPolicy {
    /// One attempt, no retry — the behavior of [`Client::connect`].
    pub fn none() -> Self {
        ReconnectPolicy {
            attempts: 1,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }
}

impl Default for ReconnectPolicy {
    /// Five attempts backing off 50 ms → 100 → 200 → 400 (capped at 2 s):
    /// rides out a server restart without hammering it.
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection itself failed (refused, reset, timed out).
    Io(io::Error),
    /// The server answered with an error frame (bad node id, malformed
    /// request); the connection stays usable.
    Remote(String),
    /// The server shed the request under overload; it was well-formed and
    /// the connection stays usable — back off and retry.
    Busy(String),
    /// The request's deadline expired before the server finished (or the
    /// server judged it unmeetable up front and shed it whole). Unlike
    /// [`ClientError::Busy`], retrying the same request with the same
    /// deadline is pointless — relax the deadline or shrink the batch.
    DeadlineExceeded(String),
    /// The server answered with bytes this client cannot interpret.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Remote(message) => write!(f, "server error: {message}"),
            ClientError::Busy(message) => write!(f, "server busy: {message}"),
            ClientError::DeadlineExceeded(message) => {
                write!(f, "deadline exceeded: {message}")
            }
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to an effres server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    info: ServerInfo,
    peer: SocketAddr,
    policy: ReconnectPolicy,
}

impl Client {
    /// Connects (one attempt) and performs the `HELLO` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ReconnectPolicy::none())
    }

    /// Connects under `policy` — retrying refused/reset dials with
    /// exponential backoff — then performs the `HELLO` handshake. The
    /// resolved peer address and the policy are kept, so
    /// [`Client::reconnect`] can re-dial later.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: ReconnectPolicy,
    ) -> Result<Client, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = dial(&addrs, policy)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            info: ServerInfo {
                node_count: 0,
                paged: false,
                snapshot_version: None,
            },
            peer,
            policy,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Drops the current connection and dials the same peer again under
    /// the connect-time [`ReconnectPolicy`], re-running the handshake.
    /// Use after an [`ClientError::Io`] failure (server restarted, idle
    /// deadline closed the connection).
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = dial(&[self.peer], self.policy)?;
        stream.set_nodelay(true)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = BufWriter::new(stream);
        self.handshake()
    }

    fn handshake(&mut self) -> Result<(), ClientError> {
        let payload = self.round_trip(&[OP_HELLO], OP_HELLO_OK)?;
        let mut reader = PayloadReader::new(&payload);
        let node_count = reader.u64().map_err(bad_reply)?;
        let paged = reader.u8().map_err(bad_reply)? != 0;
        let version = reader.u32().map_err(bad_reply)?;
        reader.finish().map_err(bad_reply)?;
        self.info = ServerInfo {
            node_count,
            paged,
            snapshot_version: (version != 0).then_some(version),
        };
        Ok(())
    }

    /// What the server announced at connect time.
    pub fn info(&self) -> ServerInfo {
        self.info
    }

    /// Health check: round-trips the server without touching columns.
    pub fn ping(&mut self) -> Result<PingReport, ClientError> {
        let payload = self.round_trip(&[OP_PING], OP_PING_OK)?;
        let mut reader = PayloadReader::new(&payload);
        let paged = reader.u8().map_err(bad_reply)? != 0;
        let node_count = reader.u64().map_err(bad_reply)?;
        let uptime_secs = reader.f64().map_err(bad_reply)?;
        let epoch = reader.u64().map_err(bad_reply)?;
        let health_byte = reader.u8().map_err(bad_reply)?;
        let health = Health::from_u8(health_byte)
            .ok_or_else(|| ClientError::Protocol(format!("unknown health state {health_byte}")))?;
        let brownout = reader.u8().map_err(bad_reply)? != 0;
        let path = String::from_utf8_lossy(reader.rest()).into_owned();
        Ok(PingReport {
            paged,
            node_count,
            uptime_secs,
            epoch,
            health,
            brownout,
            snapshot_path: (!path.is_empty()).then_some(path),
        })
    }

    /// Asks the server to hot-reload: open the snapshot at `path` (a path
    /// **the server process** can read), swap it in atomically, and report
    /// the new epoch. In-flight requests finish on the old engine; requests
    /// accepted after the ack serve the new one.
    pub fn reload(&mut self, path: &str) -> Result<ReloadReport, ClientError> {
        let mut request = Vec::with_capacity(1 + path.len());
        request.push(OP_RELOAD);
        request.extend_from_slice(path.as_bytes());
        let payload = self.round_trip(&request, OP_RELOAD_OK)?;
        let mut reader = PayloadReader::new(&payload);
        let epoch = reader.u64().map_err(bad_reply)?;
        let node_count = reader.u64().map_err(bad_reply)?;
        let version = reader.u32().map_err(bad_reply)?;
        reader.finish().map_err(bad_reply)?;
        Ok(ReloadReport {
            epoch,
            node_count,
            snapshot_version: (version != 0).then_some(version),
        })
    }

    /// Effective resistance between dense node ids `p` and `q`.
    pub fn query(&mut self, p: u64, q: u64) -> Result<f64, ClientError> {
        let mut request = Vec::with_capacity(17);
        request.push(OP_QUERY);
        request.extend_from_slice(&p.to_le_bytes());
        request.extend_from_slice(&q.to_le_bytes());
        let payload = self.round_trip(&request, OP_QUERY_OK)?;
        let mut reader = PayloadReader::new(&payload);
        let value = reader.f64().map_err(bad_reply)?;
        reader.finish().map_err(bad_reply)?;
        Ok(value)
    }

    /// Effective resistances for a batch of dense node-id pairs, in the
    /// order given. A server in brownout answers in partial mode; a fully
    /// answered batch still returns its (bit-identical) values, a cut-short
    /// one surfaces as the typed error of its dominant failure (see
    /// [`PartialBatch::into_values`]).
    pub fn query_batch(&mut self, pairs: &[(u64, u64)]) -> Result<Vec<f64>, ClientError> {
        self.query_batch_with(pairs, false, None)?.into_values()
    }

    /// A batch with explicit failure handling and an optional deadline.
    ///
    /// With `partial`, queries that hit a failed page (or an out-of-bounds
    /// id, a mid-batch shed, or the deadline) come back with a failure
    /// status instead of failing the whole batch; successful values are
    /// bit-identical to the plain batch path, and the abandoned tail of a
    /// deadline miss carries [`STATUS_DEADLINE`]. Without it, the batch is
    /// all or nothing (a server in brownout may still answer it in partial
    /// mode).
    ///
    /// With a `deadline`, the server sheds the batch up front when the
    /// deadline cannot be met and abandons remaining work the moment it
    /// expires mid-computation; a batch shed or abandoned whole answers
    /// [`ClientError::DeadlineExceeded`]. Sub-millisecond deadlines round
    /// up to 1 ms. Hanging up cancels the server-side work either way.
    pub fn query_batch_with(
        &mut self,
        pairs: &[(u64, u64)],
        partial: bool,
        deadline: Option<Duration>,
    ) -> Result<PartialBatch, ClientError> {
        let deadline_ms = deadline.map_or(0, |deadline| {
            u32::try_from(deadline.as_millis())
                .unwrap_or(u32::MAX)
                .max(1)
        });
        let mut request = Vec::with_capacity(10 + pairs.len() * 16);
        request.push(OP_BATCH);
        request.push(if partial { BATCH_FLAG_PARTIAL } else { 0 });
        request.extend_from_slice(&deadline_ms.to_le_bytes());
        request.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for &(p, q) in pairs {
            request.extend_from_slice(&p.to_le_bytes());
            request.extend_from_slice(&q.to_le_bytes());
        }
        let (opcode, payload) =
            self.round_trip_any(&request, &[OP_BATCH_OK, OP_BATCH_PARTIAL_OK])?;
        if opcode == OP_BATCH_PARTIAL_OK {
            return parse_partial(&payload, pairs.len());
        }
        let mut reader = PayloadReader::new(&payload);
        let count = reader.u32().map_err(bad_reply)? as usize;
        if count != pairs.len() {
            return Err(ClientError::Protocol(format!(
                "batch answered {count} values for {} pairs",
                pairs.len()
            )));
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(reader.f64().map_err(bad_reply)?);
        }
        reader.finish().map_err(bad_reply)?;
        Ok(PartialBatch {
            statuses: vec![STATUS_OK; count],
            values,
            failed: 0,
            first_failure: None,
        })
    }

    /// The server's stats document (JSON).
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        let payload = self.round_trip(&[OP_STATS], OP_STATS_OK)?;
        String::from_utf8(payload)
            .map_err(|_| ClientError::Protocol("stats reply is not UTF-8".to_string()))
    }

    /// Asks the server to shut down. The server acknowledges, then stops
    /// accepting and drains the other connections; this connection is done.
    pub fn shutdown_server(mut self) -> Result<(), ClientError> {
        let payload = self.round_trip(&[OP_SHUTDOWN], OP_SHUTDOWN_OK)?;
        if payload.is_empty() {
            Ok(())
        } else {
            Err(ClientError::Protocol(
                "unexpected body in shutdown ack".to_string(),
            ))
        }
    }

    /// Writes one request frame and reads the matching response, returning
    /// the response body past the opcode after checking it is `expected`.
    fn round_trip(&mut self, request: &[u8], expected: u8) -> Result<Vec<u8>, ClientError> {
        self.round_trip_any(request, &[expected])
            .map(|(_, payload)| payload)
    }

    /// [`Client::round_trip`] for requests with more than one acceptable
    /// response opcode (a batch answers `OP_BATCH_OK` or
    /// `OP_BATCH_PARTIAL_OK`); returns which one arrived alongside the body.
    fn round_trip_any(
        &mut self,
        request: &[u8],
        expected: &[u8],
    ) -> Result<(u8, Vec<u8>), ClientError> {
        write_frame(&mut self.writer, request)?;
        self.writer.flush()?;
        let Some(mut payload) = read_frame(&mut self.reader)? else {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        };
        let Some(&opcode) = payload.first() else {
            return Err(ClientError::Protocol("empty response frame".to_string()));
        };
        payload.remove(0);
        if opcode == OP_ERROR {
            return Err(ClientError::Remote(
                String::from_utf8_lossy(&payload).into_owned(),
            ));
        }
        if opcode == OP_BUSY {
            return Err(ClientError::Busy(
                String::from_utf8_lossy(&payload).into_owned(),
            ));
        }
        if opcode == OP_DEADLINE {
            return Err(ClientError::DeadlineExceeded(
                String::from_utf8_lossy(&payload).into_owned(),
            ));
        }
        if !expected.contains(&opcode) {
            return Err(ClientError::Protocol(format!(
                "expected opcode {:#04x}, got {opcode:#04x}",
                expected.first().copied().unwrap_or(0)
            )));
        }
        Ok((opcode, payload))
    }
}

fn bad_reply(e: io::Error) -> ClientError {
    ClientError::Protocol(format!("malformed response body: {e}"))
}

/// Decodes an [`OP_BATCH_PARTIAL_OK`] body into a [`PartialBatch`],
/// checking the counts against the request.
fn parse_partial(payload: &[u8], expected: usize) -> Result<PartialBatch, ClientError> {
    let mut reader = PayloadReader::new(payload);
    let count = reader.u32().map_err(bad_reply)? as usize;
    if count != expected {
        return Err(ClientError::Protocol(format!(
            "partial batch answered {count} statuses for {expected} pairs"
        )));
    }
    let failed = reader.u32().map_err(bad_reply)?;
    let mut statuses = Vec::with_capacity(count);
    for _ in 0..count {
        statuses.push(reader.u8().map_err(bad_reply)?);
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(reader.f64().map_err(bad_reply)?);
    }
    let message = String::from_utf8_lossy(reader.rest()).into_owned();
    let observed = statuses.iter().filter(|&&s| s != STATUS_OK).count();
    if observed != failed as usize {
        return Err(ClientError::Protocol(format!(
            "partial batch declared {failed} failures but carried {observed}"
        )));
    }
    Ok(PartialBatch {
        statuses,
        values,
        failed,
        first_failure: (failed > 0).then_some(message),
    })
}

/// Dials the first reachable address under `policy`.
fn dial(addrs: &[SocketAddr], policy: ReconnectPolicy) -> Result<TcpStream, ClientError> {
    if addrs.is_empty() {
        return Err(ClientError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )));
    }
    let mut backoff = policy.initial_backoff;
    let mut last = None;
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(policy.max_backoff);
        }
        for addr in addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
    }
    Err(ClientError::Io(last.expect("at least one attempt failed")))
}
