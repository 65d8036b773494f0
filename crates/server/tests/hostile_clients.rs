//! Hostile-client tests: raw sockets throwing garbage, oversized frames,
//! half-frames, and instant disconnects at a real `Server` — which must
//! refuse each one with a typed error, count it, reclaim the handler
//! thread, and keep serving well-behaved clients throughout.

use effres::{EffectiveResistanceEstimator, EffresConfig};
use effres_graph::generators;
use effres_server::protocol::{OP_BATCH, OP_BATCH_OK, OP_ERROR};
use effres_server::{Client, Server, ServerHandle, ServerOptions};
use effres_service::{EngineOptions, QueryEngine};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Binds a resident server (an 8×8 grid, 64 nodes) with the given
/// connection deadlines; returns the pieces every test needs.
fn start(
    options: ServerOptions,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<String>>,
) {
    let graph = generators::grid_2d(8, 8, 0.5, 2.0, 5).expect("generator");
    let estimator =
        EffectiveResistanceEstimator::build(&graph, &EffresConfig::default()).expect("build");
    let engine = QueryEngine::new(
        Arc::new(estimator),
        EngineOptions {
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    let server = Server::bind_with("127.0.0.1:0", engine, None, None, options).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// Short deadlines so the reaping paths fire within test time.
fn twitchy() -> ServerOptions {
    ServerOptions {
        frame_deadline: Duration::from_millis(300),
        idle_deadline: Duration::from_millis(300),
        ..ServerOptions::default()
    }
}

/// Reads one length-prefixed frame off a raw socket; `None` on clean EOF.
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match stream.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The OP_ERROR message of the next frame on `stream`.
fn expect_error_frame(stream: &mut TcpStream) -> String {
    let frame = read_raw_frame(stream)
        .expect("read error frame")
        .expect("server answers before closing");
    assert_eq!(frame.first(), Some(&OP_ERROR), "frame is {frame:?}");
    String::from_utf8(frame[1..].to_vec()).expect("error messages are UTF-8")
}

/// Pulls `"key":<u64>` out of the stats JSON.
fn json_u64(stats: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("stats JSON missing {key}: {stats}"));
    stats[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("stats key {key} is not a number: {stats}"))
}

/// A well-behaved client still gets exact answers: the definition of "the
/// server survived".
fn assert_still_serving(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("healthy client connects");
    let values = client
        .query_batch(&[(0, 63), (5, 40), (12, 12)])
        .expect("healthy client is served");
    assert_eq!(values.len(), 3);
    assert!(values[0].is_finite() && values[0] > 0.0);
    assert_eq!(values[2], 0.0, "self-pair");
}

#[test]
fn http_garbage_is_refused_and_counted() {
    let (addr, handle, runner) = start(ServerOptions::default());

    // "GET " decodes as a ~542 MB little-endian length prefix — far past
    // the 64 MiB frame cap, so the framing layer refuses to resynchronize.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
        .expect("send garbage");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let message = expect_error_frame(&mut stream);
    assert!(
        message.contains("exceeds") && message.contains("limit"),
        "the refusal names the frame cap: {message}"
    );
    assert_eq!(
        read_raw_frame(&mut stream).expect("read to EOF"),
        None,
        "the connection is dropped after the refusal"
    );

    assert!(json_u64(&handle.stats_json(), "frame") >= 1);
    assert_still_serving(addr);
    handle.shutdown();
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn oversized_length_prefix_is_refused_and_counted() {
    let (addr, handle, runner) = start(ServerOptions::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send oversized prefix");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let message = expect_error_frame(&mut stream);
    assert!(message.contains("exceeds"), "refusal message: {message}");
    assert_eq!(read_raw_frame(&mut stream).expect("read to EOF"), None);

    assert!(json_u64(&handle.stats_json(), "frame") >= 1);
    assert_still_serving(addr);
    handle.shutdown();
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn stalling_mid_payload_is_cut_by_the_frame_deadline() {
    let (addr, handle, runner) = start(twitchy());

    // A 64-byte frame is promised, 3 bytes arrive, then silence — the bug
    // this deadline exists for: before PR 7 this parked the handler thread
    // forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&64u32.to_le_bytes())
        .expect("send length prefix");
    stream.write_all(&[0x02, 0x00, 0x00]).expect("send a stub");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let waited = std::time::Instant::now();
    let message = expect_error_frame(&mut stream);
    assert!(
        message.contains("frame deadline"),
        "the close says why: {message}"
    );
    assert!(
        waited.elapsed() < Duration::from_secs(5),
        "a 300 ms deadline must not take {:?}",
        waited.elapsed()
    );
    assert_eq!(
        read_raw_frame(&mut stream).expect("read to EOF"),
        None,
        "the stalled connection is closed, not left parked"
    );

    assert!(json_u64(&handle.stats_json(), "deadline_closes") >= 1);
    assert_still_serving(addr);
    handle.shutdown();
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn idle_connections_are_reaped_by_the_idle_deadline() {
    let (addr, handle, runner) = start(twitchy());

    // Connect, say nothing. The server reclaims the handler thread without
    // sending anything — idleness is not an error, just an eviction.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert_eq!(
        read_raw_frame(&mut stream).expect("read to EOF"),
        None,
        "an idle connection is closed cleanly"
    );

    assert!(json_u64(&handle.stats_json(), "idle_closes") >= 1);
    assert_still_serving(addr);
    handle.shutdown();
    runner.join().expect("thread").expect("serve loop");
}

#[test]
fn disconnect_storms_leave_the_server_serving() {
    let (addr, handle, runner) = start(ServerOptions::default());

    for i in 0..32 {
        let mut stream = TcpStream::connect(addr).expect("storm connect");
        match i % 3 {
            0 => {} // connect and vanish
            1 => {
                // half a length prefix, then vanish
                let _ = stream.write_all(&[0x05, 0x00]);
            }
            _ => {
                // a full prefix and a byte of payload, then vanish
                let _ = stream.write_all(&3u32.to_le_bytes());
                let _ = stream.write_all(&[0x02]);
            }
        }
        drop(stream);
        // A healthy client interleaved with the storm is served every time.
        if i % 8 == 7 {
            assert_still_serving(addr);
        }
    }

    let stats = handle.stats_json();
    assert!(json_u64(&stats, "connections") >= 32);
    assert_still_serving(addr);
    handle.shutdown();
    runner.join().expect("thread").expect("serve loop");
}

/// Writes one length-prefixed frame onto a raw socket.
fn send_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("length prefix");
    stream.write_all(payload).expect("frame body");
}

/// An `OP_BATCH` frame: `flags | deadline_ms | count | pairs`.
fn batch_frame(flags: u8, count: u32, pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut payload = vec![OP_BATCH, flags];
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&count.to_le_bytes());
    for &(p, q) in pairs {
        payload.extend_from_slice(&p.to_le_bytes());
        payload.extend_from_slice(&q.to_le_bytes());
    }
    payload
}

/// Malformed batch bodies and retired batch opcodes: each draws `OP_ERROR`,
/// counts as a protocol error, and leaves the same connection answering a
/// valid batch.
#[test]
fn malformed_batches_and_retired_opcodes_are_refused_on_a_live_connection() {
    let (addr, handle, runner) = start(ServerOptions::default());
    let pairs = [(0u64, 63u64), (5, 40), (12, 12)];
    let valid = batch_frame(0, 3, &pairs);
    let mut reserved = valid.clone();
    reserved[1] = 0x02;
    let mut hostile: Vec<(&str, Vec<u8>)> = vec![
        ("reserved flag bits", reserved),
        ("every flag bit", batch_frame(0xFF, 3, &pairs)),
        (
            "a body shorter than the header",
            vec![OP_BATCH, 0, 0, 0, 0, 0, 0, 0],
        ),
        ("an empty body", vec![OP_BATCH]),
        ("a count above the payload", batch_frame(0, 4, &pairs)),
        ("a count below the payload", batch_frame(0, 2, &pairs)),
    ];
    for retired in [0x07u8, 0x09, 0x0A] {
        let mut frame = valid.clone();
        frame[0] = retired;
        hostile.push(("a retired batch opcode", frame));
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for (index, (what, frame)) in hostile.iter().enumerate() {
        send_raw_frame(&mut stream, frame);
        let message = expect_error_frame(&mut stream);
        assert!(!message.is_empty(), "{what}: the refusal says why");
        assert_eq!(
            json_u64(&handle.stats_json(), "protocol"),
            index as u64 + 1,
            "{what}: counted as a protocol error"
        );
        // The same connection still answers a well-formed batch.
        send_raw_frame(&mut stream, &valid);
        let answer = read_raw_frame(&mut stream)
            .expect("read batch answer")
            .expect("connection still open");
        assert_eq!(answer[0], OP_BATCH_OK, "{what}: then {answer:?}");
        assert_eq!(answer.len(), 1 + 4 + 3 * 8, "{what}: three values");
    }

    assert_still_serving(addr);
    handle.shutdown();
    runner.join().expect("thread").expect("serve loop");
}
