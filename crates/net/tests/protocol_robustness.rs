//! Hostile-peer robustness: raw [`TcpStream`] bytes against a live server.
//!
//! The frame reader and session loop must survive anything a confused or
//! malicious client can send — garbage bytes, absurd length prefixes,
//! truncated frames, corrupted payloads, mid-stream disconnects and
//! slow-loris dribbles — by answering with a typed protocol error or
//! closing cleanly. Never by panicking: every test ends by running a real
//! query through a well-behaved [`Client`], proving the server is still
//! alive and correct after the abuse.
//!
//! Row blocks travel the other way, so their abuse is aimed at the decoder
//! a client runs: every malformed block — cut short at any byte, claiming
//! more cells, nodes or labels than its bytes can hold, pointing outside
//! its own tables — must come back as a typed error before anything is
//! allocated for the claim, both from [`Response::decode`] and through a
//! real [`Client`] talking to a lying server.

use bgpq_engine::{AccessConstraint, AccessSchema, StrategyKind};
use bgpq_graph::{Graph, GraphBuilder, Value};
use bgpq_net::frame::{read_frame, write_frame};
use bgpq_net::{
    AnswerHeader, AnswerKind, Client, ClientError, ErrorCode, NetServer, NetServerConfig,
    NetServerHandle, NodeEntry, QuerySpec, Request, Response, RowBlock, PROTOCOL_VERSION,
};
use bgpq_serve::Server;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn fixture() -> (Graph, AccessSchema) {
    let mut b = GraphBuilder::new();
    let y = b.add_node("year", Value::Int(2003));
    for i in 0..4 {
        let m = b.add_node("movie", Value::Int(i));
        b.add_edge(y, m).unwrap();
    }
    let g = b.build();
    let l = |name: &str| g.interner().get(name).unwrap();
    let schema = AccessSchema::from_constraints([
        AccessConstraint::global(l("year"), 1),
        AccessConstraint::unary(l("year"), l("movie"), 4),
    ]);
    (g, schema)
}

fn start(read_timeout: Option<Duration>) -> NetServerHandle {
    let (graph, schema) = fixture();
    let config = NetServerConfig {
        read_timeout,
        ..NetServerConfig::default()
    };
    NetServer::start(Arc::new(Server::new(graph, &schema)), config).expect("bind")
}

// ---- raw wire helpers (independent of the crate's frame module) --------

fn send_frame(stream: &mut TcpStream, payload: &str) {
    let bytes = payload.as_bytes();
    stream
        .write_all(&(bytes.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(bytes).unwrap();
    stream.flush().unwrap();
}

/// Reads one response frame; `None` means the server closed the stream.
fn recv_frame(stream: &mut TcpStream) -> Option<Response> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut prefix[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(_) => return None,
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    Some(Response::decode(&body).expect("server frames decode"))
}

/// The stream should be closed: the next read yields EOF (or a reset, which
/// is equally "closed" from the peer's perspective).
fn assert_closed(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("expected close, got {n} more bytes"),
        Err(e)
            if e.kind() == std::io::ErrorKind::ConnectionReset
                || e.kind() == std::io::ErrorKind::ConnectionAborted => {}
        Err(e) => panic!("expected close, got {e}"),
    }
}

fn connect_raw(handle: &NetServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

fn hello(stream: &mut TcpStream) {
    send_frame(
        stream,
        &format!("{{\"type\":\"hello\",\"protocol\":{PROTOCOL_VERSION},\"client\":\"raw\"}}"),
    );
    match recv_frame(stream) {
        Some(Response::HelloAck { .. }) => {}
        other => panic!("expected hello ack, got {other:?}"),
    }
}

fn expect_error(stream: &mut TcpStream, code: ErrorCode) {
    match recv_frame(stream) {
        Some(Response::Error { code: got, .. }) => assert_eq!(got, code),
        other => panic!("expected {code} error, got {other:?}"),
    }
}

/// The liveness probe every test ends with: a fresh well-behaved client
/// still gets a correct answer.
fn assert_server_alive(handle: &NetServerHandle) {
    let mut client = Client::connect(handle.local_addr(), "prober").expect("connect");
    let outcome = client
        .query(&QuerySpec::new(
            "node y: year\nnode m: movie\nedge y -> m\n",
        ))
        .expect("probe query");
    assert_eq!(outcome.header.total, 4);
    client.goodbye().unwrap();
}

// ---- the abuse ---------------------------------------------------------

#[test]
fn garbage_preamble_is_rejected_without_panic() {
    let handle = start(None);
    // An HTTP request: the first four bytes ("GET ") decode as a ~1.2 GB
    // length prefix, which must be rejected before any allocation.
    let mut stream = connect_raw(&handle);
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    expect_error(&mut stream, ErrorCode::TooLarge);
    assert_closed(&mut stream);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let handle = start(None);
    let mut stream = connect_raw(&handle);
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    expect_error(&mut stream, ErrorCode::TooLarge);
    assert_closed(&mut stream);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn truncated_frame_then_disconnect_closes_cleanly() {
    let handle = start(None);
    let mut stream = connect_raw(&handle);
    // Claim 100 bytes, deliver 10, vanish.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"0123456789").unwrap();
    drop(stream);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn corrupted_payload_bytes_yield_protocol_error() {
    let handle = start(None);
    let mut stream = connect_raw(&handle);
    hello(&mut stream);
    // A valid query frame with one byte flipped into an invalid UTF-8
    // continuation: framing survives, decoding fails, session closes.
    let mut payload = b"{\"type\":\"query\",\"pattern\":\"node y: year\"}".to_vec();
    payload[20] = 0xFF;
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    expect_error(&mut stream, ErrorCode::Protocol);
    assert_closed(&mut stream);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn undecodable_json_after_handshake_keeps_the_session() {
    let handle = start(None);
    let mut stream = connect_raw(&handle);
    hello(&mut stream);
    // Valid UTF-8, invalid request: a typed parse error, and the session
    // keeps going — the next (valid) ping is answered.
    send_frame(&mut stream, "this is not json");
    expect_error(&mut stream, ErrorCode::Parse);
    send_frame(&mut stream, "{\"type\":\"transmogrify\"}");
    expect_error(&mut stream, ErrorCode::Parse);
    // The retired `batch` request is refused by name, not ignored.
    send_frame(
        &mut stream,
        "{\"type\":\"batch\",\"queries\":[{\"pattern\":\"node y: year\"}]}",
    );
    match recv_frame(&mut stream) {
        Some(Response::Error { code, message, .. }) => {
            assert_eq!(code, ErrorCode::Parse);
            assert!(
                message.contains("unknown request type \"batch\""),
                "{message}"
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    send_frame(&mut stream, "{\"type\":\"ping\"}");
    match recv_frame(&mut stream) {
        Some(Response::Pong { .. }) => {}
        other => panic!("expected pong, got {other:?}"),
    }
    drop(stream);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn handshake_violations_close_with_protocol_error() {
    let handle = start(None);

    // Wrong protocol version: one from the future, and the version 1 this
    // server's predecessors spoke. No negotiation — the refusal names both
    // versions and the connection closes.
    for version in [999, 1] {
        let mut stream = connect_raw(&handle);
        send_frame(
            &mut stream,
            &format!("{{\"type\":\"hello\",\"protocol\":{version},\"client\":\"old\"}}"),
        );
        match recv_frame(&mut stream) {
            Some(Response::Error { code, message, .. }) => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains(&format!("version {version}")), "{message}");
                assert!(message.contains("speaks 2"), "{message}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_closed(&mut stream);
    }

    // A request before any hello.
    let mut stream = connect_raw(&handle);
    send_frame(&mut stream, "{\"type\":\"ping\"}");
    expect_error(&mut stream, ErrorCode::Protocol);
    assert_closed(&mut stream);

    // A second hello mid-session.
    let mut stream = connect_raw(&handle);
    hello(&mut stream);
    send_frame(
        &mut stream,
        &format!("{{\"type\":\"hello\",\"protocol\":{PROTOCOL_VERSION},\"client\":\"again\"}}"),
    );
    expect_error(&mut stream, ErrorCode::Protocol);
    assert_closed(&mut stream);

    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn slow_loris_writer_is_disconnected_by_the_read_timeout() {
    let handle = start(Some(Duration::from_millis(100)));
    let mut stream = connect_raw(&handle);
    hello(&mut stream);
    // Dribble the first byte of a length prefix, then stall well past the
    // read timeout: the server hangs up (quietly or with a protocol error)
    // instead of holding the session forever. Any read outcome other than
    // payload bytes arriving indefinitely — EOF, an error frame followed by
    // EOF, or a reset — proves the disconnect.
    stream.write_all(&[0u8]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

#[test]
fn semantic_rejections_keep_the_session_open() {
    let handle = start(None);
    let mut client = Client::connect(handle.local_addr(), "semantic").expect("connect");

    // A pattern that fails to parse.
    let err = client
        .query(&QuerySpec::new("node ???\nthis is no pattern"))
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadPattern));

    // A pattern the schema cannot bound, with the bounded tier forced: the
    // paper's "not effectively bounded" refusal arrives as a typed error.
    let mut spec = QuerySpec::new("node m: movie\n");
    spec.strategy = Some(StrategyKind::Bounded);
    let err = client.query(&spec).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unbounded));
    assert!(!err.is_retryable());

    // Same session still answers good queries.
    let outcome = client
        .query(&QuerySpec::new(
            "node y: year\nnode m: movie\nedge y -> m\n",
        ))
        .expect("recovery query");
    assert_eq!(outcome.header.total, 4);
    client.goodbye().unwrap();
    assert!(handle.shutdown());
}

#[test]
fn empty_and_tiny_frames_are_survivable() {
    let handle = start(None);
    let mut stream = connect_raw(&handle);
    // A zero-length frame is valid framing but an empty payload: the
    // handshake decoder rejects it and closes.
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    match recv_frame(&mut stream) {
        Some(Response::Error { .. }) | None => {}
        other => panic!("expected error or close, got {other:?}"),
    }
    drop(stream);

    // Disconnecting with nothing sent at all is a quiet no-op.
    drop(connect_raw(&handle));

    assert_server_alive(&handle);
    assert!(handle.shutdown());
}

// ---- hostile row blocks -------------------------------------------------

/// A small well-formed match block: 3 rows x 2 columns over 4 distinct
/// nodes with every kind of value, two labels.
fn sample_block() -> Vec<u8> {
    let node = |id, label, value| NodeEntry { id, label, value };
    Response::MatchRows(
        RowBlock::new(
            3,
            2,
            vec![7, 9, 7, 12, 40, 9],
            vec![
                node(7, 0, Value::Int(2003)),
                node(9, 1, Value::str("Argo")),
                node(12, 1, Value::Float(7.5)),
                node(40, 0, Value::Null),
            ],
            vec!["year".into(), "movie".into()],
        )
        .expect("well-formed"),
    )
    .encode()
}

/// Byte offsets of the sample block's header fields.
const ROWS_AT: usize = 1;
const COLS_AT: usize = 5;
const NODES_AT: usize = 9;
const LABELS_AT: usize = 13;
const IDS_AT: usize = 17;

fn with_u32(mut bytes: Vec<u8>, at: usize, value: u32) -> Vec<u8> {
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    bytes
}

fn decode_error(bytes: &[u8]) -> String {
    match Response::decode(bytes) {
        Err(message) => message,
        Ok(response) => panic!("expected a typed error, decoded {response:?}"),
    }
}

#[test]
fn a_block_truncated_at_any_byte_is_a_typed_error() {
    let block = sample_block();
    assert!(matches!(Response::decode(&block), Ok(Response::MatchRows(b)) if b.len() == 3));
    for cut in 0..block.len() {
        let message = decode_error(&block[..cut]);
        assert!(!message.is_empty(), "cut at {cut}");
    }
    // One byte too many is as wrong as one too few.
    let mut long = block.clone();
    long.push(0);
    assert!(decode_error(&long).contains("trailing"));

    // The same for a simulation block.
    let sim = Response::SimRows(bgpq_net::SimBlock {
        column: 1,
        ids: vec![3, 5, 8],
    })
    .encode();
    for cut in 0..sim.len() {
        decode_error(&sim[..cut]);
    }
    let mut long = sim.clone();
    long.push(0);
    assert!(decode_error(&long).contains("trailing"));
}

#[test]
fn counts_beyond_the_payload_are_rejected_before_allocation() {
    let block = sample_block();
    // rows x cols overflowing u32, then usize/u64 once multiplied by the
    // cell size: a decoder that allocated for the claim would abort here.
    for (rows, cols) in [
        (u32::MAX, 2),
        (3, u32::MAX),
        (u32::MAX, u32::MAX),
        (1 << 31, 1 << 31),
    ] {
        let bytes = with_u32(with_u32(block.clone(), ROWS_AT, rows), COLS_AT, cols);
        let message = decode_error(&bytes);
        assert!(
            message.contains("truncated") || message.contains("overflows"),
            "{rows} x {cols}: {message}"
        );
    }
    // One row more than was sent: the cells run into the dictionary and
    // nothing after them lines up.
    decode_error(&with_u32(block.clone(), ROWS_AT, 4));
    // Rows that no column could hold.
    let bytes = with_u32(with_u32(block.clone(), ROWS_AT, 6), COLS_AT, 0);
    decode_error(&bytes);
    // Dictionary and label-table sizes nobody sent the bytes for.
    for at in [NODES_AT, LABELS_AT] {
        for claim in [u32::MAX, 1 << 20, 5] {
            let message = decode_error(&with_u32(block.clone(), at, claim));
            assert!(!message.is_empty(), "offset {at} claim {claim}");
        }
    }
    assert!(decode_error(&with_u32(block.clone(), NODES_AT, u32::MAX)).contains("claims"));
    // A string length past the end of the payload (the last label).
    let last_label_len = block.len() - "movie".len() - 4;
    decode_error(&with_u32(block.clone(), last_label_len, u32::MAX));
    // A simulation block claiming more ids than follow.
    let sim = Response::SimRows(bgpq_net::SimBlock {
        column: 0,
        ids: vec![1, 2],
    })
    .encode();
    for claim in [3, u32::MAX] {
        decode_error(&with_u32(sim.clone(), 5, claim));
    }
}

#[test]
fn dangling_references_inside_a_block_are_typed_errors() {
    let block = sample_block();
    // The first dictionary entry follows the 6 cells: id, then label index.
    let first_node = IDS_AT + 6 * 4;
    let message = decode_error(&with_u32(block.clone(), first_node + 4, 2));
    assert!(message.contains("label 2 of 2"), "{message}");
    // A cell naming a node the dictionary does not hold.
    let message = decode_error(&with_u32(block.clone(), IDS_AT, 8));
    assert!(message.contains("node 8 is missing"), "{message}");
    // A dictionary out of order (or with a repeated id).
    let message = decode_error(&with_u32(block.clone(), first_node, 9));
    assert!(message.contains("ascending"), "{message}");
    // An unknown value tag.
    let mut bytes = block.clone();
    bytes[first_node + 8] = 0x7f;
    assert!(decode_error(&bytes).contains("value tag"));
    // Unknown payload tags and the empty payload.
    assert!(decode_error(&[0x03, 0, 0, 0, 0]).contains("tag"));
    assert!(decode_error(&[]).contains("empty"));
}

/// A one-connection server that acknowledges the handshake, answers the
/// first query with a header and then `rows_payload`, and hangs up.
fn lying_server(rows_payload: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let limit = bgpq_net::DEFAULT_MAX_FRAME_BYTES;
        let (hello, _) = read_frame(&mut stream, limit).expect("hello");
        assert!(matches!(
            Request::decode(std::str::from_utf8(&hello).unwrap()),
            Ok(Request::Hello { .. })
        ));
        let ack = Response::HelloAck {
            protocol: PROTOCOL_VERSION,
            server: "liar".into(),
            epoch: 0,
        };
        write_frame(&mut stream, ack.encode()).unwrap();
        read_frame(&mut stream, limit).expect("query");
        let header = Response::Answer(AnswerHeader {
            kind: AnswerKind::Matches,
            strategy: "made up".into(),
            snapshot_version: 0,
            total: 3,
            columns: vec!["y".into(), "m".into()],
            labels: vec![],
        });
        write_frame(&mut stream, header.encode()).unwrap();
        write_frame(&mut stream, rows_payload).unwrap();
    });
    (addr, thread)
}

#[test]
fn a_client_answers_hostile_blocks_with_protocol_errors() {
    let block = sample_block();
    let wrong_width = Response::MatchRows(
        RowBlock::new(
            1,
            1,
            vec![7],
            vec![NodeEntry {
                id: 7,
                label: 0,
                value: Value::Null,
            }],
            vec!["year".into()],
        )
        .unwrap(),
    )
    .encode();
    let sim_outside = Response::SimRows(bgpq_net::SimBlock {
        column: 2,
        ids: vec![1],
    })
    .encode();
    for payload in [
        block[..block.len() - 3].to_vec(),
        with_u32(block.clone(), ROWS_AT, u32::MAX),
        with_u32(block.clone(), IDS_AT, 8),
        wrong_width, // a well-formed block of another answer's shape
        sim_outside, // a column the header never named
        b"{\"type\":\"rows\",\"matches\":[]}".to_vec(), // the version 1 row frame
    ] {
        let (addr, server) = lying_server(payload);
        let mut client = Client::connect(addr, "victim").expect("handshake");
        match client.query(&QuerySpec::new("node y: year\n")) {
            Err(ClientError::Protocol(message)) => assert!(!message.is_empty()),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        server.join().expect("lying server");
    }
}

#[test]
fn a_block_sent_as_a_request_is_a_parse_error() {
    let handle = start(None);
    let mut stream = connect_raw(&handle);
    hello(&mut stream);
    // Requests are JSON control messages only. A block whose bytes happen to
    // be text is a parse error and the session goes on...
    let textual_block = [0x02u8, 0, 0, 0, 0, 0, 0, 0, 0];
    stream
        .write_all(&(textual_block.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&textual_block).unwrap();
    expect_error(&mut stream, ErrorCode::Parse);
    send_frame(&mut stream, "{\"type\":\"ping\"}");
    assert!(matches!(
        recv_frame(&mut stream),
        Some(Response::Pong { .. })
    ));
    // ...one that is not even UTF-8 is a framing violation and closes.
    let block = sample_block();
    assert!(
        std::str::from_utf8(&block).is_err(),
        "the float's bytes are not text"
    );
    stream
        .write_all(&(block.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(&block).unwrap();
    expect_error(&mut stream, ErrorCode::Protocol);
    assert_closed(&mut stream);
    assert_server_alive(&handle);
    assert!(handle.shutdown());
}
