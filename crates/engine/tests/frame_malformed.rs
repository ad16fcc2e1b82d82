//! Hostile-input tests for the v3 framed transport and the JSONL reader:
//! truncated headers, lying length prefixes, unknown format tags, non-UTF-8
//! or over-long lines, and random byte salads must all produce structured
//! `Parse` failures (or a clean close) — never a panic, never a hung
//! connection, and never a poisoned accept loop. Mutated payloads check
//! that the typed decoder never accepts what the value-tree path refuses.

use proptest::{proptest, ProptestConfig};
use sched_core::{FreqLadder, Instance, Job, PowerProfile, SlotRef};
use sched_engine::codec::{
    self, read_frame, write_frame, WireFormat, MAGIC, MAX_DEPTH, MAX_FRAME_LEN,
};
use sched_engine::protocol::{parse_value, WireRequest};
use sched_engine::{
    serve, EngineClient, EngineConfig, ErrorKind, SolveMetrics, SolveRequest, SolveResponse,
    Transport,
};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

fn spawn_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || serve(listener, EngineConfig::with_workers(1)));
    addr
}

fn tiny_request(id: u64) -> SolveRequest {
    let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 1)])]);
    SolveRequest::builder(id, inst).affine(3.0, 1.0).build()
}

/// Proof of life: the server still solves on a fresh connection.
fn assert_server_alive(addr: SocketAddr) {
    let mut client = EngineClient::connect(addr, Transport::default()).expect("connect");
    client.send(&tiny_request(7)).unwrap();
    client.flush().unwrap();
    let resp = client.recv().unwrap().expect("response");
    assert!(resp.ok, "{:?}", resp.error);
}

/// Sends raw bytes on a fresh connection, half-closes, and returns
/// everything the server wrote back before closing.
fn poke(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(bytes).unwrap();
    writer.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    BufReader::new(stream)
        .read_to_end(&mut out)
        .expect("drain server reply without hanging");
    out
}

/// Decodes the single framed failure response `poke` got back.
fn sole_failure(mut cursor: &[u8]) -> SolveResponse {
    let (format, payload) = read_frame(&mut cursor)
        .expect("server reply is a well-formed frame")
        .expect("server replied before closing");
    assert_eq!(format, WireFormat::Binary, "errors default to binary");
    let remaining: &[u8] = cursor;
    assert!(remaining.is_empty(), "exactly one reply frame, then close");
    let value = sched_engine::codec::payload_to_value(format, &payload).unwrap();
    let resp = SolveResponse::from_value(&value).unwrap();
    assert!(!resp.ok);
    resp
}

#[test]
fn truncated_length_prefix_yields_structured_parse_failure() {
    let addr = spawn_server();
    // magic + half a length word, then EOF.
    let resp = sole_failure(&poke(addr, &[MAGIC[0], MAGIC[1], 0x10, 0x00]));
    assert_eq!(resp.error.unwrap().kind, ErrorKind::Parse);
    assert_server_alive(addr);
}

#[test]
fn truncated_payload_yields_structured_parse_failure() {
    let addr = spawn_server();
    // A header promising 100 payload bytes, delivering 3.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.push(WireFormat::Binary.tag());
    bytes.extend_from_slice(&[1, 2, 3]);
    let resp = sole_failure(&poke(addr, &bytes));
    assert_eq!(resp.error.unwrap().kind, ErrorKind::Parse);
    assert_server_alive(addr);
}

#[test]
fn oversized_declared_length_is_rejected_without_buffering() {
    let addr = spawn_server();
    // Declares 4 GiB-ish; the server must refuse on the header alone (the
    // codec rejects before allocating — asserted by its unit tests) and
    // answer immediately even though no payload ever arrives.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    bytes.push(WireFormat::Binary.tag());
    let resp = sole_failure(&poke(addr, &bytes));
    let err = resp.error.unwrap();
    assert_eq!(err.kind, ErrorKind::Parse);
    assert!(
        err.message.contains("declares"),
        "error names the lying length: {}",
        err.message
    );
    assert_server_alive(addr);
}

#[test]
fn unknown_format_tag_yields_structured_parse_failure() {
    let addr = spawn_server();
    // 9 was never a format; 1 (JSON text) is withdrawn, so even a valid
    // JSON request in a tag-1 frame is refused rather than served.
    let json = serde_json::to_string(&tiny_request(1)).unwrap();
    for (tag, payload) in [(9u8, "{}"), (1, json.as_str())] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.push(tag);
        bytes.extend_from_slice(payload.as_bytes());
        let resp = sole_failure(&poke(addr, &bytes));
        let err = resp.error.unwrap();
        assert_eq!(err.kind, ErrorKind::Parse, "tag {tag}");
        assert!(err.message.contains("format tag"), "{}", err.message);
    }
    assert_server_alive(addr);
}

/// Decodes every JSONL response line `poke` got back.
fn jsonl_replies(reply: Vec<u8>) -> Vec<SolveResponse> {
    String::from_utf8(reply)
        .expect("JSONL replies are UTF-8")
        .lines()
        .map(|line| serde_json::from_str(line).expect("reply line is a response"))
        .collect()
}

/// A JSONL line that is not UTF-8 gets its own `Parse` failure and the
/// lines after it are still served: one response per request line.
#[test]
fn non_utf8_jsonl_line_is_answered_and_reading_resumes() {
    let addr = spawn_server();
    let line = |id| serde_json::to_string(&tiny_request(id)).unwrap() + "\n";
    let mut bytes = line(1).into_bytes();
    bytes.extend_from_slice(b"{\"id\":2,\xff\xfe}\n");
    bytes.extend_from_slice(line(3).as_bytes());
    let responses = jsonl_replies(poke(addr, &bytes));
    assert_eq!(responses.len(), 3, "one response per line: {responses:?}");
    assert!(responses[0].ok && responses[0].id == 1);
    assert_eq!(responses[1].error.as_ref().unwrap().kind, ErrorKind::Parse);
    assert!(responses[2].ok && responses[2].id == 3);
    assert_server_alive(addr);
}

/// A JSONL line longer than the frame cap is refused like an oversized
/// frame: one `Parse` failure, then close — once the cap is buffered, not
/// after waiting for a newline that may never come.
#[test]
fn over_long_jsonl_line_is_refused_at_the_frame_cap() {
    let addr = spawn_server();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // One byte past the cap, no newline, and the write side left open.
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_FRAME_LEN as usize + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        writer.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    writer.flush().unwrap();
    let mut reply = Vec::new();
    BufReader::new(stream)
        .read_to_end(&mut reply)
        .expect("server answers and closes without waiting for a newline");
    let responses = jsonl_replies(reply);
    assert_eq!(responses.len(), 1, "{responses:?}");
    assert_eq!(responses[0].error.as_ref().unwrap().kind, ErrorKind::Parse);
    assert_server_alive(addr);
}

#[test]
fn undecodable_binary_payload_yields_structured_parse_failure() {
    let addr = spawn_server();
    // A perfectly framed payload of garbage binary-codec bytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.push(WireFormat::Binary.tag());
    bytes.extend_from_slice(&[0xFE, 0xDC, 0xBA, 0x98]);
    let resp = sole_failure(&poke(addr, &bytes));
    assert_eq!(resp.error.unwrap().kind, ErrorKind::Parse);
    assert_server_alive(addr);
}

/// One long-lived server shared by every random draw: random byte
/// prefixes — magic-led or not — must never panic the accept loop or hang
/// a connection. (Non-magic first bytes fall back to the JSONL path, so
/// this also fuzzes line parsing.)
fn fuzz_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(spawn_server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_byte_prefixes_never_panic_the_accept_loop(
        lead_with_magic in proptest::any::<bool>(),
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let addr = fuzz_server();
        let mut payload = Vec::new();
        if lead_with_magic {
            payload.extend_from_slice(&MAGIC);
        }
        payload.extend_from_slice(&bytes);
        // Whatever the server answers (failure frames, JSONL parse errors,
        // or nothing), it must close the connection instead of hanging...
        let _ = poke(addr, &payload);
        // ...and keep serving the next client.
        assert_server_alive(addr);
    }
}

/// Valid request and response payloads for the mutation test: every
/// optional request field set somewhere, and responses of several shapes.
fn seed_payloads() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let inst = || {
        Instance::new(
            2,
            6,
            vec![
                Job::unit(vec![SlotRef::new(0, 1), SlotRef::new(1, 4)]),
                Job::unit(vec![SlotRef::new(1, 2)]),
            ],
        )
    };
    let requests = [
        tiny_request(1),
        SolveRequest::builder(2, inst())
            .profiles(vec![
                PowerProfile::envelope_ladder(4.0, 1.0, 2),
                PowerProfile::affine(2.5, 0.75),
            ])
            .policy("maxlen:3")
            .trace_id("trace-2")
            .build(),
        SolveRequest::builder(3, inst())
            .affine(3.0, 1.5)
            .prize_collecting(1.5)
            .epsilon(0.25)
            .build(),
        SolveRequest::builder(4, inst())
            .affine(2.0, 0.0)
            .freq_ladder(FreqLadder {
                alpha: 1.0,
                beta: 0.25,
                gamma: 3.0,
                freqs: vec![1, 2],
            })
            .build(),
    ];
    let mut success = SolveResponse::success(
        5,
        sched_core::Schedule {
            awake: vec![sched_core::CandidateInterval {
                proc: 0,
                start: 1,
                end: 3,
                cost: 4.5,
            }],
            assignments: vec![Some(SlotRef::new(0, 1)), None],
            total_cost: 4.5,
            scheduled_value: 1.0,
            scheduled_count: 1,
        },
        SolveMetrics {
            solve_micros: 12,
            candidates: 42,
            worker: 1,
            cache_hit: true,
        },
    );
    success.freq_levels = Some(vec![1]);
    let responses = [
        success.with_trace_id("req-5"),
        SolveResponse::overloaded(6, 3),
        SolveResponse::hello_ack(),
    ];
    (
        requests.iter().map(codec::to_binary).collect(),
        responses.iter().map(codec::to_binary).collect(),
    )
}

/// `bytes` after `edits`: each overwrites, inserts or removes the byte at
/// its position (taken modulo the length), or truncates there.
fn mutate(bytes: &[u8], edits: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(kind, at, byte) in edits {
        let at = at % (out.len() + 1);
        match (kind, at < out.len()) {
            (0, true) => out[at] = byte,
            (1, _) => out.insert(at, byte),
            (2, true) => {
                out.remove(at);
            }
            (3, _) => out.truncate(at),
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn typed_decoding_never_accepts_what_the_tree_refuses(
        edits in proptest::collection::vec((0u8..4, 0usize..4096, 0u8..=255), 1..4),
    ) {
        let (requests, responses) = seed_payloads();
        for payload in &requests {
            let bytes = mutate(payload, &edits);
            if let Ok(typed) = codec::decode_request(WireFormat::Binary, &bytes) {
                let tree = codec::decode_value(&bytes)
                    .map_err(|e| proptest::TestCaseError::fail(format!("tree refused: {e}")))?;
                match parse_value(&tree) {
                    Ok(WireRequest::Solve(tree)) => {
                        proptest::prop_assert_eq!(format!("{typed:?}"), format!("{tree:?}"));
                    }
                    other => proptest::prop_assert!(false, "tree path read {other:?}"),
                }
            }
        }
        for payload in &responses {
            let bytes = mutate(payload, &edits);
            if let Ok(typed) = codec::decode_typed::<SolveResponse>(&bytes) {
                let tree = codec::decode_value(&bytes)
                    .map_err(|e| proptest::TestCaseError::fail(format!("tree refused: {e}")))?;
                let tree = SolveResponse::from_value(&tree)
                    .map_err(|e| proptest::TestCaseError::fail(format!("tree refused: {e}")))?;
                proptest::prop_assert_eq!(format!("{typed:?}"), format!("{tree:?}"));
            }
        }
    }
}

#[test]
fn mutations_reach_the_typed_decoder() {
    // the proptest above is vacuous unless some mutants decode: a varint
    // bumped in place, for one, still reads as a request
    let (requests, _) = seed_payloads();
    let mut accepted = 0;
    for payload in &requests {
        assert!(codec::decode_request(WireFormat::Binary, payload).is_ok());
        for at in 0..payload.len() {
            let bumped = mutate(payload, &[(0, at, payload[at] ^ 1)]);
            accepted += usize::from(codec::decode_request(WireFormat::Binary, &bumped).is_ok());
        }
    }
    assert!(accepted > 20, "only {accepted} one-bit mutants decoded");
}

/// Frames `value`, sends it, and decodes every reply frame.
fn send_value(addr: SocketAddr, value: &Value) -> Vec<SolveResponse> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, WireFormat::Binary, &codec::encode_value(value)).unwrap();
    let reply = poke(addr, &bytes);
    let mut cursor = reply.as_slice();
    let mut responses = Vec::new();
    while let Some((_, payload)) = read_frame(&mut cursor).expect("well-formed reply frames") {
        responses.push(codec::from_binary(&payload).expect("reply decodes"));
    }
    responses
}

/// `req`'s value tree with `pairs` appended to its top-level object.
fn with_pairs(req: &SolveRequest, pairs: Vec<(&str, Value)>) -> Value {
    let mut value = req.to_value();
    let Value::Object(fields) = &mut value else {
        unreachable!("requests are objects")
    };
    fields.extend(pairs.into_iter().map(|(k, v)| (k.to_string(), v)));
    value
}

#[test]
fn a_solve_request_carrying_a_control_key_is_answered_as_the_control() {
    let addr = spawn_server();
    let ping = with_pairs(
        &tiny_request(5),
        vec![("control", Value::Str("ping".into()))],
    );
    let bytes = codec::encode_value(&ping);
    assert!(codec::decode_request(WireFormat::Binary, &bytes).is_err());
    let responses = send_value(addr, &ping);
    assert_eq!(responses.len(), 1);
    let ack = &responses[0];
    assert!(ack.ok && ack.id == 0 && ack.schedule.is_none(), "{ack:?}");
    assert_server_alive(addr);
}

#[test]
fn an_unknown_field_nesting_past_the_depth_limit_is_refused() {
    let addr = spawn_server();
    let nested = |levels: u32| (0..levels).fold(Value::Null, |inner, _| Value::Array(vec![inner]));
    // the field's value sits at depth 1, so its innermost null at depth
    // 1 + levels: the limit counts from the payload's top
    let deep = with_pairs(&tiny_request(6), vec![("future", nested(MAX_DEPTH))]);
    let bytes = codec::encode_value(&deep);
    assert!(codec::decode_value(&bytes).is_err());
    assert!(codec::decode_request(WireFormat::Binary, &bytes).is_err());
    let responses = send_value(addr, &deep);
    let err = responses[0].error.as_ref().expect("refused");
    assert_eq!(err.kind, ErrorKind::Parse);
    assert!(err.message.contains("nesting deeper"), "{}", err.message);
    // one level less is within the limit, typed or not
    let within = with_pairs(&tiny_request(7), vec![("future", nested(MAX_DEPTH - 1))]);
    let bytes = codec::encode_value(&within);
    assert_eq!(
        codec::decode_request(WireFormat::Binary, &bytes)
            .unwrap()
            .id,
        7
    );
    let responses = send_value(addr, &within);
    assert!(
        responses[0].ok && responses[0].id == 7,
        "{:?}",
        responses[0]
    );
    assert_server_alive(addr);
}

#[test]
fn a_duplicated_key_takes_its_first_value() {
    let addr = spawn_server();
    let twice = with_pairs(
        &tiny_request(8),
        vec![("id", Value::Num(9.0)), ("restart", Value::Str("x".into()))],
    );
    let bytes = codec::encode_value(&twice);
    assert_eq!(
        codec::decode_request(WireFormat::Binary, &bytes)
            .unwrap()
            .id,
        8
    );
    match parse_value(&codec::decode_value(&bytes).unwrap()) {
        Ok(WireRequest::Solve(req)) => assert_eq!(req.id, 8),
        other => panic!("expected solve, got {other:?}"),
    }
    let responses = send_value(addr, &twice);
    assert!(
        responses[0].ok && responses[0].id == 8,
        "{:?}",
        responses[0]
    );
    assert_server_alive(addr);
}
