//! End-to-end tests of `power-sched serve`: a real server process on an
//! ephemeral port, driven over TCP — pipelined solve requests, a malformed
//! line, `ping`, and a graceful `shutdown` that must end the process with
//! exit code 0.
//!
//! The first test deliberately keeps a hand-rolled JSONL client: it is the
//! compatibility proof that v1/v2 line-protocol clients keep working
//! against a v3 server, byte for byte. Everything else goes through
//! [`EngineClient`], the shared client the CLI itself uses.

use power_scheduling::engine::{
    EngineClient, ErrorKind, SolveRequest, SolveResponse, Transport, PROTOCOL_VERSION,
};
use power_scheduling::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct ServerGuard {
    child: Child,
    addr: String,
}

impl ServerGuard {
    fn spawn(workers: u32) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_power-sched"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn power-sched serve");
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .expect("read listen banner");
        let addr = first_line
            .trim()
            .rsplit(' ')
            .next()
            .expect("banner ends with the address")
            .to_string();
        assert!(
            first_line.contains("listening on"),
            "unexpected banner: {first_line}"
        );
        Self { child, addr }
    }

    /// Waits (bounded) for the server to exit and returns its status.
    fn wait_for_exit(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "server did not shut down within 30s"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill(); // no-op when already exited cleanly
        let _ = self.child.wait();
    }
}

fn request(id: u64, time: u32) -> SolveRequest {
    let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, time % 4)])]);
    SolveRequest::builder(id, inst).affine(3.0, 1.0).build()
}

#[test]
fn pipelined_requests_ping_and_graceful_shutdown_over_raw_tcp() {
    let mut server = ServerGuard::spawn(2);
    let stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Pipeline everything before reading anything: 10 solves, one malformed
    // line, a ping, then shutdown.
    let mut batch = String::new();
    for i in 0..10u64 {
        batch.push_str(&serde_json::to_string(&request(i, i as u32)).unwrap());
        batch.push('\n');
    }
    batch.push_str("{\"oops\":\n");
    batch.push_str(&format!(
        "{{\"version\":{PROTOCOL_VERSION},\"control\":\"ping\"}}\n"
    ));
    batch.push_str(&format!(
        "{{\"version\":{PROTOCOL_VERSION},\"control\":\"shutdown\"}}\n"
    ));
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut responses = Vec::new();
    for _ in 0..13 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "server closed early");
        responses.push(serde_json::from_str::<SolveResponse>(line.trim()).unwrap());
    }

    for (i, resp) in responses[..10].iter().enumerate() {
        assert!(resp.ok, "solve {i} failed: {:?}", resp.error);
        assert_eq!(resp.id, i as u64, "per-connection responses stay in order");
        assert!(resp.schedule.is_some());
    }
    assert_eq!(
        responses[10]
            .error
            .as_ref()
            .expect("malformed line fails")
            .kind,
        ErrorKind::Parse
    );
    assert!(responses[11].ok, "ping must be acknowledged");
    assert!(responses[12].ok, "shutdown must be acknowledged");

    let status = server.wait_for_exit();
    assert!(
        status.success(),
        "graceful shutdown must exit 0: {status:?}"
    );
}

#[test]
fn a_deeply_nested_line_gets_a_parse_failure_and_the_server_keeps_serving() {
    // 20,000 `[` on one JSONL line: the parser refuses the nesting at the
    // shared depth limit, so the connection gets one structured failure and
    // the next request on it is served by the same process.
    let mut server = ServerGuard::spawn(1);
    let stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut batch = "[".repeat(20_000);
    batch.push('\n');
    batch.push_str(&serde_json::to_string(&request(1, 2)).unwrap());
    batch.push('\n');
    batch.push_str(&format!(
        "{{\"version\":{PROTOCOL_VERSION},\"control\":\"shutdown\"}}\n"
    ));
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut responses = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "server closed early");
        responses.push(serde_json::from_str::<SolveResponse>(line.trim()).unwrap());
    }
    let err = responses[0].error.as_ref().expect("the deep line fails");
    assert_eq!(err.kind, ErrorKind::Parse);
    assert!(err.message.contains("nesting deeper"), "{}", err.message);
    assert!(
        responses[1].ok,
        "the next request: {:?}",
        responses[1].error
    );
    assert!(responses[2].ok, "shutdown must be acknowledged");
    let status = server.wait_for_exit();
    assert!(
        status.success(),
        "graceful shutdown must exit 0: {status:?}"
    );
}

#[test]
fn metrics_verb_returns_an_obs_snapshot_over_binary_frames() {
    let mut server = ServerGuard::spawn(2);
    let mut client =
        EngineClient::connect(&*server.addr, Transport::default()).expect("connect framed binary");
    assert_eq!(client.transport(), Transport::Binary);

    // A few solves so the counters are nonzero; workers bump their metrics
    // *before* resolving each ticket, so once the responses are read the
    // snapshot the verb takes is deterministic.
    for i in 0..4u64 {
        client.send(&request(i, i as u32)).unwrap();
    }
    client.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..4 {
        responses.push(client.recv().expect("read solve response").unwrap());
    }

    client.send_control("metrics").unwrap();
    client.send_control("shutdown").unwrap();
    client.flush().unwrap();
    for _ in 0..2 {
        responses.push(client.recv().expect("read control response").unwrap());
    }
    assert!(responses.iter().all(|r| r.ok));

    let obs = responses[4]
        .obs
        .as_ref()
        .expect("metrics ack carries a snapshot");
    assert_eq!(obs.schema, power_scheduling::obs::SCHEMA);
    let requests = obs
        .counters
        .iter()
        .find(|c| c.name == "engine.requests")
        .expect("engine.requests counter");
    assert_eq!(requests.value, 4, "all solves counted before the verb");
    let latency = obs
        .histograms
        .iter()
        .find(|h| h.name == "engine.request.latency_ns")
        .expect("request latency histogram");
    assert_eq!(latency.count, 4);
    assert!(latency.p99 >= latency.p50 && latency.p50 > 0);
    // Per-worker solver metrics are merged in with a worker prefix.
    assert!(
        obs.counters
            .iter()
            .any(|c| c.name.starts_with("worker") && c.name.ends_with("engine.cache.misses")),
        "expected prefixed per-worker rows, got: {:?}",
        obs.counters.iter().map(|c| &c.name).collect::<Vec<_>>()
    );

    let status = server.wait_for_exit();
    assert!(status.success());
}

/// The compatibility matrix the protocol docs promise: v1 and v2 JSONL
/// clients and a v3 binary-framed client all get served by one v3 server —
/// on the same port, negotiated per connection.
#[test]
fn protocol_version_matrix_v1_v2_v3_clients_against_one_server() {
    let mut server = ServerGuard::spawn(2);

    // v1 and v2 clients: raw JSONL with an explicit old version stamp.
    for version in [1u32, 2] {
        let stream = TcpStream::connect(&server.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut req = request(u64::from(version), 0);
        req.version = version;
        writeln!(writer, "{}", serde_json::to_string(&req).unwrap()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("v1/v2 response line");
        let resp: SolveResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(resp.ok, "v{version} client rejected: {:?}", resp.error);
        assert_eq!(resp.id, u64::from(version));
        assert_eq!(
            resp.version, PROTOCOL_VERSION,
            "responses are stamped with the server's version"
        );
    }

    // v3 client: binary frames, with explicit negotiation.
    {
        let mut client =
            EngineClient::connect(&*server.addr, Transport::Binary).expect("connect framed");
        let hello = client.hello().expect("hello negotiation");
        assert_eq!(hello.protocol, PROTOCOL_VERSION);
        assert_eq!(hello.min_protocol, 1, "v1 clients stay supported");
        assert_eq!(hello.formats, ["binary", "jsonl"]);
        client.send(&request(7, 1)).unwrap();
        client.flush().unwrap();
        let resp = client.recv().unwrap().expect("framed response");
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.id, 7);
    }

    // A version from the future is refused with a structured error.
    {
        let stream = TcpStream::connect(&server.addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut req = request(99, 0);
        req.version = PROTOCOL_VERSION + 1;
        writeln!(writer, "{}", serde_json::to_string(&req).unwrap()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: SolveResponse = serde_json::from_str(line.trim()).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error.unwrap().kind, ErrorKind::UnsupportedVersion);
    }

    let mut shutter = EngineClient::connect(&*server.addr, Transport::default()).unwrap();
    shutter.send_control("shutdown").unwrap();
    shutter.flush().unwrap();
    assert!(shutter.recv().unwrap().expect("shutdown ack").ok);
    assert!(server.wait_for_exit().success());
}

/// The retired `lazy`/`parallel` request keys are accepted and ignored on
/// both transports: a request that carries them gets the schedule, bit for
/// bit, that the same request without them gets, in every solve mode.
#[test]
fn retired_lazy_and_parallel_keys_are_accepted_and_ignored() {
    let mut server = ServerGuard::spawn(2);
    let inst = Instance::new(
        2,
        8,
        vec![
            Job::window(1.0, 0, 0, 3),
            Job::window(2.0, 0, 2, 6),
            Job::window(1.0, 1, 1, 5),
            Job::window(3.0, 1, 4, 8),
        ],
    );
    let base = |id| SolveRequest::builder(id, inst.clone()).affine(3.0, 1.0);
    let requests = [
        base(1).build(),
        base(2).prize_collecting(4.0).epsilon(0.25).build(),
        base(3).prize_collecting_exact(4.0).build(),
    ];
    // each request as sent plain, then with the retired keys appended
    let mut lines = Vec::new();
    for req in &requests {
        let json = serde_json::to_string(req).unwrap();
        let body = json.strip_suffix('}').unwrap();
        lines.push(format!("{body},\"lazy\":false,\"parallel\":true}}"));
        lines.push(json);
    }
    for transport in [Transport::Jsonl, Transport::Binary] {
        let mut client = EngineClient::connect(&*server.addr, transport).expect("connect");
        let responses: Vec<SolveResponse> = client
            .pipeline_lines(&lines, false)
            .expect("one response per line")
            .iter()
            .map(|v| serde_json::from_str(&serde_json::to_string(v).unwrap()).unwrap())
            .collect();
        for (req, pair) in requests.iter().zip(responses.chunks(2)) {
            let [with_keys, plain] = pair else {
                panic!("{transport}: responses come in pairs")
            };
            assert!(with_keys.ok, "{transport}: {:?}", with_keys.error);
            assert!(plain.ok, "{transport}: {:?}", plain.error);
            let (a, b) = (
                with_keys.schedule.as_ref().unwrap(),
                plain.schedule.as_ref().unwrap(),
            );
            assert_eq!(a.awake, b.awake, "{transport}, request {}", req.id);
            assert_eq!(
                a.assignments, b.assignments,
                "{transport}, request {}",
                req.id
            );
            assert_eq!(
                a.total_cost.to_bits(),
                b.total_cost.to_bits(),
                "{transport}, request {}",
                req.id
            );
        }
    }

    let mut shutter = EngineClient::connect(&*server.addr, Transport::default()).unwrap();
    shutter.send_control("shutdown").unwrap();
    shutter.flush().unwrap();
    assert!(shutter.recv().unwrap().expect("shutdown ack").ok);
    assert!(server.wait_for_exit().success());
}

#[test]
fn shutdown_is_not_blocked_by_an_idle_connection() {
    // Regression: serve() used to join every connection thread, so a client
    // that connected and then went silent kept the server alive forever
    // after another client's shutdown request.
    let mut server = ServerGuard::spawn(1);
    let idle = TcpStream::connect(&server.addr).expect("idle client connects");

    let shutter = TcpStream::connect(&server.addr).expect("shutter connects");
    let mut writer = shutter.try_clone().unwrap();
    writeln!(
        writer,
        "{{\"version\":{PROTOCOL_VERSION},\"control\":\"shutdown\"}}"
    )
    .unwrap();
    writer.flush().unwrap();
    let mut ack = String::new();
    BufReader::new(shutter).read_line(&mut ack).unwrap();
    assert!(
        serde_json::from_str::<SolveResponse>(ack.trim())
            .unwrap()
            .ok
    );

    let status = server.wait_for_exit();
    assert!(status.success(), "idle connection must not block shutdown");
    drop(idle);
}

#[test]
fn empty_connect_batch_returns_immediately_instead_of_hanging() {
    // Regression: with zero non-blank request lines and no --shutdown the
    // client used to park in its response loop forever.
    let mut server = ServerGuard::spawn(1);
    let dir = std::env::temp_dir().join(format!("power-sched-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "\n  \n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_power-sched"))
        .args(["batch", empty.to_str().unwrap(), "--connect", &server.addr])
        .output()
        .expect("spawn batch --connect on empty input");
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "no requests, no responses");

    // the server is still alive and serviceable afterwards
    let out = Command::new(env!("CARGO_BIN_EXE_power-sched"))
        .args(["batch", "-", "--connect", &server.addr, "--shutdown"])
        .stdin(Stdio::null())
        .output()
        .expect("shutdown client");
    assert!(out.status.success());
    let status = server.wait_for_exit();
    assert!(status.success());
}

#[test]
fn batch_connect_drives_a_server_and_shuts_it_down() {
    let mut server = ServerGuard::spawn(2);
    let dir = std::env::temp_dir().join(format!("power-sched-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reqs = dir.join("reqs.jsonl");
    let body: String = (0..10u64)
        .map(|i| serde_json::to_string(&request(i, i as u32)).unwrap() + "\n")
        .collect();
    std::fs::write(&reqs, body).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_power-sched"))
        .args([
            "batch",
            reqs.to_str().unwrap(),
            "--connect",
            &server.addr,
            "--shutdown",
        ])
        .output()
        .expect("spawn batch --connect");
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let responses: Vec<SolveResponse> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 11, "10 solves + shutdown ack");
    assert!(responses.iter().all(|r| r.ok));
    assert_eq!(
        responses[..10].iter().map(|r| r.id).collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );

    let status = server.wait_for_exit();
    assert!(
        status.success(),
        "graceful shutdown must exit 0: {status:?}"
    );
}

/// Speed scaling over the wire: a v3 request carrying `freq_ladder` and
/// work requirements is served through the real serve loop and answers
/// with per-interval frequency assignments (`freq_levels` parallel to
/// `schedule.awake`). A legacy-shaped request on the same connection is
/// unaffected — the DVFS fields are additive.
#[test]
fn dvfs_request_over_serve_loop_returns_frequency_assignments() {
    let mut server = ServerGuard::spawn(2);
    let mut client =
        EngineClient::connect(&*server.addr, Transport::default()).expect("connect framed binary");

    // The documented greedy-vs-exact anchor instance: wake 1, P(f) = f^2
    // over rungs {1, 2}; greedy pays 9 (see README "Speed scaling").
    let inst = Instance {
        num_processors: 1,
        horizon: 3,
        jobs: vec![
            Job {
                value: 1.0,
                allowed: vec![SlotRef::new(0, 0)],
                work: Some(2),
            },
            Job {
                value: 1.0,
                allowed: vec![SlotRef::new(0, 1)],
                work: None,
            },
            Job {
                value: 1.0,
                allowed: vec![SlotRef::new(0, 2)],
                work: None,
            },
        ],
    };
    let ladder = FreqLadder::new(1.0, 0.0, 2.0, vec![1, 2]);
    let dvfs_req = SolveRequest::builder(1, inst)
        .affine(1.0, 1.0)
        .freq_ladder(ladder)
        .build();
    client.send(&dvfs_req).unwrap();
    client.send(&request(2, 0)).unwrap();
    client.send_control("shutdown").unwrap();
    client.flush().unwrap();

    let dvfs_resp = client.recv().unwrap().expect("dvfs response");
    assert!(dvfs_resp.ok, "{:?}", dvfs_resp.error);
    let schedule = dvfs_resp.schedule.expect("dvfs schedule");
    assert_eq!(schedule.scheduled_count, 3);
    assert_eq!(schedule.total_cost, 9.0, "greedy pays the eager-grab price");
    let levels = dvfs_resp
        .freq_levels
        .expect("DVFS responses carry frequency assignments");
    assert_eq!(
        levels.len(),
        schedule.awake.len(),
        "one level per awake interval"
    );
    assert!(levels.iter().all(|&l| l < 2), "levels index the ladder");

    // Legacy request on the same connection: served, no freq_levels.
    let classic = client.recv().unwrap().expect("classic response");
    assert!(classic.ok, "{:?}", classic.error);
    assert!(classic.freq_levels.is_none());
    let ack = client.recv().unwrap().expect("shutdown ack");
    assert!(ack.ok);

    let status = server.wait_for_exit();
    assert!(status.success());
}
