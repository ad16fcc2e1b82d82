//! End-to-end tests of the structured tracing layer: a Chrome trace
//! exported from a warm-resolve replay must contain correctly *nested*
//! spans (the solve span's interval contains the reduction build and the
//! gain scan) that all share one `trace_id`, and a `trace_id` sent over a
//! real TCP `serve` round-trip must come back on the response — on
//! failures too.

use power_scheduling::engine::{SolveResponse, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_power-sched"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-sched-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Raw JSON document, for navigating the Chrome export without a schema
/// (the vendored serde stub has no untyped-`Value` entry point of its own).
struct Raw(serde::Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

/// Minimal view of one Chrome trace event — only what the assertions need.
#[derive(Debug)]
struct ChromeEvent {
    name: String,
    ph: String,
    tid: u64,
    ts: f64,
    dur: f64,
    trace_id: String,
}

impl ChromeEvent {
    fn parse(v: &serde::Value) -> Self {
        let s = |key: &str| -> String {
            match v.field(key) {
                Ok(serde::Value::Str(s)) => s.clone(),
                other => panic!("event field {key} must be a string, got {other:?}"),
            }
        };
        let n = |key: &str| -> f64 {
            match v.field(key) {
                Ok(serde::Value::Num(n)) => *n,
                // `dur` is absent on instants
                _ => 0.0,
            }
        };
        let trace_id = match v.field("args").and_then(|a| a.field("trace_id")) {
            Ok(serde::Value::Str(s)) => s.clone(),
            other => panic!("every event must carry args.trace_id, got {other:?}"),
        };
        ChromeEvent {
            name: s("name"),
            ph: s("ph"),
            tid: n("tid") as u64,
            ts: n("ts"),
            dur: n("dur"),
            trace_id,
        }
    }

    /// Closed-interval containment on the µs timeline, same thread.
    fn contains(&self, inner: &ChromeEvent) -> bool {
        self.tid == inner.tid && self.ts <= inner.ts && inner.ts + inner.dur <= self.ts + self.dur
    }
}

#[test]
fn warm_replay_chrome_trace_has_nested_spans_under_one_trace_id() {
    let dir = temp_dir("nesting");
    let trace_path = dir.join("replay.json");
    let out = bin()
        .args([
            "replay",
            "--gen",
            "--count",
            "1",
            "--policy",
            "resolve:4:warm",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn replay");
    assert!(
        out.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let raw: Raw = serde_json::from_str(&text).expect("chrome trace parses");
    let events: Vec<ChromeEvent> = match raw.0.field("traceEvents") {
        Ok(serde::Value::Array(items)) => items.iter().map(ChromeEvent::parse).collect(),
        other => panic!("export must carry a traceEvents array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must carry events");

    // One replayed trace => exactly one non-empty trace id, on every event.
    let ids: std::collections::BTreeSet<&str> =
        events.iter().map(|e| e.trace_id.as_str()).collect();
    assert_eq!(ids.len(), 1, "one trace id end-to-end, got {ids:?}");
    let id = ids.iter().next().unwrap();
    assert!(id.starts_with("replay-"), "replay stamps its ids: {id}");

    // Nesting: every reduction build and every in-place rebuild lies inside
    // some solve span on the same thread (`ph:"X"` complete events). Cold
    // solves nest under `core.solve.schedule_all_ns`; a `Solver` builds
    // or rebuilds its reduction inside `core.warm.solve_ns` before entering
    // the solve, so both count as the enclosing solve.
    let solves: Vec<&ChromeEvent> = events
        .iter()
        .filter(|e| {
            e.ph == "X"
                && (e.name == "core.solve.schedule_all_ns" || e.name == "core.warm.solve_ns")
        })
        .collect();
    assert!(!solves.is_empty(), "warm replay records solve spans");
    // Warm re-solves start the lazy greedy from upper bounds, like cold
    // ones: no solve scans every subset.
    assert!(
        !events
            .iter()
            .any(|e| e.name == "core.objective.scan_gains_ns"),
        "a warm replay runs no full gain scan"
    );
    for inner_name in ["core.reduction.build_ns", "core.reduction.apply_delta_ns"] {
        let inners: Vec<&ChromeEvent> = events
            .iter()
            .filter(|e| e.ph == "X" && e.name == inner_name)
            .collect();
        assert!(!inners.is_empty(), "warm replay records {inner_name}");
        for inner in inners {
            assert!(
                solves.iter().any(|s| s.contains(inner)),
                "{inner_name} at ts {} must nest inside a solve span",
                inner.ts
            );
        }
    }

    // The greedy decision log rides the same timeline.
    assert!(
        events
            .iter()
            .any(|e| e.ph == "i" && e.name == "submodular.greedy.pick"),
        "pick instants must be on the timeline"
    );
}

#[test]
fn trace_id_round_trips_through_a_tcp_serve_session() {
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn power-sched serve");
    let stdout = child.stdout.as_mut().expect("piped stdout");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read listen banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Tagged request, untagged request, malformed-but-correlatable line
    // (valid JSON that fails request parsing, so the correlation keys are
    // still recoverable), then shutdown.
    let inst =
        r#"{"num_processors":1,"horizon":2,"jobs":[{"value":1,"allowed":[{"proc":0,"time":0}]}]}"#;
    writeln!(
        writer,
        "{{\"version\":{PROTOCOL_VERSION},\"id\":1,\"mode\":\"ScheduleAll\",\"instance\":{inst},\"restart\":3,\"rate\":1,\"trace_id\":\"e2e-tagged\"}}"
    )
    .unwrap();
    writeln!(
        writer,
        "{{\"version\":{PROTOCOL_VERSION},\"id\":2,\"mode\":\"ScheduleAll\",\"instance\":{inst},\"restart\":3,\"rate\":1}}"
    )
    .unwrap();
    writeln!(
        writer,
        "{{\"version\":{PROTOCOL_VERSION},\"id\":3,\"trace_id\":\"e2e-bad\",\"mode\":\"NoSuchMode\"}}"
    )
    .unwrap();
    writeln!(
        writer,
        "{{\"version\":{PROTOCOL_VERSION},\"control\":\"shutdown\"}}"
    )
    .unwrap();
    writer.flush().unwrap();

    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        lines.push(line);
    }
    let responses: Vec<SolveResponse> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("response parses"))
        .collect();

    assert!(responses[0].ok);
    assert_eq!(responses[0].trace_id.as_deref(), Some("e2e-tagged"));
    assert!(responses[1].ok);
    assert_eq!(
        responses[1].trace_id.as_deref(),
        Some("req-2"),
        "engine stamps a deterministic id when the client sends none"
    );
    assert!(!responses[2].ok, "malformed request must fail");
    assert_eq!(
        responses[2].trace_id.as_deref(),
        Some("e2e-bad"),
        "even unparseable lines echo their trace id back"
    );
    assert_eq!(responses[2].id, 3);
    assert!(responses[3].ok, "shutdown ack");

    let status = child.wait().expect("server exits");
    assert!(status.success(), "graceful shutdown exits 0");
}
