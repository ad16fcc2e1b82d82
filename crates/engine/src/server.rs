//! A `std::net` TCP server speaking the v3 binary-framed protocol *and* the
//! legacy JSONL transport, negotiated per connection.
//!
//! **Content negotiation** happens on the first byte of each connection,
//! peeked without consuming: `0xB3` (the frame magic, outside ASCII) means
//! the whole connection is binary frames — `magic | u32 len | u8 format-tag
//! | payload`, requests and responses alike — while anything else falls
//! back to JSONL lines exactly as protocol v1/v2 shipped them, so `nc` and
//! old clients keep working byte-for-byte. A `hello` control verb answers
//! with the server's capability card ([`crate::protocol::HelloInfo`]).
//!
//! One OS thread per connection pair: a **reader** parses requests and
//! hands them to the shared [`Engine`], while the connection's **writer**
//! resolves tickets *in request order* and streams responses back. That
//! keeps each connection pipelined — a client may write its whole batch
//! before reading anything — without ever reordering its responses.
//!
//! **Admission control**: with a [`ShedPolicy`] configured
//! ([`ServeOptions::shed_policy`], the CLI's `--shed-policy`), readers use
//! the engine's non-blocking [`Engine::admit`] — a full queue sheds per
//! policy with a structured `Overloaded` response (+`retry_after_ms`)
//! instead of queueing unboundedly or blocking the socket. Without a
//! policy, the v1/v2 behavior remains: the bounded queue blocks the
//! reader and backpressure reaches the client's send buffer.
//!
//! Control verbs: `{"version":1,"control":"ping"}` is acknowledged in-line;
//! `"hello"` returns the capability card; `"metrics"` is acknowledged with
//! the engine's merged `obs/v1` snapshot in the response's `obs` field;
//! `"shutdown"` acknowledges, then stops the accept loop and lets
//! in-flight connections drain before [`serve`] returns (graceful
//! shutdown, ending with a metrics flush: a text summary on stderr and,
//! if requested, the JSON snapshot to a file).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use crate::codec::{self, FrameError, WireFormat};
use crate::engine::{AdmitResult, Engine, EngineConfig, ShedPolicy, Ticket};
use crate::protocol::{
    line_correlation, parse_line, parse_value, value_correlation, ErrorKind, SolveResponse,
    WireError, WireRequest,
};

/// Histogram of the reader's decode time per request (payload or line →
/// request), in the engine's global registry.
const DECODE_NS: &str = "engine.codec.decode_ns";

/// Histogram of the writer's encode time per response (response → payload
/// or line), in the engine's global registry.
const ENCODE_NS: &str = "engine.codec.encode_ns";

/// Serve-loop knobs beyond the engine sizing in [`EngineConfig`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeOptions<'a> {
    /// Write the final merged `obs/v1` metrics snapshot here after the
    /// graceful-shutdown drain (the text summary always goes to stderr).
    pub metrics_out: Option<&'a Path>,
    /// Admission control: `Some(policy)` makes connection readers shed on
    /// a full queue instead of blocking (see [`Engine::admit`]); `None`
    /// keeps blocking backpressure.
    pub shed_policy: Option<ShedPolicy>,
}

/// Runs the serve loop on an already-bound listener until a client sends a
/// `shutdown` control request. Returns once every accepted connection has
/// been drained and the engine's workers have been joined. Connections that
/// are idle at shutdown time have their read side cut (already-submitted
/// work still gets its responses), so one parked client cannot keep the
/// process alive.
pub fn serve(listener: TcpListener, config: EngineConfig) -> std::io::Result<()> {
    serve_with_options(listener, config, ServeOptions::default())
}

/// [`serve`] with the full option set ([`ServeOptions`]).
pub fn serve_with_options(
    listener: TcpListener,
    config: EngineConfig,
    options: ServeOptions<'_>,
) -> std::io::Result<()> {
    let metrics_out = options.metrics_out;
    let local = listener.local_addr()?;
    let engine = Arc::new(Engine::new(config));
    let shutdown = Arc::new(AtomicBool::new(false));
    // Read-halves of *live* connections keyed by id, for unblocking parked
    // readers at shutdown. Each handler removes its own entry when it ends,
    // so a long-lived server does not leak one duplicated fd per served
    // connection.
    let streams: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut connections = Vec::new();
    let mut next_conn_id = 0u64;
    let mut consecutive_accept_errors = 0u32;

    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a late client) ends accept
        }
        let stream = match stream {
            Ok(s) => {
                consecutive_accept_errors = 0;
                // Request/response traffic: Nagle + delayed ACK would add
                // ~40ms stalls per unbuffered exchange.
                let _ = s.set_nodelay(true);
                s
            }
            Err(e) => {
                // Transient accept failures (EMFILE, aborted handshakes)
                // must not kill the server; back off briefly and retry. A
                // persistently failing listener is fatal after ~2 s. Each
                // failure is counted, logged, and recorded as a structured
                // flight-recorder event — these used to vanish silently,
                // hiding fd exhaustion until clients timed out.
                engine.registry().counter("engine.accept.errors").inc();
                eprintln!("accept error (attempt {consecutive_accept_errors}): {e}");
                if let Some(tracer) = engine.tracer() {
                    tracer.record_instant(
                        "engine.accept.error",
                        None,
                        vec![
                            ("attempt", u64::from(consecutive_accept_errors).into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
                consecutive_accept_errors += 1;
                if consecutive_accept_errors > 100 {
                    // Error burst turned fatal: dump the flight recorder and
                    // flush the metrics snapshot before bailing, so the
                    // failure leaves the same artifacts a clean shutdown
                    // would.
                    if let Some(tracer) = engine.tracer() {
                        tracer.dump_to_stderr("accept-loop error burst");
                    }
                    let snapshot = engine.metrics_snapshot();
                    eprint!("metrics summary:\n{}", snapshot.render_text());
                    if let Some(path) = metrics_out {
                        let _ = std::fs::write(path, snapshot.to_json() + "\n");
                    }
                    return Err(e);
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        if let (Ok(clone), Ok(mut registry)) = (stream.try_clone(), streams.lock()) {
            registry.push((conn_id, clone));
        } // a clone failure only costs shutdown-unparking for this conn
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let streams = Arc::clone(&streams);
        let shed_policy = options.shed_policy;
        connections.push(std::thread::spawn(move || {
            // Connection errors (resets, half-closed sockets) only end that
            // connection; the server keeps serving others.
            let _ = handle_connection(stream, &engine, &shutdown, local, shed_policy);
            if let Ok(mut registry) = streams.lock() {
                registry.retain(|(id, _)| *id != conn_id);
            }
        }));
    }

    // Unpark readers blocked on idle sockets; their writers then drain any
    // in-flight responses and the connection threads end.
    if let Ok(registry) = streams.lock() {
        for (_, s) in registry.iter() {
            let _ = s.shutdown(Shutdown::Read);
        }
    }
    for conn in connections {
        let _ = conn.join();
    }

    // Graceful-shutdown flush: everything is drained, so this is the
    // complete picture of the server's lifetime — the metrics snapshot
    // plus, with the flight recorder on, the last trace events per thread.
    if let Some(tracer) = engine.tracer() {
        tracer.dump_to_stderr("graceful shutdown");
    }
    let snapshot = engine.metrics_snapshot();
    eprint!("metrics summary:\n{}", snapshot.render_text());
    if let Some(path) = metrics_out {
        std::fs::write(path, snapshot.to_json() + "\n")?;
    }
    Ok(())
}

/// Outcome of parsing one request on a connection, in arrival order.
enum Pending {
    /// Response already known (parse error, control ack, shed).
    Ready(Box<SolveResponse>),
    /// Solve dispatched to the engine.
    InFlight(Ticket),
}

struct Dispatch {
    pending: Pending,
    /// A `shutdown` verb was handled: stop reading after answering it.
    stop: bool,
}

/// Turns one parsed request (or its parse failure + best-effort
/// correlation keys) into a pending response, shared by both transports.
fn dispatch_request(
    parsed: Result<WireRequest, WireError>,
    correlation: (u64, Option<String>),
    engine: &Engine,
    shutdown: &AtomicBool,
    local: SocketAddr,
    shed_policy: Option<ShedPolicy>,
) -> Dispatch {
    let mut stop = false;
    let pending = match parsed {
        Ok(WireRequest::Solve(req)) => match shed_policy {
            // no admission control: block on the bounded queue
            // (backpressure through the socket, the v1/v2 behavior)
            None => Pending::InFlight(engine.submit(*req)),
            Some(policy) => match engine.admit(*req, policy) {
                AdmitResult::Admitted(ticket) => Pending::InFlight(ticket),
                AdmitResult::Shed(resp) => Pending::Ready(resp),
            },
        },
        Ok(WireRequest::Control(ctl)) => match ctl.control.as_str() {
            "ping" => Pending::Ready(Box::new(SolveResponse::control_ack())),
            "hello" => Pending::Ready(Box::new(SolveResponse::hello_ack())),
            "metrics" => Pending::Ready(Box::new(SolveResponse::metrics_ack(
                engine.metrics_snapshot(),
            ))),
            "shutdown" => {
                shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(local);
                stop = true;
                Pending::Ready(Box::new(SolveResponse::control_ack()))
            }
            other => Pending::Ready(Box::new(SolveResponse::failure(
                0,
                WireError::new(
                    ErrorKind::BadRequest,
                    format!("unknown control verb '{other}'"),
                ),
            ))),
        },
        Err(e) => {
            // carry whatever correlation keys the bad request had, so the
            // client can match the failure to its request
            let (id, trace_id) = correlation;
            let resp = SolveResponse::failure(id, e);
            Pending::Ready(Box::new(match trace_id {
                Some(t) => resp.with_trace_id(t),
                None => resp,
            }))
        }
    };
    Dispatch { pending, stop }
}

fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    shutdown: &AtomicBool,
    local: SocketAddr,
    shed_policy: Option<ShedPolicy>,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Content negotiation: peek (without consuming) the connection's first
    // byte. The frame magic 0xB3 is outside ASCII, so it can never begin a
    // JSONL line — one byte decides the transport for the whole connection.
    let framed = match reader.fill_buf() {
        Ok([]) => return Ok(()), // clean EOF before any request
        Ok(buf) => buf[0] == codec::MAGIC[0],
        Err(e) => return Err(e),
    };

    // Bounded: when a pipelining client stops reading responses, the writer
    // stalls on the socket, this queue fills, the reader blocks here and
    // stops consuming requests — backpressure reaches the client's send
    // buffer instead of responses piling up in server memory.
    let (tx, rx) = mpsc::sync_channel::<Pending>(64);

    std::thread::scope(|scope| {
        scope.spawn(move || {
            if framed {
                read_frames(reader, engine, shutdown, local, shed_policy, &tx);
            } else {
                read_lines(reader, engine, shutdown, local, shed_policy, &tx);
            }
            // tx drops here: the writer drains what remains, then ends.
        });

        let encode_ns = engine.registry().histogram(ENCODE_NS);
        for pending in rx {
            let response = match pending {
                Pending::Ready(r) => *r,
                Pending::InFlight(ticket) => ticket.wait(),
            };
            let t0 = Instant::now();
            if framed {
                let payload = codec::to_binary(&response);
                encode_ns.record(t0.elapsed().as_nanos() as u64);
                codec::write_frame(&mut writer, WireFormat::Binary, &payload)?;
            } else {
                let line = serde_json::to_string(&response)
                    .unwrap_or_else(|e| format!("{{\"version\":1,\"id\":0,\"ok\":false,\"error\":{{\"kind\":\"Internal\",\"message\":\"serialize: {e}\"}}}}"));
                encode_ns.record(t0.elapsed().as_nanos() as u64);
                writeln!(writer, "{line}")?;
            }
            writer.flush()?;
        }
        Ok(())
    })
}

/// Reader half of a legacy JSONL connection (protocol v1/v2). Every line
/// gets one response: a line that is not UTF-8 is answered with a `Parse`
/// failure and reading resumes at the next `\n`. Lines are capped like
/// frames: one longer than [`codec::MAX_FRAME_LEN`] bytes is answered with
/// one `Parse` failure and the connection is closed, with at most one byte
/// past the cap buffered.
fn read_lines(
    mut reader: BufReader<TcpStream>,
    engine: &Engine,
    shutdown: &AtomicBool,
    local: SocketAddr,
    shed_policy: Option<ShedPolicy>,
    tx: &mpsc::SyncSender<Pending>,
) {
    let cap = u64::from(codec::MAX_FRAME_LEN);
    let decode_ns = engine.registry().histogram(DECODE_NS);
    loop {
        let mut buf = Vec::new();
        match reader.by_ref().take(cap + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break, // EOF or transport died
            Ok(_) => {}
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if line.len() as u64 > cap {
            let resp = SolveResponse::failure(
                0,
                WireError::new(
                    ErrorKind::Parse,
                    format!("request line exceeds the {cap}-byte cap"),
                ),
            );
            let _ = tx.send(Pending::Ready(Box::new(resp)));
            break; // as for an oversized frame: the next `\n` may never come
        }
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let dispatch = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                let t0 = Instant::now();
                let parsed = parse_line(line);
                let correlation = match parsed {
                    Ok(_) => (0, None),
                    Err(_) => line_correlation(line),
                };
                decode_ns.record(t0.elapsed().as_nanos() as u64);
                dispatch_request(parsed, correlation, engine, shutdown, local, shed_policy)
            }
            Err(e) => Dispatch {
                pending: Pending::Ready(Box::new(SolveResponse::failure(
                    0,
                    WireError::new(ErrorKind::Parse, format!("request line is not UTF-8: {e}")),
                ))),
                stop: false,
            },
        };
        if tx.send(dispatch.pending).is_err() {
            break; // writer gone (client stopped reading)
        }
        if dispatch.stop {
            break; // no requests are read after a shutdown verb
        }
    }
}

/// Reader half of a v3 framed connection. A malformed frame (bad magic,
/// oversized declaration, unknown tag, truncation) is answered with one
/// structured `Parse` failure and then the connection is closed — a byte
/// stream cannot be resynchronized after a framing error. This loop must
/// never panic, whatever bytes arrive (fuzzed in `tests/frame_malformed`).
fn read_frames(
    mut reader: BufReader<TcpStream>,
    engine: &Engine,
    shutdown: &AtomicBool,
    local: SocketAddr,
    shed_policy: Option<ShedPolicy>,
    tx: &mpsc::SyncSender<Pending>,
) {
    let decode_ns = engine.registry().histogram(DECODE_NS);
    loop {
        match codec::read_frame(&mut reader) {
            Ok(None) => break, // clean EOF between frames
            Ok(Some((format, payload))) => {
                let t0 = Instant::now();
                let (parsed, correlation) = parse_frame(format, &payload);
                decode_ns.record(t0.elapsed().as_nanos() as u64);
                let dispatch =
                    dispatch_request(parsed, correlation, engine, shutdown, local, shed_policy);
                if tx.send(dispatch.pending).is_err() {
                    break;
                }
                if dispatch.stop {
                    break;
                }
            }
            Err(FrameError::Io(_)) => break, // transport died: nothing to answer
            Err(e) => {
                let resp =
                    SolveResponse::failure(0, WireError::new(ErrorKind::Parse, e.to_string()));
                let _ = tx.send(Pending::Ready(Box::new(resp)));
                break;
            }
        }
    }
}

/// Decodes one frame payload: straight into a
/// [`SolveRequest`](crate::protocol::SolveRequest) when the
/// typed decoder accepts it, else through the value tree, which recognizes
/// control verbs and words every failure. A failure carries the request's
/// best-effort correlation keys.
fn parse_frame(
    format: WireFormat,
    payload: &[u8],
) -> (Result<WireRequest, WireError>, (u64, Option<String>)) {
    if let Ok(req) = codec::decode_request(format, payload) {
        return (Ok(WireRequest::Solve(Box::new(req))), (0, None));
    }
    match codec::payload_to_value(format, payload) {
        Ok(value) => {
            let parsed = parse_value(&value);
            let correlation = match parsed {
                Ok(_) => (0, None),
                Err(_) => value_correlation(&value),
            };
            (parsed, correlation)
        }
        Err(e) => (
            Err(WireError::new(
                ErrorKind::Parse,
                format!("undecodable frame payload: {e}"),
            )),
            (0, None),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{EngineClient, Transport};
    use crate::protocol::SolveRequest;
    use sched_core::{Instance, Job, SlotRef};
    use sched_obs::Snapshot;

    fn samples(snap: &Snapshot, name: &str) -> u64 {
        snap.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0, |h| h.count)
    }

    #[test]
    fn every_framed_request_records_one_decode_and_one_encode() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let path = std::env::temp_dir().join(format!("codec-metrics-{}.json", std::process::id()));
        let out = path.clone();
        let server = std::thread::spawn(move || {
            let options = ServeOptions {
                metrics_out: Some(&out),
                shed_policy: None,
            };
            serve_with_options(listener, EngineConfig::with_workers(1), options)
        });
        let mut client = EngineClient::connect(addr, Transport::Binary).unwrap();
        let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 1)])]);
        let solves = 5;
        for id in 0..solves {
            let req = SolveRequest::builder(id, inst.clone()).affine(3.0, 1.0);
            client.send(&req.build()).unwrap();
        }
        client.flush().unwrap();
        for _ in 0..solves {
            assert!(client.recv().unwrap().expect("a response").ok);
        }
        // the verb's own decode is recorded before its snapshot, its
        // encode after
        client.send_control("metrics").unwrap();
        client.flush().unwrap();
        let ack = client.recv().unwrap().expect("metrics ack");
        let obs = ack.obs.expect("metrics ack carries a snapshot");
        assert_eq!(samples(&obs, DECODE_NS), solves + 1);
        assert_eq!(samples(&obs, ENCODE_NS), solves);
        client.send_control("shutdown").unwrap();
        client.flush().unwrap();
        assert!(client.recv().unwrap().expect("shutdown ack").ok);
        server.join().unwrap().unwrap();
        // the shutdown summary holds every frame of the connection
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let summary: Snapshot = serde_json::from_str(&text).unwrap();
        let frames = solves + 2;
        assert_eq!(samples(&summary, DECODE_NS), frames);
        assert_eq!(samples(&summary, ENCODE_NS), frames);
    }
}
