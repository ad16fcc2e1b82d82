//! `EngineClient` — the one TCP client for the engine wire protocol,
//! shared by `power-sched batch --connect`, the e2e test suites, and the
//! perf harness's framing pair (`bench::perf`).
//!
//! A client picks a [`Transport`] up front: v3 binary frames (the default
//! — see [`Transport::default`]), or the legacy JSONL line protocol for
//! talking to old servers and for debug parity with `nc`. The server
//! negotiates by sniffing the first byte, so no handshake round-trip is
//! required; callers that want an explicit negotiation use
//! [`EngineClient::hello`] to fetch the server's capability card before
//! sending work.
//!
//! Two usage shapes:
//!
//! * **request/response** — [`send`](EngineClient::send) /
//!   [`recv`](EngineClient::recv) (or
//!   [`send_control`](EngineClient::send_control)) for interactive use;
//! * **pipelined batch** — [`pipeline_lines`](EngineClient::pipeline_lines)
//!   writes a whole batch from a scoped writer thread while the calling
//!   thread drains responses, so a server applying socket backpressure can
//!   never deadlock the client (writing everything before reading anything
//!   would, once both directions' socket buffers fill).

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::{Deserialize, Serialize, Value};

use crate::codec::{self, FrameError, WireFormat};
use crate::protocol::{ControlRequest, HelloInfo, SolveRequest, SolveResponse, PROTOCOL_VERSION};

/// Which wire transport the client speaks for the whole connection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// Legacy JSONL lines (protocol v1/v2 compatible).
    Jsonl,
    /// v3 length-prefixed frames with binary payloads (the default).
    #[default]
    Binary,
}

impl std::str::FromStr for Transport {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(Transport::Jsonl),
            "binary" => Ok(Transport::Binary),
            other => Err(format!(
                "unknown format '{other}' (expected binary or jsonl)"
            )),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transport::Jsonl => "jsonl",
            Transport::Binary => "binary",
        })
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// A connected engine client: buffered reader + writer over one TCP
/// stream, speaking one [`Transport`].
pub struct EngineClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    transport: Transport,
}

impl EngineClient {
    /// Connects and prepares buffered halves. No bytes are sent yet — the
    /// server learns the transport from the first byte of the first
    /// request.
    pub fn connect(addr: impl ToSocketAddrs, transport: Transport) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, transport)
    }

    /// Wraps an already-connected stream (tests, custom dialing).
    pub fn from_stream(stream: TcpStream, transport: Transport) -> io::Result<Self> {
        // Request/response traffic: Nagle + delayed ACK would add ~40ms
        // stalls per unbuffered exchange.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            transport,
        })
    }

    /// The transport this client speaks.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Explicit negotiation: sends the `hello` verb and returns the
    /// server's capability card ([`HelloInfo`]). Errors if the server
    /// predates v3 (its ack carries no card).
    pub fn hello(&mut self) -> io::Result<HelloInfo> {
        self.send_control("hello")?;
        self.flush()?;
        let resp = self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed on hello")
        })?;
        resp.hello
            .ok_or_else(|| invalid("hello ack carried no capability card (pre-v3 server?)"))
    }

    /// Queues one solve request (buffered; call [`flush`](Self::flush) or
    /// a recv-side method to push it out).
    pub fn send(&mut self, req: &SolveRequest) -> io::Result<()> {
        write_serialized(&mut self.writer, self.transport, req)
    }

    /// Queues one control request (`"ping"`, `"hello"`, `"metrics"`,
    /// `"shutdown"`).
    pub fn send_control(&mut self, verb: &str) -> io::Result<()> {
        let ctl = ControlRequest {
            version: PROTOCOL_VERSION,
            control: verb.to_string(),
        };
        write_serialized(&mut self.writer, self.transport, &ctl)
    }

    /// Flushes buffered requests to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads one response as a raw value tree (`None` on clean EOF).
    /// Useful when the caller re-serializes responses (e.g. `batch`
    /// writing an output file) and wants the server's field order kept.
    pub fn recv_value(&mut self) -> io::Result<Option<Value>> {
        recv_value_from(&mut self.reader, self.transport)
    }

    /// Reads one typed response (`None` on clean EOF). A binary frame is
    /// decoded straight into the response ([`codec::from_binary`]); a JSONL
    /// line goes through its value tree.
    pub fn recv(&mut self) -> io::Result<Option<SolveResponse>> {
        match self.transport {
            Transport::Jsonl => match self.recv_value()? {
                None => Ok(None),
                Some(v) => SolveResponse::from_value(&v).map(Some).map_err(invalid),
            },
            Transport::Binary => match read_payload(&mut self.reader)? {
                None => Ok(None),
                Some(payload) => codec::from_binary(&payload).map(Some).map_err(invalid),
            },
        }
    }

    /// Pipelined batch: writes every non-blank line (then, optionally, a
    /// `shutdown` verb) from a scoped writer thread while this thread
    /// drains exactly one response value per sent request, in order.
    /// Blank lines are skipped to match server-side JSONL semantics.
    pub fn pipeline_lines(&mut self, lines: &[String], shutdown: bool) -> io::Result<Vec<Value>> {
        let Self {
            reader,
            writer,
            transport,
        } = self;
        let transport = *transport;
        let sent: Vec<&String> = lines.iter().filter(|l| !l.trim().is_empty()).collect();
        let expected = sent.len() + usize::from(shutdown);
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> io::Result<()> {
                for line in sent {
                    write_line(writer, transport, line)?;
                }
                if shutdown {
                    let ctl = ControlRequest {
                        version: PROTOCOL_VERSION,
                        control: "shutdown".to_string(),
                    };
                    write_serialized(writer, transport, &ctl)?;
                }
                writer.flush()
            });
            let mut responses = Vec::with_capacity(expected);
            for _ in 0..expected {
                match recv_value_from(reader, transport)? {
                    Some(v) => responses.push(v),
                    None => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!(
                                "server closed after {} of {expected} responses",
                                responses.len()
                            ),
                        ))
                    }
                }
            }
            sender.join().expect("client writer thread panicked")?;
            Ok(responses)
        })
    }
}

/// Serializes one wire struct in the transport's encoding (buffered).
fn write_serialized<T: Serialize>(
    writer: &mut BufWriter<TcpStream>,
    transport: Transport,
    t: &T,
) -> io::Result<()> {
    match transport {
        Transport::Jsonl => {
            let line = serde_json::to_string(t).map_err(invalid)?;
            writeln!(writer, "{line}")
        }
        Transport::Binary => codec::write_frame(writer, WireFormat::Binary, &codec::to_binary(t)),
    }
}

/// Writes one raw JSONL request line in the transport's encoding. Over
/// binary frames the line is re-encoded; a line that is not valid JSON is
/// framed verbatim, so the *server* still produces its structured `Parse`
/// failure — line and framed batches fail identically. A line framed
/// verbatim never decodes: text does not begin with a binary value tag
/// (`0x00..=0x08`).
fn write_line(
    writer: &mut BufWriter<TcpStream>,
    transport: Transport,
    line: &str,
) -> io::Result<()> {
    match transport {
        Transport::Jsonl => writeln!(writer, "{line}"),
        Transport::Binary => match serde_json::from_str::<Value>(line) {
            Ok(v) => write_serialized(writer, transport, &v),
            Err(_) => codec::write_frame(writer, WireFormat::Binary, line.as_bytes()),
        },
    }
}

/// Reads one response value in the transport's encoding (`None` on clean
/// EOF before any byte of the next response).
fn recv_value_from<R: Read>(
    reader: &mut BufReader<R>,
    transport: Transport,
) -> io::Result<Option<Value>> {
    match transport {
        Transport::Jsonl => {
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Ok(None);
                }
                if !line.trim().is_empty() {
                    break;
                }
            }
            serde_json::from_str(line.trim()).map(Some).map_err(invalid)
        }
        Transport::Binary => match read_payload(reader)? {
            None => Ok(None),
            Some(payload) => codec::decode_value(&payload).map(Some).map_err(invalid),
        },
    }
}

/// Reads one frame's payload (`None` on clean EOF before its first byte).
fn read_payload<R: Read>(reader: &mut BufReader<R>) -> io::Result<Option<Vec<u8>>> {
    match codec::read_frame(reader) {
        Ok(None) => Ok(None),
        Ok(Some((WireFormat::Binary, payload))) => Ok(Some(payload)),
        Err(FrameError::Io(e)) => Err(e),
        Err(e) => Err(invalid(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::{ErrorKind, PROTOCOL_VERSION};
    use crate::server::serve;
    use sched_core::{Instance, Job, SlotRef};
    use std::net::TcpListener;

    fn tiny_req(id: u64) -> SolveRequest {
        let inst = Instance::new(1, 4, vec![Job::unit(vec![SlotRef::new(0, 1)])]);
        SolveRequest::builder(id, inst).affine(3.0, 1.0).build()
    }

    fn with_server(f: impl FnOnce(std::net::SocketAddr)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve(listener, EngineConfig::with_workers(1)));
        f(addr);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn both_transports_negotiate_hello_and_solve() {
        for transport in [Transport::Jsonl, Transport::Binary] {
            with_server(|addr| {
                let mut client = EngineClient::connect(addr, transport).unwrap();
                let hello = client.hello().unwrap();
                assert_eq!(hello.protocol, PROTOCOL_VERSION);
                assert!(hello.formats.iter().any(|f| f == "binary"));

                client.send(&tiny_req(42)).unwrap();
                client.flush().unwrap();
                let resp = client.recv().unwrap().expect("one response");
                assert!(resp.ok, "{transport}: {:?}", resp.error);
                assert_eq!(resp.id, 42);
                assert_eq!(resp.schedule.unwrap().scheduled_count, 1);

                client.send_control("shutdown").unwrap();
                client.flush().unwrap();
                assert!(client.recv().unwrap().expect("shutdown ack").ok);
            });
        }
    }

    #[test]
    fn pipeline_preserves_order_and_server_side_parse_errors() {
        for transport in [Transport::Jsonl, Transport::Binary] {
            with_server(|addr| {
                let mut client = EngineClient::connect(addr, transport).unwrap();
                let lines = vec![
                    serde_json::to_string(&tiny_req(1)).unwrap(),
                    "   ".to_string(), // blank: skipped, no response expected
                    "{\"this is\": not json".to_string(),
                    serde_json::to_string(&tiny_req(3)).unwrap(),
                ];
                let responses = client.pipeline_lines(&lines, true).unwrap();
                assert_eq!(responses.len(), 4, "{transport}: 3 sent + shutdown ack");
                let typed: Vec<SolveResponse> = responses
                    .iter()
                    .map(|v| SolveResponse::from_value(v).unwrap())
                    .collect();
                assert_eq!(typed[0].id, 1);
                assert!(typed[0].ok);
                // the malformed line fails *server-side* on every transport
                assert_eq!(typed[1].error.as_ref().unwrap().kind, ErrorKind::Parse);
                assert_eq!(typed[2].id, 3);
                assert!(typed[2].ok);
                assert!(typed[3].ok, "shutdown ack");
            });
        }
    }
}
