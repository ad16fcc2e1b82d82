//! Protocol v3 binary framing and the compact field-tagged payload codec.
//!
//! # Frame layout
//!
//! Every v3 message — request or response, either direction — is one frame:
//!
//! ```text
//! ┌────────────┬──────────────┬───────────────┬──────────────┐
//! │ magic (2B) │ len (u32 LE) │ format tag 1B │ payload len B│
//! │ B3 50      │ payload len  │ 2 = binary    │              │
//! └────────────┴──────────────┴───────────────┴──────────────┘
//! ```
//!
//! The first magic byte (`0xB3`) is deliberately outside ASCII: no JSONL
//! line can start with it, so the *first byte of a connection* decides the
//! framing — see [`crate::server`] for the negotiation sniff. The length
//! prefix is checked against [`MAX_FRAME_LEN`] **before** any allocation,
//! so a hostile 4 GiB declaration costs nothing; payloads are read through
//! `Read::take`, so even an accepted length only allocates as bytes
//! actually arrive.
//!
//! # Payload format
//!
//! [`WireFormat::Binary`] (tag 2) is the one payload format: a compact
//! field-tagged binary encoding of the serde value tree. Well-known
//! protocol field names ([`FIELD_NAMES`]) are one byte on the wire; unknown
//! keys fall back to inline strings, so *additive* protocol fields need no
//! codec bump. Numbers are LEB128 varints when integral (the common case:
//! ids, slot indices, versions) and raw `f64` bits otherwise. Tag 1 (JSON
//! text) is withdrawn: a tag-1 frame reads as
//! [`FrameError::UnknownFormat`]. Clients that want JSON text speak the
//! JSONL line transport instead.
//!
//! The decoder is hardened against hostile bytes: every length and count
//! is bounds-checked against the remaining input before use, recursion is
//! depth-limited, and strings are UTF-8-validated — malformed payloads
//! yield structured errors, never panics or unbounded allocation
//! (fuzzed in `tests/frame_malformed.rs`).
//!
//! # Streaming encode, typed decode, and the tree
//!
//! The hot paths build no [`Value`] tree, whose one heap `String` per key
//! cost more than a small solve:
//!
//! * **Encode.** [`to_binary`] streams a wire struct through
//!   [`serde::Serialize::stream`] into the encoder, and so does everything
//!   built on it: [`value_to_payload`], the server's writer and
//!   [`EngineClient::send`](crate::EngineClient::send). The bytes are
//!   exactly [`encode_value`]`(&x.to_value())`: the same varint/`f64`
//!   rule, the same one-byte field ids (looked up in a table bucketed by
//!   name length) and inline keys, null object fields left out and null
//!   array elements kept. `encode_value` itself streams the tree.
//! * **Decode.** [`decode_typed`] reads a payload straight into a wire
//!   struct through [`serde::Deserialize::from_source`], over the same
//!   hardened cursor and checks as [`decode_value`]: counts against the
//!   remaining input before reserving, UTF-8 strings and inline keys,
//!   unknown field ids refused, skipped unknown values checked at their
//!   depth from the payload's top, trailing bytes refused, and the first of
//!   duplicated keys kept, as [`Value::field`] keeps it. Whatever it accepts
//!   the tree path accepts as the same value; it may refuse more. The
//!   server's reader uses [`decode_request`], which also refuses a
//!   top-level `control` key, and
//!   [`EngineClient::recv`](crate::EngineClient::recv) uses [`from_binary`].
//!   A refused payload is decoded again through the tree, so controls and
//!   every error response — kind, message, and the correlated
//!   `id`/`trace_id` — come from the tree path.
//!
//! The tree stays for what needs the whole value: control requests, error
//! correlation ([`value_correlation`](crate::protocol::value_correlation)),
//! [`payload_to_value`] for callers that re-serialize responses, the JSONL
//! transport through `serde_json`, and the reference the equivalence tests
//! (`tests/protocol_roundtrip.rs`, `tests/frame_malformed.rs`) and the
//! `wire_codec` perf pair compare against.

use serde::{Deserialize, Serialize, Sink, Source, Value};

use crate::protocol::{SolveRequest, CONTROL_KEY};
use std::io::{self, Read, Write};

/// Frame preamble: `0xB3` (outside ASCII, so never the first byte of a
/// JSONL connection) + `0x50` (`P` for power-sched).
pub const MAGIC: [u8; 2] = [0xB3, 0x50];

/// Hard ceiling on a declared payload length (64 MiB). Checked before any
/// allocation; larger declarations are rejected as [`FrameError::Oversized`].
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// How a frame's payload bytes are encoded. One variant: the tag byte is
/// kept on the wire so a future format can be added without a new magic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFormat {
    /// Tag 2: the compact field-tagged binary encoding.
    Binary,
}

impl WireFormat {
    /// The on-wire format tag byte.
    pub fn tag(self) -> u8 {
        match self {
            WireFormat::Binary => 2,
        }
    }

    /// Parses a format tag byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            2 => Some(WireFormat::Binary),
            _ => None,
        }
    }
}

/// Why a frame could not be read. `Io` is transport trouble; every other
/// variant is a malformed frame (the connection cannot be resynchronized
/// afterwards, so servers answer once and close).
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed mid-frame.
    Io(io::Error),
    /// The two preamble bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The stream ended inside a header or before `declared` payload bytes
    /// arrived.
    Truncated {
        /// Bytes the header promised.
        declared: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The declared payload length exceeds [`MAX_FRAME_LEN`]; rejected
    /// before any allocation.
    Oversized {
        /// The hostile declared length.
        declared: u32,
    },
    /// The format tag byte is not a known [`WireFormat`].
    UnknownFormat(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::BadMagic(bytes) => {
                write!(f, "bad frame magic {bytes:02x?} (expected {MAGIC:02x?})")
            }
            FrameError::Truncated { declared, got } => {
                write!(
                    f,
                    "truncated frame: header declared {declared} bytes, got {got}"
                )
            }
            FrameError::Oversized { declared } => write!(
                f,
                "frame declares {declared} payload bytes, over the {MAX_FRAME_LEN}-byte cap"
            ),
            FrameError::UnknownFormat(tag) => write!(f, "unknown frame format tag {tag}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: magic, LE length, format tag, payload. The payload
/// must fit [`MAX_FRAME_LEN`] — engine responses always do; a caller
/// constructing something larger gets an `InvalidInput` error rather than
/// an unreadable frame.
pub fn write_frame(w: &mut impl Write, format: WireFormat, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds the frame cap", payload.len()),
            )
        })?;
    let mut header = [0u8; 7];
    header[..2].copy_from_slice(&MAGIC);
    header[2..6].copy_from_slice(&len.to_le_bytes());
    header[6] = format.tag();
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` is a clean EOF *before any header byte* —
/// the peer closed between frames. EOF anywhere inside a frame is
/// [`FrameError::Truncated`]. The declared length is validated against
/// [`MAX_FRAME_LEN`] before anything is allocated, and the payload buffer
/// grows only as bytes actually arrive (`Read::take`), so a liar's header
/// cannot reserve memory it never sends.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(WireFormat, Vec<u8>)>, FrameError> {
    let mut header = [0u8; 7];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    declared: header.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if header[..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    let declared = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if declared > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { declared });
    }
    let format = WireFormat::from_tag(header[6]).ok_or(FrameError::UnknownFormat(header[6]))?;
    let mut payload = Vec::new();
    r.take(u64::from(declared)).read_to_end(&mut payload)?;
    if payload.len() < declared as usize {
        return Err(FrameError::Truncated {
            declared: declared as usize,
            got: payload.len(),
        });
    }
    Ok(Some((format, payload)))
}

/// Well-known field names, in on-wire id order. An object key on this list
/// encodes as its one-byte index; anything else is an inline string, so the
/// table is a compression dictionary, not a schema — **append-only**
/// (reordering or removing entries would change the meaning of committed
/// byte streams; additive protocol fields just get appended here, or
/// ride the inline fallback until they are).
pub const FIELD_NAMES: &[&str] = &[
    // request envelope
    "version",
    "id",
    "mode",
    "instance",
    "restart",
    "rate",
    "profiles",
    "policy",
    "target",
    "epsilon",
    // retired request toggles: accepted and ignored, ids kept
    "lazy",
    "parallel",
    "trace_id",
    "control",
    "format",
    // response envelope
    "ok",
    "schedule",
    "error",
    "metrics",
    "obs",
    "hello",
    "retry_after_ms",
    "kind",
    "message",
    "solve_micros",
    "candidates",
    "worker",
    "cache_hit",
    // instance / schedule model
    "num_processors",
    "horizon",
    "jobs",
    "value",
    "allowed",
    "proc",
    "time",
    "awake",
    "assignments",
    "total_cost",
    "scheduled_value",
    "scheduled_count",
    "start",
    "end",
    "cost",
    // power profiles
    "wake_cost",
    "busy_rate",
    "sleep_states",
    "idle_rate",
    // hello negotiation
    "protocol",
    "min_protocol",
    "formats",
    // obs/v1 snapshot (metrics control acks)
    "schema",
    "counters",
    "gauges",
    "histograms",
    "name",
    "count",
    "sum",
    "min",
    "max",
    "p50",
    "p99",
    "p999",
    // DVFS speed scaling (additive v3 fields — appended, never reordered)
    "work",
    "freq_ladder",
    "freq_levels",
    "alpha",
    "beta",
    "gamma",
    "freqs",
];

/// Key byte announcing an inline (varint length + UTF-8) key instead of a
/// [`FIELD_NAMES`] index.
const INLINE_KEY: u8 = 0xFF;

// Ids must stay one byte with 0xFF reserved for the inline escape.
const _: () = assert!(FIELD_NAMES.len() < INLINE_KEY as usize);

/// Length of the longest name in [`FIELD_NAMES`].
const MAX_NAME_LEN: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < FIELD_NAMES.len() {
        if FIELD_NAMES[i].len() > max {
            max = FIELD_NAMES[i].len();
        }
        i += 1;
    }
    max
};

/// [`FIELD_NAMES`] ids bucketed by name length, built from the list itself:
/// the ids of the length-`l` names are `ids[starts[l]..starts[l + 1]]`, in
/// id order.
const BY_LEN: ([u8; FIELD_NAMES.len()], [u8; MAX_NAME_LEN + 2]) = {
    let mut starts = [0u8; MAX_NAME_LEN + 2];
    let mut i = 0;
    while i < FIELD_NAMES.len() {
        starts[FIELD_NAMES[i].len() + 1] += 1;
        i += 1;
    }
    let mut l = 1;
    while l < starts.len() {
        starts[l] += starts[l - 1];
        l += 1;
    }
    let mut ids = [0u8; FIELD_NAMES.len()];
    let mut next = starts;
    let mut i = 0;
    while i < FIELD_NAMES.len() {
        let l = FIELD_NAMES[i].len();
        ids[next[l] as usize] = i as u8;
        next[l] += 1;
        i += 1;
    }
    (ids, starts)
};

/// The one-byte id of a well-known field name: a scan of the names of the
/// same length, first byte before the rest.
fn field_id(name: &str) -> Option<u8> {
    let (ids, starts) = &BY_LEN;
    let len = name.len();
    let first = *name.as_bytes().first()?;
    if len > MAX_NAME_LEN {
        return None;
    }
    ids[starts[len] as usize..starts[len + 1] as usize]
        .iter()
        .copied()
        .find(|&id| {
            let known = FIELD_NAMES[id as usize];
            known.as_bytes()[0] == first && known == name
        })
}

// Value type tags of the binary payload encoding.
const T_NULL: u8 = 0x00;
const T_FALSE: u8 = 0x01;
const T_TRUE: u8 = 0x02;
const T_F64: u8 = 0x03;
const T_UINT: u8 = 0x04;
const T_NEGINT: u8 = 0x05;
const T_STR: u8 = 0x06;
const T_ARR: u8 = 0x07;
const T_OBJ: u8 = 0x08;

/// Nesting ceiling for the decoder, shared with the JSON parser (see
/// [`serde::MAX_DEPTH`]).
pub use serde::MAX_DEPTH;

/// Largest f64 whose integral values round-trip exactly through u64 (2⁵³).
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The binary encoder: a [`serde::Sink`] appending payload bytes.
struct Encoder<'o>(&'o mut Vec<u8>);

impl Encoder<'_> {
    fn bytes(&mut self, tag: u8, bytes: &[u8]) {
        self.0.push(tag);
        put_varint(bytes.len() as u64, self.0);
        self.0.extend_from_slice(bytes);
    }
}

impl Sink for Encoder<'_> {
    fn null(&mut self) {
        self.0.push(T_NULL);
    }

    fn bool(&mut self, b: bool) {
        self.0.push(if b { T_TRUE } else { T_FALSE });
    }

    fn num(&mut self, n: f64) {
        if n.fract() == 0.0 && n.abs() <= EXACT_INT {
            if n >= 0.0 {
                self.0.push(T_UINT);
                put_varint(n as u64, self.0);
            } else {
                self.0.push(T_NEGINT);
                put_varint(-n as u64, self.0);
            }
        } else {
            self.0.push(T_F64);
            self.0.extend_from_slice(&n.to_bits().to_le_bytes());
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(T_STR, s.as_bytes());
    }

    fn begin_array(&mut self, len: usize) {
        self.0.push(T_ARR);
        put_varint(len as u64, self.0);
    }

    fn begin_object(&mut self, len: usize) {
        self.0.push(T_OBJ);
        put_varint(len as u64, self.0);
    }

    fn key(&mut self, key: &str) {
        match field_id(key) {
            Some(id) => self.0.push(id),
            None => self.bytes(INLINE_KEY, key.as_bytes()),
        }
    }
}

/// Encodes a value tree into the compact binary payload form.
///
/// Object fields holding `Null` are *skipped* (the serde stub derives treat
/// a missing key and an explicit `null` identically for `Option` fields),
/// which keeps sparse requests — most optional fields unset — tiny. `Null`
/// inside arrays is preserved: `Schedule::assignments` is `Vec<Option<..>>`.
pub fn encode_value(v: &Value) -> Vec<u8> {
    to_binary(v)
}

/// A payload being decoded: the hardened reader behind both the tree
/// decoder ([`decode_value`]) and the typed one (its [`serde::Source`]
/// impl), so the two apply one set of checks.
struct Cursor<'b> {
    bytes: &'b [u8],
    pos: usize,
    /// Nesting depth of the next value the typed decoder reads (the tree
    /// decoder passes its depth down instead).
    depth: u32,
    /// A key the typed decoder refuses on the top-level object, so that
    /// payload takes the tree path.
    refuse: Option<&'static str>,
}

impl<'b> Cursor<'b> {
    fn new(bytes: &'b [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
            refuse: None,
        }
    }

    fn err(&self, what: &str) -> serde::Error {
        serde::Error(format!("binary payload: {what} at offset {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, serde::Error> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], serde::Error> {
        if n > self.remaining() {
            return Err(self.err("length runs past end of input"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, serde::Error> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            n |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                // the final (10th) byte may only contribute one bit
                if shift == 63 && byte > 1 {
                    return Err(self.err("varint overflows u64"));
                }
                return Ok(n);
            }
        }
        Err(self.err("varint longer than 10 bytes"))
    }

    /// A varint length followed by that many UTF-8 bytes.
    fn string(&mut self) -> Result<&'b str, serde::Error> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(self.err("string length runs past end of input"));
        }
        let bytes = self.take(len as usize)?;
        std::str::from_utf8(bytes)
            .map_err(|_| serde::Error("binary payload: string is not UTF-8".into()))
    }

    /// An object key: a well-known field id or an inline string.
    fn key_str(&mut self) -> Result<&'b str, serde::Error> {
        match self.byte()? {
            INLINE_KEY => self.string(),
            id => FIELD_NAMES
                .get(id as usize)
                .copied()
                .ok_or_else(|| self.err("unknown well-known field id")),
        }
    }

    /// An array's element count, checked against the remaining input:
    /// every element costs at least one byte.
    fn array_len(&mut self) -> Result<usize, serde::Error> {
        let count = self.varint()?;
        if count > self.remaining() as u64 {
            return Err(self.err("array count exceeds remaining input"));
        }
        Ok(count as usize)
    }

    /// An object's pair count, checked against the remaining input: every
    /// pair costs at least two bytes (key byte + value tag).
    fn object_len(&mut self) -> Result<usize, serde::Error> {
        let count = self.varint()?;
        if count.saturating_mul(2) > self.remaining() as u64 {
            return Err(self.err("object count exceeds remaining input"));
        }
        Ok(count as usize)
    }

    fn check_depth(&self, depth: u32) -> Result<(), serde::Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the decoder limit"));
        }
        Ok(())
    }

    fn value(&mut self, depth: u32) -> Result<Value, serde::Error> {
        self.check_depth(depth)?;
        match self.byte()? {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            tag @ (T_F64 | T_UINT | T_NEGINT) => self.num_body(tag).map(Value::Num),
            T_STR => Ok(Value::Str(self.string()?.to_owned())),
            T_ARR => {
                let count = self.array_len()?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            T_OBJ => {
                let count = self.object_len()?;
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.key_str()?.to_owned();
                    pairs.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Object(pairs))
            }
            _ => Err(self.err("unknown value tag")),
        }
    }

    /// The number after a number tag.
    fn num_body(&mut self, tag: u8) -> Result<f64, serde::Error> {
        match tag {
            T_F64 => {
                let bytes: [u8; 8] = self.take(8)?.try_into().expect("took 8");
                Ok(f64::from_bits(u64::from_le_bytes(bytes)))
            }
            T_UINT => Ok(self.varint()? as f64),
            _ => Ok(-(self.varint()? as f64)),
        }
    }

    /// The tag of the next typed value, at the current depth.
    fn tag(&mut self) -> Result<u8, serde::Error> {
        self.check_depth(self.depth)?;
        self.byte()
    }

    fn expected(&self, what: &str) -> serde::Error {
        self.err(&format!("expected {what}"))
    }

    /// Refuses input left after the top-level value.
    fn finish(&self) -> Result<(), serde::Error> {
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing bytes after value"));
        }
        Ok(())
    }
}

// The typed decoder: each read applies the tree decoder's checks at the
// same depth, so whatever it accepts, `decode_value` accepts too.
impl Source for Cursor<'_> {
    fn take_null(&mut self) -> Result<bool, serde::Error> {
        self.check_depth(self.depth)?;
        let null = self.bytes.get(self.pos) == Some(&T_NULL);
        self.pos += usize::from(null);
        Ok(null)
    }

    fn bool(&mut self) -> Result<bool, serde::Error> {
        match self.tag()? {
            T_FALSE => Ok(false),
            T_TRUE => Ok(true),
            _ => Err(self.expected("bool")),
        }
    }

    fn num(&mut self) -> Result<f64, serde::Error> {
        match self.tag()? {
            tag @ (T_F64 | T_UINT | T_NEGINT) => self.num_body(tag),
            _ => Err(self.expected("number")),
        }
    }

    fn str(&mut self) -> Result<&str, serde::Error> {
        match self.tag()? {
            T_STR => self.string(),
            _ => Err(self.expected("string")),
        }
    }

    fn begin_array(&mut self) -> Result<usize, serde::Error> {
        match self.tag()? {
            T_ARR => {
                let count = self.array_len()?;
                self.depth += 1;
                Ok(count)
            }
            _ => Err(self.expected("array")),
        }
    }

    fn begin_object(&mut self) -> Result<usize, serde::Error> {
        match self.tag()? {
            T_OBJ => {
                let count = self.object_len()?;
                self.depth += 1;
                Ok(count)
            }
            _ => Err(self.expected("object")),
        }
    }

    fn key(&mut self) -> Result<&str, serde::Error> {
        let key = self.key_str()?;
        if self.depth == 1 && self.refuse == Some(key) {
            return Err(self.err(&format!("top-level `{key}` key")));
        }
        Ok(key)
    }

    fn end(&mut self) {
        self.depth -= 1;
    }

    fn value(&mut self) -> Result<Value, serde::Error> {
        self.value(self.depth)
    }
}

/// Decodes a binary payload back into a value tree. Rejects trailing
/// garbage, unknown tags, lying lengths/counts, non-UTF-8 strings, and
/// over-deep nesting with structured errors — never a panic.
pub fn decode_value(bytes: &[u8]) -> Result<Value, serde::Error> {
    let mut cur = Cursor::new(bytes);
    let v = cur.value(0)?;
    cur.finish()?;
    Ok(v)
}

/// Serializes any wire struct as a binary payload, streamed without a
/// value tree: the bytes of `encode_value(&t.to_value())`.
pub fn to_binary<T: Serialize + ?Sized>(t: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    t.stream(&mut Encoder(&mut out));
    out
}

/// The typed decoder alone: reads a binary payload straight into `T`,
/// building no value tree. Whatever it accepts, the tree path
/// (`T::from_value` of [`decode_value`]) accepts as the same `T`; it may
/// refuse what the tree accepts, so callers that need the tree's verdict
/// and error message fall back to it ([`from_binary`]).
pub fn decode_typed<T: Deserialize>(bytes: &[u8]) -> Result<T, serde::Error> {
    decode_refusing(bytes, None)
}

/// [`decode_typed`], also refusing a top-level object that carries the key
/// `refuse`.
fn decode_refusing<T: Deserialize>(
    bytes: &[u8],
    refuse: Option<&'static str>,
) -> Result<T, serde::Error> {
    let mut cur = Cursor {
        refuse,
        ..Cursor::new(bytes)
    };
    let t = T::from_source(&mut cur)?;
    cur.finish()?;
    Ok(t)
}

/// Deserializes a binary payload into a wire struct: typed first, and
/// through the value tree when the typed decoder refuses, so every verdict
/// and error message is the tree's.
pub fn from_binary<T: Deserialize>(bytes: &[u8]) -> Result<T, serde::Error> {
    decode_typed(bytes).or_else(|_| T::from_value(&decode_value(bytes)?))
}

/// The server's typed request decoder: a [`SolveRequest`] straight from a
/// frame payload, refusing any payload with a top-level `control` key (which
/// [`parse_value`] reads as a control request). A refused payload takes the
/// tree path ([`payload_to_value`] → [`parse_value`]), which also words
/// every failure.
///
/// [`parse_value`]: crate::protocol::parse_value
pub fn decode_request(format: WireFormat, payload: &[u8]) -> Result<SolveRequest, serde::Error> {
    let WireFormat::Binary = format;
    decode_refusing(payload, Some(CONTROL_KEY))
}

/// Decodes a frame payload into a value tree per its format tag.
pub fn payload_to_value(format: WireFormat, payload: &[u8]) -> Result<Value, serde::Error> {
    let WireFormat::Binary = format;
    decode_value(payload)
}

/// Encodes a wire struct as a frame payload in the requested format.
/// Binary encoding cannot fail; the `Result` keeps the frame API stable.
pub fn value_to_payload<T: Serialize + ?Sized>(
    format: WireFormat,
    t: &T,
) -> Result<Vec<u8>, serde::Error> {
    let WireFormat::Binary = format;
    Ok(to_binary(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Num(0.0),
            Value::Num(42.0),
            Value::Num(-17.0),
            Value::Num(1.5),
            Value::Num(-2.25e-3),
            Value::Num(9e15),
            Value::Str(String::new()),
            Value::Str("héllo wörld".into()),
        ] {
            assert_eq!(decode_value(&encode_value(&v)).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn known_keys_are_one_byte_and_unknown_keys_fall_back_inline() {
        let known = obj(&[("version", Value::Num(3.0))]);
        let bytes = encode_value(&known);
        // T_OBJ + count + key id + T_UINT + varint(3)
        assert_eq!(bytes.len(), 5, "{bytes:02x?}");
        assert_eq!(decode_value(&bytes).unwrap(), known);

        let unknown = obj(&[("some_future_field", Value::Num(3.0))]);
        let bytes = encode_value(&unknown);
        assert!(bytes.len() > 5 + "some_future_field".len() - 1);
        assert_eq!(decode_value(&bytes).unwrap(), unknown);
    }

    #[test]
    fn null_object_fields_are_skipped_but_array_nulls_survive() {
        let v = obj(&[
            ("target", Value::Null),
            (
                "assignments",
                Value::Array(vec![Value::Null, Value::Num(1.0)]),
            ),
        ]);
        let back = decode_value(&encode_value(&v)).unwrap();
        // the null *field* vanishes (missing key == None for the derives)…
        assert!(back.field("target").is_err());
        // …the null *element* is data and survives
        assert_eq!(
            back.field("assignments").unwrap(),
            &Value::Array(vec![Value::Null, Value::Num(1.0)])
        );
    }

    #[test]
    fn nested_tree_round_trips() {
        let v = obj(&[
            ("version", Value::Num(3.0)),
            ("id", Value::Num(7.0)),
            ("mode", Value::Str("ScheduleAll".into())),
            (
                "instance",
                obj(&[
                    ("num_processors", Value::Num(2.0)),
                    ("horizon", Value::Num(16.0)),
                    (
                        "jobs",
                        Value::Array(vec![obj(&[
                            ("value", Value::Num(1.0)),
                            (
                                "allowed",
                                Value::Array(vec![obj(&[
                                    ("proc", Value::Num(0.0)),
                                    ("time", Value::Num(3.0)),
                                ])]),
                            ),
                        ])]),
                    ),
                ]),
            ),
            ("restart", Value::Num(3.5)),
        ]);
        assert_eq!(decode_value(&encode_value(&v)).unwrap(), v);
    }

    #[test]
    fn hostile_payloads_error_instead_of_panicking() {
        // truncated scalar
        assert!(decode_value(&[T_F64, 1, 2]).is_err());
        // lying string length
        assert!(decode_value(&[T_STR, 0xFF, 0xFF, 0x03]).is_err());
        // lying array count (u64::MAX) must be rejected before reserving
        let mut lie = vec![T_ARR];
        lie.extend_from_slice(&[0xFF; 9]);
        lie.push(0x01);
        assert!(decode_value(&lie).is_err());
        // unknown tag, unknown field id, trailing garbage
        assert!(decode_value(&[0x7E]).is_err());
        assert!(decode_value(&[T_OBJ, 1, 0xFE, T_NULL]).is_err());
        assert!(decode_value(&[T_NULL, T_NULL]).is_err());
        // non-UTF-8 string
        assert!(decode_value(&[T_STR, 2, 0xC0, 0x00]).is_err());
        // over-deep nesting
        let mut deep = vec![];
        for _ in 0..200 {
            deep.extend_from_slice(&[T_ARR, 1]);
        }
        deep.push(T_NULL);
        assert!(decode_value(&deep).is_err());
    }

    #[test]
    fn frames_round_trip() {
        let payload = b"payload bytes".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, WireFormat::Binary, &payload).unwrap();
        let mut reader = wire.as_slice();
        let (got_format, got) = read_frame(&mut reader).unwrap().expect("one frame");
        assert_eq!(got_format, WireFormat::Binary);
        assert_eq!(got, payload);
        // clean EOF after the frame
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn frame_header_errors_are_structured() {
        // clean EOF: no bytes at all
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        // truncated header
        let err = read_frame(&mut [MAGIC[0]].as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { .. }), "{err}");
        // wrong magic
        let err = read_frame(&mut [b'{', b'"', 0, 0, 0, 0, 1].as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)), "{err}");
        // oversized declaration: rejected before allocating
        let mut hostile = Vec::from(MAGIC);
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.push(2);
        let err = read_frame(&mut hostile.as_slice()).unwrap_err();
        assert!(
            matches!(err, FrameError::Oversized { declared: u32::MAX }),
            "{err}"
        );
        // unknown format tags, including the withdrawn JSON tag 1
        for tag in [1u8, 9] {
            let mut unknown = Vec::from(MAGIC);
            unknown.extend_from_slice(&0u32.to_le_bytes());
            unknown.push(tag);
            let err = read_frame(&mut unknown.as_slice()).unwrap_err();
            assert!(
                matches!(err, FrameError::UnknownFormat(t) if t == tag),
                "{err}"
            );
        }
        // truncated payload: header promises 8, stream carries 3
        let mut short = Vec::from(MAGIC);
        short.extend_from_slice(&8u32.to_le_bytes());
        short.push(2);
        short.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut short.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                FrameError::Truncated {
                    declared: 8,
                    got: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn field_ids_come_from_the_name_list() {
        let unique: std::collections::HashSet<_> = FIELD_NAMES.iter().collect();
        assert_eq!(unique.len(), FIELD_NAMES.len(), "field names are unique");
        for (id, name) in FIELD_NAMES.iter().enumerate() {
            assert_eq!(field_id(name), Some(id as u8), "{name}");
        }
        for unknown in [
            "",
            "x",
            "Version",
            "versio",
            "versions",
            "some_future_field",
        ] {
            assert_eq!(field_id(unknown), None, "{unknown:?}");
        }
        let longest = "x".repeat(MAX_NAME_LEN + 1);
        assert_eq!(field_id(&longest), None);
    }

    #[test]
    fn typed_decoding_applies_the_tree_checks() {
        // the value tree's limits hold for values read typed or skipped
        let nested = |levels: usize| {
            let mut v = Value::Null;
            for _ in 0..levels {
                v = Value::Array(vec![v]);
            }
            v
        };
        for levels in [MAX_DEPTH as usize, MAX_DEPTH as usize + 1] {
            let bytes = encode_value(&nested(levels));
            assert_eq!(
                decode_typed::<Value>(&bytes).is_ok(),
                decode_value(&bytes).is_ok(),
                "{levels} levels"
            );
        }
        // a skipped field counts its depth from the top, not from itself
        let deep_field = obj(&[("unknown", nested(MAX_DEPTH as usize))]);
        let bytes = encode_value(&deep_field);
        assert!(decode_value(&bytes).is_err());
        assert!(decode_typed::<HelloCard>(&bytes).is_err());
        // refused keys, trailing bytes and kind mismatches are errors:
        // {"protocol": 3, "control": null}, by field id
        let mut bytes = vec![T_OBJ, 2, 47, T_UINT, 3, 13, T_NULL];
        let card = decode_typed::<HelloCard>(&bytes).unwrap();
        assert_eq!(card.protocol, 3);
        assert!(decode_refusing::<HelloCard>(&bytes, Some("control")).is_err());
        bytes.push(T_NULL);
        assert!(decode_typed::<HelloCard>(&bytes).is_err());
        assert!(decode_typed::<HelloCard>(&[T_STR, 0]).is_err());
    }

    #[test]
    fn hand_written_impls_stream_through_the_tree_defaults() {
        // `SleepChoice` spells only `to_value`/`from_value`; the streaming
        // defaults must write and read exactly what the tree does
        use sched_core::SleepChoice;
        let choices = vec![Some(SleepChoice::Off), None, Some(SleepChoice::State(3))];
        let bytes = to_binary(&choices);
        assert_eq!(bytes, encode_value(&choices.to_value()));
        let back: Vec<Option<SleepChoice>> = decode_typed(&bytes).unwrap();
        assert_eq!(back, choices);
        assert!(!SleepChoice::Off.is_null());
    }

    /// A wire-shaped struct with one required field.
    #[derive(Debug, Serialize, Deserialize)]
    struct HelloCard {
        protocol: u32,
    }

    #[test]
    fn varint_boundaries_round_trip() {
        for n in [0u64, 1, 127, 128, 16_383, 16_384, (1 << 53) - 1] {
            let v = Value::Num(n as f64);
            assert_eq!(decode_value(&encode_value(&v)).unwrap(), v, "{n}");
        }
        // just past the exact-integer range: stored as f64 bits instead
        let big = Value::Num(2.0f64.powi(60));
        assert_eq!(decode_value(&encode_value(&big)).unwrap(), big);
    }
}
