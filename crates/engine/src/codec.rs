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

use serde::{Deserialize, Serialize, Value};
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

fn field_id(name: &str) -> Option<u8> {
    FIELD_NAMES.iter().position(|f| *f == name).map(|i| i as u8)
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

/// Nesting ceiling for the decoder (instances are ~4 deep; 64 leaves
/// generous headroom while keeping hostile recursion bounded).
const MAX_DEPTH: u32 = 64;

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

/// Encodes a value tree into the compact binary payload form.
///
/// Object fields holding `Null` are *skipped* (the serde stub derives treat
/// a missing key and an explicit `null` identically for `Option` fields),
/// which keeps sparse requests — most optional fields unset — tiny. `Null`
/// inside arrays is preserved: `Schedule::assignments` is `Vec<Option<..>>`.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(v, &mut out);
    out
}

fn encode_into(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(T_NULL),
        Value::Bool(false) => out.push(T_FALSE),
        Value::Bool(true) => out.push(T_TRUE),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= EXACT_INT {
                if *n >= 0.0 {
                    out.push(T_UINT);
                    put_varint(*n as u64, out);
                } else {
                    out.push(T_NEGINT);
                    put_varint(-*n as u64, out);
                }
            } else {
                out.push(T_F64);
                out.extend_from_slice(&n.to_bits().to_le_bytes());
            }
        }
        Value::Str(s) => {
            out.push(T_STR);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(T_ARR);
            put_varint(items.len() as u64, out);
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Object(pairs) => {
            out.push(T_OBJ);
            let live = pairs.iter().filter(|(_, v)| *v != Value::Null);
            put_varint(live.clone().count() as u64, out);
            for (key, val) in live {
                match field_id(key) {
                    Some(id) => out.push(id),
                    None => {
                        out.push(INLINE_KEY);
                        put_varint(key.len() as u64, out);
                        out.extend_from_slice(key.as_bytes());
                    }
                }
                encode_into(val, out);
            }
        }
    }
}

struct Cursor<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Cursor<'b> {
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

    fn string(&mut self) -> Result<String, serde::Error> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(self.err("string length runs past end of input"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| serde::Error("binary payload: string is not UTF-8".into()))
    }

    fn value(&mut self, depth: u32) -> Result<Value, serde::Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the decoder limit"));
        }
        match self.byte()? {
            T_NULL => Ok(Value::Null),
            T_FALSE => Ok(Value::Bool(false)),
            T_TRUE => Ok(Value::Bool(true)),
            T_F64 => {
                let bytes: [u8; 8] = self.take(8)?.try_into().expect("took 8");
                Ok(Value::Num(f64::from_bits(u64::from_le_bytes(bytes))))
            }
            T_UINT => Ok(Value::Num(self.varint()? as f64)),
            T_NEGINT => Ok(Value::Num(-(self.varint()? as f64))),
            T_STR => Ok(Value::Str(self.string()?)),
            T_ARR => {
                let count = self.varint()?;
                // every element costs >= 1 byte, so a count beyond the
                // remaining input is a lie — reject before reserving
                if count > self.remaining() as u64 {
                    return Err(self.err("array count exceeds remaining input"));
                }
                let mut items = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            T_OBJ => {
                let count = self.varint()?;
                // every pair costs >= 2 bytes (key byte + value tag)
                if count.saturating_mul(2) > self.remaining() as u64 {
                    return Err(self.err("object count exceeds remaining input"));
                }
                let mut pairs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let key = match self.byte()? {
                        INLINE_KEY => self.string()?,
                        id => FIELD_NAMES
                            .get(id as usize)
                            .map(|s| (*s).to_string())
                            .ok_or_else(|| self.err("unknown well-known field id"))?,
                    };
                    pairs.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Object(pairs))
            }
            _ => Err(self.err("unknown value tag")),
        }
    }
}

/// Decodes a binary payload back into a value tree. Rejects trailing
/// garbage, unknown tags, lying lengths/counts, non-UTF-8 strings, and
/// over-deep nesting with structured errors — never a panic.
pub fn decode_value(bytes: &[u8]) -> Result<Value, serde::Error> {
    let mut cur = Cursor { bytes, pos: 0 };
    let v = cur.value(0)?;
    if cur.pos != bytes.len() {
        return Err(cur.err("trailing bytes after value"));
    }
    Ok(v)
}

/// Serializes any wire struct as a binary payload.
pub fn to_binary<T: Serialize + ?Sized>(t: &T) -> Vec<u8> {
    encode_value(&t.to_value())
}

/// Deserializes a binary payload into a wire struct.
pub fn from_binary<T: Deserialize>(bytes: &[u8]) -> Result<T, serde::Error> {
    T::from_value(&decode_value(bytes)?)
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
