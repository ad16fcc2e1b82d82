//! Structured event tracing: the causal-timeline companion to the metrics
//! registry in the crate root.
//!
//! A [`Tracer`] is a lock-cheap bounded ring buffer of [`TraceEvent`]s —
//! monotonic timestamp, duration, name, kind, `trace_id`, and small
//! key/value args — retained **per thread** (each thread keeps its last
//! `capacity` events; older ones are dropped and counted). Events arrive
//! from two sources:
//!
//! * the existing [`span!`](crate::span) RAII timers, which emit a
//!   `span` event on drop whenever a tracer is ambiently installed
//!   (thread tracer from [`set_thread`], else the process-global one from
//!   [`install_global`] — mirroring the metrics registry exactly), and
//! * explicit [`instant`] decision points (greedy picks, warm-vs-cold
//!   rebuild choices, per-slot simulator decisions, engine accept errors).
//!
//! Every event is stamped with the thread's ambient *trace id*
//! ([`set_trace_id`]): the engine sets it per request from the wire
//! protocol's additive `trace_id` field, the CLI sets it per replayed
//! trace, so one id follows a request end-to-end across threads and
//! processes.
//!
//! # Export formats
//!
//! Two stable formats, both hand-serialized (no allocation on the record
//! path is spent preparing for either):
//!
//! * [`Tracer::to_trace_jsonl`] — one `trace/v1` JSON object per line
//!   (see [`TRACE_SCHEMA`]), greppable and streamable;
//! * [`Tracer::to_chrome_json`] — the Chrome trace-event format (`ph:"X"`
//!   complete events, `ph:"i"` instants), loadable in Perfetto or
//!   `chrome://tracing`. The `trace_id` and all args ride in each event's
//!   `args` object.
//!
//! # Flight recorder
//!
//! [`Tracer::flight_recorder`] is the same machinery with a small
//! per-thread capacity: install it ambiently and the last
//! [`FLIGHT_CAPACITY`] events per thread are always on hand.
//! [`Tracer::dump_to_stderr`] prints them (as `trace/v1` JSONL behind a
//! `# flight-recorder` header line) on request failure, accept-loop error
//! bursts, and graceful shutdown.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag: the `schema` field of every `trace/v1` JSONL line.
pub const TRACE_SCHEMA: &str = "trace/v1";

/// Per-thread event capacity of [`Tracer::flight_recorder`].
pub const FLIGHT_CAPACITY: usize = 256;

/// Per-thread event capacity of [`Tracer::new`] — sized for a full solve
/// narration, not a black box.
pub const DEFAULT_CAPACITY: usize = 65_536;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// A small typed argument value: numbers are stored as numbers so the
/// record path never formats strings.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Free-form string.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::I64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Event kind: a timed `Span` (duration > 0 semantics) or a point-in-time
/// `Instant` decision record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// RAII-timed region (Chrome `ph:"X"`).
    Span,
    /// Point event (Chrome `ph:"i"`).
    Instant,
}

impl EventKind {
    /// The `kind` string used in `trace/v1`.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        }
    }
}

/// One recorded event. Timestamps are nanoseconds since the owning
/// tracer's construction (a monotonic, per-process epoch).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (span histogram name or decision-point name).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time, ns since the tracer's epoch.
    pub ts_ns: u64,
    /// Duration in ns (0 for instants).
    pub dur_ns: u64,
    /// Ambient trace id at record time (empty when none was set).
    pub trace_id: Arc<str>,
    /// Stable per-process thread number (not the OS tid).
    pub tid: u64,
    /// Small key/value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

// ---------------------------------------------------------------------------
// Thread numbering
// ---------------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stable trace thread number (1-based, assigned on first
/// use, never reused within a process).
pub fn thread_number() -> u64 {
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ThreadBuf {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Bounded per-thread ring buffers behind one short mutex: recording an
/// event is a lock, a `VecDeque` push, and (at capacity) a pop — no
/// serialization, no string formatting.
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    threads: Mutex<HashMap<u64, ThreadBuf>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer with [`DEFAULT_CAPACITY`] events retained per thread.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer retaining the last `capacity` events per thread.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            threads: Mutex::new(HashMap::new()),
        }
    }

    /// Flight-recorder mode: a small always-on ring
    /// ([`FLIGHT_CAPACITY`] events per thread) meant to be dumped on
    /// failure, not exported wholesale.
    pub fn flight_recorder() -> Self {
        Self::with_capacity(FLIGHT_CAPACITY)
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 if `t` predates it).
    pub fn ts_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }

    fn push(&self, ev: TraceEvent) {
        let mut threads = self.threads.lock().unwrap();
        let buf = threads.entry(ev.tid).or_default();
        if buf.events.len() >= self.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(ev);
    }

    /// Records a span event for the calling thread.
    pub fn record_span(
        &self,
        name: &'static str,
        start: Instant,
        dur_ns: u64,
        trace_id: Arc<str>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(TraceEvent {
            name,
            kind: EventKind::Span,
            ts_ns: self.ts_of(start),
            dur_ns,
            trace_id,
            tid: thread_number(),
            args,
        });
    }

    /// Records an instant event for the calling thread, stamped `now`.
    /// `trace_id` of `None` uses the empty id — callers with an ambient id
    /// should prefer the module-level [`instant`].
    pub fn record_instant(
        &self,
        name: &'static str,
        trace_id: Option<&str>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.push(TraceEvent {
            name,
            kind: EventKind::Instant,
            ts_ns: self.ts_of(Instant::now()),
            dur_ns: 0,
            trace_id: trace_id.map(Arc::from).unwrap_or_else(empty_id),
            tid: thread_number(),
            args,
        });
    }

    /// All retained events, merged across threads and ordered by start
    /// time (ties: longer spans first so parents precede their children,
    /// then thread number).
    pub fn events(&self) -> Vec<TraceEvent> {
        let threads = self.threads.lock().unwrap();
        let mut out: Vec<TraceEvent> = threads
            .values()
            .flat_map(|b| b.events.iter().cloned())
            .collect();
        out.sort_by(|a, b| {
            a.ts_ns
                .cmp(&b.ts_ns)
                .then(b.dur_ns.cmp(&a.dur_ns))
                .then(a.tid.cmp(&b.tid))
        });
        out
    }

    /// Total events evicted by the per-thread rings so far.
    pub fn dropped(&self) -> u64 {
        self.threads
            .lock()
            .unwrap()
            .values()
            .map(|b| b.dropped)
            .sum()
    }

    /// Retained event count across all threads.
    pub fn len(&self) -> usize {
        self.threads
            .lock()
            .unwrap()
            .values()
            .map(|b| b.events.len())
            .sum()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained events (the drop counters survive).
    pub fn clear(&self) {
        for buf in self.threads.lock().unwrap().values_mut() {
            buf.events.clear();
        }
    }

    /// `trace/v1` JSONL: one self-describing JSON object per event, in
    /// [`Tracer::events`] order.
    pub fn to_trace_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            write_trace_v1_line(&mut out, &ev);
            out.push('\n');
        }
        out
    }

    /// Chrome trace-event JSON (one object, `traceEvents` array) loadable
    /// in Perfetto / `chrome://tracing`. Spans map to `ph:"X"` complete
    /// events, instants to thread-scoped `ph:"i"`; timestamps are
    /// microseconds with nanosecond decimals; `trace_id` and the event
    /// args land in each event's `args` object.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            escape_json(ev.name, &mut out);
            out.push_str("\",\"cat\":\"sched\",\"pid\":1,\"tid\":");
            out.push_str(&ev.tid.to_string());
            match ev.kind {
                EventKind::Span => {
                    out.push_str(&format!(
                        ",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                        micros(ev.ts_ns),
                        micros(ev.dur_ns)
                    ));
                }
                EventKind::Instant => {
                    out.push_str(&format!(
                        ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}",
                        micros(ev.ts_ns)
                    ));
                }
            }
            out.push_str(",\"args\":{\"trace_id\":\"");
            escape_json(&ev.trace_id, &mut out);
            out.push('"');
            for (k, v) in &ev.args {
                out.push_str(",\"");
                escape_json(k, &mut out);
                out.push_str("\":");
                write_arg_value(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Flight-recorder dump: a `# flight-recorder` header naming the
    /// trigger, then the retained events as `trace/v1` JSONL, on stderr.
    pub fn dump_to_stderr(&self, reason: &str) {
        eprintln!(
            "# flight-recorder dump ({reason}): {} events, {} dropped",
            self.len(),
            self.dropped()
        );
        eprint!("{}", self.to_trace_jsonl());
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

fn empty_id() -> Arc<str> {
    static EMPTY: Mutex<Option<Arc<str>>> = Mutex::new(None);
    EMPTY
        .lock()
        .unwrap()
        .get_or_insert_with(|| Arc::from(""))
        .clone()
}

/// Chrome `ts`/`dur` microseconds with full nanosecond precision.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn write_trace_v1_line(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"schema\":\"");
    out.push_str(TRACE_SCHEMA);
    out.push_str("\",\"name\":\"");
    escape_json(ev.name, out);
    out.push_str("\",\"kind\":\"");
    out.push_str(ev.kind.as_str());
    out.push_str(&format!(
        "\",\"ts_ns\":{},\"dur_ns\":{},\"trace_id\":\"",
        ev.ts_ns, ev.dur_ns
    ));
    escape_json(&ev.trace_id, out);
    out.push_str(&format!("\",\"tid\":{},\"args\":{{", ev.tid));
    for (i, (k, v)) in ev.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(k, out);
        out.push_str("\":");
        write_arg_value(out, v);
    }
    out.push_str("}}");
}

fn write_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => out.push_str(&n.to_string()),
        ArgValue::I64(n) => out.push_str(&n.to_string()),
        ArgValue::F64(x) if x.is_finite() => {
            // `{}` prints integral floats without a fraction — still a
            // valid JSON number, and round-trippable.
            out.push_str(&format!("{x}"));
        }
        ArgValue::F64(_) => out.push_str("null"),
        ArgValue::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// Ambient tracer + trace-id context
// ---------------------------------------------------------------------------

mod ambient {
    use super::*;
    use std::cell::RefCell;
    use std::sync::OnceLock;

    static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();

    thread_local! {
        static THREAD: RefCell<Option<Arc<Tracer>>> = const { RefCell::new(None) };
        static TRACE_ID: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    }

    /// Installs the process-global fallback tracer. Returns `false` (and
    /// leaves the existing one in place) if one was already installed.
    pub fn install_global(t: Arc<Tracer>) -> bool {
        GLOBAL.set(t).is_ok()
    }

    /// The process-global tracer, if installed.
    pub fn global() -> Option<Arc<Tracer>> {
        GLOBAL.get().cloned()
    }

    /// Sets (or with `None`, clears) this thread's tracer, shadowing the
    /// global one — engine workers point this at the shared flight
    /// recorder.
    pub fn set_thread(t: Option<Arc<Tracer>>) {
        THREAD.with(|c| *c.borrow_mut() = t);
    }

    /// The active tracer: thread, else global.
    pub fn active_tracer() -> Option<Arc<Tracer>> {
        THREAD.with(|c| c.borrow().clone()).or_else(global)
    }

    /// True when any tracer would receive ambient events. Use this to
    /// gate argument construction for [`instant`] calls in hot loops.
    pub fn enabled() -> bool {
        THREAD.with(|c| c.borrow().is_some()) || GLOBAL.get().is_some()
    }

    /// Sets (or clears) this thread's ambient trace id; every event
    /// recorded on this thread is stamped with it until changed.
    pub fn set_trace_id(id: Option<&str>) {
        TRACE_ID.with(|c| *c.borrow_mut() = id.map(Arc::from));
    }

    /// This thread's ambient trace id, if set.
    pub fn current_trace_id() -> Option<Arc<str>> {
        TRACE_ID.with(|c| c.borrow().clone())
    }

    /// Records an instant event (with the ambient trace id) into the
    /// active tracer; a cheap no-op when none is installed.
    pub fn instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        if let Some(t) = active_tracer() {
            t.push(TraceEvent {
                name,
                kind: EventKind::Instant,
                ts_ns: t.ts_of(Instant::now()),
                dur_ns: 0,
                trace_id: current_trace_id().unwrap_or_else(empty_id),
                tid: thread_number(),
                args,
            });
        }
    }

    /// The span hook: called by `Span::drop` with the span's start and
    /// elapsed time. No-op when no tracer is ambiently installed.
    pub(crate) fn emit_span(name: &'static str, start: Instant, dur_ns: u64) {
        if let Some(t) = active_tracer() {
            t.record_span(
                name,
                start,
                dur_ns,
                current_trace_id().unwrap_or_else(empty_id),
                Vec::new(),
            );
        }
    }
}

pub(crate) use ambient::emit_span;
pub use ambient::{
    active_tracer, current_trace_id, enabled, global, install_global, instant, set_thread,
    set_trace_id,
};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn uninstall() {
        set_thread(None);
        set_trace_id(None);
    }

    #[test]
    fn ring_buffer_retains_last_n_per_thread() {
        let t = Tracer::with_capacity(3);
        for i in 0..5u64 {
            t.record_instant("tick", Some("rb"), vec![("i", i.into())]);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(t.dropped(), 2);
        // the retained ones are the LAST three
        let kept: Vec<u64> = evs
            .iter()
            .map(|e| match e.args[0].1 {
                ArgValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn ambient_thread_tracer_records_spans_and_instants() {
        let t = Arc::new(Tracer::new());
        set_thread(Some(t.clone()));
        set_trace_id(Some("unit-1"));
        {
            let _outer = crate::span!("outer_ns");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("inner_ns");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            instant(
                "decision",
                vec![("pick", 7u64.into()), ("gain", 1.5.into())],
            );
        }
        uninstall();

        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| &*e.trace_id == "unit-1"));
        let outer = evs.iter().find(|e| e.name == "outer_ns").unwrap();
        let inner = evs.iter().find(|e| e.name == "inner_ns").unwrap();
        let pick = evs.iter().find(|e| e.name == "decision").unwrap();
        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!(pick.kind, EventKind::Instant);
        // nesting: the inner span's interval lies within the outer's
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        // the instant happened inside the outer span too
        assert!(pick.ts_ns >= outer.ts_ns && pick.ts_ns <= outer.ts_ns + outer.dur_ns);
    }

    #[test]
    fn spans_stay_disarmed_without_tracer_or_registry() {
        if crate::global().is_some() || global().is_some() {
            return; // another test installed a process-global sink
        }
        uninstall();
        crate::set_thread(None);
        let s = crate::span("idle_ns");
        assert!(format!("{s:?}").contains("None"));
    }

    #[test]
    fn jsonl_export_is_valid_and_self_describing() {
        let t = Tracer::new();
        t.record_instant(
            "quote\"test",
            Some("id-1"),
            vec![("msg", "a\"b\\c".into()), ("x", ArgValue::F64(f64::NAN))],
        );
        let jsonl = t.to_trace_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with("{\"schema\":\"trace/v1\""));
        assert!(line.contains("\"kind\":\"instant\""));
        assert!(line.contains("\"trace_id\":\"id-1\""));
        assert!(line.contains("quote\\\"test"));
        assert!(line.contains("a\\\"b\\\\c"));
        assert!(
            line.contains("\"x\":null"),
            "NaN serializes as null: {line}"
        );
    }

    #[test]
    fn chrome_export_shapes_spans_and_instants() {
        let t = Tracer::new();
        t.record_span(
            "solve_ns",
            Instant::now(),
            1500,
            Arc::from("c-1"),
            Vec::new(),
        );
        t.record_instant("pick", Some("c-1"), vec![("cand", 3u64.into())]);
        let chrome = t.to_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"dur\":1.500"));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"trace_id\":\"c-1\""));
        assert!(chrome.ends_with("],\"displayTimeUnit\":\"ns\"}"));
    }

    #[test]
    fn trace_id_scopes_to_the_thread() {
        let t = Arc::new(Tracer::new());
        set_thread(Some(t.clone()));
        set_trace_id(Some("main-id"));
        let t2 = t.clone();
        std::thread::spawn(move || {
            set_thread(Some(t2));
            // no trace id set on this thread => empty stamp
            instant("other", Vec::new());
            uninstall();
        })
        .join()
        .unwrap();
        instant("mine", Vec::new());
        uninstall();
        let evs = t.events();
        let other = evs.iter().find(|e| e.name == "other").unwrap();
        let mine = evs.iter().find(|e| e.name == "mine").unwrap();
        assert_eq!(&*other.trace_id, "");
        assert_eq!(&*mine.trace_id, "main-id");
        assert_ne!(other.tid, mine.tid);
    }
}
