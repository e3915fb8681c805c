//! Chrome trace-event JSON: a builder for writing timelines Perfetto and
//! `chrome://tracing` load directly, and a validator CI uses to prove an
//! exported trace is well-formed.
//!
//! The format is the "JSON Object Format" of the Trace Event specification:
//! a top-level object with a `traceEvents` array whose entries carry `name`,
//! `ph` (phase), `ts` (timestamp, microseconds), `pid`/`tid`, an optional
//! `dur` for complete (`"X"`) events and an optional `args` object. The
//! simulator maps simulated cycles onto `ts` one-to-one — absolute units
//! don't matter to the viewers, ordering and duration do.

use std::fmt;

/// An argument value attached to a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgVal {
    /// An integer argument (counter tracks require numeric args).
    U64(u64),
    /// A string argument.
    Str(String),
}

/// One trace event under construction.
#[derive(Clone, Debug)]
struct Event {
    name: String,
    ph: char,
    ts: u64,
    dur: Option<u64>,
    pid: u32,
    tid: u32,
    args: Vec<(String, ArgVal)>,
    scope: Option<char>,
}

/// Builds a trace-event JSON document.
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Number of events queued so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// An instant event (`ph: "i"`, thread scope) at `ts`.
    pub fn instant(
        &mut self,
        name: &str,
        ts: u64,
        pid: u32,
        tid: u32,
        args: Vec<(String, ArgVal)>,
    ) {
        self.events.push(Event {
            name: name.to_string(),
            ph: 'i',
            ts,
            dur: None,
            pid,
            tid,
            args,
            scope: Some('t'),
        });
    }

    /// A complete event (`ph: "X"`) spanning `[ts, ts + dur]`.
    pub fn complete(
        &mut self,
        name: &str,
        ts: u64,
        dur: u64,
        pid: u32,
        tid: u32,
        args: Vec<(String, ArgVal)>,
    ) {
        self.events.push(Event {
            name: name.to_string(),
            ph: 'X',
            ts,
            dur: Some(dur),
            pid,
            tid,
            args,
            scope: None,
        });
    }

    /// A counter sample (`ph: "C"`): every arg becomes one series on the
    /// counter track `name`.
    pub fn counter(&mut self, name: &str, ts: u64, pid: u32, args: Vec<(String, ArgVal)>) {
        self.events.push(Event {
            name: name.to_string(),
            ph: 'C',
            ts,
            dur: None,
            pid,
            tid: 0,
            args,
            scope: None,
        });
    }

    /// A metadata event naming a thread track (`ph: "M"`).
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(Event {
            name: "thread_name".to_string(),
            ph: 'M',
            ts: 0,
            dur: None,
            pid,
            tid,
            args: vec![("name".to_string(), ArgVal::Str(name.to_string()))],
            scope: None,
        });
    }

    /// A metadata event naming a process track (`ph: "M"`).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(Event {
            name: "process_name".to_string(),
            ph: 'M',
            ts: 0,
            dur: None,
            pid,
            tid: 0,
            args: vec![("name".to_string(), ArgVal::Str(name.to_string()))],
            scope: None,
        });
    }

    /// Render the JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, &ev.name);
            out.push_str(",\"ph\":\"");
            out.push(ev.ph);
            out.push('"');
            if let Some(s) = ev.scope {
                out.push_str(",\"s\":\"");
                out.push(s);
                out.push('"');
            }
            out.push_str(&format!(",\"ts\":{}", ev.ts));
            if let Some(d) = ev.dur {
                out.push_str(&format!(",\"dur\":{d}"));
            }
            out.push_str(&format!(",\"pid\":{},\"tid\":{}", ev.pid, ev.tid));
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, k);
                    out.push(':');
                    match v {
                        ArgVal::U64(n) => out.push_str(&n.to_string()),
                        ArgVal::Str(s) => push_json_str(&mut out, s),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----- validation ---------------------------------------------------------

/// Why a document failed validation.
#[derive(Debug, PartialEq)]
pub enum TraceError {
    /// Not well-formed JSON. The payload names the byte offset and problem.
    Json {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        detail: String,
    },
    /// Well-formed JSON that violates the trace-event schema.
    Schema {
        /// What went wrong (names the offending event index).
        detail: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json { at, detail } => write!(f, "bad JSON at byte {at}: {detail}"),
            TraceError::Schema { detail } => write!(f, "trace-event schema violation: {detail}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// What a validated trace contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// All events.
    pub events: usize,
    /// Complete (`"X"`) span events.
    pub complete: usize,
    /// Instant (`"i"`/`"I"`) events.
    pub instants: usize,
    /// Counter (`"C"`) samples.
    pub counters: usize,
    /// Metadata (`"M"`) events.
    pub metadata: usize,
}

/// A parsed JSON value (just enough structure for schema checks; the
/// literal payloads are never consulted, only their shape).
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    /// The document, already UTF-8 by type; `bytes` is the same data.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, detail: impl Into<String>) -> Result<T, TraceError> {
        Err(TraceError::Json {
            at: self.pos,
            detail: detail.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected {:?}, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, TraceError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => self.err(format!("unexpected byte {:?}", b as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, TraceError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            self.err(format!("bad literal (expected {word})"))
        }
    }

    fn number(&mut self) -> Result<Json, TraceError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err(format!("bad number {text:?}")),
        }
    }

    fn string(&mut self) -> Result<String, TraceError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                // Surrogate halves and bad hex both land
                                // here; a validator only needs to reject
                                // cleanly, not transcode UTF-16.
                                None => return self.err("bad \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // ASCII bytes or whole scalars, so it is a char boundary.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, TraceError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']' in array"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, TraceError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}' in object"),
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, TraceError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    Ok(v)
}

/// Validate a trace-event JSON document: well-formed JSON, a `traceEvents`
/// array at the top, and every event carrying the fields its phase requires.
pub fn validate_trace(text: &str) -> Result<TraceStats, TraceError> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| TraceError::Schema {
            detail: "top-level object has no \"traceEvents\" key".to_string(),
        })
        .and_then(|v| match v {
            Json::Arr(items) => Ok(items),
            _ => Err(TraceError::Schema {
                detail: "\"traceEvents\" is not an array".to_string(),
            }),
        })?;
    let mut stats = TraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let fail = |detail: String| TraceError::Schema {
            detail: format!("event {i}: {detail}"),
        };
        if !matches!(ev, Json::Obj(_)) {
            return Err(fail("not an object".to_string()));
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string \"name\"".to_string()))?;
        if name.is_empty() {
            return Err(fail("empty \"name\"".to_string()));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string \"ph\"".to_string()))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| fail("missing numeric \"ts\"".to_string()))?;
        if ts < 0.0 {
            return Err(fail(format!("negative ts {ts}")));
        }
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| fail(format!("missing numeric {key:?}")))?;
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| fail("complete event missing numeric \"dur\"".to_string()))?;
                if dur < 0.0 {
                    return Err(fail(format!("negative dur {dur}")));
                }
                stats.complete += 1;
            }
            "i" | "I" => stats.instants += 1,
            "C" => {
                let ok = matches!(ev.get("args"), Some(Json::Obj(fields))
                    if !fields.is_empty()
                        && fields.iter().all(|(_, v)| matches!(v, Json::Num(_))));
                if !ok {
                    return Err(fail(
                        "counter event needs a non-empty numeric \"args\" object".to_string(),
                    ));
                }
                stats.counters += 1;
            }
            "M" => stats.metadata += 1,
            "B" | "E" | "b" | "e" | "n" | "s" | "t" | "f" => {}
            other => return Err(fail(format!("unknown phase {other:?}"))),
        }
        stats.events += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arg(k: &str, v: u64) -> (String, ArgVal) {
        (k.to_string(), ArgVal::U64(v))
    }

    #[test]
    fn builder_output_validates() {
        let mut b = TraceBuilder::new();
        b.process_name(0, "socket 0");
        b.thread_name(0, 1, "core 1");
        b.instant("GetS", 100, 0, 1, vec![arg("block", 42)]);
        b.complete("ward-region", 50, 200, 0, 0, vec![arg("id", 7)]);
        b.counter("epoch", 0, 0, vec![arg("accesses", 10), arg("recon", 2)]);
        let json = b.to_json();
        let stats = validate_trace(&json).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.complete, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.metadata, 2);
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut b = TraceBuilder::new();
        b.instant(
            "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{203d}",
            1,
            0,
            0,
            vec![("k\"ey".to_string(), ArgVal::Str("v\\al".to_string()))],
        );
        let json = b.to_json();
        validate_trace(&json).unwrap();
    }

    /// Validation is linear in the document: a multi-megabyte trace made
    /// almost entirely of (partly non-ASCII) strings validates quickly.
    #[test]
    fn multi_megabyte_string_heavy_trace_validates() {
        let mut b = TraceBuilder::new();
        let name = "région‽-".repeat(128);
        for i in 0..2_000u64 {
            b.instant(&name, i, 0, 0, vec![]);
        }
        let json = b.to_json();
        assert!(json.len() > 2_000_000, "{} bytes", json.len());
        assert_eq!(validate_trace(&json).unwrap().instants, 2_000);
    }

    #[test]
    fn malformed_json_is_rejected_with_offset() {
        for bad in [
            "",
            "{",
            "{\"traceEvents\":[}",
            "{\"traceEvents\":[]} trailing",
            "{\"traceEvents\":[{\"name\":\"x\" \"ph\":\"i\"}]}",
            "{\"traceEvents\":[1e999]}",
        ] {
            match validate_trace(bad) {
                Err(TraceError::Json { .. }) => {}
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn schema_violations_are_rejected() {
        let cases = [
            ("{}", "no traceEvents"),
            ("{\"traceEvents\":{}}", "not an array"),
            (
                "{\"traceEvents\":[{\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0}]}",
                "no name",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"pid\":0,\"tid\":0}]}",
                "no ts",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":0,\"tid\":0}]}",
                "X without dur",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"?\",\"ts\":0,\"pid\":0,\"tid\":0}]}",
                "unknown phase",
            ),
            (
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"C\",\"ts\":0,\"pid\":0,\"tid\":0,\
                 \"args\":{\"v\":\"nan\"}}]}",
                "non-numeric counter",
            ),
        ];
        for (bad, why) in cases {
            match validate_trace(bad) {
                Err(TraceError::Schema { .. }) => {}
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let b = TraceBuilder::new();
        assert!(b.is_empty());
        assert_eq!(validate_trace(&b.to_json()).unwrap().events, 0);
    }
}
