//! Exporters and schema validation for recorded event streams.
//!
//! Two formats, both keyed by **sim-time**:
//!
//! * **JSONL** ([`to_jsonl`]) — one flat JSON object per line with
//!   `t_ns`, `seq`, `component`, `event` plus the event's own fields.
//!   Machine-checkable against the event schema via [`validate_jsonl`]
//!   (used by CI on the `trace_job` example's output).
//! * **Chrome trace-event** ([`to_chrome_trace`]) — loadable in
//!   Perfetto / `chrome://tracing`. Components become named threads,
//!   events become instants, and flows become async `b`/`e` pairs so a
//!   shuffle flow renders as a bar from start to finish.
//!
//! No serde is available in this build environment, so serialization is
//! hand-rolled and the validator carries its own minimal JSON parser.

use std::fmt::Write as _;

use crate::event::{Component, TimedEvent, TraceEvent, COMPONENTS};

/// One flat field value in an exported event.
enum Field {
    U(u64),
    F(f64),
    B(bool),
    S(&'static str),
    OptU(Option<u64>),
    Links(Vec<u64>),
}

fn push_json_value(out: &mut String, v: &Field) {
    match v {
        Field::U(n) => {
            let _ = write!(out, "{n}");
        }
        Field::F(x) => {
            // Infinities/NaN are not JSON numbers: write them as strings
            // ("inf", "-inf", "NaN") so they stay distinct from any finite
            // value (an empty path's residual is infinite).
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                let _ = write!(out, "\"{x}\"");
            }
        }
        Field::B(b) => out.push_str(if *b { "true" } else { "false" }),
        Field::S(s) => {
            out.push('"');
            out.push_str(s); // static labels: no escapable chars by construction
            out.push('"');
        }
        Field::OptU(o) => match o {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        },
        Field::Links(ls) => {
            out.push('[');
            for (i, l) in ls.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{l}");
            }
            out.push(']');
        }
    }
}

/// The flat field list for one event, in stable export order.
fn event_fields(ev: &TraceEvent) -> Vec<(&'static str, Field)> {
    use Field::*;
    match ev {
        TraceEvent::MapFinish { job, map } => {
            vec![("job", U(job.0.into())), ("map", U(map.0.into()))]
        }
        TraceEvent::SpillDecode {
            job,
            map,
            server,
            predicted_bytes,
        } => vec![
            ("job", U(job.0.into())),
            ("map", U(map.0.into())),
            ("server", U(server.0.into())),
            ("predicted_bytes", U(*predicted_bytes)),
        ],
        TraceEvent::PredictionEmit {
            job,
            map,
            server,
            deliver_at,
        } => vec![
            ("job", U(job.0.into())),
            ("map", U(map.0.into())),
            ("server", U(server.0.into())),
            ("deliver_at_ns", U(deliver_at.as_nanos())),
        ],
        TraceEvent::PredictionWire { copies, lost } => vec![
            ("copies", U(u64::from(*copies))),
            ("lost", U(u64::from(*lost))),
        ],
        TraceEvent::PredictionDrop { reason } => vec![("reason", S(reason))],
        TraceEvent::PredictionDedup { job, map } => {
            vec![("job", U(job.0.into())), ("map", U(map.0.into()))]
        }
        TraceEvent::PredictionRetract {
            job,
            map,
            withdrawn,
        } => vec![
            ("job", U(job.0.into())),
            ("map", U(map.0.into())),
            ("withdrawn", U(u64::from(*withdrawn))),
        ],
        TraceEvent::CollectorAggregate {
            src,
            dst,
            added_bytes,
        } => vec![
            ("src", U(src.0.into())),
            ("dst", U(dst.0.into())),
            ("added_bytes", U(*added_bytes)),
        ],
        TraceEvent::CollectorPark { job, map, entries } => vec![
            ("job", U(job.0.into())),
            ("map", U(map.0.into())),
            ("entries", U(u64::from(*entries))),
        ],
        TraceEvent::CollectorUnpark {
            job,
            reducer,
            entries,
        } => vec![
            ("job", U(job.0.into())),
            ("reducer", U(reducer.0.into())),
            ("entries", U(u64::from(*entries))),
        ],
        TraceEvent::AllocPlace {
            src,
            dst,
            bytes,
            outcome,
            links,
            resid_bps,
        } => vec![
            ("src", U(src.0.into())),
            ("dst", U(dst.0.into())),
            ("bytes", U(*bytes)),
            ("outcome", S(outcome.name())),
            (
                "links",
                Links(links.iter().map(|l| u64::from(l.0)).collect()),
            ),
            ("resid_bps", F(*resid_bps)),
        ],
        TraceEvent::RuleIssue {
            switch,
            src,
            dst,
            delay,
        } => vec![
            ("switch", U(switch.0.into())),
            ("src", OptU(src.map(|n| u64::from(n.0)))),
            ("dst", OptU(dst.map(|n| u64::from(n.0)))),
            ("delay_ns", U(delay.as_nanos())),
        ],
        TraceEvent::RuleFail { switch } => vec![("switch", U(switch.0.into()))],
        TraceEvent::RuleTimeout { switch } => vec![("switch", U(switch.0.into()))],
        TraceEvent::RuleActive {
            switch,
            src,
            dst,
            out_link,
        } => vec![
            ("switch", U(switch.0.into())),
            ("src", OptU(src.map(|n| u64::from(n.0)))),
            ("dst", OptU(dst.map(|n| u64::from(n.0)))),
            ("out_link", U(out_link.0.into())),
        ],
        TraceEvent::RuleTcamReject { switch } => vec![("switch", U(switch.0.into()))],
        TraceEvent::FlowStart {
            flow,
            src,
            dst,
            bytes,
        } => vec![
            ("flow", U(flow.0)),
            ("src", U(src.0.into())),
            ("dst", U(dst.0.into())),
            ("bytes", U(*bytes)),
        ],
        TraceEvent::FlowFinish { flow, src, dst } => vec![
            ("flow", U(flow.0)),
            ("src", U(src.0.into())),
            ("dst", U(dst.0.into())),
        ],
        TraceEvent::FlowUnroutable { src, dst } => {
            vec![("src", U(src.0.into())), ("dst", U(dst.0.into()))]
        }
        TraceEvent::LinkState { link, up } => {
            vec![("link", U(link.0.into())), ("up", B(*up))]
        }
        TraceEvent::ControllerState { up } => vec![("up", B(*up))],
        TraceEvent::ControllerResync { rules } => vec![("rules", U(u64::from(*rules)))],
        TraceEvent::Span { name, wall_ns } => {
            vec![("name", S(name)), ("wall_ns", U(*wall_ns))]
        }
    }
}

/// Serialize events to JSONL: one flat JSON object per line, oldest
/// first, with `t_ns`, `seq`, `component`, `event` plus event fields.
pub fn to_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for te in events {
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"seq\":{},\"component\":\"{}\",\"event\":\"{}\"",
            te.t.as_nanos(),
            te.seq,
            te.event.component().name(),
            te.event.name()
        );
        for (k, v) in event_fields(&te.event) {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            push_json_value(&mut out, &v);
        }
        out.push_str("}\n");
    }
    out
}

/// Serialize events to the Chrome trace-event JSON format, loadable in
/// Perfetto or `chrome://tracing`. Timestamps are sim-time microseconds;
/// each [`Component`] renders as its own named thread and shuffle flows
/// render as async bars between `flow_start` and `flow_finish`.
pub fn to_chrome_trace(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"pythia-sim\"}}",
    );
    for (tid, c) in COMPONENTS.iter().enumerate() {
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            c.name()
        );
    }
    for te in events {
        let ts_us = te.t.as_nanos() as f64 / 1_000.0;
        let tid = te.event.component() as usize;
        // Async begin/end pair so a flow renders as a bar.
        let (ph, id_attr) = match &te.event {
            TraceEvent::FlowStart { flow, .. } => ("b", Some(flow.0)),
            TraceEvent::FlowFinish { flow, .. } => ("e", Some(flow.0)),
            _ => ("i", None),
        };
        let _ = write!(
            out,
            ",{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts_us},\"name\":\"{}\"",
            te.event.name()
        );
        match id_attr {
            Some(id) => {
                let _ = write!(out, ",\"cat\":\"flow\",\"id\":{id}");
            }
            None => out.push_str(",\"s\":\"t\""),
        }
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"seq\":{}", te.seq);
        for (k, v) in event_fields(&te.event) {
            out.push_str(",\"");
            out.push_str(k);
            out.push_str("\":");
            push_json_value(&mut out, &v);
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// A JSONL line that failed schema validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number of the offending event.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace schema error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SchemaError {}

/// Required flat fields per event name, mirroring [`event_fields`].
/// `component` consistency is checked separately.
const SCHEMA: &[(&str, &[&str])] = &[
    ("map_finish", &["job", "map"]),
    ("spill_decode", &["job", "map", "server", "predicted_bytes"]),
    (
        "prediction_emit",
        &["job", "map", "server", "deliver_at_ns"],
    ),
    ("prediction_wire", &["copies", "lost"]),
    ("prediction_drop", &["reason"]),
    ("prediction_dedup", &["job", "map"]),
    ("prediction_retract", &["job", "map", "withdrawn"]),
    ("collector_aggregate", &["src", "dst", "added_bytes"]),
    ("collector_park", &["job", "map", "entries"]),
    ("collector_unpark", &["job", "reducer", "entries"]),
    (
        "alloc_place",
        &["src", "dst", "bytes", "outcome", "links", "resid_bps"],
    ),
    ("rule_issue", &["switch", "src", "dst", "delay_ns"]),
    ("rule_fail", &["switch"]),
    ("rule_timeout", &["switch"]),
    ("rule_active", &["switch", "src", "dst", "out_link"]),
    ("rule_tcam_reject", &["switch"]),
    ("flow_start", &["flow", "src", "dst", "bytes"]),
    ("flow_finish", &["flow", "src", "dst"]),
    ("flow_unroutable", &["src", "dst"]),
    ("link_state", &["link", "up"]),
    ("controller_state", &["up"]),
    ("controller_resync", &["rules"]),
    ("span", &["name", "wall_ns"]),
];

/// The component each event name must carry (export-side mirror of
/// [`TraceEvent::component`]).
const EVENT_COMPONENT: &[(&str, &str)] = &[
    ("map_finish", "hadoop"),
    ("spill_decode", "instrument"),
    ("prediction_emit", "instrument"),
    ("prediction_wire", "instrument"),
    ("prediction_drop", "collector"),
    ("prediction_dedup", "collector"),
    ("prediction_retract", "collector"),
    ("collector_aggregate", "collector"),
    ("collector_park", "collector"),
    ("collector_unpark", "collector"),
    ("alloc_place", "allocator"),
    ("rule_issue", "controller"),
    ("rule_fail", "controller"),
    ("rule_timeout", "controller"),
    ("rule_active", "dataplane"),
    ("rule_tcam_reject", "dataplane"),
    ("flow_start", "netsim"),
    ("flow_finish", "netsim"),
    ("flow_unroutable", "netsim"),
    ("link_state", "engine"),
    ("controller_state", "engine"),
    ("controller_resync", "engine"),
    ("span", "engine"),
];

/// Validate a JSONL export against the event schema. Every line must be
/// a JSON object with numeric `t_ns`/`seq`, a known `component` and
/// `event`, a component consistent with the event, and every required
/// field for that event present. Returns the number of events checked.
pub fn validate_jsonl(jsonl: &str) -> Result<usize, SchemaError> {
    let mut checked = 0usize;
    for (idx, line) in jsonl.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let err = |msg: String| SchemaError { line: lineno, msg };
        let value = parse_json(line).map_err(|m| err(format!("invalid JSON: {m}")))?;
        let Value::Object(fields) = value else {
            return Err(err("line is not a JSON object".to_string()));
        };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        match get("t_ns") {
            Some(Value::Number(_)) => {}
            _ => return Err(err("missing or non-numeric \"t_ns\"".to_string())),
        }
        match get("seq") {
            Some(Value::Number(_)) => {}
            _ => return Err(err("missing or non-numeric \"seq\"".to_string())),
        }
        let Some(Value::String(component)) = get("component") else {
            return Err(err("missing \"component\"".to_string()));
        };
        if Component::from_name(component).is_none() {
            return Err(err(format!("unknown component {component:?}")));
        }
        let Some(Value::String(event)) = get("event") else {
            return Err(err("missing \"event\"".to_string()));
        };
        let Some((_, required)) = SCHEMA.iter().find(|(n, _)| n == event) else {
            return Err(err(format!("unknown event {event:?}")));
        };
        let expected = EVENT_COMPONENT
            .iter()
            .find(|(n, _)| n == event)
            .map(|(_, c)| *c)
            .expect("every schema event has a component");
        if component != expected {
            return Err(err(format!(
                "event {event:?} must carry component {expected:?}, got {component:?}"
            )));
        }
        for field in *required {
            if get(field).is_none() {
                return Err(err(format!("event {event:?} is missing field {field:?}")));
            }
        }
        checked += 1;
    }
    Ok(checked)
}

/// Minimal JSON value for validation purposes.
#[allow(dead_code)] // Number/Bool/Array payloads are inspected only by tests
enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Minimal recursive-descent JSON parser (objects, arrays, strings with
/// escapes, f64 numbers, literals). Enough to validate our own exports
/// and reject malformed lines with a useful message.
fn parse_json(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::String),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(Value::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through untouched.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let end = (*pos + ch_len).min(b.len());
                out.push_str(std::str::from_utf8(&b[*pos..end]).map_err(|_| "bad utf8")?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AllocOutcome;
    use pythia_des::{SimDuration, SimTime};
    use pythia_hadoop::{JobId, MapTaskId, ReducerId, ServerId};
    use pythia_netsim::{FlowId, LinkId, NodeId};

    /// One instance of every event variant, for exhaustive export tests.
    fn one_of_each() -> Vec<TimedEvent> {
        let evs = vec![
            TraceEvent::MapFinish {
                job: JobId(1),
                map: MapTaskId(2),
            },
            TraceEvent::SpillDecode {
                job: JobId(1),
                map: MapTaskId(2),
                server: ServerId(3),
                predicted_bytes: 1_000_000,
            },
            TraceEvent::PredictionEmit {
                job: JobId(1),
                map: MapTaskId(2),
                server: ServerId(3),
                deliver_at: SimTime::from_secs(4),
            },
            TraceEvent::PredictionWire { copies: 1, lost: 2 },
            TraceEvent::PredictionDrop {
                reason: "corrupt-index",
            },
            TraceEvent::PredictionDedup {
                job: JobId(1),
                map: MapTaskId(2),
            },
            TraceEvent::PredictionRetract {
                job: JobId(1),
                map: MapTaskId(2),
                withdrawn: 3,
            },
            TraceEvent::CollectorAggregate {
                src: NodeId(0),
                dst: NodeId(5),
                added_bytes: 77,
            },
            TraceEvent::CollectorPark {
                job: JobId(1),
                map: MapTaskId(2),
                entries: 4,
            },
            TraceEvent::CollectorUnpark {
                job: JobId(1),
                reducer: ReducerId(0),
                entries: 4,
            },
            TraceEvent::AllocPlace {
                src: NodeId(0),
                dst: NodeId(5),
                bytes: 77,
                outcome: AllocOutcome::Assign,
                links: vec![LinkId(1), LinkId(9)],
                resid_bps: 1.25e9,
            },
            TraceEvent::RuleIssue {
                switch: NodeId(8),
                src: Some(NodeId(0)),
                dst: None,
                delay: SimDuration::from_nanos(12_000_000),
            },
            TraceEvent::RuleFail { switch: NodeId(8) },
            TraceEvent::RuleTimeout { switch: NodeId(8) },
            TraceEvent::RuleActive {
                switch: NodeId(8),
                src: Some(NodeId(0)),
                dst: Some(NodeId(5)),
                out_link: LinkId(9),
            },
            TraceEvent::RuleTcamReject { switch: NodeId(8) },
            TraceEvent::FlowStart {
                flow: FlowId(42),
                src: NodeId(0),
                dst: NodeId(5),
                bytes: 77,
            },
            TraceEvent::FlowFinish {
                flow: FlowId(42),
                src: NodeId(0),
                dst: NodeId(5),
            },
            TraceEvent::FlowUnroutable {
                src: NodeId(0),
                dst: NodeId(5),
            },
            TraceEvent::LinkState {
                link: LinkId(9),
                up: false,
            },
            TraceEvent::ControllerState { up: true },
            TraceEvent::ControllerResync { rules: 6 },
            TraceEvent::Span {
                name: "path_compute",
                wall_ns: 1234,
            },
        ];
        evs.into_iter()
            .enumerate()
            .map(|(i, event)| TimedEvent {
                t: SimTime::from_nanos(i as u64 * 1_000),
                seq: i as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn every_variant_exports_and_validates() {
        let events = one_of_each();
        let jsonl = to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), events.len());
        let checked = validate_jsonl(&jsonl).expect("all variants validate");
        assert_eq!(checked, events.len());
    }

    #[test]
    fn every_schema_entry_is_exercised() {
        // Guard: adding a TraceEvent variant must extend SCHEMA too.
        let names: Vec<&str> = one_of_each().iter().map(|te| te.event.name()).collect();
        assert_eq!(names.len(), SCHEMA.len());
        for (name, _) in SCHEMA {
            assert!(names.contains(name), "schema entry {name} never produced");
        }
        assert_eq!(SCHEMA.len(), EVENT_COMPONENT.len());
    }

    #[test]
    fn validation_rejects_broken_lines() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("[1,2,3]\n").is_err());
        // Unknown event name.
        let line = r#"{"t_ns":0,"seq":0,"component":"engine","event":"bogus"}"#;
        let err = validate_jsonl(line).unwrap_err();
        assert!(err.msg.contains("unknown event"), "{err}");
        // Missing a required field.
        let line = r#"{"t_ns":0,"seq":0,"component":"engine","event":"link_state","link":3}"#;
        let err = validate_jsonl(line).unwrap_err();
        assert!(err.msg.contains("missing field"), "{err}");
        // Component inconsistent with the event.
        let line =
            r#"{"t_ns":0,"seq":0,"component":"hadoop","event":"link_state","link":3,"up":true}"#;
        let err = validate_jsonl(line).unwrap_err();
        assert!(err.msg.contains("must carry component"), "{err}");
        // Missing timestamp.
        let line = r#"{"seq":0,"component":"engine","event":"controller_state","up":true}"#;
        assert!(validate_jsonl(line).is_err());
        assert_eq!(err.line, 1);
    }

    #[test]
    fn chrome_trace_parses_and_pairs_flows() {
        let events = one_of_each();
        let chrome = to_chrome_trace(&events);
        let value = parse_json(chrome.trim()).expect("chrome trace is valid JSON");
        let Value::Object(fields) = value else {
            panic!("chrome trace must be an object");
        };
        let Some(Value::Array(items)) = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
        else {
            panic!("traceEvents array missing");
        };
        // 1 process + 8 thread metadata records precede the events.
        assert_eq!(items.len(), 9 + events.len());
        let phases: Vec<&str> = items
            .iter()
            .filter_map(|it| match it {
                Value::Object(f) => f
                    .iter()
                    .find(|(k, _)| k == "ph")
                    .and_then(|(_, v)| match v {
                        Value::String(s) => Some(s.as_str()),
                        _ => None,
                    }),
                _ => None,
            })
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "b").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "e").count(), 1);
    }

    #[test]
    fn non_finite_floats_export_as_distinct_strings() {
        let line = |resid_bps: f64| {
            to_jsonl(&[TimedEvent {
                t: SimTime::ZERO,
                seq: 0,
                event: TraceEvent::AllocPlace {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: 1,
                    outcome: AllocOutcome::Assign,
                    links: Vec::new(),
                    resid_bps,
                },
            }])
        };
        for (x, shown) in [
            (f64::INFINITY, "\"inf\""),
            (f64::NAN, "\"NaN\""),
            (0.0, "0"),
        ] {
            let jsonl = line(x);
            assert!(
                jsonl.contains(&format!("\"resid_bps\":{shown}}}")),
                "{jsonl}"
            );
            validate_jsonl(&jsonl).expect("valid JSON");
        }
    }

    #[test]
    fn jsonl_round_trips_timestamps() {
        let events = one_of_each();
        let jsonl = to_jsonl(&events);
        let first = jsonl.lines().next().unwrap();
        assert!(first.contains("\"t_ns\":0"));
        let last = jsonl.lines().last().unwrap();
        assert!(last.contains(&format!("\"t_ns\":{}", (events.len() - 1) * 1_000)));
    }
}
