//! Perfetto / Chrome trace-event JSON export.
//!
//! Serializes a run's [`TraceSpan`]s into the [Trace Event Format] JSON
//! object that `ui.perfetto.dev` (and `chrome://tracing`) load directly:
//! one complete (`"ph":"X"`) event per span with microsecond timestamps,
//! plus `"M"` metadata events naming each actor's track.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::Write;
use std::path::Path;

use serde_json::Value;

use ovcomm_simnet::{actor_name, TraceSpan};

/// Build the trace-event JSON object for `spans` with the default track
/// names: [`actor_name`] — `rank R`, or `rank R op K` for operation actors.
pub fn trace_to_json(spans: &[TraceSpan]) -> Value {
    trace_to_json_with_names(spans, actor_name)
}

/// Build the trace-event JSON object for `spans`, naming each actor's track
/// via `name_of`.
pub fn trace_to_json_with_names(spans: &[TraceSpan], name_of: impl Fn(u32) -> String) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(spans.len() + 16);

    // Rank threads record spans under a lock, so the recording order can
    // vary with OS scheduling even when the spans themselves are fully
    // deterministic. Sort by virtual-time content so the exported JSON is
    // byte-identical across runs of the same seeded simulation.
    let mut spans: Vec<&TraceSpan> = spans.iter().collect();
    spans.sort_by(|a, b| {
        (a.start, a.actor, a.end, a.kind.name(), &a.label, a.chunk).cmp(&(
            b.start,
            b.actor,
            b.end,
            b.kind.name(),
            &b.label,
            b.chunk,
        ))
    });

    // Metadata: one thread_name event per distinct actor, in actor order,
    // so tracks are stable across runs.
    let mut actors: Vec<u32> = spans.iter().map(|s| s.actor).collect();
    actors.sort_unstable();
    actors.dedup();
    for &actor in &actors {
        events.push(Value::Object(vec![
            ("name".to_string(), Value::Str("thread_name".to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(actor as u64)),
            (
                "args".to_string(),
                Value::Object(vec![("name".to_string(), Value::Str(name_of(actor)))]),
            ),
        ]));
    }

    for s in spans {
        let mut args: Vec<(String, Value)> = Vec::new();
        if let Some(c) = s.chunk {
            args.push(("chunk".to_string(), Value::UInt(c as u64)));
        }
        events.push(Value::Object(vec![
            ("name".to_string(), Value::Str(s.label.clone())),
            ("cat".to_string(), Value::Str(s.kind.name().to_string())),
            ("ph".to_string(), Value::Str("X".to_string())),
            (
                "ts".to_string(),
                Value::Float(s.start.as_nanos() as f64 / 1_000.0),
            ),
            ("dur".to_string(), Value::Float(s.micros())),
            ("pid".to_string(), Value::UInt(0)),
            ("tid".to_string(), Value::UInt(s.actor as u64)),
            ("args".to_string(), Value::Object(args)),
        ]));
    }

    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ])
}

/// Write the trace-event JSON for `spans` to `path`.
pub fn write_trace(
    path: &Path,
    spans: &[TraceSpan],
    name_of: impl Fn(u32) -> String,
) -> std::io::Result<()> {
    write_json_file(path, &trace_to_json_with_names(spans, name_of))
}

fn write_json_file(path: &Path, v: &Value) -> std::io::Result<()> {
    let json = serde_json::to_string(v)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")
}

/// Read back a trace-event JSON file (for [`validate_trace_events`]).
pub fn read_trace(path: &Path) -> std::io::Result<Value> {
    serde_json::from_str(&std::fs::read_to_string(path)?)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
}

/// Validate that `v` is a well-formed trace-event object: a `traceEvents`
/// array whose entries each carry the fields their phase requires (`"X"`
/// events need name/cat/ts/dur/pid/tid with non-negative durations; `"M"`
/// events need name/pid/tid). Returns the first violation found.
pub fn validate_trace_events(v: &Value) -> Result<(), String> {
    let obj = v.as_object().ok_or("top level is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let e = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |name: &str| {
            e.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("event {i} missing {name}"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i} ph not a string"))?;
        match ph {
            "X" => {
                field("name")?
                    .as_str()
                    .ok_or_else(|| format!("event {i} name not a string"))?;
                field("cat")?
                    .as_str()
                    .ok_or_else(|| format!("event {i} cat not a string"))?;
                let ts = field("ts")?
                    .as_f64()
                    .ok_or_else(|| format!("event {i} ts not a number"))?;
                let dur = field("dur")?
                    .as_f64()
                    .ok_or_else(|| format!("event {i} dur not a number"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("event {i} ts invalid: {ts}"));
                }
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i} dur invalid: {dur}"));
                }
                field("pid")?;
                field("tid")?;
            }
            "M" => {
                field("name")?;
                field("pid")?;
                field("tid")?;
            }
            other => return Err(format!("event {i} has unsupported phase {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovcomm_simnet::{SimTime, SpanKind};

    fn spans() -> Vec<TraceSpan> {
        vec![
            TraceSpan {
                actor: 0,
                kind: SpanKind::Post,
                label: "MPI_Ibcast post".into(),
                chunk: Some(3),
                start: SimTime(1_000),
                end: SimTime(2_500),
            },
            TraceSpan {
                actor: 1,
                kind: SpanKind::Wait,
                label: "MPI_Wait".into(),
                chunk: None,
                start: SimTime(2_500),
                end: SimTime(9_000),
            },
        ]
    }

    #[test]
    fn export_is_valid_and_carries_chunks() {
        let v = trace_to_json(&spans());
        validate_trace_events(&v).expect("valid trace-event JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + 2 span events.
        assert_eq!(events.len(), 4);
        let post = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("MPI_Ibcast post"))
            .unwrap();
        assert_eq!(post.get("cat").and_then(Value::as_str), Some("post"));
        assert_eq!(
            post.get("args")
                .unwrap()
                .get("chunk")
                .and_then(Value::as_u64),
            Some(3)
        );
        assert!((post.get("ts").unwrap().as_f64().unwrap() - 1.0).abs() < 1e-12);
        assert!((post.get("dur").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn export_roundtrips_through_parser() {
        let v = trace_to_json(&spans());
        let text = serde_json::to_string(&v).unwrap();
        let back = serde_json::from_str(&text).expect("parses");
        validate_trace_events(&back).expect("still valid after roundtrip");
    }

    #[test]
    fn validator_rejects_malformed_events() {
        assert!(validate_trace_events(&Value::Null).is_err());
        let missing_dur = serde_json::from_str(
            r#"{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1.0,"pid":0,"tid":0}]}"#,
        )
        .unwrap();
        let err = validate_trace_events(&missing_dur).unwrap_err();
        assert!(err.contains("missing dur"), "{err}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let v = trace_to_json(&[]);
        validate_trace_events(&v).expect("empty trace still valid");
    }
}
