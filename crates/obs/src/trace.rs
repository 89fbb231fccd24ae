//! Chrome trace-event export.
//!
//! Emits the JSON Object Format of the Trace Event specification —
//! `{"traceEvents": [...]}` — using complete (`"ph": "X"`) events, one
//! per recorded [`Span`], plus metadata events naming the process and
//! each logical lane. The output loads directly in `chrome://tracing`
//! and Perfetto. Timestamps are microseconds from the run epoch, as the
//! format requires; they are wall-clock data and therefore carry no
//! determinism guarantee.

use confanon_testkit::json::Json;

use crate::shard::Span;

/// Builds the trace document for a run's spans. `lanes` names the
/// logical thread ids (tid 0 is always the pipeline lane; discovery
/// shards and rewrite workers are 1.., the calling thread being 1).
pub fn chrome_trace_json(spans: &[Span], lanes: &[(u32, &str)]) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() + lanes.len() + 1);
    events.push(metadata_event("process_name", 0, "confanon batch"));
    for (tid, name) in lanes {
        events.push(metadata_event("thread_name", *tid, name));
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by(|a, b| (a.start_ns, a.tid, &a.name).cmp(&(b.start_ns, b.tid, &b.name)));
    for s in sorted {
        events.push(
            Json::obj()
                .with("name", s.name.as_str())
                .with("cat", s.cat)
                .with("ph", "X")
                .with("ts", s.start_ns as f64 / 1_000.0)
                .with("dur", s.dur_ns as f64 / 1_000.0)
                .with("pid", 1u64)
                .with("tid", u64::from(s.tid)),
        );
    }
    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", "ms")
}

fn metadata_event(kind: &str, tid: u32, name: &str) -> Json {
    Json::obj()
        .with("name", kind)
        .with("ph", "M")
        .with("pid", 1u64)
        .with("tid", u64::from(tid))
        .with("args", Json::obj().with("name", name))
}

/// Validates the shape of a parsed trace document: a `traceEvents`
/// array whose members all carry `name`, `ph`, `pid`, and `tid`, with
/// `ts`/`dur` present on every complete (`"X"`) event.
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_array) else {
        return Err("missing \"traceEvents\" array".to_string());
    };
    for (i, e) in events.iter().enumerate() {
        for key in ["name", "ph", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("event {i} missing {key:?}"));
            }
        }
        if e.get("ph").and_then(Json::as_str) == Some("X")
            && (e.get("ts").and_then(Json::as_f64).is_none()
                || e.get("dur").and_then(Json::as_f64).is_none())
        {
            return Err(format!("complete event {i} missing ts/dur"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, cat: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            cat,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn trace_round_trips_and_validates() {
        let spans = vec![
            span("discover", "phase", 0, 0, 5_000),
            span("r1.cfg", "rewrite", 1, 6_000, 2_500),
        ];
        let doc = chrome_trace_json(&spans, &[(0, "pipeline"), (1, "worker-1")]);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("parses");
        assert!(validate_trace(&parsed).is_ok());
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        // 1 process + 2 thread metadata + 2 complete events.
        assert_eq!(events.len(), 5);
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(complete[1].get("dur").and_then(Json::as_f64), Some(2.5));
    }

    #[test]
    fn events_are_sorted_by_start_time() {
        let spans = vec![
            span("later", "phase", 0, 9_000, 1),
            span("earlier", "phase", 0, 1_000, 1),
        ];
        let doc = chrome_trace_json(&spans, &[]);
        let names: Vec<String> = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events")
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        assert_eq!(names, vec!["earlier".to_string(), "later".to_string()]);
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        assert!(validate_trace(&Json::obj()).is_err());
        let bad = Json::obj().with(
            "traceEvents",
            Json::Arr(vec![Json::obj().with("name", "x")]),
        );
        assert!(validate_trace(&bad).is_err());
    }
}
