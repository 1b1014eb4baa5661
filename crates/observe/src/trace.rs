//! Chrome-trace / Perfetto export of engine timelines.
//!
//! [`TraceSink`] streams events in the Chrome Trace Event Format — a
//! JSON object `{"traceEvents": [...]}` of `B`/`E` duration events,
//! `C` counter events and `M` metadata records — which both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. The JSON is hand-rolled through [`Json`], matching the
//! no-dependency policy of the rest of the crate.
//!
//! Track layout:
//!
//! * one track per thread id: tid 0 is the coordinating thread
//!   (phases, drain, crosscheck legs), tid `w + 1` is enumeration
//!   worker `w` (busy/steal spans). Threads are named via `M`
//!   (`thread_name`) records on first appearance;
//! * one counter track per [`Track`] (`pending`, `visited`), sampled
//!   by the engines at span boundaries;
//! * gauges are exported as counter tracks too, so final readings
//!   (distinct states, peak pending) appear on the timeline.
//!
//! Events are written incrementally under one mutex; timestamps are
//! taken inside the lock, so the file order is monotonic. Call
//! [`TraceSink::finish`] (or drop the sink) to close the JSON array.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Counter, EventSink, Gauge, Phase, SpanKind, Track};
use crate::json::Json;

struct TraceState<W> {
    out: W,
    /// No event written yet (controls comma placement).
    first: bool,
    /// The closing `]}` was written; further events are dropped.
    finished: bool,
    /// Thread ids that already received a `thread_name` record.
    named_tids: Vec<u32>,
    /// Write failure observed; stop emitting.
    broken: bool,
}

/// An [`EventSink`] that writes a Chrome-trace JSON file.
pub struct TraceSink<W: Write + Send> {
    state: Mutex<TraceState<W>>,
    started: Instant,
}

impl<W: Write + Send> TraceSink<W> {
    /// Streams trace events to `out`. The header is written
    /// immediately; [`finish`](TraceSink::finish) writes the footer.
    pub fn new(mut out: W) -> TraceSink<W> {
        let broken = out.write_all(b"{\"traceEvents\": [").is_err();
        TraceSink {
            state: Mutex::new(TraceState {
                out,
                first: true,
                finished: false,
                named_tids: Vec::new(),
                broken,
            }),
            started: Instant::now(),
        }
    }

    /// Closes the `traceEvents` array and flushes. Idempotent; called
    /// automatically on drop.
    pub fn finish(&self) {
        let mut st = self.lock();
        Self::finish_locked(&mut st);
    }

    fn finish_locked(st: &mut TraceState<W>) {
        if st.finished {
            return;
        }
        st.finished = true;
        if !st.broken {
            let _ = st.out.write_all(b"]}\n");
            let _ = st.out.flush();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceState<W>> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Appends one raw event record (fields besides `ts`/`pid`).
    fn emit(&self, tid: Option<u32>, fields: Vec<(String, Json)>) {
        let mut st = self.lock();
        if st.finished || st.broken {
            return;
        }
        if let Some(tid) = tid {
            if !st.named_tids.contains(&tid) {
                st.named_tids.push(tid);
                let name = if tid == 0 {
                    "main".to_string()
                } else {
                    format!("worker-{}", tid - 1)
                };
                let meta = Json::Obj(vec![
                    ("name".to_string(), Json::str("thread_name")),
                    ("ph".to_string(), Json::str("M")),
                    ("pid".to_string(), Json::int(1)),
                    ("tid".to_string(), Json::int(tid as u64)),
                    (
                        "args".to_string(),
                        Json::Obj(vec![("name".to_string(), Json::Str(name))]),
                    ),
                ]);
                Self::write_record(&mut st, meta);
            }
        }
        // Timestamp inside the lock: file order is globally monotonic.
        let ts = self.started.elapsed().as_secs_f64() * 1e6;
        let mut record = vec![
            ("ts".to_string(), Json::Num(ts)),
            ("pid".to_string(), Json::int(1)),
        ];
        if let Some(tid) = tid {
            record.push(("tid".to_string(), Json::int(tid as u64)));
        }
        record.extend(fields);
        Self::write_record(&mut st, Json::Obj(record));
    }

    fn write_record(st: &mut TraceState<W>, record: Json) {
        let sep: &[u8] = if st.first { b"\n" } else { b",\n" };
        st.first = false;
        if st.out.write_all(sep).is_err()
            || st
                .out
                .write_all(record.render_compact().as_bytes())
                .is_err()
        {
            st.broken = true;
        }
    }

    fn duration_event(&self, ph: &str, name: &str, cat: &str, tid: u32) {
        self.emit(
            Some(tid),
            vec![
                ("ph".to_string(), Json::str(ph)),
                ("name".to_string(), Json::str(name)),
                ("cat".to_string(), Json::str(cat)),
            ],
        );
    }

    fn counter_event(&self, name: &str, value: u64) {
        self.emit(
            Some(0),
            vec![
                ("ph".to_string(), Json::str("C")),
                ("name".to_string(), Json::str(name)),
                (
                    "args".to_string(),
                    Json::Obj(vec![(name.to_string(), Json::int(value))]),
                ),
            ],
        );
    }
}

impl<W: Write + Send> EventSink for TraceSink<W> {
    fn phase_enter(&self, phase: Phase) {
        let kind = SpanKind::Phase(phase);
        self.duration_event("B", kind.name(), kind.category(), 0);
    }

    fn phase_exit(&self, phase: Phase) {
        let kind = SpanKind::Phase(phase);
        self.duration_event("E", kind.name(), kind.category(), 0);
    }

    fn span_begin(&self, kind: SpanKind, tid: u32) {
        self.duration_event("B", kind.name(), kind.category(), tid);
    }

    fn span_end(&self, kind: SpanKind, tid: u32) {
        self.duration_event("E", kind.name(), kind.category(), tid);
    }

    fn sample(&self, track: Track, value: u64) {
        self.counter_event(track.name(), value);
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        self.counter_event(gauge.name(), value);
    }

    fn count(&self, _counter: Counter, _delta: u64) {
        // Counter deltas are aggregates (mostly end-of-run merges);
        // the timeline carries Track samples instead.
    }

    fn progress(&self, message: &str) {
        self.emit(
            Some(0),
            vec![
                ("ph".to_string(), Json::str("i")),
                ("name".to_string(), Json::str(message)),
                ("cat".to_string(), Json::str("progress")),
                ("s".to_string(), Json::str("g")),
            ],
        );
    }

    fn violation(&self, description: &str) {
        self.emit(
            Some(0),
            vec![
                ("ph".to_string(), Json::str("i")),
                ("name".to_string(), Json::str(description)),
                ("cat".to_string(), Json::str("violation")),
                ("s".to_string(), Json::str("g")),
            ],
        );
    }

    fn stopped(&self, cause: &str, detail: Option<&str>) {
        let name = match detail {
            Some(d) => format!("{cause}: {d}"),
            None => cause.to_string(),
        };
        self.emit(
            Some(0),
            vec![
                ("ph".to_string(), Json::str("i")),
                ("name".to_string(), Json::Str(name)),
                ("cat".to_string(), Json::str("govern")),
                ("s".to_string(), Json::str("g")),
            ],
        );
    }
}

impl<W: Write + Send> Drop for TraceSink<W> {
    fn drop(&mut self) {
        let st = self.state.get_mut().unwrap_or_else(|p| p.into_inner());
        Self::finish_locked(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn trace_text(buf: &SharedBuf) -> String {
        String::from_utf8(buf.0.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn emits_valid_chrome_trace_json() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(buf.clone());
        sink.phase_enter(Phase::Enumerate);
        sink.span_begin(SpanKind::WorkerBusy, 1);
        sink.sample(Track::Pending, 3);
        sink.span_end(SpanKind::WorkerBusy, 1);
        sink.phase_exit(Phase::Enumerate);
        sink.finish();

        let doc = Json::parse(&trace_text(&buf)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread_name records (tid 0 and tid 1) + 5 events.
        assert_eq!(events.len(), 7);
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"thread_name"));
        assert!(names.contains(&"enumerate"));
        assert!(names.contains(&"worker_busy"));
        assert!(names.contains(&"pending"));
    }

    #[test]
    fn spans_are_balanced_and_timestamps_monotonic() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(buf.clone());
        sink.phase_enter(Phase::Expand);
        sink.span_begin(SpanKind::WorkerBusy, 0);
        sink.span_end(SpanKind::WorkerBusy, 0);
        sink.phase_exit(Phase::Expand);
        sink.finish();

        let doc = Json::parse(&trace_text(&buf)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut last_ts = -1.0f64;
        let mut depth = 0i64;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "timestamps must be monotonic in file order");
            last_ts = ts;
            match ph {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "span end without begin");
        }
        assert_eq!(depth, 0, "unbalanced spans");
    }

    #[test]
    fn stopped_renders_as_instant_event() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(buf.clone());
        sink.stopped("deadline_expired", None);
        sink.stopped("worker_panic", Some("boom"));
        sink.finish();

        let doc = Json::parse(&trace_text(&buf)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let instants: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").map(|c| c.as_str()) == Some(Some("govern")))
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(
            instants[0].get("name").unwrap().as_str(),
            Some("deadline_expired")
        );
        assert_eq!(
            instants[1].get("name").unwrap().as_str(),
            Some("worker_panic: boom")
        );
        assert_eq!(instants[0].get("ph").unwrap().as_str(), Some("i"));
    }

    #[test]
    fn drop_closes_the_array() {
        let buf = SharedBuf::default();
        {
            let sink = TraceSink::new(buf.clone());
            sink.phase_enter(Phase::Expand);
            sink.phase_exit(Phase::Expand);
        }
        let doc = Json::parse(&trace_text(&buf)).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_arr().is_some());
    }

    #[test]
    fn finish_is_idempotent_and_later_events_are_dropped() {
        let buf = SharedBuf::default();
        let sink = TraceSink::new(buf.clone());
        sink.phase_enter(Phase::Graph);
        sink.phase_exit(Phase::Graph);
        sink.finish();
        sink.finish();
        sink.progress("after finish");
        let text = trace_text(&buf);
        assert!(Json::parse(&text).is_ok(), "still valid: {text}");
        assert!(!text.contains("after finish"));
    }
}
