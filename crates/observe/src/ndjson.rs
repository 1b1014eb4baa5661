//! NDJSON event encoding: one compact JSON object per event.
//!
//! [`NdjsonSink`] renders every event as one line and hands it to a
//! [`LineOut`]: a writer for `--progress` and serve's streamed
//! requests, or the bounded ring of the
//! [`FlightRecorder`](crate::FlightRecorder). The live stream and the
//! postmortem therefore share one encoding.

use std::io::Write;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::event::{Counter, EventSink, Gauge, Phase, RuleStat, SpanKind, Track};
use crate::json::{escape_into, Json};

/// Where an [`NdjsonSink`] puts the lines it renders.
pub trait LineOut: Send {
    /// Takes one rendered line (no trailing newline) of event kind
    /// `ev`, the line's `"ev"` value.
    fn line(&mut self, ev: &str, line: String);

    /// Called once when the sink drops.
    fn finish(&mut self) {}
}

/// Any writer: each line is written and flushed at once, so a reader
/// tailing the stream sees events as they happen.
impl<W: Write + Send> LineOut for W {
    fn line(&mut self, _ev: &str, line: String) {
        let _ = writeln!(self, "{line}");
        let _ = self.flush();
    }

    fn finish(&mut self) {
        let _ = self.flush();
    }
}

/// An [`EventSink`] that renders one compact JSON object per event.
///
/// Records carry an `"ev"` discriminator and a `"t_ms"` timestamp
/// relative to sink creation. High-frequency events (`count`) are not
/// rendered — they would swamp the output; attach a
/// [`Metrics`](crate::Metrics) collector alongside for totals.
pub struct NdjsonSink<W: LineOut> {
    out: Mutex<W>,
    started: Instant,
}

impl<W: LineOut> NdjsonSink<W> {
    /// Renders events into `out`.
    pub fn new(out: W) -> NdjsonSink<W> {
        NdjsonSink {
            out: Mutex::new(out),
            started: Instant::now(),
        }
    }

    /// The output, locked.
    pub(crate) fn out(&self) -> MutexGuard<'_, W> {
        self.out.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Renders `{"ev":ev,"t_ms":…,key:value,…}` and hands it on.
    fn emit(&self, ev: &str, fields: &[(&str, Field<'_>)]) {
        let mut line = String::with_capacity(64);
        line.push_str("{\"ev\":");
        escape_into(&mut line, ev);
        line.push_str(",\"t_ms\":");
        Json::Num(self.started.elapsed().as_secs_f64() * 1e3).write_compact(&mut line);
        for (key, value) in fields {
            line.push(',');
            escape_into(&mut line, key);
            line.push(':');
            match value {
                Field::Str(s) => escape_into(&mut line, s),
                Field::Int(n) => Json::int(*n).write_compact(&mut line),
            }
        }
        line.push('}');
        self.out().line(ev, line);
    }
}

/// A field value of an event line.
enum Field<'a> {
    Str(&'a str),
    Int(u64),
}

use Field::{Int, Str};

impl<W: LineOut> EventSink for NdjsonSink<W> {
    fn phase_enter(&self, phase: Phase) {
        self.emit("phase_enter", &[("phase", Str(phase.name()))]);
    }

    fn phase_exit(&self, phase: Phase) {
        self.emit("phase_exit", &[("phase", Str(phase.name()))]);
    }

    fn count(&self, _counter: Counter, _delta: u64) {
        // Too frequent to stream; totals belong to a Metrics collector.
    }

    fn gauge(&self, gauge: Gauge, value: u64) {
        self.emit(
            "gauge",
            &[("gauge", Str(gauge.name())), ("value", Int(value))],
        );
    }

    fn frontier(&self, level: usize, size: usize) {
        self.emit(
            "frontier",
            &[("level", Int(level as u64)), ("size", Int(size as u64))],
        );
    }

    fn worker(&self, idx: usize, claims: u64) {
        self.emit(
            "worker",
            &[("worker", Int(idx as u64)), ("claims", Int(claims))],
        );
    }

    fn progress(&self, message: &str) {
        self.emit("progress", &[("message", Str(message))]);
    }

    fn span_begin(&self, kind: SpanKind, tid: u32) {
        self.emit(
            "span_begin",
            &[("span", Str(kind.name())), ("tid", Int(tid as u64))],
        );
    }

    fn span_end(&self, kind: SpanKind, tid: u32) {
        self.emit(
            "span_end",
            &[("span", Str(kind.name())), ("tid", Int(tid as u64))],
        );
    }

    fn sample(&self, track: Track, value: u64) {
        self.emit(
            "sample",
            &[("track", Str(track.name())), ("value", Int(value))],
        );
    }

    fn violation(&self, description: &str) {
        self.emit("violation", &[("desc", Str(description))]);
    }

    fn rule_stats(&self, rule: &str, stat: RuleStat) {
        self.emit(
            "rule",
            &[
                ("rule", Str(rule)),
                ("firings", Int(stat.firings)),
                ("states", Int(stat.states)),
                ("dedup_hits", Int(stat.dedup_hits)),
                ("violations", Int(stat.violations)),
                ("wall_ns", Int(stat.nanos)),
            ],
        );
    }

    fn stopped(&self, cause: &str, detail: Option<&str>) {
        match detail {
            Some(detail) => self.emit("stopped", &[("cause", Str(cause)), ("detail", Str(detail))]),
            None => self.emit("stopped", &[("cause", Str(cause))]),
        }
    }
}

impl<W: LineOut> Drop for NdjsonSink<W> {
    fn drop(&mut self) {
        self.out
            .get_mut()
            .unwrap_or_else(|p| p.into_inner())
            .finish();
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

    #[test]
    fn events_stream_as_one_json_object_per_line() {
        let buf = SharedBuf::default();
        let sink = NdjsonSink::new(buf.clone());
        sink.phase_enter(Phase::Enumerate);
        sink.frontier(0, 3);
        sink.gauge(Gauge::DistinctStates, 14);
        sink.progress("level 0 done");
        sink.phase_exit(Phase::Enumerate);
        // count() is intentionally silent.
        sink.count(Counter::Visits, 1);

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let doc = Json::parse(line).unwrap();
            assert!(doc.get("ev").is_some());
            assert!(doc.get("t_ms").is_some());
        }
        assert!(lines[1].contains("\"frontier\""));
        assert!(lines[2].contains("\"distinct_states\""));
    }

    #[test]
    fn span_sample_violation_and_rule_records() {
        let buf = SharedBuf::default();
        let sink = NdjsonSink::new(buf.clone());
        sink.span_begin(SpanKind::WorkerBusy, 3);
        sink.sample(Track::Visited, 14);
        sink.violation("stale value");
        sink.rule_stats(
            "Inv:R",
            RuleStat {
                firings: 5,
                states: 4,
                dedup_hits: 1,
                violations: 0,
                nanos: 123,
            },
        );
        sink.span_end(SpanKind::WorkerBusy, 3);

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(docs.len(), 5);
        assert_eq!(docs[0].get("span").unwrap().as_str(), Some("worker_busy"));
        assert_eq!(docs[0].get("tid").unwrap().as_u64(), Some(3));
        assert_eq!(docs[1].get("track").unwrap().as_str(), Some("visited"));
        assert_eq!(docs[2].get("ev").unwrap().as_str(), Some("violation"));
        assert_eq!(docs[3].get("rule").unwrap().as_str(), Some("Inv:R"));
        assert_eq!(docs[3].get("firings").unwrap().as_u64(), Some(5));
        assert_eq!(docs[4].get("ev").unwrap().as_str(), Some("span_end"));
    }

    #[test]
    fn stopped_records_cause_and_optional_detail() {
        let buf = SharedBuf::default();
        let sink = NdjsonSink::new(buf.clone());
        sink.stopped("deadline_expired", None);
        sink.stopped("worker_panic", Some("boom"));

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("ev").unwrap().as_str(), Some("stopped"));
        assert_eq!(
            docs[0].get("cause").unwrap().as_str(),
            Some("deadline_expired")
        );
        assert!(docs[0].get("detail").is_none());
        assert_eq!(docs[1].get("detail").unwrap().as_str(), Some("boom"));
    }

    /// Writer that stages bytes and only publishes them on flush, so
    /// the test can observe whether flushes actually happen.
    #[derive(Clone, Default)]
    struct FlushingBuf {
        staged: Arc<Mutex<Vec<u8>>>,
        published: Arc<Mutex<Vec<u8>>>,
        flushes: Arc<Mutex<usize>>,
    }

    impl Write for FlushingBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.staged.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            let mut staged = self.staged.lock().unwrap();
            self.published.lock().unwrap().extend_from_slice(&staged);
            staged.clear();
            *self.flushes.lock().unwrap() += 1;
            Ok(())
        }
    }

    #[test]
    fn drop_flushes_pending_output() {
        let buf = FlushingBuf::default();
        let flushes_before;
        {
            let sink = NdjsonSink::new(buf.clone());
            sink.progress("almost done");
            flushes_before = *buf.flushes.lock().unwrap();
            assert!(flushes_before >= 1, "emit flushes eagerly");
        }
        // Drop issued one more flush so nothing can be stranded in a
        // buffered writer when the sink goes away.
        assert_eq!(*buf.flushes.lock().unwrap(), flushes_before + 1);
        assert!(buf.staged.lock().unwrap().is_empty());
        let text = String::from_utf8(buf.published.lock().unwrap().clone()).unwrap();
        assert!(text.contains("almost done"));
    }

    #[test]
    fn concurrent_writers_produce_whole_lines() {
        let buf = SharedBuf::default();
        let sink = Arc::new(NdjsonSink::new(buf.clone()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        sink.progress(&format!("thread {t} step {i}"));
                    }
                });
            }
        });
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 400);
        for line in lines {
            let doc = Json::parse(line).expect("interleaved write corrupted a line");
            assert_eq!(doc.get("ev").unwrap().as_str(), Some("progress"));
        }
    }

    #[test]
    fn names_with_quotes_backslashes_and_control_chars_are_escaped() {
        let buf = SharedBuf::default();
        let sink = NdjsonSink::new(buf.clone());
        let nasty = "rule \"Inv:R\" \\ tab\there\nnewline \u{1} end";
        sink.violation(nasty);
        sink.rule_stats(nasty, RuleStat::default());
        sink.progress(nasty);

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The raw newline inside the payload must have been escaped,
        // so each record is still exactly one physical line.
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let doc = Json::parse(line).unwrap();
            let field = doc
                .get("desc")
                .or_else(|| doc.get("rule"))
                .or_else(|| doc.get("message"))
                .unwrap();
            assert_eq!(field.as_str(), Some(nasty), "escaping must round-trip");
        }
    }
}
