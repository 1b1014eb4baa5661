//! Flight recorder: the newest N event lines, dumped on failure.
//!
//! A [`FlightRecorder`] is an [`NdjsonSink`] whose output is a bounded
//! [`Ring`]. It keeps the last `N` of the exact lines `--progress`
//! streams: `t_ms` timestamps, `message` notes, `rule` rows, and no
//! counter deltas, whose totals `--metrics-out` reports.
//! [`PostmortemGuard`] arms the dump: when the guard drops while a
//! panic is unwinding, or after the recorder has seen a
//! [`violation`](crate::EventSink::violation), the retained lines are
//! written to stderr (or a file) after one `"ev":"postmortem"` header.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;

use crate::json::Json;
use crate::ndjson::{LineOut, NdjsonSink};

/// Default ring capacity used by `--flight-recorder` without `=N`.
pub const DEFAULT_CAPACITY: usize = 4096;

/// An [`NdjsonSink`] that keeps its newest lines in a [`Ring`].
pub type FlightRecorder = NdjsonSink<Ring>;

/// The bounded line store behind a [`FlightRecorder`].
pub struct Ring {
    lines: VecDeque<String>,
    capacity: usize,
    recorded: u64,
    saw_violation: bool,
}

impl LineOut for Ring {
    fn line(&mut self, ev: &str, line: String) {
        self.lines.push_back(line);
        if self.lines.len() > self.capacity {
            self.lines.pop_front();
        }
        self.recorded += 1;
        self.saw_violation |= ev == "violation";
    }
}

impl FlightRecorder {
    /// A recorder retaining the newest `capacity` lines.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        NdjsonSink::new(Ring {
            lines: VecDeque::new(),
            capacity,
            recorded: 0,
            saw_violation: false,
        })
    }

    /// Whether a [`violation`](crate::EventSink::violation) was recorded.
    pub fn saw_violation(&self) -> bool {
        self.out().saw_violation
    }

    /// Total lines recorded, including ones the ring has dropped.
    pub fn recorded(&self) -> u64 {
        self.out().recorded
    }

    /// Writes the `"ev":"postmortem"` header, then the retained lines,
    /// oldest first.
    fn postmortem(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let ring = self.out();
        let header = Json::Obj(vec![
            ("ev".to_string(), Json::str("postmortem")),
            ("recorded".to_string(), Json::int(ring.recorded)),
            ("retained".to_string(), Json::int(ring.lines.len() as u64)),
            ("violation".to_string(), Json::Bool(ring.saw_violation)),
            (
                "panicking".to_string(),
                Json::Bool(std::thread::panicking()),
            ),
        ]);
        writeln!(out, "{}", header.render_compact())?;
        for line in &ring.lines {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Where a [`PostmortemGuard`] writes its dump.
enum DumpTarget {
    Stderr,
    File(std::path::PathBuf),
}

/// Scoped guard that dumps the flight recorder on failure.
///
/// Create it before running an engine and let it drop afterwards: if
/// the drop happens while a panic unwinds, or if the recorder saw a
/// violation during the run, the retained lines are written (prefixed
/// by one `"ev":"postmortem"` header line) to stderr or the configured
/// file.
pub struct PostmortemGuard {
    recorder: Arc<FlightRecorder>,
    target: DumpTarget,
}

impl PostmortemGuard {
    /// A guard dumping to stderr.
    pub fn stderr(recorder: Arc<FlightRecorder>) -> PostmortemGuard {
        PostmortemGuard {
            recorder,
            target: DumpTarget::Stderr,
        }
    }

    /// A guard dumping to `path` (created/truncated at dump time).
    pub fn to_file(
        recorder: Arc<FlightRecorder>,
        path: impl Into<std::path::PathBuf>,
    ) -> PostmortemGuard {
        PostmortemGuard {
            recorder,
            target: DumpTarget::File(path.into()),
        }
    }

    /// Dumps unconditionally (header line + retained lines).
    pub fn dump_now(&self) {
        let _ = match &self.target {
            DumpTarget::Stderr => self.recorder.postmortem(&mut std::io::stderr().lock()),
            DumpTarget::File(path) => std::fs::File::create(path)
                .and_then(|file| self.recorder.postmortem(&mut std::io::BufWriter::new(file))),
        };
    }
}

impl Drop for PostmortemGuard {
    fn drop(&mut self) {
        if std::thread::panicking() || self.recorder.saw_violation() {
            self.dump_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, EventSink, Phase, RuleStat, SpanKind, Track};

    fn parse(text: &[u8]) -> Vec<Json> {
        std::str::from_utf8(text)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    /// The retained lines of a postmortem, parsed, without the header.
    fn lines(rec: &FlightRecorder) -> Vec<Json> {
        let mut buf = Vec::new();
        rec.postmortem(&mut buf).unwrap();
        parse(&buf).split_off(1)
    }

    #[test]
    fn records_and_replays_in_order() {
        let rec = FlightRecorder::with_capacity(16);
        rec.phase_enter(Phase::Enumerate);
        rec.count(Counter::Visits, 3);
        rec.sample(Track::Pending, 7);
        rec.span_begin(SpanKind::WorkerBusy, 2);
        rec.span_end(SpanKind::WorkerBusy, 2);
        rec.violation("stale value on cache 1");
        rec.phase_exit(Phase::Enumerate);

        assert!(rec.saw_violation());
        let events = lines(&rec);
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| e.get("ev").unwrap().as_str().unwrap())
            .collect();
        // Counter deltas are totals, not lines: the ring skips them.
        assert_eq!(
            kinds,
            vec![
                "phase_enter",
                "sample",
                "span_begin",
                "span_end",
                "violation",
                "phase_exit"
            ]
        );
        assert_eq!(events[2].get("span").unwrap().as_str(), Some("worker_busy"));
        assert_eq!(events[2].get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(
            events[4].get("desc").unwrap().as_str(),
            Some("stale value on cache 1")
        );
        // Timestamps never decrease across the replay.
        let ts: Vec<f64> = events
            .iter()
            .map(|e| e.get("t_ms").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stopped_records_cause_and_detail() {
        let rec = FlightRecorder::with_capacity(16);
        rec.stopped("budget_exhausted", None);
        rec.stopped("worker_panic", Some("index out of bounds"));
        let events = lines(&rec);
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("cause").unwrap().as_str(),
            Some("budget_exhausted")
        );
        assert!(events[0].get("detail").is_none());
        assert_eq!(
            events[1].get("cause").unwrap().as_str(),
            Some("worker_panic")
        );
        assert_eq!(
            events[1].get("detail").unwrap().as_str(),
            Some("index out of bounds")
        );
    }

    #[test]
    fn ring_keeps_only_the_newest_window() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..50 {
            rec.frontier(i, 1);
        }
        assert_eq!(rec.recorded(), 50);
        let levels: Vec<u64> = lines(&rec)
            .iter()
            .map(|e| e.get("level").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(levels, (42..50).collect::<Vec<u64>>());
    }

    /// One event sequence, including the deltas only summing sinks read.
    fn feed(sink: &dyn EventSink) {
        sink.phase_enter(Phase::Simulate);
        for i in 0..20 {
            sink.count(Counter::Accesses, 1);
            sink.bus_transaction("BusRd");
            sink.class_size(3);
            sink.sample(Track::Visited, i);
            sink.violation(&format!("access #{i}: stale"));
        }
        sink.rule_stats("Inv:R", RuleStat::default());
        sink.stopped("deadline_expired", Some("30 s"));
        sink.progress("done");
        sink.phase_exit(Phase::Simulate);
    }

    /// `lines` with each line's `t_ms` removed.
    fn untimed(lines: Vec<Json>) -> Vec<Json> {
        lines
            .into_iter()
            .map(|line| match line {
                Json::Obj(fields) => {
                    Json::Obj(fields.into_iter().filter(|(k, _)| k != "t_ms").collect())
                }
                other => panic!("not an object: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn retains_the_tail_of_the_progress_stream() {
        let stream = NdjsonSink::new(Vec::new());
        feed(&stream);
        let rec = FlightRecorder::with_capacity(10);
        feed(&rec);

        let streamed = untimed(parse(&stream.out()));
        assert_eq!(streamed.len(), 2 + 2 * 20 + 3);
        assert_eq!(rec.recorded(), streamed.len() as u64);
        assert_eq!(untimed(lines(&rec)), streamed[streamed.len() - 10..]);
    }

    #[test]
    fn concurrent_writers_do_not_corrupt_the_dump() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for i in 0..500 {
                        rec.progress(&format!("thread {t} step {i}"));
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 2000);
        let events = lines(&rec);
        assert_eq!(events.len(), 64);
        for e in &events {
            assert_eq!(e.get("ev").unwrap().as_str(), Some("progress"));
        }
    }

    #[test]
    fn guard_dumps_to_file_on_violation() {
        let dir = std::env::temp_dir().join("ccv-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("postmortem-{}.ndjson", std::process::id()));
        let rec = Arc::new(FlightRecorder::with_capacity(32));
        {
            let _guard = PostmortemGuard::to_file(rec.clone(), &path);
            rec.progress("expanding");
            rec.violation("cache 0 read 0 expected 1");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let parsed: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(
            parsed[0].get("ev").unwrap().as_str(),
            Some("postmortem"),
            "first line is the header"
        );
        assert_eq!(parsed[0].get("violation"), Some(&Json::Bool(true)));
        assert_eq!(parsed[0].get("retained").unwrap().as_u64(), Some(2));
        assert!(parsed
            .iter()
            .any(|e| e.get("ev").unwrap().as_str() == Some("violation")));
        assert!(parsed
            .iter()
            .any(|e| e.get("message").map(|m| m.as_str()) == Some(Some("expanding"))));
    }

    #[test]
    fn guard_stays_silent_on_clean_runs() {
        let dir = std::env::temp_dir().join("ccv-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("clean-{}.ndjson", std::process::id()));
        let rec = Arc::new(FlightRecorder::with_capacity(32));
        {
            let _guard = PostmortemGuard::to_file(rec.clone(), &path);
            rec.progress("all good");
        }
        assert!(!path.exists(), "no dump without violation or panic");
    }

    #[test]
    fn every_violation_keeps_its_description() {
        let rec = FlightRecorder::with_capacity(DEFAULT_CAPACITY);
        for i in 0..2000 {
            rec.violation(&format!("access #{i}: stale read"));
        }
        let events = lines(&rec);
        let newest = events.last().unwrap();
        assert_eq!(
            newest.get("desc").unwrap().as_str(),
            Some("access #1999: stale read")
        );
        assert!(events.iter().all(|e| e
            .get("desc")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("access #")));
    }
}
