//! Trace sinks: where emitted events go.
//!
//! The [`TraceSink`] trait is *statically* dispatched and carries a
//! `const ENABLED` flag. Instrumented code guards every emission with
//! `if S::ENABLED { ... }`, so with the default [`NopSink`] the
//! compiler sees `if false { ... }` and removes the event construction
//! entirely — tracing is zero-cost when disabled (what a recording
//! sink costs is the benchmark's `trace.memsink_overhead_ratio`).

use std::io::{BufRead, ErrorKind, Write};

use crate::event::{Event, EventKind, ParseError};

/// A destination for trace events.
///
/// Implementations must be cheap: the switch calls [`TraceSink::emit`]
/// from its inner per-cycle loops. The associated `ENABLED` constant
/// lets instrumentation compile away entirely for [`NopSink`].
pub trait TraceSink {
    /// Whether this sink observes events. Call sites guard emission
    /// with `if S::ENABLED`, which constant-folds per monomorphization.
    const ENABLED: bool = true;

    /// Record one event.
    fn emit(&mut self, ev: Event);
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NopSink;

impl TraceSink for NopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// An unbounded in-memory sink. The workhorse for tests, audits and
/// exports: run the switch, then hand [`MemSink::events`] to the
/// auditor, rollup builder, or Chrome exporter.
#[derive(Debug, Default, Clone)]
pub struct MemSink {
    /// Every event, in emission order.
    pub events: Vec<Event>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        MemSink::default()
    }

    /// Consumes the sink, returning the recorded stream.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl TraceSink for MemSink {
    #[inline]
    fn emit(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// A bounded ring-buffer sink holding the most recent `capacity`
/// events — "flight recorder" mode for long runs where only the tail
/// leading up to an anomaly matters.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<Event>,
    head: usize,
    capacity: usize,
    /// Events evicted because the ring was full.
    pub dropped: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    #[inline]
    fn emit(&mut self, ev: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// A streaming sink writing one JSONL line per event to any
/// [`Write`] — typically a buffered file, for `mp5run --trace`.
///
/// I/O errors are latched rather than panicking mid-simulation; check
/// [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    /// The line being written, reused from event to event.
    line: Vec<u8>,
    /// Lines successfully written.
    pub written: u64,
    err: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink {
            w,
            line: Vec::with_capacity(128),
            written: 0,
            err: None,
        }
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    #[inline]
    fn emit(&mut self, ev: Event) {
        if self.err.is_some() {
            return;
        }
        self.line.clear();
        ev.write_jsonl(&mut self.line);
        self.line.push(b'\n');
        if let Err(e) = self.w.write_all(&self.line) {
            self.err = Some(e);
        } else {
            self.written += 1;
        }
    }
}

/// Writes `events` to `w` as JSONL, one [`Event::write_jsonl`] line
/// each, and flushes it: the file [`read_jsonl`] reads back.
pub fn write_jsonl<W: Write>(events: &[Event], mut w: W) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(128);
    for ev in events {
        line.clear();
        ev.write_jsonl(&mut line);
        line.push(b'\n');
        w.write_all(&line)?;
    }
    w.flush()
}

/// A sink feeding two sinks at once (e.g. JSONL file + in-memory for
/// an end-of-run audit).
#[derive(Debug, Default)]
pub struct TeeSink<A, B>(
    /// First destination.
    pub A,
    /// Second destination.
    pub B,
);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn emit(&mut self, ev: Event) {
        if A::ENABLED {
            self.0.emit(ev);
        }
        if B::ENABLED {
            self.1.emit(ev);
        }
    }
}

/// Reads a JSONL event stream back from any [`BufRead`]. Blank lines
/// are skipped; any malformed line aborts with its line number.
///
/// Lines are parsed where they sit in the reader's buffer, which is
/// checked as UTF-8 once. Only a line that runs past the end of a
/// buffer, or holds bytes that are not UTF-8, is gathered into a carry
/// buffer first.
pub fn read_jsonl<R: BufRead>(mut r: R) -> Result<Vec<Event>, ReadError> {
    let mut lines = Lines {
        out: Vec::new(),
        read: 0,
    };
    let mut carry = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(lines.error(ReadErrorKind::Io(e.to_string()))),
        };
        if buf.is_empty() {
            break;
        }
        // The whole lines of the buffer's valid UTF-8 prefix; a char cut
        // at the buffer's end, or a byte that is not UTF-8, ends it.
        let text = match std::str::from_utf8(buf) {
            Ok(text) => text,
            Err(e) => std::str::from_utf8(&buf[..e.valid_up_to()]).unwrap_or_default(),
        };
        let used = match text.rfind('\n') {
            Some(last) if carry.is_empty() => {
                lines.take_all(&text[..=last])?;
                last + 1
            }
            _ => {
                let end = buf
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(buf.len(), |nl| nl + 1);
                carry.extend_from_slice(&buf[..end]);
                end
            }
        };
        r.consume(used);
        if carry.last() == Some(&b'\n') {
            lines.take_carried(&carry)?;
            carry.clear();
        }
    }
    if !carry.is_empty() {
        lines.take_carried(&carry)?;
    }
    Ok(lines.out)
}

/// What [`read_jsonl`] has read so far.
struct Lines {
    out: Vec<Event>,
    /// Lines read, blank ones included.
    read: usize,
}

impl Lines {
    /// One line, its newline included, as `BufRead::read_line` gives it:
    /// so a parse error names the same byte it did when lines were read
    /// that way.
    #[inline]
    fn take(&mut self, line: &str) -> Result<(), ReadError> {
        if !line.trim().is_empty() {
            let ev = Event::parse_jsonl(line).map_err(|e| self.error(ReadErrorKind::Parse(e)))?;
            self.out.push(ev);
        }
        self.read += 1;
        Ok(())
    }

    /// Every line of `text`, which ends in a newline. A line laid out
    /// as the encoder writes it is read by the same walk that finds its
    /// end; any other is cut at its newline and parsed on its own.
    fn take_all(&mut self, mut text: &str) -> Result<(), ReadError> {
        while !text.is_empty() {
            let end = match Event::walk_line(text) {
                Some((ev, end)) => {
                    self.out.push(ev);
                    self.read += 1;
                    end
                }
                None => {
                    let end = text.find('\n').map_or(text.len(), |nl| nl + 1);
                    self.take(&text[..end])?;
                    end
                }
            };
            text = &text[end..];
        }
        Ok(())
    }

    fn take_carried(&mut self, line: &[u8]) -> Result<(), ReadError> {
        match std::str::from_utf8(line) {
            Ok(line) => self.take(line),
            // `BufRead::read_line`'s error.
            Err(_) => Err(self.error(ReadErrorKind::Io(
                "stream did not contain valid UTF-8".into(),
            ))),
        }
    }

    /// A failure on the line being read.
    #[cold]
    fn error(&self, kind: ReadErrorKind) -> ReadError {
        ReadError {
            line: self.read + 1,
            kind,
        }
    }
}

/// A failure while reading a recorded trace.
#[derive(Debug)]
pub struct ReadError {
    /// 1-based line number of the failure.
    pub line: usize,
    /// What went wrong.
    pub kind: ReadErrorKind,
}

/// The cause of a [`ReadError`].
#[derive(Debug)]
pub enum ReadErrorKind {
    /// Underlying I/O failure.
    Io(String),
    /// A line that is not a valid event.
    Parse(ParseError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ReadErrorKind::Io(e) => write!(f, "line {}: io error: {e}", self.line),
            ReadErrorKind::Parse(e) => write!(f, "line {}: {e}", self.line),
        }
    }
}

impl std::error::Error for ReadError {}

/// The `(cycle, pipeline, stage)` location an emission site stamps onto
/// its events. `mp5-core` builds one per stage slot, FIFO operation or
/// crossbar route and passes it to the code that emits there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Current simulation cycle.
    pub cycle: u64,
    /// Emitting pipeline.
    pub pipeline: u16,
    /// Emitting stage.
    pub stage: u16,
}

impl TraceCtx {
    /// A location context.
    pub fn new(cycle: u64, pipeline: u16, stage: u16) -> Self {
        TraceCtx {
            cycle,
            pipeline,
            stage,
        }
    }

    /// Emits `kind` at this location into `sink`, compiling away when
    /// the sink is disabled.
    #[inline(always)]
    pub fn emit<S: TraceSink>(self, sink: &mut S, kind: EventKind) {
        if S::ENABLED {
            sink.emit(Event {
                cycle: self.cycle,
                pipeline: self.pipeline,
                stage: self.stage,
                kind,
            });
        }
    }
}

/// Emits one event, compiling away entirely when `S::ENABLED` is
/// false. The canonical guard for all instrumentation sites.
#[inline(always)]
pub fn emit<S: TraceSink>(sink: &mut S, cycle: u64, pipeline: u16, stage: u16, kind: EventKind) {
    if S::ENABLED {
        sink.emit(Event {
            cycle,
            pipeline,
            stage,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stream_hash;
    use mp5_types::PacketId;

    fn ev(cycle: u64) -> Event {
        Event {
            cycle,
            pipeline: 0,
            stage: 1,
            kind: EventKind::Egress {
                pkt: PacketId(cycle),
            },
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn nop_sink_is_disabled() {
        assert!(!NopSink::ENABLED);
        assert!(MemSink::ENABLED);
        let mut s = NopSink;
        emit(&mut s, 1, 0, 0, EventKind::PopStale);
    }

    #[test]
    fn mem_sink_records_in_order() {
        let mut s = MemSink::new();
        for c in 0..5 {
            emit(&mut s, c, 0, 1, ev(c).kind);
        }
        assert_eq!(s.events.len(), 5);
        assert!(s.events.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let mut s = RingSink::new(3);
        for c in 0..10 {
            s.emit(ev(c));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped, 7);
        let cycles: Vec<u64> = s.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn jsonl_round_trips_through_reader() {
        let mut s = JsonlSink::new(Vec::<u8>::new());
        let evs: Vec<Event> = (0..4).map(ev).collect();
        for e in &evs {
            s.emit(*e);
        }
        let bytes = s.finish().unwrap();
        let back = read_jsonl(&bytes[..]).unwrap();
        assert_eq!(back, evs);
        assert_eq!(stream_hash(&back), stream_hash(&evs));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn tee_feeds_both() {
        let mut t = TeeSink(MemSink::new(), MemSink::new());
        t.emit(ev(3));
        assert_eq!(t.0.events, t.1.events);
        assert!(<TeeSink<MemSink, MemSink> as TraceSink>::ENABLED);
    }

    /// Accepts `budget` bytes, then fails every write.
    #[derive(Debug)]
    struct Failing {
        budget: usize,
        accepted: Vec<u8>,
        calls: usize,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if buf.len() > self.budget {
                return Err(std::io::Error::other(format!(
                    "full at call {}",
                    self.calls
                )));
            }
            self.budget -= buf.len();
            self.accepted.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_the_first_write_error() {
        let line = ev(1).to_jsonl().len() + 1;
        let mut s = JsonlSink::new(Failing {
            budget: 2 * line + line / 2,
            accepted: Vec::new(),
            calls: 0,
        });
        for c in 1..=5 {
            s.emit(ev(c));
        }
        // Two whole lines went out; the third failed and nothing was
        // attempted after it.
        assert_eq!(s.written, 2);
        assert_eq!(s.w.calls, 3);
        assert_eq!(read_jsonl(&s.w.accepted[..]).unwrap(), [ev(1), ev(2)]);
        let err = s.finish().unwrap_err();
        assert_eq!(err.to_string(), "full at call 3");
    }

    #[test]
    fn read_jsonl_counts_blank_and_crlf_lines() {
        let (a, b) = (ev(1).to_jsonl(), ev(2).to_jsonl());
        let good = format!("\r\n{a}\r\n\n  \n{b}");
        assert_eq!(read_jsonl(good.as_bytes()).unwrap(), [ev(1), ev(2)]);
        // (text, the 1-based line of the first bad line)
        let cases = [
            (format!("{a}\n\nnot json\n"), 3),
            (
                format!("\r\n{a}\r\n\r\n{}\r\n{b}\r\n", &b[..b.len() / 2]),
                4,
            ),
            (format!("{a}\n{b}\n\n\n{{\"c\":1}}"), 5),
        ];
        for (text, line) in cases {
            let err = read_jsonl(text.as_bytes()).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(matches!(err.kind, ReadErrorKind::Parse(_)), "{err}");
        }
        let err = read_jsonl(&b"\n\xff\n"[..]).unwrap_err();
        assert!(
            matches!(err.kind, ReadErrorKind::Io(_)) && err.line == 2,
            "{err}"
        );
    }
}
