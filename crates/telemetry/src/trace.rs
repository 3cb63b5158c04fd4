//! Structured span/event tracing with a bounded ring buffer.
//!
//! A [`Tracer`] records two kinds of things:
//!
//! * **spans** — named intervals with monotonic start/end timestamps and a
//!   hierarchical parent (the innermost span open at the time the child
//!   started), e.g. one `local_update` span per client per round nested
//!   under the round's `tick` span;
//! * **events** — instantaneous points with the same attribute shape.
//!
//! Records carry two fixed attributes, `round` and `client`, instead of an
//! open-ended key/value bag: those are the only dimensions the federated
//! engine needs, and fixed fields keep a record `Copy`-cheap and the hot
//! path free of per-span allocations. Completed records land in a ring
//! buffer of configurable capacity — a long run keeps the most recent
//! window and counts what it dropped, so tracing can stay on for a
//! million-round run without unbounded memory.
//!
//! The buffer exports as JSON lines through the vendored `serde_json`, one
//! record per line, ready for `jq`/pandas-style post-processing.

use serde_json::json;
use std::time::Instant;

/// Identifier of an open span (opaque; 0 is reserved for "no span").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The raw identifier value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One completed span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id of this span (assigned in open order, starting at 1).
    pub id: u64,
    /// Id of the span that was innermost-open when this one started
    /// (0 = root).
    pub parent: u64,
    /// Span name (e.g. `"local_update"`).
    pub name: String,
    /// Monotonic start offset in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Monotonic end offset in nanoseconds (equals `start_ns` for events).
    pub end_ns: u64,
    /// Round attribute, if set.
    pub round: Option<u64>,
    /// Client attribute, if set.
    pub client: Option<u64>,
}

impl SpanRecord {
    /// Span duration in nanoseconds (0 for events).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    round: Option<u64>,
    client: Option<u64>,
}

/// Ring-buffered structured tracer (see the [module docs](self)).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    /// Stack of currently open spans; the top is the parent of new spans.
    open: Vec<OpenSpan>,
    /// Completed records, a ring of at most `capacity` entries.
    ring: Vec<SpanRecord>,
    /// Index in `ring` that the next record overwrites once full.
    head: usize,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity: enough for ~100 rounds of a 100-client run.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer whose ring keeps the latest `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            open: Vec::new(),
            ring: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_record(&mut self, record: SpanRecord) {
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            self.ring[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Opens a span with no attributes.
    pub fn start(&mut self, name: &'static str) -> SpanId {
        self.start_with(name, None, None)
    }

    /// Opens a span with optional `round`/`client` attributes. The parent is
    /// the innermost span still open on this tracer.
    pub fn start_with(
        &mut self,
        name: &'static str,
        round: Option<u64>,
        client: Option<u64>,
    ) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|s| s.id).unwrap_or(0);
        self.open.push(OpenSpan {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
            round,
            client,
        });
        SpanId(id)
    }

    /// Closes a span, committing its record to the ring.
    ///
    /// Spans are expected to close in LIFO order; closing out of order also
    /// closes any younger spans still open above it, attributing them the
    /// same end time.
    pub fn end(&mut self, id: SpanId) {
        let Some(pos) = self.open.iter().rposition(|s| s.id == id.0) else {
            return; // unknown or already closed — ignore
        };
        let end_ns = self.now_ns();
        while self.open.len() > pos {
            let span = self.open.pop().expect("open stack is non-empty");
            self.push_record(SpanRecord {
                id: span.id,
                parent: span.parent,
                name: span.name.to_string(),
                start_ns: span.start_ns,
                end_ns,
                round: span.round,
                client: span.client,
            });
        }
    }

    /// Records an instantaneous event (a zero-duration record).
    pub fn event(&mut self, name: &'static str, round: Option<u64>, client: Option<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|s| s.id).unwrap_or(0);
        let now = self.now_ns();
        self.push_record(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            round,
            client,
        });
    }

    /// Records a completed span whose duration was measured externally
    /// (e.g. on a worker thread); `seconds` is projected backwards from now.
    pub fn complete(
        &mut self,
        name: &'static str,
        seconds: f64,
        round: Option<u64>,
        client: Option<u64>,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|s| s.id).unwrap_or(0);
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub((seconds.max(0.0) * 1e9) as u64);
        self.push_record(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            round,
            client,
        });
    }

    /// Completed records in chronological (commit) order.
    pub fn records(&self) -> Vec<&SpanRecord> {
        let (wrapped, recent) = self.ring.split_at(self.head);
        recent.iter().chain(wrapped.iter()).collect()
    }

    /// Number of completed records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records have been committed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of records evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the held records as JSON lines (one record per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            let line = json!({
                "id": r.id,
                "parent": r.parent,
                "name": r.name,
                "start_ns": r.start_ns,
                "end_ns": r.end_ns,
                "round": r.round,
                "client": r.client,
            });
            out.push_str(&serde_json::to_string(&line).expect("a value tree always serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new(16);
        let outer = t.start_with("round", Some(0), None);
        let inner = t.start_with("local_update", Some(0), Some(3));
        t.end(inner);
        t.end(outer);
        let records = t.records();
        assert_eq!(records.len(), 2);
        // Inner closes first, so it commits first.
        assert_eq!(records[0].name, "local_update");
        assert_eq!(records[0].parent, outer.raw());
        assert_eq!(records[0].client, Some(3));
        assert_eq!(records[1].name, "round");
        assert_eq!(records[1].parent, 0);
        assert!(records[1].end_ns >= records[1].start_ns);
    }

    #[test]
    fn ring_keeps_the_latest_window() {
        let mut t = Tracer::new(4);
        for i in 0..10u64 {
            t.event("e", Some(i), None);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let rounds: Vec<u64> = t.records().iter().map(|r| r.round.unwrap()).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
    }

    #[test]
    fn out_of_order_end_closes_descendants() {
        let mut t = Tracer::new(8);
        let a = t.start("a");
        let _b = t.start("b");
        t.end(a); // closes b too
        assert_eq!(t.len(), 2);
        assert!(t.records().iter().any(|r| r.name == "b"));
    }

    #[test]
    fn json_lines_parse_back() {
        let mut t = Tracer::new(8);
        let s = t.start_with("round", Some(2), None);
        t.event("arrival", Some(2), Some(7));
        t.end(s);
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        let parsed: Vec<Value> = lines
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        for (line, record) in parsed.iter().zip(t.records()) {
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["id", "parent", "name", "start_ns", "end_ns", "round", "client"]
            );
            assert!(line["id"].as_u64().unwrap() > 0);
            assert_eq!(line["id"], record.id);
            assert_eq!(line["name"], record.name);
            assert_eq!(line["end_ns"], record.end_ns);
        }
        // The event carries both attributes; the round span has no client,
        // which is written as `null`.
        assert_eq!(parsed[0]["name"], "arrival");
        assert_eq!(parsed[0]["round"], 2u64);
        assert_eq!(parsed[0]["client"], 7u64);
        assert_eq!(parsed[1]["name"], "round");
        assert!(parsed[1]["client"].is_null());
        assert!(lines
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(r#""round":2,"client":null}"#));
    }

    #[test]
    fn complete_backdates_start() {
        let mut t = Tracer::new(8);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.complete("local_update", 0.003, Some(1), Some(2));
        let records = t.records();
        assert_eq!(records.len(), 1);
        // The 3 ms worker-measured duration is preserved (backdated start),
        // up to timer granularity.
        assert!(records[0].duration_ns() >= 2_900_000);
        assert!(records[0].duration_ns() <= 4_000_000);
        // Backdating never reaches before the tracer epoch.
        t.complete("early", 1e9, None, None);
        assert_eq!(t.records()[1].start_ns, 0);
    }
}
