//! A lock-free bounded ring of timestamped trace events with a
//! Chrome-trace-format (Perfetto JSON) exporter.
//!
//! Where the [`crate::Registry`] answers *how much / how fast in
//! aggregate*, the [`TraceRing`] answers *what happened when*: each
//! event is a begin/end/complete span tagged with a `pid` (shard) and
//! `tid` (session), so a capture from a fleet run opens directly in
//! [Perfetto](https://ui.perfetto.dev) as one track per shard with the
//! per-session command and solve spans laid out on the timeline.
//!
//! The design mirrors the metric handles: a ring minted disabled (the
//! default) carries no allocation and every operation — including the
//! clock read in [`TraceRing::span`] — is a branch on an `Option`.
//! Enabled rings record lock-free: a writer claims a slot with one
//! `fetch_add`, writes the event fields as relaxed atomics, and
//! publishes with a release store of the slot's sequence tag; readers
//! validate the tag on both sides of the field reads (a per-slot
//! seqlock) and drop slots caught mid-overwrite. The ring is bounded
//! and overwrites oldest — tracing never blocks and never grows.
//!
//! Span *names* are interned up front via [`TraceRing::intern`] (the
//! only locking operation, mirroring metric registration) so the hot
//! path records a `u32` id instead of a string.
//!
//! [`parse_chrome_json`] reads an export back into its events, which is
//! how a histogram exemplar's span id resolves to the span it names.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;

/// Chrome-trace event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span with a duration (`"ph":"X"`).
    Complete,
    /// The opening edge of a long-lived span (`"ph":"B"`).
    Begin,
    /// The closing edge of a long-lived span (`"ph":"E"`).
    End,
}

impl TracePhase {
    fn as_chrome(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Begin => "B",
            TracePhase::End => "E",
        }
    }

    fn from_chrome(ph: &str) -> Option<TracePhase> {
        [TracePhase::Complete, TracePhase::Begin, TracePhase::End]
            .into_iter()
            .find(|p| p.as_chrome() == ph)
    }

    fn from_tag(tag: u64) -> TracePhase {
        match tag {
            1 => TracePhase::Begin,
            2 => TracePhase::End,
            _ => TracePhase::Complete,
        }
    }

    fn tag(self) -> u64 {
        match self {
            TracePhase::Complete => 0,
            TracePhase::Begin => 1,
            TracePhase::End => 2,
        }
    }
}

/// One decoded event read back out of a [`TraceRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The span id [`TraceRing::emit`] returned for this event (claim
    /// index + 1, unique over the ring's lifetime). The same id appears
    /// as `args.span_id` in the Chrome-trace export and as the
    /// `trace_id` of histogram exemplars recorded against this span.
    pub id: u64,
    /// Resolved span name.
    pub name: String,
    /// Event phase.
    pub phase: TracePhase,
    /// Nanoseconds since the ring's epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for begin/end edges).
    pub dur_ns: u64,
    /// Process-track id — the shard index in fleet captures.
    pub pid: u64,
    /// Thread-track id — the session id in fleet captures.
    pub tid: u64,
}

/// One slot of the ring: a per-slot seqlock. `seq` holds `index + 1`
/// of the event it carries; a reader that sees the same `seq` value
/// before and after reading the fields knows no writer raced it.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    /// `phase_tag << 32 | name_id`.
    meta: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    pid: AtomicU64,
    tid: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            pid: AtomicU64::new(0),
            tid: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct TraceCore {
    slots: Vec<Slot>,
    /// Total events ever claimed; slot = (index) % slots.len().
    head: AtomicU64,
    epoch: Instant,
    /// Keep 1 in `sample_modulus` sessions when scoping by tid.
    sample_modulus: u64,
    names: Mutex<Vec<String>>,
}

/// A bounded, lock-free, overwrite-oldest ring of trace events.
///
/// Cheap to clone; all clones share the ring. A ring constructed with
/// [`TraceRing::disabled`] (also the `Default`) records nothing and
/// reads no clock. Use [`TraceRing::scoped`] to stamp a (pid, tid)
/// identity onto events — for a sampled ring this is also where whole
/// sessions are kept or dropped, so an unsampled session costs exactly
/// one modulo at open time and nothing per event.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    core: Option<Arc<TraceCore>>,
    pid: u64,
    tid: u64,
}

impl TraceRing {
    /// A detached ring that records nothing.
    pub fn disabled() -> Self {
        TraceRing::default()
    }

    /// A live ring holding the most recent `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        TraceRing::sampled(capacity, 1)
    }

    /// A live ring that, when scoped per session, keeps only sessions
    /// whose `tid` is divisible by `sample_modulus` (1 keeps all).
    pub fn sampled(capacity: usize, sample_modulus: u64) -> Self {
        let capacity = capacity.max(16);
        TraceRing {
            core: Some(Arc::new(TraceCore {
                slots: (0..capacity).map(|_| Slot::new()).collect(),
                head: AtomicU64::new(0),
                epoch: Instant::now(),
                sample_modulus: sample_modulus.max(1),
                names: Mutex::new(Vec::new()),
            })),
            pid: 0,
            tid: 0,
        }
    }

    /// Whether events recorded on this handle are kept anywhere.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle onto the same ring whose events carry `pid`/`tid`
    /// (shard/session in fleet captures). On a sampled ring, a `tid`
    /// outside the sample returns a disabled handle — the per-session
    /// sampling decision, made once.
    #[must_use]
    pub fn scoped(&self, pid: u64, tid: u64) -> TraceRing {
        match &self.core {
            Some(core) if tid.is_multiple_of(core.sample_modulus) => TraceRing {
                core: self.core.clone(),
                pid,
                tid,
            },
            _ => TraceRing::disabled(),
        }
    }

    /// Intern a span name, returning the id to record with. Takes a
    /// lock — call at setup time, not per event. Returns 0 (harmless)
    /// on a disabled ring.
    pub fn intern(&self, name: &str) -> u32 {
        let Some(core) = &self.core else { return 0 };
        let mut names = core.names.lock().expect("trace name table poisoned");
        if let Some(idx) = names.iter().position(|n| n == name) {
            return idx as u32;
        }
        names.push(name.to_string());
        (names.len() - 1) as u32
    }

    /// Nanoseconds since the ring's epoch (0 on a disabled ring — no
    /// clock is read).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |core| core.epoch.elapsed().as_nanos() as u64)
    }

    /// Record an event with an explicit timestamp and duration,
    /// returning the event's **span id** (claim index + 1; unique for
    /// the lifetime of the ring, 0 on a disabled ring). The id is what
    /// histogram exemplars reference (`trace_id` in the exposition) and
    /// what the Chrome-trace export carries as `args.span_id`, so
    /// `p99 bucket → exact span` is a single lookup.
    #[inline]
    pub fn emit(&self, name_id: u32, phase: TracePhase, ts_ns: u64, dur_ns: u64) -> u64 {
        let Some(core) = &self.core else { return 0 };
        let cap = core.slots.len() as u64;
        let index = core.head.fetch_add(1, Ordering::Relaxed);
        let slot = &core.slots[(index % cap) as usize];
        // Two writers can hold indices a full lap apart (a claimant
        // preempted for `cap` events). Serialize them per slot: wait
        // until the previous occupant's commit tag is visible before
        // taking the slot. The wait is bounded by that writer's six
        // stores; in the common case the tag is already there.
        let expected = if index >= cap { index - cap + 1 } else { 0 };
        while slot.seq.load(Ordering::Acquire) != expected {
            std::hint::spin_loop();
        }
        // Mark the slot mid-write so a reader can't mix old and new
        // fields, write relaxed, then publish with a release store.
        slot.seq.store(u64::MAX, Ordering::Release);
        slot.meta
            .store((phase.tag() << 32) | name_id as u64, Ordering::Relaxed);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.pid.store(self.pid, Ordering::Relaxed);
        slot.tid.store(self.tid, Ordering::Relaxed);
        slot.seq.store(index + 1, Ordering::Release);
        index + 1
    }

    /// Record the opening edge of a long-lived span (e.g. session
    /// open → close).
    #[inline]
    pub fn begin(&self, name_id: u32) {
        if self.core.is_some() {
            self.emit(name_id, TracePhase::Begin, self.now_ns(), 0);
        }
    }

    /// Record the closing edge of a long-lived span.
    #[inline]
    pub fn end(&self, name_id: u32) {
        if self.core.is_some() {
            self.emit(name_id, TracePhase::End, self.now_ns(), 0);
        }
    }

    /// Start a complete-span timer; the span records itself as one
    /// `"X"` event when finished or dropped. No clock is read on a
    /// disabled ring.
    #[inline]
    pub fn span(&self, name_id: u32) -> TraceSpan {
        TraceSpan {
            start_ns: if self.core.is_some() {
                self.now_ns()
            } else {
                0
            },
            ring: self.clone(),
            name_id,
            finished: false,
        }
    }

    /// Total events ever recorded (claimed), including overwritten
    /// ones.
    pub fn recorded(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |core| core.head.load(Ordering::Relaxed))
    }

    /// Events lost to ring overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.core.as_ref().map_or(0, |core| {
            core.head
                .load(Ordering::Relaxed)
                .saturating_sub(core.slots.len() as u64)
        })
    }

    /// Decode the events currently held, oldest first. Slots caught
    /// mid-write by a concurrent recorder are skipped, so a snapshot
    /// taken while the fleet is live is consistent but possibly a few
    /// events short.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let names = core.names.lock().expect("trace name table poisoned");
        let head = core.head.load(Ordering::Acquire);
        let cap = core.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for index in start..head {
            let slot = &core.slots[(index % cap) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before != index + 1 {
                continue; // empty, torn, or already overwritten
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let pid = slot.pid.load(Ordering::Relaxed);
            let tid = slot.tid.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != index + 1 {
                continue; // overwritten while we were reading
            }
            let name_id = (meta & 0xffff_ffff) as usize;
            out.push(TraceEvent {
                id: index + 1,
                name: names
                    .get(name_id)
                    .cloned()
                    .unwrap_or_else(|| format!("span#{name_id}")),
                phase: TracePhase::from_tag(meta >> 32),
                ts_ns,
                dur_ns,
                pid,
                tid,
            });
        }
        out.sort_by_key(|e| e.ts_ns);
        out
    }

    /// Render the held events as Chrome trace JSON (the
    /// `{"traceEvents":[...]}` object form), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps and durations are
    /// microseconds per the format; begin/end edges omit `dur`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"fleet\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}",
                json::string(&e.name),
                e.phase.as_chrome(),
                e.ts_ns as f64 / 1e3,
                e.pid,
                e.tid
            ));
            if e.phase == TracePhase::Complete {
                out.push_str(&format!(",\"dur\":{:.3}", e.dur_ns as f64 / 1e3));
            }
            // The span id exemplars reference; a string because Chrome
            // trace viewers coerce large integer args to doubles.
            out.push_str(&format!(
                ",\"args\":{{\"span_id\":{}}}",
                json::string(&e.id.to_string())
            ));
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Reads a Chrome trace written by [`TraceRing::to_chrome_json`] back
/// into its events, in file order. Timestamps and durations come back in
/// nanoseconds, as the ring held them; begin/end edges have no duration.
///
/// # Errors
///
/// Returns a message naming the first event (by index) that is not one
/// the exporter writes — a missing or mistyped `name`, `ph`, `ts`,
/// `pid`, `tid`, `dur` (on `X` events) or `args.span_id` — or the
/// document's fault when it is not JSON or has no `traceEvents` array.
pub fn parse_chrome_json(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut r = json::Reader::new(text);
    let events = r.object(|r| {
        let mut index = 0;
        let events = r.list_at("traceEvents", |e| {
            index += 1;
            e.object(parse_chrome_event)
                .map_err(|msg| format!("event {}: {msg}", index - 1))
        })?;
        r.str_at("displayTimeUnit")?;
        Ok(events)
    })?;
    r.finish()?;
    Ok(events)
}

/// An event's fields, in the order [`TraceRing::to_chrome_json`] writes
/// them.
fn parse_chrome_event(e: &mut json::Reader<'_>) -> Result<TraceEvent, String> {
    let micros_to_ns = |us: f64| (us * 1e3).round() as u64;
    let name = e.str_at("name")?;
    e.str_at("cat")?;
    let ph = e.str_at("ph")?;
    let phase = TracePhase::from_chrome(&ph).ok_or_else(|| format!("unknown phase '{ph}'"))?;
    let ts_ns = micros_to_ns(e.f64_at("ts")?);
    let pid = e.uint_at("pid")?;
    let tid = e.uint_at("tid")?;
    let dur_ns = match phase {
        TracePhase::Complete => micros_to_ns(e.f64_at("dur")?),
        TracePhase::Begin | TracePhase::End => 0,
    };
    let id = e.object_at("args", |a| a.str_at("span_id"))?;
    Ok(TraceEvent {
        id: id
            .parse()
            .map_err(|_| format!("span id '{id}' is not a count"))?,
        name,
        phase,
        ts_ns,
        dur_ns,
        pid,
        tid,
    })
}

/// RAII timer returned by [`TraceRing::span`]: records one complete
/// (`"X"`) event covering its lifetime when finished or dropped.
#[derive(Debug)]
pub struct TraceSpan {
    ring: TraceRing,
    name_id: u32,
    start_ns: u64,
    finished: bool,
}

impl TraceSpan {
    /// Finish the span now (equivalent to dropping it, but explicit at
    /// call sites that care about where the measured region ends).
    pub fn finish(self) {
        let _ = self.finish_id();
    }

    /// Finish the span now and return its **span id** (0 on a disabled
    /// ring) — the value to hand to
    /// [`crate::Span::finish_with_exemplar`] or
    /// [`crate::Histogram::record_with_exemplar`] so the latency
    /// observation's exemplar points back at this exact trace event.
    pub fn finish_id(mut self) -> u64 {
        self.finished = true;
        self.record()
    }

    fn record(&self) -> u64 {
        if self.ring.core.is_none() {
            return 0;
        }
        let end = self.ring.now_ns();
        self.ring.emit(
            self.name_id,
            TracePhase::Complete,
            self.start_ns,
            end.saturating_sub(self.start_ns),
        )
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if !self.finished {
            self.record();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_is_inert() {
        let ring = TraceRing::disabled();
        let id = ring.intern("step");
        ring.begin(id);
        ring.end(id);
        ring.span(id).finish();
        assert!(!ring.is_enabled());
        assert_eq!(ring.recorded(), 0);
        assert!(ring.events().is_empty());
        assert_eq!(
            ring.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn events_come_back_decoded_and_ordered() {
        let ring = TraceRing::enabled(64);
        let open = ring.intern("session");
        let step = ring.intern("step");
        assert_eq!(ring.intern("session"), open, "interning is idempotent");
        let scoped = ring.scoped(3, 41);
        scoped.begin(open);
        scoped.emit(step, TracePhase::Complete, 100, 50);
        scoped.end(open);
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.pid == 3 && e.tid == 41));
        let complete = events
            .iter()
            .find(|e| e.phase == TracePhase::Complete)
            .unwrap();
        assert_eq!(complete.name, "step");
        assert_eq!((complete.ts_ns, complete.dur_ns), (100, 50));
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let begins = events
            .iter()
            .filter(|e| e.phase == TracePhase::Begin)
            .count();
        let ends = events.iter().filter(|e| e.phase == TracePhase::End).count();
        assert_eq!((begins, ends), (1, 1));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = TraceRing::enabled(16);
        let id = ring.intern("e");
        for i in 0..40u64 {
            ring.emit(id, TracePhase::Complete, i, 1);
        }
        assert_eq!(ring.recorded(), 40);
        assert_eq!(ring.dropped(), 24);
        let events = ring.events();
        assert_eq!(events.len(), 16);
        // Only the newest 16 survive.
        assert!(events.iter().all(|e| e.ts_ns >= 24));
    }

    #[test]
    fn sampling_drops_whole_sessions_at_scope_time() {
        let ring = TraceRing::sampled(64, 4);
        let id = ring.intern("step");
        for tid in 0..16u64 {
            let scoped = ring.scoped(0, tid);
            assert_eq!(scoped.is_enabled(), tid % 4 == 0, "tid {tid}");
            scoped.emit(id, TracePhase::Complete, tid, 1);
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.tid % 4 == 0));
    }

    #[test]
    fn span_records_a_complete_event_with_duration() {
        let ring = TraceRing::enabled(16);
        let id = ring.intern("work");
        {
            let span = ring.scoped(1, 2).span(id);
            std::thread::sleep(std::time::Duration::from_millis(2));
            span.finish();
        }
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, TracePhase::Complete);
        assert!(events[0].dur_ns >= 1_000_000, "dur {}", events[0].dur_ns);
    }

    #[test]
    fn emitted_span_ids_are_unique_and_resolvable_in_the_export() {
        let ring = TraceRing::enabled(16);
        let id = ring.intern("work");
        let a = ring.emit(id, TracePhase::Complete, 10, 1);
        let b = ring.emit(id, TracePhase::Complete, 20, 1);
        assert!(a > 0 && b == a + 1, "ids are sequential: {a}, {b}");
        let span_id = ring.scoped(1, 2).span(id).finish_id();
        assert_eq!(span_id, b + 1);
        let events = ring.events();
        assert_eq!(
            events.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![a, b, span_id]
        );
        let json = ring.to_chrome_json();
        assert!(
            json.contains(&format!("\"args\":{{\"span_id\":\"{span_id}\"}}")),
            "{json}"
        );
        // Disabled rings hand out 0 — the "no exemplar" sentinel.
        assert_eq!(TraceRing::disabled().span(0).finish_id(), 0);
    }

    #[test]
    fn chrome_json_reads_back_every_nested_span() {
        let ring = TraceRing::enabled(64);
        // The step's name carries a quote, a backslash and control
        // characters, which the export escapes.
        let (session, step, solve) = (
            ring.intern("session"),
            ring.intern("step \"k\"\\\n\t\u{1}"),
            ring.intern("mpc_solve"),
        );
        for tid in 0..3 {
            let scoped = ring.scoped(tid % 2, tid);
            scoped.begin(session);
            for _ in 0..2 {
                let outer = scoped.span(step);
                scoped.span(solve).finish();
                outer.finish();
            }
            scoped.end(session);
        }
        ring.scoped(2, 7)
            .emit(solve, TracePhase::Complete, 500, 250);
        let events = ring.events();
        assert_eq!(events.len(), 3 * 6 + 1);
        let json = ring.to_chrome_json();
        // Times are microseconds, as the format has them.
        let solve_event = "\"ph\":\"X\",\"ts\":0.500,\"pid\":2,\"tid\":7,\"dur\":0.250";
        assert!(json.contains(solve_event), "{json}");
        assert!(json.contains("step \\\"k\\\"\\\\\\n\\t\\u0001"), "{json}");
        let back = parse_chrome_json(&json).expect("reads back");
        assert_eq!(back, events);
        let names: std::collections::HashMap<u64, &str> =
            back.iter().map(|e| (e.id, e.name.as_str())).collect();
        assert_eq!(names.len(), events.len(), "span ids are unique");
        for e in &events {
            assert_eq!(names[&e.id], e.name);
        }
        let bad = "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"fleet\",\"ph\":\"Q\"}]}";
        let err = parse_chrome_json(bad).unwrap_err();
        assert!(err.contains("event 0: unknown phase 'Q'"), "{err}");
        assert!(parse_chrome_json("[]").is_err());
    }

    #[test]
    fn finish_id_does_not_double_record_on_drop() {
        let ring = TraceRing::enabled(16);
        let id = ring.intern("once");
        {
            let span = ring.span(id);
            let _ = span.finish_id();
        }
        assert_eq!(ring.recorded(), 1);
    }

    #[test]
    fn concurrent_recording_never_yields_torn_events() {
        let ring = TraceRing::enabled(128);
        let id = ring.intern("hammer");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let worker = ring.scoped(t, t);
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        // ts and dur carry the writer id so a torn read
                        // (fields from two writers) is detectable.
                        worker.emit(id, TracePhase::Complete, i * 8 + t, t + 1);
                    }
                });
            }
            for _ in 0..50 {
                for e in ring.events() {
                    assert_eq!(e.ts_ns % 8, e.pid, "torn event: {e:?}");
                    assert_eq!(e.dur_ns, e.pid + 1, "torn event: {e:?}");
                    assert_eq!(e.tid, e.pid, "torn event: {e:?}");
                }
            }
        });
        assert_eq!(ring.recorded(), 20_000);
    }
}
