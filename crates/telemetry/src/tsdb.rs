//! An embedded time-series store for fleet health history.
//!
//! Where [`crate::Registry`] answers *what is happening now* and
//! [`crate::TraceRing`] answers *what happened in the last few
//! milliseconds*, this module keeps **history**: registry snapshots —
//! taken in-process or parsed from [`crate::scrape_once`] expositions —
//! are appended to a crash-safe segment file, and a [`Tsdb`] indexes a
//! decoded segment so the SLO engine ([`crate::slo`]) and `evsim query`
//! can evaluate windowed expressions over it. Dependency-free by
//! design, like the rest of the crate.
//!
//! ## Segment format
//!
//! A segment is an append-only file of checksummed records:
//!
//! ```text
//! magic "EVTSDB1\n" (8 bytes)
//! repeated: [u32 LE payload length][u32 LE CRC32(payload)][payload]
//! ```
//!
//! Payloads are tagged by their first byte:
//!
//! - `1` **series definition** — kind byte (0 gauge, 1 counter), varint
//!   series id, name, label pairs (strings are varint length + UTF-8).
//!   Written once, the first time the writer sees a series.
//! - `2` **frame** — varint timestamp (ms since the Unix epoch), varint
//!   sample count, then per sample a varint series id followed by the
//!   value: counters as a **zigzag-varint delta** from the series'
//!   previous frame value (the first frame carries the absolute value
//!   as a delta from 0), gauges as 8 raw little-endian f64 bits.
//! - `3` **exemplar** — varint series id, varint trace-span id, 8-byte
//!   f64 observed value. Written when a bucket series' exemplar
//!   changes, just before the frame that observed it.
//!
//! Because every record is length-prefixed and checksummed, a crash
//! mid-append leaves at most one torn record *at the tail*; the reader
//! verifies each CRC and stops at the first invalid record, returning
//! everything before it plus a `truncated` flag — it never errors on a
//! torn tail. A record whose checksum holds but whose contents do not
//! decode (a count or length past the payload, a counter that overflows)
//! ends the decode the same way.
//!
//! ## Windows over a replayed segment
//!
//! A [`Tsdb`] replays one finite segment that [`read_segment`] has
//! already decoded into memory, so it keeps every point of every series:
//! no retention cap, no downsampling. A windowed delta reads each series
//! at the window edges, and a window that starts before a series' first
//! point anchors at that point — attaching to a running server never
//! counts its whole uptime as one window. The registry creates every
//! series at zero, so a counter series that first appears after an
//! earlier frame starts with a 0 point at that frame's time: a burst
//! that mints and moves its counters between two frames still shows its
//! whole increase.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::export::{PromExemplar, PromSample};
use crate::metrics::Exemplar;

const MAGIC: &[u8; 8] = b"EVTSDB1\n";
const REC_SERIES_DEF: u8 = 1;
const REC_FRAME: u8 = 2;
const REC_EXEMPLAR: u8 = 3;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, computed at compile time.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `data` — the per-record checksum of the segment
/// format.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Varint / zigzag primitives.
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(data: &[u8], pos: &mut usize) -> Option<String> {
    let len = usize::try_from(get_varint(data, pos)?).ok()?;
    let end = pos.checked_add(len)?;
    let bytes = data.get(*pos..end)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).ok()
}

// ---------------------------------------------------------------------
// Series identity and classification.
// ---------------------------------------------------------------------

/// How a series' values are encoded and queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// A free-moving level, stored as raw f64 (also used for `_sum`
    /// series, which are cumulative but fractional).
    Gauge,
    /// A monotone cumulative count (`_total`/`_count`/`_bucket`
    /// suffixes), delta-encoded in segments and queried via windowed
    /// deltas.
    Counter,
}

/// Classify a sample name by the Prometheus suffix conventions this
/// workspace emits.
#[must_use]
pub fn classify(name: &str) -> SeriesKind {
    if name.ends_with("_total") || name.ends_with("_count") || name.ends_with("_bucket") {
        SeriesKind::Counter
    } else {
        SeriesKind::Gauge
    }
}

type SeriesKey = (String, Vec<(String, String)>);

fn sample_key(s: &PromSample) -> SeriesKey {
    (s.name.clone(), s.labels.clone())
}

// ---------------------------------------------------------------------
// Segment writer.
// ---------------------------------------------------------------------

/// Appends snapshot frames to a segment file with crash-safe framing.
///
/// The writer assigns dense series ids in order of first sight, emits a
/// series-definition record per new series, delta-encodes counters
/// against the previous frame, and emits exemplar records whenever a
/// bucket series' exemplar changes.
pub struct SegmentWriter {
    file: BufWriter<std::fs::File>,
    index: HashMap<SeriesKey, u32>,
    kinds: Vec<SeriesKind>,
    prev_counter: Vec<i64>,
    prev_exemplar: Vec<u64>,
    frames: u64,
}

impl SegmentWriter {
    /// Create (truncating) a segment at `path` and write the magic.
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = BufWriter::new(std::fs::File::create(path)?);
        file.write_all(MAGIC)?;
        Ok(SegmentWriter {
            file,
            index: HashMap::new(),
            kinds: Vec::new(),
            prev_counter: Vec::new(),
            prev_exemplar: Vec::new(),
            frames: 0,
        })
    }

    /// Frames appended so far.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    fn write_record(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(payload)
    }

    fn series_id(&mut self, sample: &PromSample) -> std::io::Result<u32> {
        if let Some(&id) = self.index.get(&sample_key(sample)) {
            return Ok(id);
        }
        let id = self.kinds.len() as u32;
        let kind = classify(&sample.name);
        self.index.insert(sample_key(sample), id);
        self.kinds.push(kind);
        self.prev_counter.push(0);
        self.prev_exemplar.push(0);
        let mut payload = vec![
            REC_SERIES_DEF,
            if kind == SeriesKind::Counter { 1 } else { 0 },
        ];
        put_varint(&mut payload, u64::from(id));
        put_str(&mut payload, &sample.name);
        put_varint(&mut payload, sample.labels.len() as u64);
        for (k, v) in &sample.labels {
            put_str(&mut payload, k);
            put_str(&mut payload, v);
        }
        self.write_record(&payload)?;
        Ok(id)
    }

    /// Append one frame of samples observed at `t_ms` (milliseconds
    /// since the Unix epoch). Emits definitions for unseen series and
    /// exemplar records for changed exemplars first, then the frame.
    ///
    /// # Errors
    ///
    /// Propagates io errors; the file may then end in a torn record,
    /// which readers skip.
    pub fn append(&mut self, t_ms: u64, samples: &[PromSample]) -> std::io::Result<()> {
        let mut frame = vec![REC_FRAME];
        put_varint(&mut frame, t_ms);
        put_varint(&mut frame, samples.len() as u64);
        for s in samples {
            let id = self.series_id(s)?;
            if let Some(ex) = &s.exemplar {
                if let Some(span_id) = ex.span_id() {
                    if span_id != 0 && self.prev_exemplar[id as usize] != span_id {
                        self.prev_exemplar[id as usize] = span_id;
                        let mut payload = vec![REC_EXEMPLAR];
                        put_varint(&mut payload, u64::from(id));
                        put_varint(&mut payload, span_id);
                        payload.extend_from_slice(&ex.value.to_le_bytes());
                        self.write_record(&payload)?;
                    }
                }
            }
            put_varint(&mut frame, u64::from(id));
            match self.kinds[id as usize] {
                SeriesKind::Counter => {
                    let v = s.value as i64;
                    let prev = std::mem::replace(&mut self.prev_counter[id as usize], v);
                    put_varint(&mut frame, zigzag(v - prev));
                }
                SeriesKind::Gauge => frame.extend_from_slice(&s.value.to_le_bytes()),
            }
        }
        self.write_record(&frame)?;
        self.frames += 1;
        self.file.flush()
    }
}

// ---------------------------------------------------------------------
// Segment reader.
// ---------------------------------------------------------------------

/// One series declared in a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDecl {
    /// Metric name (with any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in declaration order.
    pub labels: Vec<(String, String)>,
    /// Value encoding/query kind.
    pub kind: SeriesKind,
}

/// One decoded frame: every sample holds the reconstructed **absolute**
/// value (counter deltas are re-accumulated by the reader).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame timestamp, milliseconds since the Unix epoch.
    pub t_ms: u64,
    /// `(series id, absolute value)` pairs.
    pub samples: Vec<(u32, f64)>,
    /// Exemplar records that arrived with this frame:
    /// `(series id, trace-span id, observed value)`.
    pub exemplars: Vec<(u32, u64, f64)>,
}

/// A fully decoded segment.
#[derive(Debug, Clone, Default)]
pub struct SegmentData {
    /// Declared series, indexed by series id.
    pub series: Vec<SeriesDecl>,
    /// Frames in append order.
    pub frames: Vec<Frame>,
    /// Whether decoding stopped at a torn/invalid record before the end
    /// of the file (the crash-mid-append case).
    pub truncated: bool,
}

impl SegmentData {
    /// Rehydrate frame `i` as [`PromSample`]s (exemplars attached to
    /// their bucket series), ready for [`Tsdb::ingest`].
    #[must_use]
    pub fn frame_samples(&self, i: usize) -> Vec<PromSample> {
        let Some(frame) = self.frames.get(i) else {
            return Vec::new();
        };
        frame
            .samples
            .iter()
            .filter_map(|&(id, value)| {
                let decl = self.series.get(id as usize)?;
                let exemplar = frame.exemplars.iter().find(|(eid, _, _)| *eid == id).map(
                    |&(_, span_id, v)| PromExemplar {
                        labels: vec![("trace_id".to_string(), span_id.to_string())],
                        value: v,
                    },
                );
                Some(PromSample {
                    name: decl.name.clone(),
                    labels: decl.labels.clone(),
                    value,
                    exemplar,
                })
            })
            .collect()
    }
}

/// Decode the segment at `path`. A torn, corrupt or undecodable record
/// stops the decode at that point (`truncated = true`) rather than
/// erroring — the append-only format guarantees a crash leaves damage
/// only at the tail.
///
/// # Errors
///
/// Io errors reading the file, or a bad/missing magic header (which
/// means the file is not a segment at all, not a torn one).
pub fn read_segment(path: &Path) -> Result<SegmentData, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(format!(
            "{}: not a tsdb segment (bad magic)",
            path.display()
        ));
    }
    let mut out = SegmentData::default();
    let mut counter_state: Vec<i64> = Vec::new();
    let mut pending_exemplars: Vec<(u32, u64, f64)> = Vec::new();
    let mut pos = MAGIC.len();
    loop {
        if pos == data.len() {
            break; // clean end
        }
        let Some(header) = data.get(pos..pos + 8) else {
            out.truncated = true;
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let Some(payload) = data.get(pos + 8..pos + 8 + len) else {
            out.truncated = true;
            break;
        };
        if crc32(payload) != crc {
            out.truncated = true;
            break;
        }
        pos += 8 + len;
        if decode_record(
            payload,
            &mut out,
            &mut counter_state,
            &mut pending_exemplars,
        )
        .is_none()
        {
            out.truncated = true;
            break;
        }
    }
    Ok(out)
}

/// Decode one checksummed payload into `out`; `None` on a structurally
/// invalid record (treated as truncation by the caller). Counts read
/// from the payload never size an allocation: a loop over a false count
/// runs out of payload instead.
fn decode_record(
    payload: &[u8],
    out: &mut SegmentData,
    counter_state: &mut Vec<i64>,
    pending_exemplars: &mut Vec<(u32, u64, f64)>,
) -> Option<()> {
    let mut pos = 1usize;
    match *payload.first()? {
        REC_SERIES_DEF => {
            let kind_byte = *payload.get(pos)?;
            pos += 1;
            let id = get_varint(payload, &mut pos)?;
            let name = get_str(payload, &mut pos)?;
            let n_labels = get_varint(payload, &mut pos)?;
            let mut labels = Vec::new();
            for _ in 0..n_labels {
                labels.push((get_str(payload, &mut pos)?, get_str(payload, &mut pos)?));
            }
            if id != out.series.len() as u64 {
                return None; // ids are dense and in declaration order
            }
            out.series.push(SeriesDecl {
                name,
                labels,
                kind: if kind_byte == 1 {
                    SeriesKind::Counter
                } else {
                    SeriesKind::Gauge
                },
            });
            counter_state.push(0);
        }
        REC_FRAME => {
            let t_ms = get_varint(payload, &mut pos)?;
            let n = get_varint(payload, &mut pos)?;
            let mut samples = Vec::new();
            for _ in 0..n {
                let id = usize::try_from(get_varint(payload, &mut pos)?).ok()?;
                let value = match out.series.get(id)?.kind {
                    SeriesKind::Counter => {
                        let delta = unzigzag(get_varint(payload, &mut pos)?);
                        let state = &mut counter_state[id];
                        *state = state.checked_add(delta)?;
                        *state as f64
                    }
                    SeriesKind::Gauge => {
                        let bytes = payload.get(pos..pos + 8)?;
                        pos += 8;
                        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
                    }
                };
                samples.push((id as u32, value));
            }
            out.frames.push(Frame {
                t_ms,
                samples,
                exemplars: std::mem::take(pending_exemplars),
            });
        }
        REC_EXEMPLAR => {
            let id = get_varint(payload, &mut pos)?;
            let span_id = get_varint(payload, &mut pos)?;
            let bytes = payload.get(pos..pos + 8)?;
            let value = f64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            pending_exemplars.push((id as u32, span_id, value));
        }
        _ => {} // unknown record type: skip (forward compatibility)
    }
    Some(())
}

// ---------------------------------------------------------------------
// In-memory store.
// ---------------------------------------------------------------------

/// One observation of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Milliseconds since the Unix epoch.
    pub t_ms: u64,
    /// Observed value (cumulative for counters).
    pub v: f64,
}

/// One series held in the in-memory store.
#[derive(Debug, Clone)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Label pairs (source order from ingestion).
    pub labels: Vec<(String, String)>,
    /// Counter or gauge semantics.
    pub kind: SeriesKind,
    /// Latest exemplar seen on this series (bucket series only).
    pub exemplar: Option<Exemplar>,
    points: Vec<Point>,
}

impl Series {
    /// Every point, oldest first.
    #[must_use]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The most recent point.
    #[must_use]
    pub fn latest(&self) -> Option<Point> {
        self.points.last().copied()
    }

    /// The value of the last point at or before `t_ms`; `None` when the
    /// series starts after `t_ms`.
    #[must_use]
    pub fn value_at(&self, t_ms: u64) -> Option<f64> {
        let n = self.points.partition_point(|p| p.t_ms <= t_ms);
        self.points[..n].last().map(|p| p.v)
    }

    fn push(&mut self, t_ms: u64, v: f64) {
        // Drop out-of-order points: `value_at` searches a time-ordered
        // series.
        if self.points.last().is_some_and(|p| p.t_ms > t_ms) {
            return;
        }
        self.points.push(Point { t_ms, v });
    }
}

/// The in-memory store: series keyed by `(name, labels)`, each holding
/// every point ingested for it.
#[derive(Debug, Default)]
pub struct Tsdb {
    series: Vec<Series>,
    index: HashMap<SeriesKey, usize>,
    last_frame_ms: Option<u64>,
}

impl Tsdb {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Tsdb::default()
    }

    /// All series currently held, in first-seen order.
    #[must_use]
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Ingest one frame of samples observed at `t_ms`. A counter series
    /// first seen after an earlier frame starts with a 0 point at that
    /// frame's time: the registry creates every series at zero, so the
    /// earlier frame saw it at zero (see the module docs).
    pub fn ingest(&mut self, t_ms: u64, samples: &[PromSample]) {
        let zero_start = self.last_frame_ms.filter(|&t_prev| t_prev <= t_ms);
        for s in samples {
            let idx = match self.index.get(&sample_key(s)) {
                Some(&idx) => idx,
                None => {
                    let idx = self.series.len();
                    let kind = classify(&s.name);
                    let points = match zero_start {
                        Some(t_prev) if kind == SeriesKind::Counter => vec![Point {
                            t_ms: t_prev,
                            v: 0.0,
                        }],
                        _ => Vec::new(),
                    };
                    self.index.insert(sample_key(s), idx);
                    self.series.push(Series {
                        name: s.name.clone(),
                        labels: s.labels.clone(),
                        kind,
                        exemplar: None,
                        points,
                    });
                    idx
                }
            };
            let series = &mut self.series[idx];
            series.push(t_ms, s.value);
            if let Some(ex) = &s.exemplar {
                if let Some(span_id) = ex.span_id() {
                    if span_id != 0 {
                        series.exemplar = Some(Exemplar {
                            value: ex.value,
                            span_id,
                        });
                    }
                }
            }
        }
        self.last_frame_ms = Some(t_ms);
    }

    /// Replay a decoded segment into the store, oldest frame first.
    pub fn ingest_segment(&mut self, segment: &SegmentData) {
        for i in 0..segment.frames.len() {
            self.ingest(segment.frames[i].t_ms, &segment.frame_samples(i));
        }
    }

    /// Indices of series named `name` whose labels contain every pair
    /// in `labels` (subset match; `le` is a label like any other).
    #[must_use]
    pub fn find(&self, name: &str, labels: &[(String, String)]) -> Vec<usize> {
        self.series
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The series at `idx` (indices from [`Tsdb::find`]).
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&Series> {
        self.series.get(idx)
    }

    /// Windowed increase of a cumulative series over `[t0, t1]`,
    /// clamped at 0 (a counter reset yields 0, not a negative rate).
    /// When the window starts before the series' first point, that
    /// point anchors the left edge — attaching mid-flight never counts a
    /// server's whole uptime as one window. `None` when the series has
    /// no value at or before `t1`.
    #[must_use]
    pub fn delta(&self, idx: usize, t0_ms: u64, t1_ms: u64) -> Option<f64> {
        let series = self.series.get(idx)?;
        let v1 = series.value_at(t1_ms)?;
        // `value_at(t1)` answered, so the series has a first point.
        let v0 = series.value_at(t0_ms).unwrap_or(series.points[0].v);
        Some((v1 - v0).max(0.0))
    }

    /// Windowed per-second rate of a cumulative series over `[t0, t1]`.
    #[must_use]
    pub fn rate(&self, idx: usize, t0_ms: u64, t1_ms: u64) -> Option<f64> {
        if t1_ms <= t0_ms {
            return None;
        }
        let delta = self.delta(idx, t0_ms, t1_ms)?;
        Some(delta / ((t1_ms - t0_ms) as f64 / 1e3))
    }

    /// Sum of [`Tsdb::rate`] across every series matching
    /// `(name, labels)` — how a fleet-wide rate aggregates over shard
    /// labels. `None` when no matching series has data in the window.
    #[must_use]
    pub fn rate_sum(
        &self,
        name: &str,
        labels: &[(String, String)],
        t0_ms: u64,
        t1_ms: u64,
    ) -> Option<f64> {
        let mut found = false;
        let mut total = 0.0;
        for idx in self.find(name, labels) {
            if let Some(r) = self.rate(idx, t0_ms, t1_ms) {
                found = true;
                total += r;
            }
        }
        found.then_some(total)
    }

    /// The bucket-delta view of histogram `name{labels}` over
    /// `[t0, t1]`: cumulative bucket counts at the window edges
    /// subtracted per `le` and summed across matching series (shards),
    /// returned as ascending cumulative `(le, count)` pairs ending in
    /// the `+Inf` bucket. `None` when no bucket series has data.
    #[must_use]
    pub fn histogram_delta(
        &self,
        name: &str,
        labels: &[(String, String)],
        t0_ms: u64,
        t1_ms: u64,
    ) -> Option<Vec<(f64, f64)>> {
        let bucket_name = format!("{name}_bucket");
        let mut by_le: Vec<(f64, f64)> = Vec::new();
        let mut found = false;
        for idx in self.find(&bucket_name, labels) {
            let series = &self.series[idx];
            let Some(le) = series
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| parse_le(v))
            else {
                continue;
            };
            let Some(delta) = self.delta(idx, t0_ms, t1_ms) else {
                continue;
            };
            found = true;
            match by_le
                .iter_mut()
                .find(|(b, _)| *b == le || (b.is_infinite() && le.is_infinite()))
            {
                Some((_, c)) => *c += delta,
                None => by_le.push((le, delta)),
            }
        }
        if !found {
            return None;
        }
        by_le.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        Some(by_le)
    }

    /// Windowed `q`-quantile of histogram `name{labels}` over
    /// `[t0, t1]`, computed from bucket deltas. NaN when the window saw
    /// no samples; `None` when the histogram has no data at all.
    #[must_use]
    pub fn windowed_quantile(
        &self,
        name: &str,
        labels: &[(String, String)],
        t0_ms: u64,
        t1_ms: u64,
        q: f64,
    ) -> Option<f64> {
        let buckets = self.histogram_delta(name, labels, t0_ms, t1_ms)?;
        Some(quantile_from_cumulative(&buckets, q))
    }
}

/// Parse a `le` label value (`+Inf` included) to f64; NaN for garbage.
#[must_use]
pub fn parse_le(v: &str) -> f64 {
    match v {
        "+Inf" => f64::INFINITY,
        v => v.parse().unwrap_or(f64::NAN),
    }
}

/// Parse a `k=v,k2=v2` label filter into owned pairs, keys and values
/// trimmed. Empty pairs are skipped, so `""` means no constraint.
///
/// # Errors
///
/// Names the first pair without an `=`.
pub fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    s.split(',')
        .filter(|pair| !pair.trim().is_empty())
        .map(|pair| {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("label pair {pair:?} is not k=v"))?;
            Ok((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

/// Estimate the `q`-quantile from ascending **cumulative** `(le,
/// count)` buckets (the last entry conventionally `+Inf`). The estimate
/// is the upper bound of the bucket containing the target rank; a rank
/// landing in the `+Inf` bucket answers with the largest finite bound.
/// NaN for an empty window, a NaN `q`, or malformed buckets.
///
/// Shared between the SLO engine's windowed quantile rules and `evsim
/// top`'s per-poll bucket deltas, so "the p99 the dashboard shows" and
/// "the p99 the alert fired on" are the same number by construction.
#[must_use]
pub fn quantile_from_cumulative(buckets: &[(f64, f64)], q: f64) -> f64 {
    if buckets.is_empty() || q.is_nan() {
        return f64::NAN;
    }
    let total = buckets.last().map_or(0.0, |(_, c)| *c);
    if total <= 0.0 {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * total).ceil().max(1.0);
    let mut last_finite = f64::NAN;
    for &(le, cum) in buckets {
        if le.is_finite() {
            last_finite = le;
        }
        if cum >= rank {
            return if le.is_finite() { le } else { last_finite };
        }
    }
    last_finite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{parse_prometheus, to_prometheus};
    use crate::Snapshot;

    /// `snapshot`'s samples as a scrape of it reads them.
    fn snapshot_samples(snapshot: &Snapshot) -> Vec<PromSample> {
        parse_prometheus(&to_prometheus(snapshot)).expect("the exposition parses")
    }
    use crate::{HistogramSpec, Registry};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "ev-tsdb-{tag}-{}-{:?}.seg",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample(name: &str, labels: &[(&str, &str)], value: f64) -> PromSample {
        PromSample {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
            exemplar: None,
        }
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn segment_round_trips_counters_gauges_and_exemplars() {
        let path = temp_path("roundtrip");
        let mut w = SegmentWriter::create(&path).unwrap();
        let mut bucket = sample("lat_bucket", &[("le", "0.1")], 3.0);
        bucket.exemplar = Some(PromExemplar {
            labels: vec![("trace_id".to_string(), "42".to_string())],
            value: 0.07,
        });
        w.append(
            1000,
            &[
                sample("steps_total", &[("shard", "0")], 10.0),
                sample("queue_depth", &[], 2.5),
                bucket.clone(),
            ],
        )
        .unwrap();
        bucket.value = 5.0;
        w.append(
            2000,
            &[
                sample("steps_total", &[("shard", "0")], 25.0),
                sample("queue_depth", &[], -1.5),
                bucket,
            ],
        )
        .unwrap();
        drop(w);
        let seg = read_segment(&path).unwrap();
        assert!(!seg.truncated);
        assert_eq!(seg.series.len(), 3);
        assert_eq!(seg.series[0].kind, SeriesKind::Counter);
        assert_eq!(seg.series[1].kind, SeriesKind::Gauge);
        assert_eq!(seg.frames.len(), 2);
        assert_eq!(seg.frames[0].t_ms, 1000);
        assert_eq!(seg.frames[0].samples, vec![(0, 10.0), (1, 2.5), (2, 3.0)]);
        assert_eq!(seg.frames[1].samples, vec![(0, 25.0), (1, -1.5), (2, 5.0)]);
        // The exemplar arrived with frame 0 and did not repeat.
        assert_eq!(seg.frames[0].exemplars, vec![(2, 42, 0.07)]);
        assert!(seg.frames[1].exemplars.is_empty());
        let rehydrated = seg.frame_samples(0);
        assert_eq!(rehydrated[2].exemplar.as_ref().unwrap().span_id(), Some(42));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn counter_reset_is_encoded_as_negative_delta_and_survives() {
        let path = temp_path("reset");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(0, &[sample("hits_total", &[], 1000.0)]).unwrap();
        w.append(1000, &[sample("hits_total", &[], 3.0)]).unwrap(); // reset
        drop(w);
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.frames[1].samples, vec![(0, 3.0)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_skips_a_torn_final_record() {
        let path = temp_path("torn");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.append(1000, &[sample("a_total", &[], 1.0)]).unwrap();
        w.append(2000, &[sample("a_total", &[], 2.0)]).unwrap();
        drop(w);
        let intact = std::fs::read(&path).unwrap();
        let clean = read_segment(&path).unwrap();
        assert_eq!(clean.frames.len(), 2);
        assert!(!clean.truncated);
        // Walk the intact record framing to find the clean boundaries:
        // a cut landing exactly on one leaves a valid shorter file, any
        // other cut is a torn tail the reader must flag, never error on.
        let full = intact.len();
        let mut boundaries = vec![MAGIC.len()];
        let mut off = MAGIC.len();
        while off < full {
            let len = u32::from_le_bytes(intact[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
            boundaries.push(off);
        }
        assert_eq!(off, full, "intact file is record-aligned");
        for cut in 1..full - MAGIC.len() {
            std::fs::write(&path, &intact[..full - cut]).unwrap();
            let seg = read_segment(&path).expect("torn tail never errors");
            let aligned = boundaries.contains(&(full - cut));
            assert_eq!(seg.truncated, !aligned, "cut {cut}");
            // Whatever survives is a strict prefix of the true frames.
            let times: Vec<u64> = seg.frames.iter().map(|f| f.t_ms).collect();
            assert!([&[][..], &[1000], &[1000, 2000]].contains(&times.as_slice()));
            assert!(
                times.len() < 2,
                "cut {cut}: final frame cannot survive a cut"
            );
        }
        // A flipped byte mid-record (bad CRC) also stops cleanly.
        let mut corrupt = intact.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let seg = read_segment(&path).unwrap();
        assert!(seg.truncated);
        assert_eq!(seg.frames.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn not_a_segment_is_an_error_not_a_truncation() {
        let path = temp_path("nonseg");
        std::fs::write(&path, b"definitely not a segment").unwrap();
        assert!(read_segment(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crafted_records_end_the_decode_as_truncated() {
        // Payloads as varint fields; a one-byte name is its length, 1,
        // then the byte.
        let rec = |tag: u8, fields: &[u64]| {
            let mut p = vec![tag];
            fields.iter().for_each(|&f| put_varint(&mut p, f));
            p
        };
        let gauge_def = |n_labels| rec(REC_SERIES_DEF, &[0, 0, 1, u64::from(b'g'), n_labels]);
        let counter_frame = |delta| rec(REC_FRAME, &[1000, 1, 0, zigzag(delta)]);
        let cases = [
            // A frame that claims 2^60 samples, a series that claims
            // 2^60 labels, a name whose length overflows the position.
            vec![gauge_def(0), rec(REC_FRAME, &[1000, 1 << 60])],
            vec![gauge_def(1 << 60)],
            vec![rec(REC_SERIES_DEF, &[0, 0, u64::MAX])],
            // Counter deltas whose running sum overflows i64.
            vec![
                rec(REC_SERIES_DEF, &[1, 0, 1, u64::from(b'c'), 0]),
                counter_frame(i64::MAX),
                counter_frame(1),
            ],
        ];
        let path = temp_path("crafted");
        for (i, records) in cases.iter().enumerate() {
            let mut data = MAGIC.to_vec();
            for p in records {
                data.extend_from_slice(&(p.len() as u32).to_le_bytes());
                data.extend_from_slice(&crc32(p).to_le_bytes());
                data.extend_from_slice(p);
            }
            std::fs::write(&path, data).unwrap();
            let seg = read_segment(&path).expect("crafted records never error");
            assert!(seg.truncated, "case {i}");
        }
        // The frame before the overflowing one survives.
        assert_eq!(read_segment(&path).unwrap().frames.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_and_rate_use_windows_and_clamp_resets() {
        let mut db = Tsdb::new();
        db.ingest(0, &[sample("hits_total", &[("shard", "0")], 0.0)]);
        db.ingest(10_000, &[sample("hits_total", &[("shard", "0")], 100.0)]);
        db.ingest(20_000, &[sample("hits_total", &[("shard", "0")], 150.0)]);
        let idx = db.find("hits_total", &parse_labels("shard=0").unwrap())[0];
        assert_eq!(db.delta(idx, 0, 20_000), Some(150.0));
        assert_eq!(db.delta(idx, 10_000, 20_000), Some(50.0));
        assert_eq!(db.rate(idx, 10_000, 20_000), Some(5.0));
        // Window reaching before history anchors at the earliest point.
        assert_eq!(db.delta(idx, 0u64.wrapping_sub(0), 20_000), Some(150.0));
        // Reset: value drops; delta clamps to 0.
        db.ingest(30_000, &[sample("hits_total", &[("shard", "0")], 10.0)]);
        assert_eq!(db.delta(idx, 20_000, 30_000), Some(0.0));
        // rate_sum aggregates across shards.
        db.ingest(30_000, &[sample("hits_total", &[("shard", "1")], 0.0)]);
        db.ingest(40_000, &[sample("hits_total", &[("shard", "1")], 20.0)]);
        let total = db.rate_sum("hits_total", &[], 30_000, 40_000).unwrap();
        assert!((total - ((10.0 - 10.0) + 2.0)).abs() < 1e-9, "{total}");
        // A counter first seen after an earlier frame starts from 0 at
        // that frame's time; a gauge does not.
        db.ingest(
            50_000,
            &[sample("late_total", &[], 5.0), sample("late", &[], 3.0)],
        );
        let late = db.find("late_total", &[])[0];
        assert_eq!(db.delta(late, 0, 50_000), Some(5.0));
        assert_eq!(
            db.get(late).unwrap().points()[0],
            Point {
                t_ms: 40_000,
                v: 0.0
            }
        );
        assert_eq!(db.get(db.find("late", &[])[0]).unwrap().points().len(), 1);
        // A counter in the store's first frame gets no zero point.
        let mut fresh = Tsdb::new();
        fresh.ingest(1000, &[sample("up_total", &[], 7.0)]);
        assert_eq!(fresh.delta(0, 0, 1000), Some(0.0));
    }

    #[test]
    fn quantile_from_cumulative_walks_buckets() {
        let buckets = [
            (0.01, 0.0),
            (0.1, 90.0),
            (1.0, 99.0),
            (f64::INFINITY, 100.0),
        ];
        assert_eq!(quantile_from_cumulative(&buckets, 0.5), 0.1);
        assert_eq!(quantile_from_cumulative(&buckets, 0.95), 1.0);
        // Rank in the +Inf bucket answers the largest finite bound.
        assert_eq!(quantile_from_cumulative(&buckets, 1.0), 1.0);
        assert!(quantile_from_cumulative(&[], 0.5).is_nan());
        assert!(quantile_from_cumulative(&buckets, f64::NAN).is_nan());
        assert!(quantile_from_cumulative(&[(1.0, 0.0), (f64::INFINITY, 0.0)], 0.5).is_nan());
    }

    #[test]
    fn windowed_p99_matches_direct_recomputation_from_raw_snapshots() {
        // The acceptance criterion: the tsdb's windowed quantile must
        // equal subtracting two raw Snapshots' bucket counts by hand.
        let reg = Registry::enabled();
        let h = reg.histogram_with(
            "fleet_cmd_seconds",
            HistogramSpec::latency_seconds(),
            &[("cmd", "step"), ("shard", "0")],
        );
        let mut db = Tsdb::new();
        // Early transient: slow samples before the window opens.
        for _ in 0..50 {
            h.record(2.0);
        }
        let snap_t0 = reg.snapshot();
        db.ingest(10_000, &snapshot_samples(&snap_t0));
        // Inside the window: fast samples with a 2% slow tail, so the
        // p99 rank lands past the fast buckets.
        for i in 0..200 {
            h.record(if i % 50 == 0 { 0.5 } else { 0.002 });
        }
        let snap_t1 = reg.snapshot();
        db.ingest(20_000, &snapshot_samples(&snap_t1));

        let from_db = db
            .windowed_quantile(
                "fleet_cmd_seconds",
                &parse_labels("cmd=step").unwrap(),
                10_000,
                20_000,
                0.99,
            )
            .expect("histogram has data");

        // Direct recomputation: subtract the two snapshots' cumulative
        // bucket counts and walk the delta.
        let h0 = snap_t0
            .histograms
            .iter()
            .find(|h| h.name == "fleet_cmd_seconds")
            .unwrap();
        let h1 = snap_t1
            .histograms
            .iter()
            .find(|h| h.name == "fleet_cmd_seconds")
            .unwrap();
        let mut cum0 = 0u64;
        let mut cum1 = 0u64;
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for (i, le) in h1.bounds.iter().enumerate() {
            cum0 += h0.counts[i];
            cum1 += h1.counts[i];
            buckets.push((*le, (cum1 - cum0) as f64));
        }
        buckets.push((f64::INFINITY, (h1.count - h0.count) as f64));
        let direct = quantile_from_cumulative(&buckets, 0.99);
        assert_eq!(from_db, direct, "tsdb {from_db} vs direct {direct}");
        // And the window excludes the pre-window transient: its p99
        // reflects the 0.5 s tail, not the 2 s flood.
        assert!((0.1..=1.0).contains(&from_db), "windowed p99 {from_db}");
        // Whereas the cumulative-since-start p99 is dominated by it.
        let cumulative = snap_t1
            .histograms
            .iter()
            .find(|h| h.name == "fleet_cmd_seconds")
            .unwrap()
            .quantile(0.99);
        assert!(cumulative > 1.0, "cumulative p99 {cumulative}");
    }

    #[test]
    fn segment_replay_equals_live_ingest() {
        let path = temp_path("replay");
        let reg = Registry::enabled();
        let c = reg.counter("steps_total");
        let g = reg.gauge("depth");
        let mut w = SegmentWriter::create(&path).unwrap();
        let mut live = Tsdb::new();
        for t in 1..=5u64 {
            c.add(t * 3);
            g.set(t as f64 * 0.5);
            let samples = snapshot_samples(&reg.snapshot());
            w.append(t * 1000, &samples).unwrap();
            live.ingest(t * 1000, &samples);
        }
        drop(w);
        let mut replayed = Tsdb::new();
        replayed.ingest_segment(&read_segment(&path).unwrap());
        assert_eq!(live.series().len(), replayed.series().len());
        for (a, b) in live.series().iter().zip(replayed.series().iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.points(), b.points(), "{}", a.name);
        }
        let _ = std::fs::remove_file(&path);
    }
}
