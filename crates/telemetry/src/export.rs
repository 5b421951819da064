//! Exporters: the Prometheus text exposition with its one strict
//! reader, [`parse_prometheus`], and a human-readable end-of-run report
//! table.

use std::io;
use std::path::Path;

use crate::metrics::Exemplar;
use crate::registry::{HistogramSnapshot, Snapshot};

/// Escape a label value for the Prometheus exposition format. The spec
/// defines exactly three escapes inside label values: `\\`, `\"` and
/// `\n` — everything else is literal.
pub(crate) fn prom_label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a sorted label set as `{k="v",k2="v2"}`, with `extra`
/// (e.g. `le` on bucket series) appended last. Empty input renders as
/// the empty string so unlabeled series look exactly as before.
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&prom_label_escape(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Format an f64 for the Prometheus text exposition format. The format
/// *has* spellings for non-finite values — `NaN`, `+Inf`, `-Inf` — and
/// those exact tokens are the only valid ones (`null` or Rust's `inf`
/// would break every scraper).
pub(crate) fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Render the snapshot in the Prometheus text exposition format:
/// `# TYPE` headers (one per metric family — labeled series of the same
/// name share it), label sets rendered as `name{shard="3",cmd="step"}`,
/// cumulative `_bucket{...,le="..."}` series ending in `le="+Inf"`, and
/// `_sum`/`_count` series per histogram.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    // Snapshots are sorted by (name, labels), so series of one family
    // are adjacent and the TYPE header is emitted on each name change.
    let mut last_type_header = String::new();
    let mut type_header = |out: &mut String, name: &str, kind: &str| {
        if last_type_header != name {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_type_header = name.to_string();
        }
    };
    for c in &snapshot.counters {
        type_header(&mut out, &c.name, "counter");
        out.push_str(&format!(
            "{}{} {}\n",
            c.name,
            prom_labels(&c.labels, None),
            c.value
        ));
    }
    for g in &snapshot.gauges {
        type_header(&mut out, &g.name, "gauge");
        out.push_str(&format!(
            "{}{} {}\n",
            g.name,
            prom_labels(&g.labels, None),
            prom_f64(g.value)
        ));
    }
    for h in &snapshot.histograms {
        type_header(&mut out, &h.name, "histogram");
        let labels = prom_labels(&h.labels, None);
        let mut cumulative = 0u64;
        for (i, (le, count)) in h.bounds.iter().zip(h.counts.iter()).enumerate() {
            cumulative += count;
            out.push_str(&format!(
                "{}_bucket{} {}{}\n",
                h.name,
                prom_labels(&h.labels, Some(("le", &prom_f64(*le)))),
                cumulative,
                prom_exemplar_suffix(bucket_exemplar(h, i))
            ));
        }
        out.push_str(&format!(
            "{}_bucket{} {}{}\n",
            h.name,
            prom_labels(&h.labels, Some(("le", "+Inf"))),
            h.count,
            prom_exemplar_suffix(bucket_exemplar(h, h.counts.len().saturating_sub(1)))
        ));
        out.push_str(&format!("{}_sum{} {}\n", h.name, labels, prom_f64(h.sum)));
        out.push_str(&format!("{}_count{} {}\n", h.name, labels, h.count));
    }
    out
}

/// The exemplar of bucket `i`, if one was ever recorded there.
fn bucket_exemplar(h: &HistogramSnapshot, i: usize) -> Option<Exemplar> {
    h.exemplars.get(i).copied().flatten()
}

/// Render an exemplar as the OpenMetrics ` # {trace_id="…"} value`
/// suffix for a bucket line, or the empty string for `None` — so
/// histograms that never recorded an exemplar expose byte-identical
/// lines to the pre-exemplar format.
fn prom_exemplar_suffix(ex: Option<Exemplar>) -> String {
    match ex {
        Some(ex) => format!(" # {{trace_id=\"{}\"}} {}", ex.span_id, prom_f64(ex.value)),
        None => String::new(),
    }
}

/// Write `contents` to `path` **atomically**, creating missing parent
/// directories first — so exporting to `target/telemetry/run.prom`
/// works even when no part of that tree exists yet.
///
/// The write lands in a uniquely-named temporary file in the *same
/// directory* and is published with a rename, so a concurrent reader —
/// a scraper polling the metrics file, a tail-follower on a report —
/// only ever sees the previous complete contents or the new complete
/// contents, never a truncated file mid-write.
///
/// # Errors
///
/// Propagates io errors from directory creation, the temporary-file
/// write, or the rename; on failure the temporary file is removed.
pub fn write_text(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // Unique within the process (counter) and across processes (pid);
    // same directory as the target so the rename cannot cross a
    // filesystem boundary.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(format!(".{}-", std::process::id()));
    tmp_name.push(file_name);
    tmp_name.push(format!(".{seq}.tmp"));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse a label set from `chars`, which must be positioned just past
/// the opening `{`; consumes through the closing `}`. Strict by design:
/// label values must be double-quoted, the only recognised escapes are
/// `\\`, `\"` and `\n` (unknown escapes are an error, not a literal),
/// and duplicate label names are rejected. A trailing comma before `}`
/// is allowed, as the exposition format permits.
fn parse_label_set(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<Vec<(String, String)>, String> {
    let mut labels: Vec<(String, String)> = Vec::new();
    loop {
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let mut key = String::new();
        loop {
            match chars.next() {
                Some('=') => break,
                Some(c) if c.is_ascii_alphanumeric() || c == '_' => key.push(c),
                Some(c) => return Err(format!("unexpected {c:?} in label name")),
                None => return Err("unterminated label set".to_string()),
            }
        }
        if !valid_label_name(&key) {
            return Err(format!("bad label name {key:?}"));
        }
        if labels.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate label {key:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("unquoted label value for {key:?}"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    Some(c) => return Err(format!("unknown escape \\{c} in label value")),
                    None => return Err("unterminated label value".to_string()),
                },
                Some(c) => value.push(c),
                None => return Err("unterminated label value".to_string()),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            Some(c) => return Err(format!("expected ',' or '}}' after label, got {c:?}")),
            None => return Err("unterminated label set".to_string()),
        }
    }
    Ok(labels)
}

/// Parse a sample-value token: a finite decimal or one of the exact
/// spellings `NaN`, `+Inf`, `-Inf`. `null` (JSON leakage) and Rust's
/// `inf`/`-inf` debug spellings are rejected.
fn parse_value_token(token: &str) -> Result<f64, String> {
    match token {
        "NaN" => Ok(f64::NAN),
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        token => match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("invalid sample value {token:?}")),
        },
    }
}

/// One parsed exemplar from an OpenMetrics-style
/// ` # {trace_id="…"} value [timestamp]` suffix on a bucket line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromExemplar {
    /// Unescaped exemplar label pairs in source order (conventionally a
    /// single `trace_id`).
    pub labels: Vec<(String, String)>,
    /// The exemplar's observed value.
    pub value: f64,
}

impl PromExemplar {
    /// The `trace_id` exemplar label, if present.
    #[must_use]
    pub fn trace_id(&self) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == "trace_id")
            .map(|(_, v)| v.as_str())
    }

    /// The `trace_id` parsed as the numeric span id this crate's
    /// [`crate::TraceRing`] hands out, if it is one.
    #[must_use]
    pub fn span_id(&self) -> Option<u64> {
        self.trace_id().and_then(|v| v.parse().ok())
    }
}

/// One parsed sample from a Prometheus text exposition: the metric
/// name, its unescaped label pairs in source order, the value
/// (non-finite for the `NaN`/`±Inf` tokens), and the exemplar when the
/// line carried one.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The metric name (for histograms this includes the `_bucket`,
    /// `_sum` or `_count` suffix — the parser does not reassemble
    /// families).
    pub name: String,
    /// Unescaped label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// The OpenMetrics exemplar attached to the line, if any.
    pub exemplar: Option<PromExemplar>,
}

impl PromSample {
    /// The value of label `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse one non-comment exposition line left to right: name, optional
/// label set, value, optional exemplar. Sequential parsing (rather than
/// splitting on the last space) is what lets label values contain
/// spaces *and* lets an exemplar suffix follow the value unambiguously.
fn parse_sample_line(line: &str) -> Result<PromSample, String> {
    let mut chars = line.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> usize {
        let mut n = 0;
        while matches!(chars.peek(), Some(' ' | '\t')) {
            chars.next();
            n += 1;
        }
        n
    };
    let take_token = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> String {
        let mut tok = String::new();
        while let Some(&c) = chars.peek() {
            if c == ' ' || c == '\t' {
                break;
            }
            tok.push(c);
            chars.next();
        }
        tok
    };
    let mut name = String::new();
    while let Some(&c) = chars.peek() {
        if c == '{' || c == ' ' || c == '\t' {
            break;
        }
        name.push(c);
        chars.next();
    }
    if !valid_metric_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let labels = if chars.peek() == Some(&'{') {
        chars.next();
        parse_label_set(&mut chars)?
    } else {
        Vec::new()
    };
    for (key, val) in &labels {
        if key == "le" {
            parse_value_token(val).map_err(|msg| format!("bucket bound: {msg}"))?;
        }
    }
    if skip_ws(&mut chars) == 0 {
        return match chars.peek() {
            Some(_) => Err("trailing characters after label set".to_string()),
            None => Err("sample line without a value".to_string()),
        };
    }
    let value = parse_value_token(&take_token(&mut chars))?;
    skip_ws(&mut chars);
    let exemplar = if chars.peek() == Some(&'#') {
        chars.next();
        skip_ws(&mut chars);
        if chars.next() != Some('{') {
            return Err("exemplar must open with a label set".to_string());
        }
        let elabels = parse_label_set(&mut chars).map_err(|msg| format!("exemplar: {msg}"))?;
        if skip_ws(&mut chars) == 0 {
            return Err("exemplar without a value".to_string());
        }
        let evalue =
            parse_value_token(&take_token(&mut chars)).map_err(|msg| format!("exemplar: {msg}"))?;
        skip_ws(&mut chars);
        if chars.peek().is_some() {
            // OpenMetrics allows an exemplar timestamp; accept a finite
            // decimal and discard it.
            let ts = take_token(&mut chars);
            match ts.parse::<f64>() {
                Ok(v) if v.is_finite() => {}
                _ => return Err(format!("invalid exemplar timestamp {ts:?}")),
            }
        }
        Some(PromExemplar {
            labels: elabels,
            value: evalue,
        })
    } else {
        None
    };
    skip_ws(&mut chars);
    if chars.peek().is_some() {
        return Err("trailing characters after sample".to_string());
    }
    Ok(PromSample {
        name,
        labels,
        value,
        exemplar,
    })
}

/// Parse a Prometheus text exposition into its samples, strictly.
///
/// Enforces the failure modes this workspace has actually shipped:
/// every sample value and every `le` label must be a finite decimal or
/// one of the exact tokens `NaN`, `+Inf`, `-Inf` — `null` (JSON
/// leakage) and Rust's `inf`/`-inf` spellings are rejected — metric
/// names must be well-formed, `# TYPE` comments must name a known type,
/// label sets must parse strictly (quoted values, known escapes only,
/// no duplicate label names), and an OpenMetrics ` # {…} value`
/// exemplar suffix, when present, must parse under the same rules.
/// Consumers like `evsim scrape`, the `evsim top` dashboard and the
/// tsdb recorder build their views from the returned list.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let err = |msg: String| Err(format!("line {}: {msg}", idx + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let Some(name) = parts.next() else {
                    return err("# TYPE without a metric name".to_string());
                };
                if !valid_metric_name(name) {
                    return err(format!("bad metric name {name:?} in # TYPE"));
                }
                match parts.next() {
                    Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                    other => return err(format!("bad metric type {other:?}")),
                }
            }
            continue;
        }
        match parse_sample_line(line) {
            Ok(sample) => samples.push(sample),
            Err(msg) => return err(msg),
        }
    }
    Ok(samples)
}

fn fmt_cell(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Display name for a series in human-readable tables: the metric name
/// with its label set appended in exposition syntax when present.
fn series_display(name: &str, labels: &[(String, String)]) -> String {
    format!("{}{}", name, prom_labels(labels, None))
}

fn report_row(h: &HistogramSnapshot) -> [String; 7] {
    [
        series_display(&h.name, &h.labels),
        h.count.to_string(),
        fmt_cell(h.mean()),
        fmt_cell(h.quantile(0.5)),
        fmt_cell(h.quantile(0.99)),
        fmt_cell(if h.count == 0 { f64::NAN } else { h.min }),
        fmt_cell(if h.count == 0 { f64::NAN } else { h.max }),
    ]
}

/// Render a fixed-width, human-readable report of every metric in the
/// snapshot: a counter table followed by a histogram table with count,
/// mean, p50, p99, min and max columns.
pub fn render_report(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if snapshot.is_empty() {
        out.push_str("telemetry: no metrics recorded (registry disabled?)\n");
        return out;
    }
    if !snapshot.counters.is_empty() {
        let names: Vec<String> = snapshot
            .counters
            .iter()
            .map(|c| series_display(&c.name, &c.labels))
            .collect();
        let name_w = names
            .iter()
            .map(|n| n.len())
            .chain(["counter".len()])
            .max()
            .unwrap_or(7);
        out.push_str(&format!("{:<name_w$}  {:>12}\n", "counter", "value"));
        for (c, name) in snapshot.counters.iter().zip(names.iter()) {
            out.push_str(&format!("{name:<name_w$}  {:>12}\n", c.value));
        }
    }
    if !snapshot.gauges.is_empty() {
        if !snapshot.counters.is_empty() {
            out.push('\n');
        }
        let names: Vec<String> = snapshot
            .gauges
            .iter()
            .map(|g| series_display(&g.name, &g.labels))
            .collect();
        let name_w = names
            .iter()
            .map(|n| n.len())
            .chain(["gauge".len()])
            .max()
            .unwrap_or(5);
        out.push_str(&format!("{:<name_w$}  {:>12}\n", "gauge", "value"));
        for (g, name) in snapshot.gauges.iter().zip(names.iter()) {
            out.push_str(&format!("{name:<name_w$}  {:>12}\n", fmt_cell(g.value)));
        }
    }
    if !snapshot.histograms.is_empty() {
        if !snapshot.counters.is_empty() || !snapshot.gauges.is_empty() {
            out.push('\n');
        }
        let header = [
            "histogram".to_string(),
            "count".to_string(),
            "mean".to_string(),
            "p50".to_string(),
            "p99".to_string(),
            "min".to_string(),
            "max".to_string(),
        ];
        let rows: Vec<[String; 7]> = snapshot.histograms.iter().map(report_row).collect();
        let mut widths = [0usize; 7];
        for row in std::iter::once(&header).chain(rows.iter()) {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let render = |row: &[String; 7]| {
            let mut line = format!("{:<w$}", row[0], w = widths[0]);
            for (cell, w) in row.iter().zip(widths.iter()).skip(1) {
                line.push_str(&format!("  {cell:>w$}"));
            }
            line.push('\n');
            line
        };
        out.push_str(&render(&header));
        for row in &rows {
            out.push_str(&render(row));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistogramSpec, Registry};

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::enabled();
        reg.counter("hits_total").add(42);
        let h = reg.histogram("lat_seconds", HistogramSpec::new(1e-3, 10.0, 3));
        for v in [0.002, 0.002, 0.05, 2.0, 30.0] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let out = to_prometheus(&sample_snapshot());
        assert!(out.contains("# TYPE hits_total counter\nhits_total 42\n"));
        assert!(out.contains("lat_seconds_bucket{le=\"0.001\"} 0\n"));
        assert!(out.contains("lat_seconds_bucket{le=\"0.01\"} 2\n"));
        assert!(out.contains("lat_seconds_bucket{le=\"0.1\"} 3\n"));
        assert!(out.contains("lat_seconds_bucket{le=\"+Inf\"} 5\n"));
        assert!(out.contains("lat_seconds_count 5\n"));
    }

    #[test]
    fn prometheus_nan_sum_uses_the_spec_spelling_not_null() {
        // Infinite samples pass the histogram's NaN filter, and a +Inf
        // followed by a -Inf leaves the running sum NaN; the exposition
        // format spells that `NaN` — `null` is JSON and breaks
        // scrapers.
        let reg = Registry::enabled();
        let h = reg.histogram("poisoned_seconds", HistogramSpec::new(1e-3, 10.0, 3));
        h.record(0.5);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        let out = to_prometheus(&reg.snapshot());
        assert!(out.contains("poisoned_seconds_sum NaN\n"), "{out}");
        assert!(!out.contains("null"), "JSON null leaked: {out}");
        assert!(!out.to_lowercase().contains(" inf"), "bare inf: {out}");
        parse_prometheus(&out).expect("exposition must stay parseable");
    }

    #[test]
    fn prometheus_infinite_bucket_bound_renders_plus_inf() {
        // An explicitly infinite bound must come out as `+Inf`, not
        // Rust's `inf` debug spelling.
        let snapshot = Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![HistogramSnapshot {
                name: "weird_seconds".to_string(),
                labels: Vec::new(),
                bounds: vec![1.0, f64::INFINITY],
                counts: vec![1, 2, 0],
                count: 3,
                sum: f64::NEG_INFINITY,
                min: f64::NEG_INFINITY,
                max: 1.0,
                exemplars: vec![None; 3],
            }],
        };
        let out = to_prometheus(&snapshot);
        assert!(
            out.contains("weird_seconds_bucket{le=\"+Inf\"} 3\n"),
            "{out}"
        );
        assert!(out.contains("weird_seconds_sum -Inf\n"), "{out}");
        assert!(!out.contains("\"inf\""), "debug inf spelling leaked: {out}");
        parse_prometheus(&out).expect("exposition must stay parseable");
    }

    #[test]
    fn validator_counts_samples_and_rejects_json_and_debug_spellings() {
        let n = parse_prometheus(&to_prometheus(&sample_snapshot()))
            .unwrap()
            .len();
        // 1 counter + 3 finite buckets + +Inf bucket + sum + count.
        assert_eq!(n, 7);
        for bad in [
            "m_sum null\n",
            "m_bucket{le=\"inf\"} 1\n",
            "m_sum inf\n",
            "m_sum -inf\n",
            "m_sum nan\n",
            "m_bucket{le=0.1} 1\n",
            "9metric 1\n",
            "just_a_name\n",
            "# TYPE m weird\n",
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_prometheus("m_sum NaN\nm_total +Inf\n\n# free comment\n").is_ok());
    }

    fn labeled_snapshot() -> Snapshot {
        let reg = Registry::enabled();
        reg.counter_with("fleet_steps_total", &[("shard", "0")])
            .add(10);
        reg.counter_with("fleet_steps_total", &[("shard", "1")])
            .add(20);
        reg.gauge_with("fleet_queue_depth", &[("shard", "0")])
            .set(3.0);
        let h = reg.histogram_with(
            "fleet_cmd_seconds",
            HistogramSpec::new(1e-3, 10.0, 3),
            &[("cmd", "step"), ("shard", "0")],
        );
        h.record(0.002);
        h.record(0.5);
        reg.snapshot()
    }

    #[test]
    fn prometheus_labeled_series_render_and_round_trip() {
        let out = to_prometheus(&labeled_snapshot());
        // One TYPE header per family, not per labeled series.
        assert_eq!(out.matches("# TYPE fleet_steps_total counter").count(), 1);
        assert!(out.contains("fleet_steps_total{shard=\"0\"} 10\n"), "{out}");
        assert!(out.contains("fleet_steps_total{shard=\"1\"} 20\n"), "{out}");
        assert!(out.contains("# TYPE fleet_queue_depth gauge\n"), "{out}");
        assert!(
            out.contains("fleet_queue_depth{shard=\"0\"} 3.0\n"),
            "{out}"
        );
        // Bucket series merge the series labels with `le`, labels first.
        assert!(
            out.contains("fleet_cmd_seconds_bucket{cmd=\"step\",shard=\"0\",le=\"0.01\"} 1\n"),
            "{out}"
        );
        assert!(
            out.contains("fleet_cmd_seconds_bucket{cmd=\"step\",shard=\"0\",le=\"+Inf\"} 2\n"),
            "{out}"
        );
        assert!(
            out.contains("fleet_cmd_seconds_count{cmd=\"step\",shard=\"0\"} 2\n"),
            "{out}"
        );
        let n = parse_prometheus(&out)
            .expect("labeled exposition validates")
            .len();
        // 2 counters + 1 gauge + (3 buckets + Inf + sum + count).
        assert_eq!(n, 9);
    }

    #[test]
    fn parse_prometheus_returns_typed_samples() {
        let samples = parse_prometheus(&to_prometheus(&labeled_snapshot())).expect("parses");
        assert_eq!(samples.len(), 9);
        let shard1 = samples
            .iter()
            .find(|s| s.name == "fleet_steps_total" && s.label("shard") == Some("1"))
            .expect("shard 1 series");
        assert_eq!(shard1.value, 20.0);
        let inf_bucket = samples
            .iter()
            .find(|s| s.name == "fleet_cmd_seconds_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf_bucket.value, 2.0);
        assert_eq!(inf_bucket.label("cmd"), Some("step"));
        // NaN gauges survive the round trip as NaN values.
        let nan = parse_prometheus("g NaN\n").expect("parses");
        assert!(nan[0].value.is_nan());
        // Invalid expositions are rejected, not partially parsed.
        assert!(parse_prometheus("g null\n").is_err());
    }

    #[test]
    fn bucket_exemplars_render_openmetrics_suffix_and_round_trip() {
        let reg = Registry::enabled();
        let h = reg.histogram("lat_seconds", HistogramSpec::new(1e-3, 10.0, 3));
        h.record(0.002); // no exemplar
        h.record_with_exemplar(0.05, 4242); // bucket le=0.1
        let out = to_prometheus(&reg.snapshot());
        assert!(
            out.contains("lat_seconds_bucket{le=\"0.1\"} 2 # {trace_id=\"4242\"} 0.05\n"),
            "{out}"
        );
        // Untraced buckets keep the byte-identical pre-exemplar line.
        assert!(out.contains("lat_seconds_bucket{le=\"0.01\"} 1\n"), "{out}");
        parse_prometheus(&out).expect("exemplar exposition validates");
        let samples = parse_prometheus(&out).expect("parses");
        let with_ex = samples
            .iter()
            .find(|s| s.exemplar.is_some())
            .expect("one sample carries the exemplar");
        assert_eq!(with_ex.name, "lat_seconds_bucket");
        assert_eq!(with_ex.label("le"), Some("0.1"));
        let ex = with_ex.exemplar.as_ref().unwrap();
        assert_eq!(ex.trace_id(), Some("4242"));
        assert_eq!(ex.span_id(), Some(4242));
        assert_eq!(ex.value, 0.05);
    }

    #[test]
    fn exemplar_suffix_parsing_is_strict() {
        // A valid exemplar, with and without the optional timestamp.
        assert!(parse_prometheus("m_bucket{le=\"1\"} 2 # {trace_id=\"7\"} 0.5\n").is_ok());
        assert!(parse_prometheus("m_bucket{le=\"1\"} 2 # {trace_id=\"7\"} 0.5 1234.5\n").is_ok());
        for bad in [
            "m_bucket{le=\"1\"} 2 # trace_id=\"7\" 0.5\n", // no label set braces
            "m_bucket{le=\"1\"} 2 # {trace_id=\"7\"}\n",   // no exemplar value
            "m_bucket{le=\"1\"} 2 # {trace_id=\"7\"} null\n", // bad exemplar value
            "m_bucket{le=\"1\"} 2 # {trace_id=\"7\"} 0.5 zz\n", // bad timestamp
            "m_bucket{le=\"1\"} 2 # {trace_id=\"7\"} 0.5 1 2\n", // trailing garbage
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn label_values_with_specials_escape_and_round_trip() {
        let reg = Registry::enabled();
        let tricky = "quote\" slash\\ newline\n end";
        reg.counter_with("odd_total", &[("note", tricky)]).inc();
        let out = to_prometheus(&reg.snapshot());
        assert!(
            out.contains("odd_total{note=\"quote\\\" slash\\\\ newline\\n end\"} 1\n"),
            "{out}"
        );
        // Round-trip: the parser recovers the original value exactly.
        let samples = parse_prometheus(&out).expect("escaped labels validate");
        assert_eq!(samples[0].name, "odd_total");
        assert_eq!(
            samples[0].labels,
            vec![("note".to_string(), tricky.to_string())]
        );
    }

    #[test]
    fn validator_rejects_malformed_label_sets() {
        for bad in [
            "m{a=\"1\",a=\"2\"} 1\n", // duplicate label
            "m{a=\"1\"b=\"2\"} 1\n",  // missing comma
            "m{a=\"1} 1\n",           // unterminated value
            "m{a=\"x\\q\"} 1\n",      // unknown escape
            "m{9a=\"1\"} 1\n",        // bad label name
            "m{a=\"1\"}x 1\n",        // trailing garbage
            "m{le=\"zzz\"} 1\n",      // non-numeric bucket bound
            "m{a=1} 1\n",             // unquoted value
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted {bad:?}");
        }
        // Spaces and commas inside quoted values are fine, as is a
        // trailing comma before the closing brace.
        for good in ["m{a=\"x, y z\"} 1\n", "m{a=\"1\",} 1\n", "m{} 1\n"] {
            assert!(parse_prometheus(good).is_ok(), "rejected {good:?}");
        }
    }

    #[test]
    fn report_renders_gauges_and_labeled_names() {
        let out = render_report(&labeled_snapshot());
        assert!(out.contains("gauge"), "{out}");
        assert!(out.contains("fleet_queue_depth{shard=\"0\"}"), "{out}");
        assert!(
            out.contains("fleet_cmd_seconds{cmd=\"step\",shard=\"0\"}"),
            "{out}"
        );
    }

    #[test]
    fn write_text_is_atomic_rename_leaving_no_temp_files() {
        let dir = std::env::temp_dir().join(format!(
            "ev-export-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics.prom");
        write_text(&path, "first\n").unwrap();
        write_text(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // The temp file must not survive a successful publish.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "metrics.prom")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_and_readers_never_observe_a_torn_file() {
        let dir = std::env::temp_dir().join(format!(
            "ev-export-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.prom");
        let a = "a".repeat(64 * 1024);
        let b = "b".repeat(64 * 1024);
        write_text(&path, &a).unwrap();
        std::thread::scope(|scope| {
            let writer_path = path.clone();
            let (a, b) = (&a, &b);
            scope.spawn(move || {
                for i in 0..50 {
                    let contents = if i % 2 == 0 { b } else { a };
                    write_text(&writer_path, contents).unwrap();
                }
            });
            for _ in 0..200 {
                let seen = std::fs::read_to_string(&path).unwrap();
                assert!(
                    seen == *a || seen == *b,
                    "torn read: {} bytes, first char {:?}",
                    seen.len(),
                    seen.chars().next()
                );
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_mentions_all_metrics() {
        let out = render_report(&sample_snapshot());
        assert!(out.contains("hits_total"));
        assert!(out.contains("lat_seconds"));
        assert!(out.contains("p99"));
    }

    #[test]
    fn empty_report_is_flagged() {
        let out = render_report(&Snapshot::default());
        assert!(out.contains("no metrics recorded"));
    }

    #[test]
    fn prometheus_of_empty_or_disabled_registry_is_empty() {
        assert_eq!(to_prometheus(&Snapshot::default()), "");
        assert_eq!(to_prometheus(&Registry::disabled().snapshot()), "");
        // An enabled registry with no metrics registered is equally empty.
        assert_eq!(to_prometheus(&Registry::enabled().snapshot()), "");
    }

    #[test]
    fn write_text_creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!(
            "ev-export-write-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a").join("b").join("metrics.jsonl");
        write_text(&path, "hello\n").expect("write succeeds");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello\n");
        // Bare file names (no parent component) must also work. The
        // probe lands in the process cwd, so give it a unique name and
        // guard the removal against a failing expect.
        struct Probe(std::path::PathBuf);
        impl Drop for Probe {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let probe = Probe(std::path::PathBuf::from(format!(
            ".write-text-probe-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )));
        write_text(&probe.0, "x").expect("bare file name works");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
