//! `record`, `query` and `slo`: fleet health history in a tsdb segment,
//! and its replay.
//!
//! - `record` writes fleet health history into a crash-safe tsdb
//!   segment. With `--addr` it polls an existing scrape endpoint;
//!   otherwise it runs a loadgen burst in-process and samples its
//!   registry once before the burst and then every `--interval` while it
//!   runs. `--trace-out` also writes the burst's (shard, session,
//!   command, MPC solve) spans as Chrome trace JSON — loadable in
//!   Perfetto or chrome://tracing, and what histogram exemplars resolve
//!   against; `--sample` keeps every Nth session and `--capacity` bounds
//!   the ring (oldest events are overwritten past it).
//!   `--max-sqp-iterations` is the fault-injection hook the SLO CI job
//!   breaches on.
//! - `query` reads a recorded segment: it lists its series, computes a
//!   windowed rate or bucket-delta quantile over the trailing window, or
//!   lists histogram exemplars — resolving each trace-span id against a
//!   Chrome-trace export so a p99 exemplar points at the exact solve.
//! - `slo` replays a recorded segment through SLO rules (gauge levels,
//!   bucket-delta quantiles, multi-window burn rates), printing alert
//!   transitions and a final per-rule verdict. It exits non-zero if any
//!   alert ever fired — the CI contract: a healthy soak passes, a
//!   fault-injected one fails. To judge a live endpoint, `record --addr`
//!   it first.

use std::time::Instant;

use evclimate::core::fleet::{render_loadgen_report, run_loadgen, LoadgenConfig};
use evclimate::core::ControllerSetup;
use evclimate::telemetry::slo::{self, SloEngine};
use evclimate::telemetry::tsdb::{self, parse_labels, Tsdb};
use evclimate::telemetry::{export, scrape_once, trace, Registry, TraceRing};

use super::{controller_setup, interval, loadgen_config, Args};

/// Wall-clock milliseconds since the Unix epoch — the frame timestamps
/// tsdb segments carry.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// `name{k="v",...}` for display (no escaping — labels here come from
/// mint sites, not parsed input).
fn fmt_series(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

pub(super) fn cmd_record(args: &Args) -> Result<(), String> {
    let out_path = args.get("out").unwrap_or("fleet.evts");
    // Every flag is read before the segment is created, so a bad value
    // leaves an existing `--out` untouched.
    let create = || {
        tsdb::SegmentWriter::create(std::path::Path::new(out_path))
            .map_err(|e| format!("{out_path}: {e}"))
    };
    let writer = if let Some(addr) = args.get("addr") {
        // Poll an existing scrape endpoint.
        let interval = interval(args, 1.0)?;
        let for_seconds = args.get_secs("for-seconds", 10.0)?;
        let mut writer = create()?;
        let start = Instant::now();
        loop {
            let text = scrape_once(addr)?;
            let samples = export::parse_prometheus(&text)
                .map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
            writer
                .append(now_ms(), &samples)
                .map_err(|e| format!("{out_path}: {e}"))?;
            if start.elapsed() >= for_seconds {
                break;
            }
            std::thread::sleep(interval);
        }
        writer
    } else {
        // Run a loadgen burst in-process and sample its registry live.
        let interval = interval(args, 0.05)?;
        let config = loadgen_config(args, "sessions", "steps", LoadgenConfig::default())?;
        if config.sessions == 0 {
            return Err("--sessions must be at least 1".into());
        }
        let sample = args.get_int("sample", 1)?;
        if sample == 0 {
            return Err("--sample must be at least 1".into());
        }
        let trace_out = args.get("trace-out");
        let registry = Registry::enabled();
        let trace = match trace_out {
            Some(_) => TraceRing::sampled(args.get_int("capacity", 65_536)?, sample),
            None => TraceRing::disabled(),
        };
        let setup = ControllerSetup {
            telemetry: registry.clone(),
            trace: trace.clone(),
            ..controller_setup(args)?
        };
        let mut writer = create()?;
        let append = |writer: &mut tsdb::SegmentWriter| {
            let exposition = export::to_prometheus(&registry.snapshot());
            let samples = export::parse_prometheus(&exposition)?;
            writer
                .append(now_ms(), &samples)
                .map_err(|e| format!("{out_path}: {e}"))
        };
        // A frame before the burst, so every counter the burst mints
        // starts from a recorded zero (see `Tsdb::ingest`) however soon
        // the burst ends.
        append(&mut writer)?;
        let worker = {
            let config = config.clone();
            std::thread::spawn(move || run_loadgen(&config, &setup))
        };
        loop {
            std::thread::sleep(interval);
            if worker.is_finished() {
                break;
            }
            append(&mut writer)?;
        }
        let report = worker.join().map_err(|_| "loadgen thread panicked")?;
        // One final frame so the segment always carries the shutdown
        // totals and the complete histograms.
        append(&mut writer)?;
        print!("{}", render_loadgen_report(&report));
        if let Some(path) = trace_out {
            export::write_text(std::path::Path::new(path), &trace.to_chrome_json())
                .map_err(|e| format!("{path}: {e}"))?;
            println!(
                "chrome trace written to {path} ({} events, {} overwritten)",
                trace.events().len(),
                trace.dropped()
            );
        }
        writer
    };
    println!("recorded {} frames to {out_path}", writer.frames());
    Ok(())
}

/// Span id → event over a Chrome-trace export, for resolving histogram
/// exemplars back to the spans that produced them.
fn trace_span_index(
    path: &str,
) -> Result<std::collections::HashMap<u64, evclimate::telemetry::TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = trace::parse_chrome_json(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(events.into_iter().map(|e| (e.id, e)).collect())
}

/// The segment `--segment` names; an error unless it holds a complete
/// frame.
fn read_segment_flag(args: &Args) -> Result<(&str, tsdb::SegmentData), String> {
    let path = args.get("segment").ok_or("missing --segment <seg.evts>")?;
    let segment = tsdb::read_segment(std::path::Path::new(path))?;
    if segment.frames.is_empty() {
        return Err(format!("{path}: segment holds no complete frames"));
    }
    if segment.truncated {
        eprintln!("note: {path} has a torn tail; using the intact prefix");
    }
    Ok((path, segment))
}

pub(super) fn cmd_query(args: &Args) -> Result<(), String> {
    let (seg_path, segment) = read_segment_flag(args)?;
    let mut db = Tsdb::new();
    db.ingest_segment(&segment);
    let t1 = segment.frames.last().map_or(0, |f| f.t_ms);

    if args.flag("exemplars") || args.get("trace").is_some() {
        let index = match args.get("trace") {
            Some(path) => Some(trace_span_index(path)?),
            None => None,
        };
        let mut shown = 0usize;
        let mut resolved = 0usize;
        for s in db.series() {
            let Some(ex) = &s.exemplar else { continue };
            shown += 1;
            let mut line = format!(
                "{} value={} span_id={}",
                fmt_series(&s.name, &s.labels),
                ex.value,
                ex.span_id
            );
            if let Some(index) = &index {
                match index.get(&ex.span_id) {
                    Some(span) => {
                        resolved += 1;
                        line.push_str(&format!(
                            " -> span {} @{:.0}us dur={:.0}us",
                            span.name,
                            span.ts_ns as f64 / 1e3,
                            span.dur_ns as f64 / 1e3
                        ));
                    }
                    None => line.push_str(" -> UNRESOLVED (span evicted from the ring?)"),
                }
            }
            println!("{line}");
        }
        println!("{shown} exemplars");
        if let Some(index) = &index {
            println!("{resolved} resolved against {} trace spans", index.len());
            if shown > 0 && resolved == 0 {
                return Err("no exemplar resolved against the trace".into());
            }
        }
        return Ok(());
    }

    match args.get("metric") {
        None => {
            println!(
                "{seg_path}: {} series, {} frames, {:.1} s span{}",
                segment.series.len(),
                segment.frames.len(),
                (t1.saturating_sub(segment.frames[0].t_ms)) as f64 / 1e3,
                if segment.truncated {
                    " (truncated)"
                } else {
                    ""
                }
            );
            for s in db.series() {
                let latest = s.latest().map_or(f64::NAN, |p| p.v);
                println!(
                    "{:<60} {:>5} pts latest {latest}",
                    fmt_series(&s.name, &s.labels),
                    s.points().len(),
                );
            }
        }
        Some(metric) => {
            let labels = parse_labels(args.get("labels").unwrap_or(""))
                .map_err(|e| format!("--labels: {e}"))?;
            let window_s: u64 = args.get_int("window-s", 60)?;
            let t0 = t1.saturating_sub(window_s.saturating_mul(1000));
            if let Some(q_raw) = args.get("quantile") {
                let q: f64 = q_raw
                    .parse()
                    .map_err(|_| format!("--quantile expects a number, got '{q_raw}'"))?;
                let v = db
                    .windowed_quantile(metric, &labels, t0, t1, q)
                    .ok_or_else(|| format!("no {metric}_bucket series match"))?;
                println!("{metric} p{:.0} over {window_s}s: {v}", q * 100.0);
            } else if args.flag("rate") {
                let v = db
                    .rate_sum(metric, &labels, t0, t1)
                    .ok_or_else(|| format!("no {metric} series match"))?;
                println!("{metric} rate over {window_s}s: {v:.3}/s");
            } else {
                let matches = db.find(metric, &labels);
                if matches.is_empty() {
                    return Err(format!("no series named {metric} match the label filter"));
                }
                for idx in matches {
                    let s = &db.series()[idx];
                    let latest = s.latest().map_or(f64::NAN, |p| p.v);
                    println!("{} {latest}", fmt_series(&s.name, &s.labels));
                }
            }
        }
    }
    Ok(())
}

/// The built-in rule set `evsim slo` evaluates when no `--rules` file is
/// given: a step-latency quantile ceiling, a queue-depth guard, and the
/// solve-iteration error budget the CI fault-injection job breaches.
pub(super) const DEFAULT_SLO_RULES: &str = r#"
# Windowed p99 of fleet step handling must stay under 250 ms.
[[slo]]
name = "step-p99-latency"
kind = "quantile"
metric = "fleet_cmd_seconds"
labels = "cmd=step"
q = 0.99
window_s = 10
threshold = 0.25

# Shard command queues must not stay saturated.
[[slo]]
name = "queue-depth"
kind = "gauge"
metric = "fleet_queue_depth"
threshold = 1000
for_s = 2

# Error budget: at most 25% of MPC solves may hit the iteration cap.
# Burn must exceed 1x over BOTH windows to page (multi-window rule).
[[slo]]
name = "solve-iteration-budget"
kind = "burn_rate"
bad_metric = "mpc_solve_max_iterations_total"
total_metric = "mpc_solves_total"
objective = 0.25
fast_window_s = 2
slow_window_s = 8
threshold = 1.0
"#;

/// One rendered status line per rule.
pub(super) fn render_slo_status(statuses: &[slo::RuleStatus]) -> String {
    let mut out = String::new();
    for s in statuses {
        let value = s
            .value
            .map_or_else(|| "no data".to_owned(), |v| format!("{v:.4}"));
        out.push_str(&format!(
            "{:>8}  {:<24} value {value} (breach when > {})\n",
            s.state.to_string(),
            s.name,
            s.threshold
        ));
    }
    out
}

pub(super) fn cmd_slo(args: &Args) -> Result<(), String> {
    let rules_text = match args.get("rules") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => DEFAULT_SLO_RULES.to_owned(),
    };
    let rules = slo::parse_config(&rules_text)?;
    if rules.is_empty() {
        return Err("rule set is empty".into());
    }
    let (seg_path, segment) = read_segment_flag(args)?;
    let mut engine = SloEngine::new(rules);
    let mut db = Tsdb::new();
    let mut last: Vec<slo::RuleStatus> = Vec::new();
    for i in 0..segment.frames.len() {
        let t = segment.frames[i].t_ms;
        db.ingest(t, &segment.frame_samples(i));
        let statuses = engine.evaluate(&db, t);
        // One line per state transition, so a replayed soak reads as an
        // alert timeline.
        for s in &statuses {
            let changed = last
                .iter()
                .find(|p| p.name == s.name)
                .is_none_or(|p| p.state != s.state);
            if changed {
                let value = s
                    .value
                    .map_or_else(|| "no data".to_owned(), |v| format!("{v:.4}"));
                println!("[{t}] {}: {} (value {value})", s.name, s.state);
            }
        }
        last = statuses;
    }
    println!(
        "--- {} frames replayed from {seg_path} ---",
        segment.frames.len()
    );
    print!("{}", render_slo_status(&last));
    if engine.ever_fired() {
        return Err("SLO breach: at least one alert fired during the run".into());
    }
    println!("all SLOs held");
    Ok(())
}
