//! `loadgen`, `serve`, `scrape` and `top`: a synthetic fleet and its
//! live scrape endpoint.
//!
//! - `loadgen` drives a deterministic synthetic fleet through the
//!   session engine and prints the throughput/latency report (same seed
//!   → same deterministic fields and fleet digest).
//! - `serve` exposes the fleet telemetry registry as a Prometheus text
//!   scrape endpoint on plain TCP. With `--burst-sessions` a loadgen
//!   burst populates the registry first; `--for-seconds 0` exits as soon
//!   as the burst is done (the endpoint stays up during it).
//! - `scrape` is a one-shot probe: it fetches /metrics, validates the
//!   exposition strictly (no `null`/`inf` tokens) and optionally
//!   requires a populated histogram or counter, exiting non-zero on any
//!   violation.
//! - `top` is a polling terminal dashboard over the scrape endpoint:
//!   per-shard live sessions, queue depth, step counts, park/shed
//!   totals, step latency p50/p99 and the MPC solve-outcome mix,
//!   refreshed in place. `--once` prints a single snapshot and exits
//!   (non-zero if no per-shard series are populated), which is what CI
//!   asserts on.

use evclimate::core::fleet::{render_loadgen_report, run_loadgen, LoadgenConfig};
use evclimate::core::ControllerSetup;
use evclimate::telemetry::export::PromSample;
use evclimate::telemetry::tsdb::{parse_le, quantile_from_cumulative};
use evclimate::telemetry::{export, scrape_once, Registry, ScrapeServer};

use super::{controller_setup, interval, loadgen_config, Args};

pub(super) fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let config = loadgen_config(args, "sessions", "steps", LoadgenConfig::default())?;
    if config.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    let setup = ControllerSetup {
        telemetry: Registry::enabled(),
        ..controller_setup(args)?
    };
    let report = run_loadgen(&config, &setup);
    print!("{}", render_loadgen_report(&report));
    Ok(())
}

pub(super) fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let hold = args.get_secs("for-seconds", 0.0)?;
    let defaults = LoadgenConfig {
        sessions: 0,
        steps_per_session: 60,
        ..LoadgenConfig::default()
    };
    let burst = loadgen_config(args, "burst-sessions", "burst-steps", defaults)?;
    let registry = Registry::enabled();
    let setup = ControllerSetup {
        telemetry: registry.clone(),
        ..controller_setup(args)?
    };

    let mut server =
        ScrapeServer::bind(addr, registry.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
    // CI and scripts parse this line to learn the bound port; keep the
    // format stable and flush before any long-running burst.
    println!("serving metrics at http://{}/metrics", server.addr());
    println!("ready");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if burst.sessions > 0 {
        let report = run_loadgen(&burst, &setup);
        print!("{}", render_loadgen_report(&report));
        let _ = std::io::stdout().flush();
    }

    std::thread::sleep(hold);
    server.shutdown();
    Ok(())
}

/// One-shot scrape probe: fetch, parse strictly, and enforce the
/// optional `--require-*` population checks. Fleet metrics are
/// per-shard labeled series, so a counter or histogram count is summed
/// across label sets. Returns the report text.
pub(super) fn probe_scrape(
    addr: &str,
    require_histogram: Option<&str>,
    require_counter: Option<&str>,
) -> Result<String, String> {
    let text = scrape_once(addr)?;
    let samples = export::parse_prometheus(&text)
        .map_err(|e| format!("invalid Prometheus exposition from {addr}: {e}"))?;
    let mut report = format!(
        "scrape ok: {} samples from http://{addr}/metrics\n",
        samples.len()
    );
    if let Some(name) = require_histogram {
        let count = series_sum(&samples, &format!("{name}_count"), None)
            .ok_or_else(|| format!("histogram '{name}' missing from scrape"))?;
        if count <= 0.0 {
            return Err(format!("histogram '{name}' is present but empty (count 0)"));
        }
        report.push_str(&format!("histogram {name}: count {count}\n"));
    }
    if let Some(name) = require_counter {
        let value = series_sum(&samples, name, None)
            .ok_or_else(|| format!("counter '{name}' missing from scrape"))?;
        if value <= 0.0 {
            return Err(format!("counter '{name}' is present but zero"));
        }
        report.push_str(&format!("counter {name}: {value}\n"));
    }
    Ok(report)
}

pub(super) fn cmd_scrape(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or("missing --addr <host:port>")?;
    let report = probe_scrape(
        addr,
        args.get("require-histogram"),
        args.get("require-counter"),
    )?;
    print!("{report}");
    Ok(())
}

/// Summed value of every sample named `name`, optionally restricted to
/// one `shard` label value; `None` when no series matches.
pub(super) fn series_sum(samples: &[PromSample], name: &str, shard: Option<&str>) -> Option<f64> {
    let mut sum = 0.0;
    let mut found = false;
    for s in samples.iter().filter(|s| s.name == name) {
        if let Some(want) = shard {
            if s.label("shard") != Some(want) {
                continue;
            }
        }
        sum += s.value;
        found = true;
    }
    found.then_some(sum)
}

/// Cumulative `(le, count)` pairs of the `fleet_cmd_seconds` step-latency
/// histogram, sorted by bound (`+Inf` last); summed across shards when
/// `shard` is `None` (all shards share the spec, so identical bounds
/// line up).
fn step_buckets(samples: &[PromSample], shard: Option<&str>) -> Vec<(f64, f64)> {
    let mut acc: Vec<(f64, f64)> = Vec::new();
    for s in samples
        .iter()
        .filter(|s| s.name == "fleet_cmd_seconds_bucket" && s.label("cmd") == Some("step"))
    {
        if let Some(want) = shard {
            if s.label("shard") != Some(want) {
                continue;
            }
        }
        let le = s.label("le").map_or(f64::NAN, parse_le);
        if le.is_nan() {
            continue;
        }
        match acc
            .iter_mut()
            .find(|(bound, _)| *bound == le || (bound.is_infinite() && le.is_infinite()))
        {
            Some((_, count)) => *count += s.value,
            None => acc.push((le, s.value)),
        }
    }
    acc.sort_by(|a, b| a.0.total_cmp(&b.0));
    acc
}

/// Subtract a previous poll's cumulative buckets from the current ones,
/// clamping at zero — the same bucket-delta construction the SLO
/// engine's windowed quantiles use, so `evsim top` and the alerts read
/// the same number.
pub(super) fn bucket_delta(cur: &[(f64, f64)], prev: &[(f64, f64)]) -> Vec<(f64, f64)> {
    cur.iter()
        .map(|&(le, c)| {
            let p = prev
                .iter()
                .find(|(ple, _)| *ple == le || (ple.is_infinite() && le.is_infinite()))
                .map_or(0.0, |&(_, pc)| pc);
            (le, (c - p).max(0.0))
        })
        .collect()
}

/// `0.42` seconds → `"420.00"` (ms); `-` / `inf` for NaN / +Inf.
pub(super) fn fmt_ms(seconds: f64) -> String {
    if seconds.is_nan() {
        "-".to_owned()
    } else if seconds.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{:.2}", seconds * 1e3)
    }
}

/// The MPC solve-outcome mix as `conv/maxit/stall/err`, or `-` when the
/// fleet runs a solver-less controller (no outcome counters minted).
fn outcome_mix(samples: &[PromSample], shard: Option<&str>) -> String {
    let outcomes = [
        "mpc_solve_converged_total",
        "mpc_solve_max_iterations_total",
        "mpc_solve_stalled_total",
        "mpc_solve_errors_total",
    ];
    let values: Vec<Option<f64>> = outcomes
        .iter()
        .map(|name| series_sum(samples, name, shard))
        .collect();
    if values.iter().all(Option::is_none) {
        return "-".to_owned();
    }
    values
        .iter()
        .map(|v| format!("{:.0}", v.unwrap_or(0.0)))
        .collect::<Vec<_>>()
        .join("/")
}

/// Render one dashboard frame from a parsed scrape. With `prev` (the
/// previous poll), latency quantiles are **windowed**: bucket deltas
/// between the polls, so p50/p99 describe the last interval instead of
/// the whole process lifetime. Without it (first frame, `--once`) they
/// are cumulative. Errors when no per-shard labeled series are present
/// — the `--once` CI probe treats that as "the fleet engine never
/// ran", not an empty table.
pub(super) fn render_top(
    addr: &str,
    samples: &[PromSample],
    prev: Option<&[PromSample]>,
) -> Result<String, String> {
    let mut shards: Vec<u64> = samples
        .iter()
        .filter_map(|s| s.label("shard"))
        .filter_map(|v| v.parse().ok())
        .collect();
    shards.sort_unstable();
    shards.dedup();
    if shards.is_empty() {
        return Err(format!(
            "no per-shard series in scrape from {addr} (has the fleet engine run?)"
        ));
    }
    let mut out = format!(
        "evsim top — http://{addr}/metrics ({} samples, {} shards, {} latency)\n",
        samples.len(),
        shards.len(),
        if prev.is_some() {
            "windowed"
        } else {
            "cumulative"
        }
    );
    out.push_str(&format!(
        "{:>5} {:>6} {:>6} {:>10} {:>8} {:>7} {:>9} {:>9}  {}\n",
        "shard",
        "live",
        "queue",
        "steps",
        "parked",
        "shed",
        "p50 ms",
        "p99 ms",
        "conv/maxit/stall/err"
    ));
    let mut row = |label: &str, shard: Option<&str>| {
        let count = |name: &str| {
            series_sum(samples, name, shard).map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"))
        };
        let mut buckets = step_buckets(samples, shard);
        if let Some(prev) = prev {
            buckets = bucket_delta(&buckets, &step_buckets(prev, shard));
        }
        out.push_str(&format!(
            "{:>5} {:>6} {:>6} {:>10} {:>8} {:>7} {:>9} {:>9}  {}\n",
            label,
            count("fleet_live_sessions"),
            count("fleet_queue_depth"),
            count("fleet_steps_total"),
            count("fleet_commands_parked_total"),
            count("fleet_commands_shed_total"),
            fmt_ms(quantile_from_cumulative(&buckets, 0.50)),
            fmt_ms(quantile_from_cumulative(&buckets, 0.99)),
            outcome_mix(samples, shard),
        ));
    };
    for shard in &shards {
        let shard = shard.to_string();
        row(&shard, Some(&shard));
    }
    if shards.len() > 1 {
        row("all", None);
    }
    Ok(out)
}

pub(super) fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or("missing --addr <host:port>")?;
    let interval = interval(args, 2.0)?;
    let once = args.flag("once");
    use std::io::Write as _;
    // The previous poll's samples: present from the second frame on,
    // which flips the latency columns from cumulative to windowed.
    let mut prev: Option<Vec<PromSample>> = None;
    loop {
        let text = scrape_once(addr)?;
        let parsed = export::parse_prometheus(&text)
            .map_err(|e| format!("invalid exposition from {addr}: {e}"));
        let frame = parsed
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|samples| render_top(addr, samples, prev.as_deref()));
        if once {
            print!("{}", frame?);
            return Ok(());
        }
        match frame {
            // ANSI clear + home, so the table refreshes in place.
            Ok(view) => print!("\x1b[2J\x1b[H{view}"),
            Err(msg) => print!(
                "\x1b[2J\x1b[H{msg}\nretrying every {} s\n",
                interval.as_secs_f64()
            ),
        }
        prev = parsed.ok();
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}
