//! `evsim` — command-line driver for the evclimate simulator.
//!
//! ```text
//! evsim cycles
//!     List the built-in drive cycles and their statistics.
//!
//! evsim simulate --cycle <name> --controller <onoff|fuzzy|pid|mpc>
//!                [--ambient <°C>] [--target <°C>] [--precondition]
//!                [--json <path>] [--telemetry <path.jsonl>]
//!                [--flight-recorder <path.jsonl>] [--max-sqp-iterations <n>]
//!     Run one closed-loop simulation and print the metrics; optionally
//!     dump the full result (time series included) as JSON, the
//!     telemetry snapshot (solver + plant metrics) as JSONL, and/or the
//!     MPC flight recording (decision records + realized steps) as
//!     JSONL. `--max-sqp-iterations` caps the SQP solver (useful for
//!     forcing `max_iterations` outcomes when exercising the recorder).
//!
//! evsim compare --cycle <name> [--ambient <°C>] [--precondition]
//!     Run the paper's three-controller comparison on one cycle.
//!
//! evsim validate-telemetry <path.jsonl>
//!     Check a telemetry JSONL dump against the metric-line schema.
//!
//! evsim explain <dump.jsonl>
//!     Validate a flight-recorder dump and render it as a constraint-
//!     activation timeline plus a per-decision attribution table.
//!
//! evsim loadgen [--sessions <n>] [--steps <n>] [--chunk <n>] [--seed <n>]
//!               [--shards <n>] [--queue-capacity <n>]
//!               [--controller <onoff|fuzzy|pid|mpc>] [--max-sqp-iterations <n>]
//!     Drive a deterministic synthetic fleet through the session engine
//!     and print the throughput/latency report (same seed → same
//!     deterministic fields and fleet digest).
//!
//! evsim serve [--addr <host:port>] [--for-seconds <n>]
//!             [--burst-sessions <n>] [--burst-steps <n>] [--seed <n>]
//!     Expose the fleet telemetry registry as a Prometheus text scrape
//!     endpoint on plain TCP. With `--burst-sessions` a loadgen burst
//!     populates the registry first; `--for-seconds 0` exits as soon as
//!     the burst is done (the endpoint stays up during it).
//!
//! evsim scrape --addr <host:port> [--require-histogram <name>]
//!              [--require-counter <name>]
//!     One-shot scrape probe: fetch /metrics, validate the exposition
//!     strictly (no `null`/`inf` tokens) and optionally require a
//!     populated histogram/counter. Exits non-zero on any violation.
//!
//! evsim top --addr <host:port> [--interval <secs>] [--once]
//!     Polling terminal dashboard over the scrape endpoint: per-shard
//!     live sessions, queue depth, step counts, park/shed totals, step
//!     latency p50/p99 and the MPC solve-outcome mix, refreshed in
//!     place. `--once` prints a single snapshot and exits (non-zero if
//!     no per-shard series are populated), which is what CI asserts on.
//!
//! evsim trace [--out <path.json>] [--sample <modulus>]
//!             [--capacity <events>] [loadgen flags]
//!     Run a loadgen burst with the trace ring enabled and write the
//!     captured (shard, session, command, MPC solve) spans as Chrome
//!     trace JSON — loadable in Perfetto / chrome://tracing. `--sample`
//!     keeps every Nth session; `--capacity` bounds the ring (oldest
//!     events are overwritten past it).
//!
//! evsim record [--out <seg.evts>] [--interval <secs>]
//!              (--addr <host:port> [--for-seconds <n>] |
//!               [loadgen flags] [--max-sqp-iterations <n>]
//!               [--trace-out <path.json>] [--sample <modulus>]
//!               [--capacity <events>])
//!     Record fleet health history into a crash-safe tsdb segment.
//!     With `--addr`, polls an existing scrape endpoint; otherwise runs
//!     a loadgen burst in-process and samples its registry while it
//!     runs (`--trace-out` additionally captures the Chrome trace that
//!     histogram exemplars resolve against; `--max-sqp-iterations` is
//!     the fault-injection hook the SLO CI job breaches on).
//!
//! evsim query --segment <seg.evts> [--metric <name>] [--labels k=v,..]
//!             [--window-s <n>] [--quantile <q> | --rate]
//!             [--exemplars [--trace <path.json>]]
//!     Query a recorded segment: list its series, compute a windowed
//!     rate or bucket-delta quantile over the trailing window, or list
//!     histogram exemplars — resolving each trace-span id against a
//!     Chrome-trace export so a p99 exemplar points at the exact solve.
//!
//! evsim slo [--rules <path.toml>] [--once]
//!           (--segment <seg.evts> |
//!            --addr <host:port> [--interval <secs>] [--for-seconds <n>])
//!     Evaluate SLO rules (windowed rates, bucket-delta quantiles,
//!     multi-window burn rates) over a recorded segment or a live
//!     endpoint, printing alert transitions and a final per-rule
//!     verdict. Exits non-zero if any alert ever fired — the CI
//!     contract: a healthy soak passes, a fault-injected one fails.
//! ```

use std::process::ExitCode;

use evclimate::control::CONSTRAINT_ROW_LABELS;
use evclimate::core::fleet::{render_loadgen_report, run_loadgen, LoadgenConfig};
use evclimate::core::{
    ControllerKind, ControllerSetup, EvParams, FlightRecorderObserver, Simulation,
    SimulationResult, TelemetryObserver,
};
use evclimate::drive::{AmbientConditions, DriveCycle, DriveProfile};
use evclimate::telemetry::export::PromSample;
use evclimate::telemetry::slo::{self, SloEngine};
use evclimate::telemetry::tsdb::{self, quantile_from_cumulative, Tsdb};
use evclimate::telemetry::{
    export, scrape_once, FlightRecorder, Registry, ScrapeServer, TraceRing,
};
use evclimate::units::{Celsius, Seconds};

fn usage() -> &'static str {
    "usage:\n  evsim cycles\n  evsim simulate --cycle <name> --controller <onoff|fuzzy|pid|mpc> \
     [--ambient <°C>] [--target <°C>] [--precondition] [--json <path>] \
     [--telemetry <path.jsonl>] [--flight-recorder <path.jsonl>] \
     [--max-sqp-iterations <n>]\n  \
     evsim compare --cycle <name> [--ambient <°C>] [--precondition]\n  \
     evsim validate-telemetry <path.jsonl>\n  \
     evsim explain <dump.jsonl>\n  \
     evsim loadgen [--sessions <n>] [--steps <n>] [--chunk <n>] [--seed <n>] \
     [--shards <n>] [--queue-capacity <n>] [--controller <name>] \
     [--max-sqp-iterations <n>]\n  \
     evsim serve [--addr <host:port>] [--for-seconds <n>] \
     [--burst-sessions <n>] [--burst-steps <n>] [--seed <n>]\n  \
     evsim scrape --addr <host:port> [--require-histogram <name>] \
     [--require-counter <name>]\n  \
     evsim top --addr <host:port> [--interval <secs>] [--once]\n  \
     evsim trace [--out <path.json>] [--sample <modulus>] \
     [--capacity <events>] [loadgen flags]\n  \
     evsim record [--out <seg.evts>] [--interval <secs>] \
     (--addr <host:port> [--for-seconds <n>] | [loadgen flags] \
     [--max-sqp-iterations <n>] [--trace-out <path.json>])\n  \
     evsim query --segment <seg.evts> [--metric <name>] [--labels k=v,..] \
     [--window-s <n>] [--quantile <q> | --rate] [--exemplars [--trace <path.json>]]\n  \
     evsim slo [--rules <path.toml>] [--once] (--segment <seg.evts> | \
     --addr <host:port> [--interval <secs>] [--for-seconds <n>])"
}

/// Looks up a built-in cycle by (case-insensitive) name.
fn cycle_by_name(name: &str) -> Option<DriveCycle> {
    match name.to_ascii_lowercase().as_str() {
        "nedc" => Some(DriveCycle::nedc()),
        "ece15" | "ece-15" => Some(DriveCycle::ece15()),
        "eudc" => Some(DriveCycle::eudc()),
        "ece_eudc" | "ece-eudc" => Some(DriveCycle::ece_eudc()),
        "us06" => Some(DriveCycle::us06()),
        "sc03" => Some(DriveCycle::sc03()),
        "udds" => Some(DriveCycle::udds()),
        "wltc" | "wltc3" | "wltc-3" => Some(DriveCycle::wltc_class3()),
        _ => None,
    }
}

fn controller_by_name(name: &str) -> Option<ControllerKind> {
    match name.to_ascii_lowercase().as_str() {
        "onoff" | "on-off" => Some(ControllerKind::OnOff),
        "fuzzy" => Some(ControllerKind::Fuzzy),
        "pid" => Some(ControllerKind::Pid),
        "mpc" | "lifetime" => Some(ControllerKind::Mpc),
        _ => None,
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean `--flags`.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_owned(), (*v).clone()));
                    it.next();
                }
                _ => flags.push(key.to_owned()),
            }
        }
        Ok(Self { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }

    fn get_int<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a non-negative integer, got '{v}'")),
        }
    }
}

fn build_sim(args: &Args) -> Result<(EvParams, Simulation), String> {
    let cycle_name = args.get("cycle").ok_or("missing --cycle")?;
    let cycle = cycle_by_name(cycle_name)
        .ok_or_else(|| format!("unknown cycle '{cycle_name}' (try: evsim cycles)"))?;
    let ambient = args.get_f64("ambient", 35.0)?;
    let target = args.get_f64("target", 24.0)?;
    let mut params = EvParams::nissan_leaf_like();
    params.target = Celsius::new(target);
    if args.flag("precondition") {
        params.initial_cabin = Some(params.target);
    }
    let profile = DriveProfile::from_cycle(
        &cycle,
        AmbientConditions::constant(Celsius::new(ambient)),
        Seconds::new(1.0),
    );
    let sim = Simulation::new(params.clone(), profile).map_err(|e| e.to_string())?;
    Ok((params, sim))
}

fn print_metrics(result: &SimulationResult) {
    let m = result.metrics();
    println!("profile:        {}", result.profile);
    println!("controller:     {}", result.controller);
    println!("distance:       {:.2} km", m.distance.value());
    println!(
        "energy:         {:.3} kWh ({:.2} kWh/100km)",
        m.energy.value(),
        m.kwh_per_100km
    );
    println!("avg HVAC power: {:.3} kW", m.avg_hvac_power.value());
    println!("final SoC:      {:.2} %", m.final_soc);
    println!(
        "SoC avg/dev:    {:.2} / {:.3} %",
        m.soc_stats.avg, m.soc_stats.dev
    );
    println!(
        "ΔSoH:           {:.3} m% per cycle ({:.0} cycles to 80 %)",
        m.delta_soh_milli_percent, m.cycles_to_eol
    );
    println!(
        "comfort:        {} violations, worst {:.2} K, mean |ΔT| {:.2} K",
        m.comfort_violations, m.max_comfort_excursion, m.mean_temp_error
    );
}

fn cmd_cycles() {
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>10}",
        "cycle", "time s", "dist km", "avg km/h", "max km/h"
    );
    let mut cycles = DriveCycle::paper_evaluation_set();
    cycles.push(DriveCycle::wltc_class3());
    for c in cycles {
        let s = c.stats();
        println!(
            "{:<10} {:>9.0} {:>10.2} {:>10.1} {:>10.1}",
            c.name(),
            s.duration.value(),
            s.distance.value(),
            s.avg_speed.to_kilometers_per_hour().value(),
            s.max_speed.to_kilometers_per_hour().value(),
        );
    }
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let controller_name = args.get("controller").ok_or("missing --controller")?;
    let kind = controller_by_name(controller_name)
        .ok_or_else(|| format!("unknown controller '{controller_name}'"))?;
    let (params, sim) = build_sim(args)?;
    let telemetry_path = args.get("telemetry");
    let recorder_path = args.get("flight-recorder");
    let registry = Registry::with_enabled(telemetry_path.is_some());
    // With a dump path configured, solver failures (max-iter, structural
    // errors) auto-dump the window at the moment of failure; a healthy
    // run writes its final window once at the end.
    let recorder = match recorder_path {
        Some(path) => {
            FlightRecorder::enabled(FlightRecorder::DEFAULT_CAPACITY).with_auto_dump(path)
        }
        None => FlightRecorder::disabled(),
    };
    let setup = ControllerSetup {
        telemetry: registry.clone(),
        recorder: recorder.clone(),
        ..controller_setup(args)?
    };
    let mut controller = kind
        .instantiate_configured(&params, &setup)
        .map_err(|e| e.to_string())?;
    let mut observer = (
        TelemetryObserver::new(&registry),
        FlightRecorderObserver::new(&recorder),
    );
    let result = sim
        .run_observed(controller.as_mut(), &mut observer)
        .map_err(|e| e.to_string())?;
    print_metrics(&result);
    if let Some(path) = args.get("json") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        export::write_text(std::path::Path::new(path), &json).map_err(|e| e.to_string())?;
        println!("full result written to {path}");
    }
    if let Some(path) = telemetry_path {
        let snapshot = registry.snapshot();
        export::write_text(std::path::Path::new(path), &export::to_jsonl(&snapshot))
            .map_err(|e| e.to_string())?;
        println!("\n{}", export::render_report(&snapshot));
        println!("telemetry written to {path}");
    }
    if let Some(path) = recorder_path {
        if let Some(err) = recorder.last_dump_error() {
            eprintln!("warning: last flight-recorder auto-dump failed: {err}");
        }
        // A fired auto-dump preserved the window around the failing
        // solve; writing the end-of-run window to the same path would
        // overwrite that post-mortem (and for an early failure the ring
        // may have evicted it by now).
        if recorder.auto_dumps() > 0 {
            println!(
                "flight recording at {path} preserves the last solver failure \
                 ({} auto-dump(s); end-of-run dump skipped)",
                recorder.auto_dumps()
            );
        } else {
            recorder
                .dump_to(std::path::Path::new(path), "end of simulation")
                .map_err(|e| e.to_string())?;
            println!(
                "flight recording written to {path} ({} records, {} dropped)",
                recorder.len(),
                recorder.dropped()
            );
        }
    }
    Ok(())
}

/// One parsed JSONL metric line, kept as the raw value tree so the
/// schema check can inspect it field by field (the vendored `Value`
/// deliberately has no blanket `Deserialize`).
struct RawLine(serde::Value);

impl serde::Deserialize for RawLine {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self(v.clone()))
    }
}

/// Validates one telemetry JSONL line against the exporter's schema.
fn validate_metric_line(line: &str) -> Result<&'static str, String> {
    let RawLine(v) = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let kind = v
        .field("type")
        .and_then(serde::Value::as_str)
        .map_err(|e| e.to_string())?;
    let name = v
        .field("name")
        .and_then(serde::Value::as_str)
        .map_err(|e| e.to_string())?;
    if name.is_empty() {
        return Err("empty metric name".to_owned());
    }
    // A `labels` object is optional (unlabeled series omit it); when
    // present every value must be a string and every key non-empty.
    if let Ok(labels) = v.field("labels") {
        let serde::Value::Map(pairs) = labels else {
            return Err(format!("{name}: labels is not an object"));
        };
        for (key, value) in pairs {
            if key.is_empty() {
                return Err(format!("{name}: empty label name"));
            }
            if !matches!(value, serde::Value::Str(_)) {
                return Err(format!("{name}: label '{key}' value is not a string"));
            }
        }
    }
    let num = |key: &str| -> Result<f64, String> {
        v.field(key)
            .and_then(serde::Value::as_num)
            .map_err(|e| format!("{name}: {e}"))
    };
    match kind {
        "counter" => {
            let value = num("value")?;
            if value < 0.0 || value.fract() != 0.0 {
                return Err(format!("{name}: counter value {value} is not a natural"));
            }
            Ok("counter")
        }
        "gauge" => {
            // Gauges take any float; non-finite values serialize as JSON
            // `null` (JSON has no NaN/Inf literal).
            match v.field("value").map_err(|e| format!("{name}: {e}"))? {
                serde::Value::Null => {}
                other => {
                    other.as_num().map_err(|e| format!("{name}: {e}"))?;
                }
            }
            Ok("gauge")
        }
        "histogram" => {
            let count = num("count")?;
            let overflow = num("overflow")?;
            num("sum")?;
            // min/max are null (not numbers) exactly when the histogram
            // is empty.
            for key in ["min", "max"] {
                let is_null =
                    matches!(v.field(key).map_err(|e| e.to_string())?, serde::Value::Null);
                if is_null != (count == 0.0) {
                    return Err(format!("{name}: {key} null-ness disagrees with count"));
                }
            }
            let serde::Value::Seq(buckets) = v.field("buckets").map_err(|e| e.to_string())? else {
                return Err(format!("{name}: buckets is not an array"));
            };
            let mut in_buckets = 0.0;
            let mut prev_le = f64::NEG_INFINITY;
            for b in buckets {
                let le = b
                    .field("le")
                    .and_then(serde::Value::as_num)
                    .map_err(|e| format!("{name}: {e}"))?;
                if le <= prev_le {
                    return Err(format!("{name}: bucket bounds not increasing at {le}"));
                }
                prev_le = le;
                in_buckets += b
                    .field("count")
                    .and_then(serde::Value::as_num)
                    .map_err(|e| format!("{name}: {e}"))?;
            }
            if in_buckets + overflow != count {
                return Err(format!(
                    "{name}: bucket counts {in_buckets} + overflow {overflow} != count {count}"
                ));
            }
            Ok("histogram")
        }
        other => Err(format!("{name}: unknown metric type '{other}'")),
    }
}

fn cmd_validate_telemetry(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut counters = 0usize;
    let mut gauges = 0usize;
    let mut histograms = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match validate_metric_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))? {
            "counter" => counters += 1,
            "gauge" => gauges += 1,
            _ => histograms += 1,
        }
    }
    if counters + gauges + histograms == 0 {
        return Err(format!("{path}: no metric lines"));
    }
    println!("{path}: OK ({counters} counters, {gauges} gauges, {histograms} histograms)");
    Ok(())
}

/// A map-field number, as a `String`-error result (the explain renderer
/// threads line numbers into these).
fn num_field(v: &serde::Value, key: &str) -> Result<f64, String> {
    v.field(key)
        .and_then(serde::Value::as_num)
        .map_err(|e| e.to_string())
}

fn str_field<'a>(v: &'a serde::Value, key: &str) -> Result<&'a str, String> {
    v.field(key)
        .and_then(serde::Value::as_str)
        .map_err(|e| e.to_string())
}

/// Like [`num_field`], but JSON `null` maps to NaN: error-outcome
/// decisions have no iterate, so their objective and constraint
/// violation serialize as `null` (non-finite floats have no JSON form).
fn nullable_num_field(v: &serde::Value, key: &str) -> Result<f64, String> {
    match v.field(key).map_err(|e| e.to_string())? {
        serde::Value::Null => Ok(f64::NAN),
        other => other.as_num().map_err(|e| e.to_string()),
    }
}

/// The attribution split of one explained decision (paper Eq. 13–16 /
/// Eq. 21 terms, as exported by the flight recorder).
struct ExplainedAttribution {
    soc_total: f64,
    soc_motor: f64,
    soc_hvac: f64,
    motor_wh: f64,
    hvac_wh: f64,
    cost_hvac: f64,
    cost_soc: f64,
    cost_comfort: f64,
}

/// One schema-checked decision record from a flight-recorder dump.
struct ExplainedDecision {
    step: u64,
    t_s: f64,
    outcome: String,
    iterations: u64,
    warm_start: String,
    constraint_rows: usize,
    active_masks: Vec<u32>,
    attribution: Option<ExplainedAttribution>,
}

fn parse_decision(v: &serde::Value) -> Result<ExplainedDecision, String> {
    let outcome = str_field(v, "outcome")?.to_owned();
    const OUTCOMES: [&str; 4] = [
        "converged",
        "max_iterations",
        "line_search_stalled",
        "error",
    ];
    if !OUTCOMES.contains(&outcome.as_str()) {
        return Err(format!("unknown solve outcome '{outcome}'"));
    }
    let warm = v.field("warm_start").map_err(|e| e.to_string())?;
    let warm_start = match str_field(warm, "kind")? {
        "cold" => "cold".to_owned(),
        "shifted" => format!("shifted+{}", num_field(warm, "blocks")? as u64),
        other => return Err(format!("unknown warm-start kind '{other}'")),
    };
    nullable_num_field(v, "objective")?;
    nullable_num_field(v, "constraint_violation")?;
    num_field(v, "soc_pct")?;
    num_field(v, "cabin_c")?;
    let constraint_rows = num_field(v, "constraint_rows")? as usize;
    let serde::Value::Seq(masks) = v.field("active_masks").map_err(|e| e.to_string())? else {
        return Err("active_masks is not an array".to_owned());
    };
    let mut active_masks = Vec::with_capacity(masks.len());
    for m in masks {
        let mask = m.as_num().map_err(|e| e.to_string())? as u32;
        if constraint_rows < 32 && mask >> constraint_rows != 0 {
            return Err(format!(
                "active mask {mask:#b} sets bits beyond the {constraint_rows} constraint rows"
            ));
        }
        active_masks.push(mask);
    }
    let serde::Value::Seq(plan) = v.field("plan").map_err(|e| e.to_string())? else {
        return Err("plan is not an array".to_owned());
    };
    for p in plan {
        for key in ["hvac_power_w", "cabin_c", "soc_pct"] {
            num_field(p, key)?;
        }
    }
    // The plan and the per-step activation masks cover the same horizon
    // (both empty when the solve errored before producing an iterate).
    if plan.len() != active_masks.len() {
        return Err(format!(
            "plan covers {} steps but active_masks {}",
            plan.len(),
            active_masks.len()
        ));
    }
    let attribution = match v.field("attribution").map_err(|e| e.to_string())? {
        serde::Value::Null => None,
        a => Some(ExplainedAttribution {
            soc_total: num_field(a, "soc_drop_total_pct")?,
            soc_motor: num_field(a, "soc_drop_motor_pct")?,
            soc_hvac: num_field(a, "soc_drop_hvac_pct")?,
            motor_wh: num_field(a, "motor_energy_wh")?,
            hvac_wh: num_field(a, "hvac_energy_wh")?,
            cost_hvac: num_field(a, "cost_hvac_power")?,
            cost_soc: num_field(a, "cost_soc_deviation")?,
            cost_comfort: num_field(a, "cost_comfort")?,
        }),
    };
    Ok(ExplainedDecision {
        step: num_field(v, "step")? as u64,
        t_s: num_field(v, "t_s")?,
        outcome,
        iterations: num_field(v, "iterations")? as u64,
        warm_start,
        constraint_rows,
        active_masks,
        attribution,
    })
}

/// `"C5x3 C8x1"`: how often each constraint row was active across the
/// decision's horizon, labeled with the paper's constraint numbers.
fn render_active_set(d: &ExplainedDecision) -> String {
    let mut counts = vec![0usize; d.constraint_rows];
    for mask in &d.active_masks {
        for (row, count) in counts.iter_mut().enumerate() {
            if mask & (1 << row) != 0 {
                *count += 1;
            }
        }
    }
    let parts: Vec<String> = counts
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(row, c)| {
            let label = CONSTRAINT_ROW_LABELS
                .get(row)
                .map_or_else(|| format!("row{row}"), |l| (*l).to_owned());
            format!("{label}x{c}")
        })
        .collect();
    if parts.is_empty() {
        "-".to_owned()
    } else {
        parts.join(" ")
    }
}

/// Validates a flight-recorder dump and renders the constraint-activation
/// timeline and the per-decision attribution table.
fn render_explain(text: &str) -> Result<String, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty dump")?;
    let RawLine(meta) = serde_json::from_str(first).map_err(|e| format!("line 1: {e}"))?;
    if str_field(&meta, "kind").map_err(|e| format!("line 1: {e}"))? != "meta" {
        return Err("line 1: first line is not the meta header".to_owned());
    }
    let version = num_field(&meta, "version")?;
    if version != 1.0 {
        return Err(format!("unsupported dump version {version}"));
    }
    let declared = num_field(&meta, "records")? as usize;
    let dropped = num_field(&meta, "dropped")? as u64;
    let reason = str_field(&meta, "reason")?.to_owned();
    let mut decisions: Vec<ExplainedDecision> = Vec::new();
    let mut steps = 0usize;
    let mut notes: Vec<(String, String)> = Vec::new();
    for (i, line) in lines {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let RawLine(v) = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
        match str_field(&v, "kind").map_err(&at)? {
            "decision" => decisions.push(parse_decision(&v).map_err(&at)?),
            "step" => {
                for key in [
                    "step",
                    "t_s",
                    "motor_power_w",
                    "hvac_power_w",
                    "battery_power_w",
                    "soc_pct",
                    "cabin_c",
                    "ambient_c",
                ] {
                    num_field(&v, key).map_err(&at)?;
                }
                steps += 1;
            }
            "note" => notes.push((
                str_field(&v, "label").map_err(&at)?.to_owned(),
                str_field(&v, "detail").map_err(&at)?.to_owned(),
            )),
            other => return Err(at(format!("unknown record kind '{other}'"))),
        }
    }
    let body = decisions.len() + steps + notes.len();
    if body != declared {
        return Err(format!(
            "meta header declares {declared} records, dump carries {body}"
        ));
    }
    let mut out = format!(
        "Flight recording: {body} records ({} decisions, {steps} plant steps, \
         {} notes), {dropped} dropped\nreason: {reason}\n",
        decisions.len(),
        notes.len()
    );
    for (label, detail) in &notes {
        out.push_str(&format!("note [{label}]: {detail}\n"));
    }
    out.push_str("\nConstraint-activation timeline\n");
    out.push_str(&format!(
        "{:>6} {:>8}  {:<19} {:>5}  {:<10}  active constraints\n",
        "step", "t [s]", "outcome", "iters", "warm-start"
    ));
    for d in &decisions {
        out.push_str(&format!(
            "{:>6} {:>8.1}  {:<19} {:>5}  {:<10}  {}\n",
            d.step,
            d.t_s,
            d.outcome,
            d.iterations,
            d.warm_start,
            render_active_set(d)
        ));
    }
    out.push_str("\nAttribution (per decision, over the prediction horizon)\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
        "step", "ΔSoC %", "motor %", "HVAC %", "motor Wh", "HVAC Wh", "J_hvac", "J_soc", "J_comf"
    ));
    for d in &decisions {
        match &d.attribution {
            Some(a) => out.push_str(&format!(
                "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.2} {:>10.2} {:>9.3} {:>9.3} {:>9.3}\n",
                d.step,
                a.soc_total,
                a.soc_motor,
                a.soc_hvac,
                a.motor_wh,
                a.hvac_wh,
                a.cost_hvac,
                a.cost_soc,
                a.cost_comfort
            )),
            None => out.push_str(&format!(
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
                d.step, "-", "-", "-", "-", "-", "-", "-", "-"
            )),
        }
    }
    Ok(out)
}

fn cmd_explain(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rendered = render_explain(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{rendered}");
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let (params, sim) = build_sim(args)?;
    println!(
        "{:<28} {:>9} {:>12} {:>10} {:>11}",
        "controller", "HVAC kW", "ΔSoH (m%)", "SoC dev", "kWh/100km"
    );
    for kind in ControllerKind::paper_lineup() {
        let mut controller = kind.instantiate(&params).map_err(|e| e.to_string())?;
        let result = sim.run(controller.as_mut()).map_err(|e| e.to_string())?;
        let m = result.metrics();
        println!(
            "{:<28} {:>9.3} {:>12.3} {:>10.3} {:>11.2}",
            kind.label(),
            m.avg_hvac_power.value(),
            m.delta_soh_milli_percent,
            m.soc_stats.dev,
            m.kwh_per_100km,
        );
    }
    Ok(())
}

/// The controller wiring the flags ask for: `--max-sqp-iterations` caps
/// the MPC's SQP iterations per solve, the fault injection that forces
/// `max_iterations` outcomes. Callers attach their own registry,
/// recorder and trace ring.
fn controller_setup(args: &Args) -> Result<ControllerSetup, String> {
    let max_sqp_iterations = args
        .get("max-sqp-iterations")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--max-sqp-iterations expects a count, got '{v}'"))
        })
        .transpose()?;
    Ok(ControllerSetup {
        max_sqp_iterations,
        ..ControllerSetup::default()
    })
}

/// Build a [`LoadgenConfig`] from the shared synthetic-fleet flags over
/// `defaults`.
///
/// `sessions_key`/`steps_key` differ between `loadgen` (primary flags)
/// and `serve` (burst flags), so the caller names them.
fn loadgen_config(
    args: &Args,
    sessions_key: &str,
    steps_key: &str,
    defaults: LoadgenConfig,
) -> Result<LoadgenConfig, String> {
    let controller = match args.get("controller") {
        None => defaults.controller,
        Some(name) => controller_by_name(name)
            .ok_or_else(|| format!("unknown controller '{name}' (onoff|fuzzy|pid|mpc)"))?,
    };
    Ok(LoadgenConfig {
        sessions: args.get_int(sessions_key, defaults.sessions)?,
        steps_per_session: args.get_int(steps_key, defaults.steps_per_session)?,
        chunk: args.get_int("chunk", defaults.chunk)?,
        seed: args.get_int("seed", defaults.seed)?,
        shards: args.get_int("shards", defaults.shards)?,
        queue_capacity: args.get_int("queue-capacity", defaults.queue_capacity)?,
        controller,
    })
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
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

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let hold_seconds = args.get_f64("for-seconds", 0.0)?;
    let burst_sessions: usize = args.get_int("burst-sessions", 0)?;

    let registry = Registry::enabled();
    let mut server =
        ScrapeServer::bind(addr, registry.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
    // CI and scripts parse this line to learn the bound port; keep the
    // format stable and flush before any long-running burst.
    println!("serving metrics at http://{}/metrics", server.addr());
    println!("ready");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if burst_sessions > 0 {
        let defaults = LoadgenConfig {
            steps_per_session: 60,
            ..LoadgenConfig::default()
        };
        let config = loadgen_config(args, "burst-sessions", "burst-steps", defaults)?;
        let setup = ControllerSetup {
            telemetry: registry.clone(),
            ..controller_setup(args)?
        };
        let report = run_loadgen(&config, &setup);
        print!("{}", render_loadgen_report(&report));
        let _ = std::io::stdout().flush();
    }

    if hold_seconds > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(hold_seconds));
    }
    server.shutdown();
    Ok(())
}

/// Summed value of the samples named `sample` in a Prometheus
/// exposition — a line's name is its first token (before whitespace or
/// a `{` label block), matched exactly. Fleet metrics are per-shard
/// labeled series, so the fleet-wide view of a counter or histogram
/// count is the sum across label sets; `None` when no series matches.
fn sample_value(text: &str, sample: &str) -> Option<f64> {
    let mut sum = 0.0;
    let mut found = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        if &line[..name_end] != sample {
            continue;
        }
        let value = line.rsplit(' ').next()?;
        if let Ok(v) = value.parse::<f64>() {
            sum += v;
            found = true;
        }
    }
    found.then_some(sum)
}

/// One-shot scrape probe: fetch, validate strictly, and enforce the
/// optional `--require-*` population checks. Returns the report text.
fn probe_scrape(
    addr: &str,
    require_histogram: Option<&str>,
    require_counter: Option<&str>,
) -> Result<String, String> {
    let text = scrape_once(addr)?;
    let samples = export::validate_prometheus(&text)
        .map_err(|e| format!("invalid Prometheus exposition from {addr}: {e}"))?;
    let mut report = format!("scrape ok: {samples} samples from http://{addr}/metrics\n");
    if let Some(name) = require_histogram {
        let count_sample = format!("{name}_count");
        let count = sample_value(&text, &count_sample)
            .ok_or_else(|| format!("histogram '{name}' missing from scrape"))?;
        if count <= 0.0 {
            return Err(format!("histogram '{name}' is present but empty (count 0)"));
        }
        report.push_str(&format!("histogram {name}: count {count}\n"));
    }
    if let Some(name) = require_counter {
        let value = sample_value(&text, name)
            .ok_or_else(|| format!("counter '{name}' missing from scrape"))?;
        if value <= 0.0 {
            return Err(format!("counter '{name}' is present but zero"));
        }
        report.push_str(&format!("counter {name}: {value}\n"));
    }
    Ok(report)
}

fn cmd_scrape(args: &Args) -> Result<(), String> {
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
fn series_sum(samples: &[PromSample], name: &str, shard: Option<&str>) -> Option<f64> {
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

/// Parse a `le` label value, `+Inf` included (NaN for garbage).
fn parse_le(v: &str) -> f64 {
    if v == "+Inf" {
        f64::INFINITY
    } else {
        v.parse().unwrap_or(f64::NAN)
    }
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
fn bucket_delta(cur: &[(f64, f64)], prev: &[(f64, f64)]) -> Vec<(f64, f64)> {
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
fn fmt_ms(seconds: f64) -> String {
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
fn render_top(
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

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").ok_or("missing --addr <host:port>")?;
    let interval = args.get_f64("interval", 2.0)?;
    if interval <= 0.0 {
        return Err("--interval must be positive".into());
    }
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
            Err(msg) => print!("\x1b[2J\x1b[H{msg}\nretrying every {interval} s\n"),
        }
        prev = parsed.ok();
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let out_path = args.get("out").unwrap_or("trace.json");
    let capacity = args.get_int("capacity", 65_536)?;
    let sample = args.get_int("sample", 1)?;
    if sample == 0 {
        return Err("--sample must be at least 1".into());
    }
    let config = loadgen_config(args, "sessions", "steps", LoadgenConfig::default())?;
    if config.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    let trace = TraceRing::sampled(capacity, sample);
    let setup = ControllerSetup {
        telemetry: Registry::enabled(),
        trace: trace.clone(),
        ..controller_setup(args)?
    };
    let report = run_loadgen(&config, &setup);
    print!("{}", render_loadgen_report(&report));
    export::write_text(std::path::Path::new(out_path), &trace.to_chrome_json())
        .map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "chrome trace written to {out_path} ({} events, {} overwritten); \
         open in Perfetto or chrome://tracing",
        trace.events().len(),
        trace.dropped()
    );
    Ok(())
}

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

/// Parse a `k=v,k2=v2` label-filter flag into owned pairs.
fn parse_label_filter(raw: Option<&str>) -> Result<Vec<(String, String)>, String> {
    let Some(raw) = raw else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|pair| {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("--labels pair '{pair}' is not k=v"))?;
            Ok((k.trim().to_owned(), v.trim().to_owned()))
        })
        .collect()
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let out_path = args.get("out").unwrap_or("fleet.evts");
    let mut writer = tsdb::SegmentWriter::create(std::path::Path::new(out_path))
        .map_err(|e| format!("{out_path}: {e}"))?;
    if let Some(addr) = args.get("addr") {
        // Poll an existing scrape endpoint.
        let interval = args.get_f64("interval", 1.0)?;
        if interval <= 0.0 {
            return Err("--interval must be positive".into());
        }
        let for_seconds = args.get_f64("for-seconds", 10.0)?;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(for_seconds);
        loop {
            let text = scrape_once(addr)?;
            let samples = export::parse_prometheus(&text)
                .map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
            writer
                .append(now_ms(), &samples)
                .map_err(|e| format!("{out_path}: {e}"))?;
            if std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_secs_f64(interval));
        }
    } else {
        // Run a loadgen burst in-process and sample its registry live.
        let interval = args.get_f64("interval", 0.05)?;
        if interval <= 0.0 {
            return Err("--interval must be positive".into());
        }
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
        let worker = {
            let config = config.clone();
            std::thread::spawn(move || run_loadgen(&config, &setup))
        };
        while !worker.is_finished() {
            writer
                .append(now_ms(), &export::snapshot_samples(&registry.snapshot()))
                .map_err(|e| format!("{out_path}: {e}"))?;
            std::thread::sleep(std::time::Duration::from_secs_f64(interval));
        }
        let report = worker.join().map_err(|_| "loadgen thread panicked")?;
        // One final frame so the segment always carries the shutdown
        // totals and the complete histograms.
        writer
            .append(now_ms(), &export::snapshot_samples(&registry.snapshot()))
            .map_err(|e| format!("{out_path}: {e}"))?;
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
    }
    println!("recorded {} frames to {out_path}", writer.frames());
    Ok(())
}

/// Span-id → (name, ts, dur) index over a Chrome-trace JSON export, for
/// resolving histogram exemplars back to the spans that produced them.
fn trace_span_index(
    path: &str,
) -> Result<std::collections::HashMap<u64, (String, f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let RawLine(value) =
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let serde::Value::Seq(events) = value
        .field("traceEvents")
        .map_err(|_| format!("{path}: no traceEvents array (not a Chrome trace?)"))?
    else {
        return Err(format!("{path}: traceEvents is not an array"));
    };
    let mut index = std::collections::HashMap::new();
    for e in events {
        let Ok(id) = e
            .field("args")
            .and_then(|a| a.field("span_id"))
            .and_then(serde::Value::as_str)
        else {
            continue;
        };
        let Ok(id) = id.parse::<u64>() else { continue };
        let name = e
            .field("name")
            .and_then(serde::Value::as_str)
            .unwrap_or("?")
            .to_owned();
        let ts = e.field("ts").and_then(serde::Value::as_num).unwrap_or(0.0);
        let dur = e.field("dur").and_then(serde::Value::as_num).unwrap_or(0.0);
        index.insert(id, (name, ts, dur));
    }
    Ok(index)
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let seg_path = args.get("segment").ok_or("missing --segment <seg.evts>")?;
    let segment = tsdb::read_segment(std::path::Path::new(seg_path))?;
    if segment.frames.is_empty() {
        return Err(format!("{seg_path}: segment holds no complete frames"));
    }
    if segment.truncated {
        eprintln!("note: {seg_path} has a torn tail; decoded the intact prefix");
    }
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
                    Some((name, ts, dur)) => {
                        resolved += 1;
                        line.push_str(&format!(" -> span {name} @{ts:.0}us dur={dur:.0}us"));
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
                    s.raw_len(),
                );
            }
        }
        Some(metric) => {
            let labels = parse_label_filter(args.get("labels"))?;
            let label_refs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let window_s: u64 = args.get_int("window-s", 60)?;
            let t0 = t1.saturating_sub(window_s.saturating_mul(1000));
            if let Some(q_raw) = args.get("quantile") {
                let q: f64 = q_raw
                    .parse()
                    .map_err(|_| format!("--quantile expects a number, got '{q_raw}'"))?;
                let v = db
                    .windowed_quantile(metric, &label_refs, t0, t1, q)
                    .ok_or_else(|| format!("no {metric}_bucket series match"))?;
                println!("{metric} p{:.0} over {window_s}s: {v}", q * 100.0);
            } else if args.flag("rate") {
                let v = db
                    .rate_sum(metric, &label_refs, t0, t1)
                    .ok_or_else(|| format!("no {metric} series match"))?;
                println!("{metric} rate over {window_s}s: {v:.3}/s");
            } else {
                let matches = db.find(metric, &label_refs);
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
const DEFAULT_SLO_RULES: &str = r#"
# Windowed p99 of fleet step handling must stay under 250 ms.
[[slo]]
name = "step-p99-latency"
kind = "quantile"
metric = "fleet_cmd_seconds"
labels = "cmd=step"
q = 0.99
window_s = 10
op = "gt"
threshold = 0.25

# Shard command queues must not stay saturated.
[[slo]]
name = "queue-depth"
kind = "gauge"
metric = "fleet_queue_depth"
op = "gt"
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
fn render_slo_status(statuses: &[slo::RuleStatus]) -> String {
    let mut out = String::new();
    for s in statuses {
        let value = s
            .value
            .map_or_else(|| "no data".to_owned(), |v| format!("{v:.4}"));
        out.push_str(&format!(
            "{:>8}  {:<24} value {value} (breach when {} {})\n",
            s.state.to_string(),
            s.name,
            s.op,
            s.threshold
        ));
    }
    out
}

fn cmd_slo(args: &Args) -> Result<(), String> {
    let rules_text = match args.get("rules") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => DEFAULT_SLO_RULES.to_owned(),
    };
    let rules = slo::parse_config(&rules_text)?;
    if rules.is_empty() {
        return Err("rule set is empty".into());
    }
    let mut engine = SloEngine::new(rules);
    let mut last: Vec<slo::RuleStatus> = Vec::new();
    // Print one line per state transition, so a replayed soak reads as
    // an alert timeline.
    let observe = |t_ms: u64, statuses: Vec<slo::RuleStatus>, last: &mut Vec<slo::RuleStatus>| {
        for s in &statuses {
            let changed = last
                .iter()
                .find(|p| p.name == s.name)
                .is_none_or(|p| p.state != s.state);
            if changed {
                let value = s
                    .value
                    .map_or_else(|| "no data".to_owned(), |v| format!("{v:.4}"));
                println!("[{t_ms}] {}: {} (value {value})", s.name, s.state);
            }
        }
        *last = statuses;
    };

    if let Some(seg_path) = args.get("segment") {
        let segment = tsdb::read_segment(std::path::Path::new(seg_path))?;
        if segment.frames.is_empty() {
            return Err(format!("{seg_path}: segment holds no complete frames"));
        }
        if segment.truncated {
            eprintln!("note: {seg_path} has a torn tail; replaying the intact prefix");
        }
        let mut db = Tsdb::new();
        for i in 0..segment.frames.len() {
            let t = segment.frames[i].t_ms;
            db.ingest(t, &segment.frame_samples(i));
            let statuses = engine.evaluate(&db, t);
            observe(t, statuses, &mut last);
        }
        println!(
            "--- {} frames replayed from {seg_path} ---",
            segment.frames.len()
        );
    } else if let Some(addr) = args.get("addr") {
        let interval = args.get_f64("interval", 1.0)?;
        if interval <= 0.0 {
            return Err("--interval must be positive".into());
        }
        let for_seconds = args.get_f64("for-seconds", 10.0)?;
        let once = args.flag("once");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(for_seconds);
        let mut db = Tsdb::new();
        loop {
            let text = scrape_once(addr)?;
            let samples = export::parse_prometheus(&text)
                .map_err(|e| format!("invalid exposition from {addr}: {e}"))?;
            let t = now_ms();
            db.ingest(t, &samples);
            let statuses = engine.evaluate(&db, t);
            observe(t, statuses, &mut last);
            if once && std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_secs_f64(interval));
        }
    } else {
        return Err("need --segment <seg.evts> or --addr <host:port>".into());
    }

    print!("{}", render_slo_status(&last));
    if engine.ever_fired() {
        return Err("SLO breach: at least one alert fired during the run".into());
    }
    println!("all SLOs held");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = Args::parse(&argv[1..]);
    let outcome = match (command.as_str(), rest) {
        ("cycles", _) => {
            cmd_cycles();
            Ok(())
        }
        ("simulate", Ok(args)) => cmd_simulate(&args),
        ("compare", Ok(args)) => cmd_compare(&args),
        ("loadgen", Ok(args)) => cmd_loadgen(&args),
        ("serve", Ok(args)) => cmd_serve(&args),
        ("scrape", Ok(args)) => cmd_scrape(&args),
        ("top", Ok(args)) => cmd_top(&args),
        ("trace", Ok(args)) => cmd_trace(&args),
        ("record", Ok(args)) => cmd_record(&args),
        ("query", Ok(args)) => cmd_query(&args),
        ("slo", Ok(args)) => cmd_slo(&args),
        ("validate-telemetry", _) => match argv.get(1) {
            Some(path) => cmd_validate_telemetry(path),
            None => Err(format!("missing <path.jsonl>\n{}", usage())),
        },
        ("explain", _) => match argv.get(1) {
            Some(path) => cmd_explain(path),
            None => Err(format!("missing <dump.jsonl>\n{}", usage())),
        },
        (_, Err(e)) => Err(e),
        (other, _) => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        let owned: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(&owned).expect("parses")
    }

    #[test]
    fn parses_pairs_and_flags() {
        let args = parse(&["--cycle", "nedc", "--precondition", "--ambient", "0"]);
        assert_eq!(args.get("cycle"), Some("nedc"));
        assert!(args.flag("precondition"));
        assert_eq!(args.get_f64("ambient", 35.0).unwrap(), 0.0);
        assert_eq!(args.get_f64("target", 24.0).unwrap(), 24.0); // default
    }

    #[test]
    fn rejects_positional_arguments() {
        let owned = vec!["nedc".to_owned()];
        assert!(Args::parse(&owned).is_err());
    }

    #[test]
    fn rejects_non_numeric_values() {
        let args = parse(&["--ambient", "hot"]);
        assert!(args.get_f64("ambient", 35.0).is_err());
    }

    #[test]
    fn cycle_lookup_accepts_aliases() {
        assert!(cycle_by_name("NEDC").is_some());
        assert!(cycle_by_name("ece-eudc").is_some());
        assert!(cycle_by_name("wltc3").is_some());
        assert!(cycle_by_name("imaginary").is_none());
    }

    #[test]
    fn validates_exported_jsonl() {
        let registry = Registry::enabled();
        registry.counter("solves_total").add(7);
        registry.gauge("queue_depth").set(3.5);
        registry
            .counter_with("fleet_steps_total", &[("shard", "0")])
            .add(12);
        registry
            .histogram_with(
                "fleet_cmd_seconds",
                evclimate::telemetry::HistogramSpec::latency_seconds(),
                &[("cmd", "step"), ("shard", "0")],
            )
            .record(2e-3);
        registry
            .histogram(
                "step_seconds",
                evclimate::telemetry::HistogramSpec::latency_seconds(),
            )
            .record(1e-3);
        let jsonl = export::to_jsonl(&registry.snapshot());
        assert!(jsonl.contains("\"labels\""), "{jsonl}");
        for line in jsonl.lines() {
            validate_metric_line(line).expect("exported line is schema-valid");
        }
    }

    #[test]
    fn rejects_malformed_metric_lines() {
        // Fractional counter value.
        assert!(validate_metric_line(r#"{"type":"counter","name":"x","value":1.5}"#).is_err());
        // Gauges are a first-class type: any float, null when non-finite.
        assert_eq!(
            validate_metric_line(r#"{"type":"gauge","name":"x","value":1.5}"#),
            Ok("gauge")
        );
        assert_eq!(
            validate_metric_line(r#"{"type":"gauge","name":"x","value":null}"#),
            Ok("gauge")
        );
        // Unknown type tag.
        assert!(validate_metric_line(r#"{"type":"summary","name":"x","value":1}"#).is_err());
        // Labels must be an object of string values.
        assert_eq!(
            validate_metric_line(
                r#"{"type":"counter","name":"x","labels":{"shard":"0"},"value":1}"#
            ),
            Ok("counter")
        );
        assert!(validate_metric_line(
            r#"{"type":"counter","name":"x","labels":["shard"],"value":1}"#
        )
        .is_err());
        assert!(validate_metric_line(
            r#"{"type":"counter","name":"x","labels":{"shard":0},"value":1}"#
        )
        .is_err());
        // Histogram whose bucket counts do not add up.
        assert!(validate_metric_line(
            r#"{"type":"histogram","name":"h","count":3,"sum":1.0,"min":0.1,"max":0.9,"buckets":[{"le":1.0,"count":1}],"overflow":0}"#
        )
        .is_err());
        // Not JSON at all.
        assert!(validate_metric_line("plain text").is_err());
    }

    fn synthetic_dump() -> String {
        use evclimate::telemetry::{
            Attribution, DecisionRecord, PlannedStep, SolveOutcome, StepSummary, WarmStart,
        };
        let recorder = FlightRecorder::enabled(16);
        let planned = PlannedStep {
            ts_c: 14.0,
            tc_c: 12.0,
            recirculation: 0.7,
            flow_kg_s: 0.1,
            hvac_power_w: 1_800.0,
            cabin_c: 24.8,
            soc_pct: 89.9,
        };
        recorder.record_decision(DecisionRecord {
            step: 0,
            t_s: 0.0,
            outcome: SolveOutcome::Converged,
            iterations: 4,
            objective: 1.25,
            constraint_violation: 0.0,
            warm_start: WarmStart::Cold,
            soc_pct: 90.0,
            cabin_c: 25.0,
            motor_preview_w: vec![8_000.0, 8_000.0],
            plan: vec![planned, planned],
            constraint_rows: 13,
            // Bit 4 is row "C5" in CONSTRAINT_ROW_LABELS.
            active_masks: vec![1 << 4, 0],
            attribution: Some(Attribution {
                soc_drop_total_pct: 0.010,
                soc_drop_motor_pct: 0.008,
                soc_drop_hvac_pct: 0.002,
                motor_energy_wh: 7.0,
                hvac_energy_wh: 3.0,
                ..Attribution::default()
            }),
        });
        recorder.record_step(StepSummary {
            step: 0,
            t_s: 0.0,
            motor_power_w: 8_000.0,
            hvac_power_w: 1_750.0,
            battery_power_w: 10_050.0,
            soc_pct: 89.99,
            cabin_c: 24.9,
            ambient_c: 35.0,
        });
        recorder.note("harness", "synthetic dump");
        recorder.to_jsonl("unit test")
    }

    #[test]
    fn explains_a_flight_recorder_dump() {
        let rendered = render_explain(&synthetic_dump()).expect("dump is schema-valid");
        assert!(rendered.contains("1 decisions, 1 plant steps, 1 notes"));
        assert!(rendered.contains("reason: unit test"));
        assert!(rendered.contains("Constraint-activation timeline"));
        assert!(rendered.contains("C5x1"), "{rendered}");
        assert!(rendered.contains("converged"));
        assert!(rendered.contains("cold"));
        assert!(rendered.contains("Attribution"));
        assert!(rendered.contains("0.0080"));
        assert!(rendered.contains("note [harness]: synthetic dump"));
    }

    #[test]
    fn explains_a_dump_with_an_error_decision() {
        use evclimate::telemetry::{DecisionRecord, SolveOutcome, WarmStart};
        // Mirror of the record `MpcController::capture_decision` emits on
        // `SolveOutcome::Error`: NaN objective/violation (serialized as
        // JSON null), no plan, no active set, no attribution — exactly
        // what the auto-dump path writes for a failed solve.
        let recorder = FlightRecorder::enabled(16);
        recorder.record_decision(DecisionRecord {
            step: 7,
            t_s: 7.0,
            outcome: SolveOutcome::Error,
            iterations: 0,
            objective: f64::NAN,
            constraint_violation: f64::NAN,
            warm_start: WarmStart::Cold,
            soc_pct: 88.0,
            cabin_c: 27.5,
            motor_preview_w: vec![6_000.0, 6_000.0],
            plan: Vec::new(),
            constraint_rows: 13,
            active_masks: Vec::new(),
            attribution: None,
        });
        let dump = recorder.to_jsonl("mpc solve error at step 7 (t = 7.0 s)");
        assert!(dump.contains("\"objective\":null"), "{dump}");
        let rendered = render_explain(&dump).expect("error decisions are schema-valid");
        assert!(rendered.contains("error"), "{rendered}");
        assert!(rendered.contains("cold"));
        // No attribution: the table row is dashed out, not dropped.
        assert!(rendered
            .lines()
            .any(|l| l.contains('7') && l.contains(" -")));
    }

    #[test]
    fn explain_rejects_malformed_dumps() {
        // Empty file.
        assert!(render_explain("").is_err());
        // Body without a meta header.
        let headerless = synthetic_dump()
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(render_explain(&headerless).is_err());
        // Wrong version.
        assert!(render_explain(
            "{\"kind\":\"meta\",\"version\":2,\"capacity\":8,\"records\":0,\"dropped\":0,\"reason\":\"x\"}\n"
        )
        .is_err());
        // Record-count mismatch between header and body.
        let mut truncated: Vec<String> = synthetic_dump().lines().map(str::to_owned).collect();
        truncated.pop();
        assert!(render_explain(&truncated.join("\n")).is_err());
        // Active-set bits beyond the declared constraint rows.
        let corrupt =
            synthetic_dump().replace("\"active_masks\":[16,0]", "\"active_masks\":[16384,0]");
        assert!(render_explain(&corrupt).is_err());
    }

    #[test]
    fn controller_lookup_accepts_aliases() {
        assert!(matches!(
            controller_by_name("MPC"),
            Some(ControllerKind::Mpc)
        ));
        assert!(matches!(
            controller_by_name("on-off"),
            Some(ControllerKind::OnOff)
        ));
        assert!(controller_by_name("thermostat").is_none());
    }

    #[test]
    fn loadgen_config_reads_flags_and_keeps_defaults() {
        let args = parse(&[
            "--sessions",
            "7",
            "--steps",
            "11",
            "--seed",
            "99",
            "--controller",
            "onoff",
        ]);
        let defaults = LoadgenConfig::default();
        let config = loadgen_config(&args, "sessions", "steps", defaults.clone()).expect("parses");
        assert_eq!(config.sessions, 7);
        assert_eq!(config.steps_per_session, 11);
        assert_eq!(config.seed, 99);
        assert!(matches!(config.controller, ControllerKind::OnOff));
        assert_eq!(config.chunk, defaults.chunk);
        assert_eq!(config.queue_capacity, defaults.queue_capacity);

        let bad = parse(&["--controller", "thermostat"]);
        assert!(loadgen_config(&bad, "sessions", "steps", defaults).is_err());
    }

    #[test]
    fn sample_value_matches_names_exactly_and_sums_labeled_series() {
        let text = "# TYPE fleet_steps_total counter\n\
                    fleet_steps_total 42\n\
                    mpc_control_step_seconds_bucket{le=\"+Inf\"} 5\n\
                    mpc_control_step_seconds_count 5\n";
        assert_eq!(sample_value(text, "fleet_steps_total"), Some(42.0));
        assert_eq!(
            sample_value(text, "mpc_control_step_seconds_count"),
            Some(5.0)
        );
        // Prefix of a longer name must not match.
        assert_eq!(sample_value(text, "fleet_steps"), None);
        assert_eq!(sample_value(text, "missing_metric"), None);
        // Per-shard labeled series sum to the fleet-wide value.
        let labeled = "fleet_steps_total{shard=\"0\"} 40\n\
                       fleet_steps_total{shard=\"1\"} 2\n";
        assert_eq!(sample_value(labeled, "fleet_steps_total"), Some(42.0));
    }

    #[test]
    fn bucket_quantile_walks_cumulative_counts() {
        let buckets = [
            (0.001, 10.0),
            (0.01, 90.0),
            (0.1, 99.0),
            (f64::INFINITY, 100.0),
        ];
        assert_eq!(quantile_from_cumulative(&buckets, 0.05), 0.001);
        assert_eq!(quantile_from_cumulative(&buckets, 0.50), 0.01);
        assert_eq!(quantile_from_cumulative(&buckets, 0.99), 0.1);
        // A +Inf landing reports the largest finite bound.
        assert_eq!(quantile_from_cumulative(&buckets, 1.0), 0.1);
        assert!(quantile_from_cumulative(&[], 0.5).is_nan());
        assert_eq!(fmt_ms(0.01), "10.00");
        assert_eq!(fmt_ms(f64::NAN), "-");
        assert_eq!(fmt_ms(f64::INFINITY), "inf");
    }

    #[test]
    fn bucket_delta_subtracts_cumulative_polls() {
        let prev = [(0.001, 10.0), (0.01, 90.0), (f64::INFINITY, 100.0)];
        let cur = [(0.001, 12.0), (0.01, 95.0), (f64::INFINITY, 110.0)];
        assert_eq!(
            bucket_delta(&cur, &prev),
            vec![(0.001, 2.0), (0.01, 5.0), (f64::INFINITY, 10.0)]
        );
        // A counter reset (current below previous) clamps to zero
        // instead of going negative.
        let reset = [(0.001, 1.0), (0.01, 2.0), (f64::INFINITY, 3.0)];
        assert!(bucket_delta(&reset, &prev).iter().all(|&(_, c)| c == 0.0));
        // No previous poll means the full cumulative counts pass through.
        assert_eq!(bucket_delta(&cur, &[]), cur.to_vec());
    }

    #[test]
    fn top_renders_per_shard_rows_from_a_live_fleet_scrape() {
        let registry = Registry::enabled();
        let config = LoadgenConfig {
            sessions: 4,
            steps_per_session: 24,
            seed: 11,
            shards: 2,
            ..LoadgenConfig::default()
        };
        let setup = ControllerSetup {
            telemetry: registry.clone(),
            ..ControllerSetup::default()
        };
        let _ = run_loadgen(&config, &setup);
        let text = export::to_prometheus(&registry.snapshot());
        let samples = export::parse_prometheus(&text).expect("scrape parses");
        let view = render_top("127.0.0.1:0", &samples, None).expect("per-shard series present");
        assert!(view.contains("2 shards"), "{view}");
        assert!(
            view.contains("cumulative"),
            "first frame is cumulative: {view}"
        );
        for shard in ["0", "1"] {
            let row = view
                .lines()
                .find(|l| l.trim_start().starts_with(shard))
                .unwrap_or_else(|| panic!("no row for shard {shard}: {view}"));
            // Steps ran, queue drained, latency quantiles are numeric.
            assert!(!row.contains(" - "), "unpopulated cell in {row:?}");
        }
        // Totals row sums the shards and carries the solve-outcome mix.
        let all = view
            .lines()
            .find(|l| l.trim_start().starts_with("all"))
            .expect("totals row");
        assert!(all.contains("96"), "{all}");
        assert!(!all.ends_with('-'), "{all}");
    }

    #[test]
    fn top_rejects_scrapes_without_per_shard_series() {
        let registry = Registry::enabled();
        registry.counter("solves_total").inc();
        let text = export::to_prometheus(&registry.snapshot());
        let samples = export::parse_prometheus(&text).expect("parses");
        let err = render_top("127.0.0.1:0", &samples, None).expect_err("no shard labels");
        assert!(err.contains("per-shard"), "{err}");
    }

    #[test]
    fn serve_scrape_round_trip_validates_and_finds_populated_metrics() {
        let registry = Registry::enabled();
        let mut server =
            ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("binds loopback");
        let addr = server.addr().to_string();

        // Empty registry still scrapes cleanly but fails the probes.
        let err = probe_scrape(&addr, None, Some("fleet_steps_total"))
            .expect_err("counter missing before burst");
        assert!(err.contains("fleet_steps_total"), "{err}");

        // A small burst through the shared registry populates both the
        // fleet counters and the MPC solve-latency histogram.
        let config = LoadgenConfig {
            sessions: 4,
            steps_per_session: 30,
            seed: 7,
            shards: 2,
            ..LoadgenConfig::default()
        };
        let setup = ControllerSetup {
            telemetry: registry.clone(),
            ..ControllerSetup::default()
        };
        let report = run_loadgen(&config, &setup);
        assert_eq!(report.total_steps, 4 * 30);

        let ok = probe_scrape(
            &addr,
            Some("mpc_control_step_seconds"),
            Some("fleet_steps_total"),
        )
        .expect("probe passes after burst");
        assert!(ok.contains("scrape ok"), "{ok}");
        assert!(ok.contains("counter fleet_steps_total: 120"), "{ok}");

        server.shutdown();
    }
}
