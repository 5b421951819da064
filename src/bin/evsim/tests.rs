//! The evsim command line's tests: flag parsing, each command family,
//! and CI's command lines run in process.

use evclimate::core::fleet::run_loadgen;
use evclimate::telemetry::export::PromSample;
use evclimate::telemetry::slo::{self, SloEngine};
use evclimate::telemetry::tsdb::{quantile_from_cumulative, Tsdb};
use evclimate::telemetry::{export, FlightRecorder, Registry, ScrapeServer};

use super::explain::{cmd_validate_telemetry, render_explain};
use super::fleet::{bucket_delta, fmt_ms, probe_scrape, render_top, series_sum};
use super::history::{render_slo_status, DEFAULT_SLO_RULES};
use super::simulate::cycle_by_name;
use super::*;

/// `line` split into a command and its arguments.
fn words(line: &str) -> (String, Vec<String>) {
    let mut words = line.split_whitespace().map(str::to_owned);
    (words.next().expect("a command"), words.collect())
}

fn parse(line: &str) -> Args {
    let (command, argv) = words(line);
    parse_command(&command, &argv).expect("parses").1
}

#[test]
fn parses_pairs_and_flags() {
    let args = parse("simulate --cycle nedc --precondition --ambient 0");
    assert_eq!(args.get("cycle"), Some("nedc"));
    assert!(args.flag("precondition"));
    assert_eq!(args.get_f64("ambient", 35.0).unwrap(), 0.0);
    assert_eq!(args.get_f64("target", 24.0).unwrap(), 24.0); // default
}

#[test]
fn rejects_positional_arguments() {
    let owned = vec!["nedc".to_owned()];
    assert!(Args::parse(&owned, &[SIM_FLAGS]).is_err());
}

#[test]
fn rejects_non_numeric_values() {
    for value in ["hot", "nan", "inf", "-inf"] {
        let args = parse(&format!("simulate --ambient {value}"));
        let err = args.get_f64("ambient", 35.0).unwrap_err();
        assert!(err.contains("--ambient"), "{err}");
    }
}

#[test]
fn bad_numbers_fail_before_any_work() {
    // What `main` prints before exiting 1.
    let error = |line: &str| {
        let (command, argv) = words(line);
        parse_command(&command, &argv)
            .and_then(|(run, args)| run(&args))
            .expect_err(line)
    };
    for (line, flag) in [
        (
            "simulate --cycle ece15 --controller onoff --ambient nan",
            "--ambient",
        ),
        (
            "simulate --cycle ece15 --controller mpc --ambient inf --precondition",
            "--ambient",
        ),
        ("serve --for-seconds -1", "--for-seconds"),
        ("top --addr 127.0.0.1:9 --interval 0", "--interval"),
        (
            "record --addr 127.0.0.1:9 --for-seconds 1e300",
            "--for-seconds",
        ),
    ] {
        let err = error(line);
        assert!(err.contains(flag) && !err.contains('\n'), "{line}: {err}");
    }
    let dir = std::env::temp_dir().join(format!("evsim-bad-numbers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("seg.evts");
    std::fs::write(&out, b"an earlier segment").unwrap();
    for interval in ["-1", "nan", "0"] {
        let line = format!("record --interval {interval} --out {}", out.display());
        let err = error(&line);
        assert!(
            err.contains("--interval") && !err.contains('\n'),
            "{line}: {err}"
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            b"an earlier segment",
            "{line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subcommands_reject_flags_they_do_not_take() {
    // Every evsim command line CI runs.
    for line in [
        "simulate --cycle ece15 --controller mpc --precondition \
         --telemetry telemetry-smoke.prom",
        "simulate --cycle ece15 --controller mpc --precondition \
         --max-sqp-iterations 1 --flight-recorder target/flight/ece15.jsonl",
        "serve --addr 127.0.0.1:9464 --burst-sessions 100 --burst-steps 40 \
         --seed 42 --for-seconds 25",
        "scrape --addr 127.0.0.1:9464 --require-histogram mpc_control_step_seconds \
         --require-counter fleet_steps_total",
        "top --addr 127.0.0.1:9464 --once",
        "record --sessions 12 --steps 40 --shards 2 --seed 42 --out fleet.evts \
         --trace-out fleet-trace.json",
        "loadgen --sessions 1000 --steps 60 --seed 42",
        "record --sessions 50 --steps 40 --seed 42 --out healthy.evts \
         --trace-out healthy-trace.json",
        "slo --segment healthy.evts",
        "query --segment healthy.evts --exemplars --trace healthy-trace.json",
        "query --segment healthy.evts --metric fleet_cmd_seconds --labels cmd=step \
         --quantile 0.99 --window-s 30",
        "query --segment healthy.evts --metric mpc_solves_total --rate --window-s 30",
        "record --sessions 50 --steps 40 --seed 42 --max-sqp-iterations 1 \
         --out faulty.evts",
        "slo --segment faulty.evts",
    ] {
        let (command, argv) = words(line);
        if let Err(e) = parse_command(&command, &argv) {
            panic!("{line}: {e}");
        }
    }
    // A flag another subcommand takes, and a typo that would
    // silently drop the iteration cap.
    for (line, flag) in [
        ("slo --segment x --once", "'--once'"),
        ("record --max-sqp-iteration 1", "'--max-sqp-iteration'"),
        ("trace --out fleet-trace.json", "unknown command 'trace'"),
    ] {
        let (command, argv) = words(line);
        let err = parse_command(&command, &argv)
            .err()
            .unwrap_or_else(|| panic!("{line} parsed"));
        assert!(err.contains(flag), "{err}");
    }
}

#[test]
fn cycle_lookup_accepts_aliases() {
    assert!(cycle_by_name("NEDC").is_some());
    assert!(cycle_by_name("ece-eudc").is_some());
    assert!(cycle_by_name("wltc3").is_some());
    assert!(cycle_by_name("imaginary").is_none());
}

/// Runs CI's `simulate --cycle ece15 --controller mpc --precondition`
/// with `flags` in process, the last one naming a file in a fresh
/// directory, and hands that file's path to `check`.
fn simulate_ece15_into<T>(flags: &str, check: impl FnOnce(&str) -> T) -> T {
    let dir = std::env::temp_dir().join(format!("evsim-{}-{}", flags.len(), std::process::id()));
    let path = dir.join("out").display().to_string();
    let line = format!("--cycle ece15 --controller mpc --precondition {flags} {path}");
    let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    let (run, args) = parse_command("simulate", &argv).expect("parses");
    run(&args).expect("simulates");
    let checked = check(&path);
    let _ = std::fs::remove_dir_all(&dir);
    checked
}

#[test]
fn validates_a_simulate_telemetry_file() {
    // CI's telemetry smoke.
    let (validated, text) = simulate_ece15_into("--telemetry", |path| {
        (cmd_validate_telemetry(path), std::fs::read_to_string(path))
    });
    validated.expect("the snapshot validates");
    let text = text.expect("snapshot written");
    // The run's solves are in the file, as CI greps for them.
    let solves = text
        .lines()
        .find_map(|l| l.strip_prefix("mpc_solves_total "))
        .expect("an unlabeled solve counter");
    assert!(solves.parse::<u64>().expect("a count") > 0, "{text}");
}

#[test]
fn rejects_malformed_metric_lines() {
    let dir = std::env::temp_dir().join(format!("evsim-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.prom");
    let path = path.display().to_string();
    let validate = |second_line: &str| {
        let text = format!("# TYPE solves_total counter\nsolves_total 7\n{second_line}\n");
        std::fs::write(&path, text).unwrap();
        cmd_validate_telemetry(&path)
    };
    validate("queue_depth{shard=\"0\"} 3.5").expect("a well-formed snapshot");
    for (line, what) in [
        ("queue_depth null", "null"),
        (r#"{"type":"counter","name":"x","value":1}"#, "metric name"),
        ("queue_depth{shard=0} 3.5", "unquoted"),
    ] {
        let err = validate(line).expect_err(line);
        assert!(
            err.starts_with(&format!("{path}: line 3: ")) && err.contains(what),
            "{line}: {err}"
        );
    }
    std::fs::write(&path, "# nothing\n").unwrap();
    assert!(cmd_validate_telemetry(&path)
        .unwrap_err()
        .contains("no samples"));
    let _ = std::fs::remove_dir_all(&dir);
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
    recorder.to_jsonl("unit test")
}

#[test]
fn explains_a_flight_recorder_dump() {
    let rendered = render_explain(&synthetic_dump()).expect("dump is schema-valid");
    assert!(rendered.contains("(1 decisions, 1 plant steps), 0 dropped"));
    assert!(rendered.contains("reason: unit test"));
    assert!(rendered.contains("Constraint-activation timeline"));
    assert!(rendered.contains("C5x1"), "{rendered}");
    assert!(rendered.contains("converged"));
    assert!(rendered.contains("cold"));
    assert!(rendered.contains("Attribution"));
    assert!(rendered.contains("0.0080"));
}

#[test]
fn explains_a_dump_with_an_error_decision() {
    use evclimate::telemetry::{DecisionRecord, SolveOutcome, WarmStart};
    // Mirror of the record `MpcController::capture_decision` emits on
    // `SolveOutcome::Error`: NaN objective/violation (spelled
    // "NaN"), no plan, no active set, no attribution — exactly what
    // the auto-dump path writes for a failed solve.
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
    for spelling in [
        "\"objective\":\"NaN\"",
        "\"plan\":[]",
        "\"attribution\":null",
    ] {
        assert!(dump.contains(spelling), "{dump}");
    }
    let rendered = render_explain(&dump).expect("error decisions are schema-valid");
    assert!(rendered.contains("error"), "{rendered}");
    assert!(rendered.contains("cold"));
    // No attribution: the table row is dashed out, not dropped.
    assert!(rendered
        .lines()
        .any(|l| l.contains('7') && l.contains(" -")));
}

#[test]
fn explains_the_ci_flight_recorder_dump() {
    // CI's flight-recorder smoke: one SQP iteration per solve, so every
    // solve ends in max_iterations and auto-dumps. Regenerate with
    // `UPDATE_GOLDEN=1 cargo test --bin evsim`.
    let flags = "--max-sqp-iterations 1 --flight-recorder";
    let text =
        simulate_ece15_into(flags, |path| std::fs::read_to_string(path)).expect("dump written");
    let rendered = render_explain(&text).expect("dump explains");
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("explain_ece15.txt");
    if let Err(e) = ev_testkit::verify_or_update_text(&golden, &rendered) {
        panic!("{e}");
    }
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
    // Wrong version: version 1 spelled non-finite floats `null`.
    assert!(render_explain(
        "{\"kind\":\"meta\",\"version\":1,\"capacity\":8,\"records\":0,\"dropped\":0,\"reason\":\"x\"}\n"
    )
    .is_err());
    // Record-count mismatch between header and body.
    let mut truncated: Vec<String> = synthetic_dump().lines().map(str::to_owned).collect();
    truncated.pop();
    assert!(render_explain(&truncated.join("\n")).is_err());
    // Each of these names what is wrong and the line it is on: mask
    // bits past the constraint rows, more rows than a mask holds, an
    // unknown outcome, an unknown warm-start kind and masks that do not
    // cover the plan.
    for (from, to, what) in [
        ("[16,0]", "[16384,0]", "constraint rows"),
        ("\"constraint_rows\":13", "\"constraint_rows\":33", "32-bit"),
        ("\"converged\"", "\"solved\"", "'solved'"),
        ("\"cold\"", "\"lukewarm\"", "'lukewarm'"),
        ("[16,0]", "[16]", "plan covers 2"),
    ] {
        let corrupt = synthetic_dump().replace(from, to);
        assert_ne!(corrupt, synthetic_dump(), "{from}");
        let err = render_explain(&corrupt).expect_err(to);
        assert!(err.starts_with("line 2: ") && err.contains(what), "{err}");
    }
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
    assert!(controller_by_name("pid").is_none());
}

#[test]
fn loadgen_config_reads_flags_and_keeps_defaults() {
    let args = parse("loadgen --sessions 7 --steps 11 --seed 99 --controller onoff");
    let defaults = LoadgenConfig::default();
    let config = loadgen_config(&args, "sessions", "steps", defaults.clone()).expect("parses");
    assert_eq!(config.sessions, 7);
    assert_eq!(config.steps_per_session, 11);
    assert_eq!(config.seed, 99);
    assert!(matches!(config.controller, ControllerKind::OnOff));
    assert_eq!(config.chunk, defaults.chunk);
    assert_eq!(config.queue_capacity, defaults.queue_capacity);

    let bad = parse("loadgen --controller thermostat");
    assert!(loadgen_config(&bad, "sessions", "steps", defaults).is_err());
}

#[test]
fn series_sum_matches_names_exactly_and_sums_labeled_series() {
    let samples = export::parse_prometheus(
        "# TYPE fleet_steps_total counter\n\
         fleet_steps_total 42\n\
         mpc_control_step_seconds_bucket{le=\"+Inf\"} 5\n\
         mpc_control_step_seconds_count 5\n",
    )
    .expect("parses");
    assert_eq!(series_sum(&samples, "fleet_steps_total", None), Some(42.0));
    assert_eq!(
        series_sum(&samples, "mpc_control_step_seconds_count", None),
        Some(5.0)
    );
    // Prefix of a longer name must not match.
    assert_eq!(series_sum(&samples, "fleet_steps", None), None);
    assert_eq!(series_sum(&samples, "missing_metric", None), None);
    // Per-shard labeled series sum to the fleet-wide value.
    let labeled = export::parse_prometheus(
        "fleet_steps_total{shard=\"0\"} 40\n\
         fleet_steps_total{shard=\"1\"} 2\n",
    )
    .expect("parses");
    assert_eq!(series_sum(&labeled, "fleet_steps_total", None), Some(42.0));
    assert_eq!(
        series_sum(&labeled, "fleet_steps_total", Some("1")),
        Some(2.0)
    );
}

#[test]
fn seeded_fault_fires_from_a_two_frame_segment() {
    // The shortest recording `record` writes: its frame before the
    // burst, then one frame after a burst in which every solve hit
    // the iteration cap.
    let rules = slo::parse_config(DEFAULT_SLO_RULES).expect("built-in rules parse");
    let mut engine = SloEngine::new(rules);
    let mut db = Tsdb::new();
    let t0 = 1_700_000_000_000;
    db.ingest(t0, &[]);
    engine.evaluate(&db, t0);
    let counter = |name: &str| PromSample {
        name: name.to_owned(),
        labels: vec![("shard".to_owned(), "0".to_owned())],
        value: 100.0,
        exemplar: None,
    };
    db.ingest(
        t0 + 50,
        &[
            counter("mpc_solves_total"),
            counter("mpc_solve_max_iterations_total"),
        ],
    );
    let statuses = engine.evaluate(&db, t0 + 50);
    let budget = statuses
        .iter()
        .find(|s| s.name == "solve-iteration-budget")
        .expect("built-in rule");
    assert!(budget.state.is_firing(), "{}", render_slo_status(&statuses));
    assert_eq!(budget.value, Some(4.0));
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
    let mut server = ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("binds loopback");
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
