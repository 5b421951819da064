//! Runs every workload at a tiny size through its config struct and
//! checks the output contract: every metric `BENCHMARK.json` names is
//! printed with its unit, the output checks and trace gates pass, and
//! the work done repeats exactly for a seed.

use evbench::arrivals::ControllerMix;
use evbench::fleet::FleetWorkload;
use evbench::sweep::SweepWorkload;
use evbench::{run, RunOptions, RunReport, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// `(name, unit)` of every metric in `BENCHMARK.json`, and the workload
/// names, read without a JSON dependency: every object of the file sits
/// on one line.
fn benchmark_json() -> (Vec<(String, String)>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let field = |line: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        line.find(&tag).map(|i| {
            let rest = &line[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
    };
    let mut metrics = Vec::new();
    let mut workloads = Vec::new();
    for line in text.lines() {
        match (field(line, "name"), field(line, "unit"), field(line, "why")) {
            (Some(name), Some(unit), _) => metrics.push((name, unit)),
            (Some(name), None, Some(_)) => workloads.push(name),
            _ => {}
        }
    }
    (metrics, workloads)
}

fn tiny(name: &str) -> Workload {
    let fleet = |mix, session_steps, max_sessions| {
        Workload::Fleet(FleetWorkload {
            mix,
            session_steps,
            request_steps: 4,
            max_active: 2,
            max_sessions: Some(max_sessions),
            check_sessions: 2,
            reference: None,
        })
    };
    match name {
        "fleet_mpc_mix" => fleet(ControllerMix::Mpc, Some(16), 3),
        "fleet_mpc_churn" => fleet(ControllerMix::Mpc, Some(8), 4),
        "fleet_rule_mix" => fleet(ControllerMix::Rule, None, 3),
        "sweep_fig8" => Workload::Sweep(SweepWorkload {
            cycles: vec![ev_drive::DriveCycle::ece15()],
            ambient_c: 35.0,
            max_rounds: Some(1),
            claims: None,
        }),
        other => panic!("unknown workload {other}"),
    }
}

fn run_tiny(name: &str, seed: u64, trace: bool) -> RunReport {
    run(
        &tiny(name),
        &RunOptions {
            seed,
            // Long enough that the session or round limit ends the run.
            seconds: 120.0,
            trace,
        },
    )
}

/// Every check passed, except the re-solve time ratio: a tiny run's few
/// solves leave that statistical gate to scheduling noise, so it is only
/// required to be evaluated (its logic has unit tests).
fn assert_checks_pass(report: &RunReport, what: &str) {
    assert_eq!(report.failed, 0, "{what}: failed operations");
    for c in &report.checks {
        if c.name != "trace.resolve_time_ratio" {
            assert!(c.passed, "{what}: check {} failed: {}", c.name, c.detail);
        }
    }
}

#[test]
fn benchmark_json_matches_the_tool() {
    let (metrics, workloads) = benchmark_json();
    let mut expected: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|s| (s.name.to_owned(), s.unit.to_owned()))
        .collect();
    let mut listed = metrics.clone();
    expected.sort();
    listed.sort();
    assert_eq!(
        listed, expected,
        "BENCHMARK.json and the tool list different metrics"
    );
    assert_eq!(
        workloads, WORKLOADS,
        "BENCHMARK.json and the tool list different workloads"
    );
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_passes_its_checks() {
    let (metrics, _) = benchmark_json();
    for name in WORKLOADS {
        for trace in [false, true] {
            let report = run_tiny(name, 42, trace);
            let what = format!("{name} trace={trace}");
            assert_checks_pass(&report, &what);
            if trace {
                assert!(
                    report
                        .checks
                        .iter()
                        .any(|c| c.name == "trace.resolve_counts_match_registry"),
                    "{what}: trace gates not evaluated"
                );
                if name.starts_with("fleet") {
                    // A request's latency encloses its open and step spans.
                    let wait = report.metrics["fleet.wait_us_per_request"];
                    assert!(wait >= 0.0, "{what}: negative wait {wait} us");
                }
            }
            let out = report.render(trace);
            let lines: Vec<&str> = out.lines().collect();
            let set = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            for s in set {
                assert!(metrics.contains(&(s.name.to_owned(), s.unit.to_owned())));
                let printed = lines
                    .iter()
                    .find(|l| l.split(' ').next() == Some(s.name))
                    .unwrap_or_else(|| panic!("{what}: {} not printed", s.name));
                let fields: Vec<&str> = printed.split(' ').collect();
                assert_eq!(fields.len(), 3, "{what}: {printed}");
                assert_eq!(fields[2], s.unit, "{what}: {printed}");
                let value: f64 = fields[1].parse().expect("numeric value");
                assert!(value.is_finite(), "{what}: {printed}");
                assert!(
                    lines
                        .last()
                        .unwrap()
                        .contains(&format!("\"{}\": {{\"value\": ", s.name)),
                    "{what}: {} missing from the JSON line",
                    s.name
                );
            }
            let json = lines.last().unwrap();
            assert!(json.starts_with("{\"correct\": "), "{what}: {json}");
            assert_eq!(
                json.starts_with("{\"correct\": true"),
                report.passed(),
                "{what}: {json}"
            );
            if !trace {
                for s in &END_TO_END {
                    assert!(
                        report.metrics[s.name] > 0.0,
                        "{what}: {} is not positive",
                        s.name
                    );
                }
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_counts_and_another_seed_changes_the_mix() {
    for name in ["fleet_mpc_mix", "fleet_mpc_churn", "fleet_rule_mix"] {
        let a = run_tiny(name, 42, true);
        let b = run_tiny(name, 42, true);
        assert_checks_pass(&a, name);
        for key in [
            "steps",
            "requests",
            "solves",
            "sqp_iterations",
            "qp_calls",
            "ipm_iterations",
        ] {
            assert!(a.counts.contains_key(key), "{name}: {key} not counted");
        }
        assert_eq!(a.counts, b.counts, "{name}: same seed, different work");
        assert_eq!(
            a.sessions, b.sessions,
            "{name}: same seed, different arrivals"
        );
        let c = run_tiny(name, 7, true);
        assert_ne!(
            a.sessions, c.sessions,
            "{name}: another seed, same arrivals"
        );
    }
    let mpc = run_tiny("fleet_mpc_mix", 42, true);
    assert!(mpc.counts["solves"] > 0 && mpc.counts["ipm_iterations"] > 0);
    let sweep_a = run_tiny("sweep_fig8", 42, true);
    let sweep_b = run_tiny("sweep_fig8", 9, true);
    assert_eq!(sweep_a.counts, sweep_b.counts, "the sweep ignores the seed");
}
