//! The repository benchmark: end-to-end metrics of the fleet engine and
//! the evaluation sweep on four workloads, and an outside-in per-layer
//! ledger of the production MPC step.
//!
//! Everything here calls the program's public API from outside
//! (`FleetEngine` commands, `Simulation` sessions, `ClimateController`,
//! `MpcController::nlp`, `SqpSolver::solve_observed`,
//! `evaluation_sweep_run`) and reads only exact sums and counts from
//! the registry series the program already emits. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod arrivals;
mod calib;
pub mod fleet;
mod ledger;
mod quantile;
pub mod sweep;

use arrivals::{ControllerMix, SessionSpec};
use calib::Work;
use fleet::{FleetReference, FleetWorkload};
use sweep::{PaperClaims, SweepWorkload};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A metric's name and unit, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [MetricSpec; 5] = [
    spec("steps_per_s", "1/s"),
    spec("request_p50_ms", "ms"),
    spec("request_p95_ms", "ms"),
    spec("solve_ok_share", "ratio"),
    spec("setup_s", "s"),
];

/// The per-layer metrics, printed by every traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [MetricSpec; 31] = [
    spec("fleet.busy_us_per_request", "us"),
    spec("fleet.wait_us_per_request", "us"),
    spec("fleet.open_us", "us"),
    spec("sim.plant_us_per_step", "us"),
    spec("mpc.solve_us_p50", "us"),
    spec("mpc.solve_us_p99", "us"),
    spec("mpc.solve_us_mean", "us"),
    spec("mpc.held_us_per_step", "us"),
    spec("mpc.warm_hit_ratio", "ratio"),
    spec("mpc.rollout_cache_hit_ratio", "ratio"),
    spec("nlp.share", "ratio"),
    spec("nlp.objective_us", "us"),
    spec("nlp.gradient_us", "us"),
    spec("nlp.ineq_us", "us"),
    spec("nlp.jacobian_us", "us"),
    spec("nlp.calls_per_sqp_iter", "call/iter"),
    spec("sqp.iters_per_solve", "iter/solve"),
    spec("sqp.line_search_trials_per_iter", "trial/iter"),
    spec("sqp.self_share", "ratio"),
    spec("sqp.self_us_per_iter", "us"),
    spec("sqp.max_iter_share", "ratio"),
    spec("sqp.stalled_share", "ratio"),
    spec("qp.share", "ratio"),
    spec("qp.us_per_call", "us"),
    spec("qp.ipm_iters_per_call", "iter/call"),
    spec("qp.us_per_ipm_iter", "us"),
    spec("qp.elastic", "count"),
    spec("qp.fallback", "count"),
    spec("qp.reg_retry", "count"),
    spec("sweep.pool_efficiency", "ratio"),
    spec("sweep.critical_cell_s", "s"),
];

/// How many times a run builds its set-up before its timed phase. It
/// builds it once more every [`SETUP_EVERY`] slices, and `setup_s` is
/// the median of all of them. Sampling across the run keeps one stretch
/// of host noise from setting a millisecond-scale metric.
const SETUP_REPS: usize = 9;

/// Slices of a fleet run between two set-up builds.
const SETUP_EVERY: usize = 10;

/// Seconds of a fleet run's time slice (the sweep's slices are its
/// rounds). The host is calibrated between slices, and a slice is short
/// enough that the host's speed rarely changes within it.
const SLICE_S: f64 = 0.05;

/// The work and request latencies of one slice of a run.
#[derive(Debug, Default)]
struct Slice {
    /// Plant steps completed.
    steps: u64,
    /// Wall seconds the slice took.
    wall_s: f64,
    /// Latency (s) of each request completed in it.
    latencies: Vec<f64>,
    /// How many times slower than the reference the host ran the
    /// workload's kind of work around the slice.
    slowdown: f64,
}

/// The host calibrations of a run, made between its slices or sampled
/// while they run, and the set-up builds timed next to them.
struct HostClock {
    work: Work,
    /// Every calibration's slowdown, in order.
    slowdowns: Vec<f64>,
    /// Raw set-up seconds, each with the scalar slowdown measured just
    /// before it.
    setups: Vec<(f64, f64)>,
}

impl HostClock {
    /// Calibrates once with `work`'s kernels.
    fn new(work: Work) -> Self {
        Self {
            work,
            slowdowns: vec![calib::slowdown(work)],
            setups: Vec::new(),
        }
    }

    /// Calibrates after `slice` and sets its slowdown to the mean of the
    /// calibrations on either side.
    fn end_slice(&mut self, slice: &mut Slice) {
        let before = *self.slowdowns.last().expect("calibrated at start");
        let after = calib::slowdown(self.work);
        slice.slowdown = 0.5 * (before + after);
        self.slowdowns.push(after);
    }

    /// Runs `slice`, which returns the slice without its slowdown, while
    /// the host is sampled (see [`calib::sampled`]).
    fn sampled_slice(&mut self, slice: impl FnOnce() -> Slice) -> Slice {
        let (mut slice, slowdown) = calib::sampled(self.work, slice);
        slice.slowdown = slowdown;
        self.slowdowns.push(slowdown);
        slice
    }

    /// Times `reps` calls of `build`, hands all but the last result to
    /// `discard` outside the timed region, and returns the last. Building
    /// a set-up is allocation and scalar model arithmetic on one thread,
    /// so its times are scaled by the scalar kernels, timed just before.
    fn timed_builds<T>(
        &mut self,
        reps: usize,
        mut build: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) -> T {
        let slowdown = calib::slowdown(Work::Scalar);
        let mut last = None;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let built = build();
            self.setups.push((t.elapsed().as_secs_f64(), slowdown));
            if let Some(old) = last.replace(built) {
                discard(old);
            }
        }
        last.expect("at least one build")
    }

    /// Sets `setup_s` and notes the raw set-up times and calibrations.
    fn report(&self, report: &mut RunReport) {
        let normalized: Vec<f64> = self.setups.iter().map(|(t, s)| t / s).collect();
        let raw: Vec<f64> = self.setups.iter().map(|(t, _)| *t).collect();
        report.metrics.insert("setup_s", median(&normalized));
        report.notes.push(format!(
            "{} set-up builds: median {:.4} ms raw, {:.4} ms at reference speed",
            raw.len(),
            1e3 * median(&raw),
            1e3 * median(&normalized)
        ));
        let mut sorted = self.slowdowns.clone();
        sorted.sort_by(f64::total_cmp);
        report.notes.push(format!(
            "{} {:?} calibrations: slowdown min {:.3} median {:.3} max {:.3}",
            sorted.len(),
            self.work,
            sorted[0],
            median(&sorted),
            sorted[sorted.len() - 1]
        ));
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
#[must_use]
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of a non-empty sample set.
#[must_use]
fn median(samples: &[f64]) -> f64 {
    quantile::nearest_rank(&mut samples.to_vec(), 0.5).value
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The figures behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check result.
    #[must_use]
    pub fn new(name: &str, passed: bool, detail: String) -> Self {
        Self {
            name: name.to_owned(),
            passed,
            detail,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted: requests (fleet) or sweep cells.
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Output checks (and, traced, the trace gates).
    pub checks: Vec<Check>,
    /// Work counts that repeat exactly for a seed and stopping rule.
    pub counts: BTreeMap<&'static str, u64>,
    /// Sessions the client generated, in arrival order (fleet only).
    pub sessions: Vec<SessionSpec>,
    /// Human-readable detail: sample counts, diagnostics, layer table.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Whether every check passed and no operation failed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// Renders the notes, the checks, one `name value unit` line per
    /// metric of the selected set and, last, the JSON result line.
    #[must_use]
    pub fn render(&self, trace: bool) -> String {
        let specs: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "# check {verdict} {}: {}", c.name, c.detail);
        }
        let mut json = String::new();
        for (i, s) in specs.iter().enumerate() {
            let value = self.metric_value(s.name);
            let _ = writeln!(out, "{} {value} {}", s.name, s.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.passed(),
            self.attempted,
            self.failed
        );
        out
    }

    /// A metric as printed: per-layer metrics of idle layers read 0, and
    /// so does an unset or non-finite end-to-end metric (which fails
    /// `metrics.finite_and_positive`), so the JSON stays valid.
    fn metric_value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    }

    /// Records the work counts that must repeat for a seed and stopping
    /// rule.
    fn count_work(&mut self, steps: u64, requests: u64, solver: &BTreeMap<&'static str, u64>) {
        self.counts.insert("steps", steps);
        self.counts.insert("requests", requests);
        self.counts.insert("solves", solver["mpc_solves_total"]);
        self.counts
            .insert("sqp_iterations", solver["mpc_sqp_iterations.sum"]);
        self.counts
            .insert("qp_calls", solver["sqp_qp_seconds.count"]);
    }

    /// Sets `steps_per_s` and the exact nearest-rank `request_p50_ms` and
    /// `request_p95_ms` over every request of the run, all at the
    /// reference host speed, and notes the raw figures beside their
    /// sample counts.
    fn slice_metrics(&mut self, what: &str, slices: &[Slice]) {
        let steps: u64 = slices.iter().map(|s| s.steps).sum();
        let wall_s: f64 = slices.iter().map(|s| s.wall_s).sum();
        let reference_s: f64 = slices.iter().map(|s| s.wall_s / s.slowdown).sum();
        let steps_per_s = steps as f64 / reference_s;
        self.metrics.insert("steps_per_s", steps_per_s);
        self.notes.push(format!(
            "{} slices, {steps} steps in {wall_s:.3} s: raw {:.1} steps/s, host {:.3}× slower than the reference",
            slices.len(),
            steps as f64 / wall_s,
            wall_s / reference_s
        ));
        let latencies_ms = |scaled: bool| -> Vec<f64> {
            slices
                .iter()
                .flat_map(|s| {
                    let scale = if scaled { 1e3 / s.slowdown } else { 1e3 };
                    s.latencies.iter().map(move |l| scale * l)
                })
                .collect()
        };
        let mut reference = latencies_ms(true);
        let mut raw = latencies_ms(false);
        for (q, name) in [
            (0.5, Some("request_p50_ms")),
            (0.95, Some("request_p95_ms")),
            (0.99, None),
        ] {
            let r = quantile::nearest_rank(&mut reference, q);
            let raw = quantile::nearest_rank(&mut raw, q);
            if let Some(name) = name {
                self.metrics.insert(name, r.value);
            }
            self.notes.push(format!(
                "{what} p{:.0} {:.4} ms at reference speed, {:.4} ms raw (n={}, {} beyond)",
                100.0 * q,
                r.value,
                raw.value,
                r.n,
                r.beyond
            ));
        }
    }

    /// Adds a failed check unless every end-to-end metric is finite and
    /// positive.
    fn check_end_to_end(&mut self) {
        let bad: Vec<&str> = END_TO_END
            .iter()
            .map(|s| s.name)
            .filter(|n| {
                !self
                    .metrics
                    .get(n)
                    .is_some_and(|v| v.is_finite() && *v > 0.0)
            })
            .collect();
        self.checks.push(Check::new(
            "metrics.finite_and_positive",
            bad.is_empty(),
            if bad.is_empty() {
                "every end-to-end metric measured".to_owned()
            } else {
                format!("not measured: {}", bad.join(", "))
            },
        ));
    }
}

/// A workload and its size.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A fleet-engine workload.
    Fleet(FleetWorkload),
    /// The evaluation-sweep workload.
    Sweep(SweepWorkload),
}

/// Names of the benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "fleet_mpc_mix",
    "fleet_mpc_churn",
    "fleet_rule_mix",
    "sweep_fig8",
];

/// The workload named `name` at its benchmark size.
#[must_use]
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // The serving path at production config: soaked-cabin pull-down
        // then regulation, one re-solve per 4-step request.
        "fleet_mpc_mix" => Workload::Fleet(FleetWorkload {
            mix: ControllerMix::Mpc,
            session_steps: Some(240),
            request_steps: 4,
            max_active: 16,
            max_sessions: None,
            check_sessions: 8,
            reference: Some(FleetReference {
                seed: 42,
                mean_soc_pct: 91.435_946,
                mean_cabin_c: 18.660_817,
            }),
        }),
        // Short sessions: every solve is a session's first or second,
        // so state carried across solves never pays off here.
        "fleet_mpc_churn" => Workload::Fleet(FleetWorkload {
            mix: ControllerMix::Mpc,
            session_steps: Some(8),
            request_steps: 4,
            max_active: 16,
            max_sessions: None,
            check_sessions: 8,
            reference: Some(FleetReference {
                seed: 42,
                mean_soc_pct: 94.944_409,
                mean_cabin_c: 15.805_504,
            }),
        }),
        // Rule-based controllers over whole drives: no solver work, so
        // the plant and the engine's command path are the whole cost.
        "fleet_rule_mix" => Workload::Fleet(FleetWorkload {
            mix: ControllerMix::Rule,
            session_steps: None,
            request_steps: 256,
            max_active: 32,
            max_sessions: None,
            check_sessions: 8,
            reference: Some(FleetReference {
                seed: 42,
                mean_soc_pct: 87.478_318,
                mean_cabin_c: 18.503_314,
            }),
        }),
        // The researcher's batch path: `repro fig7|fig8`.
        "sweep_fig8" => Workload::Sweep(SweepWorkload {
            cycles: ev_drive::DriveCycle::paper_evaluation_set(),
            ambient_c: ev_core::experiments::COMPARISON_AMBIENT_C,
            max_rounds: None,
            claims: Some(PaperClaims::REPRODUCED),
        }),
        _ => return None,
    })
}

/// How a run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Seed of the client's arrival stream (the sweep ignores it).
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Runs `workload` and checks its outputs.
#[must_use]
pub fn run(workload: &Workload, opts: &RunOptions) -> RunReport {
    let mut report = match workload {
        Workload::Fleet(w) => fleet::run(w, opts),
        Workload::Sweep(w) => sweep::run(w, opts),
    };
    if !opts.trace {
        report.check_end_to_end();
    }
    report
}
