//! The shared drive-profile × controller sweep behind Figs. 7 and 8.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ev_control::MpcDiagnostics;
use ev_drive::DriveCycle;
use ev_telemetry::{FlightRecorder, Registry, Snapshot};

use crate::flight::FlightRecorderObserver;
use crate::observe::{NoopObserver, StepObserver};
use crate::telemetry::TelemetryObserver;
use crate::{ControllerKind, ControllerSetup, EvParams, Simulation, SimulationResult};

use super::{experiment_params, format_table, profile_at, COMPARISON_AMBIENT_C};

/// One cell of the evaluation matrix: a cycle driven by a controller.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Drive-profile name (e.g. `"NEDC"`).
    pub profile: String,
    /// Which controller drove it.
    pub controller: ControllerKind,
    /// The full simulation result.
    pub result: SimulationResult,
}

/// Runs the paper's full evaluation matrix — the five standard cycles
/// {NEDC, US06, ECE_EUDC, SC03, UDDS} × the three methodologies — at the
/// comparison ambient temperature. Figs. 7 and 8 are both projections of
/// this matrix.
///
/// # Panics
///
/// Panics if a simulation cannot be constructed (cannot happen for the
/// built-in cycles and parameters).
#[must_use]
pub fn evaluation_sweep() -> Vec<SweepCell> {
    evaluation_sweep_at(COMPARISON_AMBIENT_C, &DriveCycle::paper_evaluation_set())
}

/// The same matrix at an arbitrary ambient and cycle set (used by
/// Table I and the ablation benches).
///
/// # Panics
///
/// Panics if a simulation cannot be constructed (cannot happen for the
/// built-in cycles and parameters).
#[must_use]
pub fn evaluation_sweep_at(ambient_c: f64, cycles: &[DriveCycle]) -> Vec<SweepCell> {
    evaluation_sweep_observed(ambient_c, cycles, |_, _| NoopObserver)
        .into_iter()
        .map(|(cell, NoopObserver)| cell)
        .collect()
}

/// The evaluation matrix with a [`StepObserver`] attached to every cell,
/// so callers (the physics-invariant harness in `ev-testkit`, trace
/// exporters) can watch each simulated step of each cell. `make_observer`
/// is called once per cell with the profile name and controller kind;
/// the driven observers are returned alongside their cells.
///
/// # Panics
///
/// Panics if a simulation cannot be constructed (cannot happen for the
/// built-in cycles and parameters).
#[must_use]
pub fn evaluation_sweep_observed<O, F>(
    ambient_c: f64,
    cycles: &[DriveCycle],
    make_observer: F,
) -> Vec<(SweepCell, O)>
where
    O: StepObserver + Send,
    F: Fn(&str, ControllerKind) -> O + Sync,
{
    let mut params = experiment_params();
    // The paper compares the steady *regulation* behavior of the three
    // methodologies (its Fig. 5 traces start settled); start from a
    // preconditioned cabin so a controller cannot look cheap by simply
    // failing to pull a soaked cabin into the comfort zone.
    params.initial_cabin = Some(params.target);
    let sims = matrix_sims(&params, ambient_c, cycles);
    run_matrix(&sims, |name, sim, kind| {
        let mut controller = kind.instantiate(&params).expect("controller instantiates");
        let mut observer = make_observer(name, kind);
        let result = sim
            .run_observed(controller.as_mut(), &mut observer)
            .expect("simulation runs");
        (
            SweepCell {
                profile: name.to_owned(),
                controller: kind,
                result,
            },
            observer,
        )
    })
    .into_iter()
    .map(|(name, kind, outcome)| {
        // A bare `.expect()` here loses which cell died — with up to
        // 15 identical workers the panic was undiagnosable. Re-panic
        // with the cell identity and the worker's own message.
        outcome.unwrap_or_else(|payload| {
            let msg = panic_message(payload.as_ref());
            panic!("sweep worker for {name} x {kind:?} panicked: {msg}");
        })
    })
    .collect()
}

/// One simulation per cycle of the matrix, named after the cycle.
fn matrix_sims(
    params: &EvParams,
    ambient_c: f64,
    cycles: &[DriveCycle],
) -> Vec<(String, Simulation)> {
    cycles
        .iter()
        .map(|cycle| {
            let profile = profile_at(cycle, ambient_c);
            (
                cycle.name().to_owned(),
                Simulation::new(params.clone(), profile).expect("profile non-empty"),
            )
        })
        .collect()
}

/// Runs `cell` on every profile × controller cell of the matrix and
/// returns the outcomes in matrix order: profile by profile, each in
/// [`ControllerKind::paper_lineup`] order, a worker panic caught in its
/// cell's slot.
///
/// Every cell is independent, so they fan out on the bounded fleet pool
/// (an arbitrarily large matrix never spawns more OS threads than the
/// machine has cores), which claims them in the order of
/// [`claim_order`].
fn run_matrix<'s, T, F>(
    sims: &'s [(String, Simulation)],
    cell: F,
) -> Vec<(&'s str, ControllerKind, std::thread::Result<T>)>
where
    T: Send,
    F: Fn(&'s str, &'s Simulation, ControllerKind) -> T + Sync,
{
    let cells: Vec<(&str, &Simulation, ControllerKind)> = sims
        .iter()
        .flat_map(|(name, sim)| {
            ControllerKind::paper_lineup().map(|kind| (name.as_str(), sim, kind))
        })
        .collect();
    let order = claim_order(&cells);
    let cell = &cell;
    let jobs: Vec<_> = order
        .iter()
        .map(|&i| {
            let (name, sim, kind) = cells[i];
            move || cell(name, sim, kind)
        })
        .collect();
    let mut outcomes: Vec<Option<std::thread::Result<T>>> = cells.iter().map(|_| None).collect();
    let ran = crate::fleet::run_bounded(crate::fleet::available_workers(), jobs);
    for (&i, outcome) in order.iter().zip(ran) {
        outcomes[i] = Some(outcome);
    }
    cells
        .into_iter()
        .zip(outcomes)
        .map(|((name, _, kind), outcome)| (name, kind, outcome.expect("every cell ran")))
        .collect()
}

/// The order in which the pool claims the cells (indices into `cells`):
/// by expected cost, the MPC cells first, then fuzzy, then the rest, and
/// longer profiles first within each. Claimed in matrix order, the
/// longest cell (UDDS × MPC) came last and ran while the other workers
/// idled.
fn claim_order(cells: &[(&str, &Simulation, ControllerKind)]) -> Vec<usize> {
    let kind_rank = |kind: ControllerKind| match kind {
        ControllerKind::Mpc => 0,
        ControllerKind::Fuzzy => 1,
        ControllerKind::Pid | ControllerKind::OnOff => 2,
    };
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| {
        let (_, sim, kind) = cells[i];
        (kind_rank(kind), std::cmp::Reverse(sim.profile().len()))
    });
    order
}

/// How one sweep cell ended.
#[derive(Debug)]
pub enum SweepOutcome {
    /// The simulation ran to the end of its profile.
    Completed(Box<SimulationResult>),
    /// The cell failed — a simulation error or a worker panic — with a
    /// human-readable reason. The rest of the sweep is unaffected.
    Failed(String),
}

impl SweepOutcome {
    /// The simulation result, if the cell completed.
    #[must_use]
    pub fn result(&self) -> Option<&SimulationResult> {
        match self {
            Self::Completed(r) => Some(r),
            Self::Failed(_) => None,
        }
    }

    /// Whether the cell completed.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, Self::Completed(_))
    }
}

/// One cell of a robust, instrumented sweep: identity, outcome, solver
/// diagnostics and a telemetry snapshot.
#[derive(Debug)]
pub struct SweepCellResult {
    /// Drive-profile name (e.g. `"NEDC"`).
    pub profile: String,
    /// Which controller drove it.
    pub controller: ControllerKind,
    /// How the cell ended.
    pub outcome: SweepOutcome,
    /// Cumulative solver diagnostics (`None` for rule-based controllers
    /// and for cells whose worker panicked before returning one).
    pub diagnostics: Option<MpcDiagnostics>,
    /// The cell's telemetry snapshot (empty when telemetry was off).
    pub telemetry: Snapshot,
    /// Wall-clock time the cell took (s).
    pub wall_seconds: f64,
    /// Path of the flight-recorder post-mortem dump written for this
    /// cell, if it failed during a recorded sweep.
    pub postmortem: Option<PathBuf>,
}

/// A full instrumented sweep: every cell, even the failed ones.
#[derive(Debug)]
pub struct SweepResult {
    /// Ambient temperature the matrix ran at (°C).
    pub ambient_c: f64,
    /// All cells, in cycle-major order.
    pub cells: Vec<SweepCellResult>,
}

impl SweepResult {
    /// Cells that completed, projected onto the plain [`SweepCell`] shape
    /// the figure builders consume.
    #[must_use]
    pub fn completed(&self) -> Vec<SweepCell> {
        self.cells
            .iter()
            .filter_map(|c| {
                c.outcome.result().map(|r| SweepCell {
                    profile: c.profile.clone(),
                    controller: c.controller,
                    result: r.clone(),
                })
            })
            .collect()
    }

    /// The failed cells, as `(profile, controller, reason)`.
    #[must_use]
    pub fn failures(&self) -> Vec<(&str, ControllerKind, &str)> {
        self.cells
            .iter()
            .filter_map(|c| match &c.outcome {
                SweepOutcome::Failed(msg) => Some((c.profile.as_str(), c.controller, msg.as_str())),
                SweepOutcome::Completed(_) => None,
            })
            .collect()
    }
}

/// Runs the evaluation matrix robustly: every cell is isolated behind
/// [`catch_unwind`], so one diverging solve or panicking worker yields a
/// [`SweepOutcome::Failed`] row instead of poisoning the whole sweep.
/// With `telemetry` on, each cell gets its own [`Registry`] capturing the
/// controller's solver metrics (via
/// [`ControllerKind::instantiate_configured`]) and the plant-side
/// [`TelemetryObserver`] stream; off, registries are disabled and the hot
/// paths stay on their uninstrumented code.
#[must_use]
pub fn evaluation_sweep_run(ambient_c: f64, cycles: &[DriveCycle], telemetry: bool) -> SweepResult {
    evaluation_sweep_run_recorded(ambient_c, cycles, telemetry, None)
}

/// [`evaluation_sweep_run`] with a flight recorder on every cell. When
/// `postmortem_dir` is `Some`, each cell records its MPC decisions and
/// realized plant steps into a bounded ring buffer, and any cell that
/// fails — simulation error or worker panic — writes its last recorded
/// window to `<dir>/<profile>_<controller>.jsonl` (readable with
/// `evsim explain`). With `postmortem_dir = None` the recorders stay
/// disabled and this is exactly [`evaluation_sweep_run`].
#[must_use]
pub fn evaluation_sweep_run_recorded(
    ambient_c: f64,
    cycles: &[DriveCycle],
    telemetry: bool,
    postmortem_dir: Option<&Path>,
) -> SweepResult {
    let mut params = experiment_params();
    // Match `evaluation_sweep_observed`: start from a preconditioned
    // cabin so the comparison is about regulation, not pull-down.
    params.initial_cabin = Some(params.target);
    let sims = matrix_sims(&params, ambient_c, cycles);
    let cells = run_matrix(&sims, |_, sim, kind| {
        let registry = Registry::with_enabled(telemetry);
        let recorder = FlightRecorder::with_enabled(postmortem_dir.is_some());
        let t0 = std::time::Instant::now();
        let mut controller = kind
            .instantiate_configured(
                &params,
                &ControllerSetup {
                    telemetry: registry.clone(),
                    recorder: recorder.clone(),
                    ..ControllerSetup::default()
                },
            )
            .expect("controller instantiates");
        let mut observer = (
            TelemetryObserver::new(&registry),
            FlightRecorderObserver::new(&recorder),
        );
        let run = catch_unwind(AssertUnwindSafe(|| {
            sim.run_observed(controller.as_mut(), &mut observer)
        }));
        let outcome = match run {
            Ok(Ok(result)) => SweepOutcome::Completed(Box::new(result)),
            Ok(Err(err)) => SweepOutcome::Failed(err.to_string()),
            Err(payload) => SweepOutcome::Failed(panic_message(payload.as_ref())),
        };
        (
            outcome,
            controller.solver_diagnostics(),
            registry.snapshot(),
            t0.elapsed().as_secs_f64(),
            recorder,
        )
    })
    .into_iter()
    .map(|(profile, controller, worker)| {
        // The job caught run-time panics itself; an Err slot means
        // something outside the guarded region blew up (instantiation).
        let (outcome, diagnostics, telemetry, wall_seconds, recorder) =
            worker.unwrap_or_else(|payload| {
                (
                    SweepOutcome::Failed(panic_message(payload.as_ref())),
                    None,
                    Snapshot::default(),
                    0.0,
                    FlightRecorder::disabled(),
                )
            });
        let postmortem = match (&outcome, postmortem_dir) {
            (SweepOutcome::Failed(reason), Some(dir)) => {
                write_cell_postmortem(dir, profile, controller, reason, &recorder)
            }
            _ => None,
        };
        SweepCellResult {
            profile: profile.to_owned(),
            controller,
            outcome,
            diagnostics,
            telemetry,
            wall_seconds,
            postmortem,
        }
    })
    .collect();
    SweepResult { ambient_c, cells }
}

/// Dumps a failed cell's flight-recorder window to
/// `<dir>/<profile>_<controller>.jsonl`, returning the path on success.
/// A disabled recorder (or a dump that cannot be written) yields `None`;
/// the sweep itself is never failed by post-mortem I/O.
fn write_cell_postmortem(
    dir: &Path,
    profile: &str,
    controller: ControllerKind,
    reason: &str,
    recorder: &FlightRecorder,
) -> Option<PathBuf> {
    if !recorder.is_enabled() {
        return None;
    }
    let stem: String = profile
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("{stem}_{controller:?}.jsonl"));
    let why = format!("sweep cell {profile} x {controller:?} failed: {reason}");
    recorder.dump_to(&path, &why).ok().map(|()| path)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Formats an instrumented sweep as the human-readable run report printed
/// by the `repro` and `evsim` binaries: one row per cell with the solver
/// health columns (solves, convergence rate, the max-iteration / stalled
/// / error outcome counts, total and mean SQP iterations, warm-start hit
/// rate) and — when `include_timings` is set — the p50/p99 `control_step`
/// latencies from the cell's telemetry snapshot. Timings are redacted
/// with `include_timings = false` so the report is deterministic (the
/// golden-snapshot tests rely on this). Failed cells repeat their reason
/// below the table, naming the post-mortem dump when one was written.
#[must_use]
pub fn render_sweep_report(sweep: &SweepResult, include_timings: bool) -> String {
    let dash = || "-".to_owned();
    let fmt_rate = |x: f64| {
        if x.is_nan() {
            dash()
        } else {
            format!("{:.0}%", 100.0 * x)
        }
    };
    let mut header: Vec<String> = [
        "profile",
        "controller",
        "status",
        "solves",
        "conv",
        "max-iter",
        "stalled",
        "err",
        "iters",
        "iters/solve",
        "warm-start",
    ]
    .map(str::to_owned)
    .to_vec();
    if include_timings {
        header.push("p50 step".to_owned());
        header.push("p99 step".to_owned());
    }
    let mut rows = Vec::with_capacity(sweep.cells.len());
    for cell in &sweep.cells {
        let mut row = vec![
            cell.profile.clone(),
            short_name(cell.controller).to_owned(),
            match &cell.outcome {
                SweepOutcome::Completed(_) => "ok".to_owned(),
                SweepOutcome::Failed(_) => "FAILED".to_owned(),
            },
        ];
        match cell.diagnostics {
            Some(d) => {
                row.push(d.solves.to_string());
                row.push(fmt_rate(d.convergence_rate()));
                row.push(d.max_iterations.to_string());
                row.push(d.line_search_stalled.to_string());
                row.push(d.solver_errors.to_string());
                row.push(d.sqp_iterations.to_string());
                row.push(if d.mean_sqp_iterations().is_nan() {
                    dash()
                } else {
                    format!("{:.1}", d.mean_sqp_iterations())
                });
                row.push(fmt_rate(d.warm_start_hit_rate()));
            }
            None => row.extend(std::iter::repeat_with(dash).take(8)),
        }
        if include_timings {
            match cell.telemetry.histogram("mpc_control_step_seconds") {
                Some(h) if h.count > 0 => {
                    row.push(format!("{:.2} ms", 1e3 * h.quantile(0.5)));
                    row.push(format!("{:.2} ms", 1e3 * h.quantile(0.99)));
                }
                _ => row.extend([dash(), dash()]),
            }
        }
        rows.push(row);
    }
    let mut out = format!(
        "Run report: {} cells at {:.0} degC ambient\n",
        sweep.cells.len(),
        sweep.ambient_c
    );
    out.push_str(&format_table(&header, &rows));
    for cell in &sweep.cells {
        if let SweepOutcome::Failed(reason) = &cell.outcome {
            out.push_str(&format!(
                "FAILED {} x {}: {reason}",
                cell.profile,
                short_name(cell.controller)
            ));
            if let Some(path) = &cell.postmortem {
                out.push_str(&format!(" (post-mortem: {})", path.display()));
            }
            out.push('\n');
        }
    }
    out
}

fn short_name(kind: ControllerKind) -> &'static str {
    match kind {
        ControllerKind::OnOff => "On/Off",
        ControllerKind::Fuzzy => "Fuzzy",
        ControllerKind::Pid => "PID",
        ControllerKind::Mpc => "MPC",
    }
}

/// Finds a cell in a sweep by profile name and controller.
#[must_use]
pub fn find<'a>(
    cells: &'a [SweepCell],
    profile: &str,
    controller: ControllerKind,
) -> Option<&'a SweepCell> {
    cells
        .iter()
        .find(|c| c.profile == profile && c.controller == controller)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_sweep_has_all_controllers() {
        let cells = evaluation_sweep_at(35.0, &[DriveCycle::ece15()]);
        assert_eq!(cells.len(), 3);
        assert!(find(&cells, "ECE-15", ControllerKind::OnOff).is_some());
        assert!(find(&cells, "ECE-15", ControllerKind::Fuzzy).is_some());
        assert!(find(&cells, "ECE-15", ControllerKind::Mpc).is_some());
        assert!(find(&cells, "ECE-15", ControllerKind::Pid).is_none());
    }

    #[test]
    fn instrumented_sweep_reports_solver_and_plant_metrics() {
        let sweep = evaluation_sweep_run(35.0, &[DriveCycle::ece15()], true);
        assert_eq!(sweep.cells.len(), 3);
        assert!(sweep.failures().is_empty());
        assert_eq!(sweep.completed().len(), 3);
        for cell in &sweep.cells {
            assert!(cell.outcome.is_completed());
            assert!(cell.wall_seconds > 0.0);
            let steps = cell.telemetry.counter("sim_steps_total").unwrap();
            assert!(steps > 0, "{steps}");
            match cell.controller {
                ControllerKind::Mpc => {
                    let d = cell.diagnostics.expect("MPC exposes diagnostics");
                    assert!(d.solves > 0);
                    // Every solve is accounted for by exactly one outcome.
                    assert_eq!(
                        d.converged + d.max_iterations + d.line_search_stalled + d.solver_errors,
                        d.solves,
                        "{d:?}"
                    );
                    assert!(!d.convergence_rate().is_nan());
                    assert!(!d.warm_start_hit_rate().is_nan());
                    let h = cell
                        .telemetry
                        .histogram("mpc_control_step_seconds")
                        .expect("MPC records step latency");
                    assert_eq!(h.count, steps);
                }
                _ => assert!(cell.diagnostics.is_none()),
            }
        }
    }

    #[test]
    fn untelemetered_sweep_has_empty_snapshots_but_diagnostics() {
        let sweep = evaluation_sweep_run(35.0, &[DriveCycle::ece15()], false);
        for cell in &sweep.cells {
            assert!(cell.telemetry.is_empty());
        }
        let mpc = sweep
            .cells
            .iter()
            .find(|c| c.controller == ControllerKind::Mpc)
            .unwrap();
        // The plain-u64 diagnostics stay on even with telemetry off.
        assert!(mpc.diagnostics.unwrap().solves > 0);
    }

    #[test]
    fn sweep_report_renders_all_cells() {
        let sweep = evaluation_sweep_run(35.0, &[DriveCycle::ece15()], true);
        let with_timings = render_sweep_report(&sweep, true);
        assert!(with_timings.contains("MPC"));
        assert!(with_timings.contains("p99 step"));
        assert!(with_timings.contains("ms"));
        let redacted = render_sweep_report(&sweep, false);
        assert!(!redacted.contains("p99 step"));
        assert!(!redacted.contains("ms"));
        // "Run report:" line + table header + separator + one row per cell.
        assert_eq!(redacted.lines().count(), 3 + sweep.cells.len());
        // The solver-outcome columns are populated for the MPC row.
        assert!(redacted.contains("max-iter"));
        assert!(redacted.contains("stalled"));
    }

    #[test]
    fn mixed_outcome_report_lists_failures_and_postmortems() {
        let mut sweep = evaluation_sweep_run(35.0, &[DriveCycle::ece15()], false);
        // Append synthetic failed cells: a panicked rule-based worker
        // (no diagnostics, no dump) and an errored MPC cell whose
        // post-mortem was written.
        sweep.cells.push(SweepCellResult {
            profile: "ECE-15".to_owned(),
            controller: ControllerKind::OnOff,
            outcome: SweepOutcome::Failed("worker panicked: boom".to_owned()),
            diagnostics: None,
            telemetry: Snapshot::default(),
            wall_seconds: 0.0,
            postmortem: None,
        });
        sweep.cells.push(SweepCellResult {
            profile: "ECE-15".to_owned(),
            controller: ControllerKind::Mpc,
            outcome: SweepOutcome::Failed("solver error: non-finite data".to_owned()),
            diagnostics: Some(MpcDiagnostics {
                solves: 3,
                converged: 2,
                solver_errors: 1,
                sqp_iterations: 9,
                warm_start_hits: 2,
                warm_start_misses: 1,
                ..MpcDiagnostics::default()
            }),
            telemetry: Snapshot::default(),
            wall_seconds: 0.1,
            postmortem: Some(PathBuf::from("target/flight/ECE-15_Mpc.jsonl")),
        });
        let report = render_sweep_report(&sweep, false);
        // Header block + one row per cell + one trailing line per failure.
        assert_eq!(report.lines().count(), 3 + sweep.cells.len() + 2);
        assert!(report.contains("FAILED ECE-15 x On/Off: worker panicked: boom"));
        assert!(report.contains("FAILED ECE-15 x MPC: solver error: non-finite data"));
        assert!(report.contains("(post-mortem: target/flight/ECE-15_Mpc.jsonl)"));
        // The failed MPC row still surfaces its partial diagnostics.
        let mpc_failed = report
            .lines()
            .find(|l| l.contains("MPC") && l.contains("FAILED"))
            .expect("failed MPC row rendered");
        assert!(mpc_failed.contains('3'), "{mpc_failed}");
        // The panicked rule-based row renders dashes for all 8 columns.
        let panicked = report
            .lines()
            .find(|l| l.contains("On/Off") && l.contains("FAILED"))
            .expect("panicked row rendered");
        let dashes = panicked.split_whitespace().filter(|t| *t == "-").count();
        assert_eq!(dashes, 8, "{panicked}");
    }

    #[test]
    fn cells_are_claimed_costliest_first_and_returned_in_matrix_order() {
        use ControllerKind::{Fuzzy, Mpc, OnOff};
        let cycles = [DriveCycle::ece15(), DriveCycle::udds(), DriveCycle::us06()];
        let sims = matrix_sims(&experiment_params(), 35.0, &cycles);
        let cells: Vec<_> = sims
            .iter()
            .flat_map(|(name, sim)| {
                ControllerKind::paper_lineup().map(|kind| (name.as_str(), sim, kind))
            })
            .collect();
        let claimed: Vec<(ControllerKind, usize)> = claim_order(&cells)
            .into_iter()
            .map(|i| (cells[i].2, cells[i].1.profile().len()))
            .collect();
        let kinds: Vec<_> = claimed.iter().map(|&(kind, _)| kind).collect();
        assert_eq!(
            kinds,
            [Mpc, Mpc, Mpc, Fuzzy, Fuzzy, Fuzzy, OnOff, OnOff, OnOff]
        );
        for same_kind in claimed.chunks(3) {
            assert!(same_kind.windows(2).all(|w| w[0].1 > w[1].1), "{claimed:?}");
        }
        let udds = sims.iter().find(|(name, _)| name == "UDDS").unwrap();
        assert_eq!(claimed[0], (Mpc, udds.1.profile().len()));

        let ran = run_matrix(&sims, |name, _, kind| format!("{name} x {kind:?}"));
        assert_eq!(ran.len(), cells.len());
        for ((name, kind, outcome), (cell_name, _, cell_kind)) in ran.iter().zip(&cells) {
            assert_eq!((*name, *kind), (*cell_name, *cell_kind));
            assert_eq!(outcome.as_ref().unwrap(), &format!("{name} x {kind:?}"));
        }
    }

    #[test]
    fn healthy_recorded_sweep_writes_no_postmortems() {
        let dir = std::env::temp_dir().join(format!(
            "ev-sweep-postmortem-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = evaluation_sweep_run_recorded(35.0, &[DriveCycle::ece15()], false, Some(&dir));
        assert!(sweep.failures().is_empty());
        assert!(sweep.cells.iter().all(|c| c.postmortem.is_none()));
        // No dump means the directory is never created.
        assert!(!dir.exists());
    }

    #[test]
    fn cell_postmortem_dump_is_written_and_readable() {
        let dir = std::env::temp_dir().join(format!(
            "ev-sweep-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::enabled(8);
        recorder.note("sweep", "cell aborted");
        let path = write_cell_postmortem(
            &dir,
            "ECE-15",
            ControllerKind::Mpc,
            "cabin temperature diverged",
            &recorder,
        )
        .expect("dump written");
        assert_eq!(path, dir.join("ECE-15_Mpc.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("sweep cell ECE-15 x Mpc failed: cabin temperature diverged"));
        assert!(text.contains("\"kind\":\"note\""));
        // Disabled recorders never write anything.
        assert!(write_cell_postmortem(
            &dir,
            "ECE-15",
            ControllerKind::OnOff,
            "boom",
            &FlightRecorder::disabled()
        )
        .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
