//! The evaluation-sweep workload: `evaluation_sweep_run(35 °C,
//! paper_evaluation_set(), telemetry = true)`, exactly what
//! `repro fig7|fig8` runs, on the bounded pool's `available_workers()`
//! workers, round after round until the time limit, with timed set-up
//! builds between rounds. The host's speed is sampled with the dense
//! kernels while a round runs. A request is one round, what a
//! `repro fig7|fig8` call waits for, and a round is also one slice of
//! the run. The matrix is fixed, so the seed does not apply.

use std::time::Instant;

use ev_core::experiments::{
    evaluation_sweep_run, experiment_params, fig7_from, fig8_from, profile_at, SweepResult,
};
use ev_core::fleet::available_workers;
use ev_core::{EvParams, Simulation};
use ev_drive::DriveCycle;
use ev_telemetry::Registry;

use crate::calib::Work;
use crate::fleet::counts_check;
use crate::ledger::{self, Ledger, Replayed};
use crate::{ratio, Check, HostClock, RunOptions, RunReport, Slice, SETUP_REPS};

/// A sweep workload's shape.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    /// Drive cycles of the matrix (× the paper's three controllers).
    pub cycles: Vec<DriveCycle>,
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Stop after this many rounds (`None`: the time limit alone ends
    /// the run).
    pub max_rounds: Option<usize>,
    /// The headline numbers the matrix must reproduce, when it is the
    /// paper's.
    pub claims: Option<PaperClaims>,
}

/// The paper reproduction's headline numbers with their tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperClaims {
    /// Fig. 7: mean ΔSoH improvement of the MPC over On/Off (%).
    pub soh_improvement_pct: f64,
    /// Allowed deviation (percentage points).
    pub soh_tol_pp: f64,
    /// Fig. 8: mean HVAC power reduction of the MPC vs On/Off (%).
    pub hvac_reduction_pct: f64,
    /// Allowed deviation (percentage points).
    pub hvac_tol_pp: f64,
}

impl PaperClaims {
    /// The values `repro fig7` / `repro fig8` print (EXPERIMENTS.md).
    pub const REPRODUCED: Self = Self {
        soh_improvement_pct: 13.0,
        soh_tol_pp: 0.2,
        hvac_reduction_pct: 54.5,
        hvac_tol_pp: 0.5,
    };
}

/// The sweep's parameters: the experiment EV with a preconditioned
/// cabin, as `evaluation_sweep_run` sets them.
fn sweep_params() -> EvParams {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    params
}

/// The per-cycle simulations the sweep builds before fanning out.
fn build_sims(w: &SweepWorkload, params: &EvParams) -> Vec<Simulation> {
    w.cycles
        .iter()
        .map(|c| {
            Simulation::new(params.clone(), profile_at(c, w.ambient_c))
                .expect("built-in profiles are non-empty")
        })
        .collect()
}

/// Runs the sweep workload. See the module docs.
#[must_use]
pub(crate) fn run(w: &SweepWorkload, opts: &RunOptions) -> RunReport {
    let params = sweep_params();
    let mut clock = HostClock::new(Work::Dense);
    let sims = clock.timed_builds(SETUP_REPS, || build_sims(w, &params), drop);

    let mut report = RunReport::default();
    let mut rounds: Vec<Slice> = Vec::new();
    let mut snapshots = Vec::new();
    let mut first: Option<SweepResult> = None;
    let start = Instant::now();
    loop {
        let mut sweep = None;
        let round = clock.sampled_slice(|| {
            let t = Instant::now();
            let s = sweep.insert(evaluation_sweep_run(w.ambient_c, &w.cycles, true));
            let wall_s = t.elapsed().as_secs_f64();
            Slice {
                wall_s,
                steps: s
                    .cells
                    .iter()
                    .filter_map(|c| c.outcome.result())
                    .map(|r| r.series.t.len() as u64)
                    .sum(),
                latencies: vec![wall_s],
                slowdown: 0.0,
            }
        });
        let sweep = sweep.expect("the round ran");
        report.attempted += sweep.cells.len() as u64;
        report.failed += sweep.failures().len() as u64;
        rounds.push(round);
        snapshots.extend(sweep.cells.iter().map(|c| c.telemetry.clone()));
        first.get_or_insert(sweep);
        if opts.trace
            || w.max_rounds.is_some_and(|m| rounds.len() >= m)
            || start.elapsed().as_secs_f64() >= opts.seconds
        {
            break;
        }
        clock.timed_builds(SETUP_REPS, || build_sims(w, &params), drop);
    }
    let first = first.expect("at least one round ran");
    let expected_cells = (3 * w.cycles.len() * rounds.len()) as u64;
    report.checks.push(Check::new(
        "sweep.all_cells_complete",
        report.failed == 0 && report.attempted == expected_cells,
        format!(
            "{} of {expected_cells} cells attempted, {} failed",
            report.attempted, report.failed
        ),
    ));
    if let Some(claims) = &w.claims {
        check_claims(claims, &first, &mut report);
    }
    let counts = ledger::solver_counts(&snapshots);
    let steps = rounds.iter().map(|r| r.steps).sum();
    report.count_work(steps, rounds.len() as u64, &counts);
    report.notes.push(format!(
        "rounds of {} cells on {} workers",
        3 * w.cycles.len(),
        available_workers()
    ));
    report.slice_metrics("round", &rounds);
    if opts.trace {
        traced(&params, &sims, &first, rounds[0].wall_s, &mut report);
    } else {
        report
            .metrics
            .insert("solve_ok_share", ledger::solve_ok_share(&counts));
        clock.report(&mut report);
    }
    report
}

/// Fig. 7's mean ΔSoH improvement and Fig. 8's mean HVAC reduction, as
/// `repro` prints them, against the reproduced values.
fn check_claims(claims: &PaperClaims, sweep: &SweepResult, report: &mut RunReport) {
    if !sweep.failures().is_empty() {
        report.checks.push(Check::new(
            "sweep.paper_claims",
            false,
            "cells failed; claims not evaluated".to_owned(),
        ));
        return;
    }
    let cells = sweep.completed();
    let fig7 = fig7_from(&cells);
    let soh = fig7.iter().map(|r| 100.0 - r.mpc_pct).sum::<f64>() / fig7.len() as f64;
    let fig8 = fig8_from(&cells);
    let hvac = fig8
        .iter()
        .map(|r| 100.0 * (r.onoff_kw - r.mpc_kw) / r.onoff_kw)
        .sum::<f64>()
        / fig8.len() as f64;
    report.checks.push(Check::new(
        "sweep.paper_claims",
        (soh - claims.soh_improvement_pct).abs() <= claims.soh_tol_pp
            && (hvac - claims.hvac_reduction_pct).abs() <= claims.hvac_tol_pp,
        format!(
            "ΔSoH improvement {soh:.3} % (expect {} ±{} pp), HVAC reduction {hvac:.3} % (expect {} ±{} pp)",
            claims.soh_improvement_pct,
            claims.soh_tol_pp,
            claims.hvac_reduction_pct,
            claims.hvac_tol_pp
        ),
    ));
}

/// The traced run's second part: pool figures from the timed round, the
/// rest from a solo replay of every cell through the ledger.
fn traced(
    params: &EvParams,
    sims: &[Simulation],
    sweep: &SweepResult,
    round_s: f64,
    report: &mut RunReport,
) {
    let cell_s: f64 = sweep.cells.iter().map(|c| c.wall_seconds).sum();
    let critical = sweep
        .cells
        .iter()
        .map(|c| c.wall_seconds)
        .fold(0.0, f64::max);
    let workers = available_workers().min(sweep.cells.len()) as f64;
    report
        .metrics
        .insert("sweep.pool_efficiency", ratio(cell_s, workers * round_s));
    report.metrics.insert("sweep.critical_cell_s", critical);

    let registry = Registry::enabled();
    let mut ledger = Ledger::default();
    let mut differing = 0usize;
    for cell in &sweep.cells {
        let (sim, result) = match (
            sims.iter().find(|s| s.profile().name() == cell.profile),
            cell.outcome.result(),
        ) {
            (Some(sim), Some(result)) => (sim, result),
            _ => {
                differing += 1;
                continue;
            }
        };
        let controller = Replayed::new(cell.controller, params, &registry);
        let state = ledger::replay(sim, controller, sim.profile().len(), Some(&mut ledger));
        let last = |v: &[f64]| v.last().copied().unwrap_or(f64::NAN);
        if !state.same_bits(
            result.series.t.len() as u64,
            last(&result.series.soc),
            last(&result.series.cabin),
        ) {
            differing += 1;
        }
    }
    let replay = registry.snapshot();
    report.checks.push(Check::new(
        "trace.replay_matches_sweep_states",
        differing == 0,
        format!("{differing} cells end in a different state than the sweep recorded"),
    ));
    report.checks.push(counts_check(
        "trace.replay_matches_sweep_counts",
        &ledger::solver_counts(sweep.cells.iter().map(|c| &c.telemetry)),
        &ledger::solver_counts([&replay]),
        report.counts["steps"],
        ledger.steps,
    ));
    ledger.gates(&replay, &mut report.checks);
    ledger.layer_metrics(&replay, &mut report.metrics);
    report
        .counts
        .insert("ipm_iterations", ledger.sqp.qp_iterations);
    report.notes.extend(ledger.table());
    report.notes.push(format!(
        "traced/untraced wall: {:.4} (replay outside re-solves {:.3} s vs Σ cell wall {:.3} s)",
        ratio(ledger.advance_s - ledger.resolve_s, cell_s),
        ledger.advance_s - ledger.resolve_s,
        cell_s
    ));
}
