//! The outside-in per-layer ledger of the traced run.
//!
//! Every session (or sweep cell) is replayed solo through
//! [`Simulation::start_session`] / [`Simulation::advance`], which take
//! the same trajectory as the fleet engine. A bench-side
//! [`ClimateController`] adapter times each `control()` call and splits
//! solve steps from held steps by the `MpcDiagnostics::solves` delta.
//! On every solve step it solves the same problem again through public
//! calls only: [`MpcController::nlp`] wrapped in [`TimedNlp`], handed to
//! [`SqpSolver::solve_observed`] with the controller's options and start
//! point, with an [`SqpObserver`] collecting the QP subproblem figures.
//! The re-solve must reproduce the controller's solve exactly (same
//! outcome, iterations and applied input), so its time split — NLP
//! callbacks, QP subproblems, the SQP loop itself — is the split of the
//! real solve.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use ev_control::{ClimateController, ControlContext, MpcController, MpcWeights};
use ev_core::{ControllerKind, EvParams, Simulation};
use ev_hvac::{Hvac, HvacInput, HvacLimits};
use ev_linalg::{Matrix, SparseMatrix};
use ev_optim::{
    NlpProblem, QpStructure, QpSubproblemStatus, SqpIterationRecord, SqpObserver, SqpOptions,
    SqpSolver, SqpStatus,
};
use ev_telemetry::{Registry, Snapshot};
use ev_units::{Celsius, KgPerSecond, Seconds};

use crate::quantile::nearest_rank;
use crate::{ratio, Check, Metrics};

/// The production MPC configuration (`ControllerKind::Mpc`): horizon 8
/// blocks of 4 s, a re-solve every 4 plant steps.
const HORIZON: usize = 8;
const PREDICTION_DT_S: f64 = 4.0;
const RECOMPUTE_EVERY: usize = 4;
/// Decision-variable layout of the condensed transcription: per block
/// `[ts/10, tc/10, dr, mz/0.1]`.
const VARS_PER_STEP: usize = 4;
const TS_SCALE: f64 = 10.0;
const TC_SCALE: f64 = 10.0;
const MZ_SCALE: f64 = 0.1;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Calls into, and seconds spent in, one family of NLP callbacks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTime {
    /// Calls made.
    pub calls: u64,
    /// Wall seconds inside them.
    pub seconds: f64,
}

impl CallTime {
    fn add(&mut self, other: CallTime) {
        self.calls += other.calls;
        self.seconds += other.seconds;
    }

    fn us_per_call(self) -> f64 {
        1e6 * ratio(self.seconds, self.calls as f64)
    }
}

/// NLP callback time by family.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NlpTimes {
    /// `objective`.
    pub objective: CallTime,
    /// `gradient`.
    pub gradient: CallTime,
    /// `eq_constraints` and `ineq_constraints`.
    pub constraints: CallTime,
    /// Every dense and sparse constraint-Jacobian callback.
    pub jacobian: CallTime,
}

impl NlpTimes {
    fn add(&mut self, other: &NlpTimes) {
        self.objective.add(other.objective);
        self.gradient.add(other.gradient);
        self.constraints.add(other.constraints);
        self.jacobian.add(other.jacobian);
    }

    /// All families together.
    #[must_use]
    pub fn total(&self) -> CallTime {
        let mut t = self.objective;
        t.add(self.gradient);
        t.add(self.constraints);
        t.add(self.jacobian);
        t
    }
}

/// An [`NlpProblem`] that forwards every method to `inner` and times the
/// evaluation callbacks. Forwarding *every* method matters: a default
/// left in place (say `ineq_jacobian_sparse_into` returning `false`)
/// would send the solver down a different path than production.
pub struct TimedNlp<'a, P: ?Sized> {
    inner: &'a P,
    objective: Cell<CallTime>,
    gradient: Cell<CallTime>,
    constraints: Cell<CallTime>,
    jacobian: Cell<CallTime>,
}

impl<'a, P: NlpProblem + ?Sized> TimedNlp<'a, P> {
    /// Wraps `inner`.
    pub fn new(inner: &'a P) -> Self {
        Self {
            inner,
            objective: Cell::default(),
            gradient: Cell::default(),
            constraints: Cell::default(),
            jacobian: Cell::default(),
        }
    }

    /// Time taken so far, by callback family.
    pub fn times(&self) -> NlpTimes {
        NlpTimes {
            objective: self.objective.get(),
            gradient: self.gradient.get(),
            constraints: self.constraints.get(),
            jacobian: self.jacobian.get(),
        }
    }

    fn timed<R>(slot: &Cell<CallTime>, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let mut acc = slot.get();
        acc.add(CallTime {
            calls: 1,
            seconds: secs(t),
        });
        slot.set(acc);
        out
    }
}

impl<P: NlpProblem + ?Sized> NlpProblem for TimedNlp<'_, P> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn objective(&self, z: &[f64]) -> f64 {
        Self::timed(&self.objective, || self.inner.objective(z))
    }

    fn has_exact_derivatives(&self) -> bool {
        self.inner.has_exact_derivatives()
    }

    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        Self::timed(&self.gradient, || self.inner.gradient(z, grad));
    }

    fn num_eq(&self) -> usize {
        self.inner.num_eq()
    }

    fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
        Self::timed(&self.constraints, || self.inner.eq_constraints(z, out));
    }

    fn eq_jacobian(&self, z: &[f64]) -> Matrix {
        Self::timed(&self.jacobian, || self.inner.eq_jacobian(z))
    }

    fn num_ineq(&self) -> usize {
        self.inner.num_ineq()
    }

    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        Self::timed(&self.constraints, || self.inner.ineq_constraints(z, out));
    }

    fn ineq_jacobian(&self, z: &[f64]) -> Matrix {
        Self::timed(&self.jacobian, || self.inner.ineq_jacobian(z))
    }

    fn ineq_jacobian_sparse_into(&self, z: &[f64], out: &mut SparseMatrix) -> bool {
        Self::timed(&self.jacobian, || {
            self.inner.ineq_jacobian_sparse_into(z, out)
        })
    }

    fn eq_jacobian_sparse_into(&self, z: &[f64], out: &mut SparseMatrix) -> bool {
        Self::timed(&self.jacobian, || {
            self.inner.eq_jacobian_sparse_into(z, out)
        })
    }

    fn qp_structure(&self) -> Option<QpStructure> {
        self.inner.qp_structure()
    }
}

/// What the SQP observer saw, summed over major iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SqpTally {
    /// Major iterations reported (one QP subproblem each).
    pub iterations: u64,
    /// Line-search trials.
    pub line_search_steps: u64,
    /// Seconds inside QP subproblems.
    pub qp_seconds: f64,
    /// Interior-point iterations inside QP subproblems.
    pub qp_iterations: u64,
    /// Subproblems solved in elastic mode.
    pub elastic: u64,
    /// Subproblems replaced by a gradient step.
    pub fallback: u64,
    /// Subproblems re-solved with boosted regularization.
    pub reg_retry: u64,
}

impl SqpTally {
    fn add(&mut self, o: &SqpTally) {
        self.iterations += o.iterations;
        self.line_search_steps += o.line_search_steps;
        self.qp_seconds += o.qp_seconds;
        self.qp_iterations += o.qp_iterations;
        self.elastic += o.elastic;
        self.fallback += o.fallback;
        self.reg_retry += o.reg_retry;
    }
}

impl SqpObserver for SqpTally {
    fn on_iteration(&mut self, r: &SqpIterationRecord) {
        self.iterations += 1;
        self.line_search_steps += r.line_search_steps as u64;
        self.qp_seconds += r.qp_seconds;
        self.qp_iterations += r.qp_iterations as u64;
        match r.qp_status {
            QpSubproblemStatus::Nominal => {}
            QpSubproblemStatus::RegularizationRetry => self.reg_retry += 1,
            QpSubproblemStatus::Elastic => self.elastic += 1,
            QpSubproblemStatus::GradientFallback => self.fallback += 1,
        }
    }
}

/// How the re-solves ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Reached tolerance.
    pub converged: u64,
    /// Ran out of major iterations.
    pub max_iterations: u64,
    /// Line search stalled.
    pub stalled: u64,
    /// Structural solver error.
    pub errors: u64,
}

/// Everything the traced replay measured.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Plant steps replayed.
    pub steps: u64,
    /// Seconds inside `Simulation::advance` (re-solves included).
    pub advance_s: f64,
    /// Seconds inside a rule-based controller's `control()`.
    pub rule_s: f64,
    /// MPC steps that applied the held input.
    pub held_steps: u64,
    /// Seconds inside their `control()`.
    pub held_s: f64,
    /// Seconds inside `control()` on each MPC solve step.
    pub solve_s: Vec<f64>,
    /// Seconds inside the re-solves.
    pub resolve_s: f64,
    /// Re-solve NLP callback time.
    pub nlp: NlpTimes,
    /// Re-solve SQP observer figures.
    pub sqp: SqpTally,
    /// Σ `SqpResult::iterations` (what `mpc_sqp_iterations` records).
    pub sqp_iterations: u64,
    /// Re-solve outcomes.
    pub outcomes: Outcomes,
    /// Solve steps whose re-solved input differs from the applied one.
    pub input_mismatches: u64,
}

impl Ledger {
    /// MPC solves replayed.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solve_s.len() as u64
    }

    fn real_solve_s(&self) -> f64 {
        self.solve_s.iter().sum()
    }

    /// Plant time: advance minus every controller call and re-solve.
    #[must_use]
    pub fn plant_s(&self) -> f64 {
        self.advance_s - self.rule_s - self.held_s - self.real_solve_s() - self.resolve_s
    }

    fn sqp_self_s(&self) -> f64 {
        self.resolve_s - self.nlp.total().seconds - self.sqp.qp_seconds
    }

    /// The per-layer metrics this ledger measures (`sim`, `mpc`, `nlp`,
    /// `sqp`, `qp`). Layers that did no work are left out.
    pub fn layer_metrics(&self, replay: &Snapshot, m: &mut Metrics) {
        if self.steps > 0 {
            m.insert(
                "sim.plant_us_per_step",
                1e6 * self.plant_s() / self.steps as f64,
            );
        }
        let solves = self.solves() as f64;
        if solves == 0.0 {
            return;
        }
        let mut solve_s = self.solve_s.clone();
        m.insert(
            "mpc.solve_us_p50",
            1e6 * nearest_rank(&mut solve_s, 0.5).value,
        );
        m.insert(
            "mpc.solve_us_p99",
            1e6 * nearest_rank(&mut solve_s, 0.99).value,
        );
        m.insert("mpc.solve_us_mean", 1e6 * self.real_solve_s() / solves);
        m.insert(
            "mpc.held_us_per_step",
            1e6 * ratio(self.held_s, self.held_steps as f64),
        );
        let count = |name| counter(replay, name) as f64;
        let hits = count("mpc_warm_start_hits_total");
        m.insert(
            "mpc.warm_hit_ratio",
            ratio(hits, hits + count("mpc_warm_start_misses_total")),
        );
        let hits = count("mpc_rollout_cache_hits_total");
        m.insert(
            "mpc.rollout_cache_hit_ratio",
            ratio(hits, hits + count("mpc_rollout_cache_misses_total")),
        );

        let r = self.resolve_s;
        let iters = self.sqp.iterations as f64;
        let nlp = self.nlp.total();
        m.insert("nlp.share", ratio(nlp.seconds, r));
        m.insert("nlp.objective_us", self.nlp.objective.us_per_call());
        m.insert("nlp.gradient_us", self.nlp.gradient.us_per_call());
        m.insert("nlp.ineq_us", self.nlp.constraints.us_per_call());
        m.insert("nlp.jacobian_us", self.nlp.jacobian.us_per_call());
        m.insert("nlp.calls_per_sqp_iter", ratio(nlp.calls as f64, iters));

        m.insert("sqp.iters_per_solve", self.sqp_iterations as f64 / solves);
        m.insert(
            "sqp.line_search_trials_per_iter",
            ratio(self.sqp.line_search_steps as f64, iters),
        );
        m.insert("sqp.self_share", ratio(self.sqp_self_s(), r));
        m.insert(
            "sqp.self_us_per_iter",
            1e6 * ratio(self.sqp_self_s(), iters),
        );
        m.insert(
            "sqp.max_iter_share",
            self.outcomes.max_iterations as f64 / solves,
        );
        m.insert("sqp.stalled_share", self.outcomes.stalled as f64 / solves);

        let qp = self.sqp.qp_seconds;
        m.insert("qp.share", ratio(qp, r));
        m.insert("qp.us_per_call", 1e6 * ratio(qp, iters));
        m.insert(
            "qp.ipm_iters_per_call",
            ratio(self.sqp.qp_iterations as f64, iters),
        );
        m.insert(
            "qp.us_per_ipm_iter",
            1e6 * ratio(qp, self.sqp.qp_iterations as f64),
        );
        m.insert("qp.elastic", self.sqp.elastic as f64);
        m.insert("qp.fallback", self.sqp.fallback as f64);
        m.insert("qp.reg_retry", self.sqp.reg_retry as f64);
    }

    /// The trace gates: the re-solves reproduce the controller's solves
    /// (the replay registry's counts and every applied input), their time
    /// matches the real solves', and the SQP loop's self time is not
    /// negative.
    pub fn gates(&self, replay: &Snapshot, checks: &mut Vec<Check>) {
        let (qp_calls, _) = histogram(replay, "sqp_qp_seconds");
        let (_, iterations) = histogram(replay, "mpc_sqp_iterations");
        let pairs = [
            ("solves", counter(replay, "mpc_solves_total"), self.solves()),
            ("qp calls", qp_calls, self.sqp.iterations),
            ("sqp iterations", iterations as u64, self.sqp_iterations),
            (
                "converged",
                counter(replay, "mpc_solve_converged_total"),
                self.outcomes.converged,
            ),
            (
                "max iterations",
                counter(replay, "mpc_solve_max_iterations_total"),
                self.outcomes.max_iterations,
            ),
            (
                "stalled",
                counter(replay, "mpc_solve_stalled_total"),
                self.outcomes.stalled,
            ),
            (
                "errors",
                counter(replay, "mpc_solve_errors_total"),
                self.outcomes.errors,
            ),
            (
                "elastic",
                counter(replay, "sqp_qp_elastic_total"),
                self.sqp.elastic,
            ),
            (
                "fallback",
                counter(replay, "sqp_qp_fallback_total"),
                self.sqp.fallback,
            ),
            (
                "regularization retry",
                counter(replay, "sqp_qp_regularization_retry_total"),
                self.sqp.reg_retry,
            ),
        ];
        let differing: Vec<String> = pairs
            .iter()
            .filter(|(_, registry, resolve)| registry != resolve)
            .map(|(what, registry, resolve)| {
                format!("{what}: registry {registry} vs re-solve {resolve}")
            })
            .collect();
        checks.push(Check::new(
            "trace.resolve_counts_match_registry",
            differing.is_empty(),
            if differing.is_empty() {
                format!("{} solves, {} qp calls", self.solves(), self.sqp.iterations)
            } else {
                differing.join("; ")
            },
        ));
        checks.push(Check::new(
            "trace.resolve_inputs_match",
            self.input_mismatches == 0,
            format!(
                "{} of {} re-solved inputs differ from the applied input",
                self.input_mismatches,
                self.solves()
            ),
        ));
        if self.solves() > 0 {
            let time_ratio = self.resolve_s / self.real_solve_s();
            checks.push(Check::new(
                "trace.resolve_time_ratio",
                (0.95..=1.05).contains(&time_ratio),
                format!("re-solve / solve time = {time_ratio:.4} (gate [0.95, 1.05])"),
            ));
            let self_share = ratio(self.sqp_self_s(), self.resolve_s);
            checks.push(Check::new(
                "trace.sqp_self_share_nonnegative",
                self_share >= 0.0,
                format!("sqp self share = {self_share:.4}"),
            ));
        }
    }

    /// The layer table: self times that add up to the measured replay
    /// (`Σ advance`). The solve rows split the measured solve time in
    /// the proportions the re-solve measured.
    #[must_use]
    pub fn table(&self) -> Vec<String> {
        let real = self.real_solve_s();
        let scale = ratio(real, self.resolve_s);
        let nlp = self.nlp.total().seconds;
        let rows = [
            ("sim.plant", self.plant_s()),
            ("controller.rule", self.rule_s),
            ("mpc.held", self.held_s),
            ("mpc.solve/nlp", scale * nlp),
            ("mpc.solve/sqp.self", scale * self.sqp_self_s()),
            ("mpc.solve/qp", scale * self.sqp.qp_seconds),
        ];
        let measured = self.advance_s - self.resolve_s;
        let mut out = vec![format!("{:<20} {:>12} {:>8}", "layer", "self_ms", "share")];
        for (name, s) in rows {
            out.push(format!(
                "{name:<20} {:>12.3} {:>7.2}%",
                1e3 * s,
                100.0 * ratio(s, measured)
            ));
        }
        let sum: f64 = rows.iter().map(|(_, s)| s).sum();
        out.push(format!(
            "{:<20} {:>12.3}   (measured {:.3} ms over {} steps, {} solves)",
            "sum",
            1e3 * sum,
            1e3 * measured,
            self.steps,
            self.solves()
        ));
        if self.solves() > 0 {
            out.push(format!(
                "re-solve {:.3} ms vs solve {:.3} ms (ratio {:.4})",
                1e3 * self.resolve_s,
                1e3 * real,
                self.resolve_s / real
            ));
        }
        out
    }
}

/// A counter summed over its label sets (0 when never minted).
#[must_use]
pub fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter_sum(name).unwrap_or(0)
}

/// Exact count and sum of a histogram merged over its label sets.
#[must_use]
pub fn histogram(s: &Snapshot, name: &str) -> (u64, f64) {
    s.histogram_merged(name)
        .map_or((0, 0.0), |h| (h.count, h.sum))
}

/// The solver counts two runs of the same sessions must agree on
/// exactly, summed over `snapshots`.
#[must_use]
pub fn solver_counts<'a>(
    snapshots: impl IntoIterator<Item = &'a Snapshot>,
) -> BTreeMap<&'static str, u64> {
    const COUNTERS: [&str; 12] = [
        "mpc_solves_total",
        "mpc_solve_converged_total",
        "mpc_solve_max_iterations_total",
        "mpc_solve_stalled_total",
        "mpc_solve_errors_total",
        "mpc_warm_start_hits_total",
        "mpc_warm_start_misses_total",
        "mpc_rollout_cache_hits_total",
        "mpc_rollout_cache_misses_total",
        "sqp_qp_elastic_total",
        "sqp_qp_fallback_total",
        "sqp_qp_regularization_retry_total",
    ];
    let mut out = BTreeMap::new();
    for s in snapshots {
        for name in COUNTERS {
            *out.entry(name).or_insert(0) += counter(s, name);
        }
        *out.entry("sqp_qp_seconds.count").or_insert(0) += histogram(s, "sqp_qp_seconds").0;
        *out.entry("mpc_sqp_iterations.sum").or_insert(0) +=
            histogram(s, "mpc_sqp_iterations").1 as u64;
    }
    out
}

/// The solve share that did not end `MaxIterations`,
/// `LineSearchStalled` or in an error, from solver counters; 1 when no
/// solve ran.
#[must_use]
pub fn solve_ok_share(counts: &BTreeMap<&'static str, u64>) -> f64 {
    let solves = counts["mpc_solves_total"];
    if solves == 0 {
        return 1.0;
    }
    let failed = counts["mpc_solve_max_iterations_total"]
        + counts["mpc_solve_stalled_total"]
        + counts["mpc_solve_errors_total"];
    1.0 - failed as f64 / solves as f64
}

/// The production MPC, rebuilt through its public builder so the replay
/// can reach [`MpcController::nlp`], plus the state its re-solves need.
pub struct MpcReplay {
    mpc: MpcController,
    solver: SqpSolver,
    hvac: Hvac,
    limits: HvacLimits,
    /// The previous re-solve's plan: the next re-solve's warm start.
    prev: Option<Vec<f64>>,
}

impl MpcReplay {
    fn new(params: &EvParams, telemetry: &Registry) -> Self {
        let mpc = MpcController::builder(params.hvac_model(), params.limits())
            .target(params.target)
            .horizon(HORIZON)
            .prediction_dt(Seconds::new(PREDICTION_DT_S))
            .recompute_every(RECOMPUTE_EVERY)
            .weights(MpcWeights::default())
            .battery(params.mpc_battery_model())
            .accessory_power(params.accessory_power)
            .telemetry(telemetry)
            .build()
            .expect("the production MPC configuration is valid");
        Self {
            mpc,
            solver: SqpSolver::new(SqpOptions {
                tolerance: 1e-4,
                max_iterations: 25,
                max_line_search: 15,
                initial_penalty: 10.0,
                ..SqpOptions::default()
            }),
            hvac: params.hvac_model(),
            limits: params.limits(),
            prev: None,
        }
    }

    fn control(&mut self, ctx: &ControlContext<'_>, ledger: &mut Ledger) -> HvacInput {
        let solves = self.mpc.diagnostics().solves;
        let t = Instant::now();
        let applied = self.mpc.control(ctx);
        let took = secs(t);
        if self.mpc.diagnostics().solves == solves {
            ledger.held_steps += 1;
            ledger.held_s += took;
        } else {
            ledger.solve_s.push(took);
            self.resolve(ctx, applied, ledger);
        }
        applied
    }

    /// Solves the step's problem again from the controller's start point:
    /// the cold guess, or the previous plan shifted one block.
    fn resolve(&mut self, ctx: &ControlContext<'_>, applied: HvacInput, ledger: &mut Ledger) {
        let t = Instant::now();
        let nlp = self.mpc.nlp(ctx);
        let z0 = match &self.prev {
            Some(prev) => {
                let mut z = prev[VARS_PER_STEP..].to_vec();
                z.extend_from_slice(&prev[prev.len() - VARS_PER_STEP..]);
                z
            }
            None => self.cold_start(ctx),
        };
        let timed = TimedNlp::new(&nlp);
        let mut tally = SqpTally::default();
        let solved = self.solver.solve_observed(&timed, &z0, &mut tally);
        ledger.resolve_s += secs(t);
        ledger.nlp.add(&timed.times());
        ledger.sqp.add(&tally);
        match solved {
            Ok(result) => {
                ledger.sqp_iterations += result.iterations as u64;
                let o = &mut ledger.outcomes;
                match result.status {
                    SqpStatus::Converged => o.converged += 1,
                    SqpStatus::MaxIterations => o.max_iterations += 1,
                    SqpStatus::LineSearchStalled => o.stalled += 1,
                }
                let z = &result.z;
                let planned = HvacInput {
                    ts: Celsius::new(z[0] * TS_SCALE),
                    tc: Celsius::new(z[1] * TC_SCALE),
                    dr: z[2],
                    mz: KgPerSecond::new(z[3] * MZ_SCALE),
                };
                let input = self
                    .limits
                    .clamp_input(&self.hvac, planned, ctx.state, ctx.ambient);
                if !same_bits(&input, &applied) {
                    ledger.input_mismatches += 1;
                }
                self.prev = Some(result.z);
            }
            Err(_) => {
                ledger.outcomes.errors += 1;
                self.prev = None;
            }
        }
    }

    /// The controller's cold guess: passive coils at the expected mix
    /// temperature, moderate recirculation and flow.
    fn cold_start(&self, ctx: &ControlContext<'_>) -> Vec<f64> {
        let p = self.hvac.params();
        let mid_flow = 0.5 * (p.min_flow.value() + p.max_flow.value());
        let tm = 0.3 * ctx.ambient.value() + 0.7 * ctx.state.tz.value();
        (0..HORIZON)
            .flat_map(|_| [tm / TS_SCALE, tm / TC_SCALE, 0.7, mid_flow / MZ_SCALE])
            .collect()
    }
}

fn same_bits(a: &HvacInput, b: &HvacInput) -> bool {
    a.ts.value().to_bits() == b.ts.value().to_bits()
        && a.tc.value().to_bits() == b.tc.value().to_bits()
        && a.dr.to_bits() == b.dr.to_bits()
        && a.mz.value().to_bits() == b.mz.value().to_bits()
}

/// A controller as the traced replay drives it.
pub enum Replayed {
    /// The MPC with its re-solve state.
    Mpc(Box<MpcReplay>),
    /// A rule-based controller, timed only.
    Rule(Box<dyn ClimateController>),
}

impl Replayed {
    /// The controller `kind` for `params`; MPC metrics go to `telemetry`.
    #[must_use]
    pub fn new(kind: ControllerKind, params: &EvParams, telemetry: &Registry) -> Self {
        match kind {
            ControllerKind::Mpc => Self::Mpc(Box::new(MpcReplay::new(params, telemetry))),
            rule => Self::Rule(
                rule.instantiate(params)
                    .expect("rule-based controllers always instantiate"),
            ),
        }
    }
}

/// The timing adapter [`Simulation::advance`] drives.
struct Traced<'a> {
    controller: &'a mut Replayed,
    ledger: &'a mut Ledger,
}

impl ClimateController for Traced<'_> {
    fn name(&self) -> &'static str {
        "traced"
    }

    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        match self.controller {
            Replayed::Mpc(mpc) => mpc.control(ctx, self.ledger),
            Replayed::Rule(rule) => {
                let t = Instant::now();
                let input = rule.control(ctx);
                self.ledger.rule_s += secs(t);
                input
            }
        }
    }
}

/// Where a replayed drive ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinalState {
    /// Plant steps run.
    pub steps: u64,
    /// Battery state of charge (%).
    pub soc_pct: f64,
    /// Cabin temperature (°C).
    pub cabin_c: f64,
}

impl FinalState {
    /// Bitwise equality of the plant state.
    #[must_use]
    pub fn same_bits(&self, steps: u64, soc_pct: f64, cabin_c: f64) -> bool {
        self.steps == steps
            && self.soc_pct.to_bits() == soc_pct.to_bits()
            && self.cabin_c.to_bits() == cabin_c.to_bits()
    }
}

/// Replays up to `steps` plant steps of `sim` solo under `controller`;
/// with a ledger, every layer is timed and each solve re-solved.
pub fn replay(
    sim: &Simulation,
    mut controller: Replayed,
    steps: usize,
    ledger: Option<&mut Ledger>,
) -> FinalState {
    let mut session = sim.start_session();
    let mut ran = 0u64;
    match ledger {
        Some(ledger) => {
            let mut traced = Traced {
                controller: &mut controller,
                ledger,
            };
            while (ran as usize) < steps {
                let t = Instant::now();
                let stepped = sim.advance(&mut session, &mut traced).is_some();
                traced.ledger.advance_s += secs(t);
                if !stepped {
                    break;
                }
                ran += 1;
            }
            traced.ledger.steps += ran;
        }
        None => {
            let plain: &mut dyn ClimateController = match &mut controller {
                Replayed::Mpc(mpc) => &mut mpc.mpc,
                Replayed::Rule(rule) => rule.as_mut(),
            };
            while (ran as usize) < steps && sim.advance(&mut session, plain).is_some() {
                ran += 1;
            }
        }
    }
    let ev = session.vehicle();
    FinalState {
        steps: ran,
        soc_pct: ev.bms().soc().value(),
        cabin_c: ev.cabin_state().tz.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_telemetry::HistogramSpec;

    /// A registry as two converged solves of 1 and 2 SQP iterations
    /// (3 QP subproblems) leave it.
    fn registry() -> Snapshot {
        let r = Registry::enabled();
        r.counter("mpc_solves_total").add(2);
        r.counter("mpc_solve_converged_total").add(2);
        let qp = r.histogram("sqp_qp_seconds", HistogramSpec::latency_seconds());
        for _ in 0..3 {
            qp.record(1e-4);
        }
        let iters = r.histogram("mpc_sqp_iterations", HistogramSpec::counts());
        iters.record(1.0);
        iters.record(2.0);
        r.snapshot()
    }

    /// A ledger consistent with [`registry`].
    fn ledger() -> Ledger {
        Ledger {
            solve_s: vec![1.0e-3, 1.0e-3],
            resolve_s: 2.0e-3,
            nlp: NlpTimes {
                objective: CallTime {
                    calls: 6,
                    seconds: 1.0e-4,
                },
                ..NlpTimes::default()
            },
            sqp: SqpTally {
                iterations: 3,
                qp_seconds: 1.5e-3,
                qp_iterations: 21,
                ..SqpTally::default()
            },
            sqp_iterations: 3,
            outcomes: Outcomes {
                converged: 2,
                ..Outcomes::default()
            },
            ..Ledger::default()
        }
    }

    fn verdicts(l: &Ledger) -> BTreeMap<String, bool> {
        let mut checks = Vec::new();
        l.gates(&registry(), &mut checks);
        checks.into_iter().map(|c| (c.name, c.passed)).collect()
    }

    #[test]
    fn consistent_ledger_passes_every_gate() {
        let v = verdicts(&ledger());
        assert_eq!(v.len(), 4);
        assert!(v.values().all(|&ok| ok), "{v:?}");
    }

    #[test]
    fn each_gate_catches_its_failure() {
        let fails = |l: Ledger, gate: &str| {
            let v = verdicts(&l);
            assert!(!v[gate], "{gate} passed: {v:?}");
            assert_eq!(v.values().filter(|&&ok| !ok).count(), 1, "{v:?}");
        };
        fails(
            Ledger {
                outcomes: Outcomes {
                    converged: 1,
                    stalled: 1,
                    ..Outcomes::default()
                },
                ..ledger()
            },
            "trace.resolve_counts_match_registry",
        );
        fails(
            Ledger {
                input_mismatches: 1,
                ..ledger()
            },
            "trace.resolve_inputs_match",
        );
        fails(
            Ledger {
                resolve_s: 2.2e-3,
                ..ledger()
            },
            "trace.resolve_time_ratio",
        );
        let mut negative = ledger();
        negative.sqp.qp_seconds = 2.0e-3;
        fails(negative, "trace.sqp_self_share_nonnegative");
    }

    #[test]
    fn layers_and_table_add_up_to_the_measured_replay() {
        let l = Ledger {
            steps: 8,
            advance_s: 5.0e-3,
            held_steps: 6,
            held_s: 6.0e-6,
            ..ledger()
        };
        let mut m = Metrics::new();
        l.layer_metrics(&registry(), &mut m);
        let plant = 5.0e-3 - 6.0e-6 - 2.0e-3 - 2.0e-3;
        assert!((m["sim.plant_us_per_step"] - 1e6 * plant / 8.0).abs() < 1e-9);
        assert!((m["qp.share"] - 0.75).abs() < 1e-12);
        assert!((m["nlp.share"] - 0.05).abs() < 1e-12);
        assert!((m["sqp.self_share"] - 0.2).abs() < 1e-12);
        assert!((m["qp.ipm_iters_per_call"] - 7.0).abs() < 1e-12);
        assert_eq!(m["sqp.iters_per_solve"], 1.5);
        let table = l.table();
        let sum_row = table.iter().find(|r| r.starts_with("sum")).unwrap();
        assert!(sum_row.contains("(measured 3.000 ms"), "{sum_row}");
        assert!(
            sum_row.starts_with(&format!("{:<20} {:>12.3}", "sum", 3.0)),
            "{sum_row}"
        );
    }
}
