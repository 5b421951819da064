//! The battery lifetime-aware MPC climate controller (the paper's
//! Section III).

use std::cell::{Cell, RefCell};

use ev_hvac::{Hvac, HvacInput, HvacLimits};
use ev_linalg::SparseMatrix;
use ev_optim::{
    NlpProblem, NoopSqpObserver, OptimError, QpStructure, QpSubproblemStatus, QpWarmStart,
    SqpIterationRecord, SqpObserver, SqpOptions, SqpResult, SqpSolver, SqpStatus,
};
use ev_telemetry::{
    Attribution, Counter, DecisionRecord, FlightRecorder, Histogram, HistogramSpec, PlannedStep,
    Registry, SolveOutcome, TraceRing, WarmStart,
};
use ev_units::{AmpereHours, Amperes, Celsius, KgPerSecond, Seconds, Volts, Watts};

use crate::{ClimateController, ControlContext, MpcDiagnostics, PreviewSample};

/// Weights of the MPC cost function (the paper's Eq. 21):
/// `C = Σ w1·(Pf+Pc+Ph) + w2·(SoC − SoC_avg)² + w3·(Tz − T_target)²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcWeights {
    /// Weight on total HVAC power (per kW).
    pub w1: f64,
    /// Weight on squared SoC deviation from the running cycle average
    /// (per %²) — the battery-lifetime term.
    pub w2: f64,
    /// Weight on squared cabin-temperature error (per K²).
    pub w3: f64,
}

impl Default for MpcWeights {
    fn default() -> Self {
        Self {
            w1: 0.3,
            w2: 20.0,
            w3: 5.0,
        }
    }
}

/// The battery model the MPC predicts with: the paper's Eq. 13–14
/// constants. The Peukert exponent is what couples HVAC scheduling to
/// battery stress — concurrent motor + HVAC peaks draw superlinear
/// effective charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcBatteryModel {
    /// Nominal pack voltage for the power→current conversion.
    pub voltage: Volts,
    /// Nominal capacity `Cn`.
    pub capacity: AmpereHours,
    /// Nominal current `In`.
    pub nominal_current: Amperes,
    /// Peukert constant `pc`.
    pub peukert: f64,
}

impl Default for MpcBatteryModel {
    /// The Leaf 24 kWh pack the rest of the workspace defaults to.
    fn default() -> Self {
        Self {
            voltage: Volts::new(360.0),
            capacity: AmpereHours::new(66.667),
            nominal_current: Amperes::new(22.0),
            peukert: 1.10,
        }
    }
}

/// Configuration errors from [`MpcBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcConfigError {
    /// Horizon must be at least one step.
    ZeroHorizon,
    /// Prediction period must be positive.
    NonPositivePredictionDt,
    /// Recompute interval must be at least one step.
    ZeroRecomputeInterval,
    /// The SQP major-iteration cap must be at least one.
    ZeroSqpIterationCap,
}

impl core::fmt::Display for MpcConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ZeroHorizon => write!(f, "mpc horizon must be at least one step"),
            Self::NonPositivePredictionDt => write!(f, "mpc prediction period must be positive"),
            Self::ZeroRecomputeInterval => {
                write!(f, "mpc recompute interval must be at least one step")
            }
            Self::ZeroSqpIterationCap => {
                write!(f, "mpc sqp iteration cap must be at least one")
            }
        }
    }
}

impl std::error::Error for MpcConfigError {}

/// Telemetry handles the controller records into. Minted once at build
/// time; every handle from a disabled [`Registry`] is inert, so the
/// un-instrumented hot path pays a branch per update and nothing else.
#[derive(Debug, Clone)]
struct MpcMetrics {
    enabled: bool,
    control_step_seconds: Histogram,
    solve_seconds: Histogram,
    qp_seconds: Histogram,
    sqp_iterations: Histogram,
    sqp_step_length: Histogram,
    sqp_active_set: Histogram,
    warm_hits: Counter,
    warm_misses: Counter,
    warm_invalidated: Counter,
    rollout_cache_hits: Counter,
    rollout_cache_misses: Counter,
    solves: Counter,
    converged: Counter,
    max_iterations: Counter,
    stalled: Counter,
    errors: Counter,
    qp_elastic: Counter,
    qp_fallback: Counter,
    qp_regularization_retries: Counter,
    /// Warm-started QP attempts that failed and were re-solved cold.
    /// Registry-only: [`MpcDiagnostics`] has no twin of it.
    qp_warm_restarts: Counter,
}

impl MpcMetrics {
    fn bind(registry: &Registry) -> Self {
        MpcMetrics {
            enabled: registry.is_enabled(),
            control_step_seconds: registry
                .histogram("mpc_control_step_seconds", HistogramSpec::latency_seconds()),
            solve_seconds: registry
                .histogram("mpc_solve_seconds", HistogramSpec::latency_seconds()),
            qp_seconds: registry.histogram("sqp_qp_seconds", HistogramSpec::latency_seconds()),
            sqp_iterations: registry.histogram("mpc_sqp_iterations", HistogramSpec::counts()),
            sqp_step_length: registry.histogram("sqp_step_length", HistogramSpec::unit()),
            sqp_active_set: registry.histogram("sqp_active_set_size", HistogramSpec::counts()),
            warm_hits: registry.counter("mpc_warm_start_hits_total"),
            warm_misses: registry.counter("mpc_warm_start_misses_total"),
            warm_invalidated: registry.counter("mpc_warm_start_invalidated_total"),
            rollout_cache_hits: registry.counter("mpc_rollout_cache_hits_total"),
            rollout_cache_misses: registry.counter("mpc_rollout_cache_misses_total"),
            solves: registry.counter("mpc_solves_total"),
            converged: registry.counter("mpc_solve_converged_total"),
            max_iterations: registry.counter("mpc_solve_max_iterations_total"),
            stalled: registry.counter("mpc_solve_stalled_total"),
            errors: registry.counter("mpc_solve_errors_total"),
            qp_elastic: registry.counter("sqp_qp_elastic_total"),
            qp_fallback: registry.counter("sqp_qp_fallback_total"),
            qp_regularization_retries: registry.counter("sqp_qp_regularization_retry_total"),
            qp_warm_restarts: registry.counter("sqp_qp_warm_restart_total"),
        }
    }
}

/// Bridges [`SqpObserver`] iteration records into the telemetry
/// histograms and/or captures the final iteration's active set for the
/// flight recorder. Only attached to the solver when at least one of the
/// two sinks is live, so the plain path keeps the no-op observer the
/// solver optimizes out.
struct SolveObserver<'a> {
    metrics: Option<&'a MpcMetrics>,
    /// Overwritten every iteration; after the solve it holds the active
    /// set of the final iteration — the constraint rows that shaped the
    /// committed plan.
    final_active_set: Option<&'a mut Vec<usize>>,
}

impl SqpObserver for SolveObserver<'_> {
    fn active(&self) -> bool {
        self.metrics.is_some() || self.final_active_set.is_some()
    }

    /// Metrics only need the active-set *size*; the per-row index list
    /// (one Vec per iteration) is assembled only when the flight
    /// recorder captures it.
    fn wants_active_set(&self) -> bool {
        self.final_active_set.is_some()
    }

    fn on_iteration(&mut self, record: &SqpIterationRecord) {
        if let Some(m) = self.metrics {
            m.qp_seconds.record(record.qp_seconds);
            m.sqp_active_set.record(record.active_set_size as f64);
            if record.accepted && record.step_length > 0.0 {
                m.sqp_step_length.record(record.step_length);
            }
            match record.qp_status {
                QpSubproblemStatus::Nominal => {}
                QpSubproblemStatus::RegularizationRetry => m.qp_regularization_retries.inc(),
                QpSubproblemStatus::Elastic => m.qp_elastic.inc(),
                QpSubproblemStatus::GradientFallback => m.qp_fallback.inc(),
            }
            if record.qp_warm_restart.is_some() {
                m.qp_warm_restarts.inc();
            }
        }
        if let Some(set) = self.final_active_set.as_deref_mut() {
            set.clear();
            set.extend_from_slice(&record.active_set);
        }
    }
}

/// Builder for [`MpcController`].
#[derive(Debug, Clone)]
pub struct MpcBuilder {
    hvac: Hvac,
    limits: HvacLimits,
    target: Celsius,
    horizon: usize,
    prediction_dt: Seconds,
    recompute_every: usize,
    weights: MpcWeights,
    battery: MpcBatteryModel,
    accessory_power: Watts,
    multiple_shooting: bool,
    telemetry: Registry,
    max_sqp_iterations: usize,
    recorder: FlightRecorder,
    trace: TraceRing,
}

impl MpcBuilder {
    /// Sets the cabin temperature target.
    #[must_use]
    pub fn target(mut self, target: Celsius) -> Self {
        self.target = target;
        self
    }

    /// Sets the prediction horizon length `N` (the paper's control
    /// window).
    #[must_use]
    pub fn horizon(mut self, n: usize) -> Self {
        self.horizon = n;
        self
    }

    /// Sets the prediction step duration.
    #[must_use]
    pub fn prediction_dt(mut self, dt: Seconds) -> Self {
        self.prediction_dt = dt;
        self
    }

    /// Sets how many *simulation* steps pass between re-optimizations
    /// (move blocking; 1 = re-solve every step).
    #[must_use]
    pub fn recompute_every(mut self, steps: usize) -> Self {
        self.recompute_every = steps;
        self
    }

    /// Sets the cost weights.
    #[must_use]
    pub fn weights(mut self, weights: MpcWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the battery prediction model.
    #[must_use]
    pub fn battery(mut self, battery: MpcBatteryModel) -> Self {
        self.battery = battery;
        self
    }

    /// Sets the constant accessory power added to the prediction.
    #[must_use]
    pub fn accessory_power(mut self, p: Watts) -> Self {
        self.accessory_power = p;
        self
    }

    /// Switches the solver onto the multiple-shooting transcription: the
    /// predicted cabin temperature becomes a decision variable per step
    /// (5 variables/step instead of 4) tied to the trapezoidal dynamics by
    /// one equality constraint per step. Every constraint row then touches
    /// at most two adjacent steps, so the NLP declares a
    /// [`QpStructure`] and the SQP's KKT solves run on the banded
    /// backend in O(N) instead of the dense path's O(N³). The condensed
    /// (single-shooting) default keeps the smaller variable count; both
    /// transcriptions optimize the same trajectory.
    #[must_use]
    pub fn multiple_shooting(mut self, ms: bool) -> Self {
        self.multiple_shooting = ms;
        self
    }

    /// Attaches a telemetry registry. The controller registers its
    /// solve/warm-start/QP metrics on it and records per-`control`
    /// latencies; a disabled registry (the default) records nothing and
    /// costs nothing. Telemetry never changes the controller's outputs.
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Caps the SQP solver's major iterations per solve (default 25).
    /// Exists so harnesses can *force* a `MaxIterations` outcome — the
    /// flight-recorder smoke test runs with a cap of 1 to provoke a
    /// post-mortem dump on an otherwise healthy cycle.
    #[must_use]
    pub fn max_sqp_iterations(mut self, cap: usize) -> Self {
        self.max_sqp_iterations = cap;
        self
    }

    /// Attaches a flight recorder. An enabled recorder receives one
    /// [`DecisionRecord`] per solve — predicted motor horizon, planned
    /// HVAC schedule, final active set, warm-start provenance and the
    /// motor/HVAC attribution split — and, if the recorder carries an
    /// auto-dump path, writes a post-mortem JSONL whenever a solve ends
    /// in `MaxIterations` or a structural error. A disabled recorder
    /// (the default) costs one branch per solve; recording never changes
    /// the controller's outputs.
    #[must_use]
    pub fn flight_recorder(mut self, recorder: &FlightRecorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// Attaches a trace ring. Each MPC solve records one complete span
    /// onto it, carrying whatever (pid, tid) identity the handle was
    /// [`TraceRing::scoped`] with — the fleet engine scopes it to
    /// (shard, session) before building the controller. A disabled ring
    /// (the default) records nothing and reads no clock; tracing never
    /// changes the controller's outputs.
    #[must_use]
    pub fn trace(mut self, trace: &TraceRing) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// Returns an [`MpcConfigError`] for a zero horizon, non-positive
    /// prediction period or zero recompute interval.
    pub fn build(self) -> Result<MpcController, MpcConfigError> {
        if self.horizon == 0 {
            return Err(MpcConfigError::ZeroHorizon);
        }
        if self.prediction_dt.value() <= 0.0 {
            return Err(MpcConfigError::NonPositivePredictionDt);
        }
        if self.recompute_every == 0 {
            return Err(MpcConfigError::ZeroRecomputeInterval);
        }
        if self.max_sqp_iterations == 0 {
            return Err(MpcConfigError::ZeroSqpIterationCap);
        }
        let solver = SqpSolver::new(SqpOptions {
            tolerance: 1e-4,
            max_iterations: self.max_sqp_iterations,
            max_line_search: 15,
            initial_penalty: 10.0,
            ..SqpOptions::default()
        });
        Ok(MpcController {
            hvac: self.hvac,
            limits: self.limits,
            target: self.target,
            horizon: self.horizon,
            prediction_dt: self.prediction_dt,
            recompute_every: self.recompute_every,
            weights: self.weights,
            battery: self.battery,
            accessory_power: self.accessory_power,
            solver,
            warm_start: None,
            sqp_warm: QpWarmStart::new(),
            cached_input: None,
            steps_since_solve: 0,
            use_multiple_shooting: self.multiple_shooting,
            metrics: MpcMetrics::bind(&self.telemetry),
            diagnostics: MpcDiagnostics::default(),
            recorder: self.recorder,
            trace_solve_id: self.trace.intern("mpc_solve"),
            trace: self.trace,
            control_steps: 0,
        })
    }
}

/// The paper's battery lifetime-aware automotive climate controller: a
/// model predictive controller that schedules the HVAC inputs
/// `[Ts, Tc, dr, ṁz]` over a receding horizon, minimizing Eq. 21 subject
/// to the cabin dynamics (Eq. 18–19) and the constraint set C1–C10,
/// solved by SQP (its Section III).
///
/// The essential behavior (its Fig. 6): the controller *reduces HVAC
/// power when the electric motor is predicted to draw a peak* and
/// *pre-cools/pre-heats when the motor is idle or regenerating*, because
/// the Peukert term in the SoC prediction makes concurrent peaks
/// disproportionately expensive and the `w2·(SoC − SoC_avg)²` term
/// rewards a flat SoC trajectory.
///
/// # Examples
///
/// ```
/// use ev_control::MpcController;
/// use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams};
/// use ev_units::Celsius;
///
/// # fn main() -> Result<(), ev_control::MpcConfigError> {
/// let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
/// let mpc = MpcController::builder(hvac, HvacLimits::default())
///     .target(Celsius::new(24.0))
///     .horizon(8)
///     .build()?;
/// assert_eq!(mpc.horizon(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MpcController {
    hvac: Hvac,
    limits: HvacLimits,
    target: Celsius,
    horizon: usize,
    prediction_dt: Seconds,
    recompute_every: usize,
    weights: MpcWeights,
    battery: MpcBatteryModel,
    accessory_power: Watts,
    solver: SqpSolver,
    warm_start: Option<Vec<f64>>,
    /// Interior-point multiplier cache threaded *across* consecutive
    /// multiple-shooting solves. The condensed path warm-starts only
    /// within each solve (`SqpSolver::solve_observed`), so any of its
    /// solves can be replayed alone from the problem and start point.
    sqp_warm: QpWarmStart,
    cached_input: Option<HvacInput>,
    steps_since_solve: usize,
    use_multiple_shooting: bool,
    metrics: MpcMetrics,
    diagnostics: MpcDiagnostics,
    recorder: FlightRecorder,
    /// Trace ring for per-solve spans, pre-scoped to this session's
    /// (pid, tid) identity by whoever built the controller.
    trace: TraceRing,
    /// Interned name id of the solve span.
    trace_solve_id: u32,
    /// Simulation steps seen so far — stamps [`DecisionRecord`]s.
    control_steps: u64,
}

/// Scale factors mapping decision variables to physical inputs:
/// `ts = 10·z`, `tc = 10·z`, `dr = z`, `mz = 0.1·z`. Keeps every variable
/// O(1) for the identity-initialized BFGS.
const TS_SCALE: f64 = 10.0;
const TC_SCALE: f64 = 10.0;
const MZ_SCALE: f64 = 0.1;
/// Variables per horizon step.
const VARS_PER_STEP: usize = 4;
/// Scale for the cabin-temperature decision variable of the
/// multiple-shooting transcription: `Tz_pred = 10·z`.
const TZ_SCALE: f64 = 10.0;
/// Variables per horizon step in multiple-shooting mode: the condensed
/// four plus the predicted cabin temperature.
const MS_VARS_PER_STEP: usize = 5;
/// Inequality constraints per horizon step.
const INEQ_PER_STEP: usize = 13;
/// Unit of the power-cap rows (C8–C10) of both transcriptions: they read
/// `(P − P_max)/100 W`, in hectowatts. In watts their Jacobian entries
/// reach thousands while every other row stays at or below ~17, and the
/// largest row sets both the SQP's L1 merit penalty and the QP's
/// stopping tolerance (see `DESIGN.md`, "Constraint units").
const POWER_ROW_SCALE_W: f64 = 100.0;
/// Comfort funnel: when the cabin starts outside the band (hot or cold
/// soak), a hard C2 would make every rollout infeasible. The band is
/// therefore widened to the current state plus slack and tightened at the
/// fastest pull-in rate the HVAC can deliver, so the optimizer is always
/// asked for achievable progress.
const PULL_RATE_K_PER_S: f64 = 0.025;
const SOAK_SLACK_K: f64 = 0.5;

/// Labels of the 13 inequality rows per horizon step, in the exact order
/// the MPC assembles them (and the bit order of
/// [`DecisionRecord::active_masks`]): C1 flow bounds, C7 recirculation
/// bounds, C5 coil floor, C4 coil ≤ mix, C3 coil ≤ supply, C6 supply
/// cap, C2 comfort funnel, C8/C9/C10 heater/cooler/fan power caps.
/// Shared with `evsim explain` so dumps render with constraint names.
///
/// Each row is `g ≤ 0` in its own unit: kg/s for C1, the recirculation
/// fraction for C7, kelvins for C5/C4/C3/C6/C2, and hectowatts for
/// C8–C10.
pub const CONSTRAINT_ROW_LABELS: [&str; INEQ_PER_STEP] = [
    "C1-", "C1+", "C7-", "C7+", "C5", "C4", "C3", "C6", "C2-", "C2+", "C8", "C9", "C10",
];

impl MpcController {
    /// Starts a builder with sensible defaults: N = 8 steps of 4 s,
    /// re-solve every 4 simulation steps, 24 °C target.
    #[must_use]
    pub fn builder(hvac: Hvac, limits: HvacLimits) -> MpcBuilder {
        MpcBuilder {
            hvac,
            limits,
            target: Celsius::new(24.0),
            horizon: 8,
            prediction_dt: Seconds::new(4.0),
            recompute_every: 4,
            weights: MpcWeights::default(),
            battery: MpcBatteryModel::default(),
            accessory_power: Watts::new(300.0),
            multiple_shooting: false,
            telemetry: Registry::disabled(),
            max_sqp_iterations: 25,
            recorder: FlightRecorder::disabled(),
            trace: TraceRing::disabled(),
        }
    }

    /// The prediction horizon length.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The temperature target.
    #[must_use]
    pub fn target(&self) -> Celsius {
        self.target
    }

    /// The cost weights.
    #[must_use]
    pub fn weights(&self) -> MpcWeights {
        self.weights
    }

    /// Resamples the simulation-rate preview into `horizon` blocks of the
    /// prediction period: motor power is block-averaged (the paper's
    /// `Pe` vector), ambient/solar taken at block start.
    fn resample_preview(&self, ctx: &ControlContext<'_>) -> Vec<PreviewSample> {
        let block = (self.prediction_dt.value() / ctx.dt.value())
            .round()
            .max(1.0) as usize;
        let mut out = Vec::with_capacity(self.horizon);
        for k in 0..self.horizon {
            let start = k * block;
            let mut pe = 0.0;
            let mut n = 0.0;
            for j in start..start + block {
                let idx = j.min(ctx.preview.len().saturating_sub(1));
                if let Some(s) = ctx.preview.get(idx) {
                    pe += s.motor_power.value();
                    n += 1.0;
                }
            }
            let idx = start.min(ctx.preview.len().saturating_sub(1));
            let (ambient, solar) = match ctx.preview.get(idx) {
                Some(s) => (s.ambient, s.solar),
                None => (ctx.ambient, ctx.solar),
            };
            out.push(PreviewSample {
                motor_power: Watts::new(if n > 0.0 { pe / n } else { 0.0 }),
                ambient,
                solar,
            });
        }
        out
    }

    /// Initial decision vector when no warm start exists: passive coils
    /// at the mix temperature, moderate recirculation and flow.
    fn cold_start(&self, ctx: &ControlContext<'_>) -> Vec<f64> {
        let p = self.hvac.params();
        let mid_flow = 0.5 * (p.min_flow.value() + p.max_flow.value());
        let tm_guess = 0.3 * ctx.ambient.value() + 0.7 * ctx.state.tz.value();
        let mut z = Vec::with_capacity(self.horizon * self.vars_per_step());
        for _ in 0..self.horizon {
            z.push(tm_guess / TS_SCALE);
            z.push(tm_guess / TC_SCALE);
            z.push(0.7);
            z.push(mid_flow / MZ_SCALE);
            if self.use_multiple_shooting {
                // Hold the cabin at its current temperature: near-passive
                // coils barely move it over the horizon, so the dynamics
                // equalities start close to satisfied.
                z.push(ctx.state.tz.value() / TZ_SCALE);
            }
        }
        z
    }

    /// Decision variables per horizon step of the active transcription.
    fn vars_per_step(&self) -> usize {
        if self.use_multiple_shooting {
            MS_VARS_PER_STEP
        } else {
            VARS_PER_STEP
        }
    }

    /// How many *prediction* blocks of simulated time have elapsed since
    /// the previous solve: `round(recompute_every·dt / prediction_dt)`.
    /// The previous fixed one-block shift silently misaligned the warm
    /// start whenever the re-solve cadence differed from the prediction
    /// period (e.g. re-solving every simulation step leaves the plan where
    /// it is; re-solving every two blocks must drop two).
    fn elapsed_blocks(&self, ctx: &ControlContext<'_>) -> usize {
        let blocks = (self.recompute_every as f64 * ctx.dt.value() / self.prediction_dt.value())
            .round() as usize;
        blocks.min(self.horizon)
    }

    /// Shifts the previous solution `blocks` prediction blocks forward
    /// (standard MPC warm start): drops the leading steps that have
    /// already been executed, repeats the last step to fill the tail.
    fn shifted_warm_start(&self, prev: &[f64], blocks: usize) -> Vec<f64> {
        let vs = self.vars_per_step();
        let mut z = prev[blocks * vs..].to_vec();
        let tail = prev[prev.len() - vs..].to_vec();
        for _ in 0..blocks {
            z.extend_from_slice(&tail);
        }
        z
    }

    /// Extracts the first-step input from a decision vector.
    fn first_input(z: &[f64]) -> HvacInput {
        HvacInput {
            ts: Celsius::new(z[0] * TS_SCALE),
            tc: Celsius::new(z[1] * TC_SCALE),
            dr: z[2],
            mz: KgPerSecond::new(z[3] * MZ_SCALE),
        }
    }

    /// Builds the condensed receding-horizon NLP for the given context
    /// without solving it, whatever [`MpcBuilder::multiple_shooting`]
    /// says: on a multiple-shooting controller this is not the problem it
    /// solves, which [`MpcController::with_active_nlp`] hands out. Public
    /// so harnesses (benchmarks, derivative cross-checks) can evaluate the
    /// problem's exact derivatives against central differences at
    /// arbitrary points.
    #[must_use]
    pub fn nlp(&self, ctx: &ControlContext<'_>) -> impl NlpProblem + '_ {
        self.build_nlp(ctx)
    }

    /// Runs `f` against the NLP transcription this controller actually
    /// solves — the multiple-shooting view when configured, the condensed
    /// single-shooting problem otherwise. The closure shape exists
    /// because the multiple-shooting view borrows the condensed problem
    /// it re-transcribes, so it cannot outlive this call. Public so
    /// harnesses can cross-check the active transcription's CSR
    /// derivatives and declared QP structure against central differences.
    pub fn with_active_nlp<R>(
        &self,
        ctx: &ControlContext<'_>,
        f: impl FnOnce(&dyn NlpProblem) -> R,
    ) -> R {
        let nlp = self.build_nlp(ctx);
        if self.use_multiple_shooting {
            f(&MsMpcNlp::new(&nlp))
        } else {
            f(&nlp)
        }
    }

    fn build_nlp(&self, ctx: &ControlContext<'_>) -> MpcNlp<'_> {
        MpcNlp {
            hvac: &self.hvac,
            limits: &self.limits,
            target: self.target,
            weights: self.weights,
            battery: self.battery,
            accessory_power: self.accessory_power.value(),
            horizon: self.horizon,
            dt: self.prediction_dt.value(),
            tz0: ctx.state.tz.value(),
            soc0: ctx.soc.value(),
            soc_avg_ref: ctx.soc_avg,
            preview: self.resample_preview(ctx),
            cache: RolloutCache::new(),
        }
    }

    /// Solves the receding-horizon problem and caches the first input.
    ///
    /// All telemetry here is observation-only: the solver sees the same
    /// problem, start point and options whether or not a registry is
    /// attached, so instrumented runs are bit-identical to plain ones.
    fn solve(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        let trace_span = self.trace.span(self.trace_solve_id);
        let solve_span = self.metrics.solve_seconds.start_span();
        let recording = self.recorder.is_enabled();
        // Taken out of `self` for the duration of the solve: the NLP views
        // below hold a shared borrow of the controller, so the multiplier
        // cache is moved aside and restored once they are dropped.
        let mut sqp_warm = std::mem::take(&mut self.sqp_warm);
        let nlp = self.build_nlp(ctx);
        // The multiple-shooting view borrows the condensed NLP (model
        // parameters and resampled preview) and adds the per-step cabin
        // variables + dynamics equalities; the condensed view stays alive
        // for the flight-recorder capture in either mode.
        let ms_nlp = self.use_multiple_shooting.then(|| MsMpcNlp::new(&nlp));
        let (z0, provenance) = match &self.warm_start {
            Some(prev) if prev.len() == self.horizon * self.vars_per_step() => {
                let blocks = self.elapsed_blocks(ctx);
                (
                    self.shifted_warm_start(prev, blocks),
                    WarmStart::Shifted { blocks },
                )
            }
            _ => (self.cold_start(ctx), WarmStart::Cold),
        };
        let warm_started = provenance != WarmStart::Cold;
        let mut final_active_set: Vec<usize> = Vec::new();
        let solved = if self.metrics.enabled || recording {
            let observer = SolveObserver {
                metrics: self.metrics.enabled.then_some(&self.metrics),
                final_active_set: recording.then_some(&mut final_active_set),
            };
            match &ms_nlp {
                Some(ms) => self.solver.solve_cached(ms, &z0, &mut sqp_warm, observer),
                None => self.solver.solve_observed(&nlp, &z0, observer),
            }
        } else {
            match &ms_nlp {
                Some(ms) => self
                    .solver
                    .solve_cached(ms, &z0, &mut sqp_warm, NoopSqpObserver),
                None => self.solver.solve(&nlp, &z0),
            }
        };
        // Assemble the flight record while the NLP (and its preview) is
        // still alive; uncached rollouts keep the cache-hit counters
        // identical to an unrecorded run. In multiple-shooting mode the
        // record is captured through the condensed lens: the per-step
        // cabin variables are dropped and the plan re-rolled from the
        // inputs, so dumps are layout-independent.
        let decision = recording.then(|| {
            let condensed;
            let solved_for_capture = match (&solved, &ms_nlp) {
                (Ok(result), Some(_)) => {
                    let mut z4 = Vec::with_capacity(self.horizon * VARS_PER_STEP);
                    for k in 0..self.horizon {
                        let o = k * MS_VARS_PER_STEP;
                        z4.extend_from_slice(&result.z[o..o + VARS_PER_STEP]);
                    }
                    condensed = Ok(SqpResult {
                        z: z4,
                        ..result.clone()
                    });
                    &condensed
                }
                _ => &solved,
            };
            Box::new(self.capture_decision(
                &nlp,
                ctx,
                provenance,
                solved_for_capture,
                &final_active_set,
            ))
        });
        let cache_hits = nlp.cache.hits.get() + ms_nlp.as_ref().map_or(0, |ms| ms.cache.hits.get());
        let cache_misses =
            nlp.cache.misses.get() + ms_nlp.as_ref().map_or(0, |ms| ms.cache.misses.get());
        drop(ms_nlp);
        drop(nlp);
        self.sqp_warm = sqp_warm;
        if let Some(decision) = decision {
            self.recorder.record_decision(*decision);
        }

        self.diagnostics.solves += 1;
        self.metrics.solves.inc();
        self.metrics.rollout_cache_hits.add(cache_hits);
        self.metrics.rollout_cache_misses.add(cache_misses);
        if warm_started {
            self.diagnostics.warm_start_hits += 1;
            self.metrics.warm_hits.inc();
        } else {
            self.diagnostics.warm_start_misses += 1;
            self.metrics.warm_misses.inc();
        }

        let input = match solved {
            Ok(result) => {
                self.diagnostics.sqp_iterations += result.iterations as u64;
                self.metrics.sqp_iterations.record(result.iterations as f64);
                match result.status {
                    SqpStatus::Converged => {
                        self.diagnostics.converged += 1;
                        self.metrics.converged.inc();
                    }
                    SqpStatus::MaxIterations => {
                        self.diagnostics.max_iterations += 1;
                        self.metrics.max_iterations.inc();
                    }
                    SqpStatus::LineSearchStalled => {
                        self.diagnostics.line_search_stalled += 1;
                        self.metrics.stalled.inc();
                    }
                }
                let input = Self::first_input(&result.z);
                self.warm_start = Some(result.z);
                input
            }
            Err(_) => {
                // Structural failure (should not happen with finite data):
                // fall back to the previous input or idle. Drop the warm
                // start too — it described a plan anchored at an older
                // state, and re-shifting it again next solve would anchor
                // it even further in the past.
                self.diagnostics.solver_errors += 1;
                self.metrics.errors.inc();
                if self.warm_start.is_some() {
                    self.metrics.warm_invalidated.inc();
                }
                self.warm_start = None;
                self.cached_input
                    .unwrap_or_else(|| HvacInput::idle(self.hvac.params(), ctx.state.tz))
            }
        };
        // Stamp the latency observation with the trace span that
        // produced it, so a p99 exemplar resolves to this exact solve
        // in the Chrome-trace export.
        solve_span.finish_with_exemplar(trace_span.finish_id());
        self.limits
            .clamp_input(&self.hvac, input, ctx.state, ctx.ambient)
    }

    /// Cumulative solver diagnostics since construction.
    #[must_use]
    pub fn diagnostics(&self) -> MpcDiagnostics {
        self.diagnostics
    }

    /// Assembles the [`DecisionRecord`] for one solve. Only called when
    /// the flight recorder is enabled; uses the uncached [`MpcNlp::rollout`]
    /// directly so the rollout-cache counters stay identical to an
    /// unrecorded run.
    fn capture_decision(
        &self,
        nlp: &MpcNlp<'_>,
        ctx: &ControlContext<'_>,
        warm_start: WarmStart,
        solved: &Result<SqpResult, OptimError>,
        final_active_set: &[usize],
    ) -> DecisionRecord {
        let base = DecisionRecord {
            step: self.control_steps,
            t_s: ctx.elapsed.value(),
            outcome: SolveOutcome::Error,
            iterations: 0,
            objective: f64::NAN,
            constraint_violation: f64::NAN,
            warm_start,
            soc_pct: ctx.soc.value(),
            cabin_c: ctx.state.tz.value(),
            motor_preview_w: nlp.preview.iter().map(|s| s.motor_power.value()).collect(),
            plan: Vec::new(),
            constraint_rows: INEQ_PER_STEP,
            active_masks: Vec::new(),
            attribution: None,
        };
        let Ok(result) = solved else {
            return base;
        };
        let outcome = match result.status {
            SqpStatus::Converged => SolveOutcome::Converged,
            SqpStatus::MaxIterations => SolveOutcome::MaxIterations,
            SqpStatus::LineSearchStalled => SolveOutcome::LineSearchStalled,
        };
        let r = nlp.rollout(&result.z);
        // Motor-only baseline for the attribution split: zeroing the mass
        // flow zeroes every HVAC power term (ph, pc, pf all scale with
        // mz), so this rollout draws only motor + accessory power and the
        // SoC/effective-charge difference is the HVAC's share *including*
        // the superlinear Peukert coupling of concurrent peaks.
        let mut z_off = result.z.clone();
        for k in 0..self.horizon {
            z_off[k * VARS_PER_STEP + 3] = 0.0;
        }
        let motor_only = nlp.rollout(&z_off);

        let dt = self.prediction_dt.value();
        let mut plan = Vec::with_capacity(self.horizon);
        let mut hvac_energy_wh = 0.0;
        let mut motor_energy_wh = 0.0;
        let mut cost_hvac_power = 0.0;
        let mut cost_soc_deviation = 0.0;
        let mut cost_comfort = 0.0;
        for (k, s) in r.iter().enumerate() {
            let (ts, tc, dr, mz) = decode(&result.z, k, VARS_PER_STEP);
            let (ph, pc, pf) = s.powers;
            let p_hvac = ph + pc + pf;
            plan.push(PlannedStep {
                ts_c: ts,
                tc_c: tc,
                recirculation: dr,
                flow_kg_s: mz,
                hvac_power_w: p_hvac,
                cabin_c: s.tz,
                soc_pct: s.soc,
            });
            hvac_energy_wh += p_hvac * dt / 3600.0;
            motor_energy_wh +=
                (nlp.preview[k].motor_power.value() + self.accessory_power.value()) * dt / 3600.0;
            cost_hvac_power += self.weights.w1 * p_hvac / 1000.0;
            let sdev = s.soc - nlp.soc_avg_ref;
            cost_soc_deviation += self.weights.w2 * sdev * sdev;
            let terr = s.tz - self.target.value();
            cost_comfort += self.weights.w3 * terr * terr;
        }
        let cn_as = self.battery.capacity.value() * 3600.0;
        let soc0 = ctx.soc.value();
        let last = self.horizon - 1;
        let soc_drop_total_pct = soc0 - r[last].soc;
        let soc_drop_motor_pct = soc0 - motor_only[last].soc;
        let soc_drop_hvac_pct = soc_drop_total_pct - soc_drop_motor_pct;
        let attribution = Attribution {
            battery_energy_wh: motor_energy_wh + hvac_energy_wh,
            motor_energy_wh,
            hvac_energy_wh,
            soc_drop_total_pct,
            soc_drop_motor_pct,
            soc_drop_hvac_pct,
            eff_charge_total_as: soc_drop_total_pct / 100.0 * cn_as,
            eff_charge_motor_as: soc_drop_motor_pct / 100.0 * cn_as,
            eff_charge_hvac_as: soc_drop_hvac_pct / 100.0 * cn_as,
            cost_hvac_power,
            cost_soc_deviation,
            cost_comfort,
        };
        let mut active_masks = vec![0u32; self.horizon];
        for &idx in final_active_set {
            let k = idx / INEQ_PER_STEP;
            if k < self.horizon {
                active_masks[k] |= 1 << (idx % INEQ_PER_STEP);
            }
        }
        DecisionRecord {
            outcome,
            iterations: result.iterations,
            objective: result.objective,
            constraint_violation: result.constraint_violation,
            plan,
            active_masks,
            attribution: Some(attribution),
            ..base
        }
    }
}

impl ClimateController for MpcController {
    fn name(&self) -> &'static str {
        "battery-lifetime-aware-mpc"
    }

    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        let step_span = self.metrics.control_step_seconds.start_span();
        let due = self.steps_since_solve == 0 || self.cached_input.is_none();
        self.steps_since_solve = (self.steps_since_solve + 1) % self.recompute_every;
        let input = if due {
            let input = self.solve(ctx);
            self.cached_input = Some(input);
            input
        } else {
            let held = self.cached_input.expect("cached input exists");
            self.limits
                .clamp_input(&self.hvac, held, ctx.state, ctx.ambient)
        };
        step_span.finish();
        self.control_steps += 1;
        input
    }

    fn solver_diagnostics(&self) -> Option<MpcDiagnostics> {
        Some(self.diagnostics)
    }

    fn reset_session(&mut self) {
        // Everything anchored to the previous vehicle's trajectory must
        // go: the shifted-plan warm start, the interior-point multiplier
        // cache, the held input and the re-solve cadence phase. A warm
        // start carried across vehicle ids would seed the new session's
        // first solve from another vehicle's plan — at best a slow cold
        // start in disguise, at worst a different iterate path than a
        // fresh controller (breaking per-session reproducibility).
        self.warm_start = None;
        self.sqp_warm = QpWarmStart::new();
        self.cached_input = None;
        self.steps_since_solve = 0;
        self.control_steps = 0;
        // Diagnostics and telemetry survive: the slot is recycled, the
        // cumulative metrics stream is not.
    }
}

/// The single-shooting NLP built every control step: decision variables
/// are the scaled HVAC inputs over the horizon; the cabin temperature and
/// SoC trajectories are rolled out inside the objective/constraints.
///
/// Unlike a generic [`NlpProblem`], this one supplies *exact* derivatives:
/// the forward rollout records per-step intermediates, an adjoint sweep
/// through the trapezoidal cabin recursion (Eq. 18–19) and the smoothed
/// Peukert SoC recursion (Eq. 13–14) produces the objective gradient, and
/// a forward sensitivity pass produces the CSR inequality Jacobian (see
/// `DESIGN.md`, "Analytic MPC derivatives"). One rollout per iterate is
/// shared between the objective, constraints, gradient and Jacobian
/// through a [`RolloutCache`] — the SQP solver evaluates all four at the
/// same `z`.
///
/// It also holds the one stage model both transcriptions share: the step
/// and its rollout ([`MpcNlp::rollout_with`]), the objective
/// ([`MpcNlp::objective_of`]) and the 13 constraint rows
/// ([`MpcNlp::constraints_of`]), each told the cabin temperature of the
/// step by its caller.
struct MpcNlp<'a> {
    hvac: &'a Hvac,
    limits: &'a HvacLimits,
    target: Celsius,
    weights: MpcWeights,
    battery: MpcBatteryModel,
    accessory_power: f64,
    horizon: usize,
    dt: f64,
    tz0: f64,
    soc0: f64,
    soc_avg_ref: f64,
    preview: Vec<PreviewSample>,
    cache: RolloutCache,
}

/// One prediction step of the model: what the objective, the constraint
/// rows and their exact derivatives read.
struct Step {
    /// Cabin temperature after the step, from the one entering it.
    tz: f64,
    /// SoC after the step.
    soc: f64,
    /// Unclamped component powers (ph, pc, pf).
    powers: (f64, f64, f64),
    /// Mix temperature.
    tm: f64,
    /// `∂Tz_k/∂Tz_{k−1} = (Mc/dt − b/2)/(Mc/dt + b/2)`.
    alpha: f64,
    /// `1/(Mc/dt + b/2)`.
    inv_den: f64,
    /// `∂i_eff/∂P_total` (A/W), through the smoothed Peukert map.
    dieff_dp: f64,
}

/// One [`Step`] per horizon step.
type Rollout = Vec<Step>;

/// The last rollout of an NLP, keyed by the iterate it was computed at,
/// with the evaluations it served and those that had to roll out afresh.
struct RolloutCache {
    last: RefCell<Option<(Vec<f64>, Rollout)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl RolloutCache {
    fn new() -> Self {
        Self {
            last: RefCell::new(None),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Runs `f` with the rollout at `z`, calling `roll` only when the
    /// iterate changed (the SQP solver evaluates the objective,
    /// constraints, gradient and Jacobians at the same point).
    fn with<T>(
        &self,
        z: &[f64],
        roll: impl FnOnce(&[f64]) -> Rollout,
        f: impl FnOnce(&Rollout) -> T,
    ) -> T {
        let mut last = self.last.borrow_mut();
        if matches!(&*last, Some((zc, _)) if zc.as_slice() == z) {
            self.hits.set(self.hits.get() + 1);
        } else {
            self.misses.set(self.misses.get() + 1);
            *last = Some((z.to_vec(), roll(z)));
        }
        let (_, r) = last.as_ref().expect("cache filled above");
        f(r)
    }
}

/// The physical inputs `(ts, tc, dr, mz)` of step `k` of a decision vector
/// with `stride` variables per step (both layouts lead with the four
/// scaled inputs).
fn decode(z: &[f64], k: usize, stride: usize) -> (f64, f64, f64, f64) {
    let o = k * stride;
    (
        z[o] * TS_SCALE,
        z[o + 1] * TC_SCALE,
        z[o + 2],
        z[o + 3] * MZ_SCALE,
    )
}

impl MpcNlp<'_> {
    /// Cabin temperature entering step `k` (the state the step's mix and
    /// trapezoidal update read).
    fn tz_in(&self, r: &Rollout, k: usize) -> f64 {
        if k == 0 {
            self.tz0
        } else {
            r[k - 1].tz
        }
    }

    /// The stage model rolled over the horizon, from a decision vector
    /// with `stride` variables per step. Step `k` starts from the cabin
    /// temperature `incoming(k, tz)`, where `tz` is the previous step's
    /// prediction (`tz0` before the first step): the condensed rollout
    /// passes it on, multiple shooting reads its lifted `tzv_{k−1}`.
    fn rollout_with(
        &self,
        z: &[f64],
        stride: usize,
        incoming: impl Fn(usize, f64) -> f64,
    ) -> Rollout {
        let cabin = self.hvac.cabin();
        let cp = cabin.air_heat_capacity.value();
        let cx = cabin.shell_conductance.value();
        let mc_dt = cabin.thermal_capacitance.value() / self.dt;
        let hp = self.hvac.params();
        let ch = cp / hp.heater_efficiency;
        let cc = cp / hp.cooler_efficiency;
        let kf = hp.fan_coefficient;
        let bat = &self.battery;
        let cn_as = bat.capacity.value() * 3600.0;
        let v = bat.voltage.value();
        let in_a = bat.nominal_current.value();
        let peukert_exp = 0.5 * (bat.peukert - 1.0);
        let (dt, accessory_power) = (self.dt, self.accessory_power);

        let mut out = Vec::with_capacity(self.horizon);
        let (mut tz, mut soc) = (self.tz0, self.soc0);
        for k in 0..self.horizon {
            let (ts, tc, dr, mz) = decode(z, k, stride);
            let tz_in = incoming(k, tz);
            let s = &self.preview[k];
            let to = s.ambient.value();
            let tm = (1.0 - dr) * to + dr * tz_in;
            // Smooth (unclamped) power model — the constraints keep the
            // spans non-negative at feasible points.
            let ph = ch * mz * (ts - tc);
            let pc = cc * mz * (tm - tc);
            let pf = kf * mz * mz;
            // Trapezoidal cabin update (Eq. 18–19).
            let a = s.solar.value() + cx * to + mz * cp * ts;
            let b = cx + mz * cp;
            let inv_den = 1.0 / (mc_dt + 0.5 * b);
            let alpha = (mc_dt - 0.5 * b) * inv_den;
            tz = ((mc_dt - 0.5 * b) * tz_in + a) * inv_den;
            // SoC update with smoothed Peukert effective current (Eq. 13–14).
            let total = s.motor_power.value() + accessory_power + ph + pc + pf;
            let i = total / v;
            let u = (i * i + 1.0) / (in_a * in_a);
            let u_pow = u.powf(peukert_exp);
            let i_eff = i * u_pow;
            // d i_eff/dP = (1/V)·uᵉ·(1 + 2e·i²/(i²+1)).
            let dieff_dp = u_pow * (1.0 + 2.0 * peukert_exp * i * i / (i * i + 1.0)) / v;
            soc -= 100.0 * i_eff * dt / cn_as;
            out.push(Step {
                tz,
                soc,
                powers: (ph, pc, pf),
                tm,
                alpha,
                inv_den,
                dieff_dp,
            });
        }
        out
    }

    /// The condensed rollout: each step starts from the previous step's
    /// predicted cabin temperature.
    fn rollout(&self, z: &[f64]) -> Rollout {
        self.rollout_with(z, VARS_PER_STEP, |_, tz| tz)
    }

    /// Eq. 21 over a rollout, the comfort term on `tz(k)`, the cabin
    /// temperature after step `k`.
    fn objective_of(&self, r: &Rollout, tz: impl Fn(usize) -> f64) -> f64 {
        let w = &self.weights;
        let mut cost = 0.0;
        for (k, s) in r.iter().enumerate() {
            let (ph, pc, pf) = s.powers;
            cost += w.w1 * (ph + pc + pf) / 1000.0;
            let sdev = s.soc - self.soc_avg_ref;
            cost += w.w2 * sdev * sdev;
            let terr = tz(k) - self.target.value();
            cost += w.w3 * terr * terr;
        }
        cost
    }

    /// The 13 rows of every step (see [`CONSTRAINT_ROW_LABELS`]) of a
    /// decision vector with `stride` variables per step, the C2 rows on
    /// `tz(k)`, the cabin temperature after step `k`.
    fn constraints_of(
        &self,
        z: &[f64],
        stride: usize,
        r: &Rollout,
        tz: impl Fn(usize) -> f64,
        out: &mut [f64],
    ) {
        let hp = self.hvac.params();
        let comfort_lo = self.limits.comfort_min.value();
        let comfort_hi = self.limits.comfort_max.value();
        for (k, s) in r.iter().enumerate() {
            let pull = PULL_RATE_K_PER_S * self.dt * (k + 1) as f64;
            let hi_k = comfort_hi.max(self.tz0 + SOAK_SLACK_K - pull);
            let lo_k = comfort_lo.min(self.tz0 - SOAK_SLACK_K + pull);
            let (ts, tc, dr, mz) = decode(z, k, stride);
            let tz_k = tz(k);
            let o = k * INEQ_PER_STEP;
            let (ph, pc, pf) = s.powers;
            // The coil floor binds only for active cooling; allow the coil
            // to track a colder passive mix (winter heating).
            let tc_floor = hp.min_coil_temp.value().min(s.tm);
            out[o] = hp.min_flow.value() - mz; // C1 lower
            out[o + 1] = mz - hp.max_flow.value(); // C1 upper
            out[o + 2] = -dr; // C7 lower
            out[o + 3] = dr - hp.max_recirculation; // C7 upper
            out[o + 4] = tc_floor - tc; // C5
            out[o + 5] = tc - s.tm; // C4
            out[o + 6] = tc - ts; // C3
            out[o + 7] = ts - hp.max_supply_temp.value(); // C6
            out[o + 8] = lo_k - tz_k; // C2 lower (funnel)
            out[o + 9] = tz_k - hi_k; // C2 upper (funnel)
            out[o + 10] = (ph - hp.max_heating_power.value()) / POWER_ROW_SCALE_W; // C8
            out[o + 11] = (pc - hp.max_cooling_power.value()) / POWER_ROW_SCALE_W; // C9
            out[o + 12] = (pf - hp.max_fan_power.value()) / POWER_ROW_SCALE_W; // C10
        }
    }

    /// Exact objective gradient by a reverse (adjoint) sweep through the
    /// cabin and SoC recursions.
    ///
    /// Per step the forward pass computed `Tz_k = α_k·Tz_{k−1} + a_k/den_k`
    /// and `SoC_k = SoC_{k−1} − s_c·i_eff(P_k)`. Walking backwards, `λ`
    /// carries `∂f/∂Tz_k` (the future's view of the current cabin state:
    /// the direct comfort-error term, the next step's trapezoidal
    /// coefficient `α`, and the next step's mix-temperature path into the
    /// cooler power), and `μ` carries `∂f/∂SoC_k`, a plain suffix sum
    /// because the SoC recursion has unit gain.
    fn gradient_of(&self, z: &[f64], r: &Rollout, grad: &mut [f64]) {
        let cabin = self.hvac.cabin();
        let cp = cabin.air_heat_capacity.value();
        let hp = self.hvac.params();
        let ch = cp / hp.heater_efficiency;
        let cc = cp / hp.cooler_efficiency;
        let kf = hp.fan_coefficient;
        let w = &self.weights;
        let w1p = w.w1 / 1000.0;
        // ∂SoC_k/∂i_eff_k = −s_c.
        let s_c = 100.0 * self.dt / (self.battery.capacity.value() * 3600.0);

        let mut lam = 0.0; // ∂f/∂Tz_k flowing in from steps > k
        let mut mu = 0.0; // ∂f/∂SoC_k flowing in from steps > k
        for k in (0..self.horizon).rev() {
            let (ts, tc, dr, mz) = decode(z, k, VARS_PER_STEP);
            let to = self.preview[k].ambient.value();
            let tz_in = self.tz_in(r, k);
            let s = &r[k];
            let lam_k = lam + 2.0 * w.w3 * (s.tz - self.target.value());
            let mu_k = mu + 2.0 * w.w2 * (s.soc - self.soc_avg_ref);
            // ∂f/∂(any power component at step k): the direct w1 term plus
            // the battery-stress path through every later SoC sample.
            let c_p = w1p - mu_k * s_c * s.dieff_dp;
            let d_tz_d_ts = mz * cp * s.inv_den;
            let d_tz_d_mz = cp * (ts - 0.5 * (tz_in + s.tz)) * s.inv_den;
            let o = k * VARS_PER_STEP;
            grad[o] = (c_p * ch * mz + lam_k * d_tz_d_ts) * TS_SCALE;
            grad[o + 1] = (c_p * (-ch * mz - cc * mz)) * TC_SCALE;
            grad[o + 2] = c_p * cc * mz * (tz_in - to);
            grad[o + 3] = (c_p * (ch * (ts - tc) + cc * (s.tm - tc) + 2.0 * kf * mz)
                + lam_k * d_tz_d_mz)
                * MZ_SCALE;
            // Propagate to Tz_{k−1}: the trapezoidal coefficient plus this
            // step's recirculated-mix path (∂tm/∂Tz_{k−1} = dr).
            lam = lam_k * s.alpha + c_p * cc * mz * dr;
            mu = mu_k;
        }
    }

    /// Exact inequality Jacobian in CSR form, by forward sensitivity
    /// accumulation. The cabin state reaches a row only through `ts` and
    /// `mz` of earlier steps (the cabin recursion never sees `tc` or
    /// `dr`), so its sensitivity is kept as two per-step coefficient arrays
    /// (`∂Tz/∂ts_j`, `∂Tz/∂mz_j`), and each coupling row pushes exactly its
    /// prefix of nonzero columns in ascending order. The nine step-local
    /// rows store 1–3 entries each.
    fn ineq_jacobian_sparse_of(&self, z: &[f64], r: &Rollout, out: &mut SparseMatrix) {
        let n = self.horizon * VARS_PER_STEP;
        let cabin = self.hvac.cabin();
        let cp = cabin.air_heat_capacity.value();
        let hp = self.hvac.params();
        let ch = cp / hp.heater_efficiency;
        let cc = cp / hp.cooler_efficiency;
        let kf = hp.fan_coefficient;
        let min_coil = hp.min_coil_temp.value();

        out.reset(n);
        // ∂Tz_{k−1}/∂(ts_j, mz_j) entering the step (prefix 0..k live) and
        // ∂Tz_k/∂(ts_j, mz_j) after the step's trapezoidal update — both
        // kept because the C4/C5/C9 rows read the incoming state while the
        // C2 rows read the outgoing one.
        let mut stz_ts = vec![0.0; self.horizon];
        let mut stz_mz = vec![0.0; self.horizon];
        let mut stz_ts_next = vec![0.0; self.horizon];
        let mut stz_mz_next = vec![0.0; self.horizon];
        for k in 0..self.horizon {
            let (ts, tc, dr, mz) = decode(z, k, VARS_PER_STEP);
            let to = self.preview[k].ambient.value();
            let tz_in = self.tz_in(r, k);
            let s = &r[k];
            let c_ts = k * VARS_PER_STEP;
            let c_tc = c_ts + 1;
            let c_dr = c_ts + 2;
            let c_mz = c_ts + 3;

            // C1 flow bounds.
            out.push(c_mz, -MZ_SCALE);
            out.finish_row();
            out.push(c_mz, MZ_SCALE);
            out.finish_row();
            // C7 recirculation bounds.
            out.push(c_dr, -1.0);
            out.finish_row();
            out.push(c_dr, 1.0);
            out.finish_row();
            // C5: constant coil floor, unless the passive mix is colder —
            // then the row inherits tm's sensitivities
            // (tm = (1−dr)·To + dr·Tz_{k−1}). Branch matches the value.
            if s.tm < min_coil {
                for j in 0..k {
                    out.push(j * VARS_PER_STEP, dr * stz_ts[j]);
                    out.push(j * VARS_PER_STEP + 3, dr * stz_mz[j]);
                }
                out.push(c_tc, -TC_SCALE);
                out.push(c_dr, tz_in - to);
            } else {
                out.push(c_tc, -TC_SCALE);
            }
            out.finish_row();
            // C4: tc − tm.
            for j in 0..k {
                out.push(j * VARS_PER_STEP, -dr * stz_ts[j]);
                out.push(j * VARS_PER_STEP + 3, -dr * stz_mz[j]);
            }
            out.push(c_tc, TC_SCALE);
            out.push(c_dr, -(tz_in - to));
            out.finish_row();
            // C3: tc − ts.
            out.push(c_ts, -TS_SCALE);
            out.push(c_tc, TC_SCALE);
            out.finish_row();
            // C6: supply cap.
            out.push(c_ts, TS_SCALE);
            out.finish_row();
            // Advance the cabin sensitivity to ∂Tz_k/∂z before the C2
            // rows (they read the post-step state).
            let d_tz_d_ts = mz * cp * s.inv_den;
            let d_tz_d_mz = cp * (ts - 0.5 * (tz_in + s.tz)) * s.inv_den;
            for j in 0..k {
                stz_ts_next[j] = s.alpha * stz_ts[j];
                stz_mz_next[j] = s.alpha * stz_mz[j];
            }
            stz_ts_next[k] = d_tz_d_ts * TS_SCALE;
            stz_mz_next[k] = d_tz_d_mz * MZ_SCALE;
            // C2 lower: lo − Tz_k.
            for j in 0..=k {
                out.push(j * VARS_PER_STEP, -stz_ts_next[j]);
                out.push(j * VARS_PER_STEP + 3, -stz_mz_next[j]);
            }
            out.finish_row();
            // C2 upper: Tz_k − hi.
            for j in 0..=k {
                out.push(j * VARS_PER_STEP, stz_ts_next[j]);
                out.push(j * VARS_PER_STEP + 3, stz_mz_next[j]);
            }
            out.finish_row();
            // C8: ph = ch·mz·(ts − tc). C8–C10 are in hectowatts.
            out.push(c_ts, ch * mz * TS_SCALE / POWER_ROW_SCALE_W);
            out.push(c_tc, -ch * mz * TC_SCALE / POWER_ROW_SCALE_W);
            out.push(c_mz, ch * (ts - tc) * MZ_SCALE / POWER_ROW_SCALE_W);
            out.finish_row();
            // C9: pc = cc·mz·(tm − tc) — inherits tm's sensitivities
            // (via the *incoming* cabin state).
            for j in 0..k {
                out.push(
                    j * VARS_PER_STEP,
                    cc * mz * (dr * stz_ts[j]) / POWER_ROW_SCALE_W,
                );
                out.push(
                    j * VARS_PER_STEP + 3,
                    cc * mz * (dr * stz_mz[j]) / POWER_ROW_SCALE_W,
                );
            }
            out.push(c_tc, -cc * mz * TC_SCALE / POWER_ROW_SCALE_W);
            out.push(c_dr, cc * mz * (tz_in - to) / POWER_ROW_SCALE_W);
            out.push(c_mz, cc * (s.tm - tc) * MZ_SCALE / POWER_ROW_SCALE_W);
            out.finish_row();
            // C10: pf = kf·mz².
            out.push(c_mz, 2.0 * kf * mz * MZ_SCALE / POWER_ROW_SCALE_W);
            out.finish_row();
            std::mem::swap(&mut stz_ts, &mut stz_ts_next);
            std::mem::swap(&mut stz_mz, &mut stz_mz_next);
        }
    }

    /// Runs `f` with the condensed rollout at `z`, through the cache.
    fn with_rollout<T>(&self, z: &[f64], f: impl FnOnce(&Rollout) -> T) -> T {
        self.cache.with(z, |z| self.rollout(z), f)
    }
}

impl NlpProblem for MpcNlp<'_> {
    fn num_vars(&self) -> usize {
        self.horizon * VARS_PER_STEP
    }

    fn objective(&self, z: &[f64]) -> f64 {
        self.with_rollout(z, |r| self.objective_of(r, |k| r[k].tz))
    }

    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        self.with_rollout(z, |r| self.gradient_of(z, r, grad));
    }

    fn num_ineq(&self) -> usize {
        self.horizon * INEQ_PER_STEP
    }

    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.with_rollout(z, |r| {
            let tz = |k: usize| r[k].tz;
            self.constraints_of(z, VARS_PER_STEP, r, tz, out);
        });
    }

    fn ineq_jacobian_sparse_into(&self, z: &[f64], out: &mut SparseMatrix) -> bool {
        self.with_rollout(z, |r| self.ineq_jacobian_sparse_of(z, r, out));
        true
    }

    fn has_exact_derivatives(&self) -> bool {
        true
    }
}

/// The multiple-shooting transcription of the same MPC problem: the
/// predicted cabin temperature after each step joins the decision vector
/// (`[ts, tc, dr, mz, tzv]` per step, [`MS_VARS_PER_STEP`]) and the
/// trapezoidal cabin recursion becomes one equality constraint per step,
///
/// ```text
/// c_k = 10·tzv_k − ((Mc/dt − b/2)·Tz_{k−1} + a_k)/(Mc/dt + b/2) = 0,
/// ```
///
/// with `Tz_{k−1} = 10·tzv_{k−1}` read from the *variables* instead of the
/// rollout. That single change makes every constraint row local: the
/// condensed C2 comfort rows — dense over all earlier `ts`/`mz` columns
/// through the cabin recursion — collapse to one entry on `tzv_k`, and the
/// only cross-step coupling left is the mix temperature's
/// `∂tm_k/∂tzv_{k−1}` (C4/C5/C9, the dynamics row). The Jacobians
/// therefore fit a one-step-lookback block pattern, the NLP declares a
/// [`QpStructure`], and the SQP factors its KKT systems with the O(N)
/// banded backend instead of the dense O(N³) path.
///
/// Borrows the condensed [`MpcNlp`] for the stage model and the resampled
/// preview, but keeps its *own* rollout cache — the two views are keyed by
/// different iterate layouts.
struct MsMpcNlp<'a, 'b> {
    base: &'b MpcNlp<'a>,
    cache: RolloutCache,
}

impl<'a, 'b> MsMpcNlp<'a, 'b> {
    fn new(base: &'b MpcNlp<'a>) -> Self {
        Self {
            base,
            cache: RolloutCache::new(),
        }
    }

    /// Cabin temperature entering step `k` — the initial state for the
    /// first step, the previous step's *decision variable* after that.
    fn tz_in(&self, z: &[f64], k: usize) -> f64 {
        if k == 0 {
            self.base.tz0
        } else {
            z[k * MS_VARS_PER_STEP - 1] * TZ_SCALE
        }
    }

    /// The lifted cabin temperature after step `k`.
    fn tzv(z: &[f64], k: usize) -> f64 {
        z[k * MS_VARS_PER_STEP + 4] * TZ_SCALE
    }

    /// Forward pass through the model with the cabin state taken from the
    /// variables: each [`Step::tz`] is the *one-step prediction* from
    /// `tzv_{k−1}` (the equality constraints' right-hand side), not a
    /// recursive trajectory.
    fn rollout(&self, z: &[f64]) -> Rollout {
        self.base
            .rollout_with(z, MS_VARS_PER_STEP, |k, _| self.tz_in(z, k))
    }

    fn with_rollout<T>(&self, z: &[f64], f: impl FnOnce(&Rollout) -> T) -> T {
        self.cache.with(z, |z| self.rollout(z), f)
    }
}

impl NlpProblem for MsMpcNlp<'_, '_> {
    fn num_vars(&self) -> usize {
        self.base.horizon * MS_VARS_PER_STEP
    }

    /// Same cost as the condensed objective, with the comfort term read
    /// from the cabin *variables* — at any point satisfying the dynamics
    /// equalities the two transcriptions agree exactly.
    fn objective(&self, z: &[f64]) -> f64 {
        self.with_rollout(z, |r| self.base.objective_of(r, |k| Self::tzv(z, k)))
    }

    /// Exact gradient. Without the cabin recursion in the objective the
    /// adjoint `λ` of the condensed sweep disappears; only the SoC suffix
    /// sum `μ` remains, plus one forward-coupling term on each `tzv_k`:
    /// the next step's cooler reads `tzv_k` through the recirculated mix.
    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        self.with_rollout(z, |r| {
            let b = self.base;
            let cabin = b.hvac.cabin();
            let cp = cabin.air_heat_capacity.value();
            let hp = b.hvac.params();
            let ch = cp / hp.heater_efficiency;
            let cc = cp / hp.cooler_efficiency;
            let kf = hp.fan_coefficient;
            let w = &b.weights;
            let w1p = w.w1 / 1000.0;
            let s_c = 100.0 * b.dt / (b.battery.capacity.value() * 3600.0);

            let mut mu = 0.0; // ∂f/∂SoC_k flowing in from steps > k
            let mut c_p_next = 0.0; // c_p of step k+1 (0 past the horizon)
            for k in (0..b.horizon).rev() {
                let (ts, tc, _dr, mz) = decode(z, k, MS_VARS_PER_STEP);
                let to = b.preview[k].ambient.value();
                let tz_in = self.tz_in(z, k);
                let s = &r[k];
                let mu_k = mu + 2.0 * w.w2 * (s.soc - b.soc_avg_ref);
                let c_p = w1p - mu_k * s_c * s.dieff_dp;
                let o = k * MS_VARS_PER_STEP;
                grad[o] = c_p * ch * mz * TS_SCALE;
                grad[o + 1] = c_p * (-ch * mz - cc * mz) * TC_SCALE;
                grad[o + 2] = c_p * cc * mz * (tz_in - to);
                grad[o + 3] = c_p * (ch * (ts - tc) + cc * (s.tm - tc) + 2.0 * kf * mz) * MZ_SCALE;
                let terr = Self::tzv(z, k) - b.target.value();
                let (_, _, dr_next, mz_next) = if k + 1 < b.horizon {
                    decode(z, k + 1, MS_VARS_PER_STEP)
                } else {
                    (0.0, 0.0, 0.0, 0.0)
                };
                grad[o + 4] = (2.0 * w.w3 * terr + c_p_next * cc * mz_next * dr_next) * TZ_SCALE;
                mu = mu_k;
                c_p_next = c_p;
            }
        });
    }

    fn num_eq(&self) -> usize {
        self.base.horizon
    }

    /// The trapezoidal cabin dynamics as defects, in kelvins:
    /// `c_k = 10·tzv_k − pred_k`.
    fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.with_rollout(z, |r| {
            for (k, s) in r.iter().enumerate() {
                out[k] = Self::tzv(z, k) - s.tz;
            }
        });
    }

    /// Exact equality Jacobian in CSR form: row `k` touches
    /// `tzv_{k−1}` (the incoming state), `ts_k`/`mz_k` (through the
    /// prediction) and `tzv_k` — four entries, one-step lookback.
    fn eq_jacobian_sparse_into(&self, z: &[f64], out: &mut SparseMatrix) -> bool {
        self.with_rollout(z, |r| {
            let b = self.base;
            let cp = b.hvac.cabin().air_heat_capacity.value();
            out.reset(b.horizon * MS_VARS_PER_STEP);
            for (k, s) in r.iter().enumerate() {
                let (ts, _, _, mz) = decode(z, k, MS_VARS_PER_STEP);
                let tz_in = self.tz_in(z, k);
                let o = k * MS_VARS_PER_STEP;
                let d_tz_d_ts = mz * cp * s.inv_den;
                let d_tz_d_mz = cp * (ts - 0.5 * (tz_in + s.tz)) * s.inv_den;
                if k > 0 {
                    out.push(o - 1, -s.alpha * TZ_SCALE);
                }
                out.push(o, -d_tz_d_ts * TS_SCALE);
                out.push(o + 3, -d_tz_d_mz * MZ_SCALE);
                out.push(o + 4, TZ_SCALE);
                out.finish_row();
            }
        });
        true
    }

    fn num_ineq(&self) -> usize {
        self.base.horizon * INEQ_PER_STEP
    }

    /// Same 13 rows per step as the condensed transcription (same order,
    /// same [`CONSTRAINT_ROW_LABELS`]), with the comfort rows reading the
    /// cabin *variable* — the dynamics equalities pin it to the model.
    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.with_rollout(z, |r| {
            let tz = |k: usize| Self::tzv(z, k);
            self.base.constraints_of(z, MS_VARS_PER_STEP, r, tz, out);
        });
    }

    /// Exact inequality Jacobian in CSR form. Every row is step-local
    /// except the mix-temperature path `∂tm_k/∂tzv_{k−1} = dr_k·10`
    /// (C4, the C5 cold branch, C9), which reaches exactly one block back.
    fn ineq_jacobian_sparse_into(&self, z: &[f64], out: &mut SparseMatrix) -> bool {
        self.with_rollout(z, |r| {
            let b = self.base;
            let cp = b.hvac.cabin().air_heat_capacity.value();
            let hp = b.hvac.params();
            let ch = cp / hp.heater_efficiency;
            let cc = cp / hp.cooler_efficiency;
            let kf = hp.fan_coefficient;
            let min_coil = hp.min_coil_temp.value();
            out.reset(b.horizon * MS_VARS_PER_STEP);
            for (k, s) in r.iter().enumerate() {
                let (ts, tc, dr, mz) = decode(z, k, MS_VARS_PER_STEP);
                let to = b.preview[k].ambient.value();
                let tz_in = self.tz_in(z, k);
                let o = k * MS_VARS_PER_STEP;
                let (c_ts, c_tc, c_dr, c_mz, c_tzv) = (o, o + 1, o + 2, o + 3, o + 4);
                // ∂tm/∂tzv_{k−1} — the only cross-step coupling.
                let tm_prev = dr * TZ_SCALE;
                // C1 flow bounds.
                out.push(c_mz, -MZ_SCALE);
                out.finish_row();
                out.push(c_mz, MZ_SCALE);
                out.finish_row();
                // C7 recirculation bounds.
                out.push(c_dr, -1.0);
                out.finish_row();
                out.push(c_dr, 1.0);
                out.finish_row();
                // C5: constant coil floor unless the passive mix is colder.
                if s.tm < min_coil {
                    if k > 0 {
                        out.push(o - 1, tm_prev);
                    }
                    out.push(c_tc, -TC_SCALE);
                    out.push(c_dr, tz_in - to);
                } else {
                    out.push(c_tc, -TC_SCALE);
                }
                out.finish_row();
                // C4: tc − tm.
                if k > 0 {
                    out.push(o - 1, -tm_prev);
                }
                out.push(c_tc, TC_SCALE);
                out.push(c_dr, -(tz_in - to));
                out.finish_row();
                // C3: tc − ts.
                out.push(c_ts, -TS_SCALE);
                out.push(c_tc, TC_SCALE);
                out.finish_row();
                // C6: supply cap.
                out.push(c_ts, TS_SCALE);
                out.finish_row();
                // C2 comfort funnel on the cabin variable.
                out.push(c_tzv, -TZ_SCALE);
                out.finish_row();
                out.push(c_tzv, TZ_SCALE);
                out.finish_row();
                // C8: ph = ch·mz·(ts − tc). C8–C10 are in hectowatts.
                out.push(c_ts, ch * mz * TS_SCALE / POWER_ROW_SCALE_W);
                out.push(c_tc, -ch * mz * TC_SCALE / POWER_ROW_SCALE_W);
                out.push(c_mz, ch * (ts - tc) * MZ_SCALE / POWER_ROW_SCALE_W);
                out.finish_row();
                // C9: pc = cc·mz·(tm − tc).
                if k > 0 {
                    out.push(o - 1, cc * mz * tm_prev / POWER_ROW_SCALE_W);
                }
                out.push(c_tc, -cc * mz * TC_SCALE / POWER_ROW_SCALE_W);
                out.push(c_dr, cc * mz * (tz_in - to) / POWER_ROW_SCALE_W);
                out.push(c_mz, cc * (s.tm - tc) * MZ_SCALE / POWER_ROW_SCALE_W);
                out.finish_row();
                // C10: pf = kf·mz².
                out.push(c_mz, 2.0 * kf * mz * MZ_SCALE / POWER_ROW_SCALE_W);
                out.finish_row();
            }
        });
        true
    }

    fn qp_structure(&self) -> Option<QpStructure> {
        Some(QpStructure {
            vars_per_block: MS_VARS_PER_STEP,
            eq_per_block: 1,
            lookback: 1,
        })
    }

    fn has_exact_derivatives(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_hvac::{CabinParams, HvacParams, HvacState};
    use ev_units::Percent;

    fn mpc() -> MpcController {
        MpcController::builder(
            Hvac::new(CabinParams::default(), HvacParams::default()),
            HvacLimits::default(),
        )
        .horizon(6)
        .prediction_dt(Seconds::new(4.0))
        .recompute_every(1)
        .build()
        .expect("valid config")
    }

    fn preview_const(pe_w: f64, to: f64, n: usize) -> Vec<PreviewSample> {
        vec![
            PreviewSample {
                motor_power: Watts::new(pe_w),
                ambient: Celsius::new(to),
                solar: Watts::new(400.0),
            };
            n
        ]
    }

    fn ctx<'a>(tz: f64, to: f64, preview: &'a [PreviewSample]) -> ControlContext<'a> {
        ControlContext {
            state: HvacState::new(Celsius::new(tz)),
            ambient: Celsius::new(to),
            solar: Watts::new(400.0),
            soc: Percent::new(90.0),
            soc_avg: 91.0,
            dt: Seconds::new(1.0),
            elapsed: Seconds::ZERO,
            preview,
        }
    }

    #[test]
    fn builder_validation() {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        assert_eq!(
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(0)
                .build()
                .unwrap_err(),
            MpcConfigError::ZeroHorizon
        );
        assert_eq!(
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .prediction_dt(Seconds::ZERO)
                .build()
                .unwrap_err(),
            MpcConfigError::NonPositivePredictionDt
        );
        assert_eq!(
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .recompute_every(0)
                .build()
                .unwrap_err(),
            MpcConfigError::ZeroRecomputeInterval
        );
        assert_eq!(
            MpcController::builder(hvac, HvacLimits::default())
                .max_sqp_iterations(0)
                .build()
                .unwrap_err(),
            MpcConfigError::ZeroSqpIterationCap
        );
    }

    #[test]
    fn produces_feasible_input_when_hot() {
        let mut c = mpc();
        let preview = preview_const(10_000.0, 35.0, 24);
        let context = ctx(26.5, 35.0, &preview);
        let input = c.control(&context);
        // Must actively cool: coil below the cabin temperature.
        assert!(input.tc.value() < 26.5, "{input:?}");
        // And satisfy the static constraint set.
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        assert!(HvacLimits::default()
            .validate(&hvac, &input, context.state, context.ambient)
            .is_ok());
    }

    #[test]
    fn heats_when_cold() {
        let mut c = mpc();
        let preview = preview_const(10_000.0, 0.0, 24);
        let context = ctx(21.5, 0.0, &preview);
        let input = c.control(&context);
        assert!(input.ts.value() > 22.0, "supply must be warm: {input:?}");
    }

    #[test]
    fn closed_loop_keeps_comfort_zone() {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mut c = MpcController::builder(hvac.clone(), HvacLimits::default())
            .horizon(6)
            .recompute_every(4)
            .build()
            .unwrap();
        let preview = preview_const(8_000.0, 35.0, 40);
        let mut state = HvacState::new(Celsius::new(26.9));
        for _ in 0..400 {
            let context = ControlContext {
                state,
                ..ctx(state.tz.value(), 35.0, &preview)
            };
            let input = c.control(&context);
            state = hvac
                .step(
                    state,
                    &input,
                    Celsius::new(35.0),
                    Watts::new(400.0),
                    Seconds::new(1.0),
                )
                .0;
        }
        let tz = state.tz.value();
        assert!((21.0..=27.0).contains(&tz), "tz {tz} left comfort zone");
        // MPC should settle close to target rather than ride the band edge
        // into discomfort.
        assert!((tz - 24.0).abs() < 3.0);
    }

    #[test]
    fn reduces_hvac_power_during_predicted_motor_peak() {
        // Two scenarios at identical current state: flat low motor power
        // vs an imminent large peak. The lifetime-aware MPC should spend
        // less HVAC power (or pre-cool harder now and back off later);
        // measure its *planned first-step* power in each.
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mk = || {
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(6)
                .recompute_every(1)
                .build()
                .unwrap()
        };
        // Peak now: 60 kW for the first 2 blocks, then low.
        let mut peak_preview = preview_const(60_000.0, 35.0, 8);
        peak_preview.extend(preview_const(2_000.0, 35.0, 16));
        // Flat low power.
        let flat_preview = preview_const(2_000.0, 35.0, 24);

        let mut flat_mpc = mk();
        let mut peak_mpc = mk();
        let context_flat = ctx(25.5, 35.0, &flat_preview);
        let context_peak = ctx(25.5, 35.0, &peak_preview);
        let flat_input = flat_mpc.control(&context_flat);
        let peak_input = peak_mpc.control(&context_peak);
        let p_flat = hvac
            .power(&flat_input, context_flat.state, context_flat.ambient)
            .total()
            .value();
        let p_peak = hvac
            .power(&peak_input, context_peak.state, context_peak.ambient)
            .total()
            .value();
        assert!(
            p_peak < p_flat + 1e-9,
            "during a motor peak the MPC should not spend more: peak {p_peak} vs flat {p_flat}"
        );
    }

    #[test]
    fn held_input_between_recomputes() {
        let mut c = MpcController::builder(
            Hvac::new(CabinParams::default(), HvacParams::default()),
            HvacLimits::default(),
        )
        .horizon(4)
        .recompute_every(3)
        .build()
        .unwrap();
        let preview = preview_const(5_000.0, 32.0, 16);
        let context = ctx(25.0, 32.0, &preview);
        let first = c.control(&context);
        let second = c.control(&context);
        // Identical context, held input: equal commands.
        assert_eq!(first, second);
    }

    #[test]
    fn empty_preview_falls_back_to_current_ambient() {
        let mut c = mpc();
        let context = ctx(25.0, 30.0, &[]);
        let input = c.control(&context);
        assert!(input.mz.value() >= 0.02 - 1e-12);
    }

    /// Central-difference reference for the two derivative tests below.
    fn fd_gradient(nlp: &MpcNlp<'_>, z: &[f64]) -> Vec<f64> {
        ev_optim::finite_diff::gradient(&|p: &[f64]| nlp.objective(p), z)
    }

    #[test]
    fn analytic_gradient_matches_central_difference() {
        let c = mpc();
        let preview = preview_const(12_000.0, 33.0, 24);
        let context = ctx(27.0, 33.0, &preview);
        let nlp = c.build_nlp(&context);
        let mut z = c.cold_start(&context);
        // Break the cold start's uniformity so cross-step couplings show.
        for (i, zi) in z.iter_mut().enumerate() {
            *zi += 0.01 * (i as f64 % 7.0 - 3.0);
        }
        let mut g = vec![0.0; nlp.num_vars()];
        nlp.gradient(&z, &mut g);
        let fd = fd_gradient(&nlp, &z);
        for i in 0..g.len() {
            let scale = fd[i].abs().max(1.0);
            assert!(
                ((g[i] - fd[i]) / scale).abs() < 1e-5,
                "grad[{i}]: analytic {} vs fd {}",
                g[i],
                fd[i]
            );
        }
    }

    #[test]
    fn analytic_ineq_jacobian_matches_central_difference() {
        // Hot case exercises the constant coil floor; the cold case below
        // drives the mix below the floor so the tm-tracking branch runs.
        for (tz0, to, dr) in [(27.0, 35.0, 0.6), (18.0, -15.0, 0.1)] {
            let c = mpc();
            let preview = preview_const(9_000.0, to, 24);
            let context = ctx(tz0, to, &preview);
            let nlp = c.build_nlp(&context);
            let mut z = c.cold_start(&context);
            for (i, zi) in z.iter_mut().enumerate() {
                *zi += 0.008 * (i as f64 % 5.0 - 2.0);
            }
            for k in 0..c.horizon() {
                z[k * VARS_PER_STEP + 2] = dr;
            }
            let jac = nlp.ineq_jacobian(&z);
            let m = nlp.num_ineq();
            let fd_rows = ev_optim::finite_diff::jacobian(
                &|p: &[f64], out: &mut [f64]| nlp.ineq_constraints(p, out),
                &z,
                m,
            );
            assert_eq!(m, fd_rows.len());
            for (r, fd_row) in fd_rows.iter().enumerate() {
                for (cidx, &f) in fd_row.iter().enumerate() {
                    let a = jac.get(r, cidx);
                    let scale = f.abs().max(1.0);
                    assert!(
                        ((a - f) / scale).abs() < 1e-5,
                        "row {r} col {cidx} (to {to}): analytic {a} vs fd {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn condensed_rows_share_one_scale() {
        // The production configuration (h8, 4-s blocks, the builder's
        // defaults) at a hot soak, a cold soak and a preconditioned hot
        // day, in both transcriptions. In watts the power caps' entries
        // reached thousands, and the largest row sets the SQP's merit
        // penalty and the QP's tolerance.
        let hp = HvacParams::default();
        let c =
            MpcController::builder(Hvac::new(CabinParams::default(), hp), HvacLimits::default())
                .build()
                .expect("valid config");
        let caps = [
            hp.max_heating_power.value(),
            hp.max_cooling_power.value(),
            hp.max_fan_power.value(),
        ];
        let (mut held, mut broken) = (0, 0);
        let mut check = |nlp: &dyn NlpProblem, z: &[f64], r: &Rollout, what: &str| {
            let mut jac = SparseMatrix::new();
            assert!(nlp.ineq_jacobian_sparse_into(z, &mut jac));
            for row in 0..jac.rows() {
                let peak = jac.row(row).1.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                assert!(
                    peak <= 100.0,
                    "{what}: {} at step {}: |J| reaches {peak:e}",
                    CONSTRAINT_ROW_LABELS[row % INEQ_PER_STEP],
                    row / INEQ_PER_STEP
                );
            }
            let mut cons = vec![0.0; nlp.num_ineq()];
            nlp.ineq_constraints(z, &mut cons);
            for (k, s) in r.iter().enumerate() {
                let (ph, pc, pf) = s.powers;
                for (i, (p, cap)) in [ph, pc, pf].into_iter().zip(caps).enumerate() {
                    let g = cons[k * INEQ_PER_STEP + 10 + i];
                    assert_eq!(
                        g <= 0.0,
                        p <= cap,
                        "{what}: {} at step {k}: row {g} vs {p} W against {cap} W",
                        CONSTRAINT_ROW_LABELS[10 + i]
                    );
                    if p <= cap {
                        held += 1;
                    } else {
                        broken += 1;
                    }
                }
            }
        };
        for (tz0, to) in [(35.0, 35.0), (-10.0, -10.0), (24.0, 35.0)] {
            let preview = preview_const(9_000.0, to, 32);
            let context = ctx(tz0, to, &preview);
            let nlp = c.build_nlp(&context);
            let ms = MsMpcNlp::new(&nlp);
            let cold = c.cold_start(&context);
            // Mid flow with the supply at its cap and the coil at its
            // floor: where the power rows are steepest at that flow.
            let mid_flow = 0.5 * (hp.min_flow.value() + hp.max_flow.value());
            let step = [
                hp.max_supply_temp.value() / TS_SCALE,
                hp.min_coil_temp.value() / TC_SCALE,
                0.35,
                mid_flow / MZ_SCALE,
            ];
            let mid = step.repeat(c.horizon());
            for z in [&cold, &mid] {
                let what = format!("cabin {tz0}, ambient {to}");
                let r = nlp.rollout(z);
                check(&nlp, z, &r, &format!("condensed, {what}"));
                // The same plan in the multiple-shooting layout, its cabin
                // variables on the condensed trajectory.
                let z_ms: Vec<f64> = z
                    .chunks(VARS_PER_STEP)
                    .zip(r.iter())
                    .flat_map(|(u, s)| u.iter().copied().chain([s.tz / TZ_SCALE]))
                    .collect();
                check(
                    &ms,
                    &z_ms,
                    &ms.rollout(&z_ms),
                    &format!("multiple shooting, {what}"),
                );
            }
        }
        assert!(held > 0 && broken > 0, "held {held}, broken {broken}");
    }

    /// Builds a multiple-shooting controller plus a perturbed iterate in
    /// the 5-per-step layout for the MS derivative tests.
    fn ms_fixture(
        tz0: f64,
        to: f64,
        dr: f64,
        pe_w: f64,
    ) -> (MpcController, Vec<PreviewSample>, Vec<f64>) {
        let c = MpcController::builder(
            Hvac::new(CabinParams::default(), HvacParams::default()),
            HvacLimits::default(),
        )
        .horizon(6)
        .prediction_dt(Seconds::new(4.0))
        .recompute_every(1)
        .multiple_shooting(true)
        .build()
        .expect("valid config");
        let preview = preview_const(pe_w, to, 24);
        let context = ctx(tz0, to, &preview);
        let mut z = c.cold_start(&context);
        assert_eq!(z.len(), c.horizon() * MS_VARS_PER_STEP);
        for (i, zi) in z.iter_mut().enumerate() {
            *zi += 0.008 * (i as f64 % 5.0 - 2.0);
        }
        for k in 0..c.horizon() {
            z[k * MS_VARS_PER_STEP + 2] = dr;
        }
        (c, preview, z)
    }

    #[test]
    fn ms_gradient_matches_central_difference() {
        let (c, preview, z) = ms_fixture(27.0, 33.0, 0.6, 12_000.0);
        let context = ctx(27.0, 33.0, &preview);
        let nlp = c.build_nlp(&context);
        let ms = MsMpcNlp::new(&nlp);
        let mut g = vec![0.0; ms.num_vars()];
        ms.gradient(&z, &mut g);
        let fd = ev_optim::finite_diff::gradient(&|p: &[f64]| ms.objective(p), &z);
        for i in 0..g.len() {
            let scale = fd[i].abs().max(1.0);
            assert!(
                ((g[i] - fd[i]) / scale).abs() < 1e-5,
                "ms grad[{i}]: analytic {} vs fd {}",
                g[i],
                fd[i]
            );
        }
    }

    #[test]
    fn ms_sparse_jacobians_match_central_difference() {
        // Hot case: constant coil floor; cold case with low recirculation
        // drives the mix below the floor (tm-tracking C5 branch).
        for (tz0, to, dr) in [(27.0, 35.0, 0.6), (18.0, -15.0, 0.1)] {
            let (c, preview, z) = ms_fixture(tz0, to, dr, 9_000.0);
            let context = ctx(tz0, to, &preview);
            let nlp = c.build_nlp(&context);
            let ms = MsMpcNlp::new(&nlp);

            let mut eq_sparse = SparseMatrix::new();
            assert!(ms.eq_jacobian_sparse_into(&z, &mut eq_sparse));
            let eq = eq_sparse.to_dense();
            let fd_eq = ev_optim::finite_diff::jacobian(
                &|p: &[f64], out: &mut [f64]| ms.eq_constraints(p, out),
                &z,
                ms.num_eq(),
            );
            for (r, fd_row) in fd_eq.iter().enumerate() {
                for (cidx, &f) in fd_row.iter().enumerate() {
                    let a = eq.get(r, cidx);
                    let scale = f.abs().max(1.0);
                    assert!(
                        ((a - f) / scale).abs() < 1e-5,
                        "eq row {r} col {cidx} (to {to}): analytic {a} vs fd {f}"
                    );
                }
            }

            let mut in_sparse = SparseMatrix::new();
            assert!(ms.ineq_jacobian_sparse_into(&z, &mut in_sparse));
            let jin = in_sparse.to_dense();
            let fd_in = ev_optim::finite_diff::jacobian(
                &|p: &[f64], out: &mut [f64]| ms.ineq_constraints(p, out),
                &z,
                ms.num_ineq(),
            );
            for (r, fd_row) in fd_in.iter().enumerate() {
                for (cidx, &f) in fd_row.iter().enumerate() {
                    let a = jin.get(r, cidx);
                    let scale = f.abs().max(1.0);
                    assert!(
                        ((a - f) / scale).abs() < 1e-5,
                        "ineq row {r} col {cidx} (to {to}): analytic {a} vs fd {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn ms_jacobian_rows_fit_declared_structure() {
        let (c, preview, z) = ms_fixture(18.0, -15.0, 0.1, 9_000.0);
        let context = ctx(18.0, -15.0, &preview);
        let nlp = c.build_nlp(&context);
        let ms = MsMpcNlp::new(&nlp);
        let st = ms.qp_structure().expect("MS declares a structure");
        assert_eq!(
            (st.vars_per_block, st.eq_per_block, st.lookback),
            (MS_VARS_PER_STEP, 1, 1)
        );
        let mut jac = SparseMatrix::new();
        assert!(ms.ineq_jacobian_sparse_into(&z, &mut jac));
        for row in 0..jac.rows() {
            let (cols, _) = jac.row(row);
            if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                assert!(
                    last / st.vars_per_block <= first / st.vars_per_block + st.lookback,
                    "ineq row {row} spans more than {} blocks",
                    st.lookback + 1
                );
            }
        }
        let mut eq = SparseMatrix::new();
        assert!(ms.eq_jacobian_sparse_into(&z, &mut eq));
        for row in 0..eq.rows() {
            let (cols, _) = eq.row(row);
            for &cidx in cols {
                let kc = cidx / st.vars_per_block;
                assert!(
                    kc <= row && kc + st.lookback >= row,
                    "eq row {row} touches block {kc}"
                );
            }
        }
    }

    #[test]
    fn ms_closed_loop_keeps_comfort_zone() {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mut c = MpcController::builder(hvac.clone(), HvacLimits::default())
            .horizon(6)
            .recompute_every(4)
            .multiple_shooting(true)
            .build()
            .unwrap();
        let preview = preview_const(8_000.0, 35.0, 40);
        let mut state = HvacState::new(Celsius::new(26.9));
        for _ in 0..400 {
            let context = ControlContext {
                state,
                ..ctx(state.tz.value(), 35.0, &preview)
            };
            let input = c.control(&context);
            state = hvac
                .step(
                    state,
                    &input,
                    Celsius::new(35.0),
                    Watts::new(400.0),
                    Seconds::new(1.0),
                )
                .0;
        }
        let tz = state.tz.value();
        assert!((21.0..=27.0).contains(&tz), "tz {tz} left comfort zone");
        assert!((tz - 24.0).abs() < 3.0);
        let d = c.diagnostics();
        assert!(d.converged > 0, "{d:?}");
        assert_eq!(d.solver_errors, 0, "{d:?}");
    }

    #[test]
    fn ms_solution_cost_matches_condensed() {
        // Both transcriptions optimize the same trajectory: extracting the
        // HVAC inputs from the multiple-shooting solution and pricing them
        // with the condensed objective must land within a few percent of
        // the condensed solution's cost.
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mk = |ms| {
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(6)
                .recompute_every(1)
                .multiple_shooting(ms)
                .build()
                .unwrap()
        };
        let preview = preview_const(10_000.0, 35.0, 24);
        let context = ctx(26.5, 35.0, &preview);
        let mut dense = mk(false);
        let mut banded = mk(true);
        dense.control(&context);
        banded.control(&context);
        let z_dense = dense.warm_start.clone().expect("condensed solve succeeded");
        let z_ms = banded.warm_start.clone().expect("ms solve succeeded");
        assert_eq!(z_ms.len(), banded.horizon() * MS_VARS_PER_STEP);
        let mut z4 = Vec::with_capacity(banded.horizon() * VARS_PER_STEP);
        for k in 0..banded.horizon() {
            let o = k * MS_VARS_PER_STEP;
            z4.extend_from_slice(&z_ms[o..o + VARS_PER_STEP]);
        }
        let nlp = dense.build_nlp(&context);
        let f_dense = nlp.objective(&z_dense);
        let f_ms = nlp.objective(&z4);
        let scale = f_dense.abs().max(1.0);
        assert!(
            ((f_ms - f_dense) / scale).abs() < 0.05,
            "condensed cost {f_dense} vs ms cost {f_ms}"
        );
    }

    #[test]
    fn nlp_advertises_exact_derivatives() {
        let c = mpc();
        let preview = preview_const(5_000.0, 30.0, 24);
        let context = ctx(25.0, 30.0, &preview);
        assert!(c.build_nlp(&context).has_exact_derivatives());
    }

    #[test]
    fn warm_start_shifts_by_elapsed_simulated_blocks() {
        let preview = preview_const(5_000.0, 30.0, 24);
        // Context dt is 1 s. Re-solving every simulation step advances a
        // quarter of a 4 s prediction block, which rounds to no shift at
        // all; the old fixed one-block shift threw away a still-valid
        // leading step.
        let context = ctx(25.0, 30.0, &preview);
        assert_eq!(mpc().elapsed_blocks(&context), 0);
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mk = |every: usize| {
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(4)
                .prediction_dt(Seconds::new(4.0))
                .recompute_every(every)
                .build()
                .unwrap()
        };
        assert_eq!(mk(4).elapsed_blocks(&context), 1);
        assert_eq!(mk(8).elapsed_blocks(&context), 2);
        // Longer than the horizon: clamp rather than overrun the slice.
        assert_eq!(mk(64).elapsed_blocks(&context), 4);

        let c = mk(8);
        let prev: Vec<f64> = (0..4 * VARS_PER_STEP).map(|i| i as f64).collect();
        assert_eq!(c.shifted_warm_start(&prev, 0), prev);
        let z = c.shifted_warm_start(&prev, 2);
        assert_eq!(z.len(), prev.len());
        assert_eq!(z[..2 * VARS_PER_STEP], prev[2 * VARS_PER_STEP..]);
        // Tail filled by repeating the last step.
        assert_eq!(
            z[2 * VARS_PER_STEP..3 * VARS_PER_STEP],
            prev[3 * VARS_PER_STEP..]
        );
        assert_eq!(z[3 * VARS_PER_STEP..], prev[3 * VARS_PER_STEP..]);
        let all = c.shifted_warm_start(&prev, 4);
        assert_eq!(all.len(), prev.len());
        assert_eq!(all[..VARS_PER_STEP], prev[3 * VARS_PER_STEP..]);
    }

    #[test]
    fn reset_session_restores_fresh_controller_behavior() {
        // A reused session slot must solve bitwise identically to a
        // freshly built controller: no warm start, multiplier cache or
        // cadence phase may leak from the previous vehicle.
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mk = || {
            MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(6)
                .recompute_every(2)
                .build()
                .unwrap()
        };
        let preview = preview_const(8_000.0, 35.0, 24);
        let drive = |c: &mut MpcController| -> Vec<HvacInput> {
            (0..5)
                .map(|step| c.control(&ctx(26.0 - 0.1 * step as f64, 35.0, &preview)))
                .collect()
        };
        let mut fresh = mk();
        let fresh_inputs = drive(&mut fresh);

        let mut reused = mk();
        // A previous "vehicle" leaves a warm start, a held input and an
        // odd cadence phase behind.
        for step in 0..3 {
            let _ = reused.control(&ctx(28.0 + 0.2 * step as f64, 40.0, &preview));
        }
        assert!(reused.warm_start.is_some(), "previous session warmed up");
        reused.reset_session();
        assert!(reused.warm_start.is_none());
        assert!(reused.cached_input.is_none());
        assert_eq!(reused.steps_since_solve, 0);
        assert_eq!(drive(&mut reused), fresh_inputs);
        // Diagnostics survive the reset (cumulative observability), and
        // the first post-reset solve is a cold start.
        let d = reused.diagnostics();
        assert_eq!(d.warm_start_misses, 2, "one per session's first solve");
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let registry = Registry::enabled();
        let mk = |reg: Option<&Registry>| {
            let b = MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(6)
                .recompute_every(2);
            let b = match reg {
                Some(r) => b.telemetry(r),
                None => b,
            };
            b.build().unwrap()
        };
        let mut plain = mk(None);
        let mut instrumented = mk(Some(&registry));
        let preview = preview_const(8_000.0, 35.0, 24);
        for step in 0..6 {
            let context = ctx(26.0 - 0.1 * step as f64, 35.0, &preview);
            let a = plain.control(&context);
            let b = instrumented.control(&context);
            assert_eq!(a, b, "telemetry must not perturb the command");
        }
        // Both controllers expose identical always-on diagnostics.
        assert_eq!(plain.diagnostics(), instrumented.diagnostics());
        let d = instrumented.diagnostics();
        assert_eq!(d.solves, 3, "6 steps at recompute_every=2");
        assert_eq!(d.warm_start_misses, 1);
        assert_eq!(d.warm_start_hits, 2);
        assert!(d.sqp_iterations > 0);
        assert!(plain.solver_diagnostics().is_some());

        // The registry saw the same story, plus timing histograms and
        // the registry-only rollout-cache counters.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("mpc_solves_total"), Some(3));
        assert_eq!(snap.counter("mpc_warm_start_hits_total"), Some(2));
        assert!(
            snap.counter("mpc_rollout_cache_hits_total").unwrap_or(0) > 0,
            "solver re-evaluates per iterate"
        );
        assert_eq!(snap.histogram("mpc_control_step_seconds").unwrap().count, 6);
        assert_eq!(snap.histogram("mpc_solve_seconds").unwrap().count, 3);
        assert_eq!(
            snap.histogram("mpc_sqp_iterations").unwrap().sum,
            d.sqp_iterations as f64
        );
        assert!(snap.histogram("sqp_qp_seconds").unwrap().count >= d.sqp_iterations);

        // The rollout-cache counters are registry-only, so the plain
        // controller cannot report them; compare its solve against the
        // metrics-observed one on the NLP's own counters instead.
        let context = ctx(26.0, 35.0, &preview);
        let z0 = plain.cold_start(&context);
        let plain_nlp = plain.build_nlp(&context);
        let observed_nlp = instrumented.build_nlp(&context);
        let a = plain.solver.solve(&plain_nlp, &z0).unwrap();
        let observer = SolveObserver {
            metrics: Some(&instrumented.metrics),
            final_active_set: None,
        };
        let b = instrumented
            .solver
            .solve_observed(&observed_nlp, &z0, observer)
            .unwrap();
        assert_eq!(a.z, b.z);
        assert!(
            plain_nlp.cache.hits.get() > 0,
            "solver re-evaluates per iterate"
        );
        assert_eq!(
            (plain_nlp.cache.hits.get(), plain_nlp.cache.misses.get()),
            (
                observed_nlp.cache.hits.get(),
                observed_nlp.cache.misses.get()
            ),
            "telemetry must not add NLP evaluations"
        );
    }

    #[test]
    fn flight_recorder_captures_decisions_without_perturbing() {
        use ev_telemetry::FlightRecord;
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let recorder = FlightRecorder::enabled(64);
        // Each controller records into its own registry, which is where
        // the rollout-cache counters live.
        let (plain_registry, recorded_registry) = (Registry::enabled(), Registry::enabled());
        let mk = |reg: &Registry, rec: Option<&FlightRecorder>| {
            let b = MpcController::builder(hvac.clone(), HvacLimits::default())
                .horizon(6)
                .recompute_every(2)
                .telemetry(reg);
            let b = match rec {
                Some(r) => b.flight_recorder(r),
                None => b,
            };
            b.build().unwrap()
        };
        let mut plain = mk(&plain_registry, None);
        let mut recorded = mk(&recorded_registry, Some(&recorder));
        let preview = preview_const(8_000.0, 35.0, 24);
        for step in 0..6 {
            let context = ctx(26.0 - 0.1 * step as f64, 35.0, &preview);
            let a = plain.control(&context);
            let b = recorded.control(&context);
            assert_eq!(a, b, "recording must not perturb the command");
        }
        assert_eq!(plain.diagnostics(), recorded.diagnostics());
        // The capture path re-rolls outside the rollout cache, so it must
        // not touch the cache counters.
        let (plain_snap, recorded_snap) = (plain_registry.snapshot(), recorded_registry.snapshot());
        for name in [
            "mpc_rollout_cache_hits_total",
            "mpc_rollout_cache_misses_total",
            "mpc_warm_start_invalidated_total",
        ] {
            assert_eq!(
                plain_snap.counter(name),
                recorded_snap.counter(name),
                "{name}"
            );
        }
        assert!(
            plain_snap
                .counter("mpc_rollout_cache_hits_total")
                .unwrap_or(0)
                > 0
        );

        let records = recorder.records();
        let decisions: Vec<&DecisionRecord> = records
            .iter()
            .filter_map(|r| match r {
                FlightRecord::Decision(d) => Some(d.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 3, "6 steps at recompute_every=2");
        let first = decisions[0];
        assert_eq!(first.warm_start, WarmStart::Cold);
        assert_eq!(first.step, 0);
        assert_eq!(first.outcome, SolveOutcome::Converged);
        assert_eq!(first.motor_preview_w.len(), 6);
        assert!(first.motor_preview_w.iter().all(|&p| p == 8_000.0));
        assert_eq!(first.plan.len(), 6);
        assert_eq!(first.constraint_rows, INEQ_PER_STEP);
        assert_eq!(first.active_masks.len(), 6);
        // Later solves warm-start from the shifted previous plan.
        assert!(decisions[1..]
            .iter()
            .all(|d| matches!(d.warm_start, WarmStart::Shifted { .. })));
        assert_eq!(decisions[1].step, 2);

        // Attribution is internally consistent: shares sum to totals and
        // the planned schedule actually spends HVAC power (hot cabin).
        let a = first.attribution.expect("converged solve has attribution");
        assert!((a.battery_energy_wh - (a.motor_energy_wh + a.hvac_energy_wh)).abs() < 1e-9);
        assert!(
            (a.soc_drop_total_pct - (a.soc_drop_motor_pct + a.soc_drop_hvac_pct)).abs() < 1e-12
        );
        assert!(a.hvac_energy_wh > 0.0, "cooling a 26 °C cabin costs energy");
        assert!(a.soc_drop_hvac_pct > 0.0);
        assert!(a.soc_drop_motor_pct > 0.0);
        assert!(a.eff_charge_total_as > 0.0);
        assert!(a.cost_comfort > 0.0);
        // The plan's first step matches the command the controller gave
        // (before limit clamping the decoded values coincide here).
        assert!(first.plan[0].hvac_power_w > 0.0);
    }

    #[test]
    fn prediction_replays_through_the_plant_step() {
        // The rollout restates `Hvac::step`'s trapezoidal cabin map
        // (Eq. 18–19) inline: replaying the recorded plan through the
        // plant at the prediction period must land on every predicted
        // cabin temperature.
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let recorder = FlightRecorder::enabled(4);
        let dt = Seconds::new(4.0);
        let mut c = MpcController::builder(hvac.clone(), HvacLimits::default())
            .horizon(6)
            .prediction_dt(dt)
            .flight_recorder(&recorder)
            .build()
            .unwrap();
        let preview = preview_const(8_000.0, 35.0, 24);
        c.control(&ctx(27.5, 35.0, &preview));
        let records = recorder.records();
        let plan = records
            .iter()
            .find_map(|r| match r {
                ev_telemetry::FlightRecord::Decision(d) => Some(&d.plan),
                _ => None,
            })
            .expect("decision recorded");
        assert_eq!(plan.len(), 6);
        let mut state = HvacState::new(Celsius::new(27.5));
        for (k, step) in plan.iter().enumerate() {
            let input = HvacInput {
                ts: Celsius::new(step.ts_c),
                tc: Celsius::new(step.tc_c),
                dr: step.recirculation,
                mz: KgPerSecond::new(step.flow_kg_s),
            };
            state = hvac
                .step(state, &input, Celsius::new(35.0), Watts::new(400.0), dt)
                .0;
            let gap = (state.tz.value() - step.cabin_c).abs();
            assert!(gap < 1e-9, "step {k}: plant and plan differ by {gap:e} K");
        }
    }

    #[test]
    fn forced_iteration_cap_records_max_iter_and_auto_dumps() {
        let dir = std::env::temp_dir().join(format!(
            "ev-mpc-autodump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dump = dir.join("nested").join("postmortem.jsonl");
        let recorder = FlightRecorder::enabled(32).with_auto_dump(&dump);
        let mut c = MpcController::builder(
            Hvac::new(CabinParams::default(), HvacParams::default()),
            HvacLimits::default(),
        )
        .horizon(6)
        .recompute_every(1)
        .max_sqp_iterations(1)
        .flight_recorder(&recorder)
        .build()
        .unwrap();
        let preview = preview_const(10_000.0, 35.0, 24);
        let context = ctx(26.5, 35.0, &preview);
        let input = c.control(&context);
        // The capped solve still yields a usable (clamped) input...
        assert!(input.mz.value() > 0.0);
        // ...but reports MaxIterations and dumps the post-mortem, creating
        // the missing parent directories on the way.
        assert_eq!(c.diagnostics().max_iterations, 1);
        let text = std::fs::read_to_string(&dump).expect("auto-dump written");
        assert!(text.contains("\"kind\":\"meta\""));
        assert!(text.contains("mpc solve max_iterations at step 0"));
        assert!(text.contains("\"outcome\":\"max_iterations\""));
        assert!(recorder.last_dump_error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solver_error_records_error_decision() {
        let recorder = FlightRecorder::enabled(16);
        let mut c = MpcController::builder(
            Hvac::new(CabinParams::default(), HvacParams::default()),
            HvacLimits::default(),
        )
        .horizon(6)
        .recompute_every(1)
        .flight_recorder(&recorder)
        .build()
        .unwrap();
        let preview = preview_const(5_000.0, 30.0, 24);
        // Healthy solve first so the error path can fall back to the
        // cached input instead of clamping an idle input at a NaN state.
        c.control(&ctx(25.0, 30.0, &preview));
        c.control(&ctx(f64::NAN, 30.0, &preview));
        let records = recorder.records();
        let d = records
            .iter()
            .rev()
            .find_map(|r| match r {
                ev_telemetry::FlightRecord::Decision(d) => Some(d.as_ref()),
                _ => None,
            })
            .expect("decision recorded");
        assert_eq!(d.outcome, SolveOutcome::Error);
        assert!(d.plan.is_empty());
        assert!(d.attribution.is_none());
        assert!(d.objective.is_nan());
    }

    #[test]
    fn solver_failure_invalidates_warm_start() {
        let mut c = mpc();
        let preview = preview_const(5_000.0, 30.0, 24);
        let good = ctx(25.0, 30.0, &preview);
        c.control(&good);
        assert!(c.warm_start.is_some(), "successful solve stores a plan");
        // A non-finite cabin state makes the objective non-finite at z0,
        // which the solver rejects outright. The stale plan must go with
        // it — re-shifting it on later solves would anchor the warm start
        // ever further in the past.
        let bad = ctx(f64::NAN, 30.0, &preview);
        c.control(&bad);
        assert!(c.warm_start.is_none(), "failed solve must drop the plan");
        // And the controller recovers on the next healthy context.
        let input = c.control(&good);
        assert!(input.mz.value() > 0.0);
        assert!(c.warm_start.is_some());
    }
}
