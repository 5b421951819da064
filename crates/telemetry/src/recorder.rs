//! The MPC flight recorder: a bounded ring buffer of per-step decision
//! records that turns a solver failure from a counter into a replayable
//! artifact.
//!
//! A [`FlightRecorder`] is a cheap cloneable handle, like
//! [`Registry`](crate::Registry): one minted with
//! [`FlightRecorder::disabled`] (the `Default`) owns no buffer at all and
//! every call on it is a single branch, so the un-instrumented control
//! path pays nothing. An enabled recorder keeps the most recent
//! `capacity` records — [`DecisionRecord`]s pushed by the controller and
//! [`StepSummary`]s pushed by the plant-side observer — evicting the
//! oldest first, so a dump after a failure always holds the *last N*
//! records leading up to it.
//!
//! Dumps are JSON Lines: a `{"kind":"meta","version":2, ...}` header
//! with the capacity, record count, eviction count and dump reason,
//! followed by one self-describing object per record.
//! [`FlightRecorder::dump_to`] creates missing parent directories, so a
//! dump can never fail on a bare `io::Error` for a path like
//! `target/postmortem/cell.jsonl`. [`parse_jsonl`] reads a dump back
//! into the records it was written from, every float to the bit: finite
//! floats are written with `{:?}` and non-finite ones as the strings
//! `"NaN"`, `"+Inf"` and `"-Inf"`.
//!
//! Recording is strictly observation: nothing in this module feeds back
//! into the controller or the solver, so an enabled recorder leaves the
//! simulated trajectory bit-identical to a disabled one.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::export::write_text;
use crate::json::{number, string, Reader};

/// The dump format [`FlightRecorder::to_jsonl`] writes and
/// [`parse_jsonl`] reads. Version 1 wrote every non-finite float as
/// `null`.
const DUMP_VERSION: u64 = 2;

/// How one MPC solve ended, as recorded in a [`DecisionRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The SQP solver met its KKT tolerance.
    Converged,
    /// The solver ran out of major iterations.
    MaxIterations,
    /// The line search could not make progress.
    LineSearchStalled,
    /// The solve failed structurally (non-finite data); the controller
    /// fell back to its previous input.
    Error,
}

impl SolveOutcome {
    const ALL: [Self; 4] = [
        Self::Converged,
        Self::MaxIterations,
        Self::LineSearchStalled,
        Self::Error,
    ];

    /// Stable snake_case tag used in the JSONL schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Converged => "converged",
            Self::MaxIterations => "max_iterations",
            Self::LineSearchStalled => "line_search_stalled",
            Self::Error => "error",
        }
    }

    /// Whether this outcome should trigger an automatic post-mortem dump
    /// (structural errors and iteration-cap exhaustion; a stalled line
    /// search still returns the best feasible iterate).
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, Self::MaxIterations | Self::Error)
    }
}

/// Where the solve's starting point came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// No previous plan existed (first solve, or the previous one was
    /// invalidated by a solver error): the heuristic cold start was used.
    Cold,
    /// The previous plan, shifted forward by `blocks` prediction blocks.
    Shifted {
        /// How many leading blocks were dropped as already executed.
        blocks: usize,
    },
}

/// One planned HVAC step of the horizon, decoded from the solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedStep {
    /// Supply-air temperature (°C).
    pub ts_c: f64,
    /// Cooling-coil temperature (°C).
    pub tc_c: f64,
    /// Recirculation ratio (0–1).
    pub recirculation: f64,
    /// Supply mass flow (kg/s).
    pub flow_kg_s: f64,
    /// Total predicted HVAC power of the step (W).
    pub hvac_power_w: f64,
    /// Predicted cabin temperature after the step (°C).
    pub cabin_c: f64,
    /// Predicted SoC after the step (%).
    pub soc_pct: f64,
}

/// Per-solve attribution: how the predicted battery-power, SoC-deviation
/// and SoH-fade consequences of the plan split between motor demand
/// (incl. accessories) and the HVAC action. Computed by re-rolling the
/// horizon (Eq. 13–16) with the HVAC mass flow zeroed, so the HVAC share
/// includes the superlinear Peukert coupling of concurrent peaks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Attribution {
    /// Predicted battery energy over the horizon (Wh).
    pub battery_energy_wh: f64,
    /// Motor + accessory share of that energy (Wh).
    pub motor_energy_wh: f64,
    /// HVAC share of that energy (Wh).
    pub hvac_energy_wh: f64,
    /// Predicted SoC drop over the horizon (%).
    pub soc_drop_total_pct: f64,
    /// SoC drop of the motor-only rollout (%).
    pub soc_drop_motor_pct: f64,
    /// SoC drop attributable to the HVAC plan, Peukert coupling included
    /// (`total − motor`, %).
    pub soc_drop_hvac_pct: f64,
    /// Effective (Peukert-inflated) charge drawn over the horizon (A·s) —
    /// the Eq. 15–16 fade driver.
    pub eff_charge_total_as: f64,
    /// Effective charge of the motor-only rollout (A·s).
    pub eff_charge_motor_as: f64,
    /// Effective charge attributable to the HVAC plan (A·s).
    pub eff_charge_hvac_as: f64,
    /// The Eq. 21 `w1·ΣP_hvac` cost term at the plan.
    pub cost_hvac_power: f64,
    /// The Eq. 21 `w2·Σ(SoC − SoC_avg)²` cost term at the plan.
    pub cost_soc_deviation: f64,
    /// The Eq. 21 `w3·Σ(Tz − T_target)²` cost term at the plan.
    pub cost_comfort: f64,
}

/// One MPC solve, recorded at the moment the controller committed to it.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Simulation step the solve ran at.
    pub step: u64,
    /// Simulated time of the solve (s).
    pub t_s: f64,
    /// How the solve ended.
    pub outcome: SolveOutcome,
    /// Major SQP iterations spent.
    pub iterations: usize,
    /// Objective value at the returned iterate (NaN on [`SolveOutcome::Error`]).
    pub objective: f64,
    /// L1 constraint violation at the returned iterate, summed over rows
    /// in their own units: kg/s (C1), recirculation fraction (C7),
    /// kelvins (C2–C6) and hectowatts (C8–C10; watts when the controller
    /// runs the multiple-shooting transcription).
    pub constraint_violation: f64,
    /// Provenance of the starting point.
    pub warm_start: WarmStart,
    /// Pack SoC when the solve ran (%).
    pub soc_pct: f64,
    /// Cabin temperature when the solve ran (°C).
    pub cabin_c: f64,
    /// The predicted motor-power horizon the solve planned against
    /// (block-averaged `Pe`, W, one entry per prediction block).
    pub motor_preview_w: Vec<f64>,
    /// The planned HVAC schedule (empty on [`SolveOutcome::Error`]).
    pub plan: Vec<PlannedStep>,
    /// Inequality-constraint rows per horizon step (the paper's 13-row
    /// C1–C10 layout); the width of each mask in `active_masks`.
    pub constraint_rows: usize,
    /// Per-horizon-step activation bitset of the final SQP iteration's
    /// active set: bit `i` of `active_masks[k]` is the `i`-th constraint
    /// row of block `k`. Empty when no iteration record was captured.
    pub active_masks: Vec<u32>,
    /// Attribution decomposition (absent on [`SolveOutcome::Error`]).
    pub attribution: Option<Attribution>,
}

/// One realized plant step, recorded by the step-observer adapter so a
/// post-mortem interleaves what the controller planned with what the
/// plant actually did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSummary {
    /// Simulation step index.
    pub step: u64,
    /// Simulated time (s).
    pub t_s: f64,
    /// Motor electrical power (W).
    pub motor_power_w: f64,
    /// Total HVAC power actually drawn (W).
    pub hvac_power_w: f64,
    /// BMS-metered battery power (W).
    pub battery_power_w: f64,
    /// Pack SoC (%).
    pub soc_pct: f64,
    /// Cabin temperature (°C).
    pub cabin_c: f64,
    /// Ambient temperature (°C).
    pub ambient_c: f64,
}

/// One entry of the flight-recorder ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// An MPC solve.
    Decision(Box<DecisionRecord>),
    /// A realized plant step.
    Step(StepSummary),
}

#[derive(Debug)]
struct RecorderInner {
    capacity: usize,
    auto_dump: Option<PathBuf>,
    records: VecDeque<FlightRecord>,
    /// Records evicted from the ring since creation.
    dropped: u64,
    /// Failure post-mortems successfully written by the auto-dump path.
    auto_dumps: u64,
    /// The last io error an automatic dump hit (dumps from the control
    /// loop cannot propagate errors).
    last_dump_error: Option<String>,
}

/// A bounded flight recorder handle. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<RecorderInner>>>,
}

impl FlightRecorder {
    /// Default ring-buffer capacity: enough for ~1 min of 1 Hz plant
    /// steps plus their solves, small enough that an always-on recorder
    /// stays in cache.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An inert recorder: every call on it is a no-op branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder keeping the most recent `capacity` records
    /// (clamped to at least 1).
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(RecorderInner {
                capacity: capacity.max(1),
                auto_dump: None,
                records: VecDeque::with_capacity(capacity.clamp(1, 1024)),
                dropped: 0,
                auto_dumps: 0,
                last_dump_error: None,
            }))),
        }
    }

    /// Enabled at [`Self::DEFAULT_CAPACITY`] or disabled, from a flag.
    #[must_use]
    pub fn with_enabled(enabled: bool) -> Self {
        if enabled {
            Self::enabled(Self::DEFAULT_CAPACITY)
        } else {
            Self::disabled()
        }
    }

    /// Whether records pushed into this handle are kept anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Configures the path failure decisions are automatically dumped to
    /// (see [`SolveOutcome::is_failure`]). Each failure overwrites the
    /// previous dump, so the file always describes the latest failure.
    /// No-op on a disabled recorder.
    #[must_use]
    pub fn with_auto_dump(self, path: impl Into<PathBuf>) -> Self {
        if let Some(inner) = &self.inner {
            inner.lock().expect("recorder poisoned").auto_dump = Some(path.into());
        }
        self
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().expect("recorder poisoned").records.len())
    }

    /// Whether the ring holds no records (always true when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().expect("recorder poisoned").dropped)
    }

    /// How many failure post-mortems the auto-dump path has successfully
    /// written so far. Callers that also write an end-of-run dump to the
    /// same path should skip it when this is non-zero, or they would
    /// overwrite the preserved failure window.
    #[must_use]
    pub fn auto_dumps(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.lock().expect("recorder poisoned").auto_dumps)
    }

    /// The io error message of the most recent failed automatic dump.
    #[must_use]
    pub fn last_dump_error(&self) -> Option<String> {
        self.inner
            .as_ref()
            .and_then(|i| i.lock().expect("recorder poisoned").last_dump_error.clone())
    }

    fn push(&self, record: FlightRecord) {
        let Some(inner) = &self.inner else { return };
        let mut g = inner.lock().expect("recorder poisoned");
        if g.records.len() == g.capacity {
            g.records.pop_front();
            g.dropped += 1;
        }
        g.records.push_back(record);
    }

    /// Pushes a solve record; a failure outcome with an auto-dump path
    /// configured also writes the post-mortem immediately.
    pub fn record_decision(&self, decision: DecisionRecord) {
        if self.inner.is_none() {
            return;
        }
        let failure = decision.outcome.is_failure();
        let reason = failure.then(|| {
            format!(
                "mpc solve {} at step {} (t = {:.1} s)",
                decision.outcome.as_str(),
                decision.step,
                decision.t_s
            )
        });
        self.push(FlightRecord::Decision(Box::new(decision)));
        if let Some(reason) = reason {
            let path = self
                .inner
                .as_ref()
                .and_then(|i| i.lock().expect("recorder poisoned").auto_dump.clone());
            if let Some(path) = path {
                let result = self.dump_to(&path, &reason);
                if let Some(inner) = &self.inner {
                    let mut g = inner.lock().expect("recorder poisoned");
                    match result {
                        Ok(()) => {
                            g.auto_dumps += 1;
                            g.last_dump_error = None;
                        }
                        Err(e) => g.last_dump_error = Some(e.to_string()),
                    }
                }
            }
        }
    }

    /// Pushes a realized plant step.
    pub fn record_step(&self, step: StepSummary) {
        if self.inner.is_none() {
            return;
        }
        self.push(FlightRecord::Step(step));
    }

    /// A snapshot of the ring contents, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<FlightRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.lock()
                .expect("recorder poisoned")
                .records
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Renders the ring as JSON Lines: a meta header, then one object
    /// per record, oldest first. Empty string for a disabled recorder.
    /// [`parse_jsonl`] reads it back.
    #[must_use]
    pub fn to_jsonl(&self, reason: &str) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let g = inner.lock().expect("recorder poisoned");
        let mut out = format!(
            "{{\"kind\":\"meta\",\"version\":{DUMP_VERSION},\"capacity\":{},\"records\":{},\"dropped\":{},\"reason\":{}}}\n",
            g.capacity,
            g.records.len(),
            g.dropped,
            string(reason)
        );
        for record in &g.records {
            out.push_str(&record_to_json(record));
            out.push('\n');
        }
        out
    }

    /// Writes the ring as JSONL to `path`, creating missing parent
    /// directories. No-op (Ok) for a disabled recorder.
    ///
    /// # Errors
    ///
    /// Propagates io errors from directory creation or the file write.
    pub fn dump_to(&self, path: &Path, reason: &str) -> io::Result<()> {
        if self.inner.is_none() {
            return Ok(());
        }
        write_text(path, &self.to_jsonl(reason))
    }
}

fn number_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().copied().map(number).collect();
    format!("[{}]", items.join(","))
}

fn warm_start_json(w: WarmStart) -> String {
    match w {
        WarmStart::Cold => "{\"kind\":\"cold\"}".to_owned(),
        WarmStart::Shifted { blocks } => {
            format!("{{\"kind\":\"shifted\",\"blocks\":{blocks}}}")
        }
    }
}

fn attribution_json(a: &Attribution) -> String {
    format!(
        "{{\"battery_energy_wh\":{},\"motor_energy_wh\":{},\"hvac_energy_wh\":{},\
         \"soc_drop_total_pct\":{},\"soc_drop_motor_pct\":{},\"soc_drop_hvac_pct\":{},\
         \"eff_charge_total_as\":{},\"eff_charge_motor_as\":{},\"eff_charge_hvac_as\":{},\
         \"cost_hvac_power\":{},\"cost_soc_deviation\":{},\"cost_comfort\":{}}}",
        number(a.battery_energy_wh),
        number(a.motor_energy_wh),
        number(a.hvac_energy_wh),
        number(a.soc_drop_total_pct),
        number(a.soc_drop_motor_pct),
        number(a.soc_drop_hvac_pct),
        number(a.eff_charge_total_as),
        number(a.eff_charge_motor_as),
        number(a.eff_charge_hvac_as),
        number(a.cost_hvac_power),
        number(a.cost_soc_deviation),
        number(a.cost_comfort),
    )
}

fn planned_step_json(p: &PlannedStep) -> String {
    format!(
        "{{\"ts_c\":{},\"tc_c\":{},\"recirculation\":{},\"flow_kg_s\":{},\
         \"hvac_power_w\":{},\"cabin_c\":{},\"soc_pct\":{}}}",
        number(p.ts_c),
        number(p.tc_c),
        number(p.recirculation),
        number(p.flow_kg_s),
        number(p.hvac_power_w),
        number(p.cabin_c),
        number(p.soc_pct),
    )
}

fn record_to_json(record: &FlightRecord) -> String {
    match record {
        FlightRecord::Decision(d) => {
            let plan: Vec<String> = d.plan.iter().map(planned_step_json).collect();
            let masks: Vec<String> = d.active_masks.iter().map(u32::to_string).collect();
            format!(
                "{{\"kind\":\"decision\",\"step\":{},\"t_s\":{},\"outcome\":{},\
                 \"iterations\":{},\"objective\":{},\"constraint_violation\":{},\
                 \"warm_start\":{},\"soc_pct\":{},\"cabin_c\":{},\"motor_preview_w\":{},\
                 \"plan\":[{}],\"constraint_rows\":{},\"active_masks\":[{}],\"attribution\":{}}}",
                d.step,
                number(d.t_s),
                string(d.outcome.as_str()),
                d.iterations,
                number(d.objective),
                number(d.constraint_violation),
                warm_start_json(d.warm_start),
                number(d.soc_pct),
                number(d.cabin_c),
                number_array(&d.motor_preview_w),
                plan.join(","),
                d.constraint_rows,
                masks.join(","),
                d.attribution
                    .as_ref()
                    .map_or_else(|| "null".to_owned(), attribution_json),
            )
        }
        FlightRecord::Step(s) => format!(
            "{{\"kind\":\"step\",\"step\":{},\"t_s\":{},\"motor_power_w\":{},\
             \"hvac_power_w\":{},\"battery_power_w\":{},\"soc_pct\":{},\"cabin_c\":{},\
             \"ambient_c\":{}}}",
            s.step,
            number(s.t_s),
            number(s.motor_power_w),
            number(s.hvac_power_w),
            number(s.battery_power_w),
            number(s.soc_pct),
            number(s.cabin_c),
            number(s.ambient_c),
        ),
    }
}

/// A flight-recorder dump read back by [`parse_jsonl`]: the meta header's
/// fields and the records, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The ring's capacity when the dump was written.
    pub capacity: usize,
    /// Records the ring had evicted by then.
    pub dropped: u64,
    /// Why the dump was written.
    pub reason: String,
    /// The records the ring held, oldest first.
    pub records: Vec<FlightRecord>,
}

/// Reads a dump written by [`FlightRecorder::to_jsonl`] back into the
/// records it was written from, every float to the bit (any NaN reads
/// back as NaN). Blank lines are skipped.
///
/// # Errors
///
/// Returns a message, naming the line where there is one, when the
/// dump is empty, its first line is not a version-2 meta header, a line
/// is not a record (an unknown kind, solve outcome or warm-start kind, a
/// missing or mistyped field), a decision declares more constraint rows
/// than a 32-bit mask holds or its active-set masks set bits past its
/// constraint rows or cover a different number of steps than its plan,
/// or the header's record count disagrees with the body.
pub fn parse_jsonl(text: &str) -> Result<FlightDump, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty dump")?;
    let (declared, mut dump) = parse_meta(first)?;
    for (i, line) in lines {
        let record = parse_record(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        dump.records.push(record);
    }
    if dump.records.len() != declared {
        return Err(format!(
            "meta header declares {declared} records, dump carries {}",
            dump.records.len()
        ));
    }
    Ok(dump)
}

/// The meta header: the record count it declares, and the dump so far.
fn parse_meta(line: &str) -> Result<(usize, FlightDump), String> {
    let mut r = Reader::new(line);
    let meta = r.object(|r| {
        if r.str_at("kind").as_deref() != Ok("meta") {
            return Err("first line is not the meta header".to_owned());
        }
        let version: u64 = r.uint_at("version")?;
        if version != DUMP_VERSION {
            return Err(format!("unsupported dump version {version}"));
        }
        let capacity = r.uint_at("capacity")?;
        let declared = r.uint_at("records")?;
        let dropped = r.uint_at("dropped")?;
        let reason = r.str_at("reason")?;
        let records = Vec::new();
        let dump = FlightDump {
            capacity,
            dropped,
            reason,
            records,
        };
        Ok((declared, dump))
    });
    meta.and_then(|meta| r.finish().map(|()| meta))
        .map_err(|e| format!("line 1: {e}"))
}

fn parse_record(line: &str) -> Result<FlightRecord, String> {
    let mut r = Reader::new(line);
    let record = r.object(|r| match r.str_at("kind")?.as_str() {
        "decision" => parse_decision(r).map(|d| FlightRecord::Decision(Box::new(d))),
        "step" => Ok(FlightRecord::Step(StepSummary {
            step: r.uint_at("step")?,
            t_s: r.f64_at("t_s")?,
            motor_power_w: r.f64_at("motor_power_w")?,
            hvac_power_w: r.f64_at("hvac_power_w")?,
            battery_power_w: r.f64_at("battery_power_w")?,
            soc_pct: r.f64_at("soc_pct")?,
            cabin_c: r.f64_at("cabin_c")?,
            ambient_c: r.f64_at("ambient_c")?,
        })),
        other => Err(format!("unknown record kind '{other}'")),
    })?;
    r.finish()?;
    Ok(record)
}

/// A decision's fields after its kind, in writing order.
fn parse_decision(r: &mut Reader<'_>) -> Result<DecisionRecord, String> {
    let step = r.uint_at("step")?;
    let t_s = r.f64_at("t_s")?;
    let outcome = r.str_at("outcome")?;
    let outcome = SolveOutcome::ALL
        .into_iter()
        .find(|o| o.as_str() == outcome)
        .ok_or_else(|| format!("unknown solve outcome '{outcome}'"))?;
    let iterations = r.uint_at("iterations")?;
    let objective = r.f64_at("objective")?;
    let constraint_violation = r.f64_at("constraint_violation")?;
    let warm_start = r.object_at("warm_start", |w| match w.str_at("kind")?.as_str() {
        "cold" => Ok(WarmStart::Cold),
        "shifted" => Ok(WarmStart::Shifted {
            blocks: w.uint_at("blocks")?,
        }),
        other => Err(format!("unknown warm-start kind '{other}'")),
    })?;
    let soc_pct = r.f64_at("soc_pct")?;
    let cabin_c = r.f64_at("cabin_c")?;
    let motor_preview_w = r.list_at("motor_preview_w", Reader::f64)?;
    let plan = r.list_at("plan", |p| {
        p.object(|p| {
            Ok(PlannedStep {
                ts_c: p.f64_at("ts_c")?,
                tc_c: p.f64_at("tc_c")?,
                recirculation: p.f64_at("recirculation")?,
                flow_kg_s: p.f64_at("flow_kg_s")?,
                hvac_power_w: p.f64_at("hvac_power_w")?,
                cabin_c: p.f64_at("cabin_c")?,
                soc_pct: p.f64_at("soc_pct")?,
            })
        })
    })?;
    let constraint_rows: usize = r.uint_at("constraint_rows")?;
    if constraint_rows > 32 {
        return Err(format!(
            "{constraint_rows} constraint rows do not fit a 32-bit active-set mask"
        ));
    }
    let active_masks = r.list_at("active_masks", |m| {
        let mask: u32 = m.uint()?;
        if constraint_rows < 32 && mask >> constraint_rows != 0 {
            return Err(format!(
                "active mask {mask:#b} sets bits beyond the {constraint_rows} constraint rows"
            ));
        }
        Ok(mask)
    })?;
    // The plan and the per-step activation masks cover the same horizon
    // (both empty when the solve errored before producing an iterate).
    if plan.len() != active_masks.len() {
        return Err(format!(
            "plan covers {} steps but active_masks {}",
            plan.len(),
            active_masks.len()
        ));
    }
    let attribution = if r.null_at("attribution")? {
        None
    } else {
        let a = r.object(parse_attribution);
        Some(a.map_err(|e| format!("`attribution`: {e}"))?)
    };
    Ok(DecisionRecord {
        step,
        t_s,
        outcome,
        iterations,
        objective,
        constraint_violation,
        warm_start,
        soc_pct,
        cabin_c,
        motor_preview_w,
        plan,
        constraint_rows,
        active_masks,
        attribution,
    })
}

fn parse_attribution(r: &mut Reader<'_>) -> Result<Attribution, String> {
    Ok(Attribution {
        battery_energy_wh: r.f64_at("battery_energy_wh")?,
        motor_energy_wh: r.f64_at("motor_energy_wh")?,
        hvac_energy_wh: r.f64_at("hvac_energy_wh")?,
        soc_drop_total_pct: r.f64_at("soc_drop_total_pct")?,
        soc_drop_motor_pct: r.f64_at("soc_drop_motor_pct")?,
        soc_drop_hvac_pct: r.f64_at("soc_drop_hvac_pct")?,
        eff_charge_total_as: r.f64_at("eff_charge_total_as")?,
        eff_charge_motor_as: r.f64_at("eff_charge_motor_as")?,
        eff_charge_hvac_as: r.f64_at("eff_charge_hvac_as")?,
        cost_hvac_power: r.f64_at("cost_hvac_power")?,
        cost_soc_deviation: r.f64_at("cost_soc_deviation")?,
        cost_comfort: r.f64_at("cost_comfort")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(step: u64, outcome: SolveOutcome) -> DecisionRecord {
        DecisionRecord {
            step,
            t_s: step as f64,
            outcome,
            iterations: 3,
            objective: 1.25,
            constraint_violation: 0.0,
            warm_start: WarmStart::Shifted { blocks: 1 },
            soc_pct: 90.0,
            cabin_c: 25.0,
            motor_preview_w: vec![1_000.0, 2_000.0],
            plan: vec![
                PlannedStep {
                    ts_c: 14.0,
                    tc_c: 12.0,
                    recirculation: 0.7,
                    flow_kg_s: 0.1,
                    hvac_power_w: 1_800.0,
                    cabin_c: 24.8,
                    soc_pct: 89.9,
                };
                2
            ],
            constraint_rows: 13,
            active_masks: vec![0b10_0000_0000, 0],
            attribution: Some(Attribution {
                battery_energy_wh: 10.0,
                motor_energy_wh: 7.0,
                hvac_energy_wh: 3.0,
                ..Attribution::default()
            }),
        }
    }

    fn step(k: u64) -> StepSummary {
        StepSummary {
            step: k,
            t_s: k as f64,
            motor_power_w: 5_000.0,
            hvac_power_w: 1_500.0,
            battery_power_w: 6_800.0,
            soc_pct: 90.0,
            cabin_c: 24.9,
            ambient_c: 35.0,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::disabled();
        rec.record_decision(decision(0, SolveOutcome::Converged));
        rec.record_step(step(0));
        assert!(!rec.is_enabled());
        assert!(rec.is_empty());
        assert_eq!(rec.auto_dumps(), 0);
        assert_eq!(rec.to_jsonl("anything"), "");
        // Dumping a disabled recorder is an explicit no-op, not an error.
        assert!(rec
            .dump_to(Path::new("/nonexistent/dir/out.jsonl"), "r")
            .is_ok());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::enabled(3);
        for k in 0..5 {
            rec.record_step(step(k));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let records = rec.records();
        match &records[0] {
            FlightRecord::Step(s) => assert_eq!(s.step, 2, "oldest surviving record"),
            other => panic!("expected step, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::enabled(8);
        let other = rec.clone();
        other.record_step(step(1));
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn jsonl_has_meta_header_and_tagged_records() {
        let rec = FlightRecorder::enabled(2);
        rec.record_step(step(3));
        rec.record_decision(decision(4, SolveOutcome::Converged));
        rec.record_step(step(5));
        let out = rec.to_jsonl("a \"quoted\" reason\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let meta = "{\"kind\":\"meta\",\"version\":2,\"capacity\":2,\"records\":2,\"dropped\":1,";
        assert!(lines[0].starts_with(meta), "{out}");
        assert!(lines[1].contains("\"outcome\":\"converged\""));
        assert!(lines[1].contains("\"warm_start\":{\"kind\":\"shifted\",\"blocks\":1}"));
        assert!(lines[1].contains("\"active_masks\":[512,0]"));
        assert!(lines[2].starts_with("{\"kind\":\"step\""));
        // It reads back into what the ring held, and a bad line is named.
        let dump = parse_jsonl(&out).expect("reads back");
        assert_eq!((dump.capacity, dump.dropped), (2, 1));
        assert_eq!(dump.reason, "a \"quoted\" reason\n");
        assert_eq!(dump.records, rec.records());
        let bad = out.replace("\"kind\":\"step\"", "\"kind\":\"stride\"");
        let err = parse_jsonl(&bad).unwrap_err();
        assert!(err.starts_with("line 3: unknown record kind"), "{err}");
        let v1 = out.replace("\"version\":2", "\"version\":1");
        assert_eq!(
            parse_jsonl(&v1).unwrap_err(),
            "line 1: unsupported dump version 1"
        );
    }

    #[test]
    fn dump_creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!(
            "ev-recorder-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deeply").join("nested").join("dump.jsonl");
        let rec = FlightRecorder::enabled(4);
        rec.record_step(step(0));
        rec.dump_to(&path, "parent-dir test")
            .expect("dump succeeds");
        let text = std::fs::read_to_string(&path).expect("file exists");
        assert!(text.starts_with("{\"kind\":\"meta\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_decision_triggers_auto_dump() {
        let dir = std::env::temp_dir().join(format!(
            "ev-recorder-autodump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("postmortem.jsonl");
        let rec = FlightRecorder::enabled(8).with_auto_dump(&path);
        rec.record_decision(decision(1, SolveOutcome::Converged));
        assert!(!path.exists(), "converged solves do not dump");
        assert_eq!(rec.auto_dumps(), 0);
        rec.record_decision(decision(2, SolveOutcome::MaxIterations));
        let text = std::fs::read_to_string(&path).expect("failure dumped");
        assert!(text.contains("mpc solve max_iterations at step 2"));
        assert_eq!(rec.auto_dumps(), 1);
        assert!(rec.last_dump_error().is_none());
        rec.record_decision(decision(3, SolveOutcome::Error));
        assert_eq!(rec.auto_dumps(), 2, "each written failure dump counts");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
