//! Step-level observability for the co-simulation loop.
//!
//! [`Simulation::run`](crate::Simulation::run) drives the plant blind: it
//! returns a [`crate::SimulationResult`] but exposes nothing *while* the
//! loop runs. This module adds a [`StepObserver`] trait that
//! [`Simulation::run_observed`](crate::Simulation::run_observed) invokes
//! once per sample with the full [`StepRecord`] — time, motor power, the
//! commanded HVAC input, the power breakdown, battery state and the
//! inferred controller mode — so tests, invariant checkers and trace
//! exporters can watch every step without touching the loop itself.
//!
//! [`TraceRecorder`] keeps every record in memory (golden traces,
//! invariant checking over whole trajectories);
//! [`TelemetryObserver`](crate::TelemetryObserver) folds the step stream
//! into a metrics registry.
//!
//! The default [`NoopObserver`] is a zero-sized type whose callbacks are
//! empty; with static dispatch the observed loop compiles down to the
//! unobserved one.
//!
//! # Examples
//!
//! ```no_run
//! use ev_core::{ControllerKind, EvParams, Simulation, TraceRecorder};
//! use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
//! use ev_units::{Celsius, Seconds};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = EvParams::nissan_leaf_like();
//! let profile = DriveProfile::from_cycle(
//!     &DriveCycle::ece15(),
//!     AmbientConditions::constant(Celsius::new(35.0)),
//!     Seconds::new(1.0),
//! );
//! let sim = Simulation::new(params.clone(), profile)?;
//! let mut controller = ControllerKind::Mpc.instantiate(&params)?;
//! let mut trace = TraceRecorder::new();
//! let result = sim.run_observed(controller.as_mut(), &mut trace);
//! assert_eq!(trace.records().len(), result.series.t.len());
//! # Ok(())
//! # }
//! ```

use crate::SimulationResult;

/// What the HVAC was commanded to do in one step, inferred from the
/// realized power breakdown and air flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerMode {
    /// The heater coil draws real power.
    Heating,
    /// The cooling coil draws real power.
    Cooling,
    /// Air moves well above the idle trickle but neither coil is active.
    Vent,
    /// Idle trickle flow, both coils passive.
    Idle,
}

impl ControllerMode {
    /// Power below which a coil counts as passive (W). Well above
    /// numerical noise, well below any deliberate actuation.
    pub const COIL_EPS_W: f64 = 1.0;

    /// Classifies a step from its realized coil powers and supply flow.
    /// `min_flow` is the HVAC's idle trickle (kg/s); flow beyond 1.5× of
    /// it with passive coils counts as [`ControllerMode::Vent`].
    #[must_use]
    pub fn classify(heating_w: f64, cooling_w: f64, flow_kg_s: f64, min_flow_kg_s: f64) -> Self {
        if heating_w > Self::COIL_EPS_W && heating_w >= cooling_w {
            Self::Heating
        } else if cooling_w > Self::COIL_EPS_W {
            Self::Cooling
        } else if flow_kg_s > 1.5 * min_flow_kg_s {
            Self::Vent
        } else {
            Self::Idle
        }
    }
}

impl core::fmt::Display for ControllerMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Heating => "heating",
            Self::Cooling => "cooling",
            Self::Vent => "vent",
            Self::Idle => "idle",
        })
    }
}

/// Everything one simulation step produced, in plain SI scalars so
/// observers can stream and diff records without unit plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: usize,
    /// Sample time (s).
    pub t: f64,
    /// Sample period (s).
    pub dt: f64,
    /// Electric-motor power (W; negative = regeneration).
    pub motor_power: f64,
    /// HVAC heating-coil power (W).
    pub heating_power: f64,
    /// HVAC cooling-coil power (W).
    pub cooling_power: f64,
    /// HVAC fan power (W).
    pub fan_power: f64,
    /// Constant accessory power (W).
    pub accessory_power: f64,
    /// Power metered into the battery after BMS clamping (W).
    pub battery_power: f64,
    /// State of charge after the step (%).
    pub soc: f64,
    /// Cabin temperature after the step (°C).
    pub cabin_temp: f64,
    /// Battery-pack temperature after the step (°C).
    pub pack_temp: f64,
    /// Outside temperature (°C).
    pub ambient: f64,
    /// Solar load (W).
    pub solar: f64,
    /// Commanded supply-air temperature `Ts` (°C).
    pub supply_temp: f64,
    /// Commanded cooling-coil temperature `Tc` (°C).
    pub coil_temp: f64,
    /// Commanded recirculation fraction `dr`.
    pub recirculation: f64,
    /// Commanded supply-air flow `ṁz` (kg/s).
    pub flow: f64,
    /// Inferred controller mode.
    pub mode: ControllerMode,
}

impl StepRecord {
    /// Total HVAC power of the step (W).
    #[must_use]
    pub fn hvac_power(&self) -> f64 {
        self.heating_power + self.cooling_power + self.fan_power
    }

    /// Total plant load before BMS clamping (W).
    #[must_use]
    pub fn plant_power(&self) -> f64 {
        self.motor_power + self.hvac_power() + self.accessory_power
    }
}

/// A per-step callback invoked by
/// [`Simulation::run_observed`](crate::Simulation::run_observed).
///
/// All methods have empty defaults, so an observer implements only what
/// it needs; [`NoopObserver`] implements none and vanishes under
/// monomorphization.
pub trait StepObserver {
    /// Called once before the first step.
    fn on_start(&mut self, profile: &str, controller: &str, steps: usize) {
        let _ = (profile, controller, steps);
    }

    /// Called after every plant step with the full record.
    fn on_step(&mut self, record: &StepRecord) {
        let _ = record;
    }

    /// Called once after the last step with the assembled result.
    fn on_finish(&mut self, result: &SimulationResult) {
        let _ = result;
    }
}

/// The do-nothing observer behind the plain
/// [`Simulation::run`](crate::Simulation::run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl StepObserver for NoopObserver {}

/// Observers compose by reference, so one can be threaded through a
/// generic call without giving up ownership.
impl<O: StepObserver + ?Sized> StepObserver for &mut O {
    fn on_start(&mut self, profile: &str, controller: &str, steps: usize) {
        (**self).on_start(profile, controller, steps);
    }
    fn on_step(&mut self, record: &StepRecord) {
        (**self).on_step(record);
    }
    fn on_finish(&mut self, result: &SimulationResult) {
        (**self).on_finish(result);
    }
}

/// Pairs compose: both observers see every callback, left first.
impl<A: StepObserver, B: StepObserver> StepObserver for (A, B) {
    fn on_start(&mut self, profile: &str, controller: &str, steps: usize) {
        self.0.on_start(profile, controller, steps);
        self.1.on_start(profile, controller, steps);
    }
    fn on_step(&mut self, record: &StepRecord) {
        self.0.on_step(record);
        self.1.on_step(record);
    }
    fn on_finish(&mut self, result: &SimulationResult) {
        self.0.on_finish(result);
        self.1.on_finish(result);
    }
}

/// An in-memory trace of every step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    profile: String,
    controller: String,
    records: Vec<StepRecord>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile name seen at `on_start` (empty before a run).
    #[must_use]
    pub fn profile(&self) -> &str {
        &self.profile
    }

    /// The controller name seen at `on_start` (empty before a run).
    #[must_use]
    pub fn controller(&self) -> &str {
        &self.controller
    }

    /// Borrows the recorded steps.
    #[must_use]
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }
}

impl StepObserver for TraceRecorder {
    fn on_start(&mut self, profile: &str, controller: &str, steps: usize) {
        self.profile = profile.to_owned();
        self.controller = controller.to_owned();
        self.records.clear();
        self.records.reserve(steps);
    }

    fn on_step(&mut self, record: &StepRecord) {
        self.records.push(*record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(k: usize) -> StepRecord {
        StepRecord {
            step: k,
            t: k as f64,
            dt: 1.0,
            motor_power: 10_000.0,
            heating_power: 0.0,
            cooling_power: 1_800.0,
            fan_power: 150.0,
            accessory_power: 300.0,
            battery_power: 12_250.0,
            soc: 95.0 - 0.01 * k as f64,
            cabin_temp: 25.0,
            pack_temp: 30.0,
            ambient: 35.0,
            solar: 400.0,
            supply_temp: 12.0,
            coil_temp: 12.0,
            recirculation: 0.8,
            flow: 0.15,
            mode: ControllerMode::Cooling,
        }
    }

    #[test]
    fn mode_classification() {
        let min_flow = 0.02;
        assert_eq!(
            ControllerMode::classify(2_000.0, 0.0, 0.2, min_flow),
            ControllerMode::Heating
        );
        assert_eq!(
            ControllerMode::classify(0.0, 2_000.0, 0.2, min_flow),
            ControllerMode::Cooling
        );
        assert_eq!(
            ControllerMode::classify(0.0, 0.0, 0.2, min_flow),
            ControllerMode::Vent
        );
        assert_eq!(
            ControllerMode::classify(0.0, 0.5, 0.02, min_flow),
            ControllerMode::Idle
        );
    }

    #[test]
    fn record_totals() {
        let r = record(0);
        assert_eq!(r.hvac_power(), 1_950.0);
        assert_eq!(r.plant_power(), 12_250.0);
    }

    #[test]
    fn trace_recorder_collects_in_order() {
        let mut rec = TraceRecorder::new();
        rec.on_start("P", "C", 3);
        for k in 0..3 {
            rec.on_step(&record(k));
        }
        assert_eq!(rec.profile(), "P");
        assert_eq!(rec.controller(), "C");
        assert_eq!(rec.records().len(), 3);
        assert_eq!(rec.records()[2].step, 2);
    }

    #[test]
    fn trace_recorder_resets_between_runs() {
        let mut rec = TraceRecorder::new();
        rec.on_start("A", "x", 1);
        rec.on_step(&record(0));
        rec.on_start("B", "y", 1);
        assert!(rec.records().is_empty());
        assert_eq!(rec.profile(), "B");
    }

    #[test]
    fn observers_compose_as_pairs() {
        let mut right = TraceRecorder::new();
        let mut pair = (TraceRecorder::new(), &mut right);
        pair.on_start("P", "C", 2);
        pair.on_step(&record(0));
        pair.on_step(&record(1));
        let left = pair.0;
        assert_eq!(left.records().len(), 2);
        assert_eq!(left, right);
    }
}
