//! The integrated EV parameter set and controller factory.

use ev_battery::{BatteryParams, PackThermalParams, SohParams};
use ev_control::{
    ClimateController, FuzzyController, MpcBatteryModel, MpcBuilder, MpcConfigError, MpcController,
    OnOffController, PidController,
};
use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams};
use ev_powertrain::VehicleParams;
use ev_telemetry::{FlightRecorder, Registry, TraceRing};
use ev_units::{Celsius, Watts};
use serde::{Deserialize, Serialize};

/// Every parameter of the simulated EV in one place: chassis, cabin,
/// HVAC machine, battery, SoH model, accessories and the comfort
/// specification shared by all controllers (the paper keeps ambient,
/// comfort zone and target identical across methodologies for fairness).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvParams {
    /// Chassis and power-train parameters.
    pub vehicle: VehicleParams,
    /// Cabin thermal parameters.
    pub cabin: CabinParams,
    /// HVAC machine limits and efficiencies.
    pub hvac: HvacParams,
    /// Battery pack parameters.
    pub battery: BatteryParams,
    /// SoH degradation model parameters.
    pub soh: SohParams,
    /// Battery-pack thermal model parameters.
    #[serde(default)]
    pub pack_thermal: PackThermalParams,
    /// Constant accessory power (entertainment, lights, pumps).
    pub accessory_power: Watts,
    /// Cabin temperature target shared by all controllers.
    pub target: Celsius,
    /// Comfort-zone half width around the target (K).
    pub comfort_half_width: f64,
    /// Initial cabin temperature; `None` = soaked to ambient.
    pub initial_cabin: Option<Celsius>,
}

impl EvParams {
    /// A Nissan-Leaf-like EV: the vehicle the paper calibrates against,
    /// with the paper's experimental comfort setup (24 °C target ± 3 K).
    #[must_use]
    pub fn nissan_leaf_like() -> Self {
        Self {
            vehicle: VehicleParams::nissan_leaf(),
            cabin: CabinParams::default(),
            hvac: HvacParams::default(),
            battery: BatteryParams::leaf_24kwh(),
            soh: SohParams::default(),
            pack_thermal: PackThermalParams::default(),
            accessory_power: Watts::new(300.0),
            target: Celsius::new(24.0),
            comfort_half_width: 3.0,
            initial_cabin: None,
        }
    }

    /// The HVAC model instance for these parameters.
    #[must_use]
    pub fn hvac_model(&self) -> Hvac {
        Hvac::new(self.cabin, self.hvac)
    }

    /// The comfort limits shared by all controllers.
    #[must_use]
    pub fn limits(&self) -> HvacLimits {
        HvacLimits::comfort_band(self.target, self.comfort_half_width)
    }

    /// The battery model the MPC predicts with, derived from the plant
    /// battery parameters.
    #[must_use]
    pub fn mpc_battery_model(&self) -> MpcBatteryModel {
        MpcBatteryModel {
            voltage: self.battery.ocv.voltage(self.battery.initial_soc),
            capacity: self.battery.nominal_capacity,
            nominal_current: self.battery.nominal_current,
            peukert: self.battery.peukert_constant,
        }
    }

    /// The paper's MPC for this EV, ready to build: the builder's
    /// defaults (N = 8 steps of 4 s, a re-solve every 4 simulation steps,
    /// default weights) with this vehicle's comfort limits, target,
    /// battery model and accessory load. [`ControllerKind::Mpc`]
    /// instantiates exactly this; callers that vary one knob (ablations,
    /// benches) start from it too.
    #[must_use]
    pub fn mpc_builder(&self) -> MpcBuilder {
        MpcController::builder(self.hvac_model(), self.limits())
            .target(self.target)
            .battery(self.mpc_battery_model())
            .accessory_power(self.accessory_power)
    }
}

impl Default for EvParams {
    fn default() -> Self {
        Self::nissan_leaf_like()
    }
}

/// The controllers compared in the paper's evaluation, as a factory enum
/// so experiments can sweep over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControllerKind {
    /// Switching On/Off baseline (paper refs \[8, 9\]).
    OnOff,
    /// Fuzzy-based baseline (paper ref \[10\]).
    Fuzzy,
    /// Plain PID (building block; not part of the paper's comparison).
    Pid,
    /// The battery lifetime-aware MPC (the paper's contribution).
    Mpc,
}

impl ControllerKind {
    /// The three methodologies of the paper's comparison, in its order:
    /// On/Off, fuzzy-based, battery lifetime-aware.
    #[must_use]
    pub fn paper_lineup() -> [Self; 3] {
        [Self::OnOff, Self::Fuzzy, Self::Mpc]
    }

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::OnOff => "On/Off [8, 9]",
            Self::Fuzzy => "Fuzzy-based [10]",
            Self::Pid => "PID",
            Self::Mpc => "Our Battery Lifetime-aware",
        }
    }

    /// Instantiates the controller for the given EV.
    ///
    /// # Errors
    ///
    /// Returns an [`MpcConfigError`] if the MPC configuration is invalid
    /// (cannot happen for the built-in defaults).
    pub fn instantiate(
        self,
        params: &EvParams,
    ) -> Result<Box<dyn ClimateController>, MpcConfigError> {
        self.instantiate_configured(params, &ControllerSetup::default())
    }

    /// Instantiates the controller with the full observability wiring: a
    /// telemetry registry, a flight recorder (the MPC records one
    /// decision per solve into it), a trace ring and an optional SQP
    /// iteration cap override. Rule-based controllers have no solver and
    /// ignore the setup. The default setup is fully inert, making this
    /// exactly [`ControllerKind::instantiate`].
    ///
    /// # Errors
    ///
    /// Returns an [`MpcConfigError`] if the MPC configuration is invalid
    /// (for the built-in defaults only possible through a zero
    /// `max_sqp_iterations` override).
    pub fn instantiate_configured(
        self,
        params: &EvParams,
        setup: &ControllerSetup,
    ) -> Result<Box<dyn ClimateController>, MpcConfigError> {
        let hvac = params.hvac_model();
        let limits = params.limits();
        Ok(match self {
            Self::OnOff => Box::new(OnOffController::new(hvac, limits, params.target, 1.5)),
            Self::Fuzzy => Box::new(FuzzyController::new(hvac, limits, params.target)),
            Self::Pid => Box::new(PidController::new(hvac, limits, params.target)),
            Self::Mpc => {
                let mut builder = params
                    .mpc_builder()
                    .telemetry(&setup.telemetry)
                    .flight_recorder(&setup.recorder)
                    .trace(&setup.trace);
                if let Some(cap) = setup.max_sqp_iterations {
                    builder = builder.max_sqp_iterations(cap);
                }
                Box::new(builder.build()?)
            }
        })
    }
}

/// Observability wiring for [`ControllerKind::instantiate_configured`]:
/// which telemetry registry and flight recorder the controller should
/// record into, and an optional SQP iteration-cap override (used by the
/// flight-recorder smoke run and the fleet's SLO fault injection to
/// force `MaxIterations` outcomes).
/// The `Default` is fully inert — disabled registry, disabled recorder,
/// built-in iteration cap.
#[derive(Debug, Clone, Default)]
pub struct ControllerSetup {
    /// Registry for solver/plant metrics (disabled by default).
    pub telemetry: Registry,
    /// Flight recorder for per-solve decision records (disabled by
    /// default).
    pub recorder: FlightRecorder,
    /// Trace ring for begin/end event spans (disabled by default). The
    /// fleet engine scopes it per (shard, session) before handing it to
    /// the controller, so MPC solve spans land on the right track.
    pub trace: TraceRing,
    /// Overrides the MPC's SQP major-iteration cap when `Some`.
    pub max_sqp_iterations: Option<usize>,
}

impl core::fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let p = EvParams::nissan_leaf_like();
        assert_eq!(p.target, Celsius::new(24.0));
        let limits = p.limits();
        assert_eq!(limits.comfort_min, Celsius::new(21.0));
        assert_eq!(limits.comfort_max, Celsius::new(27.0));
        assert_eq!(EvParams::default(), p);
    }

    #[test]
    fn mpc_battery_model_derivation() {
        let p = EvParams::nissan_leaf_like();
        let m = p.mpc_battery_model();
        assert_eq!(m.peukert, 1.10);
        assert!((m.capacity.value() - 66.667).abs() < 0.1);
        // Voltage taken at the initial SoC (95 %), between 394 and 403 V.
        assert!(m.voltage.value() > 394.0 && m.voltage.value() < 403.0);
    }

    #[test]
    fn all_controllers_instantiate() {
        let p = EvParams::nissan_leaf_like();
        for kind in [
            ControllerKind::OnOff,
            ControllerKind::Fuzzy,
            ControllerKind::Pid,
            ControllerKind::Mpc,
        ] {
            let c = kind.instantiate(&p).expect("instantiates");
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn the_mpc_kind_builds_exactly_the_paper_mpc() {
        use crate::experiments::profile_at;
        use crate::{Simulation, StepRecord, TraceRecorder};
        use ev_control::MpcWeights;
        use ev_drive::DriveCycle;
        use ev_units::Seconds;

        let mut p = EvParams::nissan_leaf_like();
        p.initial_cabin = Some(p.target);
        let mut built = p.mpc_builder().build().expect("valid config");
        assert_eq!(built.horizon(), 8);
        assert_eq!(built.weights(), MpcWeights::default());
        // The paper configuration spelled out, as evbench's solo replay
        // (`evbench/src/ledger.rs`) hard-codes it: the builder's defaults
        // must stay these constants.
        let mut spelled_out = MpcController::builder(p.hvac_model(), p.limits())
            .target(p.target)
            .horizon(8)
            .prediction_dt(Seconds::new(4.0))
            .recompute_every(4)
            .weights(MpcWeights::default())
            .battery(p.mpc_battery_model())
            .accessory_power(p.accessory_power)
            .build()
            .expect("valid config");

        let sim = Simulation::new(p.clone(), profile_at(&DriveCycle::ece15(), 35.0))
            .expect("profile non-empty");
        let commands = |controller: &mut dyn ClimateController| {
            let mut trace = TraceRecorder::new();
            sim.run_observed(controller, &mut trace)
                .expect("simulation runs");
            let bits = |r: &StepRecord| {
                [r.supply_temp, r.coil_temp, r.recirculation, r.flow].map(f64::to_bits)
            };
            trace.records().iter().map(bits).collect::<Vec<_>>()
        };
        let mut kind = ControllerKind::Mpc.instantiate(&p).expect("instantiates");
        let reference = commands(kind.as_mut());
        assert!(!reference.is_empty());
        assert_eq!(reference, commands(&mut built), "mpc_builder()");
        assert_eq!(reference, commands(&mut spelled_out), "builder defaults");
    }

    #[test]
    fn paper_lineup_order() {
        let lineup = ControllerKind::paper_lineup();
        assert_eq!(lineup[0], ControllerKind::OnOff);
        assert_eq!(lineup[2], ControllerKind::Mpc);
        assert!(lineup[0].label().contains("On/Off"));
        assert!(lineup[2].to_string().contains("Lifetime"));
    }
}
