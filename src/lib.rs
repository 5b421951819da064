//! # evclimate — battery lifetime-aware automotive climate control
//!
//! A full-stack Rust reproduction of *"Battery Lifetime-Aware Automotive
//! Climate Control for Electric Vehicles"* (Vatanparvar & Al Faruque,
//! DAC 2015). The paper's contribution — coordinating the HVAC with the
//! battery management system through a model predictive controller so that
//! cabin-comfort power complements motor power and flattens the battery
//! State-of-Charge profile — is implemented here together with every
//! substrate it needs: vehicle and HVAC physics, battery aging, drive
//! cycles, an SQP optimizer, and a co-simulation engine.
//!
//! This facade crate re-exports the public API of each workspace crate
//! under one roof so examples and downstream users need a single
//! dependency.
//!
//! ## Quickstart
//!
//! ```no_run
//! use evclimate::prelude::*;
//! use evclimate::core::ControllerKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Drive a Nissan-Leaf-like EV through the NEDC cycle on a hot day
//! // with the paper's battery lifetime-aware MPC at the helm.
//! let profile = DriveProfile::from_cycle(
//!     &DriveCycle::nedc(),
//!     AmbientConditions::constant(Celsius::new(35.0)),
//!     Seconds::new(1.0),
//! );
//! let ev = EvParams::nissan_leaf_like();
//! let sim = Simulation::new(ev.clone(), profile)?;
//! let mut controller = ControllerKind::Mpc.instantiate(&ev)?;
//! let result = sim.run(controller.as_mut());
//! println!("ΔSoH: {:.4} m%, HVAC avg: {}",
//!          result.metrics().delta_soh_milli_percent,
//!          result.metrics().avg_hvac_power);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`units`] | physical-quantity newtypes |
//! | [`linalg`] | dense LU / Cholesky, CSR and banded LDLᵀ kernels |
//! | [`ode`] | the trapezoidal cabin step (Eq. 18–19) |
//! | [`optim`] | interior-point QP and SQP solvers |
//! | [`drive`] | standard driving cycles and drive profiles |
//! | [`powertrain`] | EV road loads, motor map, regen; ICE reference |
//! | [`hvac`] | single-zone VAV cabin model |
//! | [`battery`] | Peukert SoC + SoH capacity-fade model |
//! | [`control`] | On/Off, PID, fuzzy and MPC climate controllers |
//! | [`core`] | integrated EV model, simulation engine, experiments |
//! | [`telemetry`] | counters, histograms, spans and metric exporters |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ev_battery as battery;
pub use ev_control as control;
pub use ev_core as core;
pub use ev_drive as drive;
pub use ev_hvac as hvac;
pub use ev_linalg as linalg;
pub use ev_ode as ode;
pub use ev_optim as optim;
pub use ev_powertrain as powertrain;
pub use ev_telemetry as telemetry;
pub use ev_units as units;

/// Convenient glob-import of the types most programs need.
///
/// ```
/// use evclimate::prelude::*;
/// let t = Celsius::new(24.0);
/// assert_eq!(t.value(), 24.0);
/// ```
pub mod prelude {
    pub use ev_battery::{Battery, BatteryParams, Bms, SocStats, SohModel};
    pub use ev_control::{
        ClimateController, ControlContext, FuzzyController, MpcController, OnOffController,
    };
    pub use ev_core::{
        ControllerKind, ElectricVehicle, EvParams, Metrics, Simulation, SimulationResult,
        TelemetryObserver,
    };
    pub use ev_drive::{
        AmbientConditions, DriveCycle, DriveProfile, DriveSample, Route, RouteSegment,
    };
    pub use ev_hvac::{CabinParams, Hvac, HvacInput, HvacLimits, HvacParams, HvacState};
    pub use ev_powertrain::{IceVehicle, PowerTrain, VehicleParams};
    pub use ev_telemetry::Registry;
    pub use ev_units::{
        Celsius, KgPerSecond, KilowattHours, Kilowatts, MetersPerSecond, Percent, Seconds, Watts,
    };
}
