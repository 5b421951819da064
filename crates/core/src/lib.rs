//! Battery lifetime-aware automotive climate control: the integrated EV
//! model, co-simulation engine and experiment harness.
//!
//! This crate ties the substrates together into the system the DAC 2015
//! paper evaluates:
//!
//! * [`EvParams`] — one parameter set covering the vehicle
//!   ([`ev_powertrain`]), cabin/HVAC ([`ev_hvac`]), battery
//!   ([`ev_battery`]) and accessories;
//! * [`ElectricVehicle`] — the physical plant (power train + HVAC +
//!   battery behind a BMS);
//! * [`Simulation`] — the fixed-step co-simulation loop of the paper's
//!   Algorithm 1: precompute the motor-power vector from the drive
//!   profile, then alternate controller and plant once per sample period;
//! * [`SimulationResult`] / [`Metrics`] — time series and the paper's
//!   figures of merit (ΔSoH, average HVAC power, SoC statistics, comfort);
//! * [`experiments`] — one function per table/figure of the paper's
//!   Section IV, used by the `repro` binary and the Criterion benches.
//!
//! # Examples
//!
//! ```no_run
//! use ev_core::{ControllerKind, EvParams, Simulation};
//! use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
//! use ev_units::{Celsius, Seconds};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = EvParams::nissan_leaf_like();
//! let profile = DriveProfile::from_cycle(
//!     &DriveCycle::ece_eudc(),
//!     AmbientConditions::constant(Celsius::new(35.0)),
//!     Seconds::new(1.0),
//! );
//! let sim = Simulation::new(params.clone(), profile)?;
//! let mut controller = ControllerKind::Mpc.instantiate(&params)?;
//! let result = sim.run(controller.as_mut())?;
//! println!("ΔSoH = {:.3} m%", result.metrics().delta_soh_milli_percent);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;
mod flight;
pub mod observe;
mod params;
mod result;
mod sim;
mod telemetry;
mod vehicle;

pub use flight::FlightRecorderObserver;
pub use observe::{ControllerMode, NoopObserver, StepObserver, StepRecord, TraceRecorder};
pub use params::{ControllerKind, ControllerSetup, EvParams};
pub use result::{Metrics, SimulationResult, TimeSeries};
pub use sim::{SimError, SimSession, Simulation};
pub use telemetry::TelemetryObserver;
pub use vehicle::{ElectricVehicle, PlantStep};
