//! Lithium-ion battery model: Peukert rate-capacity SoC tracking, SoH
//! capacity fade, and a battery management system facade.
//!
//! Implements the paper's Section II-D:
//!
//! ```text
//! SoC_t = SoC_0 − 100·∫ I_eff / Cn dt         rate-capacity (Eq. 13)
//! I_eff = I·(I/In)^(pc−1)                     Peukert's law (Eq. 14)
//! ΔSoH = (a1·e^(α·SoC_dev) + a2)·(a3·e^(β·SoC_avg))   capacity fade (Eq. 15)
//! SoC_dev² = 1/T ∫ (SoC(t) − SoC_avg)² dt     (Eq. 16)
//! SoC_avg  = 1/T ∫ SoC(t) dt                  (Eq. 17)
//! ```
//!
//! The key mechanism the paper's controller exploits lives here: a
//! flatter, lower SoC trajectory within a discharge cycle (smaller
//! `SoC_dev` and `SoC_avg`) degrades the battery less, so the number of
//! cycles until the pack fades to 80 % capacity — its lifetime — grows.
//!
//! # Examples
//!
//! ```
//! use ev_battery::{Battery, BatteryParams};
//! use ev_units::{Seconds, Watts};
//!
//! let mut battery = Battery::new(BatteryParams::leaf_24kwh());
//! assert_eq!(battery.soc().value(), 95.0);
//! battery.step(Watts::new(20_000.0), Seconds::new(60.0)); // 20 kW for 1 min
//! assert!(battery.soc().value() < 95.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bms;
mod cell;
mod charger;
mod hess;
mod params;
mod soh;
mod thermal;

pub use bms::{Bms, SocStats};
pub use cell::Battery;
pub use charger::{charge_to, ChargeSession, Charger};
pub use hess::{Hess, HessSplit, SplitPolicy, Ultracapacitor};
pub use params::{BatteryParams, OcvCurve};
pub use soh::{SohModel, SohParams, SohParamsError};
pub use thermal::{PackThermal, PackThermalParams};
