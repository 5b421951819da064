//! Single-zone variable-air-volume automotive HVAC model.
//!
//! Implements the paper's Section II-C: a single-zone VAV system in which a
//! variable-speed fan drives supply air through a cooling coil and a
//! heating coil into the cabin, with a damper recirculating a fraction of
//! cabin air back into the intake:
//!
//! ```text
//! Mc·dTz/dt = Q + ṁz·cp·(Ts − Tz)          cabin energy balance (Eq. 7)
//! Q = Q_solar + cx·Ax·(To − Tz)            thermal loads (Eq. 8)
//! Tm = (1 − dr)·To + dr·Tz                 air mixer (Eq. 9)
//! Ph = cp/ηh · ṁz · (Ts − Tc)              heating coil power (Eq. 10)
//! Pc = cp/ηc · ṁz · (Tm − Tc)              cooling coil power (Eq. 11)
//! Pf = kf · ṁz²                            fan power (Eq. 12)
//! ```
//!
//! The control inputs are the supply temperature `Ts`, the cooling-coil
//! outlet temperature `Tc`, the recirculation fraction `dr` and the supply
//! air flow `ṁz` ([`HvacInput`]); the single state is the cabin
//! temperature `Tz` ([`HvacState`]). The constraint set C1–C10 of the
//! paper's Section III-A is enforced by [`HvacLimits`].
//!
//! Both the plant simulation and the MPC's internal prediction use the
//! exact trapezoidal discretization of the cabin dynamics (the paper's
//! Eq. 18–19), provided by [`Hvac::step`].
//!
//! # Examples
//!
//! ```
//! use ev_hvac::{CabinParams, Hvac, HvacInput, HvacParams, HvacState};
//! use ev_units::{Celsius, KgPerSecond, Seconds, Watts};
//!
//! let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
//! let state = HvacState::new(Celsius::new(30.0)); // hot-soaked cabin
//! let input = HvacInput {
//!     ts: Celsius::new(12.0),
//!     tc: Celsius::new(12.0),
//!     dr: 0.5,
//!     mz: KgPerSecond::new(0.2),
//! };
//! let (next, power) = hvac.step(
//!     state,
//!     &input,
//!     Celsius::new(35.0),
//!     Watts::new(400.0),
//!     Seconds::new(1.0),
//! );
//! assert!(next.tz.value() < 30.0); // cabin cools
//! assert!(power.total().value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod limits;
mod model;
mod params;

pub use limits::{ConstraintViolation, HvacLimits};
pub use model::{Hvac, HvacInput, HvacPower, HvacState};
pub use params::{CabinParams, HvacParams};
