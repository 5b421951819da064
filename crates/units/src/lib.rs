//! Physical-quantity newtypes for the evclimate EV simulation stack.
//!
//! Every quantity that crosses a public API boundary in the evclimate
//! workspace — temperatures, powers, energies, speeds, masses, currents —
//! is wrapped in a dedicated newtype so that the compiler rejects unit
//! confusion (passing a speed where a power is expected, or km/h where m/s
//! is expected) at compile time.
//!
//! All quantities wrap an `f64` in SI or SI-adjacent units and are cheap
//! [`Copy`] values. Arithmetic is implemented only where it is physically
//! meaningful: quantities of the same kind can be added and subtracted,
//! every quantity can be scaled by a dimensionless `f64`, and a handful of
//! cross-type operations with a clear physical reading (e.g. power × time =
//! energy) are provided explicitly.
//!
//! # Examples
//!
//! ```
//! use ev_units::{Celsius, Kilowatts, KilowattHours, Seconds, MetersPerSecond};
//!
//! let ambient = Celsius::new(35.0);
//! assert_eq!(ambient.to_kelvin().value(), 308.15);
//!
//! let hvac = Kilowatts::new(4.0);
//! let energy: KilowattHours = hvac.energy_over(Seconds::new(1800.0));
//! assert!((energy.value() - 2.0).abs() < 1e-12);
//!
//! let v = MetersPerSecond::new(27.78);
//! assert!((v.to_kilometers_per_hour().value() - 100.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Defines a quantity newtype over `f64` with standard constructors,
/// accessors, same-type additive arithmetic, scalar scaling and `Display`.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates the quantity from a raw value expressed in the
            /// canonical unit of this type.
            ///
            /// ```
            #[doc = concat!("let q = ev_units::", stringify!($name), "::new(1.5);")]
            /// assert_eq!(q.value(), 1.5);
            /// ```
            #[inline]
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the canonical unit of this type.
            #[inline]
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[inline]
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN.
            #[inline]
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` if the underlying value is finite.
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div<$name> for $name {
            /// Dividing two quantities of the same kind yields a
            /// dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Time, distance, kinematics
// ---------------------------------------------------------------------------

quantity!(
    /// A duration in seconds.
    Seconds,
    "s"
);

quantity!(
    /// A distance in meters.
    Meters,
    "m"
);

quantity!(
    /// A distance in kilometers.
    Kilometers,
    "km"
);

quantity!(
    /// A speed in meters per second (canonical speed unit of the stack).
    MetersPerSecond,
    "m/s"
);

quantity!(
    /// A speed in kilometers per hour (for human-facing I/O).
    KilometersPerHour,
    "km/h"
);

quantity!(
    /// An acceleration in meters per second squared.
    MetersPerSecondSquared,
    "m/s²"
);

// ---------------------------------------------------------------------------
// Mass and flow
// ---------------------------------------------------------------------------

quantity!(
    /// A mass in kilograms.
    Kilograms,
    "kg"
);

quantity!(
    /// A mass flow rate in kilograms per second (HVAC supply-air flow).
    KgPerSecond,
    "kg/s"
);

// ---------------------------------------------------------------------------
// Mechanics and electricity
// ---------------------------------------------------------------------------

quantity!(
    /// A force in newtons.
    Newtons,
    "N"
);

quantity!(
    /// A power in watts.
    Watts,
    "W"
);

quantity!(
    /// A power in kilowatts (human-facing power unit of the paper).
    Kilowatts,
    "kW"
);

quantity!(
    /// An energy in joules.
    Joules,
    "J"
);

quantity!(
    /// An energy in kilowatt-hours (battery capacity unit).
    KilowattHours,
    "kWh"
);

quantity!(
    /// An electric current in amperes.
    Amperes,
    "A"
);

quantity!(
    /// An electric charge in ampere-hours (battery nominal capacity).
    AmpereHours,
    "Ah"
);

quantity!(
    /// An electric potential in volts.
    Volts,
    "V"
);

quantity!(
    /// An electric resistance in ohms.
    Ohms,
    "Ω"
);

// ---------------------------------------------------------------------------
// Thermal
// ---------------------------------------------------------------------------

quantity!(
    /// An absolute temperature in kelvins.
    Kelvin,
    "K"
);

quantity!(
    /// A thermal capacitance in joules per kelvin (cabin lumped capacity).
    JoulesPerKelvin,
    "J/K"
);

quantity!(
    /// A specific heat capacity in joules per kilogram-kelvin.
    JoulesPerKgKelvin,
    "J/(kg·K)"
);

quantity!(
    /// A heat-transfer conductance in watts per kelvin (`c_x · A_x`).
    WattsPerKelvin,
    "W/K"
);

// ---------------------------------------------------------------------------
// Dimensionless
// ---------------------------------------------------------------------------

quantity!(
    /// A percentage, 0–100 scale (SoC, SoH, road slope grade).
    Percent,
    "%"
);

quantity!(
    /// A dimensionless ratio, 0–1 scale (efficiencies, damper fraction).
    Ratio,
    "·"
);

// ---------------------------------------------------------------------------
// Celsius: affine scale, so it gets a bespoke implementation rather than the
// additive macro (adding two Celsius temperatures is physically meaningless).
// ---------------------------------------------------------------------------

/// A temperature on the Celsius scale.
///
/// Celsius is an *affine* unit: adding two Celsius temperatures has no
/// physical meaning, so `Celsius` deliberately does not implement `Add`.
/// The difference of two temperatures is a kelvin-valued interval obtained
/// via [`Celsius::diff`], and offsets are applied with
/// [`Celsius::offset`].
///
/// # Examples
///
/// ```
/// use ev_units::Celsius;
///
/// let cabin = Celsius::new(24.0);
/// let outside = Celsius::new(35.0);
/// assert_eq!(outside.diff(cabin), 11.0); // kelvins
/// assert_eq!(cabin.offset(-3.0), Celsius::new(21.0));
/// assert_eq!(cabin.to_kelvin().value(), 297.15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Celsius(f64);

impl Celsius {
    /// The freezing point of water, 0 °C.
    pub const ZERO: Self = Self(0.0);

    /// Offset between the Celsius and Kelvin scales.
    pub const KELVIN_OFFSET: f64 = 273.15;

    /// Creates a temperature from degrees Celsius.
    #[inline]
    #[must_use]
    pub const fn new(deg: f64) -> Self {
        Self(deg)
    }

    /// Returns the temperature in degrees Celsius.
    #[inline]
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to the Kelvin scale.
    #[inline]
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.0 + Self::KELVIN_OFFSET)
    }

    /// Creates a Celsius temperature from an absolute Kelvin temperature.
    #[inline]
    #[must_use]
    pub fn from_kelvin(k: Kelvin) -> Self {
        Self(k.value() - Self::KELVIN_OFFSET)
    }

    /// Returns the signed temperature difference `self − other` in kelvins.
    #[inline]
    #[must_use]
    pub fn diff(self, other: Self) -> f64 {
        self.0 - other.0
    }

    /// Returns this temperature shifted by `delta_kelvin` kelvins.
    #[inline]
    #[must_use]
    pub fn offset(self, delta_kelvin: f64) -> Self {
        Self(self.0 + delta_kelvin)
    }

    /// Returns the lower of two temperatures.
    #[inline]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns the higher of two temperatures.
    #[inline]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Clamps the temperature into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    #[inline]
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// Returns `true` if the underlying value is finite.
    #[inline]
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl core::fmt::Display for Celsius {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} °C", prec, self.0)
        } else {
            write!(f, "{} °C", self.0)
        }
    }
}

impl From<Kelvin> for Celsius {
    #[inline]
    fn from(k: Kelvin) -> Self {
        Self::from_kelvin(k)
    }
}

impl From<Celsius> for Kelvin {
    #[inline]
    fn from(c: Celsius) -> Self {
        c.to_kelvin()
    }
}

// ---------------------------------------------------------------------------
// Cross-type conversions
// ---------------------------------------------------------------------------

impl MetersPerSecond {
    /// Converts to kilometers per hour.
    #[inline]
    #[must_use]
    pub fn to_kilometers_per_hour(self) -> KilometersPerHour {
        KilometersPerHour::new(self.value() * 3.6)
    }
}

impl KilometersPerHour {
    /// Converts to meters per second.
    #[inline]
    #[must_use]
    pub fn to_meters_per_second(self) -> MetersPerSecond {
        MetersPerSecond::new(self.value() / 3.6)
    }
}

impl From<KilometersPerHour> for MetersPerSecond {
    #[inline]
    fn from(v: KilometersPerHour) -> Self {
        v.to_meters_per_second()
    }
}

impl From<MetersPerSecond> for KilometersPerHour {
    #[inline]
    fn from(v: MetersPerSecond) -> Self {
        v.to_kilometers_per_hour()
    }
}

impl Meters {
    /// Converts to kilometers.
    #[inline]
    #[must_use]
    pub fn to_kilometers(self) -> Kilometers {
        Kilometers::new(self.value() / 1000.0)
    }
}

impl Kilometers {
    /// Converts to meters.
    #[inline]
    #[must_use]
    pub fn to_meters(self) -> Meters {
        Meters::new(self.value() * 1000.0)
    }
}

impl From<Meters> for Kilometers {
    #[inline]
    fn from(d: Meters) -> Self {
        d.to_kilometers()
    }
}

impl From<Kilometers> for Meters {
    #[inline]
    fn from(d: Kilometers) -> Self {
        d.to_meters()
    }
}

impl Watts {
    /// Converts to kilowatts.
    #[inline]
    #[must_use]
    pub fn to_kilowatts(self) -> Kilowatts {
        Kilowatts::new(self.value() / 1000.0)
    }

    /// Returns the energy delivered at this constant power over `dt`.
    #[inline]
    #[must_use]
    pub fn energy_over(self, dt: Seconds) -> Joules {
        Joules::new(self.value() * dt.value())
    }
}

impl Kilowatts {
    /// Converts to watts.
    #[inline]
    #[must_use]
    pub fn to_watts(self) -> Watts {
        Watts::new(self.value() * 1000.0)
    }

    /// Returns the energy delivered at this constant power over `dt`.
    #[inline]
    #[must_use]
    pub fn energy_over(self, dt: Seconds) -> KilowattHours {
        KilowattHours::new(self.value() * dt.value() / 3600.0)
    }
}

impl From<Watts> for Kilowatts {
    #[inline]
    fn from(p: Watts) -> Self {
        p.to_kilowatts()
    }
}

impl From<Kilowatts> for Watts {
    #[inline]
    fn from(p: Kilowatts) -> Self {
        p.to_watts()
    }
}

impl Joules {
    /// Converts to kilowatt-hours.
    #[inline]
    #[must_use]
    pub fn to_kilowatt_hours(self) -> KilowattHours {
        KilowattHours::new(self.value() / 3.6e6)
    }
}

impl KilowattHours {
    /// Converts to joules.
    #[inline]
    #[must_use]
    pub fn to_joules(self) -> Joules {
        Joules::new(self.value() * 3.6e6)
    }

    /// Returns the ampere-hour charge equivalent at a given nominal voltage.
    #[inline]
    #[must_use]
    pub fn to_ampere_hours(self, nominal: Volts) -> AmpereHours {
        AmpereHours::new(self.value() * 1000.0 / nominal.value())
    }
}

impl From<Joules> for KilowattHours {
    #[inline]
    fn from(e: Joules) -> Self {
        e.to_kilowatt_hours()
    }
}

impl From<KilowattHours> for Joules {
    #[inline]
    fn from(e: KilowattHours) -> Self {
        e.to_joules()
    }
}

impl Percent {
    /// Converts a 0–100 percentage into a 0–1 ratio.
    #[inline]
    #[must_use]
    pub fn to_ratio(self) -> Ratio {
        Ratio::new(self.value() / 100.0)
    }
}

impl Ratio {
    /// Converts a 0–1 ratio into a 0–100 percentage.
    #[inline]
    #[must_use]
    pub fn to_percent(self) -> Percent {
        Percent::new(self.value() * 100.0)
    }
}

impl From<Percent> for Ratio {
    #[inline]
    fn from(p: Percent) -> Self {
        p.to_ratio()
    }
}

impl From<Ratio> for Percent {
    #[inline]
    fn from(r: Ratio) -> Self {
        r.to_percent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_kelvin_round_trip() {
        let c = Celsius::new(21.5);
        let k = c.to_kelvin();
        assert!((k.value() - 294.65).abs() < 1e-12);
        assert_eq!(Celsius::from_kelvin(k), c);
    }

    #[test]
    fn celsius_diff_and_offset() {
        let a = Celsius::new(30.0);
        let b = Celsius::new(24.0);
        assert_eq!(a.diff(b), 6.0);
        assert_eq!(b.diff(a), -6.0);
        assert_eq!(b.offset(6.0), a);
    }

    #[test]
    fn celsius_min_max_clamp() {
        let lo = Celsius::new(21.0);
        let hi = Celsius::new(27.0);
        assert_eq!(Celsius::new(30.0).clamp(lo, hi), hi);
        assert_eq!(Celsius::new(10.0).clamp(lo, hi), lo);
        assert_eq!(Celsius::new(24.0).clamp(lo, hi), Celsius::new(24.0));
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn speed_conversion_round_trip() {
        let v = MetersPerSecond::new(13.89);
        let kmh = v.to_kilometers_per_hour();
        assert!((kmh.value() - 50.004).abs() < 1e-9);
        let back = kmh.to_meters_per_second();
        assert!((back.value() - v.value()).abs() < 1e-12);
    }

    #[test]
    fn power_energy_relations() {
        let p = Kilowatts::new(6.0);
        let e = p.energy_over(Seconds::new(3600.0));
        assert!((e.value() - 6.0).abs() < 1e-12);
        let j = e.to_joules();
        assert!((j.value() - 2.16e7).abs() < 1.0);
        assert!((j.to_kilowatt_hours().value() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn watts_kilowatts_round_trip() {
        let w = Watts::new(1500.0);
        assert!((w.to_kilowatts().value() - 1.5).abs() < 1e-12);
        assert!((w.to_kilowatts().to_watts().value() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn kwh_to_ah() {
        // 24 kWh at 360 V nominal is 66.67 Ah.
        let ah = KilowattHours::new(24.0).to_ampere_hours(Volts::new(360.0));
        assert!((ah.value() - 66.666_666).abs() < 1e-3);
    }

    #[test]
    fn percent_ratio_round_trip() {
        let p = Percent::new(85.0);
        assert!((p.to_ratio().value() - 0.85).abs() < 1e-12);
        assert!((p.to_ratio().to_percent().value() - 85.0).abs() < 1e-12);
    }

    #[test]
    fn quantity_arithmetic() {
        let a = Kilowatts::new(2.0);
        let b = Kilowatts::new(3.0);
        assert_eq!((a + b).value(), 5.0);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!((-a).value(), -2.0);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((2.0 * a).value(), 4.0);
        assert_eq!((a / 2.0).value(), 1.0);
        assert_eq!(b / a, 1.5);
        let mut c = a;
        c += b;
        assert_eq!(c.value(), 5.0);
        c -= a;
        assert_eq!(c.value(), 3.0);
    }

    #[test]
    fn quantity_sum() {
        let total: Kilowatts = [1.0, 2.0, 3.5].iter().map(|&v| Kilowatts::new(v)).sum();
        assert!((total.value() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn quantity_abs_min_max() {
        let n = Watts::new(-10.0);
        assert_eq!(n.abs().value(), 10.0);
        assert_eq!(n.min(Watts::ZERO), n);
        assert_eq!(n.max(Watts::ZERO), Watts::ZERO);
        assert_eq!(
            Watts::new(7.0).clamp(Watts::ZERO, Watts::new(5.0)).value(),
            5.0
        );
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.1}", Kilowatts::new(3.456)), "3.5 kW");
        assert_eq!(format!("{:.2}", Celsius::new(24.0)), "24.00 °C");
        assert_eq!(format!("{}", Seconds::new(2.0)), "2 s");
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let p = Kilowatts::new(4.25);
        let json = serde_json_value(&p);
        assert_eq!(json, "4.25");
    }

    /// Minimal serde check without depending on serde_json in this crate:
    /// use the serde test pattern via Display of the transparent f64.
    fn serde_json_value(p: &Kilowatts) -> String {
        // Transparent serde means serializing yields the plain number; we
        // emulate it through the public accessor here and verify the
        // attribute compiles (actual JSON round trip is covered in ev-core).
        format!("{}", p.value())
    }

    #[test]
    fn distance_round_trip() {
        let m = Meters::new(1500.0);
        assert_eq!(m.to_kilometers().value(), 1.5);
        assert_eq!(m.to_kilometers().to_meters(), m);
    }

    #[test]
    fn is_finite_flags_nan() {
        assert!(Kilowatts::new(1.0).is_finite());
        assert!(!Kilowatts::new(f64::NAN).is_finite());
        assert!(!Celsius::new(f64::INFINITY).is_finite());
    }
}
