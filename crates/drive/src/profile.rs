//! The multi-variable drive profile consumed by the simulator and the MPC.

use ev_units::{Celsius, Kilometers, MetersPerSecond, Seconds, Watts};
use serde::{Deserialize, Serialize};

use crate::DriveCycle;

/// One sample of the environment at a simulation instant: the paper's
/// multi-variable drive-profile input (its Section II-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriveSample {
    /// Time since the start of the profile.
    pub t: Seconds,
    /// Vehicle speed.
    pub v: MetersPerSecond,
    /// Vehicle acceleration (m/s²).
    pub a: f64,
    /// Road slope as a percentage grade (100 % = 45°).
    pub slope_percent: f64,
    /// Outside (ambient) air temperature.
    pub ambient: Celsius,
    /// Solar thermal load into the cabin.
    pub solar: Watts,
}

/// Ambient conditions along the route: outside temperature and solar load.
///
/// The paper treats the solar load as a constant offset during a drive and
/// takes the outside temperature from climate databases; both constant and
/// sampled forms are supported.
///
/// # Examples
///
/// ```
/// use ev_drive::AmbientConditions;
/// use ev_units::{Celsius, Seconds, Watts};
///
/// let hot = AmbientConditions::constant(Celsius::new(43.0));
/// assert_eq!(hot.temperature_at(Seconds::new(100.0)).value(), 43.0);
/// let with_sun = hot.with_solar(Watts::new(700.0));
/// assert_eq!(with_sun.solar_at(Seconds::new(0.0)).value(), 700.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmbientConditions {
    /// `(seconds, °C)` breakpoints; a single entry means constant.
    temperature: Vec<(f64, f64)>,
    /// Constant solar load (W), the paper's "thermal load offset".
    solar: f64,
}

impl AmbientConditions {
    /// Default solar load used when none is specified: a partly sunny day.
    pub const DEFAULT_SOLAR_W: f64 = 350.0;

    /// Constant outside temperature with the default solar load.
    #[must_use]
    pub fn constant(temperature: Celsius) -> Self {
        Self {
            temperature: vec![(0.0, temperature.value())],
            solar: Self::DEFAULT_SOLAR_W,
        }
    }

    /// Piecewise-linear outside temperature from `(seconds, °C)`
    /// breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or times are not strictly increasing.
    #[must_use]
    pub fn varying(points: &[(f64, f64)]) -> Self {
        assert!(!points.is_empty(), "ambient needs at least one breakpoint");
        let mut prev = f64::NEG_INFINITY;
        for &(t, _) in points {
            assert!(t > prev, "ambient breakpoint times must strictly increase");
            prev = t;
        }
        Self {
            temperature: points.to_vec(),
            solar: Self::DEFAULT_SOLAR_W,
        }
    }

    /// Sets the constant solar load.
    #[must_use]
    pub fn with_solar(mut self, solar: Watts) -> Self {
        self.solar = solar.value();
        self
    }

    /// Outside temperature at time `t` (linearly interpolated, clamped).
    #[must_use]
    pub fn temperature_at(&self, t: Seconds) -> Celsius {
        let t = t.value();
        let pts = &self.temperature;
        if t <= pts[0].0 || pts.len() == 1 {
            return Celsius::new(pts[0].1);
        }
        let last = pts[pts.len() - 1];
        if t >= last.0 {
            return Celsius::new(last.1);
        }
        let idx = pts.partition_point(|&(pt, _)| pt <= t);
        let (t0, v0) = pts[idx - 1];
        let (t1, v1) = pts[idx];
        Celsius::new(v0 + (t - t0) / (t1 - t0) * (v1 - v0))
    }

    /// Solar load at time `t` (constant in this model).
    #[must_use]
    pub fn solar_at(&self, _t: Seconds) -> Watts {
        Watts::new(self.solar)
    }
}

/// Road slope along the route as a function of *distance* travelled.
///
/// The paper derives slopes from elevation databases along the route; here
/// a slope profile maps distance to percentage grade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlopeProfile {
    /// `(meters from start, % grade)` breakpoints.
    points: Vec<(f64, f64)>,
}

impl SlopeProfile {
    /// A perfectly flat route.
    #[must_use]
    pub fn flat() -> Self {
        Self {
            points: vec![(0.0, 0.0)],
        }
    }

    /// Piecewise-linear grade from `(meters, %)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or distances are not strictly
    /// increasing.
    #[must_use]
    pub fn from_breakpoints(points: &[(f64, f64)]) -> Self {
        assert!(!points.is_empty(), "slope needs at least one breakpoint");
        let mut prev = f64::NEG_INFINITY;
        for &(d, _) in points {
            assert!(
                d > prev,
                "slope breakpoint distances must strictly increase"
            );
            prev = d;
        }
        Self {
            points: points.to_vec(),
        }
    }

    /// Grade (percent) at the given distance from the start.
    #[must_use]
    pub fn grade_at(&self, distance_m: f64) -> f64 {
        let pts = &self.points;
        if distance_m <= pts[0].0 || pts.len() == 1 {
            return pts[0].1;
        }
        let last = pts[pts.len() - 1];
        if distance_m >= last.0 {
            return last.1;
        }
        let idx = pts.partition_point(|&(d, _)| d <= distance_m);
        let (d0, g0) = pts[idx - 1];
        let (d1, g1) = pts[idx];
        g0 + (distance_m - d0) / (d1 - d0) * (g1 - g0)
    }
}

impl Default for SlopeProfile {
    fn default() -> Self {
        Self::flat()
    }
}

/// A sampled multi-variable drive profile: the discrete-time input to the
/// power-train model, the HVAC thermal loads and the MPC preview.
///
/// # Examples
///
/// ```
/// use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
/// use ev_units::{Celsius, Seconds};
///
/// let profile = DriveProfile::from_cycle(
///     &DriveCycle::ece15(),
///     AmbientConditions::constant(Celsius::new(21.0)),
///     Seconds::new(1.0),
/// );
/// assert_eq!(profile.len(), 196); // 195 s at 1 Hz, inclusive endpoints
/// assert_eq!(profile.sample(0).v.value(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveProfile {
    name: String,
    dt: Seconds,
    samples: Vec<DriveSample>,
}

impl DriveProfile {
    /// Samples a drive cycle on a flat route at period `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    #[must_use]
    pub fn from_cycle(cycle: &DriveCycle, ambient: AmbientConditions, dt: Seconds) -> Self {
        Self::from_cycle_with_slope(cycle, ambient, &SlopeProfile::flat(), dt)
    }

    /// Samples a drive cycle with a distance-indexed slope profile.
    ///
    /// Acceleration is the forward difference of the sampled speeds; slope
    /// is looked up at the distance accumulated so far.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    #[must_use]
    pub fn from_cycle_with_slope(
        cycle: &DriveCycle,
        ambient: AmbientConditions,
        slope: &SlopeProfile,
        dt: Seconds,
    ) -> Self {
        assert!(dt.value() > 0.0, "profile sample period must be positive");
        let duration = cycle.duration().value();
        let n = (duration / dt.value()).round() as usize;
        let mut samples = Vec::with_capacity(n + 1);
        let mut distance = 0.0;
        let mut prev_v = cycle.speed_at(Seconds::new(0.0)).value();
        for k in 0..=n {
            let t = (k as f64) * dt.value();
            let v = cycle.speed_at(Seconds::new(t)).value();
            let v_next = cycle.speed_at(Seconds::new(t + dt.value())).value();
            let a = if k < n {
                (v_next - v) / dt.value()
            } else {
                0.0
            };
            distance += 0.5 * (prev_v + v) * if k == 0 { 0.0 } else { dt.value() };
            prev_v = v;
            samples.push(DriveSample {
                t: Seconds::new(t),
                v: MetersPerSecond::new(v),
                a,
                slope_percent: slope.grade_at(distance),
                ambient: ambient.temperature_at(Seconds::new(t)),
                solar: ambient.solar_at(Seconds::new(t)),
            });
        }
        Self {
            name: cycle.name().to_owned(),
            dt,
            samples,
        }
    }

    /// Builds a profile directly from samples (used by the synthetic route
    /// generator).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `dt <= 0`.
    #[must_use]
    pub fn from_samples(name: &str, dt: Seconds, samples: Vec<DriveSample>) -> Self {
        assert!(!samples.is_empty(), "profile needs at least one sample");
        assert!(dt.value() > 0.0, "profile sample period must be positive");
        Self {
            name: name.to_owned(),
            dt,
            samples,
        }
    }

    /// Profile name (usually the cycle name).
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sample period.
    #[inline]
    #[must_use]
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Number of samples.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the profile has no samples (never true for
    /// constructed profiles).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sample at index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    #[inline]
    #[must_use]
    pub fn sample(&self, k: usize) -> &DriveSample {
        &self.samples[k]
    }

    /// Borrows all samples.
    #[inline]
    #[must_use]
    pub fn samples(&self) -> &[DriveSample] {
        &self.samples
    }

    /// Iterates over samples.
    pub fn iter(&self) -> impl Iterator<Item = &DriveSample> + '_ {
        self.samples.iter()
    }

    /// Total profile duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.dt.value() * (self.len().saturating_sub(1)) as f64)
    }

    /// Distance covered (trapezoidal integral of sampled speed).
    #[must_use]
    pub fn distance(&self) -> Kilometers {
        let mut meters = 0.0;
        for w in self.samples.windows(2) {
            meters += 0.5 * (w[0].v.value() + w[1].v.value()) * self.dt.value();
        }
        Kilometers::new(meters / 1000.0)
    }

    /// A sub-profile window `[start, start + count)`, clamped to the
    /// profile end. Used by the MPC to extract its preview horizon.
    ///
    /// The last sample is repeated when the window extends past the end of
    /// the profile (constant-extension preview).
    #[must_use]
    pub fn window(&self, start: usize, count: usize) -> Vec<DriveSample> {
        let mut out = Vec::with_capacity(count);
        for k in start..start + count {
            let idx = k.min(self.len() - 1);
            out.push(self.samples[idx]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DriveProfile {
        DriveProfile::from_cycle(
            &DriveCycle::ece15(),
            AmbientConditions::constant(Celsius::new(30.0)),
            Seconds::new(1.0),
        )
    }

    #[test]
    fn sampling_matches_cycle() {
        let p = profile();
        let c = DriveCycle::ece15();
        assert_eq!(p.len(), 196);
        for k in [0usize, 12, 60, 150, 195] {
            let t = Seconds::new(k as f64);
            assert!(
                (p.sample(k).v.value() - c.speed_at(t).value()).abs() < 1e-12,
                "sample {k}"
            );
        }
    }

    #[test]
    fn distance_close_to_cycle_distance() {
        let p = profile();
        let c = DriveCycle::ece15();
        let rel = (p.distance().value() - c.distance().value()).abs() / c.distance().value();
        assert!(rel < 0.01, "sampled distance {rel}");
    }

    #[test]
    fn acceleration_is_forward_difference() {
        let p = profile();
        // During the first ramp (11–15 s): 15 km/h over 4 s ≈ 1.0417 m/s².
        let a = p.sample(12).a;
        assert!((a - 15.0 / 3.6 / 4.0).abs() < 1e-9, "a = {a}");
        // Final sample has zero acceleration by construction.
        assert_eq!(p.sample(p.len() - 1).a, 0.0);
    }

    #[test]
    fn ambient_constant_and_varying() {
        let c = AmbientConditions::constant(Celsius::new(-5.0));
        assert_eq!(c.temperature_at(Seconds::new(500.0)).value(), -5.0);
        let v = AmbientConditions::varying(&[(0.0, 20.0), (100.0, 30.0)]);
        assert_eq!(v.temperature_at(Seconds::new(50.0)).value(), 25.0);
        assert_eq!(v.temperature_at(Seconds::new(200.0)).value(), 30.0);
        assert_eq!(v.temperature_at(Seconds::new(-10.0)).value(), 20.0);
    }

    #[test]
    fn solar_default_and_custom() {
        let a = AmbientConditions::constant(Celsius::new(20.0));
        assert_eq!(a.solar_at(Seconds::ZERO).value(), 350.0);
        let b = a.with_solar(Watts::new(750.0));
        assert_eq!(b.solar_at(Seconds::new(10.0)).value(), 750.0);
    }

    #[test]
    fn slope_profile_interpolation() {
        let s = SlopeProfile::from_breakpoints(&[(0.0, 0.0), (1000.0, 6.0), (2000.0, 0.0)]);
        assert_eq!(s.grade_at(500.0), 3.0);
        assert_eq!(s.grade_at(1500.0), 3.0);
        assert_eq!(s.grade_at(5000.0), 0.0);
        assert_eq!(SlopeProfile::flat().grade_at(123.0), 0.0);
    }

    #[test]
    fn profile_with_slope_assigns_grades_by_distance() {
        // Steep hill only after 500 m.
        let slope = SlopeProfile::from_breakpoints(&[(0.0, 0.0), (499.0, 0.0), (500.0, 8.0)]);
        let p = DriveProfile::from_cycle_with_slope(
            &DriveCycle::ece15(),
            AmbientConditions::constant(Celsius::new(20.0)),
            &slope,
            Seconds::new(1.0),
        );
        assert_eq!(p.sample(0).slope_percent, 0.0);
        let last = p.sample(p.len() - 1);
        assert!(
            (last.slope_percent - 8.0).abs() < 1e-9,
            "total distance ≈ 1 km"
        );
    }

    #[test]
    fn window_clamps_at_end() {
        let p = profile();
        let w = p.window(p.len() - 2, 5);
        assert_eq!(w.len(), 5);
        assert_eq!(w[1].t, w[4].t); // repeated last sample
    }

    #[test]
    fn duration_and_dt() {
        let p = profile();
        assert_eq!(p.duration().value(), 195.0);
        assert_eq!(p.dt().value(), 1.0);
        assert!(!p.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let p = profile();
        let json = serde_json::to_string(&p).unwrap();
        let back: DriveProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p.name(), back.name());
        assert_eq!(p.len(), back.len());
        for (a, b) in p.iter().zip(back.iter()) {
            assert!((a.v.value() - b.v.value()).abs() < 1e-12);
            assert!((a.ambient.value() - b.ambient.value()).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dt() {
        let _ = DriveProfile::from_cycle(
            &DriveCycle::ece15(),
            AmbientConditions::constant(Celsius::new(20.0)),
            Seconds::ZERO,
        );
    }
}
