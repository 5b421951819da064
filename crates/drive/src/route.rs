//! Navigation-style route descriptions → drive profiles.
//!
//! The paper's drive profile comes from the navigation stack: "the route
//! information and the parameters of each route segment such as: road
//! slope, average vehicle speed, and average vehicle acceleration, are
//! known accurately before driving" (Section II-A). This module models
//! that input: a [`Route`] is a list of [`RouteSegment`]s (length, speed
//! limit, grade, traffic factor) which [`Route::to_profile`] compiles into
//! a kinematically consistent [`DriveProfile`] with trapezoidal speed
//! transitions between segments.

use ev_units::{Kilometers, MetersPerSecond, Seconds};
use serde::{Deserialize, Serialize};

use crate::{AmbientConditions, DriveProfile, DriveSample};

/// One segment of a navigated route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteSegment {
    /// Segment length (m).
    pub length_m: f64,
    /// Free-flow speed limit on the segment.
    pub speed_limit: MetersPerSecond,
    /// Constant road grade over the segment (%; 100 % = 45°).
    pub grade_percent: f64,
    /// Traffic factor ∈ (0, 1]: the fraction of the speed limit actually
    /// achievable (from live traffic data, the paper's ref \[17\]).
    pub traffic_factor: f64,
}

impl RouteSegment {
    /// Creates a segment, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the length or speed limit is non-positive or the traffic
    /// factor is outside `(0, 1]`.
    #[must_use]
    pub fn new(
        length_m: f64,
        speed_limit: MetersPerSecond,
        grade_percent: f64,
        traffic_factor: f64,
    ) -> Self {
        assert!(length_m > 0.0, "segment length must be positive");
        assert!(speed_limit.value() > 0.0, "speed limit must be positive");
        assert!(
            traffic_factor > 0.0 && traffic_factor <= 1.0,
            "traffic factor must lie in (0, 1]"
        );
        Self {
            length_m,
            speed_limit,
            grade_percent,
            traffic_factor,
        }
    }

    /// The speed actually driven on this segment.
    #[must_use]
    pub fn effective_speed(&self) -> MetersPerSecond {
        self.speed_limit * self.traffic_factor
    }
}

/// A navigated route: an ordered list of segments plus the stops between
/// them (intersections, traffic lights).
///
/// # Examples
///
/// ```
/// use ev_drive::{Route, RouteSegment};
/// use ev_units::{Celsius, KilometersPerHour, Seconds};
///
/// let route = Route::new(vec![
///     RouteSegment::new(800.0, KilometersPerHour::new(50.0).to_meters_per_second(), 0.0, 0.9),
///     RouteSegment::new(5_000.0, KilometersPerHour::new(100.0).to_meters_per_second(), 2.0, 1.0),
/// ])
/// .with_stop_after(0, Seconds::new(20.0)); // a light between them
/// let profile = route.to_profile(
///     ev_drive::AmbientConditions::constant(Celsius::new(28.0)),
///     Seconds::new(1.0),
/// );
/// assert!(profile.distance().value() > 5.0); // km
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    segments: Vec<RouteSegment>,
    /// `stops[i]` = idle duration after segment `i` (s).
    stops: Vec<f64>,
}

impl Route {
    /// Comfortable acceleration used for transitions (m/s²).
    const COMFORT_ACCEL: f64 = 1.2;
    /// Comfortable deceleration used for transitions (m/s², positive).
    const COMFORT_DECEL: f64 = 1.5;

    /// Creates a route from segments with no intermediate stops.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    #[must_use]
    pub fn new(segments: Vec<RouteSegment>) -> Self {
        assert!(!segments.is_empty(), "route needs at least one segment");
        let n = segments.len();
        Self {
            segments,
            stops: vec![0.0; n],
        }
    }

    /// Adds an idle stop of the given duration after segment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the duration is negative.
    #[must_use]
    pub fn with_stop_after(mut self, index: usize, duration: Seconds) -> Self {
        assert!(index < self.segments.len(), "segment index out of range");
        assert!(
            duration.value() >= 0.0,
            "stop duration must be non-negative"
        );
        self.stops[index] = duration.value();
        self
    }

    /// Borrows the segments.
    #[must_use]
    pub fn segments(&self) -> &[RouteSegment] {
        &self.segments
    }

    /// Total route length.
    #[must_use]
    pub fn length(&self) -> Kilometers {
        Kilometers::new(self.segments.iter().map(|s| s.length_m).sum::<f64>() / 1000.0)
    }

    /// Compiles the route into a sampled drive profile: trapezoidal speed
    /// transitions at the comfort limits, a full stop wherever a stop
    /// duration was set, and a final deceleration to rest.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    #[must_use]
    pub fn to_profile(&self, ambient: AmbientConditions, dt: Seconds) -> DriveProfile {
        assert!(dt.value() > 0.0, "sample period must be positive");
        let h = dt.value();
        let mut speeds: Vec<f64> = vec![0.0];
        let mut grades: Vec<f64> = vec![self.segments[0].grade_percent];
        let mut v = 0.0f64;

        for (i, seg) in self.segments.iter().enumerate() {
            let target = seg.effective_speed().value();
            let grade = seg.grade_percent;
            let mut travelled = 0.0;
            // Decide where to start braking: if a stop follows (or this is
            // the last segment), reserve braking distance v²/(2·decel).
            let must_stop = self.stops[i] > 0.0 || i + 1 == self.segments.len();
            let next_target = if must_stop {
                0.0
            } else {
                self.segments[i + 1].effective_speed().value()
            };
            while travelled < seg.length_m {
                // Distance needed to reach the exit speed from here.
                let exit_gap = v - next_target;
                let brake_dist = if exit_gap > 0.0 {
                    exit_gap * (v + next_target) / (2.0 * Self::COMFORT_DECEL)
                } else {
                    0.0
                };
                let remaining = seg.length_m - travelled;
                if remaining <= brake_dist + v * h {
                    // Brake toward the exit speed.
                    v = (v - Self::COMFORT_DECEL * h).max(next_target);
                } else if v < target {
                    v = (v + Self::COMFORT_ACCEL * h).min(target);
                } else if v > target {
                    v = (v - Self::COMFORT_DECEL * h).max(target);
                }
                travelled += v * h;
                speeds.push(v);
                grades.push(grade);
                if v <= 0.0 && remaining > 1.0 {
                    // Defensive: cannot make progress (should not happen).
                    break;
                }
            }
            if must_stop {
                while v > 0.0 {
                    v = (v - Self::COMFORT_DECEL * h).max(0.0);
                    speeds.push(v);
                    grades.push(grade);
                }
                for _ in 0..(self.stops[i] / h).round() as usize {
                    speeds.push(0.0);
                    grades.push(grade);
                }
            }
        }

        let samples: Vec<DriveSample> = speeds
            .iter()
            .enumerate()
            .map(|(k, &vk)| {
                let t = k as f64 * h;
                let a = if k + 1 < speeds.len() {
                    (speeds[k + 1] - vk) / h
                } else {
                    0.0
                };
                DriveSample {
                    t: Seconds::new(t),
                    v: MetersPerSecond::new(vk),
                    a,
                    slope_percent: grades[k],
                    ambient: ambient.temperature_at(Seconds::new(t)),
                    solar: ambient.solar_at(Seconds::new(t)),
                }
            })
            .collect();
        DriveProfile::from_samples("route", dt, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_units::{Celsius, KilometersPerHour};

    fn kmh(v: f64) -> MetersPerSecond {
        KilometersPerHour::new(v).to_meters_per_second()
    }

    fn two_segment_route() -> Route {
        Route::new(vec![
            RouteSegment::new(1_000.0, kmh(50.0), 0.0, 1.0),
            RouteSegment::new(4_000.0, kmh(100.0), 1.5, 0.9),
        ])
        .with_stop_after(0, Seconds::new(15.0))
    }

    #[test]
    fn profile_length_matches_route_length() {
        let route = two_segment_route();
        let p = route.to_profile(
            AmbientConditions::constant(Celsius::new(25.0)),
            Seconds::new(1.0),
        );
        let rel = (p.distance().value() - route.length().value()).abs() / route.length().value();
        assert!(rel < 0.05, "distance off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn stops_produce_zero_speed_intervals() {
        let p = two_segment_route().to_profile(
            AmbientConditions::constant(Celsius::new(25.0)),
            Seconds::new(1.0),
        );
        // Find an interior zero-speed run of at least 15 samples.
        let speeds: Vec<f64> = p.iter().map(|s| s.v.value()).collect();
        let mut run = 0;
        let mut max_interior_run = 0;
        for &v in &speeds[1..speeds.len() - 1] {
            if v == 0.0 {
                run += 1;
                max_interior_run = max_interior_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_interior_run >= 14, "stop run {max_interior_run}");
    }

    #[test]
    fn speeds_respect_traffic_scaled_limits() {
        let p = two_segment_route().to_profile(
            AmbientConditions::constant(Celsius::new(25.0)),
            Seconds::new(1.0),
        );
        let vmax = p.iter().map(|s| s.v.value()).fold(0.0f64, f64::max);
        assert!(vmax <= kmh(90.0).value() + 1e-9, "vmax {vmax}"); // 100 · 0.9
    }

    #[test]
    fn accelerations_respect_comfort_limits() {
        let p = two_segment_route().to_profile(
            AmbientConditions::constant(Celsius::new(25.0)),
            Seconds::new(1.0),
        );
        for s in p.iter() {
            assert!(s.a <= 1.2 + 1e-9, "a {}", s.a);
            assert!(s.a >= -1.5 - 1e-9, "a {}", s.a);
        }
    }

    #[test]
    fn grades_follow_segments() {
        let p = two_segment_route().to_profile(
            AmbientConditions::constant(Celsius::new(25.0)),
            Seconds::new(1.0),
        );
        assert_eq!(p.sample(1).slope_percent, 0.0);
        let last = p.sample(p.len() - 1);
        assert_eq!(last.slope_percent, 1.5);
    }

    #[test]
    fn ends_at_rest() {
        let p = two_segment_route().to_profile(
            AmbientConditions::constant(Celsius::new(25.0)),
            Seconds::new(1.0),
        );
        assert_eq!(p.sample(p.len() - 1).v.value(), 0.0);
    }

    #[test]
    fn route_length_sums_segments() {
        assert!((two_segment_route().length().value() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "traffic factor")]
    fn rejects_bad_traffic_factor() {
        let _ = RouteSegment::new(100.0, kmh(50.0), 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn rejects_empty_route() {
        let _ = Route::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn rejects_bad_stop_index() {
        let _ = two_segment_route().with_stop_after(7, Seconds::new(1.0));
    }
}
