//! The battery management system facade and SoC cycle statistics.

use ev_units::{Percent, Seconds, Watts};
use serde::{Deserialize, Serialize};

use crate::{Battery, BatteryParams, SohModel};

/// SoC statistics of a discharge cycle: the average (Eq. 17) and the RMS
/// deviation (Eq. 16) that drive the SoH degradation model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SocStats {
    /// `SoC_avg` in percent.
    pub avg: f64,
    /// `SoC_dev` in percent (root-mean-square deviation from the mean).
    pub dev: f64,
}

impl SocStats {
    /// Computes the statistics from a uniformly sampled SoC trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn from_trace(soc: &[f64]) -> Self {
        assert!(!soc.is_empty(), "soc trace must be non-empty");
        let n = soc.len() as f64;
        let avg = soc.iter().sum::<f64>() / n;
        let var = soc.iter().map(|s| (s - avg).powi(2)).sum::<f64>() / n;
        Self {
            avg,
            dev: var.sqrt(),
        }
    }
}

/// The battery management system: wraps the [`Battery`], enforces power
/// limits, records the SoC trace of the drive, and evaluates the cycle's
/// SoH degradation.
///
/// This is the component the paper's climate controller *coordinates
/// with*: the controller asks the BMS for the current SoC and running
/// SoC average; the BMS meters every power request into the pack.
///
/// # Examples
///
/// ```
/// use ev_battery::{BatteryParams, Bms, SohModel};
/// use ev_units::{Seconds, Watts};
///
/// let mut bms = Bms::new(BatteryParams::leaf_24kwh(), SohModel::default());
/// for _ in 0..600 {
///     bms.apply_load(Watts::new(15_000.0), Seconds::new(1.0));
/// }
/// let stats = bms.cycle_stats();
/// assert!(stats.avg < 95.0);
/// assert!(bms.cycle_degradation() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bms {
    battery: Battery,
    soh_model: SohModel,
    /// Recorded SoC trace of the drive (one entry per step).
    trace: Vec<f64>,
    /// `trace`'s entries added in order, the fold `Iterator::sum` does.
    trace_sum: f64,
}

impl Bms {
    /// Maximum discharge power the BMS allows (W), Leaf-appropriate.
    const MAX_DISCHARGE_W: f64 = 90_000.0;
    /// Maximum charge (regeneration) power the BMS allows (W).
    const MAX_CHARGE_W: f64 = 50_000.0;

    /// Creates a BMS with Leaf-appropriate power limits (90 kW discharge,
    /// 50 kW charge).
    #[must_use]
    pub fn new(params: BatteryParams, soh_model: SohModel) -> Self {
        let battery = Battery::new(params);
        let initial = battery.soc().value();
        Self {
            battery,
            soh_model,
            trace: vec![initial],
            trace_sum: initial,
        }
    }

    /// Borrows the wrapped battery.
    #[must_use]
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Current SoC.
    #[must_use]
    pub fn soc(&self) -> Percent {
        self.battery.soc()
    }

    /// Running SoC average over the cycle so far (Eq. 17 prefix) — the
    /// quantity the MPC cost function references.
    ///
    /// Costs O(1): it divides a running sum of [`trace`](Self::trace)
    /// that each [`apply_load`](Self::apply_load) advances, and equals
    /// `trace().iter().sum::<f64>() / trace().len() as f64` bit for bit.
    /// `Iterator::sum` folds from −0.0 in trace order; the running sum
    /// makes the same additions in the same order, and starts at the
    /// initial SoC, which equals −0.0 + SoC₀.
    #[must_use]
    pub fn running_soc_avg(&self) -> f64 {
        self.trace_sum / self.trace.len() as f64
    }

    /// Meters a power request into the battery, clamped to the BMS power
    /// limits, and records the SoC. Returns the power actually applied.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn apply_load(&mut self, power: Watts, dt: Seconds) -> Watts {
        let clamped = Watts::new(
            power
                .value()
                .clamp(-Self::MAX_CHARGE_W, Self::MAX_DISCHARGE_W),
        );
        let soc = self.battery.step(clamped, dt).value();
        self.trace.push(soc);
        self.trace_sum += soc;
        clamped
    }

    /// SoC statistics of the recorded cycle (Eq. 16–17).
    #[must_use]
    pub fn cycle_stats(&self) -> SocStats {
        SocStats::from_trace(&self.trace)
    }

    /// ΔSoH of the recorded cycle (Eq. 15), in percent capacity.
    #[must_use]
    pub fn cycle_degradation(&self) -> f64 {
        self.soh_model.degradation(self.cycle_stats())
    }

    /// Battery lifetime if every cycle looked like the recorded one.
    #[must_use]
    pub fn cycles_to_eol(&self) -> f64 {
        self.soh_model.cycles_to_eol(self.cycle_stats())
    }

    /// Borrows the recorded SoC trace.
    #[must_use]
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bms() -> Bms {
        Bms::new(BatteryParams::leaf_24kwh(), SohModel::default())
    }

    #[test]
    fn soc_stats_hand_calculation() {
        let s = SocStats::from_trace(&[90.0, 80.0, 70.0]);
        assert!((s.avg - 80.0).abs() < 1e-12);
        let expected_dev = (200.0f64 / 3.0).sqrt();
        assert!((s.dev - expected_dev).abs() < 1e-12);
    }

    #[test]
    fn constant_trace_has_zero_dev() {
        let s = SocStats::from_trace(&[75.0; 10]);
        assert_eq!(s.avg, 75.0);
        assert_eq!(s.dev, 0.0);
    }

    #[test]
    fn power_limit_clamps() {
        let mut b = bms();
        let applied = b.apply_load(Watts::new(150_000.0), Seconds::new(1.0));
        assert_eq!(applied.value(), 90_000.0);
        let regen = b.apply_load(Watts::new(-100_000.0), Seconds::new(1.0));
        assert_eq!(regen.value(), -50_000.0);
        let within = b.apply_load(Watts::new(40_000.0), Seconds::new(1.0));
        assert_eq!(within.value(), 40_000.0);
    }

    #[test]
    fn trace_grows_and_stats_follow() {
        let mut b = bms();
        for _ in 0..10 {
            b.apply_load(Watts::new(30_000.0), Seconds::new(10.0));
        }
        assert_eq!(b.trace().len(), 11);
        let stats = b.cycle_stats();
        assert!(stats.avg < 95.0 && stats.dev > 0.0);
        assert!(b.cycle_degradation() > 0.0);
        assert!(b.cycles_to_eol().is_finite());
    }

    #[test]
    fn flat_load_degrades_less_than_spiky_load_of_same_energy() {
        // Same total energy: constant 15 kW vs alternating 0 / 30 kW.
        let mut flat = bms();
        let mut spiky = bms();
        for k in 0..600 {
            flat.apply_load(Watts::new(15_000.0), Seconds::new(1.0));
            let p = if k % 2 == 0 { 30_000.0 } else { 0.0 };
            spiky.apply_load(Watts::new(p), Seconds::new(1.0));
        }
        // The spiky load suffers extra Peukert losses (lower final SoC)…
        assert!(spiky.soc().value() <= flat.soc().value() + 1e-9);
        // …and this shows up as at least as much degradation.
        assert!(spiky.cycle_degradation() >= flat.cycle_degradation() - 1e-12);
    }

    #[test]
    fn running_avg_tracks_trace() {
        let mut b = bms();
        b.apply_load(Watts::new(40_000.0), Seconds::new(300.0));
        let avg = b.running_soc_avg();
        let manual = b.trace().iter().sum::<f64>() / b.trace().len() as f64;
        assert_eq!(avg.to_bits(), manual.to_bits());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn stats_reject_empty_trace() {
        let _ = SocStats::from_trace(&[]);
    }
}
