//! CC-CV charging: closing the discharge/charge cycle.
//!
//! The paper treats "the charging part of the cycle … as constants"
//! (Section II-D). This extension implements the standard
//! constant-current / constant-voltage charge protocol so full cycles can
//! be simulated end-to-end: the per-cycle SoC statistics then cover both
//! halves instead of only the drive.

use ev_units::{Amperes, Percent, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

use crate::Battery;

/// A CC-CV charger: constant current until the terminal voltage reaches
/// the CV setpoint, then exponentially tapering current until the cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Charger {
    /// Constant-current phase current.
    pub cc_current: Amperes,
    /// Constant-voltage setpoint.
    pub cv_voltage: Volts,
    /// Taper cutoff: charging stops when the current falls below this.
    pub cutoff_current: Amperes,
    /// Charger AC→DC efficiency.
    pub efficiency: f64,
}

impl Charger {
    /// A 6.6 kW Level-2 home charger for the Leaf pack (≈18 A at 370 V).
    #[must_use]
    pub fn level2_6kw() -> Self {
        Self {
            cc_current: Amperes::new(18.0),
            cv_voltage: Volts::new(403.0),
            cutoff_current: Amperes::new(2.0),
            efficiency: 0.92,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if currents/voltage are non-positive, the cutoff exceeds the
    /// CC current, or the efficiency is outside `(0, 1]`.
    #[must_use]
    pub fn validated(self) -> Self {
        assert!(self.cc_current.value() > 0.0, "cc current must be positive");
        assert!(self.cv_voltage.value() > 0.0, "cv voltage must be positive");
        assert!(
            self.cutoff_current.value() > 0.0
                && self.cutoff_current.value() < self.cc_current.value(),
            "cutoff must lie in (0, cc)"
        );
        assert!(
            self.efficiency > 0.0 && self.efficiency <= 1.0,
            "efficiency must lie in (0, 1]"
        );
        self
    }
}

/// Record of one charging session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChargeSession {
    /// Wall-clock charging time.
    pub duration: Seconds,
    /// Energy drawn from the grid (AC side, kWh).
    pub grid_energy_kwh: f64,
    /// SoC reached.
    pub final_soc: Percent,
    /// Samples of the battery SoC during the session (1 per minute).
    pub soc_trace: Vec<f64>,
}

/// Charges the battery to `target_soc` with the given charger, stepping
/// at `dt`. Returns the session record; the battery is left at the final
/// SoC.
///
/// The CC→CV transition uses the pack's OCV plus the IR rise at the
/// charge current; during CV the current tapers toward the cutoff as the
/// OCV approaches the setpoint.
///
/// # Panics
///
/// Panics if `target_soc` is not above the current SoC, outside
/// `[0, 100]`, or `dt <= 0`.
#[must_use]
pub fn charge_to(
    battery: &mut Battery,
    charger: &Charger,
    target_soc: Percent,
    dt: Seconds,
) -> ChargeSession {
    let charger = charger.validated();
    assert!(dt.value() > 0.0, "charge step must be positive");
    assert!(
        (0.0..=100.0).contains(&target_soc.value()),
        "target soc must lie in [0, 100]"
    );
    assert!(
        target_soc.value() > battery.soc().value(),
        "target soc must exceed current soc"
    );

    let mut t = 0.0;
    let mut grid_j = 0.0;
    let mut soc_trace = vec![battery.soc().value()];
    let mut minute_acc = 0.0;
    // Hard cap: a pathological configuration cannot loop forever.
    let max_t = 48.0 * 3600.0;

    while battery.soc().value() < target_soc.value() && t < max_t {
        let voc = battery.open_circuit_voltage().value();
        let r = battery.params().internal_resistance.value();
        // CC phase: terminal voltage at full current.
        let v_cc = voc + charger.cc_current.value() * r;
        let current = if v_cc <= charger.cv_voltage.value() {
            charger.cc_current.value()
        } else {
            // CV phase: current set by the voltage gap.
            let i = if r > 0.0 {
                (charger.cv_voltage.value() - voc) / r
            } else {
                charger.cutoff_current.value()
            };
            if i <= charger.cutoff_current.value() {
                break; // taper complete
            }
            i.min(charger.cc_current.value())
        };
        // Negative power = charging, at the battery terminals.
        let terminal_v = voc + current * r;
        let p_batt = terminal_v * current;
        battery.step(Watts::new(-p_batt), dt);
        grid_j += p_batt / charger.efficiency * dt.value();
        t += dt.value();
        minute_acc += dt.value();
        if minute_acc >= 60.0 {
            soc_trace.push(battery.soc().value());
            minute_acc = 0.0;
        }
    }
    soc_trace.push(battery.soc().value());
    ChargeSession {
        duration: Seconds::new(t),
        grid_energy_kwh: grid_j / 3.6e6,
        final_soc: battery.soc(),
        soc_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatteryParams;

    fn depleted_battery() -> Battery {
        let mut b = Battery::new(BatteryParams::leaf_24kwh());
        b.reset_soc(Percent::new(20.0));
        b
    }

    #[test]
    fn level2_overnight_charge_is_plausible() {
        let mut b = depleted_battery();
        let session = charge_to(
            &mut b,
            &Charger::level2_6kw(),
            Percent::new(95.0),
            Seconds::new(10.0),
        );
        // 75 % of 66.7 Ah at 18 A ≈ 2.8 h of CC, plus taper.
        let hours = session.duration.value() / 3600.0;
        assert!(hours > 2.0 && hours < 6.0, "charge took {hours} h");
        assert!(session.final_soc.value() >= 94.9);
        // Grid energy exceeds the stored energy (efficiency + IR).
        assert!(
            session.grid_energy_kwh > 13.0,
            "{}",
            session.grid_energy_kwh
        );
    }

    #[test]
    fn soc_trace_is_monotone() {
        let mut b = depleted_battery();
        let session = charge_to(
            &mut b,
            &Charger::level2_6kw(),
            Percent::new(60.0),
            Seconds::new(10.0),
        );
        for w in session.soc_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn cv_taper_engages_near_the_top() {
        // Charging 90 → 99 %: OCV is high, so the session must spend time
        // in CV (average current below the CC setting).
        let mut b = Battery::new(BatteryParams::leaf_24kwh());
        b.reset_soc(Percent::new(90.0));
        let session = charge_to(
            &mut b,
            &Charger::level2_6kw(),
            Percent::new(99.0),
            Seconds::new(5.0),
        );
        // Coulombic efficiency alone caps the SoC-based average at
        // 0.95 · 18 = 17.1 A; the CV taper must push it clearly below.
        let ah_moved = 0.09 * 66.667;
        let avg_current = ah_moved / (session.duration.value() / 3600.0);
        assert!(
            avg_current < 16.8,
            "avg current {avg_current} A should show CV taper"
        );
    }

    #[test]
    #[should_panic(expected = "exceed current soc")]
    fn rejects_backward_target() {
        let mut b = depleted_battery();
        let _ = charge_to(
            &mut b,
            &Charger::level2_6kw(),
            Percent::new(10.0),
            Seconds::new(10.0),
        );
    }

    #[test]
    #[should_panic(expected = "cutoff must lie in (0, cc)")]
    fn rejects_bad_cutoff() {
        let c = Charger {
            cutoff_current: Amperes::new(99.0),
            ..Charger::level2_6kw()
        };
        let _ = c.validated();
    }
}
