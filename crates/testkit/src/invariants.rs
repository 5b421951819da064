//! Physics-invariant checkers over step-level simulation traces.
//!
//! Every check is a statement that must hold for *any* correct
//! controller/plant pairing, independent of calibration: SoC stays in
//! bounds and only rises under regeneration, the BMS-metered power
//! decomposes into motor + HVAC + accessories, the cabin stays inside
//! the envelope the actuators can physically reach, and the HVAC never
//! exceeds the power caps of the paper's constraint set C1–C10.
//!
//! The checks run *online* through [`InvariantObserver`] (an
//! [`ev_core::StepObserver`]), so attaching one to a simulation or a
//! sweep cell validates every step of the run, or *offline* over a
//! recorded trace via [`check_trace`].

use ev_core::{EvParams, SimulationResult, StepObserver, StepRecord};
use serde::{Deserialize, Serialize};

/// Tolerances and physical envelopes the invariants are checked against,
/// derived from the simulated vehicle's parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InvariantConfig {
    /// Lower SoC bound (%).
    pub soc_min: f64,
    /// Upper SoC bound (%).
    pub soc_max: f64,
    /// Heating-coil power cap (W, C8).
    pub max_heating_power: f64,
    /// Cooling-coil power cap (W, C9).
    pub max_cooling_power: f64,
    /// Fan power cap (W, C10).
    pub max_fan_power: f64,
    /// Supply-flow lower bound (kg/s, C1).
    pub min_flow: f64,
    /// Supply-flow upper bound (kg/s, C1).
    pub max_flow: f64,
    /// Recirculation upper bound (C7).
    pub max_recirculation: f64,
    /// Coldest coil the evaporator can produce (°C, C5).
    pub min_coil_temp: f64,
    /// Hottest supply air the heater can produce (°C, C6).
    pub max_supply_temp: f64,
    /// BMS discharge clamp (W).
    pub max_discharge_power: f64,
    /// BMS charge (regeneration) clamp (W).
    pub max_charge_power: f64,
    /// Constant accessory power (W).
    pub accessory_power: f64,
    /// Slack below the coldest actuator-reachable cabin temperature (K).
    pub cabin_margin_k: f64,
    /// Slack above ambient for a solar-soaked, unconditioned cabin (K).
    pub solar_soak_margin_k: f64,
    /// Absolute tolerance on the per-step power decomposition (W).
    pub power_tol_w: f64,
    /// Absolute tolerance on coil/fan power caps (W).
    pub cap_tol_w: f64,
    /// Relative tolerance on the cumulative energy bookkeeping.
    pub energy_rel_tol: f64,
    /// Numerical slack on SoC monotonicity (%).
    pub soc_eps: f64,
}

impl InvariantConfig {
    /// Derives the envelopes from the vehicle parameters (BMS clamps are
    /// the `ev_battery::Bms` defaults).
    #[must_use]
    pub fn from_params(params: &EvParams) -> Self {
        Self {
            soc_min: 0.0,
            soc_max: 100.0,
            max_heating_power: params.hvac.max_heating_power.value(),
            max_cooling_power: params.hvac.max_cooling_power.value(),
            max_fan_power: params.hvac.max_fan_power.value(),
            min_flow: params.hvac.min_flow.value(),
            max_flow: params.hvac.max_flow.value(),
            max_recirculation: params.hvac.max_recirculation,
            min_coil_temp: params.hvac.min_coil_temp.value(),
            max_supply_temp: params.hvac.max_supply_temp.value(),
            max_discharge_power: 90_000.0,
            max_charge_power: 50_000.0,
            accessory_power: params.accessory_power.value(),
            cabin_margin_k: 2.0,
            solar_soak_margin_k: 20.0,
            power_tol_w: 1e-6,
            cap_tol_w: 1.0,
            energy_rel_tol: 1e-9,
            soc_eps: 1e-9,
        }
    }
}

impl Default for InvariantConfig {
    fn default() -> Self {
        Self::from_params(&EvParams::nissan_leaf_like())
    }
}

/// One violated physics invariant, anchored to the step that broke it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvariantViolation {
    /// SoC left `[soc_min, soc_max]`.
    SocOutOfBounds {
        /// Offending step.
        step: usize,
        /// Offending SoC (%).
        soc: f64,
    },
    /// SoC increased while the battery was discharging.
    SocRoseWithoutRegen {
        /// Offending step.
        step: usize,
        /// SoC before the step (%).
        from: f64,
        /// SoC after the step (%).
        to: f64,
        /// Battery power of the step (W, positive = discharge).
        battery_power: f64,
    },
    /// The metered battery power does not decompose into
    /// motor + HVAC + accessories (after the BMS clamp).
    PowerDecomposition {
        /// Offending step.
        step: usize,
        /// Metered battery power (W).
        metered: f64,
        /// Clamped sum of the component powers (W).
        expected: f64,
    },
    /// The integral of the component powers disagrees with the
    /// BMS-metered energy over the whole trace.
    EnergyBookkeeping {
        /// ∫ battery power dt (J).
        metered_j: f64,
        /// ∫ clamp(motor + HVAC + accessories) dt (J).
        expected_j: f64,
    },
    /// Cabin temperature left the actuator-reachable envelope.
    CabinUnreachable {
        /// Offending step.
        step: usize,
        /// Offending cabin temperature (°C).
        cabin: f64,
        /// Envelope lower bound at that step (°C).
        lo: f64,
        /// Envelope upper bound at that step (°C).
        hi: f64,
    },
    /// An HVAC channel exceeded its envelope (C1, C7–C10).
    HvacEnvelope {
        /// Offending step.
        step: usize,
        /// Which channel (`"heating"`, `"cooling"`, `"fan"`, `"flow"`,
        /// `"recirculation"`).
        channel: String,
        /// Observed value.
        value: f64,
        /// Allowed bound.
        bound: f64,
    },
    /// The sample timebase is not uniform.
    NonUniformTime {
        /// Offending step.
        step: usize,
        /// Observed time delta (s).
        observed_dt: f64,
        /// Declared sample period (s).
        expected_dt: f64,
    },
    /// The assembled result disagrees with the observed stream.
    ResultMismatch {
        /// What disagreed.
        what: String,
        /// Value from the result.
        result: f64,
        /// Value from the observed stream.
        observed: f64,
    },
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::SocOutOfBounds { step, soc } => {
                write!(f, "step {step}: SoC {soc} % out of bounds")
            }
            Self::SocRoseWithoutRegen {
                step,
                from,
                to,
                battery_power,
            } => write!(
                f,
                "step {step}: SoC rose {from} → {to} % while discharging at {battery_power} W"
            ),
            Self::PowerDecomposition {
                step,
                metered,
                expected,
            } => write!(
                f,
                "step {step}: battery power {metered} W != motor+HVAC+accessories {expected} W"
            ),
            Self::EnergyBookkeeping {
                metered_j,
                expected_j,
            } => write!(
                f,
                "cycle energy mismatch: metered {metered_j} J vs component integral {expected_j} J"
            ),
            Self::CabinUnreachable {
                step,
                cabin,
                lo,
                hi,
            } => write!(
                f,
                "step {step}: cabin {cabin} °C outside actuator-reachable [{lo}, {hi}] °C"
            ),
            Self::HvacEnvelope {
                step,
                channel,
                value,
                bound,
            } => write!(
                f,
                "step {step}: HVAC {channel} = {value} beyond envelope bound {bound}"
            ),
            Self::NonUniformTime {
                step,
                observed_dt,
                expected_dt,
            } => write!(
                f,
                "step {step}: time delta {observed_dt} s != sample period {expected_dt} s"
            ),
            Self::ResultMismatch {
                what,
                result,
                observed,
            } => write!(
                f,
                "result/{what}: {result} disagrees with observed stream {observed}"
            ),
        }
    }
}

/// Outcome of an invariant pass: how many violations occurred and the
/// first few, verbatim.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InvariantReport {
    /// Profile the trace came from (empty if unknown).
    pub profile: String,
    /// Controller that drove it (empty if unknown).
    pub controller: String,
    /// Steps checked.
    pub steps: usize,
    /// Total violations (recorded + dropped).
    pub total: usize,
    /// The first violations, up to [`InvariantObserver::MAX_RECORDED`].
    pub recorded: Vec<InvariantViolation>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Panics with the full report if any invariant was violated — the
    /// one-liner for tests.
    ///
    /// # Panics
    ///
    /// Panics when the report is not clean.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{self}");
    }
}

impl core::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "invariants clean over {} steps ({} × {})",
                self.steps, self.profile, self.controller
            );
        }
        writeln!(
            f,
            "{} invariant violation(s) over {} steps ({} × {}):",
            self.total, self.steps, self.profile, self.controller
        )?;
        for v in &self.recorded {
            writeln!(f, "  - {v}")?;
        }
        if self.total > self.recorded.len() {
            writeln!(f, "  … and {} more", self.total - self.recorded.len())?;
        }
        Ok(())
    }
}

/// A [`StepObserver`] that checks every physics invariant online and
/// accumulates a report.
#[derive(Debug, Clone)]
pub struct InvariantObserver {
    config: InvariantConfig,
    report: InvariantReport,
    prev_soc: Option<f64>,
    prev_t: Option<f64>,
    /// ∫ metered battery power dt (J).
    metered_j: f64,
    /// ∫ clamp(component sum) dt (J).
    expected_j: f64,
    /// ∫ max(battery power, 0) dt (J) — the result's energy metric.
    drained_j: f64,
    last_soc: f64,
}

impl InvariantObserver {
    /// How many violations are kept verbatim; the rest only count.
    pub const MAX_RECORDED: usize = 16;

    /// Creates an observer with the given envelopes.
    #[must_use]
    pub fn new(config: InvariantConfig) -> Self {
        Self {
            config,
            report: InvariantReport::default(),
            prev_soc: None,
            prev_t: None,
            metered_j: 0.0,
            expected_j: 0.0,
            drained_j: 0.0,
            last_soc: f64::NAN,
        }
    }

    /// Creates an observer with envelopes derived from `params`.
    #[must_use]
    pub fn for_params(params: &EvParams) -> Self {
        Self::new(InvariantConfig::from_params(params))
    }

    fn push(&mut self, v: InvariantViolation) {
        self.report.total += 1;
        if self.report.recorded.len() < Self::MAX_RECORDED {
            self.report.recorded.push(v);
        }
    }

    /// The report accumulated so far (complete after `on_finish`).
    #[must_use]
    pub fn report(&self) -> &InvariantReport {
        &self.report
    }

    /// Consumes the observer, returning the report.
    #[must_use]
    pub fn into_report(self) -> InvariantReport {
        self.report
    }
}

impl StepObserver for InvariantObserver {
    fn on_start(&mut self, profile: &str, controller: &str, _steps: usize) {
        self.report = InvariantReport {
            profile: profile.to_owned(),
            controller: controller.to_owned(),
            ..InvariantReport::default()
        };
        self.prev_soc = None;
        self.prev_t = None;
        self.metered_j = 0.0;
        self.expected_j = 0.0;
        self.drained_j = 0.0;
    }

    fn on_step(&mut self, r: &StepRecord) {
        let c = self.config;
        self.report.steps += 1;
        let step = r.step;

        // SoC bounded in [soc_min, soc_max].
        if !(c.soc_min..=c.soc_max).contains(&r.soc) || !r.soc.is_finite() {
            self.push(InvariantViolation::SocOutOfBounds { step, soc: r.soc });
        }
        // SoC non-increasing during discharge: it may only rise when the
        // metered power is charging the pack (regeneration).
        if let Some(prev) = self.prev_soc {
            if r.soc > prev + c.soc_eps && r.battery_power >= 0.0 {
                self.push(InvariantViolation::SocRoseWithoutRegen {
                    step,
                    from: prev,
                    to: r.soc,
                    battery_power: r.battery_power,
                });
            }
        }
        self.prev_soc = Some(r.soc);
        self.last_soc = r.soc;

        // Per-step power decomposition through the BMS clamp.
        let expected = r
            .plant_power()
            .clamp(-c.max_charge_power, c.max_discharge_power);
        if (r.battery_power - expected).abs() > c.power_tol_w {
            self.push(InvariantViolation::PowerDecomposition {
                step,
                metered: r.battery_power,
                expected,
            });
        }
        self.metered_j += r.battery_power * r.dt;
        self.expected_j += expected * r.dt;
        self.drained_j += r.battery_power.max(0.0) * r.dt;

        // Cabin inside the actuator-reachable envelope: nothing on board
        // can push the air below the coldest coil (or below a colder
        // ambient), nor above the hottest supply air (or above a
        // solar-soaked ambient).
        let lo = c.min_coil_temp.min(r.ambient) - c.cabin_margin_k;
        let hi = c.max_supply_temp.max(r.ambient + c.solar_soak_margin_k);
        if !(lo..=hi).contains(&r.cabin_temp) {
            self.push(InvariantViolation::CabinUnreachable {
                step,
                cabin: r.cabin_temp,
                lo,
                hi,
            });
        }

        // HVAC envelopes (C1, C7–C10 of the paper's constraint set).
        let checks: [(&str, f64, f64, f64); 5] = [
            (
                "heating",
                r.heating_power,
                -c.cap_tol_w,
                c.max_heating_power + c.cap_tol_w,
            ),
            (
                "cooling",
                r.cooling_power,
                -c.cap_tol_w,
                c.max_cooling_power + c.cap_tol_w,
            ),
            (
                "fan",
                r.fan_power,
                -c.cap_tol_w,
                c.max_fan_power + c.cap_tol_w,
            ),
            ("flow", r.flow, c.min_flow - 1e-9, c.max_flow + 1e-9),
            (
                "recirculation",
                r.recirculation,
                -1e-9,
                c.max_recirculation + 1e-9,
            ),
        ];
        for (channel, value, lo, hi) in checks {
            if !(lo..=hi).contains(&value) {
                self.push(InvariantViolation::HvacEnvelope {
                    step,
                    channel: channel.to_owned(),
                    value,
                    bound: if value < lo { lo } else { hi },
                });
            }
        }

        // Uniform timebase.
        if let Some(prev_t) = self.prev_t {
            let observed_dt = r.t - prev_t;
            if (observed_dt - r.dt).abs() > 1e-9 {
                self.push(InvariantViolation::NonUniformTime {
                    step,
                    observed_dt,
                    expected_dt: r.dt,
                });
            }
        }
        self.prev_t = Some(r.t);
    }

    fn on_finish(&mut self, result: &SimulationResult) {
        let c = self.config;
        // Whole-cycle energy bookkeeping: the BMS-metered integral must
        // match the component integral.
        let scale = self.metered_j.abs().max(1.0);
        if (self.metered_j - self.expected_j).abs() > c.energy_rel_tol * scale + 1e-3 {
            self.push(InvariantViolation::EnergyBookkeeping {
                metered_j: self.metered_j,
                expected_j: self.expected_j,
            });
        }
        // The assembled result must agree with the observed stream.
        if result.series.t.len() != self.report.steps {
            self.push(InvariantViolation::ResultMismatch {
                what: "series length".to_owned(),
                result: result.series.t.len() as f64,
                observed: self.report.steps as f64,
            });
        }
        let energy_kwh = self.drained_j / 3.6e6;
        if (result.metrics().energy.value() - energy_kwh).abs() > 1e-9 {
            self.push(InvariantViolation::ResultMismatch {
                what: "energy".to_owned(),
                result: result.metrics().energy.value(),
                observed: energy_kwh,
            });
        }
        if (result.metrics().final_soc - self.last_soc).abs() > 1e-12 {
            self.push(InvariantViolation::ResultMismatch {
                what: "final SoC".to_owned(),
                result: result.metrics().final_soc,
                observed: self.last_soc,
            });
        }
    }
}

/// Replays a recorded trace through an [`InvariantObserver`] (offline
/// variant of attaching the observer to the run; the result-consistency
/// checks are skipped because no result is available).
#[must_use]
pub fn check_trace(config: InvariantConfig, records: &[StepRecord]) -> InvariantReport {
    let mut obs = InvariantObserver::new(config);
    obs.on_start("", "", records.len());
    for r in records {
        obs.on_step(r);
    }
    // Run the cumulative energy check without a result.
    let scale = obs.metered_j.abs().max(1.0);
    if (obs.metered_j - obs.expected_j).abs() > config.energy_rel_tol * scale + 1e-3 {
        let (metered_j, expected_j) = (obs.metered_j, obs.expected_j);
        obs.push(InvariantViolation::EnergyBookkeeping {
            metered_j,
            expected_j,
        });
    }
    obs.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::ControllerMode;

    fn sane_record(k: usize) -> StepRecord {
        StepRecord {
            step: k,
            t: k as f64,
            dt: 1.0,
            motor_power: 8_000.0,
            heating_power: 0.0,
            cooling_power: 2_000.0,
            fan_power: 100.0,
            accessory_power: 300.0,
            battery_power: 10_400.0,
            soc: 95.0 - 0.001 * k as f64,
            cabin_temp: 25.0,
            pack_temp: 32.0,
            ambient: 35.0,
            solar: 400.0,
            supply_temp: 12.0,
            coil_temp: 12.0,
            recirculation: 0.6,
            flow: 0.15,
            mode: ControllerMode::Cooling,
        }
    }

    fn trace(n: usize) -> Vec<StepRecord> {
        (0..n).map(sane_record).collect()
    }

    #[test]
    fn clean_trace_passes() {
        let report = check_trace(InvariantConfig::default(), &trace(50));
        assert!(report.is_clean(), "{report}");
        report.assert_clean();
        assert_eq!(report.steps, 50);
    }

    #[test]
    fn soc_bound_violation_is_caught() {
        let mut t = trace(5);
        t[3].soc = 101.0;
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(report
            .recorded
            .iter()
            .any(|v| matches!(v, InvariantViolation::SocOutOfBounds { step: 3, .. })));
    }

    #[test]
    fn soc_rise_without_regen_is_caught() {
        let mut t = trace(5);
        t[2].soc = 96.0; // rises while discharging at +10.4 kW
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(report
            .recorded
            .iter()
            .any(|v| matches!(v, InvariantViolation::SocRoseWithoutRegen { step: 2, .. })));
    }

    #[test]
    fn soc_rise_with_regen_is_fine() {
        let mut t = trace(5);
        t[2].battery_power = -4_000.0;
        t[2].motor_power = -6_400.0;
        t[2].soc = 95.01;
        // Restore monotonicity afterwards.
        t[3].soc = 95.0;
        t[4].soc = 94.99;
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(
            !report
                .recorded
                .iter()
                .any(|v| matches!(v, InvariantViolation::SocRoseWithoutRegen { .. })),
            "{report}"
        );
    }

    #[test]
    fn power_decomposition_violation_is_caught() {
        let mut t = trace(5);
        t[1].battery_power += 50.0; // no longer motor+hvac+accessories
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(report
            .recorded
            .iter()
            .any(|v| matches!(v, InvariantViolation::PowerDecomposition { step: 1, .. })));
        // The cumulative bookkeeping also drifts by 50 J > 1 mJ + rel.
        assert!(report
            .recorded
            .iter()
            .any(|v| matches!(v, InvariantViolation::EnergyBookkeeping { .. })));
    }

    #[test]
    fn bms_clamped_power_decomposes_cleanly() {
        let mut t = trace(5);
        // 100 kW requested, BMS clamps at 90 kW: still a clean step.
        t[2].motor_power = 97_600.0;
        t[2].battery_power = 90_000.0;
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(
            !report
                .recorded
                .iter()
                .any(|v| matches!(v, InvariantViolation::PowerDecomposition { .. })),
            "{report}"
        );
    }

    #[test]
    fn unreachable_cabin_is_caught() {
        let mut t = trace(5);
        t[4].cabin_temp = -30.0; // colder than any coil
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(report
            .recorded
            .iter()
            .any(|v| matches!(v, InvariantViolation::CabinUnreachable { step: 4, .. })));
    }

    #[test]
    fn hvac_envelope_violations_are_caught_per_channel() {
        let config = InvariantConfig::default();
        for (mutate, channel) in [
            (
                (|r: &mut StepRecord| r.heating_power = 1e5) as fn(&mut StepRecord),
                "heating",
            ),
            (|r: &mut StepRecord| r.cooling_power = 1e5, "cooling"),
            (|r: &mut StepRecord| r.fan_power = 1e5, "fan"),
            (|r: &mut StepRecord| r.flow = 9.0, "flow"),
            (|r: &mut StepRecord| r.recirculation = 1.5, "recirculation"),
        ] {
            let mut t = trace(3);
            mutate(&mut t[1]);
            // Keep the decomposition consistent so only the envelope fires.
            t[1].battery_power = t[1]
                .plant_power()
                .clamp(-config.max_charge_power, config.max_discharge_power);
            let report = check_trace(config, &t);
            assert!(
                report.recorded.iter().any(|v| matches!(
                    v,
                    InvariantViolation::HvacEnvelope { channel: c, .. } if c == channel
                )),
                "expected {channel} violation: {report}"
            );
        }
    }

    #[test]
    fn non_uniform_time_is_caught() {
        let mut t = trace(5);
        t[3].t += 0.5;
        let report = check_trace(InvariantConfig::default(), &t);
        assert!(report
            .recorded
            .iter()
            .any(|v| matches!(v, InvariantViolation::NonUniformTime { .. })));
    }

    #[test]
    fn report_caps_recorded_violations() {
        let mut t = trace(100);
        for r in &mut t {
            r.soc = 150.0;
        }
        let report = check_trace(InvariantConfig::default(), &t);
        assert_eq!(report.recorded.len(), InvariantObserver::MAX_RECORDED);
        assert!(report.total >= 100);
        let text = report.to_string();
        assert!(text.contains("more"), "{text}");
    }

    #[test]
    fn violations_render_and_round_trip() {
        let v = InvariantViolation::SocOutOfBounds {
            step: 7,
            soc: 120.0,
        };
        assert!(v.to_string().contains("step 7"));
        let json = serde_json::to_string(&v).unwrap();
        let back: InvariantViolation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
