//! Preview-error robustness: how the MPC's advantage degrades when the
//! motor-power forecast is wrong.
//!
//! The paper assumes "the route information and the parameters of each
//! route segment … are known accurately before driving" (Section II-A).
//! Real traffic forecasts are noisy; this experiment corrupts the preview
//! with multiplicative noise and measures how gracefully the
//! lifetime-aware behavior decays toward the reactive baselines.

use ev_control::{ClimateController, ControlContext, PreviewSample};
use ev_drive::DriveCycle;
use ev_hvac::HvacInput;
use ev_units::Watts;

use crate::{ControllerKind, Simulation};

use super::{experiment_params, format_table, profile_at, COMPARISON_AMBIENT_C};

/// A controller adapter that corrupts the preview's motor-power forecast
/// with deterministic multiplicative noise before delegating.
///
/// Noise is a per-sample factor `1 + σ·u`, where `u` is a deterministic
/// pseudo-random value in [−1, 1] derived from the sample index and the
/// controller step — reproducible without threading an RNG through the
/// simulation.
pub struct NoisyPreview<C> {
    inner: C,
    sigma: f64,
    step: u64,
}

impl<C: ClimateController> NoisyPreview<C> {
    /// Wraps a controller with forecast noise of relative magnitude
    /// `sigma` (0 = exact preview).
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    #[must_use]
    pub fn new(inner: C, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "noise magnitude must be non-negative");
        Self {
            inner,
            sigma,
            step: 0,
        }
    }

    /// Deterministic pseudo-random value in [−1, 1] (splitmix64 hash).
    fn noise(&self, k: u64) -> f64 {
        let mut z = (self.step << 32)
            .wrapping_add(k)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

impl<C: ClimateController> ClimateController for NoisyPreview<C> {
    fn name(&self) -> &'static str {
        "noisy-preview"
    }

    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        self.step += 1;
        let corrupted: Vec<PreviewSample> = ctx
            .preview
            .iter()
            .enumerate()
            .map(|(k, s)| PreviewSample {
                motor_power: Watts::new(
                    s.motor_power.value() * (1.0 + self.sigma * self.noise(k as u64)),
                ),
                ..*s
            })
            .collect();
        let noisy_ctx = ControlContext {
            preview: &corrupted,
            ..ctx.clone()
        };
        self.inner.control(&noisy_ctx)
    }
}

/// One noise level's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Relative forecast-noise magnitude σ.
    pub sigma: f64,
    /// ΔSoH (milli-percent).
    pub delta_soh_milli_percent: f64,
    /// Average HVAC power (kW).
    pub avg_hvac_kw: f64,
    /// Worst comfort excursion (K).
    pub max_comfort_excursion: f64,
}

/// Sweeps forecast-noise levels for the MPC on the standard scenario.
///
/// # Panics
///
/// Panics only if built-in configurations fail to construct (they do
/// not).
#[must_use]
pub fn robustness_sweep() -> Vec<RobustnessRow> {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    let profile = profile_at(&DriveCycle::ece_eudc(), COMPARISON_AMBIENT_C);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    [0.0, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|sigma| {
            let inner = ControllerKind::Mpc
                .instantiate(&params)
                .expect("instantiates");
            let mut noisy = NoisyPreview::new(BoxedController(inner), sigma);
            let r = sim.run(&mut noisy);
            let m = r.metrics();
            RobustnessRow {
                sigma,
                delta_soh_milli_percent: m.delta_soh_milli_percent,
                avg_hvac_kw: m.avg_hvac_power.value(),
                max_comfort_excursion: m.max_comfort_excursion,
            }
        })
        .collect()
}

/// Adapter: a boxed controller as a concrete `ClimateController`.
struct BoxedController(Box<dyn ClimateController>);

impl ClimateController for BoxedController {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        self.0.control(ctx)
    }
    fn reset_session(&mut self) {
        self.0.reset_session();
    }
}

/// Formats the robustness sweep as a text table.
#[must_use]
pub fn render_robustness(rows: &[RobustnessRow]) -> String {
    let header: Vec<String> = [
        "forecast noise σ",
        "ΔSoH (m%)",
        "HVAC kW",
        "worst excursion (K)",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.sigma),
                format!("{:.3}", r.delta_soh_milli_percent),
                format!("{:.3}", r.avg_hvac_kw),
                format!("{:.2}", r.max_comfort_excursion),
            ]
        })
        .collect();
    format!(
        "Robustness — MPC under motor-power forecast noise (ECE_EUDC, 35 °C)\n{}",
        format_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_hvac::HvacState;
    use ev_units::{Celsius, Percent, Seconds};

    /// A controller that records the preview it saw.
    struct Recorder {
        seen: Vec<f64>,
    }
    impl ClimateController for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
            self.seen = ctx.preview.iter().map(|s| s.motor_power.value()).collect();
            HvacInput::idle(&ev_hvac::HvacParams::default(), ctx.state.tz)
        }
    }

    fn ctx(preview: &[PreviewSample]) -> ControlContext<'_> {
        ControlContext {
            state: HvacState::new(Celsius::new(24.0)),
            ambient: Celsius::new(30.0),
            solar: Watts::new(350.0),
            soc: Percent::new(90.0),
            soc_avg: 91.0,
            dt: Seconds::new(1.0),
            elapsed: Seconds::ZERO,
            preview,
        }
    }

    #[test]
    fn zero_sigma_passes_preview_through() {
        let preview = vec![
            PreviewSample {
                motor_power: Watts::new(10_000.0),
                ambient: Celsius::new(30.0),
                solar: Watts::new(350.0),
            };
            4
        ];
        let mut noisy = NoisyPreview::new(Recorder { seen: Vec::new() }, 0.0);
        let _ = noisy.control(&ctx(&preview));
        assert_eq!(noisy.inner.seen, vec![10_000.0; 4]);
    }

    #[test]
    fn noise_perturbs_within_bounds() {
        let preview = vec![
            PreviewSample {
                motor_power: Watts::new(10_000.0),
                ambient: Celsius::new(30.0),
                solar: Watts::new(350.0),
            };
            16
        ];
        let mut noisy = NoisyPreview::new(Recorder { seen: Vec::new() }, 0.5);
        let _ = noisy.control(&ctx(&preview));
        let mut any_changed = false;
        for &p in &noisy.inner.seen {
            assert!((5_000.0..=15_000.0).contains(&p), "out of ±50 %: {p}");
            if (p - 10_000.0).abs() > 1.0 {
                any_changed = true;
            }
        }
        assert!(any_changed, "noise must actually perturb");
    }

    #[test]
    fn noise_is_deterministic() {
        let preview = vec![
            PreviewSample {
                motor_power: Watts::new(20_000.0),
                ambient: Celsius::new(30.0),
                solar: Watts::new(350.0),
            };
            8
        ];
        let run = || {
            let mut noisy = NoisyPreview::new(Recorder { seen: Vec::new() }, 0.3);
            let _ = noisy.control(&ctx(&preview));
            noisy.inner.seen
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_sigma() {
        let _ = NoisyPreview::new(Recorder { seen: Vec::new() }, -0.1);
    }
}
