//! Ablations of the MPC's design knobs: horizon length and the
//! battery-lifetime weight `w2` (the paper's Eq. 21 centerpiece).
//!
//! The paper motivates both: "the larger the control window, the more
//! variables there are to optimize and much more flexibility", and the
//! `w2(SoC − SoC_avg)²` term is what makes the controller *battery
//! lifetime-aware* at all. These ablations quantify each claim on the
//! ECE_EUDC hot-day scenario.

use ev_control::MpcWeights;
use ev_drive::DriveCycle;

use crate::Simulation;

use super::{experiment_params, format_table, profile_at, COMPARISON_AMBIENT_C};

/// One ablation configuration and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Human-readable configuration label.
    pub config: String,
    /// ΔSoH of the cycle (milli-percent).
    pub delta_soh_milli_percent: f64,
    /// Average HVAC power (kW).
    pub avg_hvac_kw: f64,
    /// Mean absolute temperature error after pull-in (K).
    pub mean_temp_error: f64,
    /// SoC deviation of the cycle (percent).
    pub soc_dev: f64,
}

/// Runs one MPC configuration on the standard ablation scenario.
fn run(config: &str, horizon: usize, weights: MpcWeights) -> AblationRow {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    let profile = profile_at(&DriveCycle::ece_eudc(), COMPARISON_AMBIENT_C);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    let mut mpc = params
        .mpc_builder()
        .horizon(horizon)
        .weights(weights)
        .build()
        .expect("valid config");
    let r = sim.run(&mut mpc);
    let m = r.metrics();
    AblationRow {
        config: config.to_owned(),
        delta_soh_milli_percent: m.delta_soh_milli_percent,
        avg_hvac_kw: m.avg_hvac_power.value(),
        mean_temp_error: m.mean_temp_error,
        soc_dev: m.soc_stats.dev,
    }
}

/// Horizon-length ablation: N ∈ {2, 4, 8, 12} prediction steps (8–48 s of
/// look-ahead at the 4 s prediction period).
#[must_use]
pub fn ablation_horizon() -> Vec<AblationRow> {
    [2usize, 4, 8, 12]
        .into_iter()
        .map(|n| run(&format!("horizon N={n}"), n, MpcWeights::default()))
        .collect()
}

/// Lifetime-weight ablation: w2 ∈ {0, default, 5× default}. With w2 = 0
/// the controller degenerates into a comfort/power MPC.
#[must_use]
pub fn ablation_w2() -> Vec<AblationRow> {
    let base = MpcWeights::default();
    [
        ("w2 = 0 (lifetime-blind)", 0.0),
        ("w2 = default", base.w2),
        ("w2 = 5x default", 5.0 * base.w2),
    ]
    .into_iter()
    .map(|(label, w2)| run(label, 8, MpcWeights { w2, ..base }))
    .collect()
}

/// Formats ablation rows as a text table.
#[must_use]
pub fn render_ablation(title: &str, rows: &[AblationRow]) -> String {
    let header: Vec<String> = [
        "configuration",
        "ΔSoH (m%)",
        "HVAC kW",
        "mean |ΔT| (K)",
        "SoC dev (%)",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                format!("{:.3}", r.delta_soh_milli_percent),
                format!("{:.3}", r.avg_hvac_kw),
                format!("{:.2}", r.mean_temp_error),
                format!("{:.3}", r.soc_dev),
            ]
        })
        .collect();
    format!("{title}\n{}", format_table(&header, &body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_horizon_does_not_hurt_soh() {
        // A 2-step window barely sees the next motor peak; 8 steps span
        // ~32 s. The ΔSoH with the longer window must be at least as good
        // (small tolerance for solver noise).
        let short = run("short", 2, MpcWeights::default());
        let long = run("long", 8, MpcWeights::default());
        assert!(
            long.delta_soh_milli_percent <= short.delta_soh_milli_percent * 1.02,
            "long {} vs short {}",
            long.delta_soh_milli_percent,
            short.delta_soh_milli_percent
        );
    }

    #[test]
    fn w2_reduces_soc_deviation() {
        // The paper's central knob: turning the lifetime term up must not
        // worsen the SoC deviation it penalizes.
        let blind = run(
            "blind",
            8,
            MpcWeights {
                w2: 0.0,
                ..MpcWeights::default()
            },
        );
        let heavy = run(
            "heavy",
            8,
            MpcWeights {
                w2: 5.0 * MpcWeights::default().w2,
                ..MpcWeights::default()
            },
        );
        assert!(
            heavy.soc_dev <= blind.soc_dev + 0.02,
            "heavy w2 dev {} vs blind {}",
            heavy.soc_dev,
            blind.soc_dev
        );
    }

    #[test]
    fn render_contains_configs() {
        let rows = vec![AblationRow {
            config: "horizon N=8".into(),
            delta_soh_milli_percent: 15.0,
            avg_hvac_kw: 1.0,
            mean_temp_error: 0.4,
            soc_dev: 0.8,
        }];
        let text = render_ablation("Ablation — horizon", &rows);
        assert!(text.contains("horizon N=8"));
        assert!(text.contains("15.000"));
    }
}
