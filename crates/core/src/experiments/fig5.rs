//! Fig. 5 — cabin-temperature management of the three controllers.

use ev_drive::DriveCycle;

use crate::{ControllerKind, Simulation};

use super::{experiment_params, profile_at, COMPARISON_AMBIENT_C};

/// One controller's cabin-temperature trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Series {
    /// Which controller produced the trace.
    pub controller: ControllerKind,
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Cabin temperature (°C).
    pub cabin: Vec<f64>,
    /// Min/max cabin temperature after the initial pull-in.
    pub settled_band: (f64, f64),
}

/// Duration of the figure's time axis (the paper plots 0–1000 s).
const WINDOW_S: usize = 1000;
/// Pull-in time excluded from the settled-band statistic.
const PULL_IN_S: usize = 300;

/// Runs the Fig. 5 comparison: the first 1000 s of the NEDC at the
/// comparison ambient, starting from a cabin pre-conditioned near the
/// target (the paper's traces start settled).
///
/// # Panics
///
/// Panics only if built-in simulations fail to construct (they do not).
#[must_use]
pub fn fig5() -> Vec<Fig5Series> {
    let mut params = experiment_params();
    // The paper's Fig. 5 shows the *settled* regulation behavior, so
    // start at the target rather than heat-soaked.
    params.initial_cabin = Some(params.target);
    let profile = profile_at(&DriveCycle::nedc(), COMPARISON_AMBIENT_C);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    ControllerKind::paper_lineup()
        .into_iter()
        .map(|kind| {
            let mut controller = kind.instantiate(&params).expect("instantiates");
            let result = sim.run(controller.as_mut());
            let n = WINDOW_S.min(result.series.t.len());
            let t = result.series.t[..n].to_vec();
            let cabin = result.series.cabin[..n].to_vec();
            let settled = &cabin[PULL_IN_S.min(n - 1)..];
            let lo = settled.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = settled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Fig5Series {
                controller: kind,
                t,
                cabin,
                settled_band: (lo, hi),
            }
        })
        .collect()
}

/// Formats the Fig. 5 comparison: settled bands plus an ASCII chart of
/// the three traces (the paper's actual figure form).
#[must_use]
pub fn render_fig5(series: &[Fig5Series]) -> String {
    let mut out = String::from("Fig. 5 — cabin temperature management (NEDC, 35 °C ambient)\n");
    for s in series {
        out.push_str(&format!(
            "{:<28} settled band {:.2}–{:.2} °C (swing {:.2} K)\n",
            s.controller.label(),
            s.settled_band.0,
            s.settled_band.1,
            s.settled_band.1 - s.settled_band.0,
        ));
    }
    out.push_str("\ncabin temperature (°C) vs time (x spans 0–1000 s):\n");
    let charted: Vec<(&str, &[f64])> = series
        .iter()
        .map(|s| {
            let name = match s.controller {
                crate::ControllerKind::OnOff => "On/Off",
                crate::ControllerKind::Fuzzy => "Fuzzy",
                _ => "Ours (MPC)",
            };
            (name, s.cabin.as_slice())
        })
        .collect();
    out.push_str(&super::ascii_chart(&charted, 72, 14));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_controller_ordering_matches_paper() {
        let series = fig5();
        assert_eq!(series.len(), 3);
        let swing = |kind: ControllerKind| {
            let s = series
                .iter()
                .find(|s| s.controller == kind)
                .expect("present");
            s.settled_band.1 - s.settled_band.0
        };
        let onoff = swing(ControllerKind::OnOff);
        let fuzzy = swing(ControllerKind::Fuzzy);
        let mpc = swing(ControllerKind::Mpc);
        // Paper Fig. 5: On/Off fluctuates the most; fuzzy and MPC hold a
        // sub-kelvin band.
        assert!(onoff > 1.0, "on/off swing {onoff}");
        assert!(fuzzy < onoff, "fuzzy {fuzzy} vs onoff {onoff}");
        assert!(mpc < onoff, "mpc {mpc} vs onoff {onoff}");
        assert!(fuzzy < 1.0, "fuzzy band {fuzzy}");
        // Everyone stays inside the comfort zone.
        for s in &series {
            assert!(s.settled_band.0 > 21.0 && s.settled_band.1 < 27.0, "{s:?}");
        }
    }

    #[test]
    fn render_lists_all_controllers() {
        let series = fig5();
        let text = render_fig5(&series);
        assert!(text.contains("On/Off"));
        assert!(text.contains("Fuzzy"));
        assert!(text.contains("Lifetime"));
    }
}
