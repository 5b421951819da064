//! Fig. 8 — average HVAC power comparison across drive profiles.

use crate::ControllerKind;

use super::format_table;
use super::sweep::SweepCell;

/// One drive profile's average-HVAC-power comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Drive-profile name.
    pub profile: String,
    /// On/Off average HVAC power (kW).
    pub onoff_kw: f64,
    /// Fuzzy average HVAC power (kW).
    pub fuzzy_kw: f64,
    /// MPC average HVAC power (kW).
    pub mpc_kw: f64,
}

/// Projects the evaluation sweep into the Fig. 8 rows.
#[must_use]
pub fn fig8_from(cells: &[SweepCell]) -> Vec<Fig8Row> {
    let mut profiles: Vec<String> = Vec::new();
    for c in cells {
        if !profiles.contains(&c.profile) {
            profiles.push(c.profile.clone());
        }
    }
    profiles
        .into_iter()
        .map(|profile| {
            let get = |kind: ControllerKind| {
                super::sweep::find(cells, &profile, kind)
                    .expect("sweep contains every cell")
                    .result
                    .metrics()
                    .avg_hvac_power
                    .value()
            };
            Fig8Row {
                onoff_kw: get(ControllerKind::OnOff),
                fuzzy_kw: get(ControllerKind::Fuzzy),
                mpc_kw: get(ControllerKind::Mpc),
                profile,
            }
        })
        .collect()
}

/// The Fig. 8 headline: the MPC's average-HVAC-power reduction, in
/// percent of the baseline's power, averaged over the profiles —
/// `(vs On/Off, vs fuzzy)`.
#[must_use]
pub fn mean_hvac_reduction_pct(rows: &[Fig8Row]) -> (f64, f64) {
    let mean = |baseline: fn(&Fig8Row) -> f64| {
        rows.iter()
            .map(|r| 100.0 * (baseline(r) - r.mpc_kw) / baseline(r))
            .sum::<f64>()
            / rows.len() as f64
    };
    (mean(|r| r.onoff_kw), mean(|r| r.fuzzy_kw))
}

/// Formats the Fig. 8 rows as a text table.
#[must_use]
pub fn render_fig8(rows: &[Fig8Row]) -> String {
    let header: Vec<String> = ["Drive profile", "On/Off kW", "Fuzzy kW", "Ours kW"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.profile.clone(),
                format!("{:.3}", r.onoff_kw),
                format!("{:.3}", r.fuzzy_kw),
                format!("{:.3}", r.mpc_kw),
            ]
        })
        .collect();
    let (avg_vs_onoff, avg_vs_fuzzy) = mean_hvac_reduction_pct(rows);
    format!(
        "Fig. 8 — average HVAC power per drive profile\n{}\naverage reduction vs On/Off: {:.1} % (paper: ~39 %); vs fuzzy: {:.1} % (paper: ~6 %)\n",
        format_table(&header, &body),
        avg_vs_onoff,
        avg_vs_fuzzy
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::evaluation_sweep_run;
    use ev_drive::DriveCycle;

    #[test]
    fn fig8_shape_on_reduced_sweep() {
        let cells = evaluation_sweep_run(35.0, &[DriveCycle::ece_eudc()], false).into_cells();
        let rows = fig8_from(&cells);
        let r = &rows[0];
        // Paper Fig. 8 ordering: On/Off ≥ fuzzy ≥ ours.
        assert!(
            r.onoff_kw > r.fuzzy_kw,
            "onoff {} fuzzy {}",
            r.onoff_kw,
            r.fuzzy_kw
        );
        assert!(
            r.mpc_kw <= r.fuzzy_kw * 1.05,
            "mpc {} fuzzy {}",
            r.mpc_kw,
            r.fuzzy_kw
        );
        assert!(
            r.mpc_kw < r.onoff_kw,
            "mpc {} onoff {}",
            r.mpc_kw,
            r.onoff_kw
        );
        // Everything is in a physically plausible band (< 6 kW cap).
        for v in [r.onoff_kw, r.fuzzy_kw, r.mpc_kw] {
            assert!(v > 0.0 && v < 6.0, "power {v}");
        }
    }

    #[test]
    fn render_includes_reduction_summary() {
        let cells = evaluation_sweep_run(35.0, &[DriveCycle::ece15()], false).into_cells();
        let text = render_fig8(&fig8_from(&cells));
        assert!(text.contains("reduction vs On/Off"));
    }
}
