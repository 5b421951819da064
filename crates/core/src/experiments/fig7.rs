//! Fig. 7 — SoH degradation comparison across drive profiles.

use crate::ControllerKind;

use super::format_table;
use super::sweep::SweepCell;

/// One drive profile's SoH-degradation comparison, normalized to the
/// On/Off controller = 100 % (the paper's y-axis).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Drive-profile name.
    pub profile: String,
    /// On/Off ΔSoH, normalized (always 100).
    pub onoff_pct: f64,
    /// Fuzzy ΔSoH as % of On/Off.
    pub fuzzy_pct: f64,
    /// MPC ΔSoH as % of On/Off.
    pub mpc_pct: f64,
    /// Absolute ΔSoH values in milli-percent (On/Off, fuzzy, MPC).
    pub absolute_milli_pct: (f64, f64, f64),
}

/// Projects the evaluation sweep into the Fig. 7 rows.
#[must_use]
pub fn fig7_from(cells: &[SweepCell]) -> Vec<Fig7Row> {
    let profiles: Vec<String> = {
        let mut seen = Vec::new();
        for c in cells {
            if !seen.contains(&c.profile) {
                seen.push(c.profile.clone());
            }
        }
        seen
    };
    profiles
        .into_iter()
        .map(|profile| {
            let get = |kind: ControllerKind| {
                super::sweep::find(cells, &profile, kind)
                    .expect("sweep contains every cell")
                    .result
                    .metrics()
                    .delta_soh_milli_percent
            };
            let onoff = get(ControllerKind::OnOff);
            let fuzzy = get(ControllerKind::Fuzzy);
            let mpc = get(ControllerKind::Mpc);
            Fig7Row {
                profile,
                onoff_pct: 100.0,
                fuzzy_pct: 100.0 * fuzzy / onoff,
                mpc_pct: 100.0 * mpc / onoff,
                absolute_milli_pct: (onoff, fuzzy, mpc),
            }
        })
        .collect()
}

/// The Fig. 7 headline: the MPC's ΔSoH improvement over On/Off, in
/// percent, averaged over the profiles.
#[must_use]
pub fn mean_soh_improvement_pct(rows: &[Fig7Row]) -> f64 {
    rows.iter().map(|r| 100.0 - r.mpc_pct).sum::<f64>() / rows.len() as f64
}

/// Formats the Fig. 7 rows as a text table.
#[must_use]
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let header: Vec<String> = [
        "Drive profile",
        "On/Off %",
        "Fuzzy %",
        "Ours %",
        "ΔSoH On/Off (m%)",
        "ΔSoH Fuzzy (m%)",
        "ΔSoH Ours (m%)",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.profile.clone(),
                format!("{:.1}", r.onoff_pct),
                format!("{:.1}", r.fuzzy_pct),
                format!("{:.1}", r.mpc_pct),
                format!("{:.3}", r.absolute_milli_pct.0),
                format!("{:.3}", r.absolute_milli_pct.1),
                format!("{:.3}", r.absolute_milli_pct.2),
            ]
        })
        .collect();
    format!(
        "Fig. 7 — SoH degradation per drive profile (% of On/Off)\n{}\naverage ΔSoH improvement vs On/Off: {:.1} % (paper: ~14 %)\n",
        format_table(&header, &body),
        mean_soh_improvement_pct(rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::evaluation_sweep_run;
    use ev_drive::DriveCycle;

    #[test]
    fn fig7_shape_on_reduced_sweep() {
        // One representative cycle keeps the test fast; the full sweep is
        // exercised by the repro binary and integration tests.
        let cells = evaluation_sweep_run(35.0, &[DriveCycle::ece_eudc()], false).into_cells();
        let rows = fig7_from(&cells);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.onoff_pct, 100.0);
        // The paper's headline: the lifetime-aware MPC degrades the
        // battery less than On/Off on every profile.
        assert!(r.mpc_pct < 100.0, "mpc {}", r.mpc_pct);
        // And no worse than fuzzy (the MPC additionally flattens SoC).
        assert!(
            r.mpc_pct <= r.fuzzy_pct + 1.0,
            "mpc {} fuzzy {}",
            r.mpc_pct,
            r.fuzzy_pct
        );
    }

    #[test]
    fn render_includes_summary_line() {
        let cells = evaluation_sweep_run(35.0, &[DriveCycle::ece15()], false).into_cells();
        let rows = fig7_from(&cells);
        let text = render_fig7(&rows);
        assert!(text.contains("average ΔSoH improvement"));
    }
}
