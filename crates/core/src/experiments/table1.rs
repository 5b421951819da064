//! Table I — HVAC power consumption and SoH degradation for different
//! ambient temperatures.

use ev_drive::DriveCycle;

use crate::ControllerKind;

use super::format_table;
use super::sweep::{evaluation_sweep_run, find};

/// One ambient-temperature row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// On/Off average HVAC power (kW).
    pub onoff_kw: f64,
    /// Fuzzy average HVAC power (kW).
    pub fuzzy_kw: f64,
    /// MPC average HVAC power (kW).
    pub mpc_kw: f64,
    /// ΔSoH improvement of the MPC vs On/Off (%).
    pub soh_improvement_vs_onoff_pct: f64,
    /// ΔSoH improvement of the MPC vs fuzzy (%).
    pub soh_improvement_vs_fuzzy_pct: f64,
}

/// The paper's Table I ambient sweep (°C).
pub const TABLE1_AMBIENTS: [f64; 6] = [43.0, 35.0, 32.0, 21.0, 10.0, 0.0];

/// Runs Table I: the ECE_EUDC profile at each ambient temperature,
/// comparing average HVAC power and ΔSoH across the three controllers.
///
/// # Panics
///
/// Panics only if built-in simulations fail to construct (they do not).
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    TABLE1_AMBIENTS
        .iter()
        .map(|&ambient_c| table1_row(ambient_c))
        .collect()
}

/// Runs a single ambient-temperature row of Table I.
///
/// # Panics
///
/// Panics if a cell of the row's sweep fails, naming it.
#[must_use]
pub fn table1_row(ambient_c: f64) -> Table1Row {
    let cells = evaluation_sweep_run(ambient_c, &[DriveCycle::ece_eudc()], false).into_cells();
    let metric = |kind: ControllerKind| {
        let m = find(&cells, "ECE_EUDC", kind)
            .expect("sweep contains every cell")
            .result
            .metrics();
        (m.avg_hvac_power.value(), m.delta_soh_milli_percent)
    };
    let (onoff_kw, onoff_soh) = metric(ControllerKind::OnOff);
    let (fuzzy_kw, fuzzy_soh) = metric(ControllerKind::Fuzzy);
    let (mpc_kw, mpc_soh) = metric(ControllerKind::Mpc);
    Table1Row {
        ambient_c,
        onoff_kw,
        fuzzy_kw,
        mpc_kw,
        soh_improvement_vs_onoff_pct: 100.0 * (onoff_soh - mpc_soh) / onoff_soh,
        soh_improvement_vs_fuzzy_pct: 100.0 * (fuzzy_soh - mpc_soh) / fuzzy_soh,
    }
}

/// Formats Table I as a text table.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let header: Vec<String> = [
        "Ambient (°C)",
        "On/Off kW",
        "Fuzzy kW",
        "Ours kW",
        "SoH impr vs On/Off (%)",
        "SoH impr vs Fuzzy (%)",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.ambient_c),
                format!("{:.2}", r.onoff_kw),
                format!("{:.2}", r.fuzzy_kw),
                format!("{:.2}", r.mpc_kw),
                format!("{:.2}", r.soh_improvement_vs_onoff_pct),
                format!("{:.2}", r.soh_improvement_vs_fuzzy_pct),
            ]
        })
        .collect();
    format!(
        "Table I — HVAC power and SoH improvement vs ambient temperature (ECE_EUDC)\n{}",
        format_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_hot_row_shape() {
        // One hot row (43 °C): heavy HVAC load, clear improvement.
        let r = table1_row(43.0);
        assert!(r.onoff_kw > r.mpc_kw, "{r:?}");
        assert!(r.onoff_kw > 2.0, "hot HVAC load should be kWs: {r:?}");
        assert!(r.soh_improvement_vs_onoff_pct > 0.0, "{r:?}");
    }

    #[test]
    fn table1_mild_row_has_lowest_power() {
        // At 21 °C the HVAC barely works (paper: 0.9/0.58/0.29 kW).
        let mild = table1_row(21.0);
        let hot = table1_row(43.0);
        assert!(mild.onoff_kw < hot.onoff_kw);
        assert!(mild.mpc_kw < 1.5, "mild MPC power {}", mild.mpc_kw);
    }

    #[test]
    fn render_has_all_columns() {
        let rows = vec![Table1Row {
            ambient_c: 0.0,
            onoff_kw: 6.0,
            fuzzy_kw: 5.0,
            mpc_kw: 2.8,
            soh_improvement_vs_onoff_pct: 31.8,
            soh_improvement_vs_fuzzy_pct: 36.5,
        }];
        let text = render_table1(&rows);
        assert!(text.contains("Ambient"));
        assert!(text.contains("31.80"));
        assert!(text.contains("36.50"));
    }
}
