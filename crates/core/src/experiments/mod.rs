//! Reproduction of every table and figure in the paper's evaluation
//! (Section IV).
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — EV vs ICE power-type split across ambient temperatures |
//! | [`fig5`] | Fig. 5 — cabin-temperature traces per controller |
//! | [`fig6`] | Fig. 6 — MPC pre-cooling against the motor-power profile |
//! | [`fig7_from`] | Fig. 7 — SoH degradation per drive profile (% of On/Off) |
//! | [`fig8_from`] | Fig. 8 — average HVAC power per drive profile |
//! | [`table1`] | Table I — HVAC power and ΔSoH improvement vs ambient |
//! | [`ablation_horizon`], [`ablation_w2`] | extensions: MPC design-knob ablations |
//! | [`robustness_sweep`] | extension: forecast-noise robustness |
//!
//! Each function runs the actual simulations (nothing is tabulated from
//! stored data) and returns typed rows; `render_*` helpers format them as
//! the text tables printed by the `repro` binary. Figs. 7 and 8 are two
//! projections of one [`evaluation_sweep_run`] over
//! [`DriveCycle::paper_evaluation_set`] at [`COMPARISON_AMBIENT_C`]:
//! [`fig7_from`] and [`fig8_from`] take its cells. Absolute magnitudes
//! depend on our calibration; the claims that must reproduce are the
//! *orderings and relative improvements* (see `EXPERIMENTS.md`).

mod ablation;
mod fig1;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod full_cycle;
mod plot;
mod robustness;
mod sweep;
mod table1;

pub use ablation::{ablation_horizon, ablation_w2, render_ablation, AblationRow};
pub use fig1::{fig1, render_fig1, Fig1Row};
pub use fig5::{fig5, render_fig5, Fig5Series};
pub use fig6::{fig6, render_fig6, Fig6Data};
pub use fig7::{fig7_from, mean_soh_improvement_pct, render_fig7, Fig7Row};
pub use fig8::{fig8_from, mean_hvac_reduction_pct, render_fig8, Fig8Row};
pub use full_cycle::{full_cycle, render_full_cycle, FullCycleRow};
pub use plot::ascii_chart;
pub use robustness::{render_robustness, robustness_sweep, NoisyPreview, RobustnessRow};
pub use sweep::{
    evaluation_sweep_run, evaluation_sweep_run_recorded, find, render_sweep_report, SweepCell,
    SweepCellResult, SweepOutcome, SweepResult,
};
pub use table1::{render_table1, table1, table1_row, Table1Row, TABLE1_AMBIENTS};

use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
use ev_units::{Celsius, Seconds};

use crate::EvParams;

/// Ambient temperature used by the drive-profile comparisons (Figs. 5–8):
/// a hot summer day, the cooling-dominated regime of the paper's Fig. 6
/// ("in this case outside is warmer").
pub const COMPARISON_AMBIENT_C: f64 = 35.0;

/// Builds the standard 1 Hz profile for a cycle at a constant ambient.
#[must_use]
pub fn profile_at(cycle: &DriveCycle, ambient_c: f64) -> DriveProfile {
    DriveProfile::from_cycle(
        cycle,
        AmbientConditions::constant(Celsius::new(ambient_c)),
        Seconds::new(1.0),
    )
}

/// The shared experiment parameter set: the Leaf-like EV with the paper's
/// comfort specification.
#[must_use]
pub fn experiment_params() -> EvParams {
    EvParams::nissan_leaf_like()
}

/// Formats a fixed-width table: a header row and data rows.
pub(crate) fn format_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(ncols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[c]));
        }
        line
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_builder_applies_ambient() {
        let p = profile_at(&DriveCycle::ece15(), 43.0);
        assert!(p.iter().all(|s| s.ambient.value() == 43.0));
    }

    #[test]
    fn format_table_aligns() {
        let t = format_table(
            &["a".into(), "long-header".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }
}
