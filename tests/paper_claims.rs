//! Integration tests for the paper's headline claims: the orderings and
//! relative improvements its evaluation section reports must emerge from
//! our reproduction, and the claims ledger holds the reproduction's own
//! headline magnitudes in explicit bands (EXPERIMENTS.md compares them
//! with the paper's).

use ev_testkit::run_checked;
use evclimate::core::experiments::{
    evaluation_sweep_run, experiment_params, fig7_from, fig8_from, mean_hvac_reduction_pct,
    mean_soh_improvement_pct, profile_at, table1_row, COMPARISON_AMBIENT_C,
};
use evclimate::core::ControllerKind;
use evclimate::prelude::*;

/// Runs the three-controller comparison on one cycle at one ambient with
/// the evaluation sweep's parameters (a preconditioned cabin), and the
/// `ev-testkit` physics invariants checked at every step of every cell.
/// Returns the On/Off, fuzzy and MPC results, in that order.
fn lineup(ambient_c: f64, cycle: &DriveCycle) -> [SimulationResult; 3] {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    ControllerKind::paper_lineup().map(|kind| {
        let (result, _, report) = run_checked(&params, profile_at(cycle, ambient_c), kind);
        report.assert_clean();
        result
    })
}

/// The claims ledger. Fig. 7 and Fig. 8 use the bands the repository
/// benchmark checks its sweep against; the hot and cold Table I rows
/// hold ±0.2 pp around their measured values, which solver changes have
/// moved by at most 0.01 pp, and the mild row stays below 1 % because
/// our calibration leaves the HVAC nearly idle at 21 °C. The paper's own
/// figures are in the messages.
#[test]
fn headline_magnitudes_stay_in_their_bands() {
    let cells = evaluation_sweep_run(
        COMPARISON_AMBIENT_C,
        &DriveCycle::paper_evaluation_set(),
        false,
    )
    .into_cells();
    let soh = mean_soh_improvement_pct(&fig7_from(&cells));
    assert!(
        (soh - 13.0).abs() <= 0.2,
        "Fig. 7 mean ΔSoH improvement vs On/Off {soh:.3} %, band 13.0 ± 0.2 (paper ~14 %)"
    );
    let (hvac, _) = mean_hvac_reduction_pct(&fig8_from(&cells));
    assert!(
        (hvac - 54.5).abs() <= 0.5,
        "Fig. 8 mean HVAC reduction vs On/Off {hvac:.3} %, band 54.5 ± 0.5 (paper ~39 %)"
    );
    for (ambient_c, center, half_width, paper) in [
        (0.0, 18.8, 0.2, 31.8),
        (43.0, 16.6, 0.2, 19.6),
        (21.0, 0.0, 1.0, 12.3),
    ] {
        let got = table1_row(ambient_c).soh_improvement_vs_onoff_pct;
        assert!(
            (got - center).abs() < half_width + 1e-9,
            "Table I at {ambient_c} °C: ΔSoH improvement vs On/Off {got:.3} %, \
             band {center} ± {half_width} (paper {paper} %)"
        );
    }
}

#[test]
fn mpc_beats_onoff_on_soh_for_urban_and_mixed_cycles() {
    for cycle in [DriveCycle::ece15(), DriveCycle::ece_eudc()] {
        let [onoff, _fuzzy, mpc] = lineup(35.0, &cycle).map(|r| *r.metrics());
        assert!(
            mpc.delta_soh_milli_percent < onoff.delta_soh_milli_percent,
            "{}: mpc {} vs onoff {}",
            cycle.name(),
            mpc.delta_soh_milli_percent,
            onoff.delta_soh_milli_percent
        );
    }
}

#[test]
fn hvac_power_ordering_matches_fig8() {
    // Paper Fig. 8: ours ≤ fuzzy ≤ On/Off on every profile.
    let [po, pf, pm] =
        lineup(35.0, &DriveCycle::ece_eudc()).map(|r| r.metrics().avg_hvac_power.value());
    assert!(pf < po, "fuzzy {pf} vs onoff {po}");
    assert!(pm <= pf, "mpc {pm} vs fuzzy {pf}");
}

#[test]
fn improvement_grows_with_hvac_load() {
    // Paper Table I: "in the conditions when the HVAC power consumption
    // is more considerable, our methodology demonstrates more
    // improvement". Compare a mild ambient against a cold extreme.
    let mild = table1_row(21.0);
    let cold = table1_row(0.0);
    assert!(
        cold.soh_improvement_vs_onoff_pct > mild.soh_improvement_vs_onoff_pct,
        "cold {} vs mild {}",
        cold.soh_improvement_vs_onoff_pct,
        mild.soh_improvement_vs_onoff_pct
    );
    assert!(
        cold.onoff_kw > mild.onoff_kw,
        "cold HVAC load must be higher"
    );
}

#[test]
fn all_controllers_maintain_comfort_when_preconditioned() {
    let results = lineup(35.0, &DriveCycle::ece15());
    for (kind, result) in ControllerKind::paper_lineup().into_iter().zip(&results) {
        let m = result.metrics();
        // Small transient excursions are tolerated; sustained violation
        // is not (< 5 % of samples and < 1 K depth).
        let frac = m.comfort_violations as f64 / result.series.t.len() as f64;
        assert!(
            frac < 0.05,
            "{kind:?}: {frac:.3} of samples violated comfort"
        );
        assert!(
            m.max_comfort_excursion < 1.0,
            "{kind:?}: excursion {}",
            m.max_comfort_excursion
        );
    }
}

#[test]
fn soc_deviation_is_what_the_mpc_flattens() {
    // The mechanism behind the paper's Fig. 7: the MPC's ΔSoH win comes
    // from a flatter SoC trajectory (smaller SoC_dev at comparable or
    // lower SoC_avg drop), not from sacrificing comfort.
    let [onoff, _fuzzy, mpc] = lineup(35.0, &DriveCycle::ece_eudc()).map(|r| *r.metrics());
    assert!(
        mpc.soc_stats.dev <= onoff.soc_stats.dev,
        "mpc dev {} vs onoff dev {}",
        mpc.soc_stats.dev,
        onoff.soc_stats.dev
    );
    assert!(
        mpc.mean_temp_error < 3.0,
        "comfort kept: {}",
        mpc.mean_temp_error
    );
}

#[test]
fn energy_savings_translate_into_range() {
    // Paper Section I: HVAC can cut driving range substantially; the
    // lifetime-aware controller claws range back.
    let [onoff, _fuzzy, mpc] = lineup(43.0, &DriveCycle::ece_eudc());
    let usable = KilowattHours::new(21.0);
    let r_onoff = onoff.range_estimate(usable).value();
    let r_mpc = mpc.range_estimate(usable).value();
    assert!(
        r_mpc > r_onoff,
        "range with MPC {r_mpc:.1} km must exceed On/Off {r_onoff:.1} km"
    );
}
