//! Integration tests for the paper's headline claims: the orderings and
//! relative improvements its evaluation section reports must emerge from
//! our reproduction, and the claims ledger holds the reproduction's own
//! headline magnitudes in explicit bands (EXPERIMENTS.md compares them
//! with the paper's).

use ev_testkit::InvariantObserver;
use evclimate::core::experiments::{
    evaluation_sweep, evaluation_sweep_at, evaluation_sweep_observed, experiment_params, fig7_from,
    fig8_from, find, mean_hvac_reduction_pct, mean_soh_improvement_pct, table1_row,
};
use evclimate::core::ControllerKind;
use evclimate::prelude::*;

/// Runs the three-controller comparison on one cycle at one ambient,
/// with the `ev-testkit` physics invariants checked at every step of
/// every cell.
fn lineup(ambient_c: f64, cycle: &DriveCycle) -> (Metrics, Metrics, Metrics) {
    let params = experiment_params();
    let cells = evaluation_sweep_observed(ambient_c, std::slice::from_ref(cycle), |_, _| {
        InvariantObserver::for_params(&params)
    });
    for (cell, observer) in &cells {
        assert!(
            observer.report().is_clean(),
            "{} × {:?}: {}",
            cell.profile,
            cell.controller,
            observer.report()
        );
    }
    let cells: Vec<_> = cells.into_iter().map(|(cell, _)| cell).collect();
    let get = |kind| {
        *find(&cells, cycle.name(), kind)
            .expect("cell present")
            .result
            .metrics()
    };
    (
        get(ControllerKind::OnOff),
        get(ControllerKind::Fuzzy),
        get(ControllerKind::Mpc),
    )
}

/// The claims ledger. Fig. 7 and Fig. 8 use the bands the repository
/// benchmark checks its sweep against; the hot and cold Table I rows
/// hold ±0.2 pp around their measured values, which solver changes have
/// moved by at most 0.01 pp, and the mild row stays below 1 % because
/// our calibration leaves the HVAC nearly idle at 21 °C. The paper's own
/// figures are in the messages.
#[test]
fn headline_magnitudes_stay_in_their_bands() {
    let cells = evaluation_sweep();
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
        let (onoff, _fuzzy, mpc) = lineup(35.0, &cycle);
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
    let (onoff, fuzzy, mpc) = lineup(35.0, &DriveCycle::ece_eudc());
    let (po, pf, pm) = (
        onoff.avg_hvac_power.value(),
        fuzzy.avg_hvac_power.value(),
        mpc.avg_hvac_power.value(),
    );
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
    for kind in ControllerKind::paper_lineup() {
        let cells = evaluation_sweep_at(35.0, &[DriveCycle::ece15()]);
        let cell = find(&cells, "ECE-15", kind).expect("cell present");
        let m = cell.result.metrics();
        // Small transient excursions are tolerated; sustained violation
        // is not (< 5 % of samples and < 1 K depth).
        let frac = m.comfort_violations as f64 / cell.result.series.t.len() as f64;
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
    let (onoff, _fuzzy, mpc) = lineup(35.0, &DriveCycle::ece_eudc());
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
    let (onoff, _fuzzy, mpc) = lineup(43.0, &DriveCycle::ece_eudc());
    let usable = KilowattHours::new(21.0);
    let r_onoff = {
        let cells = evaluation_sweep_at(43.0, &[DriveCycle::ece_eudc()]);
        find(&cells, "ECE_EUDC", ControllerKind::OnOff)
            .expect("cell")
            .result
            .range_estimate(usable)
            .value()
    };
    let _ = onoff;
    let r_mpc = {
        let cells = evaluation_sweep_at(43.0, &[DriveCycle::ece_eudc()]);
        find(&cells, "ECE_EUDC", ControllerKind::Mpc)
            .expect("cell")
            .result
            .range_estimate(usable)
            .value()
    };
    let _ = mpc;
    assert!(
        r_mpc > r_onoff,
        "range with MPC {r_mpc:.1} km must exceed On/Off {r_onoff:.1} km"
    );
}
