//! Property-based tests for the battery model: SoC monotonicity, Peukert
//! inequalities, terminal-voltage consistency, SoH monotonicity and the
//! BMS's running SoC average.

use ev_battery::{Battery, BatteryParams, Bms, SocStats, SohModel, SohParams};
use ev_units::{Percent, Seconds, Watts};
use proptest::prelude::*;

fn leaf() -> BatteryParams {
    BatteryParams::leaf_24kwh()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn discharge_never_raises_soc(
        powers in proptest::collection::vec(0.0f64..60_000.0, 1..40),
    ) {
        let mut b = Battery::new(leaf());
        let mut prev = b.soc().value();
        for p in powers {
            let soc = b.step(Watts::new(p), Seconds::new(5.0)).value();
            prop_assert!(soc <= prev + 1e-12, "{prev} → {soc} at {p} W");
            prev = soc;
        }
    }

    #[test]
    fn charge_never_lowers_soc(
        powers in proptest::collection::vec(-40_000.0f64..0.0, 1..40),
    ) {
        let mut b = Battery::new(leaf());
        b.reset_soc(Percent::new(50.0));
        let mut prev = 50.0;
        for p in powers {
            let soc = b.step(Watts::new(p), Seconds::new(5.0)).value();
            prop_assert!(soc >= prev - 1e-12);
            prev = soc;
        }
    }

    #[test]
    fn peukert_effective_current_at_least_nominal_scaling(
        current in 0.1f64..300.0,
    ) {
        // For pc > 1: I_eff > I when I > In, I_eff < I when I < In.
        let b = Battery::new(leaf());
        let i_eff = b.effective_current(ev_units::Amperes::new(current)).value();
        let nominal = 22.0;
        if current > nominal {
            prop_assert!(i_eff > current);
        } else if current < nominal {
            prop_assert!(i_eff < current + 1e-12);
        }
    }

    #[test]
    fn terminal_power_is_reproduced(power in 100.0f64..60_000.0) {
        // (Voc − I·R)·I = P for deliverable powers.
        let b = Battery::new(leaf());
        let i = b.current_for_power(Watts::new(power)).value();
        let voc = b.open_circuit_voltage().value();
        let delivered = (voc - i * 0.10) * i;
        prop_assert!((delivered - power).abs() < 1e-6 * power.max(1.0));
    }

    #[test]
    fn higher_power_needs_superlinear_current(
        p1 in 1_000.0f64..30_000.0,
        factor in 1.1f64..3.0,
    ) {
        // Voltage sag: doubling power more than doubles current growth
        // relative to the ideal P/V line.
        let b = Battery::new(leaf());
        let i1 = b.current_for_power(Watts::new(p1)).value();
        let i2 = b.current_for_power(Watts::new(p1 * factor)).value();
        prop_assert!(i2 > i1 * factor - 1e-9, "sag must amplify current");
    }

    #[test]
    fn soc_stays_within_bms_window(
        powers in proptest::collection::vec(-80_000.0f64..120_000.0, 1..60),
    ) {
        let mut b = Battery::new(leaf());
        for p in powers {
            let soc = b.step(Watts::new(p), Seconds::new(10.0)).value();
            prop_assert!((10.0..=100.0).contains(&soc));
        }
    }

    #[test]
    fn soh_monotone_in_both_stats(
        avg in 20.0f64..95.0,
        dev in 0.0f64..15.0,
        davg in 0.1f64..5.0,
        ddev in 0.1f64..5.0,
    ) {
        let m = SohModel::default();
        let base = m.degradation(SocStats { avg, dev });
        let more_avg = m.degradation(SocStats { avg: avg + davg, dev });
        let more_dev = m.degradation(SocStats { avg, dev: dev + ddev });
        prop_assert!(more_avg > base);
        prop_assert!(more_dev > base);
    }

    #[test]
    fn soh_cycles_inverse_of_degradation(
        avg in 40.0f64..95.0,
        dev in 0.1f64..10.0,
    ) {
        let m = SohModel::default();
        let stats = SocStats { avg, dev };
        let d = m.degradation(stats);
        let c = m.cycles_to_eol(stats);
        prop_assert!((c * d - SohModel::EOL_FADE_PERCENT).abs() < 1e-9);
    }

    #[test]
    fn soc_stats_shift_invariance(
        trace in proptest::collection::vec(20.0f64..95.0, 2..50),
        shift in -5.0f64..5.0,
    ) {
        // Shifting a trace moves the average and keeps the deviation.
        let base = SocStats::from_trace(&trace);
        let shifted: Vec<f64> = trace.iter().map(|v| v + shift).collect();
        let s = SocStats::from_trace(&shifted);
        prop_assert!((s.avg - base.avg - shift).abs() < 1e-9);
        prop_assert!((s.dev - base.dev).abs() < 1e-9);
    }

    #[test]
    fn bms_trace_length_tracks_steps(
        n in 1usize..50,
    ) {
        let mut bms = Bms::new(leaf(), SohModel::default());
        for _ in 0..n {
            bms.apply_load(Watts::new(10_000.0), Seconds::new(1.0));
        }
        prop_assert_eq!(bms.trace().len(), n + 1);
        let stats = bms.cycle_stats();
        prop_assert!(stats.avg <= 95.0 && stats.avg >= 10.0);
    }

    #[test]
    fn running_soc_avg_is_the_trace_mean_bit_for_bit(
        initial in 10.0f64..=100.0,
        head in proptest::collection::vec((-120_000.0f64..150_000.0, 0.05f64..600.0), 0..30),
        drain in proptest::collection::vec((90_000.0f64..150_000.0, 150.0f64..600.0), 12..16),
        charge in proptest::collection::vec((-120_000.0f64..-50_000.0, 300.0f64..600.0), 8..12),
        tail in proptest::collection::vec((-120_000.0f64..150_000.0, 0.05f64..600.0), 0..30),
    ) {
        // Random loads and steps, including powers past the BMS's 90 kW
        // discharge and 50 kW charge limits, with a drain long enough to
        // pin the SoC at `min_soc` and a charge long enough to pin it at
        // `max_soc`: after every step the running average must be the
        // mean `Iterator::sum` gives over the trace, to the bit.
        let params = BatteryParams {
            initial_soc: Percent::new(initial),
            ..leaf()
        };
        let (min_soc, max_soc) = (params.min_soc.value(), params.max_soc.value());
        let mut bms = Bms::new(params, SohModel::default());
        let mean = |bms: &Bms| bms.trace().iter().sum::<f64>() / bms.trace().len() as f64;
        prop_assert_eq!(bms.running_soc_avg().to_bits(), mean(&bms).to_bits());
        for (step, (p, dt)) in head.iter().chain(&drain).chain(&charge).chain(&tail).enumerate() {
            bms.apply_load(Watts::new(*p), Seconds::new(*dt));
            prop_assert_eq!(
                bms.running_soc_avg().to_bits(),
                mean(&bms).to_bits(),
                "step {} of {} W for {} s",
                step,
                p,
                dt
            );
        }
        prop_assert!(bms.trace().contains(&min_soc), "never pinned at min_soc");
        prop_assert!(bms.trace().contains(&max_soc), "never pinned at max_soc");
    }

    #[test]
    fn validated_params_round_trip(
        pc in 1.0f64..1.4,
        r in 0.0f64..0.5,
    ) {
        let p = BatteryParams {
            peukert_constant: pc,
            internal_resistance: ev_units::Ohms::new(r),
            ..leaf()
        };
        let v = p.clone().validated();
        prop_assert_eq!(v, p);
    }
}

#[test]
fn zero_temperature_factor_freezes_aging() {
    let m = SohModel::new(SohParams {
        temperature_factor: 0.0,
        ..SohParams::default()
    });
    assert_eq!(
        m.degradation(SocStats {
            avg: 90.0,
            dev: 9.0
        }),
        0.0
    );
}
