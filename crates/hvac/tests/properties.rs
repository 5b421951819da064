//! Property-based tests for the HVAC model: energy-balance signs,
//! equilibrium, constraint-clamp feasibility and power monotonicity.

use ev_hvac::{CabinParams, Hvac, HvacInput, HvacLimits, HvacParams, HvacState};
use ev_units::{Celsius, KgPerSecond, Seconds, Watts};
use proptest::prelude::*;

fn hvac() -> Hvac {
    Hvac::new(CabinParams::default(), HvacParams::default())
}

/// Strategy for an arbitrary (possibly wild) input vector.
fn any_input() -> impl Strategy<Value = HvacInput> {
    (-20.0f64..80.0, -20.0f64..80.0, -0.5f64..1.5, 0.0f64..0.6).prop_map(|(ts, tc, dr, mz)| {
        HvacInput {
            ts: Celsius::new(ts),
            tc: Celsius::new(tc),
            dr,
            mz: KgPerSecond::new(mz),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn powers_are_never_negative(
        input in any_input(),
        tz in -10.0f64..50.0,
        to in -20.0f64..50.0,
    ) {
        let p = hvac().power(&input, HvacState::new(Celsius::new(tz)), Celsius::new(to));
        prop_assert!(p.heating.value() >= 0.0);
        prop_assert!(p.cooling.value() >= 0.0);
        prop_assert!(p.fan.value() >= 0.0);
        prop_assert!((p.total().value()
            - p.heating.value() - p.cooling.value() - p.fan.value()).abs() < 1e-9);
    }

    #[test]
    fn mixer_output_between_sources(
        dr in 0.0f64..1.0,
        tz in 0.0f64..40.0,
        to in -20.0f64..50.0,
    ) {
        let input = HvacInput {
            ts: Celsius::new(20.0),
            tc: Celsius::new(20.0),
            dr,
            mz: KgPerSecond::new(0.1),
        };
        let tm = hvac().mixed_air(&input, Celsius::new(tz), Celsius::new(to)).value();
        let lo = tz.min(to);
        let hi = tz.max(to);
        prop_assert!(tm >= lo - 1e-9 && tm <= hi + 1e-9, "tm {tm} outside [{lo}, {hi}]");
    }

    #[test]
    fn warm_supply_warms_cold_cabin(
        tz in 0.0f64..20.0,
        supply_delta in 1.0f64..30.0,
        mz in 0.05f64..0.25,
    ) {
        // Ambient equal to cabin, no solar: only the supply term acts.
        let input = HvacInput {
            ts: Celsius::new(tz + supply_delta),
            tc: Celsius::new(tz),
            dr: 0.5,
            mz: KgPerSecond::new(mz),
        };
        let rate = hvac().cabin_rate(
            &input,
            HvacState::new(Celsius::new(tz)),
            Celsius::new(tz),
            Watts::ZERO,
        );
        prop_assert!(rate > 0.0);
    }

    #[test]
    fn step_moves_toward_equilibrium(
        tz in 0.0f64..45.0,
        to in -10.0f64..45.0,
        solar in 0.0f64..800.0,
        ts in 5.0f64..50.0,
        mz in 0.02f64..0.25,
    ) {
        // The affine dynamics have equilibrium
        // T* = (solar + cx·To + ṁ·cp·Ts)/(cx + ṁ·cp); each trapezoidal
        // step must move Tz strictly toward it (or stay if there).
        let h = hvac();
        let input = HvacInput {
            ts: Celsius::new(ts),
            tc: Celsius::new(ts),
            dr: 0.5,
            mz: KgPerSecond::new(mz),
        };
        let cx = h.cabin().shell_conductance.value();
        let cp = h.cabin().air_heat_capacity.value();
        let tstar = (solar + cx * to + mz * cp * ts) / (cx + mz * cp);
        let (next, _) = h.step(
            HvacState::new(Celsius::new(tz)),
            &input,
            Celsius::new(to),
            Watts::new(solar),
            Seconds::new(1.0),
        );
        let before = (tz - tstar).abs();
        let after = (next.tz.value() - tstar).abs();
        prop_assert!(after <= before + 1e-12, "{before} → {after}");
    }

    #[test]
    fn clamped_inputs_pass_static_constraints(
        input in any_input(),
        tz in 21.0f64..27.0, // inside the comfort band
        to in -20.0f64..1000.0, // far past any climate: the clamp must not panic
    ) {
        let h = hvac();
        let limits = HvacLimits::default();
        let state = HvacState::new(Celsius::new(tz));
        let clamped = limits.clamp_input(&h, input, state, Celsius::new(to));
        // The clamp covers the static box constraints; power caps can
        // still fail (controller responsibility), so only check C1, C3,
        // C4, C5 (passive form), C6, C7 via validate's ordering: any
        // error must be a power cap.
        match limits.validate(&h, &clamped, state, Celsius::new(to)) {
            Ok(()) => {}
            Err(v) => {
                let s = v.to_string();
                prop_assert!(
                    s.starts_with("c8") || s.starts_with("c9") || s.starts_with("c10"),
                    "unexpected static violation: {s} for {clamped:?}"
                );
            }
        }
    }

    #[test]
    fn fan_power_is_quadratic(
        mz1 in 0.02f64..0.12,
        factor in 1.1f64..2.0,
    ) {
        let h = hvac();
        let mk = |mz: f64| HvacInput {
            ts: Celsius::new(24.0),
            tc: Celsius::new(24.0),
            dr: 0.5,
            mz: KgPerSecond::new(mz),
        };
        let state = HvacState::new(Celsius::new(24.0));
        let p1 = h.power(&mk(mz1), state, Celsius::new(24.0)).fan.value();
        let p2 = h.power(&mk(mz1 * factor), state, Celsius::new(24.0)).fan.value();
        prop_assert!((p2 / p1 - factor * factor).abs() < 1e-9);
    }

    #[test]
    fn more_recirculation_reduces_cooling_power_on_hot_days(
        dr1 in 0.0f64..0.3,
        dr2 in 0.4f64..0.7,
        to in 35.0f64..45.0,
    ) {
        // Cabin cooler than outside: recirculating more lowers Tm and
        // thus the cooling power for the same coil temperature.
        let h = hvac();
        let state = HvacState::new(Celsius::new(24.0));
        let mk = |dr: f64| HvacInput {
            ts: Celsius::new(12.0),
            tc: Celsius::new(12.0),
            dr,
            mz: KgPerSecond::new(0.15),
        };
        let p1 = h.power(&mk(dr1), state, Celsius::new(to)).cooling.value();
        let p2 = h.power(&mk(dr2), state, Celsius::new(to)).cooling.value();
        prop_assert!(p2 < p1, "dr {dr2} should be cheaper than {dr1}");
    }

    #[test]
    fn comfort_band_contains_target(
        target in 18.0f64..28.0,
        half in 0.5f64..4.0,
    ) {
        let l = HvacLimits::comfort_band(Celsius::new(target), half);
        prop_assert!(l.comfort_min.value() <= target);
        prop_assert!(l.comfort_max.value() >= target);
        prop_assert!((l.comfort_max.value() - l.comfort_min.value() - 2.0 * half).abs() < 1e-12);
    }
}
