//! Property-based tests for the controllers: every controller must emit
//! inputs that satisfy the static HVAC constraint set from any plausible
//! state, and the fuzzy engine must stay within its output universe.

use ev_control::fuzzy::{FuzzyEngine, MembershipFunction, Rule, Term};
use ev_control::{
    duty_to_input, ClimateController, ControlContext, FuzzyController, OnOffController,
    PidController, PreviewSample,
};
use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams, HvacState};
use ev_units::{Celsius, Percent, Seconds, Watts};
use proptest::prelude::*;

fn hvac() -> Hvac {
    Hvac::new(CabinParams::default(), HvacParams::default())
}

fn ctx_at(tz: f64, to: f64, soc: f64) -> ControlContext<'static> {
    ControlContext {
        state: HvacState::new(Celsius::new(tz)),
        ambient: Celsius::new(to),
        solar: Watts::new(350.0),
        soc: Percent::new(soc),
        soc_avg: soc + 1.0,
        dt: Seconds::new(1.0),
        elapsed: Seconds::ZERO,
        preview: &[],
    }
}

/// Checks the statically guaranteed constraints on an emitted input.
fn assert_static_feasible(
    h: &Hvac,
    input: &ev_hvac::HvacInput,
    state: HvacState,
    to: Celsius,
) -> Result<(), TestCaseError> {
    let p = h.params();
    prop_assert!(input.mz.value() >= p.min_flow.value() - 1e-9);
    prop_assert!(input.mz.value() <= p.max_flow.value() + 1e-9);
    prop_assert!(input.dr >= -1e-12 && input.dr <= p.max_recirculation + 1e-12);
    prop_assert!(input.ts >= input.tc.offset(-1e-9), "C3: {input:?}");
    let tm = h.mixed_air(input, state.tz, to);
    prop_assert!(input.tc <= tm.offset(1e-9), "C4: {input:?} tm {tm}");
    prop_assert!(input.ts <= p.max_supply_temp.offset(1e-9));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn onoff_inputs_are_statically_feasible(
        tz in 10.0f64..45.0,
        to in -20.0f64..48.0,
        soc in 20.0f64..95.0,
    ) {
        let h = hvac();
        let mut c = OnOffController::new(h.clone(), HvacLimits::default(), Celsius::new(24.0), 1.5);
        let ctx = ctx_at(tz, to, soc);
        let input = c.control(&ctx);
        assert_static_feasible(&h, &input, ctx.state, ctx.ambient)?;
        // Coil powers within caps (the On/Off controller promises this).
        let p = h.power(&input, ctx.state, ctx.ambient);
        prop_assert!(p.heating.value() <= 6000.0 + 1.0);
        prop_assert!(p.cooling.value() <= 6000.0 + 1.0);
    }

    #[test]
    fn fuzzy_inputs_are_statically_feasible(
        tz in 10.0f64..45.0,
        to in -20.0f64..48.0,
    ) {
        let h = hvac();
        let mut c = FuzzyController::new(h.clone(), HvacLimits::default(), Celsius::new(24.0));
        let ctx = ctx_at(tz, to, 80.0);
        let input = c.control(&ctx);
        assert_static_feasible(&h, &input, ctx.state, ctx.ambient)?;
    }

    #[test]
    fn pid_inputs_are_statically_feasible(
        tz in 10.0f64..45.0,
        to in -20.0f64..48.0,
    ) {
        let h = hvac();
        let mut c = PidController::new(h.clone(), HvacLimits::default(), Celsius::new(24.0));
        let ctx = ctx_at(tz, to, 80.0);
        let input = c.control(&ctx);
        assert_static_feasible(&h, &input, ctx.state, ctx.ambient)?;
    }

    #[test]
    fn duty_mapping_is_statically_feasible_for_any_duty(
        duty in -2.0f64..2.0,
        tz in 10.0f64..45.0,
        to in -20.0f64..48.0,
    ) {
        let h = hvac();
        let ctx = ctx_at(tz, to, 80.0);
        let input = duty_to_input(&h, &HvacLimits::default(), &ctx, duty);
        assert_static_feasible(&h, &input, ctx.state, ctx.ambient)?;
    }

    #[test]
    fn duty_sign_selects_mode(
        magnitude in 0.2f64..1.0,
        tz in 22.0f64..26.0,
    ) {
        let h = hvac();
        let ctx = ctx_at(tz, 30.0, 80.0);
        let state = ctx.state;
        let cooling = duty_to_input(&h, &HvacLimits::default(), &ctx, magnitude);
        let heating = duty_to_input(&h, &HvacLimits::default(), &ctx, -magnitude);
        let pc = h.power(&cooling, state, ctx.ambient);
        let ph = h.power(&heating, state, ctx.ambient);
        prop_assert!(pc.cooling.value() > 0.0 && pc.heating.value() == 0.0);
        prop_assert!(ph.heating.value() > 0.0 && ph.cooling.value() == 0.0);
    }

    #[test]
    fn fuzzy_engine_output_stays_in_universe(
        x in -3.0f64..3.0,
        y in -3.0f64..3.0,
    ) {
        // A 2-input engine with shoulder terms: output must stay within
        // the declared universe for any crisp inputs.
        let tri = |a: f64, b: f64, c: f64| MembershipFunction::Triangle { a, b, c };
        let terms = vec![
            Term { label: "lo", mf: tri(-1.0, -1.0, 0.0) },
            Term { label: "hi", mf: tri(0.0, 1.0, 1.0) },
        ];
        let engine = FuzzyEngine::new(
            vec![terms.clone(), terms.clone()],
            terms,
            (-1.0, 1.0),
            vec![
                Rule { antecedents: vec![Some(0), None], consequent: 0 },
                Rule { antecedents: vec![Some(1), None], consequent: 1 },
                Rule { antecedents: vec![None, Some(0)], consequent: 0 },
                Rule { antecedents: vec![None, Some(1)], consequent: 1 },
            ],
        );
        let out = engine.infer(&[x, y]);
        prop_assert!((-1.0..=1.0).contains(&out), "output {out}");
    }

    #[test]
    fn membership_degree_always_in_unit_interval(
        a in -5.0f64..0.0,
        width1 in 0.1f64..3.0,
        width2 in 0.1f64..3.0,
        x in -10.0f64..10.0,
    ) {
        let tri = MembershipFunction::Triangle { a, b: a + width1, c: a + width1 + width2 };
        let d = tri.degree(x);
        prop_assert!((0.0..=1.0).contains(&d));
        let trap = MembershipFunction::Trapezoid {
            a,
            b: a + width1,
            c: a + width1 + width2,
            d: a + width1 + width2 + 1.0,
        };
        let d = trap.degree(x);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn preview_sample_is_cloneable_and_orderable_by_time(
        p in 0.0f64..50_000.0,
    ) {
        let s = PreviewSample {
            motor_power: Watts::new(p),
            ambient: Celsius::new(30.0),
            solar: Watts::new(350.0),
        };
        let t = s;
        prop_assert_eq!(t.motor_power.value(), p);
    }
}
