//! Property-based tests for the trapezoidal step: A-stability and its
//! fixed point.

use ev_ode::trapezoidal;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trapezoidal_is_unconditionally_stable(
        b in 0.1f64..100.0,
        h in 0.1f64..100.0,
        x0 in -100.0f64..100.0,
    ) {
        // c·x' = −b·x̄: |x⁺| ≤ |x| for any step size (A-stability).
        let next = trapezoidal(x0, 1.0, 0.0, b, h);
        prop_assert!(next.abs() <= x0.abs() + 1e-12, "{x0} → {next}");
    }

    #[test]
    fn trapezoidal_fixed_point_is_a_over_b(
        a in -50.0f64..50.0,
        b in 0.1f64..10.0,
        h in 0.01f64..10.0,
    ) {
        let xstar = a / b;
        let next = trapezoidal(xstar, 2.0, a, b, h);
        prop_assert!((next - xstar).abs() < 1e-9 * xstar.abs().max(1.0));
    }
}
