//! The implicit trapezoidal cabin step of the paper's Eq. 18–19.
//!
//! The paper discretizes the cabin energy balance with one trapezoidal
//! step per sample period. [`trapezoidal`] is that map: `Hvac::step`
//! (ev-hvac) calls it to advance the plant's cabin, and the MPC rollout
//! (ev-control) restates it inline, so controller and plant predict the
//! cabin with the same recursion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One implicit trapezoidal step for the scalar affine dynamics
/// `c · x' = a − b · x̄`, where `x̄ = (x⁺ + x)/2` is the step midpoint.
///
/// This is exactly the discretization the paper applies to the cabin
/// energy balance (Eq. 18–19): given the previous state `x`, thermal
/// capacitance `c > 0`, constant forcing `a` and midpoint feedback
/// coefficient `b ≥ 0` over a step of length `h`, it returns `x⁺` from
///
/// ```text
/// c · (x⁺ − x) / h = a − b · (x⁺ + x) / 2
/// ```
///
/// The trapezoidal rule is A-stable, so stiff cabin time constants cannot
/// blow up regardless of step size.
///
/// # Panics
///
/// Panics if `c <= 0`, `h <= 0`, or the implicit equation degenerates
/// (`c/h + b/2 == 0`, impossible for valid input).
///
/// # Examples
///
/// ```
/// // x' = 1 - x, starting at 0: converges to 1.
/// let mut x = 0.0;
/// for _ in 0..100 {
///     x = ev_ode::trapezoidal(x, 1.0, 1.0, 1.0, 0.1);
/// }
/// assert!((x - 1.0).abs() < 1e-4);
/// ```
#[must_use]
pub fn trapezoidal(x: f64, c: f64, a: f64, b: f64, h: f64) -> f64 {
    assert!(c > 0.0, "trapezoidal: capacitance must be positive");
    assert!(h > 0.0, "trapezoidal: step must be positive");
    let lhs = c / h + 0.5 * b;
    assert!(lhs != 0.0, "trapezoidal: degenerate implicit equation");
    ((c / h - 0.5 * b) * x + a) / lhs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoidal_matches_exact_affine_solution() {
        // c x' = a - b x with c=2, a=4, b=1: x* = 4, time constant 2.
        let (c, a, b) = (2.0, 4.0, 1.0);
        let h = 0.01;
        let mut x = 0.0;
        let mut t = 0.0;
        while t < 1.0 - 1e-12 {
            x = trapezoidal(x, c, a, b, h);
            t += h;
        }
        let exact = 4.0 * (1.0 - (-1.0f64 / 2.0).exp());
        assert!((x - exact).abs() < 1e-4, "x {x} exact {exact}");
    }

    #[test]
    fn trapezoidal_is_stable_for_large_steps() {
        // Explicit Euler would oscillate/diverge for h*b/c > 2.
        let mut x = 100.0;
        for _ in 0..50 {
            x = trapezoidal(x, 1.0, 0.0, 1.0, 10.0);
        }
        assert!(x.abs() < 1.0, "trapezoidal diverged: {x}");
    }

    #[test]
    fn trapezoidal_equilibrium_is_fixed_point() {
        // At x = a/b the state must not move.
        let x = trapezoidal(3.0, 5.0, 6.0, 2.0, 0.7);
        let x2 = trapezoidal(x, 5.0, 6.0, 2.0, 0.7);
        assert!((x - 3.0).abs() < 1e-12);
        assert!((x2 - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn trapezoidal_rejects_bad_capacitance() {
        let _ = trapezoidal(0.0, 0.0, 1.0, 1.0, 0.1);
    }
}
