//! Shared scenario constructors for the evclimate benchmark harness.
//!
//! The Criterion benches in `benches/` measure how long each paper
//! experiment takes to regenerate and how fast the individual substrates
//! are; the experiment *outputs* (the tables themselves) are printed by
//! the `repro` binary of [`ev_core`]. This library crate holds the pieces
//! both share so the bench files stay declarative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ev_control::{ControlContext, PreviewSample};
use ev_core::experiments::profile_at;
use ev_core::{ControllerKind, EvParams, Simulation, SimulationResult};
use ev_drive::DriveCycle;
use ev_hvac::HvacState;
use ev_units::{Celsius, Percent, Seconds, Watts};

/// Runs one cycle × controller cell, preconditioned like the paper's
/// evaluation sweep.
///
/// # Panics
///
/// Panics if the built-in configuration fails to construct (it does not).
#[must_use]
pub fn run_cell(cycle: &DriveCycle, ambient_c: f64, kind: ControllerKind) -> SimulationResult {
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim =
        Simulation::new(params.clone(), profile_at(cycle, ambient_c)).expect("profile non-empty");
    let mut controller = kind.instantiate(&params).expect("controller instantiates");
    sim.run(controller.as_mut())
}

/// A representative hot-day control context for single-step controller
/// benchmarks. The preview alternates motor-power peaks and lulls so the
/// MPC has something to optimize.
#[must_use]
pub fn bench_context(preview: &[PreviewSample]) -> ControlContext<'_> {
    ControlContext {
        state: HvacState::new(Celsius::new(25.0)),
        ambient: Celsius::new(35.0),
        solar: Watts::new(350.0),
        soc: Percent::new(88.0),
        soc_avg: 91.0,
        dt: Seconds::new(1.0),
        elapsed: Seconds::new(120.0),
        preview,
    }
}

/// Builds an alternating peak/lull motor-power preview of `n` samples.
#[must_use]
pub fn bench_preview(n: usize) -> Vec<PreviewSample> {
    (0..n)
        .map(|k| PreviewSample {
            motor_power: Watts::new(if (k / 8) % 2 == 0 { 2_000.0 } else { 45_000.0 }),
            ambient: Celsius::new(35.0),
            solar: Watts::new(350.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_runner_produces_metrics() {
        let r = run_cell(&DriveCycle::ece15(), 35.0, ControllerKind::OnOff);
        assert!(r.metrics().avg_hvac_power.value() > 0.0);
    }

    #[test]
    fn preview_alternates() {
        let p = bench_preview(32);
        assert_eq!(p.len(), 32);
        assert!(p[0].motor_power.value() < p[8].motor_power.value());
    }
}
