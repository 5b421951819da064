//! Ablation benches for the design choices DESIGN.md calls out: MPC
//! horizon length, the battery-lifetime weight `w2`, and the re-solve
//! interval. Each bench also exposes the *quality* impact through the
//! returned metrics (printed once per bench at start-up), so a run shows
//! both the cost and the benefit of each knob.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ev_control::MpcWeights;
use ev_core::{EvParams, Simulation};
use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
use ev_units::{Celsius, Seconds};

/// Builds the ECE_EUDC hot-day simulation used by every ablation.
fn sim() -> (EvParams, Simulation) {
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let profile = DriveProfile::from_cycle(
        &DriveCycle::ece_eudc(),
        AmbientConditions::constant(Celsius::new(35.0)),
        Seconds::new(1.0),
    );
    let s = Simulation::new(params.clone(), profile).expect("profile non-empty");
    (params, s)
}

/// Runs the MPC with the given knobs; returns (ΔSoH m%, avg HVAC kW).
fn run_mpc(
    params: &EvParams,
    sim: &Simulation,
    horizon: usize,
    weights: MpcWeights,
    recompute: usize,
) -> (f64, f64) {
    let mut mpc = params
        .mpc_builder()
        .horizon(horizon)
        .recompute_every(recompute)
        .weights(weights)
        .build()
        .expect("valid config");
    let r = sim.run(&mut mpc);
    (
        r.metrics().delta_soh_milli_percent,
        r.metrics().avg_hvac_power.value(),
    )
}

/// Horizon sweep: the paper notes "the larger the control window, the
/// more variables there are to optimize and much more flexibility".
fn bench_horizon(c: &mut Criterion) {
    let (params, s) = sim();
    let mut group = c.benchmark_group("ablation_horizon");
    group.sample_size(10);
    for horizon in [4usize, 8, 12] {
        let (dsoh, kw) = run_mpc(&params, &s, horizon, MpcWeights::default(), 4);
        println!("ablation horizon={horizon}: ΔSoH {dsoh:.3} m%, HVAC {kw:.3} kW");
        group.bench_function(format!("h{horizon}"), |b| {
            b.iter(|| black_box(run_mpc(&params, &s, horizon, MpcWeights::default(), 4)))
        });
    }
    group.finish();
}

/// Lifetime-weight ablation: w2 = 0 turns the controller into a plain
/// comfort/power MPC — the paper's central claim is that the SoC term is
/// what buys battery lifetime.
fn bench_weights(c: &mut Criterion) {
    let (params, s) = sim();
    let mut group = c.benchmark_group("ablation_w2");
    group.sample_size(10);
    for (label, w2) in [("w2_off", 0.0), ("w2_default", MpcWeights::default().w2)] {
        let weights = MpcWeights {
            w2,
            ..MpcWeights::default()
        };
        let (dsoh, kw) = run_mpc(&params, &s, 8, weights, 4);
        println!("ablation {label}: ΔSoH {dsoh:.3} m%, HVAC {kw:.3} kW");
        group.bench_function(label, |b| {
            b.iter(|| black_box(run_mpc(&params, &s, 8, weights, 4)))
        });
    }
    group.finish();
}

/// Re-solve interval: how much compute the move-blocking saves.
fn bench_recompute(c: &mut Criterion) {
    let (params, s) = sim();
    let mut group = c.benchmark_group("ablation_recompute");
    group.sample_size(10);
    for interval in [1usize, 4, 8] {
        group.bench_function(format!("every_{interval}s"), |b| {
            b.iter(|| black_box(run_mpc(&params, &s, 8, MpcWeights::default(), interval)))
        });
    }
    group.finish();
}

criterion_group!(ablation, bench_horizon, bench_weights, bench_recompute);
criterion_main!(ablation);
