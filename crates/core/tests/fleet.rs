//! Fleet-engine integration tests: warm-start isolation across
//! sessions, reset semantics, and scheduling-independent determinism.
//!
//! These cover the property the unit tests can't: a vehicle's
//! trajectory through the *fleet engine* — shard threads, interleaved
//! command queues, slot reuse — must be **bitwise identical** to the
//! same vehicle simulated alone. Any warm-start or plant state leaking
//! between sessions would break that equality in the low mantissa bits
//! long before it showed up in a tolerance check.

use std::sync::Arc;

use ev_core::fleet::{run_loadgen, FleetConfig, FleetEngine, LoadgenConfig, VehicleSession};
use ev_core::{ControllerKind, ControllerSetup, EvParams, Simulation};
use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
use ev_telemetry::Registry;
use ev_units::{Celsius, Seconds};

fn sim(cycle: DriveCycle, ambient_c: f64) -> Arc<Simulation> {
    let params = EvParams::nissan_leaf_like();
    let profile = DriveProfile::from_cycle(
        &cycle,
        AmbientConditions::constant(Celsius::new(ambient_c)),
        Seconds::new(1.0),
    );
    Arc::new(Simulation::new(params, profile).expect("valid profile"))
}

/// Runs one MPC vehicle alone for `steps` steps and returns its final
/// (soc, cabin) state as raw bits.
fn solo_trajectory(sim: &Arc<Simulation>, steps: usize) -> (u64, u64) {
    let params = EvParams::nissan_leaf_like();
    let controller = ControllerKind::Mpc
        .instantiate(&params)
        .expect("mpc instantiates");
    let mut session = VehicleSession::new(1, Arc::clone(sim), controller);
    assert_eq!(session.step_many(steps), steps);
    let summary = session.summary();
    (
        summary.soc_percent.to_bits(),
        summary.cabin_temp_c.to_bits(),
    )
}

#[test]
fn warm_starts_never_leak_between_interleaved_sessions() {
    let steps = 40;
    let hot = sim(DriveCycle::nedc(), 35.0);
    let cold = sim(DriveCycle::us06(), -10.0);
    let baseline = solo_trajectory(&hot, steps);

    // Same vehicle, but now a second MPC session with a *wildly
    // different* trajectory (cold US06 vs hot NEDC) is interleaved on
    // the same single shard, chunk by chunk. If the engine shared any
    // warm-start plan, QP multiplier cache or plant state between the
    // slots, vehicle 1's floats would diverge from the solo run.
    let mut config = FleetConfig::new(EvParams::nissan_leaf_like());
    config.shards = 1;
    let fleet = FleetEngine::new(config);
    fleet
        .open(1, Arc::clone(&hot), ControllerKind::Mpc)
        .unwrap();
    fleet
        .open(2, Arc::clone(&cold), ControllerKind::Mpc)
        .unwrap();
    for _ in 0..(steps / 5) {
        fleet.step(1, 5).unwrap();
        fleet.step(2, 5).unwrap();
    }
    let s1 = fleet.close(1).unwrap();
    let s2 = fleet.close(2).unwrap();
    let _ = fleet.shutdown();

    assert_eq!(s1.steps, steps as u64);
    assert_eq!(s2.steps, steps as u64);
    assert_eq!(
        (s1.soc_percent.to_bits(), s1.cabin_temp_c.to_bits()),
        baseline,
        "interleaving another session changed vehicle 1's trajectory"
    );
    // Sanity: the two trajectories genuinely differ, so the equality
    // above is not vacuous.
    assert_ne!(s2.soc_percent.to_bits(), s1.soc_percent.to_bits());
}

#[test]
fn session_reset_reproduces_a_fresh_controller_bitwise() {
    let steps = 30;
    let profile = sim(DriveCycle::ece_eudc(), 0.0);
    let baseline = solo_trajectory(&profile, steps);

    // Drive the slot hard first (warming the MPC on a different
    // trajectory), then reset it onto the baseline profile. The reset
    // must invalidate every piece of warmed state: the re-run has to
    // match a from-scratch session exactly.
    let other = sim(DriveCycle::udds(), 35.0);
    let mut config = FleetConfig::new(EvParams::nissan_leaf_like());
    config.shards = 1;
    let fleet = FleetEngine::new(config);
    fleet
        .open(7, Arc::clone(&other), ControllerKind::Mpc)
        .unwrap();
    fleet.step(7, 25).unwrap();
    fleet.reset(7, Arc::clone(&profile)).unwrap();
    fleet.step(7, steps).unwrap();
    let summary = fleet.close(7).unwrap();
    let _ = fleet.shutdown();

    assert_eq!(summary.drives, 2);
    assert_eq!(summary.steps, 25 + steps as u64);
    assert_eq!(
        (
            summary.soc_percent.to_bits(),
            summary.cabin_temp_c.to_bits()
        ),
        baseline,
        "reset_session left warmed controller state behind"
    );
}

#[test]
fn loadgen_digest_is_invariant_under_shard_count() {
    // The fleet digest folds per-session digests with an
    // order-independent sum, and every session's trajectory is
    // scheduling-independent — so the deterministic report fields must
    // not change when the same fleet is served by 1 shard or 3. That
    // holds under an SQP iteration cap too, and only if the cap reaches
    // the sessions of every shard.
    let base = LoadgenConfig {
        sessions: 12,
        steps_per_session: 25,
        seed: 1234,
        shards: 1,
        ..LoadgenConfig::default()
    };
    let setup = |max_sqp_iterations| ControllerSetup {
        telemetry: Registry::enabled(),
        max_sqp_iterations,
        ..ControllerSetup::default()
    };
    let mut digests = Vec::new();
    for cap in [None, Some(1)] {
        let one_setup = setup(cap);
        let one = run_loadgen(&base, &one_setup);
        let three = run_loadgen(
            &LoadgenConfig {
                shards: 3,
                ..base.clone()
            },
            &setup(cap),
        );

        assert_eq!(one.total_steps, three.total_steps);
        assert_eq!(one.finished_drives, three.finished_drives);
        assert_eq!(one.warm_start_hits, three.warm_start_hits);
        assert_eq!(one.warm_start_misses, three.warm_start_misses);
        assert_eq!(
            one.fleet_digest, three.fleet_digest,
            "fleet digest depends on shard scheduling (cap {cap:?})"
        );
        assert_eq!(three.shards, 3);
        if cap.is_some() {
            let max_iterations = one_setup
                .telemetry
                .snapshot()
                .counter_sum("mpc_solve_max_iterations_total");
            assert!(max_iterations > Some(0), "the cap never bound a solve");
        }
        digests.push(one.fleet_digest);
    }
    assert_ne!(digests[0], digests[1], "the cap did not change the fleet");
}
