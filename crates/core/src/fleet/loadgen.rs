//! Deterministic synthetic-fleet load generator.
//!
//! Drives N vehicle sessions through the [`FleetEngine`] from a seeded
//! arrival process over a drive-cycle × ambient mix, then reports
//! throughput and solve latency. Everything the *simulation* produces
//! is reproducible: the same seed yields the same cycle/ambient draws,
//! the same per-session step counts and therefore the same final fleet
//! state, captured in an order-independent digest. Wall-clock figures
//! (steps/sec, solve-latency quantiles, shed counts) are measured, not
//! derived, and sit outside the determinism guarantee.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
use ev_units::{Celsius, Seconds};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::params::{ControllerKind, ControllerSetup};
use crate::sim::Simulation;
use crate::EvParams;

use super::engine::{FleetConfig, FleetEngine, FleetError};
use super::pool::available_workers;
use super::session::SessionSummary;

/// Configuration for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Number of vehicle sessions to serve.
    pub sessions: usize,
    /// Plant steps each session executes (clamped by its profile).
    pub steps_per_session: usize,
    /// Steps per submitted command (the fan-out granularity).
    pub chunk: usize,
    /// Seed for the arrival process and scenario mix.
    pub seed: u64,
    /// Shard count handed to the engine (`0` = auto).
    pub shards: usize,
    /// Per-shard command-queue bound.
    pub queue_capacity: usize,
    /// Controller every session runs.
    pub controller: ControllerKind,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            sessions: 100,
            steps_per_session: 120,
            chunk: 16,
            seed: 42,
            shards: 0,
            queue_capacity: 256,
            controller: ControllerKind::Mpc,
        }
    }
}

/// What a loadgen run produced. The fields up to and including
/// [`fleet_digest`](Self::fleet_digest) are **deterministic** in the
/// config (same seed → bit-identical values); the rest are wall-clock
/// measurements.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Sessions served.
    pub sessions: usize,
    /// Total plant steps executed fleet-wide.
    pub total_steps: u64,
    /// Drives stepped to the end of their profile.
    pub finished_drives: u64,
    /// MPC warm-start hits fleet-wide.
    pub warm_start_hits: u64,
    /// MPC warm-start misses fleet-wide.
    pub warm_start_misses: u64,
    /// Order-independent digest of every session's final state
    /// (id, steps, SoC, cabin temperature). Equal seeds must produce
    /// equal digests; a digest change flags a cross-session leak.
    pub fleet_digest: u64,
    /// Step submissions shed by backpressure before the parking retry
    /// (timing-dependent).
    pub shed_events: u64,
    /// Wall-clock duration of the run.
    pub wall_seconds: f64,
    /// Throughput: plant steps per wall-clock second.
    pub steps_per_second: f64,
    /// Sessions served per available core.
    pub sessions_per_core: f64,
    /// Median MPC control-step latency (milliseconds; NaN when the
    /// controller records no solve timings).
    pub p50_solve_ms: f64,
    /// 99th-percentile MPC control-step latency (milliseconds).
    pub p99_solve_ms: f64,
    /// Shards the engine ran with.
    pub shards: usize,
}

/// One splitmix64 avalanche round.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes one session summary into a single word.
fn summary_digest(s: &SessionSummary) -> u64 {
    let mut h = mix64(s.vehicle_id ^ 0x5EED_F1EE_7D16_E575);
    h = mix64(h ^ s.steps);
    h = mix64(h ^ u64::from(s.drives));
    h = mix64(h ^ u64::from(s.finished));
    h = mix64(h ^ s.soc_percent.to_bits());
    mix64(h ^ s.cabin_temp_c.to_bits())
}

/// Folds per-session digests **order-independently** (wrapping sum), so
/// shard scheduling cannot perturb the fleet digest.
fn fleet_digest(summaries: &[SessionSummary]) -> u64 {
    summaries
        .iter()
        .fold(0u64, |acc, s| acc.wrapping_add(summary_digest(s)))
}

/// The drive-cycle mix the generator draws from.
fn cycle_mix() -> [DriveCycle; 3] {
    [
        DriveCycle::ece_eudc(),
        DriveCycle::udds(),
        DriveCycle::us06(),
    ]
}

/// The ambient mix (°C): deep winter, freezing, mild, paper-hot.
const AMBIENT_MIX_C: [f64; 4] = [-10.0, 0.0, 20.0, 35.0];

/// Runs the synthetic fleet and reports. See [`LoadgenConfig`].
///
/// `setup` becomes the engine's [`FleetConfig::setup`], shared by every
/// session. Its registry backs the report's warm-start counts and
/// latency quantiles, which read zero and `n/a` when it is disabled. Its
/// trace ring captures the sessions its sampling policy picks. Its
/// `max_sqp_iterations` is the fault injection: a cap of 1 makes most
/// solves end at the iteration limit.
///
/// # Panics
///
/// Panics if `sessions` is zero or a built-in drive profile fails to
/// construct (it does not).
#[must_use]
pub fn run_loadgen(config: &LoadgenConfig, setup: &ControllerSetup) -> LoadgenReport {
    assert!(config.sessions > 0, "loadgen needs at least one session");
    let params = EvParams::nissan_leaf_like();
    let fleet = FleetEngine::new(FleetConfig {
        shards: config.shards,
        queue_capacity: config.queue_capacity,
        params: params.clone(),
        setup: setup.clone(),
    });
    let shards = fleet.shards();
    let cycles = cycle_mix();
    let chunk = config.chunk.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Profiles are immutable and expensive (precomputed motor-power
    // vectors), so every (cycle, ambient) pair is built once and shared
    // across its sessions.
    let mut sim_cache: HashMap<(usize, usize), Arc<Simulation>> = HashMap::new();
    let started = Instant::now();

    let mut shed_events = 0u64;
    // (vehicle_id, remaining steps), in arrival order.
    let mut active: Vec<(u64, usize)> = Vec::with_capacity(config.sessions);
    let mut summaries: Vec<SessionSummary> = Vec::with_capacity(config.sessions);
    let mut opened = 0usize;

    // Submits one chunk with shed-then-park backpressure handling: a
    // full queue is *counted* (the shed event) and then waited out, so
    // every generated step eventually executes and the totals stay
    // deterministic.
    let submit_chunk =
        |fleet: &FleetEngine, id: u64, n: usize, shed: &mut u64| match fleet.try_step(id, n) {
            Ok(()) => {}
            Err(FleetError::Shed) => {
                *shed += 1;
                fleet.step(id, n).expect("engine alive while loadgen runs");
            }
            Err(e) => panic!("loadgen submission failed: {e}"),
        };

    while opened < config.sessions || !active.is_empty() {
        // Seeded arrival burst: a few vehicles connect…
        if opened < config.sessions {
            let burst = rng.gen_range(1usize..=4).min(config.sessions - opened);
            for _ in 0..burst {
                let id = opened as u64;
                let cycle_idx = rng.gen_range(0usize..cycles.len());
                let ambient_idx = rng.gen_range(0usize..AMBIENT_MIX_C.len());
                let sim = Arc::clone(sim_cache.entry((cycle_idx, ambient_idx)).or_insert_with(
                    || {
                        let profile = DriveProfile::from_cycle(
                            &cycles[cycle_idx],
                            AmbientConditions::constant(Celsius::new(AMBIENT_MIX_C[ambient_idx])),
                            Seconds::new(1.0),
                        );
                        Arc::new(
                            Simulation::new(params.clone(), profile).expect("profile non-empty"),
                        )
                    },
                ));
                fleet
                    .open(id, sim, config.controller)
                    .expect("engine alive while loadgen runs");
                active.push((id, config.steps_per_session));
                opened += 1;
            }
        }
        // …then every connected vehicle advances one chunk.
        for (id, remaining) in &mut active {
            let n = chunk.min(*remaining);
            submit_chunk(&fleet, *id, n, &mut shed_events);
            *remaining -= n;
        }
        // Completed sessions disconnect and contribute their summary.
        let mut still_active = Vec::with_capacity(active.len());
        for (id, remaining) in active {
            if remaining == 0 {
                summaries.push(fleet.close(id).expect("session was open"));
            } else {
                still_active.push((id, remaining));
            }
        }
        active = still_active;
    }

    let stats = fleet.shutdown();
    let wall_seconds = started.elapsed().as_secs_f64();
    let snapshot = setup.telemetry.snapshot();
    // MPC metrics are per-shard labeled series now; quantiles and
    // totals come from the label-merged aggregates.
    let (p50, p99) = snapshot
        .histogram_merged("mpc_control_step_seconds")
        .map_or((f64::NAN, f64::NAN), |h| {
            (h.quantile(0.5) * 1e3, h.quantile(0.99) * 1e3)
        });

    LoadgenReport {
        sessions: config.sessions,
        total_steps: stats.total.steps,
        finished_drives: stats.total.finished_drives,
        warm_start_hits: snapshot
            .counter_sum("mpc_warm_start_hits_total")
            .unwrap_or(0),
        warm_start_misses: snapshot
            .counter_sum("mpc_warm_start_misses_total")
            .unwrap_or(0),
        fleet_digest: fleet_digest(&summaries),
        shed_events,
        wall_seconds,
        steps_per_second: stats.total.steps as f64 / wall_seconds.max(1e-9),
        sessions_per_core: config.sessions as f64 / available_workers() as f64,
        p50_solve_ms: p50,
        p99_solve_ms: p99,
        shards,
    }
}

/// Formats a quantile for display (`n/a` when no samples exist).
fn fmt_ms(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3} ms")
    } else {
        "n/a".to_owned()
    }
}

/// Renders the report as the text block `evsim loadgen` prints.
#[must_use]
pub fn render_loadgen_report(r: &LoadgenReport) -> String {
    format!(
        "Synthetic fleet — {} sessions on {} shards\n\
         deterministic:\n\
         \x20 total steps        {}\n\
         \x20 finished drives    {}\n\
         \x20 warm-start hits    {}\n\
         \x20 warm-start misses  {}\n\
         \x20 fleet digest       {:016x}\n\
         measured:\n\
         \x20 wall time          {:.3} s\n\
         \x20 throughput         {:.0} steps/s\n\
         \x20 sessions/core      {:.1}\n\
         \x20 shed events        {}\n\
         \x20 solve p50          {}\n\
         \x20 solve p99          {}\n",
        r.sessions,
        r.shards,
        r.total_steps,
        r.finished_drives,
        r.warm_start_hits,
        r.warm_start_misses,
        r.fleet_digest,
        r.wall_seconds,
        r.steps_per_second,
        r.sessions_per_core,
        r.shed_events,
        fmt_ms(r.p50_solve_ms),
        fmt_ms(r.p99_solve_ms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_telemetry::{Registry, TraceRing};

    /// The default setup with a live registry: what `evsim loadgen` runs.
    fn metered() -> ControllerSetup {
        ControllerSetup {
            telemetry: Registry::enabled(),
            ..ControllerSetup::default()
        }
    }

    fn quick_config() -> LoadgenConfig {
        LoadgenConfig {
            sessions: 12,
            steps_per_session: 40,
            chunk: 8,
            seed: 7,
            shards: 2,
            queue_capacity: 32,
            controller: ControllerKind::Mpc,
        }
    }

    #[test]
    fn loadgen_executes_every_generated_step() {
        let config = quick_config();
        let report = run_loadgen(&config, &metered());
        assert_eq!(report.sessions, 12);
        assert_eq!(report.total_steps, 12 * 40);
        assert!(
            report.warm_start_hits > 0,
            "MPC fleet must reuse warm starts"
        );
        assert!(report.p99_solve_ms.is_finite(), "solve histogram populated");
    }

    #[test]
    fn same_seed_same_deterministic_fields() {
        let config = quick_config();
        let a = run_loadgen(&config, &metered());
        let b = run_loadgen(&config, &metered());
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.finished_drives, b.finished_drives);
        assert_eq!(a.warm_start_hits, b.warm_start_hits);
        assert_eq!(a.warm_start_misses, b.warm_start_misses);
        assert_eq!(a.fleet_digest, b.fleet_digest);
    }

    #[test]
    fn different_seed_changes_the_mix() {
        let a = run_loadgen(&quick_config(), &metered());
        let b = run_loadgen(
            &LoadgenConfig {
                seed: 8,
                ..quick_config()
            },
            &metered(),
        );
        assert_ne!(
            a.fleet_digest, b.fleet_digest,
            "a different arrival mix must change the fleet digest"
        );
    }

    #[test]
    fn shard_counters_sum_to_loadgen_totals_and_series_are_per_shard() {
        let setup = metered();
        let report = run_loadgen(&quick_config(), &setup);
        let snap = setup.telemetry.snapshot();
        // Engine counters are per-shard labeled series, which outlive
        // the engine in its registry; their sums are the fleet totals.
        assert_eq!(
            snap.counter("fleet_steps_total"),
            None,
            "no unlabeled series"
        );
        let sum = |name: &str| snap.counter_sum(name);
        assert_eq!(sum("fleet_steps_total"), Some(report.total_steps));
        let sessions = Some(report.sessions as u64);
        assert_eq!(sum("fleet_sessions_opened_total"), sessions);
        assert_eq!(sum("fleet_sessions_closed_total"), sessions);
        assert!(snap
            .counter_labeled("fleet_steps_total", &[("shard", "0")])
            .is_some());
        // Per-command latency histograms populated on every shard; the
        // queue and the live sessions have drained back to zero.
        for shard in 0..report.shards {
            let shard = shard.to_string();
            let h = snap
                .histogram_labeled("fleet_cmd_seconds", &[("cmd", "step"), ("shard", &shard)])
                .expect("step latency series per shard");
            assert!(h.count > 0, "shard {shard} step histogram empty");
            assert_eq!(
                snap.gauge_labeled("fleet_queue_depth", &[("shard", &shard)]),
                Some(0.0),
                "shard {shard} still reports queued commands"
            );
            assert_eq!(
                snap.gauge_labeled("fleet_live_sessions", &[("shard", &shard)]),
                Some(0.0),
                "shard {shard} still reports live sessions"
            );
        }
        // MPC solve-outcome counters are per-shard too.
        assert!(snap.counter_sum("mpc_solves_total").unwrap_or(0) > 0);
        assert!(snap.counter("mpc_solves_total").is_none());
    }

    #[test]
    fn traced_loadgen_captures_session_step_and_solve_spans() {
        let trace = TraceRing::enabled(8192);
        let setup = ControllerSetup {
            trace: trace.clone(),
            ..metered()
        };
        let report = run_loadgen(&quick_config(), &setup);
        assert_eq!(report.total_steps, 12 * 40, "tracing must not drop steps");
        let events = trace.events();
        assert!(!events.is_empty());
        let count = |name: &str, phase| {
            events
                .iter()
                .filter(|e| e.name == name && e.phase == phase)
                .count()
        };
        use ev_telemetry::TracePhase;
        assert_eq!(count("session", TracePhase::Begin), 12);
        assert_eq!(count("session", TracePhase::End), 12);
        assert!(count("step", TracePhase::Complete) > 0);
        assert!(count("mpc_solve", TracePhase::Complete) > 0);
        // Events carry the engine's (shard, session) identity.
        assert!(events.iter().all(|e| (e.pid as usize) < report.shards));
        assert!(events.iter().any(|e| e.tid > 0));
        let json = trace.to_chrome_json();
        assert!(
            json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"B\""),
            "{json}"
        );
    }

    #[test]
    fn sampled_trace_keeps_a_session_subset() {
        let trace = TraceRing::sampled(8192, 4);
        let setup = ControllerSetup {
            trace: trace.clone(),
            ..metered()
        };
        let _ = run_loadgen(&quick_config(), &setup);
        let events = trace.events();
        assert!(!events.is_empty(), "vehicle ids divisible by 4 are sampled");
        assert!(
            events.iter().all(|e| e.tid % 4 == 0),
            "unsampled session leaked"
        );
    }

    #[test]
    fn report_renders_without_invalid_tokens() {
        let config = LoadgenConfig {
            sessions: 4,
            steps_per_session: 10,
            controller: ControllerKind::OnOff,
            ..quick_config()
        };
        let text = render_loadgen_report(&run_loadgen(&config, &metered()));
        assert!(text.contains("fleet digest"));
        assert!(text.contains("solve p99          n/a"), "{text}");
    }
}
