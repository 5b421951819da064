//! The fleet workloads: one closed-loop client against one
//! [`FleetEngine`] shard in the production setup (enabled registry,
//! trace ring off, default [`ControllerSetup`]).
//!
//! The client keeps at most `max_active` sessions open. Each round, a
//! seeded burst of 1–4 new sessions arrives if there is room, then every
//! open session gets one request: `step(id, n)` followed by `query(id)`,
//! with one request outstanding at a time. A request's latency runs from
//! submitting its first command to the `query` reply; a session's first
//! request also carries its `open`. The run is cut into time slices of
//! about [`SLICE_S`], with a host calibration between slices and a timed
//! set-up build between every [`SETUP_EVERY`]th, and stops once the
//! slices add up to the run's seconds (or, for tests, once
//! `max_sessions` sessions have been served). The client, the shard and
//! the calibration share one CPU. MPC workloads are calibrated with the
//! dense kernels, rule-based ones with the scalar kernels (see `calib`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ev_core::experiments::profile_at;
use ev_core::fleet::{FleetConfig, FleetEngine, FleetError, FleetStats, SessionSummary};
use ev_core::{ControllerSetup, EvParams, Simulation};
use ev_drive::DriveCycle;
use ev_telemetry::{Registry, Snapshot};

use crate::arrivals::{Arrivals, ControllerMix, SessionSpec, SplitMix64, AMBIENTS_C};
use crate::calib::{Pin, Work};
use crate::ledger::{self, FinalState, Ledger, Replayed};
use crate::{
    ratio, Check, HostClock, RunOptions, RunReport, Slice, SETUP_EVERY, SETUP_REPS, SLICE_S,
};

fn cycles() -> [DriveCycle; 3] {
    [
        DriveCycle::ece_eudc(),
        DriveCycle::udds(),
        DriveCycle::us06(),
    ]
}

/// A fleet workload's shape.
#[derive(Debug, Clone)]
pub struct FleetWorkload {
    /// Which controllers sessions run.
    pub mix: ControllerMix,
    /// Plant steps per session; `None` drives the whole profile.
    pub session_steps: Option<usize>,
    /// Plant steps per request.
    pub request_steps: usize,
    /// Most sessions open at once.
    pub max_active: usize,
    /// Stop after serving this many sessions (`None`: the time limit
    /// alone ends the run).
    pub max_sessions: Option<usize>,
    /// The first sessions generated that are replayed solo after the run
    /// and checked against the engine.
    pub check_sessions: usize,
    /// Expected outputs of those sessions for one seed.
    pub reference: Option<FleetReference>,
}

/// The mean final state of a seed's first `check_sessions` sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetReference {
    /// The seed the values belong to.
    pub seed: u64,
    /// Mean final state of charge (%).
    pub mean_soc_pct: f64,
    /// Mean final cabin temperature (°C).
    pub mean_cabin_c: f64,
}

/// Tolerances of the reference check.
const SOC_TOL_PP: f64 = 0.01;
const CABIN_TOL_K: f64 = 0.01;

/// What the client builds before its clock starts.
struct Rig {
    registry: Registry,
    engine: FleetEngine,
    /// One simulation per (cycle, ambient), indexed by
    /// [`SessionSpec::sim_index`].
    sims: Vec<Arc<Simulation>>,
}

fn build_rig(params: &EvParams) -> Rig {
    let registry = Registry::enabled();
    let engine = FleetEngine::new(FleetConfig {
        shards: 1,
        queue_capacity: 256,
        params: params.clone(),
        setup: ControllerSetup {
            telemetry: registry.clone(),
            ..ControllerSetup::default()
        },
    });
    let sims = cycles()
        .iter()
        .flat_map(|cycle| {
            AMBIENTS_C.iter().map(move |&ambient| {
                Arc::new(
                    Simulation::new(params.clone(), profile_at(cycle, ambient))
                        .expect("built-in profiles are non-empty"),
                )
            })
        })
        .collect();
    Rig {
        registry,
        engine,
        sims,
    }
}

fn shut_down(rig: Rig) {
    let _ = rig.engine.shutdown();
}

/// One session as the client saw it.
struct Served {
    spec: SessionSpec,
    /// Steps the session was generated with.
    length: usize,
    /// Steps the engine confirmed.
    steps: usize,
    /// The last `query` reply.
    summary: Option<SessionSummary>,
    failed: bool,
}

impl Served {
    fn done(&self) -> bool {
        self.steps == self.length && !self.failed
    }
}

/// The timed phase's raw results.
struct Phase {
    served: Vec<Served>,
    /// The run's time slices, in order.
    slices: Vec<Slice>,
    /// Requests whose reply was an error or reported the wrong step count.
    failed: u64,
    stats: FleetStats,
    snapshot: Snapshot,
}

impl Phase {
    fn requests(&self) -> u64 {
        self.slices.iter().map(|s| s.latencies.len() as u64).sum()
    }

    fn steps(&self) -> u64 {
        self.slices.iter().map(|s| s.steps).sum()
    }
}

fn request(
    engine: &FleetEngine,
    spec: &SessionSpec,
    sim: &Arc<Simulation>,
    steps: usize,
    open: bool,
) -> Result<SessionSummary, FleetError> {
    if open {
        engine.open(spec.id, Arc::clone(sim), spec.kind)?;
    }
    engine.step(spec.id, steps)?;
    engine.query(spec.id)
}

/// Serves `seconds` of the seed's request stream in [`SLICE_S`] time
/// slices. After each slice, with no request outstanding, it calibrates
/// the host, and after every [`SETUP_EVERY`]th it times one more set-up
/// build; the slices' clocks exclude both.
fn run_phase(
    w: &FleetWorkload,
    seed: u64,
    seconds: f64,
    rig: Rig,
    clock: &mut HostClock,
    params: &EvParams,
) -> Phase {
    let Rig {
        registry,
        engine,
        sims,
    } = rig;
    let mut arrivals = Arrivals::new(seed, w.mix);
    let mut served: Vec<Served> = Vec::new();
    // Indices into `served`, in round-robin order.
    let mut active: Vec<usize> = Vec::new();
    let mut slices = Vec::new();
    let mut served_s = 0.0;
    let mut slice = Slice::default();
    let mut slice_start = Instant::now();
    let mut failed = 0u64;
    'run: loop {
        let admitting = w.max_sessions.is_none_or(|m| served.len() < m);
        if admitting && active.len() < w.max_active {
            let room = w.max_active - active.len();
            for _ in 0..arrivals.burst().min(room) {
                if w.max_sessions.is_some_and(|m| served.len() >= m) {
                    break;
                }
                let spec = arrivals.session();
                let profile_len = sims[spec.sim_index()].profile().len();
                active.push(served.len());
                served.push(Served {
                    spec,
                    length: w.session_steps.map_or(profile_len, |s| s.min(profile_len)),
                    steps: 0,
                    summary: None,
                    failed: false,
                });
            }
        }
        if active.is_empty() {
            break;
        }
        for &i in &active {
            if slice_start.elapsed().as_secs_f64() >= SLICE_S {
                slice.wall_s = slice_start.elapsed().as_secs_f64();
                served_s += slice.wall_s;
                clock.end_slice(&mut slice);
                slices.push(std::mem::take(&mut slice));
                if served_s >= seconds {
                    break 'run;
                }
                if slices.len() % SETUP_EVERY == 0 {
                    shut_down(clock.timed_builds(1, || build_rig(params), shut_down));
                }
                slice_start = Instant::now();
            }
            let s = &mut served[i];
            let n = w.request_steps.min(s.length - s.steps);
            let t = Instant::now();
            let reply = request(&engine, &s.spec, &sims[s.spec.sim_index()], n, s.steps == 0);
            slice.latencies.push(t.elapsed().as_secs_f64());
            match reply {
                Ok(summary) if summary.steps == (s.steps + n) as u64 => {
                    s.steps += n;
                    slice.steps += n as u64;
                    s.summary = Some(summary);
                }
                _ => {
                    s.failed = true;
                    failed += 1;
                }
            }
        }
        active.retain(|&i| {
            let s = &served[i];
            if s.failed {
                return false;
            }
            if s.done() && engine.close(s.spec.id).is_err() {
                failed += 1;
            }
            !s.done()
        });
    }
    if !slice.latencies.is_empty() {
        slice.wall_s = slice_start.elapsed().as_secs_f64();
        clock.end_slice(&mut slice);
        slices.push(slice);
    }
    for &i in &active {
        let s = &served[i];
        if s.steps > 0 && !s.failed && engine.close(s.spec.id).is_err() {
            failed += 1;
        }
    }
    let stats = engine.shutdown();
    Phase {
        served,
        slices,
        failed,
        stats,
        snapshot: registry.snapshot(),
    }
}

/// Runs a fleet workload. See the module docs.
#[must_use]
pub(crate) fn run(w: &FleetWorkload, opts: &RunOptions) -> RunReport {
    let params = EvParams::nissan_leaf_like();
    // The client, the engine's shard thread and the calibration share
    // one CPU: with one request outstanding, the client waits while the
    // shard works, and each virtual CPU of a shared host changes speed
    // on its own, so only a calibration on the shard's CPU tracks it.
    let pin = Pin::last_cpu();
    let work = match w.mix {
        ControllerMix::Mpc => Work::Dense,
        ControllerMix::Rule => Work::Scalar,
    };
    let mut clock = HostClock::new(work);
    let rig = clock.timed_builds(SETUP_REPS, || build_rig(&params), shut_down);
    let sims = rig.sims.clone();
    // A traced run spends a third of its time serving and the rest
    // replaying what it served through the ledger.
    let seconds = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let phase = run_phase(w, opts.seed, seconds, rig, &mut clock, &params);
    let mut report = RunReport {
        attempted: phase.requests(),
        failed: phase.failed + phase.stats.total.rejected,
        sessions: phase.served.iter().map(|s| s.spec).collect(),
        ..RunReport::default()
    };
    report.notes.push(match pin.cpu {
        Some(cpu) => format!("client and shard pinned to CPU {cpu}"),
        None => "client and shard not pinned: taskset failed".to_owned(),
    });
    drop(pin);
    report.checks.push(Check::new(
        "fleet.no_failed_requests",
        report.failed == 0,
        format!(
            "{} failed requests, {} rejected commands",
            phase.failed, phase.stats.total.rejected
        ),
    ));
    report.checks.push(Check::new(
        "fleet.every_step_ran",
        phase.stats.total.steps == phase.steps(),
        format!(
            "engine ran {} steps, client requested {}",
            phase.stats.total.steps,
            phase.steps()
        ),
    ));
    check_sessions(w, opts.seed, &params, &sims, &phase, &mut report);
    let counts = ledger::solver_counts([&phase.snapshot]);
    report.count_work(phase.steps(), report.attempted, &counts);
    let completed = phase.served.iter().filter(|s| s.done()).count();
    report.notes.push(format!(
        "{} sessions served ({completed} completed)",
        phase.served.len()
    ));
    report.slice_metrics("request", &phase.slices);
    if opts.trace {
        traced(&params, &sims, &phase, &mut report);
    } else {
        report
            .metrics
            .insert("solve_ok_share", ledger::solve_ok_share(&counts));
        clock.report(&mut report);
    }
    report
}

/// Replays the first `check_sessions` sessions solo to their full length
/// and checks them against the engine's replies and, for the reference
/// seed, against the recorded means.
fn check_sessions(
    w: &FleetWorkload,
    seed: u64,
    params: &EvParams,
    sims: &[Arc<Simulation>],
    phase: &Phase,
    report: &mut RunReport,
) {
    let disabled = Registry::disabled();
    let checked: Vec<(&Served, FinalState)> = phase
        .served
        .iter()
        .take(w.check_sessions)
        .map(|s| {
            let controller = Replayed::new(s.spec.kind, params, &disabled);
            let state = ledger::replay(&sims[s.spec.sim_index()], controller, s.length, None);
            (s, state)
        })
        .collect();
    let completed: Vec<_> = checked.iter().filter(|(s, _)| s.done()).collect();
    let differing = completed
        .iter()
        .filter(|(s, state)| {
            let summary = s.summary.as_ref().expect("completed sessions have a reply");
            !state.same_bits(summary.steps, summary.soc_percent, summary.cabin_temp_c)
        })
        .count();
    report.checks.push(Check::new(
        "fleet.engine_matches_solo_replay",
        !completed.is_empty() && differing == 0,
        format!(
            "{differing} of {} completed sessions differ from their solo replay",
            completed.len()
        ),
    ));
    let n = checked.len().max(1) as f64;
    let soc = checked.iter().map(|(_, f)| f.soc_pct).sum::<f64>() / n;
    let cabin = checked.iter().map(|(_, f)| f.cabin_c).sum::<f64>() / n;
    // Order-independent digest of the checked sessions' final states.
    let mix = |h: u64, v: u64| SplitMix64::new(h ^ v).next_u64();
    let digest = checked.iter().fold(0u64, |acc, (s, f)| {
        let h = mix(
            mix(mix(s.spec.id, f.steps), f.soc_pct.to_bits()),
            f.cabin_c.to_bits(),
        );
        acc.wrapping_add(h)
    });
    report.notes.push(format!(
        "first {} sessions: mean final SoC {soc:.6} %, cabin {cabin:.6} °C, digest {digest:016x}",
        checked.len()
    ));
    if let Some(r) = w.reference.filter(|r| r.seed == seed) {
        report.checks.push(Check::new(
            "fleet.reference_outputs",
            checked.len() == w.check_sessions
                && (soc - r.mean_soc_pct).abs() <= SOC_TOL_PP
                && (cabin - r.mean_cabin_c).abs() <= CABIN_TOL_K,
            format!(
                "mean SoC {soc:.6} vs {:.6} ±{SOC_TOL_PP} pp, cabin {cabin:.6} vs {:.6} ±{CABIN_TOL_K} K",
                r.mean_soc_pct, r.mean_cabin_c
            ),
        ));
    }
}

/// Exact count and sum of `fleet_cmd_seconds{cmd=…}` over shards.
fn cmd_seconds(s: &Snapshot, cmd: &str) -> (u64, f64) {
    s.histograms
        .iter()
        .filter(|h| {
            h.name == "fleet_cmd_seconds" && h.labels.iter().any(|(k, v)| k == "cmd" && v == cmd)
        })
        .fold((0, 0.0), |(c, s), h| (c + h.count, s + h.sum))
}

/// The traced run's second part: the engine layer from the registry, the
/// rest from a solo replay of every served session through the ledger.
fn traced(params: &EvParams, sims: &[Arc<Simulation>], phase: &Phase, report: &mut RunReport) {
    let requests = report.attempted as f64;
    let (opens, open_s) = cmd_seconds(&phase.snapshot, "open");
    let (_, step_s) = cmd_seconds(&phase.snapshot, "step");
    // The `query` series is left out: its span ends after the reply is
    // sent, so on a shared CPU it also times the client the reply woke.
    let busy = ratio(open_s + step_s, requests);
    let latency_s: f64 = phase.slices.iter().flat_map(|s| &s.latencies).sum();
    let latency = ratio(latency_s, requests);
    let m = &mut report.metrics;
    m.insert("fleet.busy_us_per_request", 1e6 * busy);
    m.insert("fleet.wait_us_per_request", 1e6 * (latency - busy));
    m.insert("fleet.open_us", 1e6 * ratio(open_s, opens as f64));

    let registry = Registry::enabled();
    let mut ledger = Ledger::default();
    let mut differing = 0usize;
    for s in phase.served.iter().filter(|s| s.steps > 0) {
        let controller = Replayed::new(s.spec.kind, params, &registry);
        let state = ledger::replay(
            &sims[s.spec.sim_index()],
            controller,
            s.steps,
            Some(&mut ledger),
        );
        if let Some(summary) = &s.summary {
            if !state.same_bits(summary.steps, summary.soc_percent, summary.cabin_temp_c) {
                differing += 1;
            }
        }
    }
    let replay = registry.snapshot();
    report.checks.push(Check::new(
        "trace.replay_matches_engine_states",
        differing == 0,
        format!("{differing} sessions end in a different state than the engine reported"),
    ));
    let engine_counts = ledger::solver_counts([&phase.snapshot]);
    let replay_counts = ledger::solver_counts([&replay]);
    report.checks.push(counts_check(
        "trace.replay_matches_engine_counts",
        &engine_counts,
        &replay_counts,
        phase.steps(),
        ledger.steps,
    ));
    ledger.gates(&replay, &mut report.checks);
    ledger.layer_metrics(&replay, &mut report.metrics);
    report
        .counts
        .insert("ipm_iterations", ledger.sqp.qp_iterations);
    report.notes.extend(ledger.table());
    report.notes.push(format!(
        "traced/untraced wall: {:.4} (replay outside re-solves {:.3} ms vs engine step time {:.3} ms)",
        ratio(ledger.advance_s - ledger.resolve_s, step_s),
        1e3 * (ledger.advance_s - ledger.resolve_s),
        1e3 * step_s
    ));
}

/// Checks that two runs of the same work produced the same solver
/// counts and plant steps.
pub(crate) fn counts_check(
    name: &str,
    expected: &BTreeMap<&'static str, u64>,
    got: &BTreeMap<&'static str, u64>,
    expected_steps: u64,
    got_steps: u64,
) -> Check {
    let mut differing: Vec<String> = expected
        .iter()
        .filter(|(k, v)| got.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {}", got.get(k).copied().unwrap_or(0)))
        .collect();
    if expected_steps != got_steps {
        differing.push(format!("steps: {expected_steps} vs {got_steps}"));
    }
    Check::new(
        name,
        differing.is_empty(),
        if differing.is_empty() {
            format!("{got_steps} steps, {} solves", got["mpc_solves_total"])
        } else {
            differing.join("; ")
        },
    )
}
