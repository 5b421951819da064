//! The sharded fleet engine: shared-nothing session workers behind
//! bounded command channels.
//!
//! Vehicle ids are hash-partitioned onto `N` shards. Each shard is one
//! OS thread owning a `HashMap` from vehicle id to [`VehicleSession`] and
//! receiving commands from a bounded [`mpsc::sync_channel`] — no session
//! state is ever shared between shards, so there are no per-step locks:
//! a vehicle's commands execute in submission order on its home shard,
//! and the MPC warm start cached inside its controller is only ever
//! touched by that shard's thread.
//!
//! Backpressure is explicit at the submission boundary:
//! [`FleetEngine::step`] *parks* the caller while the home shard's
//! queue is full, [`FleetEngine::try_step`] *sheds* (returns
//! [`FleetError::Shed`]). Either way the queue never buffers more than
//! its configured capacity.
//!
//! A shard's worker owns the channel's receiver. If the worker panics,
//! the receiver drops with it: every later submission to that shard,
//! a parked one included, returns [`FleetError::ShuttingDown`], and so
//! does a `close` or `query` whose command was still queued; the
//! shard's queue depth falls to 0. The other shards keep serving.
//! Dropping the engine without [`shutdown`](FleetEngine::shutdown) drops
//! every sender, so each worker runs what it had accepted and exits.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use ev_telemetry::{Counter, Gauge, Histogram, HistogramSpec, Registry};

use crate::params::{ControllerKind, ControllerSetup};
use crate::sim::Simulation;
use crate::EvParams;

use super::pool::available_workers;
use super::session::{SessionSummary, VehicleSession};

/// Configuration for [`FleetEngine::new`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard (worker thread) count; `0` = the machine's available
    /// parallelism.
    pub shards: usize,
    /// Per-shard command-queue bound (the backpressure window).
    pub queue_capacity: usize,
    /// Vehicle parameters every instantiated controller uses.
    pub params: EvParams,
    /// Observability wiring shared by all sessions. Point
    /// `setup.telemetry` at an enabled [`Registry`] to get fleet-wide
    /// merged metrics (solve-latency histograms, warm-start counters)
    /// for the scrape endpoint.
    pub setup: ControllerSetup,
}

impl FleetConfig {
    /// A config with automatic sharding and a 256-command window.
    #[must_use]
    pub fn new(params: EvParams) -> Self {
        Self {
            shards: 0,
            queue_capacity: 256,
            params,
            setup: ControllerSetup::default(),
        }
    }
}

/// Why a fleet submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// `try_step` found the home shard's queue full; the command was
    /// shed, the caller decides whether to retry, park or drop.
    Shed,
    /// The home shard's worker has stopped, by
    /// [`shutdown`](FleetEngine::shutdown) or by a panic: the command
    /// was refused, or it was queued and will never run.
    ShuttingDown,
    /// The vehicle has no open session on its home shard.
    UnknownSession(u64),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Shed => f.write_str("command shed: shard queue full"),
            FleetError::ShuttingDown => f.write_str("fleet engine is shutting down"),
            FleetError::UnknownSession(id) => write!(f, "no open session for vehicle {id}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Commands a shard consumes, in strict submission order per shard.
enum Command {
    Open {
        vehicle_id: u64,
        sim: Arc<Simulation>,
        kind: ControllerKind,
    },
    Step {
        vehicle_id: u64,
        steps: usize,
    },
    /// Run the vehicle's current drive to the end of its profile.
    Drain {
        vehicle_id: u64,
    },
    Reset {
        vehicle_id: u64,
        sim: Arc<Simulation>,
    },
    Close {
        vehicle_id: u64,
        reply: mpsc::Sender<Result<SessionSummary, FleetError>>,
    },
    Query {
        vehicle_id: u64,
        reply: mpsc::Sender<Result<SessionSummary, FleetError>>,
    },
    /// Barrier: the shard replies once every earlier command has run.
    Sync {
        reply: mpsc::Sender<()>,
    },
    /// Test-only: block the shard until the receiver yields, so tests
    /// can fill its queue deterministically.
    #[cfg(test)]
    Park(mpsc::Receiver<()>),
    /// Test-only: block the shard like `Park`, then panic its worker,
    /// as a faulty controller would.
    #[cfg(test)]
    Panic(mpsc::Receiver<()>),
}

/// Counters one shard accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Plant steps executed.
    pub steps: u64,
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed.
    pub closed: u64,
    /// Session resets (drive handovers, warm starts invalidated).
    pub resets: u64,
    /// Drives stepped all the way to the end of their profile.
    pub finished_drives: u64,
    /// Commands rejected (unknown vehicle, duplicate open, bad
    /// controller config).
    pub rejected: u64,
}

impl ShardStats {
    fn merge(&mut self, other: &ShardStats) {
        self.steps += other.steps;
        self.opened += other.opened;
        self.closed += other.closed;
        self.resets += other.resets;
        self.finished_drives += other.finished_drives;
        self.rejected += other.rejected;
    }
}

/// Aggregate counters returned by [`FleetEngine::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Sum over all shards.
    pub total: ShardStats,
    /// Per-shard breakdown (index = shard).
    pub per_shard: Vec<ShardStats>,
}

/// Commands submitted to one shard that are not yet out of its channel.
/// Each submission holds a [`Queued`] ticket from before its send until
/// the command leaves the channel, so the count never wraps, a
/// submission parked on a full queue counts as queued, it equals the
/// channel's buffered count whenever no submission is in flight, and it
/// falls to 0 when a dead worker's channel discards what it held. Every
/// change is published to the shard's `fleet_queue_depth` gauge. It is a
/// statistic that publishes no other data, hence `Relaxed`.
struct QueueDepth {
    count: AtomicUsize,
    gauge: Gauge,
}

impl QueueDepth {
    /// Counts one more queued command until the returned ticket drops.
    fn raise(self: &Arc<Self>) -> Queued {
        let depth = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        self.gauge.set(depth as f64);
        Queued(Arc::clone(self))
    }
}

/// A command's share of its shard's [`QueueDepth`]. It travels with the
/// command and lowers the count when dropped: when the worker takes the
/// command, when a failed send hands it back, or when the channel of a
/// worker that panicked discards it.
struct Queued(Arc<QueueDepth>);

impl Drop for Queued {
    fn drop(&mut self) {
        let depth = self.0.count.fetch_sub(1, Ordering::Relaxed) - 1;
        self.0.gauge.set(depth as f64);
    }
}

struct Shard {
    /// Each command goes with its ticket, first in the tuple so that the
    /// count falls before the command, and any reply sender in it, drops.
    queue: SyncSender<(Queued, Command)>,
    worker: JoinHandle<ShardStats>,
    depth: Arc<QueueDepth>,
    /// Submission-side backpressure counters, labeled `{shard="i"}`:
    /// commands that had to park, commands shed by `try_step`. Counted
    /// at the submission boundary because that is where parking and
    /// shedding happen.
    parked_total: Counter,
    shed_total: Counter,
}

impl Shard {
    /// Queues `cmd`. On a full queue it *parks* (waits for a slot,
    /// counted once in `fleet_commands_parked_total`) when `park` is
    /// set, and otherwise *sheds* it.
    fn send(&self, cmd: Command, park: bool) -> Result<(), FleetError> {
        match self.queue.try_send((self.depth.raise(), cmd)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(queued)) if park => {
                self.parked_total.inc();
                self.queue
                    .send(queued)
                    .map_err(|_| FleetError::ShuttingDown)
            }
            Err(TrySendError::Full(_)) => {
                self.shed_total.inc();
                Err(FleetError::Shed)
            }
            Err(TrySendError::Disconnected(_)) => Err(FleetError::ShuttingDown),
        }
    }
}

/// The fleet engine. See the module docs for the sharding and
/// backpressure model.
pub struct FleetEngine {
    shards: Vec<Shard>,
    registry: Registry,
}

impl FleetEngine {
    /// Spawns the shard workers and returns the engine handle.
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is zero.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        // `sync_channel(0)` would be a rendezvous channel, not a window.
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let n = if config.shards == 0 {
            available_workers()
        } else {
            config.shards
        };
        let registry = config.setup.telemetry.clone();
        let shards = (0..n)
            .map(|i| {
                let (queue, commands) = mpsc::sync_channel(config.queue_capacity);
                let params = config.params.clone();
                // Everything a shard mints — engine counters, command
                // latencies, and through the controller factory every
                // MPC solve-outcome counter — carries this shard label.
                let shard_registry = registry.scoped(&[("shard", &i.to_string())]);
                let depth = Arc::new(QueueDepth {
                    count: AtomicUsize::new(0),
                    gauge: shard_registry.gauge("fleet_queue_depth"),
                });
                let setup = ControllerSetup {
                    telemetry: shard_registry.clone(),
                    ..config.setup.clone()
                };
                let worker = std::thread::Builder::new()
                    .name(format!("fleet-shard-{i}"))
                    .spawn(move || shard_main(commands, &params, &setup, i))
                    .expect("spawning a fleet shard worker");
                Shard {
                    queue,
                    worker,
                    depth,
                    parked_total: shard_registry.counter("fleet_commands_parked_total"),
                    shed_total: shard_registry.counter("fleet_commands_shed_total"),
                }
            })
            .collect();
        Self { shards, registry }
    }

    /// Number of shards (worker threads).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The telemetry registry all sessions record into.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Commands submitted and not yet taken by a worker, summed over
    /// all shards (racy, diagnostics only). A submission parked on a
    /// full queue counts as queued, so while callers park the sum can
    /// exceed `shards × queue_capacity`.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.count.load(Ordering::Relaxed))
            .sum()
    }

    fn shard_of(&self, vehicle_id: u64) -> &Shard {
        // Fibonacci mix so dense id ranges still spread evenly, then a
        // modulo onto the (not necessarily power-of-two) shard count.
        let mixed = vehicle_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (mixed % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Queues `cmd` on `vehicle_id`'s home shard, parking while it is
    /// full.
    fn submit(&self, vehicle_id: u64, cmd: Command) -> Result<(), FleetError> {
        self.shard_of(vehicle_id).send(cmd, true)
    }

    /// Opens a session for `vehicle_id`: the home shard instantiates a
    /// private controller of `kind` and a fresh plant on `sim`.
    /// Fire-and-forget; parks while the shard queue is full. A
    /// duplicate open or a failed controller build is rejected
    /// shard-side: it is counted in [`ShardStats::rejected`], and
    /// [`query`](Self::query) shows which session is open.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] if the home shard's worker stopped.
    pub fn open(
        &self,
        vehicle_id: u64,
        sim: Arc<Simulation>,
        kind: ControllerKind,
    ) -> Result<(), FleetError> {
        self.submit(
            vehicle_id,
            Command::Open {
                vehicle_id,
                sim,
                kind,
            },
        )
    }

    /// Advances `vehicle_id` by `steps` plant steps, **parking** while
    /// the home shard's queue is full.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] if the home shard's worker stopped.
    pub fn step(&self, vehicle_id: u64, steps: usize) -> Result<(), FleetError> {
        self.submit(vehicle_id, Command::Step { vehicle_id, steps })
    }

    /// Advances `vehicle_id` by `steps` plant steps, **shedding**
    /// (returning [`FleetError::Shed`]) if the home shard's queue is
    /// full right now. Never blocks.
    ///
    /// # Errors
    ///
    /// [`FleetError::Shed`] on a full queue, [`FleetError::ShuttingDown`]
    /// if the home shard's worker stopped.
    pub fn try_step(&self, vehicle_id: u64, steps: usize) -> Result<(), FleetError> {
        self.shard_of(vehicle_id)
            .send(Command::Step { vehicle_id, steps }, false)
    }

    /// Runs `vehicle_id`'s current drive to the end of its profile.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] if the home shard's worker stopped.
    pub fn drain(&self, vehicle_id: u64) -> Result<(), FleetError> {
        self.submit(vehicle_id, Command::Drain { vehicle_id })
    }

    /// Hands `vehicle_id`'s session to a new drive on `sim`,
    /// invalidating all controller state tied to the previous
    /// trajectory.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShuttingDown`] if the home shard's worker stopped.
    pub fn reset(&self, vehicle_id: u64, sim: Arc<Simulation>) -> Result<(), FleetError> {
        self.submit(vehicle_id, Command::Reset { vehicle_id, sim })
    }

    /// Closes `vehicle_id`'s session and returns its final summary.
    /// Blocks until the shard has processed every earlier command for
    /// that vehicle.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] if no session is open,
    /// [`FleetError::ShuttingDown`] if the home shard's worker has
    /// stopped before running the close.
    pub fn close(&self, vehicle_id: u64) -> Result<SessionSummary, FleetError> {
        let (reply, rx) = mpsc::channel();
        self.submit(vehicle_id, Command::Close { vehicle_id, reply })?;
        rx.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Returns a point-in-time summary of `vehicle_id`'s session
    /// without closing it.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] if no session is open,
    /// [`FleetError::ShuttingDown`] if the home shard's worker has
    /// stopped before answering.
    pub fn query(&self, vehicle_id: u64) -> Result<SessionSummary, FleetError> {
        let (reply, rx) = mpsc::channel();
        self.submit(vehicle_id, Command::Query { vehicle_id, reply })?;
        rx.recv().map_err(|_| FleetError::ShuttingDown)?
    }

    /// Barrier: returns once every command submitted before this call
    /// has been executed on every shard whose worker is running.
    pub fn sync(&self) {
        let receivers: Vec<mpsc::Receiver<()>> = self
            .shards
            .iter()
            .filter_map(|s| {
                let (reply, rx) = mpsc::channel();
                s.send(Command::Sync { reply }, true).ok().map(|()| rx)
            })
            .collect();
        for rx in receivers {
            let _ = rx.recv();
        }
    }

    /// Shuts the engine down: drops every shard's sender, lets the
    /// shards run what they had already accepted (all in parallel),
    /// joins them and returns the merged counters. The per-shard
    /// `fleet_*_total` counters stay in the registry.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked, which only a controller
    /// panicking inside a session can cause. Every sender is dropped
    /// before the first join, so the other shards still run what they
    /// had accepted.
    #[must_use]
    pub fn shutdown(self) -> FleetStats {
        // Moving each worker out drops its shard's sender.
        let workers: Vec<JoinHandle<ShardStats>> =
            self.shards.into_iter().map(|s| s.worker).collect();
        let per_shard: Vec<ShardStats> = workers
            .into_iter()
            .map(|w| w.join().expect("fleet shard worker panicked"))
            .collect();
        let mut total = ShardStats::default();
        for stats in &per_shard {
            total.merge(stats);
        }
        FleetStats { total, per_shard }
    }
}

/// One shard's event loop: take commands until every sender is gone,
/// then report lifetime counters. `setup.telemetry` arrives pre-scoped
/// with this shard's label, so everything minted here — and every
/// metric the controller factory mints per session — is a per-shard
/// series.
fn shard_main(
    commands: Receiver<(Queued, Command)>,
    params: &EvParams,
    setup: &ControllerSetup,
    shard_index: usize,
) -> ShardStats {
    let mut sessions: HashMap<u64, VehicleSession> = HashMap::new();
    let mut stats = ShardStats::default();
    let steps_total = setup.telemetry.counter("fleet_steps_total");
    let opened_total = setup.telemetry.counter("fleet_sessions_opened_total");
    let closed_total = setup.telemetry.counter("fleet_sessions_closed_total");
    let resets_total = setup.telemetry.counter("fleet_session_resets_total");
    let live_sessions = setup.telemetry.gauge("fleet_live_sessions");
    let cmd_seconds = |cmd: &str| -> Histogram {
        setup.telemetry.histogram_with(
            "fleet_cmd_seconds",
            HistogramSpec::latency_seconds(),
            &[("cmd", cmd)],
        )
    };
    let open_seconds = cmd_seconds("open");
    let step_seconds = cmd_seconds("step");
    let drain_seconds = cmd_seconds("drain");
    let reset_seconds = cmd_seconds("reset");
    let close_seconds = cmd_seconds("close");
    let query_seconds = cmd_seconds("query");
    // Trace span names (ids resolve to 0 on a disabled ring).
    let t_session = setup.trace.intern("session");
    let t_step = setup.trace.intern("step");
    let t_drain = setup.trace.intern("drain");

    for (queued, cmd) in commands {
        drop(queued);
        match cmd {
            Command::Open {
                vehicle_id,
                sim,
                kind,
            } => {
                let _lat = open_seconds.start_span();
                let Entry::Vacant(slot) = sessions.entry(vehicle_id) else {
                    stats.rejected += 1;
                    continue;
                };
                // The per-session sampling decision happens here: an
                // unsampled vehicle gets a disabled ring and its whole
                // session (controller solve spans included) stays out
                // of the capture.
                let session_trace = setup.trace.scoped(shard_index as u64, vehicle_id);
                let session_setup = ControllerSetup {
                    trace: session_trace.clone(),
                    ..setup.clone()
                };
                match kind.instantiate_configured(params, &session_setup) {
                    Ok(controller) => {
                        session_trace.begin(t_session);
                        slot.insert(
                            VehicleSession::new(vehicle_id, sim, controller)
                                .with_trace(session_trace),
                        );
                        stats.opened += 1;
                        opened_total.inc();
                        live_sessions.add(1.0);
                    }
                    Err(_) => stats.rejected += 1,
                }
            }
            Command::Step { vehicle_id, steps } => {
                let lat = step_seconds.start_span();
                let Some(session) = sessions.get_mut(&vehicle_id) else {
                    stats.rejected += 1;
                    continue;
                };
                let trace_span = session.trace().span(t_step);
                let was_finished = session.finished();
                let ran = session.step_many(steps);
                // The latency observation carries the trace span that
                // produced it: a slow-bucket exemplar in
                // fleet_cmd_seconds resolves to this exact step in the
                // Chrome-trace export.
                lat.finish_with_exemplar(trace_span.finish_id());
                stats.steps += ran as u64;
                steps_total.add(ran as u64);
                if !was_finished && session.finished() {
                    stats.finished_drives += 1;
                }
            }
            Command::Drain { vehicle_id } => {
                let lat = drain_seconds.start_span();
                let Some(session) = sessions.get_mut(&vehicle_id) else {
                    stats.rejected += 1;
                    continue;
                };
                let trace_span = session.trace().span(t_drain);
                let was_finished = session.finished();
                let ran = session.step_many(usize::MAX);
                lat.finish_with_exemplar(trace_span.finish_id());
                stats.steps += ran as u64;
                steps_total.add(ran as u64);
                if !was_finished {
                    stats.finished_drives += 1;
                }
            }
            Command::Reset { vehicle_id, sim } => {
                let _lat = reset_seconds.start_span();
                let Some(session) = sessions.get_mut(&vehicle_id) else {
                    stats.rejected += 1;
                    continue;
                };
                session.reset(sim);
                stats.resets += 1;
                resets_total.inc();
            }
            Command::Close { vehicle_id, reply } => {
                let _lat = close_seconds.start_span();
                let result = match sessions.remove(&vehicle_id) {
                    Some(session) => {
                        session.trace().end(t_session);
                        stats.closed += 1;
                        closed_total.inc();
                        live_sessions.sub(1.0);
                        Ok(session.summary())
                    }
                    None => {
                        stats.rejected += 1;
                        Err(FleetError::UnknownSession(vehicle_id))
                    }
                };
                let _ = reply.send(result);
            }
            Command::Query { vehicle_id, reply } => {
                let _lat = query_seconds.start_span();
                let result = sessions
                    .get(&vehicle_id)
                    .map(VehicleSession::summary)
                    .ok_or(FleetError::UnknownSession(vehicle_id));
                if result.is_err() {
                    stats.rejected += 1;
                }
                let _ = reply.send(result);
            }
            Command::Sync { reply } => {
                let _ = reply.send(());
            }
            #[cfg(test)]
            Command::Park(rx) => {
                let _ = rx.recv();
            }
            #[cfg(test)]
            Command::Panic(rx) => {
                let _ = rx.recv();
                panic!("injected shard panic");
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
    use ev_units::{Celsius, Seconds};
    use std::thread;

    fn small_sim() -> Arc<Simulation> {
        let params = EvParams::nissan_leaf_like();
        let profile = DriveProfile::from_cycle(
            &DriveCycle::ece_eudc(),
            AmbientConditions::constant(Celsius::new(35.0)),
            Seconds::new(1.0),
        );
        Arc::new(Simulation::new(params, profile).expect("profile non-empty"))
    }

    /// An engine recording into an enabled registry.
    fn engine(shards: usize, queue_capacity: usize) -> FleetEngine {
        let mut config = FleetConfig::new(EvParams::nissan_leaf_like());
        config.shards = shards;
        config.queue_capacity = queue_capacity;
        config.setup.telemetry = Registry::enabled();
        FleetEngine::new(config)
    }

    /// Shard 0's `fleet_commands_parked_total`, read from the registry.
    fn parked(fleet: &FleetEngine) -> u64 {
        let snapshot = fleet.registry().snapshot();
        let series = snapshot.counter_labeled("fleet_commands_parked_total", &[("shard", "0")]);
        series.unwrap_or(0)
    }

    /// Waits until shard 0 has counted `n` parked submissions.
    fn wait_until_parked(fleet: &FleetEngine, n: u64) {
        while parked(fleet) < n {
            thread::yield_now();
        }
    }

    /// Hands shard 0's worker `command`, which holds it until the
    /// returned sender yields, and returns once the worker has taken it.
    fn hold(fleet: &FleetEngine, command: fn(mpsc::Receiver<()>) -> Command) -> mpsc::Sender<()> {
        let (release, held) = mpsc::channel();
        let before = fleet.queue_depth();
        fleet.shards[0].send(command(held), true).unwrap();
        while fleet.queue_depth() > before {
            thread::yield_now();
        }
        release
    }

    #[test]
    fn open_step_close_round_trip() {
        let fleet = engine(2, 64);
        fleet.open(7, small_sim(), ControllerKind::OnOff).unwrap();
        fleet.step(7, 50).unwrap();
        let summary = fleet.close(7).unwrap();
        assert_eq!(summary.vehicle_id, 7);
        assert_eq!(summary.steps, 50);
        assert!(!summary.finished);
        let stats = fleet.shutdown();
        assert_eq!(stats.total.steps, 50);
        assert_eq!(stats.total.opened, 1);
        assert_eq!(stats.total.closed, 1);
    }

    #[test]
    fn unknown_and_duplicate_sessions_are_rejected_not_fatal() {
        let fleet = engine(1, 64);
        let sim = small_sim();
        assert_eq!(fleet.close(1), Err(FleetError::UnknownSession(1)));
        fleet
            .open(1, Arc::clone(&sim), ControllerKind::Pid)
            .unwrap();
        fleet
            .open(1, Arc::clone(&sim), ControllerKind::Pid)
            .unwrap();
        fleet.sync();
        assert!(fleet.query(1).is_ok());
        let stats = fleet.shutdown();
        assert_eq!(stats.total.opened, 1);
        assert_eq!(stats.total.rejected, 2, "one unknown close, one dup open");
    }

    #[test]
    fn drain_runs_to_profile_end_and_counts_finished_drive() {
        let fleet = engine(1, 64);
        let sim = small_sim();
        let len = sim.profile().len() as u64;
        fleet
            .open(3, Arc::clone(&sim), ControllerKind::OnOff)
            .unwrap();
        fleet.drain(3).unwrap();
        let summary = fleet.close(3).unwrap();
        assert!(summary.finished);
        assert_eq!(summary.steps, len);
        let stats = fleet.shutdown();
        assert_eq!(stats.total.finished_drives, 1);
    }

    #[test]
    fn reset_rebinds_the_session_to_a_new_drive() {
        let fleet = engine(1, 64);
        let sim = small_sim();
        fleet
            .open(9, Arc::clone(&sim), ControllerKind::Fuzzy)
            .unwrap();
        fleet.step(9, 30).unwrap();
        fleet.reset(9, Arc::clone(&sim)).unwrap();
        fleet.step(9, 5).unwrap();
        let summary = fleet.close(9).unwrap();
        assert_eq!(summary.drives, 2);
        assert_eq!(summary.steps, 35, "steps accumulate across drives");
        let stats = fleet.shutdown();
        assert_eq!(stats.total.resets, 1);
    }

    #[test]
    fn backpressure_sheds_at_capacity_and_never_grows_the_queue() {
        let capacity = 4;
        let fleet = engine(1, capacity);
        // Park the single shard so nothing drains while we flood it.
        let (unpark, parked) = mpsc::channel();
        assert!(fleet.shards[0].send(Command::Park(parked), true).is_ok());
        fleet.open(1, small_sim(), ControllerKind::OnOff).unwrap();
        // Wait until the shard has consumed the Park command (queue
        // drains to just the Open).
        while fleet.queue_depth() > 1 {
            std::thread::yield_now();
        }
        // Fill the remaining slots, then observe deterministic shedding.
        let mut accepted = 0;
        let mut shed = 0;
        for _ in 0..capacity + 10 {
            match fleet.try_step(1, 1) {
                Ok(()) => accepted += 1,
                Err(FleetError::Shed) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(fleet.queue_depth() <= capacity, "queue grew past its bound");
        }
        assert_eq!(accepted, capacity - 1, "Open holds one slot");
        assert_eq!(shed, 11);
        unpark.send(()).unwrap();
        fleet.sync();
        assert_eq!(fleet.queue_depth(), 0, "nothing queued after a barrier");
        let summary = fleet.close(1).unwrap();
        assert_eq!(summary.steps, (capacity - 1) as u64);
        let _ = fleet.shutdown();
    }

    #[test]
    fn a_step_on_a_full_queue_parks_once_and_runs_when_a_slot_frees() {
        let fleet = engine(1, 1);
        fleet.open(1, small_sim(), ControllerKind::OnOff).unwrap();
        fleet.sync();
        let unpark = hold(&fleet, Command::Park);
        // The barrier above may itself have parked behind the open.
        let before = parked(&fleet);
        fleet.step(1, 1).unwrap(); // takes the only slot
        assert_eq!(parked(&fleet), before, "a free slot does not park");
        thread::scope(|s| {
            let parked_step = s.spawn(|| fleet.step(1, 1));
            wait_until_parked(&fleet, before + 1);
            assert!(!parked_step.is_finished(), "a full queue parks the caller");
            assert_eq!(fleet.queue_depth(), 2, "a parked step counts as queued");
            unpark.send(()).unwrap();
            assert_eq!(parked_step.join().unwrap(), Ok(()));
        });
        assert_eq!(parked(&fleet), before + 1, "parking is counted once");
        fleet.sync();
        assert_eq!(fleet.queue_depth(), 0);
        assert_eq!(fleet.query(1).unwrap().steps, 2, "the parked step ran");
        let _ = fleet.shutdown();
    }

    #[test]
    fn every_command_accepted_before_shutdown_runs() {
        let fleet = engine(1, 8);
        let unpark = hold(&fleet, Command::Park);
        fleet.open(1, small_sim(), ControllerKind::OnOff).unwrap();
        for _ in 0..7 {
            fleet.step(1, 1).unwrap();
        }
        assert_eq!(fleet.queue_depth(), 8, "all eight commands are buffered");
        // The shard handle, this test and the eight buffered commands'
        // tickets each hold the depth; the handle's share goes after its
        // sender (field order), so the worker resumes only once its
        // channel has closed.
        let depth = Arc::clone(&fleet.shards[0].depth);
        let stats = thread::scope(|s| {
            let shutdown = s.spawn(move || fleet.shutdown());
            while Arc::strong_count(&depth) > 1 + 8 {
                thread::yield_now();
            }
            unpark.send(()).unwrap();
            shutdown.join().unwrap()
        });
        assert_eq!((stats.total.opened, stats.total.steps), (1, 7));
    }

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_queue_capacity_panics() {
        let _ = engine(1, 0);
    }

    #[test]
    fn a_panicked_shard_fails_fast_and_the_others_keep_serving() {
        let fleet = engine(2, 1);
        let on_shard_0 = |id: u64| std::ptr::eq(fleet.shard_of(id), &fleet.shards[0]);
        let doomed = (0..).find(|&id| on_shard_0(id)).unwrap();
        let healthy = (0..).find(|&id| !on_shard_0(id)).unwrap();
        for id in [doomed, healthy] {
            fleet.open(id, small_sim(), ControllerKind::OnOff).unwrap();
        }
        fleet.sync();
        let trigger = hold(&fleet, Command::Panic);
        let before = parked(&fleet);
        thread::scope(|s| {
            // Submitted before the panic: the query or the close takes
            // the only slot and the other parks, then the step parks.
            let query = s.spawn(|| fleet.query(doomed));
            let close = s.spawn(|| fleet.close(doomed));
            wait_until_parked(&fleet, before + 1);
            let step = s.spawn(|| fleet.step(doomed, 1));
            wait_until_parked(&fleet, before + 2);
            trigger.send(()).unwrap();
            assert_eq!(query.join().unwrap(), Err(FleetError::ShuttingDown));
            assert_eq!(close.join().unwrap(), Err(FleetError::ShuttingDown));
            assert_eq!(step.join().unwrap(), Err(FleetError::ShuttingDown));
        });
        // The command the dead worker's channel discarded is no longer
        // counted as queued.
        let depth_gauge = || {
            let snapshot = fleet.registry().snapshot();
            snapshot.gauge_labeled("fleet_queue_depth", &[("shard", "0")])
        };
        assert_eq!(fleet.shards[0].depth.count.load(Ordering::Relaxed), 0);
        assert_eq!(depth_gauge(), Some(0.0));
        // Sent after the panic: refused at once.
        assert_eq!(fleet.query(doomed), Err(FleetError::ShuttingDown));
        assert_eq!(fleet.close(doomed), Err(FleetError::ShuttingDown));
        assert_eq!(fleet.step(doomed, 1), Err(FleetError::ShuttingDown));
        assert_eq!(fleet.try_step(doomed, 1), Err(FleetError::ShuttingDown));
        fleet.sync();
        fleet.step(healthy, 3).unwrap();
        assert_eq!(fleet.query(healthy).unwrap().steps, 3);
        assert_eq!(fleet.queue_depth(), 0);
        assert_eq!(depth_gauge(), Some(0.0));
        // `shutdown` would panic on the dead worker. Dropping the healthy
        // shard's sender, as dropping the engine does, ends its worker.
        let FleetEngine { mut shards, .. } = fleet;
        let Shard { queue, worker, .. } = shards.pop().expect("two shards");
        drop((shards, queue));
        worker.join().expect("the healthy worker exits");
    }

    #[test]
    fn commands_for_one_vehicle_execute_in_submission_order() {
        let fleet = engine(4, 128);
        let sim = small_sim();
        for id in 0..12u64 {
            fleet
                .open(id, Arc::clone(&sim), ControllerKind::OnOff)
                .unwrap();
            for _ in 0..10 {
                fleet.step(id, 1).unwrap();
            }
        }
        fleet.sync();
        for id in 0..12u64 {
            assert_eq!(fleet.query(id).unwrap().steps, 10);
        }
        let stats = fleet.shutdown();
        assert_eq!(stats.total.steps, 120);
        assert_eq!(stats.per_shard.len(), 4);
    }
}
