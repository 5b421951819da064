//! One vehicle's serving session: a plant, its drive profile and a
//! privately-owned controller.

use std::sync::Arc;

use ev_control::ClimateController;
use ev_telemetry::TraceRing;

use crate::observe::StepRecord;
use crate::sim::{SimSession, Simulation};

/// The state a fleet shard keeps per connected vehicle: the shared
/// (immutable, `Arc`ed) simulation — profile plus the precomputed
/// preview of motor power, ambient and solar load — the vehicle's own
/// plant and cursor, and a
/// controller instance **owned exclusively by this session**.
///
/// Controller ownership is the warm-start isolation boundary: the MPC's
/// shifted-plan warm start and interior-point multiplier cache live
/// inside the controller, so they can only ever be reused by *this*
/// vehicle's next step. Handing the slot to a new drive goes through
/// [`reset`](Self::reset), which calls
/// [`ClimateController::reset_session`] to invalidate them.
pub struct VehicleSession {
    vehicle_id: u64,
    sim: Arc<Simulation>,
    session: SimSession,
    controller: Box<dyn ClimateController>,
    steps: u64,
    drives: u32,
    /// Trace handle scoped to this session's (shard, vehicle) track;
    /// disabled by default so untraced fleets pay one `Option` branch.
    trace: TraceRing,
}

impl VehicleSession {
    /// Opens a session for `vehicle_id` on `sim` with a freshly
    /// instantiated `controller`.
    #[must_use]
    pub fn new(
        vehicle_id: u64,
        sim: Arc<Simulation>,
        controller: Box<dyn ClimateController>,
    ) -> Self {
        let session = sim.start_session();
        Self {
            vehicle_id,
            sim,
            session,
            controller,
            steps: 0,
            drives: 1,
            trace: TraceRing::disabled(),
        }
    }

    /// Attaches a (shard, session)-scoped trace handle; the shard
    /// worker records its command spans onto it.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceRing) -> Self {
        self.trace = trace;
        self
    }

    /// The session's scoped trace handle.
    #[must_use]
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The vehicle this session serves.
    #[must_use]
    pub fn vehicle_id(&self) -> u64 {
        self.vehicle_id
    }

    /// Total plant steps executed across all drives on this slot.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// How many drives (initial plus resets) this slot has served.
    #[must_use]
    pub fn drives(&self) -> u32 {
        self.drives
    }

    /// Whether the current drive profile is exhausted.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.session.cursor() >= self.sim.profile().len()
    }

    /// Advances one control + plant step; `None` once the drive is over.
    pub fn step(&mut self) -> Option<StepRecord> {
        let rec = self
            .sim
            .advance(&mut self.session, self.controller.as_mut())?;
        self.steps += 1;
        Some(rec)
    }

    /// Advances up to `n` steps, returning how many actually ran.
    pub fn step_many(&mut self, n: usize) -> usize {
        let mut ran = 0;
        while ran < n && self.step().is_some() {
            ran += 1;
        }
        ran
    }

    /// Rebinds the slot to a new drive (possibly a different profile),
    /// resetting the plant and invalidating every piece of controller
    /// state anchored to the previous trajectory — warm starts included.
    pub fn reset(&mut self, sim: Arc<Simulation>) {
        self.controller.reset_session();
        self.session = sim.start_session();
        self.sim = sim;
        self.drives += 1;
    }

    /// A point-in-time summary of the session, used for close replies
    /// and the loadgen fleet digest.
    #[must_use]
    pub fn summary(&self) -> SessionSummary {
        let ev = self.session.vehicle();
        SessionSummary {
            vehicle_id: self.vehicle_id,
            steps: self.steps,
            drives: self.drives,
            finished: self.finished(),
            soc_percent: ev.bms().soc().value(),
            cabin_temp_c: ev.cabin_state().tz.value(),
        }
    }
}

/// The closing (or polled) state of one session — everything the fleet
/// digest and the serve endpoint need, no borrow of the slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// The vehicle served.
    pub vehicle_id: u64,
    /// Total plant steps executed on the slot.
    pub steps: u64,
    /// Drives served (initial plus resets).
    pub drives: u32,
    /// Whether the active drive profile was exhausted.
    pub finished: bool,
    /// Final battery state of charge (percent).
    pub soc_percent: f64,
    /// Final cabin temperature (°C).
    pub cabin_temp_c: f64,
}
