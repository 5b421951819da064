//! Fleet-scale serving: many vehicle sessions, bounded resources.
//!
//! The paper evaluates one vehicle at a time; this module turns the
//! single-vehicle co-simulation into a **session engine** able to serve
//! thousands of concurrent vehicles on a fixed thread budget — the
//! substrate behind `evsim serve` and `evsim loadgen`:
//!
//! * [`run_bounded`] — scoped worker pool that replaced the
//!   thread-per-cell fan-out of
//!   [`evaluation_sweep_run`](crate::experiments::evaluation_sweep_run);
//! * [`VehicleSession`] — one vehicle's plant + exclusively-owned
//!   controller (the warm-start isolation boundary);
//! * [`FleetEngine`] — shard-per-core, shared-nothing session registry:
//!   each shard keeps its sessions in one `HashMap` keyed by vehicle id
//!   and takes commands from a bounded `std::sync::mpsc::sync_channel`
//!   with explicit backpressure (`step` parks, `try_step` sheds);
//! * [`run_loadgen`] — deterministic synthetic-fleet generator and
//!   throughput/latency report.

mod engine;
mod loadgen;
mod pool;
mod session;

pub use engine::{FleetConfig, FleetEngine, FleetError, FleetStats, ShardStats};
pub use loadgen::{render_loadgen_report, run_loadgen, LoadgenConfig, LoadgenReport};
pub use pool::{available_workers, run_bounded};
pub use session::{SessionSummary, VehicleSession};
