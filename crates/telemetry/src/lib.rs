//! # ev-telemetry — lightweight instrumentation for the evclimate stack
//!
//! A dependency-free metrics substrate: monotonic-timed [`Span`]s,
//! [`Counter`]s, log-bucketed [`Histogram`]s, and a [`Registry`] that
//! hands out cheap cloneable handles. The design goal is *zero overhead
//! when disabled*: a handle minted from [`Registry::disabled`] carries no
//! allocation and every operation on it — including [`Histogram::start_span`],
//! which skips the `Instant::now()` call entirely — is a single branch on
//! an `Option` that the optimizer folds away at monomorphization sites.
//!
//! Enabled handles update lock-free atomics (`u64` counters, f64-bit CAS
//! for sums and extrema), so instrumented hot loops never take a lock and
//! never allocate after metric registration.
//!
//! ## Quickstart
//!
//! ```
//! use ev_telemetry::{HistogramSpec, Registry};
//!
//! let registry = Registry::enabled();
//! let solves = registry.counter("mpc_solves_total");
//! let latency = registry.histogram("solve_seconds", HistogramSpec::latency_seconds());
//!
//! for _ in 0..3 {
//!     let span = latency.start_span();
//!     solves.inc();
//!     span.finish();
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("mpc_solves_total"), Some(3));
//! assert_eq!(snapshot.histogram("solve_seconds").unwrap().count, 3);
//! println!("{}", ev_telemetry::export::render_report(&snapshot));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
mod json;
mod metrics;
pub mod recorder;
mod registry;
pub mod scrape;
pub mod slo;
mod span;
pub mod trace;
pub mod tsdb;

pub use metrics::{Counter, Exemplar, Gauge, Histogram, HistogramSpec};
pub use recorder::{
    Attribution, DecisionRecord, FlightDump, FlightRecord, FlightRecorder, PlannedStep,
    SolveOutcome, StepSummary, WarmStart,
};
pub use registry::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, LabelSet, Registry, Snapshot,
};
pub use scrape::{scrape_once, scrape_once_with_timeout, ScrapeError, ScrapeServer};
pub use span::Span;
pub use trace::{TraceEvent, TracePhase, TraceRing, TraceSpan};
