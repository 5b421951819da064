//! Always-on MPC solve diagnostics.
//!
//! [`MpcDiagnostics`] is a handful of plain `u64` counters the MPC
//! controller bumps on every solve — cheap enough to stay on
//! unconditionally, unlike the optional `ev_telemetry` histograms. It is
//! exposed through [`crate::ClimateController::solver_diagnostics`] and
//! holds exactly the counters a per-controller reader uses: solves, the
//! four solve outcomes (converged, max-iterations, stalled, error), SQP
//! iterations and warm-start hits and misses. Those readers are the
//! sweep run report's columns and evbench's solo replay, which tells
//! solved steps from held ones by `solves`.
//!
//! The controller's other counters live in its telemetry registry only:
//! `mpc_warm_start_invalidated_total`, `mpc_rollout_cache_hits_total`,
//! `mpc_rollout_cache_misses_total` and `sqp_qp_warm_restart_total`.
//! `MpcDiagnostics` cannot be a view over the registry instead: in a
//! fleet, every session on a shard records into that shard's series.

/// Cumulative counters describing every MPC solve a controller has run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpcDiagnostics {
    /// Total receding-horizon solves attempted.
    pub solves: u64,
    /// Solves that reached the convergence tolerance.
    pub converged: u64,
    /// Solves that ran out of the major-iteration budget.
    pub max_iterations: u64,
    /// Solves whose merit line search stalled.
    pub line_search_stalled: u64,
    /// Solves that returned a structural error (non-finite data,
    /// dimension mismatch) and fell back to the held input.
    pub solver_errors: u64,
    /// Total major SQP iterations across all successful solves.
    pub sqp_iterations: u64,
    /// Solves seeded from a shifted previous plan.
    pub warm_start_hits: u64,
    /// Solves that had to cold-start.
    pub warm_start_misses: u64,
}

impl MpcDiagnostics {
    /// Fraction of solves seeded from a warm start (NaN before the
    /// first solve).
    #[must_use]
    pub fn warm_start_hit_rate(&self) -> f64 {
        let total = self.warm_start_hits + self.warm_start_misses;
        if total == 0 {
            f64::NAN
        } else {
            self.warm_start_hits as f64 / total as f64
        }
    }

    /// Mean major iterations per successful solve (NaN if none ran).
    #[must_use]
    pub fn mean_sqp_iterations(&self) -> f64 {
        let ok = self.solves.saturating_sub(self.solver_errors);
        if ok == 0 {
            f64::NAN
        } else {
            self.sqp_iterations as f64 / ok as f64
        }
    }

    /// Fraction of solves that converged (NaN before the first solve).
    #[must_use]
    pub fn convergence_rate(&self) -> f64 {
        if self.solves == 0 {
            f64::NAN
        } else {
            self.converged as f64 / self.solves as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_diagnostics_are_nan() {
        let d = MpcDiagnostics::default();
        assert!(d.warm_start_hit_rate().is_nan());
        assert!(d.mean_sqp_iterations().is_nan());
        assert!(d.convergence_rate().is_nan());
    }

    #[test]
    fn rates_follow_counters() {
        let d = MpcDiagnostics {
            solves: 10,
            converged: 8,
            solver_errors: 2,
            sqp_iterations: 40,
            warm_start_hits: 9,
            warm_start_misses: 1,
            ..MpcDiagnostics::default()
        };
        assert!((d.warm_start_hit_rate() - 0.9).abs() < 1e-12);
        assert!((d.mean_sqp_iterations() - 5.0).abs() < 1e-12);
        assert!((d.convergence_rate() - 0.8).abs() < 1e-12);
    }
}
