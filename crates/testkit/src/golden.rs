//! Golden-trace snapshot harness.
//!
//! A [`GoldenTrace`] is a downsampled, serialized view of one simulated
//! (cycle × controller) cell, checked into `tests/golden/`. The
//! integration suite re-runs the cell and compares against the snapshot
//! with per-channel tolerances; any behavioral drift in the plant, the
//! controllers or the numerics shows up as a diff naming the **first
//! diverging step**. Re-baseline intentionally with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use std::fmt::Write as _;
use std::path::Path;

use ev_core::StepRecord;
use serde::{Deserialize, Serialize};

/// Environment variable that switches verification into regeneration.
pub const UPDATE_ENV: &str = "UPDATE_GOLDEN";

/// Target number of retained samples per golden trace; the stride is
/// chosen so a trace never stores more than about this many steps.
pub const TARGET_SAMPLES: usize = 64;

/// One retained sample of a golden trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenStep {
    /// Original step index in the full trace.
    pub step: usize,
    /// Time (s).
    pub t: f64,
    /// State of charge (%).
    pub soc: f64,
    /// Cabin temperature (°C).
    pub cabin_temp: f64,
    /// Battery-pack temperature (°C).
    pub pack_temp: f64,
    /// BMS-metered battery power (W).
    pub battery_power: f64,
    /// Total HVAC power (W).
    pub hvac_power: f64,
    /// Controller mode (`"heating"`, `"cooling"`, `"vent"`, `"idle"`).
    pub mode: String,
}

/// Per-channel absolute tolerances for golden comparison. The defaults
/// absorb last-bit float noise while still catching any real change in
/// model behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoldenTolerance {
    /// SoC tolerance (%).
    pub soc: f64,
    /// Temperature tolerance (K), applied to cabin and pack.
    pub temp: f64,
    /// Power tolerance (W), applied to battery and HVAC power.
    pub power: f64,
}

impl Default for GoldenTolerance {
    fn default() -> Self {
        Self {
            soc: 1e-6,
            temp: 1e-6,
            power: 1e-3,
        }
    }
}

/// A downsampled snapshot of one simulated cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenTrace {
    /// Drive-profile name (e.g. `"ECE-15"`).
    pub profile: String,
    /// Controller name (e.g. `"battery-lifetime-aware-mpc"`).
    pub controller: String,
    /// Sample period of the underlying simulation (s).
    pub dt: f64,
    /// Steps in the *full* trace this snapshot was taken from.
    pub full_len: usize,
    /// Downsampling stride (every `stride`-th step is retained, plus the
    /// final step).
    pub stride: usize,
    /// The retained samples.
    pub steps: Vec<GoldenStep>,
}

impl GoldenTrace {
    /// Downsamples a recorded trace into a snapshot. Retains every
    /// `stride`-th step (stride chosen for ≈[`TARGET_SAMPLES`] samples)
    /// plus the final step, so both transient and end state are pinned.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    #[must_use]
    pub fn from_records(profile: &str, controller: &str, dt: f64, records: &[StepRecord]) -> Self {
        assert!(!records.is_empty(), "cannot snapshot an empty trace");
        let n = records.len();
        let stride = n.div_ceil(TARGET_SAMPLES).max(1);
        let mut steps: Vec<GoldenStep> = records.iter().step_by(stride).map(Self::sample).collect();
        let last_kept = (n - 1) / stride * stride;
        if last_kept != n - 1 {
            steps.push(Self::sample(&records[n - 1]));
        }
        Self {
            profile: profile.to_owned(),
            controller: controller.to_owned(),
            dt,
            full_len: n,
            stride,
            steps,
        }
    }

    fn sample(r: &StepRecord) -> GoldenStep {
        GoldenStep {
            step: r.step,
            t: r.t,
            soc: r.soc,
            cabin_temp: r.cabin_temp,
            pack_temp: r.pack_temp,
            battery_power: r.battery_power,
            hvac_power: r.hvac_power(),
            mode: r.mode.to_string(),
        }
    }

    /// Compares `actual` against this golden baseline. Returns `Ok(())`
    /// when every retained sample agrees within `tol`; otherwise returns
    /// a report naming the **first** diverging step and channel.
    ///
    /// # Errors
    ///
    /// Returns a human-readable diff on the first divergence.
    pub fn compare(&self, actual: &GoldenTrace, tol: GoldenTolerance) -> Result<(), String> {
        if self.profile != actual.profile || self.controller != actual.controller {
            return Err(format!(
                "golden cell mismatch: baseline is {} × {}, actual is {} × {}",
                self.profile, self.controller, actual.profile, actual.controller
            ));
        }
        if self.full_len != actual.full_len || self.stride != actual.stride {
            return Err(format!(
                "golden shape mismatch ({} × {}): baseline {} steps / stride {}, \
                 actual {} steps / stride {} — the simulated trace length changed",
                self.profile,
                self.controller,
                self.full_len,
                self.stride,
                actual.full_len,
                actual.stride
            ));
        }
        for (want, got) in self.steps.iter().zip(&actual.steps) {
            let channels: [(&str, f64, f64, f64); 5] = [
                ("soc", want.soc, got.soc, tol.soc),
                ("cabin_temp", want.cabin_temp, got.cabin_temp, tol.temp),
                ("pack_temp", want.pack_temp, got.pack_temp, tol.temp),
                (
                    "battery_power",
                    want.battery_power,
                    got.battery_power,
                    tol.power,
                ),
                ("hvac_power", want.hvac_power, got.hvac_power, tol.power),
            ];
            for (channel, expected, observed, eps) in channels {
                if (expected - observed).abs() > eps {
                    return Err(first_divergence(
                        self, want, channel, expected, observed, eps,
                    ));
                }
            }
            if want.mode != got.mode {
                return Err(format!(
                    "golden trace {} × {} diverges first at step {} (t = {} s): \
                     mode expected \"{}\", got \"{}\"",
                    self.profile, self.controller, want.step, want.t, want.mode, got.mode
                ));
            }
        }
        Ok(())
    }
}

fn first_divergence(
    golden: &GoldenTrace,
    step: &GoldenStep,
    channel: &str,
    expected: f64,
    observed: f64,
    eps: f64,
) -> String {
    let mut msg = String::new();
    let _ = write!(
        msg,
        "golden trace {} × {} diverges first at step {} (t = {} s): \
         {channel} expected {expected}, got {observed} (|Δ| = {:e} > tol {eps:e})",
        golden.profile,
        golden.controller,
        step.step,
        step.t,
        (expected - observed).abs(),
    );
    msg
}

/// Verifies `actual` against the baseline stored at `path`, or rewrites
/// the baseline when the [`UPDATE_ENV`] environment variable is set to a
/// non-empty value other than `"0"`.
///
/// # Errors
///
/// Returns the first-divergence diff when the trace drifted, or an
/// instructive message when the baseline is missing/unreadable.
pub fn verify_or_update(path: &Path, actual: &GoldenTrace) -> Result<(), String> {
    if update_requested() {
        let json = serde_json::to_string_pretty(actual)
            .map_err(|e| format!("cannot serialize golden trace: {e:?}"))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        return std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write golden baseline {}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "missing golden baseline {} ({e}); generate it with \
             `{UPDATE_ENV}=1 cargo test --test golden_traces`",
            path.display()
        )
    })?;
    let golden: GoldenTrace = serde_json::from_str(&text)
        .map_err(|e| format!("corrupt golden baseline {}: {e:?}", path.display()))?;
    golden.compare(actual, GoldenTolerance::default())
}

fn update_requested() -> bool {
    std::env::var(UPDATE_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Verifies a plain-text artifact (a rendered report, a table) against
/// the baseline stored at `path`, or rewrites the baseline under
/// [`UPDATE_ENV`]. Text snapshots are compared line by line after
/// trimming trailing whitespace; a mismatch names the first differing
/// line.
///
/// # Errors
///
/// Returns the first-difference diff when the text drifted, or an
/// instructive message when the baseline is missing.
pub fn verify_or_update_text(path: &Path, actual: &str) -> Result<(), String> {
    if update_requested() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let mut text = actual.trim_end().to_owned();
        text.push('\n');
        return std::fs::write(path, text)
            .map_err(|e| format!("cannot write golden baseline {}: {e}", path.display()));
    }
    let baseline = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "missing golden baseline {} ({e}); generate it with `{UPDATE_ENV}=1 cargo test`",
            path.display()
        )
    })?;
    let want: Vec<&str> = baseline.trim_end().lines().map(str::trim_end).collect();
    let got: Vec<&str> = actual.trim_end().lines().map(str::trim_end).collect();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            return Err(format!(
                "golden text {} diverges first at line {}:\n  expected: {w}\n  actual:   {g}",
                path.display(),
                i + 1
            ));
        }
    }
    if want.len() != got.len() {
        return Err(format!(
            "golden text {} length changed: baseline {} lines, actual {}",
            path.display(),
            want.len(),
            got.len()
        ));
    }
    Ok(())
}

/// Canonical snapshot filename for a (profile × controller) cell:
/// lowercase alphanumerics with runs of punctuation collapsed to `_`,
/// e.g. `("ECE-15", "on-off")` → `"ece_15_on_off.json"`.
#[must_use]
pub fn golden_filename(profile: &str, controller: &str) -> String {
    let mut name = String::new();
    for part in [profile, controller] {
        if !name.is_empty() {
            name.push('_');
        }
        let mut last_sep = true;
        for ch in part.chars() {
            if ch.is_ascii_alphanumeric() {
                name.push(ch.to_ascii_lowercase());
                last_sep = false;
            } else if !last_sep {
                name.push('_');
                last_sep = true;
            }
        }
        while name.ends_with('_') {
            name.pop();
        }
    }
    name + ".json"
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::ControllerMode;

    fn record(k: usize) -> StepRecord {
        StepRecord {
            step: k,
            t: k as f64,
            dt: 1.0,
            motor_power: 8_000.0,
            heating_power: 0.0,
            cooling_power: 2_000.0,
            fan_power: 100.0,
            accessory_power: 300.0,
            battery_power: 10_400.0,
            soc: 95.0 - 0.001 * k as f64,
            cabin_temp: 25.0,
            pack_temp: 32.0,
            ambient: 35.0,
            solar: 400.0,
            supply_temp: 12.0,
            coil_temp: 12.0,
            recirculation: 0.8,
            flow: 0.15,
            mode: ControllerMode::Cooling,
        }
    }

    fn trace(n: usize) -> Vec<StepRecord> {
        (0..n).map(record).collect()
    }

    #[test]
    fn downsampling_keeps_first_and_last_step() {
        let g = GoldenTrace::from_records("ECE-15", "on-off", 1.0, &trace(195));
        assert_eq!(g.full_len, 195);
        assert!(g.steps.len() <= TARGET_SAMPLES + 1);
        assert_eq!(g.steps.first().unwrap().step, 0);
        assert_eq!(g.steps.last().unwrap().step, 194);
    }

    #[test]
    fn short_trace_is_kept_whole() {
        let g = GoldenTrace::from_records("X", "y", 1.0, &trace(10));
        assert_eq!(g.stride, 1);
        assert_eq!(g.steps.len(), 10);
    }

    #[test]
    fn identical_traces_compare_clean() {
        let g = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &trace(100));
        g.compare(&g.clone(), GoldenTolerance::default()).unwrap();
    }

    #[test]
    fn first_divergence_is_named() {
        let g = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &trace(100));
        let mut records = trace(100);
        records[8].soc += 0.5; // step 8 is retained at stride 2
        records[50].cabin_temp += 3.0;
        let other = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &records);
        let err = g.compare(&other, GoldenTolerance::default()).unwrap_err();
        assert!(err.contains("step 8"), "{err}");
        assert!(err.contains("soc"), "{err}");
        // Only the FIRST divergence is reported.
        assert!(!err.contains("cabin_temp"), "{err}");
    }

    #[test]
    fn mode_changes_are_divergences() {
        let g = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &trace(10));
        let mut records = trace(10);
        records[4].mode = ControllerMode::Idle;
        let other = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &records);
        let err = g.compare(&other, GoldenTolerance::default()).unwrap_err();
        assert!(err.contains("mode"), "{err}");
        assert!(err.contains("step 4"), "{err}");
    }

    #[test]
    fn length_change_is_reported_as_shape_mismatch() {
        let g = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &trace(100));
        let other = GoldenTrace::from_records("ECE-15", "fuzzy", 1.0, &trace(90));
        let err = g.compare(&other, GoldenTolerance::default()).unwrap_err();
        assert!(err.contains("trace length changed"), "{err}");
    }

    #[test]
    fn filenames_are_sanitized() {
        assert_eq!(golden_filename("ECE-15", "on-off"), "ece_15_on_off.json");
        assert_eq!(golden_filename("ECE_EUDC", "fuzzy"), "ece_eudc_fuzzy.json");
        assert_eq!(
            golden_filename("ECE_EUDC", "battery-lifetime-aware-mpc"),
            "ece_eudc_battery_lifetime_aware_mpc.json"
        );
    }

    #[test]
    fn golden_trace_round_trips_through_json() {
        let g = GoldenTrace::from_records("ECE-15", "on-off", 1.0, &trace(30));
        let json = serde_json::to_string_pretty(&g).unwrap();
        let back: GoldenTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn missing_baseline_error_is_instructive() {
        let g = GoldenTrace::from_records("ECE-15", "on-off", 1.0, &trace(5));
        let err = verify_or_update(Path::new("/nonexistent/dir/x.json"), &g).unwrap_err();
        assert!(err.contains(UPDATE_ENV), "{err}");
    }

    #[test]
    fn text_golden_names_first_differing_line() {
        let dir = std::env::temp_dir().join("ev_testkit_text_golden");
        let path = dir.join("report.txt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "a\nb\nc\n").unwrap();
        verify_or_update_text(&path, "a\nb\nc").unwrap();
        // Trailing whitespace is insignificant.
        verify_or_update_text(&path, "a  \nb\nc\n\n").unwrap();
        let err = verify_or_update_text(&path, "a\nX\nc").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = verify_or_update_text(&path, "a\nb\nc\nd").unwrap_err();
        assert!(err.contains("length changed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_text_baseline_error_is_instructive() {
        let err = verify_or_update_text(Path::new("/nonexistent/dir/report.txt"), "x").unwrap_err();
        assert!(err.contains(UPDATE_ENV), "{err}");
    }
}
