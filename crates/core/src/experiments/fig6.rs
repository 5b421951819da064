//! Fig. 6 — the pre-cool behavior of the battery lifetime-aware MPC.

use ev_drive::DriveCycle;

use crate::{ControllerKind, Simulation};

use super::{experiment_params, profile_at, COMPARISON_AMBIENT_C};

/// The Fig. 6 traces: motor power against cabin temperature and HVAC
/// power under the MPC, plus the correlation statistic that captures the
/// complementing behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Data {
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Electric-motor power (kW).
    pub motor_kw: Vec<f64>,
    /// Cabin temperature under the MPC (°C).
    pub cabin: Vec<f64>,
    /// Total HVAC power under the MPC (kW).
    pub hvac_kw: Vec<f64>,
    /// Average HVAC power over samples where motor power is in its top
    /// quartile (kW).
    pub hvac_during_peaks_kw: f64,
    /// Average HVAC power over samples where motor power is in its bottom
    /// quartile (kW).
    pub hvac_during_lulls_kw: f64,
}

/// Runs the Fig. 6 trace: the MPC on the first 1000 s of the NEDC at the
/// comparison (hot) ambient — the pre-*cool* scenario of the paper.
///
/// # Panics
///
/// Panics only if built-in simulations fail to construct (they do not).
#[must_use]
pub fn fig6() -> Fig6Data {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    let profile = profile_at(&DriveCycle::nedc(), COMPARISON_AMBIENT_C);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    let mut mpc = ControllerKind::Mpc
        .instantiate(&params)
        .expect("instantiates");
    let result = sim.run(mpc.as_mut());

    let n = 1000.min(result.series.t.len());
    let t = result.series.t[..n].to_vec();
    let motor_kw: Vec<f64> = result.series.motor_power[..n]
        .iter()
        .map(|p| p / 1000.0)
        .collect();
    let cabin = result.series.cabin[..n].to_vec();
    let hvac_kw: Vec<f64> = result.series.hvac_power[..n]
        .iter()
        .map(|p| p / 1000.0)
        .collect();

    // Quartile thresholds of motor power.
    let mut sorted = motor_kw.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q1 = sorted[n / 4];
    let q3 = sorted[3 * n / 4];
    let mut peak_acc = (0.0, 0usize);
    let mut lull_acc = (0.0, 0usize);
    for k in 0..n {
        if motor_kw[k] >= q3 {
            peak_acc.0 += hvac_kw[k];
            peak_acc.1 += 1;
        } else if motor_kw[k] <= q1 {
            lull_acc.0 += hvac_kw[k];
            lull_acc.1 += 1;
        }
    }
    Fig6Data {
        t,
        motor_kw,
        cabin,
        hvac_kw,
        hvac_during_peaks_kw: peak_acc.0 / peak_acc.1.max(1) as f64,
        hvac_during_lulls_kw: lull_acc.0 / lull_acc.1.max(1) as f64,
    }
}

/// Formats the Fig. 6 summary and a coarse trace.
#[must_use]
pub fn render_fig6(data: &Fig6Data) -> String {
    let mut out = String::from("Fig. 6 — MPC pre-cooling against the motor-power profile\n");
    out.push_str(&format!(
        "avg HVAC power during motor-power peaks (top quartile):   {:.3} kW\n",
        data.hvac_during_peaks_kw
    ));
    out.push_str(&format!(
        "avg HVAC power during motor-power lulls (bottom quartile): {:.3} kW\n",
        data.hvac_during_lulls_kw
    ));
    out.push_str(&format!(
        "complement ratio (lulls / peaks): {:.2}\n\n",
        data.hvac_during_lulls_kw / data.hvac_during_peaks_kw.max(1e-9)
    ));
    out.push_str("power (kW) vs time (x spans 0–1000 s):\n");
    out.push_str(&super::ascii_chart(
        &[
            ("motor kW", data.motor_kw.as_slice()),
            ("HVAC kW", data.hvac_kw.as_slice()),
        ],
        72,
        14,
    ));
    out.push_str("\ncabin temperature (°C):\n");
    out.push_str(&super::ascii_chart(
        &[("cabin °C", data.cabin.as_slice())],
        72,
        8,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpc_complements_motor_power() {
        let data = fig6();
        // The defining behavior of the paper's Fig. 6: the HVAC spends
        // *more* during motor lulls (pre-cooling) than during peaks.
        assert!(
            data.hvac_during_lulls_kw > data.hvac_during_peaks_kw,
            "lulls {:.3} kW vs peaks {:.3} kW",
            data.hvac_during_lulls_kw,
            data.hvac_during_peaks_kw
        );
        // Cabin stays inside the comfort zone throughout.
        for &tz in &data.cabin {
            assert!((21.0..=27.0).contains(&tz), "cabin {tz}");
        }
    }

    #[test]
    fn render_mentions_complement_ratio() {
        let data = fig6();
        assert!(render_fig6(&data).contains("complement ratio"));
    }
}
