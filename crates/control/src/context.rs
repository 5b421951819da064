//! The information a climate controller sees at each control step.

use ev_hvac::HvacState;
use ev_units::{Celsius, Percent, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// One step of look-ahead information: what the drive profile predicts
/// for a future instant (the paper's Algorithm 1, lines 14–15).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreviewSample {
    /// Predicted electric-motor power `Pe` (negative = regeneration).
    pub motor_power: Watts,
    /// Predicted outside temperature `To`.
    pub ambient: Celsius,
    /// Predicted solar load.
    pub solar: Watts,
}

/// Everything a controller may observe at one control instant.
///
/// Reactive controllers (On/Off, fuzzy) read only the measured state
/// and current ambient; the battery-lifetime-aware MPC additionally uses
/// the [`preview`](Self::preview) of future motor power and ambient
/// temperature, and the BMS feedback (`soc`, `soc_avg`).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlContext<'a> {
    /// Measured HVAC state (cabin temperature).
    pub state: HvacState,
    /// Current outside temperature.
    pub ambient: Celsius,
    /// Current solar load.
    pub solar: Watts,
    /// Battery state of charge reported by the BMS.
    pub soc: Percent,
    /// Running SoC average over the discharge cycle so far (percent),
    /// reported by the BMS (the `SoC_avg` of the paper's Eq. 21).
    pub soc_avg: f64,
    /// Sample period of the control loop.
    pub dt: Seconds,
    /// Elapsed time since the start of the drive.
    pub elapsed: Seconds,
    /// Preview of the drive ahead, sampled at the MPC prediction period.
    /// May be empty for purely reactive controllers.
    pub preview: &'a [PreviewSample],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_is_constructible_and_cloneable() {
        let preview = [PreviewSample {
            motor_power: Watts::new(12_000.0),
            ambient: Celsius::new(30.0),
            solar: Watts::new(400.0),
        }];
        let ctx = ControlContext {
            state: HvacState::new(Celsius::new(25.0)),
            ambient: Celsius::new(30.0),
            solar: Watts::new(400.0),
            soc: Percent::new(80.0),
            soc_avg: 85.0,
            dt: Seconds::new(1.0),
            elapsed: Seconds::ZERO,
            preview: &preview,
        };
        let copy = ctx.clone();
        assert_eq!(copy.preview.len(), 1);
        assert_eq!(copy.soc, Percent::new(80.0));
    }
}
