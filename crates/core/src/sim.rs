//! The co-simulation engine implementing the paper's Algorithm 1.

use ev_control::{ClimateController, ControlContext, PreviewSample};
use ev_drive::DriveProfile;
use ev_units::Seconds;

use crate::observe::{ControllerMode, NoopObserver, StepObserver, StepRecord};
use crate::{ElectricVehicle, EvParams, SimulationResult, TimeSeries};

/// Errors from constructing a simulation.
///
/// Marked non-exhaustive: future variants must not break downstream
/// matches.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The drive profile has no samples.
    EmptyProfile,
    /// The state-of-health parameters are out of range. Caught at
    /// construction so the failure carries a routable error instead of
    /// panicking deep inside the run (possibly on a worker thread).
    InvalidSohParams(ev_battery::SohParamsError),
    /// A drive-profile sample carries a NaN or infinite time, speed,
    /// acceleration, slope, ambient temperature or solar load. Caught at
    /// construction: the controllers and the plant would otherwise panic
    /// or run on NaN mid-drive.
    NonFiniteSample {
        /// Index of the first offending sample.
        index: usize,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyProfile => write!(f, "drive profile has no samples"),
            Self::InvalidSohParams(e) => write!(f, "invalid soh parameters: {e}"),
            Self::NonFiniteSample { index } => {
                write!(f, "drive profile sample {index} is not finite")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The fixed-step co-simulation loop of the paper's Algorithm 1:
///
/// 1. extract the route information and precompute the electric-motor
///    power vector `e` from the drive profile (lines 2–5), stored with
///    each sample's ambient and solar load as the preview the loop reads;
/// 2. at every sample period, hand the controller the measured state,
///    BMS feedback and the preview window of `e` and ambient (lines
///    14–16), apply its input to the plant (line 18), and meter the total
///    power through the BMS (lines 19–20);
/// 3. evaluate ΔSoH of the whole discharge cycle at the end (line 23).
///
/// # Examples
///
/// ```no_run
/// use ev_core::{ControllerKind, EvParams, Simulation};
/// use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
/// use ev_units::{Celsius, Seconds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = EvParams::nissan_leaf_like();
/// let profile = DriveProfile::from_cycle(
///     &DriveCycle::ece15(),
///     AmbientConditions::constant(Celsius::new(30.0)),
///     Seconds::new(1.0),
/// );
/// let sim = Simulation::new(params.clone(), profile)?;
/// let mut onoff = ControllerKind::OnOff.instantiate(&params)?;
/// let result = sim.run(onoff.as_mut());
/// assert!(result.metrics().avg_hvac_power.value() >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    params: EvParams,
    profile: DriveProfile,
    /// One entry per profile sample — its motor power `e` precomputed
    /// from the profile, its ambient and its solar load — followed by
    /// `PREVIEW_LEN − 1` copies of the last entry, so the preview of
    /// every step is one slice of it.
    preview: Vec<PreviewSample>,
}

impl Simulation {
    /// Length of the preview window handed to the controller (samples).
    const PREVIEW_LEN: usize = 64;

    /// Creates a simulation, precomputing the motor-power vector and,
    /// with it, the preview every step reads.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyProfile`] if the profile has no samples,
    /// [`SimError::InvalidSohParams`] if the degradation parameters are
    /// out of range, or [`SimError::NonFiniteSample`] for the first
    /// sample with a NaN or infinite field.
    pub fn new(params: EvParams, profile: DriveProfile) -> Result<Self, SimError> {
        if profile.is_empty() {
            return Err(SimError::EmptyProfile);
        }
        if let Err(e) = params.soh.try_validated() {
            return Err(SimError::InvalidSohParams(e));
        }
        if let Some(index) = profile.iter().position(|s| {
            ![
                s.t.value(),
                s.v.value(),
                s.a,
                s.slope_percent,
                s.ambient.value(),
                s.solar.value(),
            ]
            .iter()
            .all(|x| x.is_finite())
        }) {
            return Err(SimError::NonFiniteSample { index });
        }
        // Algorithm 1 lines 2–5: PowerTrain(d_t) for every sample.
        let train = ev_powertrain::PowerTrain::new(params.vehicle.clone());
        let n = profile.len();
        let mut preview = Vec::with_capacity(n + Self::PREVIEW_LEN - 1);
        preview.extend(profile.iter().map(|s| PreviewSample {
            motor_power: train.power(s.v, s.a, s.slope_percent),
            ambient: s.ambient,
            solar: s.solar,
        }));
        // The window of the last step reaches `PREVIEW_LEN − 1` samples
        // past the end: hold the last sample there.
        preview.resize(n + Self::PREVIEW_LEN - 1, preview[n - 1]);
        Ok(Self {
            params,
            profile,
            preview,
        })
    }

    /// Borrows the drive profile.
    #[must_use]
    pub fn profile(&self) -> &DriveProfile {
        &self.profile
    }

    /// The precomputed motor-power vector `e` (W), one entry per profile
    /// sample.
    #[must_use]
    pub fn motor_power(&self) -> Vec<f64> {
        self.preview[..self.profile.len()]
            .iter()
            .map(|p| p.motor_power.value())
            .collect()
    }

    /// Runs the closed loop with the given controller and returns the
    /// recorded result.
    pub fn run(&self, controller: &mut dyn ClimateController) -> SimulationResult {
        self.run_observed(controller, &mut NoopObserver)
    }

    /// Runs the closed loop, invoking `observer` with the full
    /// [`StepRecord`] after every plant step. The observer is statically
    /// dispatched, so [`NoopObserver`] costs nothing; see
    /// [`crate::observe`] for ready-made observers.
    ///
    /// Internally this is exactly the incremental [`SimSession`] engine —
    /// [`start_session`](Self::start_session) followed by
    /// [`advance`](Self::advance) until the profile is exhausted — so a
    /// batch run and a step-at-a-time fleet session take bitwise-identical
    /// trajectories.
    pub fn run_observed<O: StepObserver>(
        &self,
        controller: &mut dyn ClimateController,
        observer: &mut O,
    ) -> SimulationResult {
        let dt = self.profile.dt();
        let n = self.profile.len();
        let mut session = self.start_session();

        observer.on_start(self.profile.name(), controller.name(), n);

        let mut series = TimeSeries::default();
        series.t.reserve(n);

        while let Some(rec) = self.advance(&mut session, controller) {
            series.t.push(rec.t);
            series.cabin.push(rec.cabin_temp);
            series
                .hvac_power
                .push(rec.heating_power + rec.cooling_power + rec.fan_power);
            series.motor_power.push(rec.motor_power);
            series.heating_power.push(rec.heating_power);
            series.cooling_power.push(rec.cooling_power);
            series.fan_power.push(rec.fan_power);
            series.battery_power.push(rec.battery_power);
            series.soc.push(rec.soc);
            series.pack_temp.push(rec.pack_temp);
            observer.on_step(&rec);
        }

        let ev = session.vehicle();
        let stats = ev.bms().cycle_stats();
        let delta_soh = ev.bms().cycle_degradation();
        let cycles = ev.bms().cycles_to_eol();
        let limits = self.params.limits();
        let result = SimulationResult::new(
            self.profile.name(),
            controller.name(),
            dt,
            series,
            delta_soh,
            cycles,
            stats,
            (limits.comfort_min, limits.comfort_max),
            self.params.target,
        )
        .with_distance(self.profile.distance());
        observer.on_finish(&result);
        result
    }

    /// Borrows the integrated parameter set this simulation runs with.
    #[must_use]
    pub fn params(&self) -> &EvParams {
        &self.params
    }

    /// Starts an incrementally-stepped run of this profile: a fresh
    /// plant (cabin soaked or preconditioned per
    /// [`EvParams::initial_cabin`], pack soaked to the first ambient) at
    /// step zero. Drive it with [`advance`](Self::advance).
    ///
    /// A [`SimSession`] owns no borrow of the `Simulation`, so many
    /// sessions can share one `Simulation` (e.g. behind an `Arc` in the
    /// fleet engine, one plant per vehicle over a shared precomputed
    /// preview).
    #[must_use]
    pub fn start_session(&self) -> SimSession {
        let first_ambient = self.profile.sample(0).ambient;
        let initial_cabin = self.params.initial_cabin.unwrap_or(first_ambient);
        // A parked pack soaks to ambient regardless of any cabin
        // preconditioning.
        SimSession {
            ev: ElectricVehicle::new(&self.params, initial_cabin)
                .with_pack_temperature(first_ambient),
            cursor: 0,
        }
    }

    /// Advances `session` by one control + plant step of the paper's
    /// Algorithm 1 and returns the full [`StepRecord`], or `None` once
    /// the profile is exhausted. A session must only be advanced by the
    /// `Simulation` that created it.
    pub fn advance(
        &self,
        session: &mut SimSession,
        controller: &mut dyn ClimateController,
    ) -> Option<StepRecord> {
        let dt = self.profile.dt();
        let n = self.profile.len();
        let k = session.cursor;
        if k >= n {
            return None;
        }
        session.cursor += 1;
        let min_flow = self.params.hvac.min_flow.value();
        let sample = *self.profile.sample(k);
        let ev = &mut session.ev;
        let ctx = ControlContext {
            state: ev.cabin_state(),
            ambient: sample.ambient,
            solar: sample.solar,
            soc: ev.bms().soc(),
            soc_avg: ev.bms().running_soc_avg(),
            dt,
            elapsed: Seconds::new(k as f64 * dt.value()),
            preview: &self.preview[k..k + Self::PREVIEW_LEN],
        };
        let input = controller.control(&ctx);
        let motor_power = self.preview[k].motor_power;
        let step = ev.step_at(&input, motor_power, sample.ambient, sample.solar, dt);
        Some(StepRecord {
            step: k,
            t: sample.t.value(),
            dt: dt.value(),
            motor_power: step.motor_power.value(),
            heating_power: step.hvac_power.heating.value(),
            cooling_power: step.hvac_power.cooling.value(),
            fan_power: step.hvac_power.fan.value(),
            accessory_power: step.accessory_power.value(),
            battery_power: step.battery_power.value(),
            soc: step.soc.value(),
            cabin_temp: step.cabin.value(),
            pack_temp: step.pack_temp.value(),
            ambient: sample.ambient.value(),
            solar: sample.solar.value(),
            supply_temp: input.ts.value(),
            coil_temp: input.tc.value(),
            recirculation: input.dr,
            flow: input.mz.value(),
            mode: ControllerMode::classify(
                step.hvac_power.heating.value(),
                step.hvac_power.cooling.value(),
                input.mz.value(),
                min_flow,
            ),
        })
    }
}

/// The mutable state of one incrementally-stepped simulation run: the
/// plant and the profile cursor. Created by
/// [`Simulation::start_session`], advanced one control + plant step at a
/// time by [`Simulation::advance`] — the substrate of a fleet vehicle
/// session, where thousands of plants share one precomputed profile.
#[derive(Debug, Clone)]
pub struct SimSession {
    ev: ElectricVehicle,
    cursor: usize,
}

impl SimSession {
    /// Index of the next profile sample to execute (equals the number of
    /// steps taken so far).
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Borrows the plant, e.g. to read the live SoC, cabin temperature
    /// or BMS cycle statistics mid-drive.
    #[must_use]
    pub fn vehicle(&self) -> &ElectricVehicle {
        &self.ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ControllerKind;
    use ev_drive::{AmbientConditions, DriveCycle};
    use ev_units::{Celsius, Watts};

    fn short_sim(to: f64) -> Simulation {
        let profile = DriveProfile::from_cycle(
            &DriveCycle::ece15(),
            AmbientConditions::constant(Celsius::new(to)),
            Seconds::new(1.0),
        );
        Simulation::new(EvParams::nissan_leaf_like(), profile).expect("profile non-empty")
    }

    #[test]
    fn motor_power_precomputation_matches_profile() {
        let sim = short_sim(30.0);
        assert_eq!(sim.motor_power().len(), sim.profile().len());
        // Standstill at t = 0: zero motor power.
        assert_eq!(sim.motor_power()[0], 0.0);
        // Some acceleration sample draws real power.
        assert!(sim.motor_power().iter().any(|&p| p > 5_000.0));
    }

    /// Records the preview and running SoC average of every step, then
    /// lets On/Off decide.
    struct PreviewRecorder {
        inner: Box<dyn ClimateController>,
        windows: Vec<Vec<PreviewSample>>,
        soc_avgs: Vec<f64>,
    }

    impl ClimateController for PreviewRecorder {
        fn name(&self) -> &'static str {
            "preview-recorder"
        }

        fn control(&mut self, ctx: &ControlContext<'_>) -> ev_hvac::HvacInput {
            self.windows.push(ctx.preview.to_vec());
            self.soc_avgs.push(ctx.soc_avg);
            self.inner.control(ctx)
        }
    }

    fn preview_bits(p: &PreviewSample) -> [u64; 3] {
        [
            p.motor_power.value().to_bits(),
            p.ambient.value().to_bits(),
            p.solar.value().to_bits(),
        ]
    }

    /// Runs `sim` to the end and checks every step's preview against the
    /// window the loop once rebuilt per step — samples `k..k + 64`, the
    /// last one held past the end, motor power from `PowerTrain::power`
    /// — every step's motor power against `PowerTrain::power`, and every
    /// step's `soc_avg` against the mean of the initial SoC and the SoC
    /// after each earlier step, summed in order: a controller sees the
    /// average from before its own step's SoC update.
    fn assert_previews_match_per_step_windows(sim: &Simulation) {
        let len = Simulation::PREVIEW_LEN;
        let train = ev_powertrain::PowerTrain::new(sim.params().vehicle.clone());
        let profile = sim.profile();
        let n = profile.len();
        let power = |k: usize| {
            let s = profile.sample(k);
            train.power(s.v, s.a, s.slope_percent)
        };
        let mut recorder = PreviewRecorder {
            inner: ControllerKind::OnOff.instantiate(sim.params()).unwrap(),
            windows: Vec::new(),
            soc_avgs: Vec::new(),
        };
        let mut socs = vec![sim.params().battery.initial_soc.value()];
        let mut session = sim.start_session();
        let mut steps = 0;
        while let Some(rec) = sim.advance(&mut session, &mut recorder) {
            let k = rec.step;
            let mean = socs.iter().sum::<f64>() / socs.len() as f64;
            assert_eq!(recorder.soc_avgs[k].to_bits(), mean.to_bits(), "step {k}");
            socs.push(rec.soc);
            assert_eq!(
                rec.motor_power.to_bits(),
                power(k).value().to_bits(),
                "step {k}"
            );
            let window = &recorder.windows[k];
            assert_eq!(window.len(), len, "step {k}");
            for (j, got) in (k..k + len).zip(window) {
                let s = profile.sample(j.min(n - 1));
                let want = PreviewSample {
                    motor_power: power(j.min(n - 1)),
                    ambient: s.ambient,
                    solar: s.solar,
                };
                assert_eq!(
                    preview_bits(got),
                    preview_bits(&want),
                    "step {k}, sample {j}"
                );
            }
            steps += 1;
        }
        assert_eq!(steps, n);
    }

    /// ECE-15 cut off mid-acceleration at or after sample `from`, with
    /// the ambient and solar load changing every sample: no two preview
    /// entries are alike, and the held last sample is not a standstill.
    fn cut_sim(from: usize) -> Simulation {
        let full = short_sim(30.0);
        let train = ev_powertrain::PowerTrain::new(full.params().vehicle.clone());
        let mut samples = full.profile().samples().to_vec();
        let cut = (from..samples.len())
            .find(|&k| {
                let s = &samples[k];
                train.power(s.v, s.a, s.slope_percent).value() > 5_000.0
            })
            .expect("ECE-15 accelerates again after `from`");
        samples.truncate(cut + 1);
        for (k, s) in samples.iter_mut().enumerate() {
            s.ambient = Celsius::new(30.0 + 0.01 * k as f64);
            s.solar = Watts::new(400.0 - 0.5 * k as f64);
        }
        let profile = DriveProfile::from_samples("ece15-cut", Seconds::new(1.0), samples);
        Simulation::new(EvParams::nissan_leaf_like(), profile).unwrap()
    }

    #[test]
    fn previews_are_the_per_step_windows_held_past_the_end() {
        // A drive shorter than one window, so every window reaches past
        // its end, and one longer than a window.
        let short = cut_sim(0);
        let long = cut_sim(100);
        assert!(short.profile().len() < Simulation::PREVIEW_LEN);
        assert!(long.profile().len() > Simulation::PREVIEW_LEN);
        assert_previews_match_per_step_windows(&short);
        assert_previews_match_per_step_windows(&long);
    }

    #[test]
    fn onoff_run_produces_complete_series() {
        let sim = short_sim(35.0);
        let mut c = ControllerKind::OnOff
            .instantiate(&EvParams::nissan_leaf_like())
            .unwrap();
        let r = sim.run(c.as_mut());
        assert_eq!(r.series.t.len(), sim.profile().len());
        let m = r.metrics();
        assert!(m.avg_hvac_power.value() > 0.0);
        assert!(m.final_soc < 95.0);
        assert!(m.delta_soh_milli_percent > 0.0);
        assert!(m.distance.value() > 0.9);
    }

    #[test]
    fn hot_start_cools_toward_band() {
        let sim = short_sim(35.0);
        let mut c = ControllerKind::Fuzzy
            .instantiate(&EvParams::nissan_leaf_like())
            .unwrap();
        let r = sim.run(c.as_mut());
        let last = *r.series.cabin.last().unwrap();
        assert!(last < 32.0, "cabin should cool from 35 °C soak: {last}");
    }

    #[test]
    fn soc_is_monotone_without_regen() {
        // ECE-15 braking is gentle but regen exists; check the SoC never
        // *increases more than regen can explain* — simply verify overall
        // decrease and boundedness.
        let sim = short_sim(21.0);
        let mut c = ControllerKind::OnOff
            .instantiate(&EvParams::nissan_leaf_like())
            .unwrap();
        let r = sim.run(c.as_mut());
        let socs = &r.series.soc;
        assert!(socs.first().unwrap() >= socs.last().unwrap());
        assert!(socs.iter().all(|&s| (10.0..=100.0).contains(&s)));
    }

    #[test]
    fn sim_error_display_is_stable() {
        assert_eq!(
            SimError::EmptyProfile.to_string(),
            "drive profile has no samples"
        );
    }

    #[test]
    fn non_finite_samples_are_rejected_at_construction() {
        use ev_drive::DriveSample;
        use ev_units::MetersPerSecond;
        type Poison = fn(&mut DriveSample);
        let poisons: [(&str, Poison); 8] = [
            ("t", |s| s.t = Seconds::new(f64::NAN)),
            ("v", |s| s.v = MetersPerSecond::new(f64::NAN)),
            ("a", |s| s.a = f64::NAN),
            ("slope", |s| s.slope_percent = f64::NAN),
            ("ambient", |s| s.ambient = Celsius::new(f64::NAN)),
            ("solar", |s| s.solar = Watts::new(f64::NAN)),
            ("+inf ambient", |s| s.ambient = Celsius::new(f64::INFINITY)),
            ("-inf ambient", |s| {
                s.ambient = Celsius::new(f64::NEG_INFINITY)
            }),
        ];
        let base = short_sim(30.0).profile().samples().to_vec();
        for (k, (name, poison)) in poisons.into_iter().enumerate() {
            let index = 7 + 13 * k;
            let mut samples = base.clone();
            poison(&mut samples[index]);
            let profile = DriveProfile::from_samples("poisoned", Seconds::new(1.0), samples);
            let err = Simulation::new(EvParams::nissan_leaf_like(), profile).unwrap_err();
            assert_eq!(err, SimError::NonFiniteSample { index }, "{name}");
            assert!(
                err.to_string().contains(&format!("sample {index} ")),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn invalid_soh_params_are_rejected_at_construction() {
        let mut params = EvParams::nissan_leaf_like();
        params.soh.a1 = -1.0;
        let profile = DriveProfile::from_cycle(
            &ev_drive::DriveCycle::ece15(),
            ev_drive::AmbientConditions::constant(ev_units::Celsius::new(30.0)),
            Seconds::new(1.0),
        );
        let err = Simulation::new(params, profile).unwrap_err();
        assert!(matches!(err, SimError::InvalidSohParams(_)));
        assert!(err.to_string().contains("a1"), "{err}");
    }

    #[test]
    fn sim_error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::EmptyProfile);
        assert!(e.source().is_none());
        assert!(!format!("{e:?}").is_empty());
    }

    #[test]
    fn observer_sees_every_step_consistently() {
        use crate::observe::{ControllerMode, TraceRecorder};
        let sim = short_sim(35.0);
        let mut c = ControllerKind::OnOff
            .instantiate(&EvParams::nissan_leaf_like())
            .unwrap();
        let mut trace = TraceRecorder::new();
        let r = sim.run_observed(c.as_mut(), &mut trace);
        assert_eq!(trace.records().len(), r.series.t.len());
        assert_eq!(trace.profile(), r.profile);
        assert_eq!(trace.controller(), r.controller);
        // The observed stream and the recorded series agree sample by
        // sample.
        for (k, rec) in trace.records().iter().enumerate() {
            assert_eq!(rec.step, k);
            assert_eq!(rec.t, r.series.t[k]);
            assert_eq!(rec.soc, r.series.soc[k]);
            assert_eq!(rec.cabin_temp, r.series.cabin[k]);
            assert_eq!(rec.pack_temp, r.series.pack_temp[k]);
            assert_eq!(rec.battery_power, r.series.battery_power[k]);
            assert!((rec.hvac_power() - r.series.hvac_power[k]).abs() < 1e-12);
        }
        // Hot soak at 35 °C: the On/Off controller must spend time
        // cooling.
        assert!(trace
            .records()
            .iter()
            .any(|rec| rec.mode == ControllerMode::Cooling));
    }

    #[test]
    fn observed_run_equals_plain_run() {
        // Precondition the cabin so mean_temp_error is a number (NaN is
        // not equal to itself, which would defeat the whole-result
        // comparison).
        let mut params = EvParams::nissan_leaf_like();
        params.initial_cabin = Some(params.target);
        let profile = DriveProfile::from_cycle(
            &DriveCycle::ece15(),
            AmbientConditions::constant(Celsius::new(35.0)),
            Seconds::new(1.0),
        );
        let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
        let mut c1 = ControllerKind::Fuzzy.instantiate(&params).unwrap();
        let mut c2 = ControllerKind::Fuzzy.instantiate(&params).unwrap();
        let plain = sim.run(c1.as_mut());
        let mut trace = crate::observe::TraceRecorder::new();
        let observed = sim.run_observed(c2.as_mut(), &mut trace);
        assert_eq!(plain, observed, "observation must not perturb the physics");
    }

    #[test]
    fn pack_starts_at_ambient_and_heats_under_load() {
        let sim = short_sim(35.0);
        let mut c = ControllerKind::OnOff
            .instantiate(&EvParams::nissan_leaf_like())
            .unwrap();
        let r = sim.run(c.as_mut());
        assert!((r.series.pack_temp[0] - 35.0).abs() < 0.1);
        // Sustained discharge generates I²R heat faster than a 35 °C
        // ambient removes it.
        assert!(
            r.series.pack_temp.last().unwrap() >= &r.series.pack_temp[0],
            "pack must not spontaneously cool below ambient"
        );
    }

    #[test]
    fn initial_cabin_override() {
        let profile = DriveProfile::from_cycle(
            &DriveCycle::ece15(),
            AmbientConditions::constant(Celsius::new(35.0)),
            Seconds::new(1.0),
        );
        let mut params = EvParams::nissan_leaf_like();
        params.initial_cabin = Some(Celsius::new(24.0));
        let sim = Simulation::new(params.clone(), profile).unwrap();
        let mut c = ControllerKind::OnOff.instantiate(&params).unwrap();
        let r = sim.run(c.as_mut());
        // Starting inside the band, comfort accounting begins at once.
        assert!(r.series.cabin[0] < 27.0);
    }
}
