//! `cycles`, `simulate` and `compare`: one vehicle on one drive cycle.
//!
//! - `cycles` lists the built-in drive cycles and their statistics.
//! - `simulate` runs one closed-loop simulation and prints the metrics.
//!   It optionally writes the full result (time series included) as
//!   JSON (`--json`), the telemetry snapshot (solver and plant metrics)
//!   as Prometheus text (`--telemetry`), and the MPC flight recording
//!   (decision records and realized steps) as JSONL
//!   (`--flight-recorder`). `--max-sqp-iterations` caps the SQP solver,
//!   which forces `max_iterations` outcomes when exercising the recorder.
//! - `compare` runs the paper's three-controller comparison on one
//!   cycle.

use evclimate::core::{
    ControllerKind, ControllerSetup, EvParams, FlightRecorderObserver, Simulation,
    SimulationResult, TelemetryObserver,
};
use evclimate::drive::{AmbientConditions, DriveCycle, DriveProfile};
use evclimate::telemetry::{export, FlightRecorder, Registry};
use evclimate::units::{Celsius, Seconds};

use super::{controller_by_name, controller_setup, Args};

/// Looks up a built-in cycle by (case-insensitive) name.
pub(super) fn cycle_by_name(name: &str) -> Option<DriveCycle> {
    match name.to_ascii_lowercase().as_str() {
        "nedc" => Some(DriveCycle::nedc()),
        "ece15" | "ece-15" => Some(DriveCycle::ece15()),
        "eudc" => Some(DriveCycle::eudc()),
        "ece_eudc" | "ece-eudc" => Some(DriveCycle::ece_eudc()),
        "us06" => Some(DriveCycle::us06()),
        "sc03" => Some(DriveCycle::sc03()),
        "udds" => Some(DriveCycle::udds()),
        "wltc" | "wltc3" | "wltc-3" => Some(DriveCycle::wltc_class3()),
        _ => None,
    }
}

fn build_sim(args: &Args) -> Result<(EvParams, Simulation), String> {
    let cycle_name = args.get("cycle").ok_or("missing --cycle")?;
    let cycle = cycle_by_name(cycle_name)
        .ok_or_else(|| format!("unknown cycle '{cycle_name}' (try: evsim cycles)"))?;
    let ambient = args.get_f64("ambient", 35.0)?;
    let target = args.get_f64("target", 24.0)?;
    let mut params = EvParams::nissan_leaf_like();
    params.target = Celsius::new(target);
    if args.flag("precondition") {
        params.initial_cabin = Some(params.target);
    }
    let profile = DriveProfile::from_cycle(
        &cycle,
        AmbientConditions::constant(Celsius::new(ambient)),
        Seconds::new(1.0),
    );
    let sim = Simulation::new(params.clone(), profile).map_err(|e| e.to_string())?;
    Ok((params, sim))
}

fn print_metrics(result: &SimulationResult) {
    let m = result.metrics();
    println!("profile:        {}", result.profile);
    println!("controller:     {}", result.controller);
    println!("distance:       {:.2} km", m.distance.value());
    println!(
        "energy:         {:.3} kWh ({:.2} kWh/100km)",
        m.energy.value(),
        m.kwh_per_100km
    );
    println!("avg HVAC power: {:.3} kW", m.avg_hvac_power.value());
    println!("final SoC:      {:.2} %", m.final_soc);
    println!(
        "SoC avg/dev:    {:.2} / {:.3} %",
        m.soc_stats.avg, m.soc_stats.dev
    );
    println!(
        "ΔSoH:           {:.3} m% per cycle ({:.0} cycles to 80 %)",
        m.delta_soh_milli_percent, m.cycles_to_eol
    );
    println!(
        "comfort:        {} violations, worst {:.2} K, mean |ΔT| {:.2} K",
        m.comfort_violations, m.max_comfort_excursion, m.mean_temp_error
    );
}

pub(super) fn cmd_cycles(_: &Args) -> Result<(), String> {
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>10}",
        "cycle", "time s", "dist km", "avg km/h", "max km/h"
    );
    let mut cycles = DriveCycle::paper_evaluation_set();
    cycles.push(DriveCycle::wltc_class3());
    for c in cycles {
        let s = c.stats();
        println!(
            "{:<10} {:>9.0} {:>10.2} {:>10.1} {:>10.1}",
            c.name(),
            s.duration.value(),
            s.distance.value(),
            s.avg_speed.to_kilometers_per_hour().value(),
            s.max_speed.to_kilometers_per_hour().value(),
        );
    }
    Ok(())
}

pub(super) fn cmd_simulate(args: &Args) -> Result<(), String> {
    let controller_name = args.get("controller").ok_or("missing --controller")?;
    let kind = controller_by_name(controller_name)
        .ok_or_else(|| format!("unknown controller '{controller_name}'"))?;
    let (params, sim) = build_sim(args)?;
    let telemetry_path = args.get("telemetry");
    let recorder_path = args.get("flight-recorder");
    let registry = Registry::with_enabled(telemetry_path.is_some());
    // With a dump path configured, solver failures (max-iter, structural
    // errors) auto-dump the window at the moment of failure; a healthy
    // run writes its final window once at the end.
    let recorder = match recorder_path {
        Some(path) => {
            FlightRecorder::enabled(FlightRecorder::DEFAULT_CAPACITY).with_auto_dump(path)
        }
        None => FlightRecorder::disabled(),
    };
    let setup = ControllerSetup {
        telemetry: registry.clone(),
        recorder: recorder.clone(),
        ..controller_setup(args)?
    };
    let mut controller = kind
        .instantiate_configured(&params, &setup)
        .map_err(|e| e.to_string())?;
    let mut observer = (
        TelemetryObserver::new(&registry),
        FlightRecorderObserver::new(&recorder),
    );
    let result = sim.run_observed(controller.as_mut(), &mut observer);
    print_metrics(&result);
    if let Some(path) = args.get("json") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
        export::write_text(std::path::Path::new(path), &json).map_err(|e| e.to_string())?;
        println!("full result written to {path}");
    }
    if let Some(path) = telemetry_path {
        let snapshot = registry.snapshot();
        export::write_text(
            std::path::Path::new(path),
            &export::to_prometheus(&snapshot),
        )
        .map_err(|e| e.to_string())?;
        println!("\n{}", export::render_report(&snapshot));
        println!("telemetry written to {path}");
    }
    if let Some(path) = recorder_path {
        if let Some(err) = recorder.last_dump_error() {
            eprintln!("warning: last flight-recorder auto-dump failed: {err}");
        }
        // A fired auto-dump preserved the window around the failing
        // solve; writing the end-of-run window to the same path would
        // overwrite that post-mortem (and for an early failure the ring
        // may have evicted it by now).
        if recorder.auto_dumps() > 0 {
            println!(
                "flight recording at {path} preserves the last solver failure \
                 ({} auto-dump(s); end-of-run dump skipped)",
                recorder.auto_dumps()
            );
        } else {
            recorder
                .dump_to(std::path::Path::new(path), "end of simulation")
                .map_err(|e| e.to_string())?;
            println!(
                "flight recording written to {path} ({} records, {} dropped)",
                recorder.len(),
                recorder.dropped()
            );
        }
    }
    Ok(())
}

pub(super) fn cmd_compare(args: &Args) -> Result<(), String> {
    let (params, sim) = build_sim(args)?;
    println!(
        "{:<28} {:>9} {:>12} {:>10} {:>11}",
        "controller", "HVAC kW", "ΔSoH (m%)", "SoC dev", "kWh/100km"
    );
    for kind in ControllerKind::paper_lineup() {
        let mut controller = kind.instantiate(&params).map_err(|e| e.to_string())?;
        let result = sim.run(controller.as_mut());
        let m = result.metrics();
        println!(
            "{:<28} {:>9.3} {:>12.3} {:>10.3} {:>11.2}",
            kind.label(),
            m.avg_hvac_power.value(),
            m.delta_soh_milli_percent,
            m.soc_stats.dev,
            m.kwh_per_100km,
        );
    }
    Ok(())
}
