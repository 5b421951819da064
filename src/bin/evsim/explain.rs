//! `validate-telemetry` and `explain`: read back the files `simulate`
//! writes, with the readers that sit beside their writers in
//! ev-telemetry.
//!
//! - `validate-telemetry <path.prom>` checks a telemetry snapshot with
//!   the strict exposition parser.
//! - `explain <dump.jsonl>` reads a flight-recorder dump and renders it
//!   as a constraint-activation timeline and a per-decision attribution
//!   table.

use evclimate::control::CONSTRAINT_ROW_LABELS;
use evclimate::telemetry::{export, recorder, DecisionRecord, FlightRecord, WarmStart};

/// Checks a telemetry snapshot with the strict exposition parser the
/// scrape and record paths use.
pub(super) fn cmd_validate_telemetry(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let samples = export::parse_prometheus(&text).map_err(|e| format!("{path}: {e}"))?;
    if samples.is_empty() {
        return Err(format!("{path}: no samples"));
    }
    println!("{path}: OK ({} samples)", samples.len());
    Ok(())
}

/// `"C5x3 C8x1"`: how often each constraint row was active across the
/// decision's horizon, labeled with the paper's constraint numbers.
fn render_active_set(d: &DecisionRecord) -> String {
    let mut counts = vec![0usize; d.constraint_rows];
    for mask in &d.active_masks {
        for (row, count) in counts.iter_mut().enumerate() {
            if mask & (1 << row) != 0 {
                *count += 1;
            }
        }
    }
    let parts: Vec<String> = counts
        .iter()
        .enumerate()
        .filter(|(_, c)| **c > 0)
        .map(|(row, c)| {
            let label = CONSTRAINT_ROW_LABELS
                .get(row)
                .map_or_else(|| format!("row{row}"), |l| (*l).to_owned());
            format!("{label}x{c}")
        })
        .collect();
    if parts.is_empty() {
        "-".to_owned()
    } else {
        parts.join(" ")
    }
}

/// Renders a flight-recorder dump, which [`recorder::parse_jsonl`]
/// reads and schema-checks, as the constraint-activation timeline and
/// the per-decision attribution table.
pub(super) fn render_explain(text: &str) -> Result<String, String> {
    let dump = recorder::parse_jsonl(text)?;
    let decisions: Vec<&DecisionRecord> = dump
        .records
        .iter()
        .filter_map(|r| match r {
            FlightRecord::Decision(d) => Some(&**d),
            FlightRecord::Step(_) => None,
        })
        .collect();
    let mut out = format!(
        "Flight recording: {} records ({} decisions, {} plant steps), {} dropped\nreason: {}\n",
        dump.records.len(),
        decisions.len(),
        dump.records.len() - decisions.len(),
        dump.dropped,
        dump.reason
    );
    out.push_str("\nConstraint-activation timeline\n");
    out.push_str(&format!(
        "{:>6} {:>8}  {:<19} {:>5}  {:<10}  active constraints\n",
        "step", "t [s]", "outcome", "iters", "warm-start"
    ));
    for d in &decisions {
        let warm_start = match d.warm_start {
            WarmStart::Cold => "cold".to_owned(),
            WarmStart::Shifted { blocks } => format!("shifted+{blocks}"),
        };
        out.push_str(&format!(
            "{:>6} {:>8.1}  {:<19} {:>5}  {:<10}  {}\n",
            d.step,
            d.t_s,
            d.outcome.as_str(),
            d.iterations,
            warm_start,
            render_active_set(d)
        ));
    }
    out.push_str("\nAttribution (per decision, over the prediction horizon)\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
        "step", "ΔSoC %", "motor %", "HVAC %", "motor Wh", "HVAC Wh", "J_hvac", "J_soc", "J_comf"
    ));
    for d in &decisions {
        match &d.attribution {
            Some(a) => out.push_str(&format!(
                "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.2} {:>10.2} {:>9.3} {:>9.3} {:>9.3}\n",
                d.step,
                a.soc_drop_total_pct,
                a.soc_drop_motor_pct,
                a.soc_drop_hvac_pct,
                a.motor_energy_wh,
                a.hvac_energy_wh,
                a.cost_hvac_power,
                a.cost_soc_deviation,
                a.cost_comfort
            )),
            None => out.push_str(&format!(
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
                d.step, "-", "-", "-", "-", "-", "-", "-", "-"
            )),
        }
    }
    Ok(out)
}

pub(super) fn cmd_explain(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rendered = render_explain(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{rendered}");
    Ok(())
}
