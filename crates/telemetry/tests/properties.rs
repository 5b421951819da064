//! Property-based tests for the readers beside the writers: label
//! values survive a render → parse round trip whatever characters they
//! carry, a segment cut anywhere mid-write decodes to an intact frame
//! prefix instead of an error, and a flight-recorder dump reads back
//! every float to the bit.

use ev_telemetry::export::{self, PromSample};
use ev_telemetry::recorder::{self, FlightRecord};
use ev_telemetry::tsdb;
use ev_telemetry::{
    Attribution, DecisionRecord, FlightRecorder, PlannedStep, Registry, SolveOutcome, StepSummary,
    WarmStart,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters chosen to stress the exposition escaper: the three escape
/// classes (`\\`, `\"`, `\n`), multi-byte unicode, and plain filler.
const PALETTE: &[char] = &[
    '\\', '"', '\n', 'a', 'Z', '0', ' ', '=', ',', '{', '}', 'é', '雪', '🔋',
];

fn label_value(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| PALETTE[i % PALETTE.len()])
        .collect()
}

/// Floats the dump's number spelling must survive: the signed zeros,
/// the smallest and largest subnormals, the normal extremes and the
/// non-finite values.
const SPECIAL_FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Half the time a special float, else any bit pattern: every exponent,
/// subnormals and NaN payloads included.
fn any_f64() -> impl Strategy<Value = f64> {
    (0..2 * SPECIAL_FLOATS.len(), 0u64..=u64::MAX).prop_map(|(pick, bits)| {
        SPECIAL_FLOATS
            .get(pick)
            .copied()
            .unwrap_or(f64::from_bits(bits))
    })
}

fn planned_step() -> impl Strategy<Value = PlannedStep> {
    vec(any_f64(), 7).prop_map(|f| PlannedStep {
        ts_c: f[0],
        tc_c: f[1],
        recirculation: f[2],
        flow_kg_s: f[3],
        hvac_power_w: f[4],
        cabin_c: f[5],
        soc_pct: f[6],
    })
}

/// Any decision the schema allows: a plan and its active-set masks of
/// one length (empty to long), masks within the constraint rows.
fn decision() -> impl Strategy<Value = FlightRecord> {
    (
        (
            0u64..=u64::MAX,
            0usize..4,
            0usize..=usize::MAX,
            0usize..=usize::MAX,
            0usize..=32,
            0usize..4,
        ),
        vec(any_f64(), 17),
        vec(any_f64(), 0..48),
        vec((planned_step(), 0u32..=u32::MAX), 0..=128),
    )
        .prop_map(
            |((step, outcome, iterations, blocks, rows, shape), f, preview, horizon)| {
                let (plan, active_masks) = horizon
                    .into_iter()
                    .map(|(p, m)| (p, if rows < 32 { m & ((1 << rows) - 1) } else { m }))
                    .unzip();
                FlightRecord::Decision(Box::new(DecisionRecord {
                    step,
                    t_s: f[0],
                    outcome: [
                        SolveOutcome::Converged,
                        SolveOutcome::MaxIterations,
                        SolveOutcome::LineSearchStalled,
                        SolveOutcome::Error,
                    ][outcome],
                    iterations,
                    objective: f[1],
                    constraint_violation: f[2],
                    warm_start: if shape & 1 == 0 {
                        WarmStart::Cold
                    } else {
                        WarmStart::Shifted { blocks }
                    },
                    soc_pct: f[3],
                    cabin_c: f[4],
                    motor_preview_w: preview,
                    plan,
                    constraint_rows: rows,
                    active_masks,
                    attribution: (shape & 2 != 0).then(|| Attribution {
                        battery_energy_wh: f[5],
                        motor_energy_wh: f[6],
                        hvac_energy_wh: f[7],
                        soc_drop_total_pct: f[8],
                        soc_drop_motor_pct: f[9],
                        soc_drop_hvac_pct: f[10],
                        eff_charge_total_as: f[11],
                        eff_charge_motor_as: f[12],
                        eff_charge_hvac_as: f[13],
                        cost_hvac_power: f[14],
                        cost_soc_deviation: f[15],
                        cost_comfort: f[16],
                    }),
                }))
            },
        )
}

fn record() -> impl Strategy<Value = FlightRecord> {
    (0usize..2, decision(), 0u64..=u64::MAX, vec(any_f64(), 7)).prop_map(
        |(kind, decision, step, f)| {
            if kind == 0 {
                return decision;
            }
            FlightRecord::Step(StepSummary {
                step,
                t_s: f[0],
                motor_power_w: f[1],
                hvac_power_w: f[2],
                battery_power_w: f[3],
                soc_pct: f[4],
                cabin_c: f[5],
                ambient_c: f[6],
            })
        },
    )
}

/// Every field of `record` as integers: the kind, the integer fields and
/// list lengths, then each float by its bits with any NaN as the one
/// canonical NaN. Equal vectors mean equal records, bit for bit.
fn bits(record: &FlightRecord) -> Vec<u64> {
    let mut floats = Vec::new();
    let mut ints = match record {
        FlightRecord::Step(s) => {
            floats.extend([s.t_s, s.motor_power_w, s.hvac_power_w, s.battery_power_w]);
            floats.extend([s.soc_pct, s.cabin_c, s.ambient_c]);
            vec![0, s.step]
        }
        FlightRecord::Decision(d) => {
            floats.extend([
                d.t_s,
                d.objective,
                d.constraint_violation,
                d.soc_pct,
                d.cabin_c,
            ]);
            floats.extend(&d.motor_preview_w);
            for p in &d.plan {
                floats.extend([p.ts_c, p.tc_c, p.recirculation, p.flow_kg_s]);
                floats.extend([p.hvac_power_w, p.cabin_c, p.soc_pct]);
            }
            if let Some(a) = &d.attribution {
                floats.extend([a.battery_energy_wh, a.motor_energy_wh, a.hvac_energy_wh]);
                floats.extend([
                    a.soc_drop_total_pct,
                    a.soc_drop_motor_pct,
                    a.soc_drop_hvac_pct,
                ]);
                floats.extend([a.eff_charge_total_as, a.eff_charge_motor_as]);
                floats.extend([a.eff_charge_hvac_as, a.cost_hvac_power]);
                floats.extend([a.cost_soc_deviation, a.cost_comfort]);
            }
            let warm = match d.warm_start {
                WarmStart::Cold => [0, 0],
                WarmStart::Shifted { blocks } => [1, blocks as u64],
            };
            let mut ints = vec![1, d.step, d.outcome as u64, d.iterations as u64];
            ints.extend(warm);
            ints.extend(
                [d.constraint_rows, d.motor_preview_w.len(), d.plan.len()].map(|n| n as u64),
            );
            ints.push(u64::from(d.attribution.is_some()));
            ints.extend(d.active_masks.iter().map(|&m| u64::from(m)));
            ints
        }
    };
    ints.extend(floats.into_iter().map(|v| {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }));
    ints
}

/// Characters a dump reason must survive: every escape class, the
/// other control characters, multi-byte unicode and JSON punctuation.
const REASON_PALETTE: &[char] = &[
    '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '雪', '🔋', '/', 'a',
    ' ', '{', '}', ':', ',',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A dump reads back into the records it was written from: every
    /// f64 equal by `to_bits` (any NaN as NaN), every count and tag
    /// exact, and the reason character for character.
    #[test]
    fn flight_dumps_read_back_bit_for_bit(
        records in vec(record(), 0..10),
        capacity in 1usize..12,
        reason in vec(0..REASON_PALETTE.len(), 0..24),
    ) {
        let recorder = FlightRecorder::enabled(capacity);
        for r in records {
            match r {
                FlightRecord::Decision(d) => recorder.record_decision(*d),
                FlightRecord::Step(s) => recorder.record_step(s),
            }
        }
        let reason: String = reason.iter().map(|&i| REASON_PALETTE[i]).collect();
        let text = recorder.to_jsonl(&reason);
        let dump = recorder::parse_jsonl(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(dump.capacity, capacity);
        prop_assert_eq!(dump.dropped, recorder.dropped());
        prop_assert_eq!(&dump.reason, &reason);
        let held = recorder.records();
        prop_assert_eq!(dump.records.len(), held.len());
        for (got, want) in dump.records.iter().zip(&held) {
            prop_assert_eq!(bits(got), bits(want), "dump:\n{}", text);
        }
    }

    /// Any label value — escapes, unicode, empty — round-trips through
    /// `to_prometheus` → `parse_prometheus` unchanged, with its sample's
    /// name and value.
    #[test]
    fn parse_prometheus_round_trips_label_values(
        raw_a in vec(0usize..PALETTE.len(), 0..12),
        raw_b in vec(0usize..PALETTE.len(), 0..12),
        count in 0u64..1000,
    ) {
        let (va, vb) = (label_value(&raw_a), label_value(&raw_b));
        let registry = Registry::enabled();
        registry
            .counter_with("requests_total", &[("path", &va), ("zone", &vb)])
            .add(count);
        registry.gauge_with("depth", &[("path", &va)]).set(3.5);
        let snapshot = registry.snapshot();

        let text = export::to_prometheus(&snapshot);
        let parsed = export::parse_prometheus(&text)
            .map_err(proptest::TestCaseError::fail)?;
        let sample = |name: &str, labels: &[(&str, &str)], value: f64| PromSample {
            name: name.to_owned(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            value,
            exemplar: None,
        };
        let expected = [
            sample("requests_total", &[("path", &va), ("zone", &vb)], count as f64),
            sample("depth", &[("path", &va)], 3.5),
        ];
        prop_assert_eq!(&parsed[..], &expected[..], "exposition:\n{}", text);
    }

    /// Cutting a segment file at ANY byte offset past the magic leaves
    /// a readable file: the reader yields an intact frame prefix and
    /// only flags `truncated` when the cut tore a record.
    #[test]
    fn segment_reader_survives_a_cut_at_any_offset(
        frames in 1usize..6,
        cut_back in 0usize..64,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "evtsdb-prop-{}-{frames}-{cut_back}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("seg.evts");

        let mut writer = tsdb::SegmentWriter::create(&path).expect("create");
        for f in 0..frames {
            let samples = vec![
                PromSample {
                    name: "steps_total".into(),
                    labels: vec![("shard".into(), "0".into())],
                    value: (f * 7) as f64,
                    exemplar: None,
                },
                PromSample {
                    name: "depth".into(),
                    labels: vec![],
                    value: f as f64 * 0.5,
                    exemplar: None,
                },
            ];
            writer.append((f as u64 + 1) * 1000, &samples).expect("append");
        }
        drop(writer);

        let bytes = std::fs::read(&path).expect("read back");
        let cut = bytes.len().saturating_sub(cut_back).max(8);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let seg = tsdb::read_segment(&path)
            .map_err(proptest::TestCaseError::fail)?;
        // Frames decode as a strict prefix with their original stamps.
        prop_assert!(seg.frames.len() <= frames);
        for (i, frame) in seg.frames.iter().enumerate() {
            prop_assert_eq!(frame.t_ms, (i as u64 + 1) * 1000);
        }
        // A cut that removed bytes but left the file undamaged at a
        // record boundary is not flagged; any torn record must be.
        if cut == bytes.len() {
            prop_assert!(!seg.truncated, "whole file is never truncated");
            prop_assert_eq!(seg.frames.len(), frames);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
