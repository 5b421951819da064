//! SLO rules and multi-window burn-rate alerting over the [`crate::tsdb`].
//!
//! A rule names a windowed expression over the store — a gauge level, a
//! histogram quantile computed from bucket deltas, or a multi-window
//! **burn rate** (the fraction of events violating an objective,
//! normalized by the error budget) — plus a threshold: a value above it
//! is a *breach*. The engine evaluates all rules against the store at a
//! timestamp and drives each through the classic alert state machine:
//!
//! ```text
//! Inactive --breach--> Pending --breach for `for_s`--> Firing
//!    ^                    |                              |
//!    '----- clear --------'            clear --> Resolved (sticky)
//! ```
//!
//! `Resolved` is sticky for visibility ("this fired earlier in the
//! run") and [`SloEngine::ever_fired`] survives resolution — that is
//! what `evsim slo` turns into a non-zero exit code so CI can assert
//! "this soak stayed within budget".
//!
//! Burn-rate rules follow the multi-window pattern: the alert requires
//! the budget to be burning **both** over a fast window (catches
//! sudden breakage quickly, resets quickly once fixed) *and* over a
//! slow window (suppresses blips that cannot meaningfully dent the
//! budget). A burn of 1.0 means "exactly consuming the budget"; the
//! threshold is the multiple of budget-consumption-rate that pages.
//!
//! Rules load from a minimal TOML subset ([`parse_config`]).

use std::fmt;

use crate::tsdb::{parse_labels, Tsdb};

/// The windowed expression a rule evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Current level of a gauge: the highest across matching series.
    Gauge {
        /// Gauge metric name.
        metric: String,
        /// Label subset the series must carry.
        labels: Vec<(String, String)>,
    },
    /// A histogram quantile over a trailing window, computed from
    /// bucket deltas summed across matching series.
    Quantile {
        /// Histogram base name (no `_bucket` suffix).
        metric: String,
        /// Label subset the series must carry (`le` excluded).
        labels: Vec<(String, String)>,
        /// Quantile in `0.0..=1.0`.
        q: f64,
        /// Trailing window length, seconds.
        window_s: u64,
    },
    /// Multi-window burn rate: `(bad_rate / total_rate) / objective`
    /// must exceed the rule threshold over **both** windows to breach.
    BurnRate {
        /// Counter of budget-violating events.
        bad_metric: String,
        /// Label subset for the bad counter.
        bad_labels: Vec<(String, String)>,
        /// Counter of all events.
        total_metric: String,
        /// Label subset for the total counter.
        total_labels: Vec<(String, String)>,
        /// Allowed bad fraction (the error budget), e.g. `0.001`.
        objective: f64,
        /// Fast window, seconds.
        fast_window_s: u64,
        /// Slow window, seconds.
        slow_window_s: u64,
    },
}

/// One SLO rule: a named expression, the threshold it must stay at or
/// below, and how long a breach must persist before firing.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (shown in alerts and used in exit summaries).
    pub name: String,
    /// The windowed expression.
    pub expr: Expr,
    /// Breach threshold: a value above it breaches.
    pub threshold: f64,
    /// Seconds a breach must persist before `Pending` becomes
    /// `Firing` (0 fires immediately).
    pub for_s: u64,
}

/// Alert lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No breach observed.
    Inactive,
    /// Breaching, waiting out `for_s` (since the contained timestamp).
    Pending {
        /// When the breach began, ms since the Unix epoch.
        since_ms: u64,
    },
    /// Breach persisted past `for_s` (since the contained timestamp).
    Firing {
        /// When the alert fired, ms since the Unix epoch.
        since_ms: u64,
    },
    /// Fired earlier, currently clear (sticky for visibility).
    Resolved {
        /// When the breach cleared, ms since the Unix epoch.
        at_ms: u64,
    },
}

impl AlertState {
    /// Whether the alert is currently firing.
    #[must_use]
    pub fn is_firing(&self) -> bool {
        matches!(self, AlertState::Firing { .. })
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertState::Inactive => f.write_str("ok"),
            AlertState::Pending { .. } => f.write_str("pending"),
            AlertState::Firing { .. } => f.write_str("FIRING"),
            AlertState::Resolved { .. } => f.write_str("resolved"),
        }
    }
}

/// The outcome of evaluating one rule at one timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStatus {
    /// Rule name.
    pub name: String,
    /// Evaluated value (`None` when the store has no data for the
    /// expression yet — never a breach).
    pub value: Option<f64>,
    /// Rule threshold (for rendering).
    pub threshold: f64,
    /// Whether this evaluation breached.
    pub breached: bool,
    /// Alert state after this evaluation.
    pub state: AlertState,
}

struct RuleSlot {
    rule: Rule,
    state: AlertState,
    ever_fired: bool,
}

/// Evaluates a fixed rule set against a [`Tsdb`], carrying alert state
/// between evaluations.
pub struct SloEngine {
    slots: Vec<RuleSlot>,
}

impl SloEngine {
    /// An engine over `rules`, all alerts `Inactive`.
    #[must_use]
    pub fn new(rules: Vec<Rule>) -> Self {
        SloEngine {
            slots: rules
                .into_iter()
                .map(|rule| RuleSlot {
                    rule,
                    state: AlertState::Inactive,
                    ever_fired: false,
                })
                .collect(),
        }
    }

    /// Whether any rule ever reached `Firing` (survives resolution) —
    /// the `evsim slo` exit-code signal.
    #[must_use]
    pub fn ever_fired(&self) -> bool {
        self.slots.iter().any(|s| s.ever_fired)
    }

    /// Evaluate every rule against `db` at `now_ms`, advancing alert
    /// states. A rule whose expression has no data yet stays where it
    /// is on the breach side (`None` value never breaches).
    pub fn evaluate(&mut self, db: &Tsdb, now_ms: u64) -> Vec<RuleStatus> {
        self.slots
            .iter_mut()
            .map(|slot| {
                let value = eval_expr(&slot.rule.expr, db, now_ms);
                let breached = value.is_some_and(|v| v > slot.rule.threshold);
                slot.state = step_state(slot.state, breached, slot.rule.for_s, now_ms);
                if slot.state.is_firing() {
                    slot.ever_fired = true;
                }
                RuleStatus {
                    name: slot.rule.name.clone(),
                    value,
                    threshold: slot.rule.threshold,
                    breached,
                    state: slot.state,
                }
            })
            .collect()
    }
}

fn step_state(state: AlertState, breached: bool, for_s: u64, now_ms: u64) -> AlertState {
    match (state, breached) {
        (AlertState::Inactive | AlertState::Resolved { .. }, true) => {
            if for_s == 0 {
                AlertState::Firing { since_ms: now_ms }
            } else {
                AlertState::Pending { since_ms: now_ms }
            }
        }
        (AlertState::Pending { since_ms }, true) => {
            if now_ms.saturating_sub(since_ms) >= for_s.saturating_mul(1000) {
                AlertState::Firing { since_ms }
            } else {
                AlertState::Pending { since_ms }
            }
        }
        (AlertState::Firing { since_ms }, true) => AlertState::Firing { since_ms },
        (AlertState::Pending { .. }, false) => AlertState::Inactive,
        (AlertState::Firing { .. }, false) => AlertState::Resolved { at_ms: now_ms },
        (state, false) => state,
    }
}

fn eval_expr(expr: &Expr, db: &Tsdb, now_ms: u64) -> Option<f64> {
    let window_start = |w_s: u64| now_ms.saturating_sub(w_s.saturating_mul(1000));
    match expr {
        Expr::Gauge { metric, labels } => db
            .find(metric, labels)
            .into_iter()
            .filter_map(|idx| db.get(idx).and_then(|s| s.value_at(now_ms)))
            .filter(|v| !v.is_nan())
            .reduce(f64::max),
        Expr::Quantile {
            metric,
            labels,
            q,
            window_s,
        } => db.windowed_quantile(metric, labels, window_start(*window_s), now_ms, *q),
        Expr::BurnRate {
            bad_metric,
            bad_labels,
            total_metric,
            total_labels,
            objective,
            fast_window_s,
            slow_window_s,
        } => {
            let burn = |w_s: u64| -> Option<f64> {
                let t0 = window_start(w_s);
                let total = db.rate_sum(total_metric, total_labels, t0, now_ms)?;
                if total <= 0.0 {
                    return Some(0.0); // no traffic burns no budget
                }
                let bad = db
                    .rate_sum(bad_metric, bad_labels, t0, now_ms)
                    .unwrap_or(0.0);
                Some((bad / total) / objective.max(f64::MIN_POSITIVE))
            };
            let fast = burn(*fast_window_s)?;
            let slow = burn(*slow_window_s)?;
            // Both windows must burn for the alert to breach; the min
            // is therefore the binding value to compare and report.
            Some(fast.min(slow))
        }
    }
}

// ---------------------------------------------------------------------
// Config: a minimal TOML subset.
// ---------------------------------------------------------------------

/// A `[[slo]]` table under construction — every field optional,
/// validated by [`RawRule::build`].
#[derive(Default)]
struct RawRule {
    /// Rule name (required).
    name: Option<String>,
    /// Expression kind: `"gauge"`, `"quantile"`, `"burn_rate"`
    /// (required).
    kind: Option<String>,
    /// Metric name for gauge/quantile rules.
    metric: Option<String>,
    /// Label subset as `"k=v,k2=v2"`.
    labels: Option<String>,
    /// Quantile for `quantile` rules.
    q: Option<f64>,
    /// Window seconds for `quantile` rules.
    window_s: Option<u64>,
    /// Breach threshold (required for all kinds).
    threshold: Option<f64>,
    /// Pending duration before firing (default 0).
    for_s: Option<u64>,
    /// Bad-event counter for `burn_rate` rules.
    bad_metric: Option<String>,
    /// Label subset for the bad counter, `"k=v"` form.
    bad_labels: Option<String>,
    /// Total-event counter for `burn_rate` rules.
    total_metric: Option<String>,
    /// Label subset for the total counter, `"k=v"` form.
    total_labels: Option<String>,
    /// Error budget (allowed bad fraction) for `burn_rate` rules.
    objective: Option<f64>,
    /// Fast window seconds for `burn_rate` rules.
    fast_window_s: Option<u64>,
    /// Slow window seconds for `burn_rate` rules.
    slow_window_s: Option<u64>,
}

impl RawRule {
    /// Validate and assemble into a [`Rule`]; the error describes the
    /// first missing or malformed field.
    fn build(self) -> Result<Rule, String> {
        let name = self.name.clone().ok_or("rule missing name")?;
        let fail = |msg: &str| format!("rule {name:?}: {msg}");
        let labels =
            |raw: &Option<String>| parse_labels(raw.as_deref().unwrap_or("")).map_err(|e| fail(&e));
        let kind = self.kind.as_deref().ok_or_else(|| fail("missing kind"))?;
        let threshold = self.threshold.ok_or_else(|| fail("missing threshold"))?;
        let metric = |raw: &Option<String>| -> Result<String, String> {
            raw.clone().ok_or_else(|| fail("missing metric"))
        };
        let expr = match kind {
            "gauge" => Expr::Gauge {
                metric: metric(&self.metric)?,
                labels: labels(&self.labels)?,
            },
            "quantile" => {
                let q = self.q.ok_or_else(|| fail("missing q"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(fail("q out of [0, 1]"));
                }
                Expr::Quantile {
                    metric: metric(&self.metric)?,
                    labels: labels(&self.labels)?,
                    q,
                    window_s: self.window_s.ok_or_else(|| fail("missing window_s"))?,
                }
            }
            "burn_rate" => {
                let objective = self.objective.ok_or_else(|| fail("missing objective"))?;
                if objective <= 0.0 || objective > 1.0 {
                    return Err(fail("objective out of (0, 1]"));
                }
                Expr::BurnRate {
                    bad_metric: self.bad_metric.ok_or_else(|| fail("missing bad_metric"))?,
                    bad_labels: labels(&self.bad_labels)?,
                    total_metric: self
                        .total_metric
                        .ok_or_else(|| fail("missing total_metric"))?,
                    total_labels: labels(&self.total_labels)?,
                    objective,
                    fast_window_s: self
                        .fast_window_s
                        .ok_or_else(|| fail("missing fast_window_s"))?,
                    slow_window_s: self
                        .slow_window_s
                        .ok_or_else(|| fail("missing slow_window_s"))?,
                }
            }
            other => return Err(fail(&format!("unknown kind {other:?}"))),
        };
        Ok(Rule {
            name,
            expr,
            threshold,
            for_s: self.for_s.unwrap_or(0),
        })
    }

    fn assign(&mut self, key: &str, value: ConfigValue) -> Result<(), String> {
        let as_str = |v: ConfigValue| -> Result<String, String> {
            match v {
                ConfigValue::Str(s) => Ok(s),
                ConfigValue::Num(n) => Err(format!("expected a string, got {n}")),
            }
        };
        let as_f64 = |v: ConfigValue| -> Result<f64, String> {
            match v {
                ConfigValue::Num(n) => Ok(n),
                ConfigValue::Str(s) => Err(format!("expected a number, got {s:?}")),
            }
        };
        let as_u64 = |v: ConfigValue| -> Result<u64, String> {
            let n = as_f64(v)?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("expected a non-negative integer, got {n}"));
            }
            Ok(n as u64)
        };
        match key {
            "name" => self.name = Some(as_str(value)?),
            "kind" => self.kind = Some(as_str(value)?),
            "metric" => self.metric = Some(as_str(value)?),
            "labels" => self.labels = Some(as_str(value)?),
            "q" => self.q = Some(as_f64(value)?),
            "window_s" => self.window_s = Some(as_u64(value)?),
            "threshold" => self.threshold = Some(as_f64(value)?),
            "for_s" => self.for_s = Some(as_u64(value)?),
            "bad_metric" => self.bad_metric = Some(as_str(value)?),
            "bad_labels" => self.bad_labels = Some(as_str(value)?),
            "total_metric" => self.total_metric = Some(as_str(value)?),
            "total_labels" => self.total_labels = Some(as_str(value)?),
            "objective" => self.objective = Some(as_f64(value)?),
            "fast_window_s" => self.fast_window_s = Some(as_u64(value)?),
            "slow_window_s" => self.slow_window_s = Some(as_u64(value)?),
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    }
}

enum ConfigValue {
    Str(String),
    Num(f64),
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(raw: &str) -> Result<ConfigValue, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(format!("unterminated string {raw:?}"));
        };
        // The config subset supports the TOML basic escapes we need.
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("unsupported escape \\{other:?} in {raw:?}")),
            }
        }
        return Ok(ConfigValue::Str(out));
    }
    raw.parse::<f64>()
        .map(ConfigValue::Num)
        .map_err(|_| format!("cannot parse value {raw:?}"))
}

/// Parse an SLO config in a minimal TOML subset: `[[slo]]` table
/// headers, one `key = value` per line (quoted strings or plain
/// numbers), `#` comments. See the crate-level `EXPERIMENTS.md`
/// walkthrough for a worked example.
///
/// # Errors
///
/// Reports the first offending line with its 1-based number.
pub fn parse_config(text: &str) -> Result<Vec<Rule>, String> {
    let mut raws: Vec<RawRule> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        let at = |msg: String| format!("line {}: {msg}", idx + 1);
        if line.is_empty() {
            continue;
        }
        if line == "[[slo]]" {
            raws.push(RawRule::default());
            continue;
        }
        if line.starts_with('[') {
            return Err(at(format!("unknown table {line:?} (only [[slo]])")));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(at(format!("expected key = value, got {line:?}")));
        };
        let Some(current) = raws.last_mut() else {
            return Err(at(format!("{:?} outside any [[slo]] table", key.trim())));
        };
        let value = parse_value(value).map_err(at)?;
        current.assign(key.trim(), value).map_err(at)?;
    }
    raws.into_iter().map(RawRule::build).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::PromSample;

    fn sample(name: &str, labels: &[(&str, &str)], value: f64) -> PromSample {
        PromSample {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
            exemplar: None,
        }
    }

    #[test]
    fn config_round_trips_every_rule_kind() {
        let text = r#"
# fleet SLOs
[[slo]]
name = "queue-depth"
kind = "gauge"
metric = "fleet_queue_depth"
labels = "shard=0"
threshold = 100        # commands
for_s = 5

[[slo]]
name = "step-p99"
kind = "quantile"
metric = "fleet_cmd_seconds"
labels = "cmd=step"
q = 0.99
window_s = 60
threshold = 0.05

[[slo]]
name = "solve-iteration-budget"
kind = "burn_rate"
bad_metric = "mpc_solve_max_iterations_total"
total_metric = "mpc_solves_total"
objective = 0.01
fast_window_s = 30
slow_window_s = 120
threshold = 1.0
"#;
        let rules = parse_config(text).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].name, "queue-depth");
        assert_eq!(rules[0].for_s, 5);
        match &rules[0].expr {
            Expr::Gauge { labels, .. } => {
                assert_eq!(labels, &[("shard".to_string(), "0".to_string())]);
            }
            other => panic!("wrong expr {other:?}"),
        }
        match &rules[1].expr {
            Expr::Quantile {
                q,
                window_s,
                labels,
                ..
            } => {
                assert_eq!(*q, 0.99);
                assert_eq!(*window_s, 60);
                assert_eq!(labels[0].1, "step");
            }
            other => panic!("wrong expr {other:?}"),
        }
        match &rules[2].expr {
            Expr::BurnRate { objective, .. } => assert_eq!(*objective, 0.01),
            other => panic!("wrong expr {other:?}"),
        }
    }

    #[test]
    fn config_errors_carry_line_numbers() {
        let err = parse_config("name = \"x\"\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("outside any"), "{err}");
        let err = parse_config("[[slo]]\nkind 5\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_config("[[slo]]\nthreshold = \"high\"\n").unwrap_err();
        assert!(err.contains("expected a number"), "{err}");
        let err =
            parse_config("[[slo]]\nname = \"x\"\nkind = \"quantile\"\nthreshold = 1\nq = 3\n")
                .unwrap_err();
        assert!(err.contains("q out of"), "{err}");
        // A value above the threshold is the only breach: no `op` key,
        // and no counter-rate kind.
        let err = parse_config("[[slo]]\nop = \"lt\"\n").unwrap_err();
        assert!(err.contains("line 2: unknown key \"op\""), "{err}");
        let err = parse_config(
            "[[slo]]\nname = \"r\"\nkind = \"rate\"\nmetric = \"x_total\"\nthreshold = 1\n",
        )
        .unwrap_err();
        assert!(err.contains("unknown kind \"rate\""), "{err}");
    }

    #[test]
    fn gauge_rule_fires_pends_and_resolves() {
        let rules = parse_config(
            "[[slo]]\nname = \"queue\"\nkind = \"gauge\"\nmetric = \"depth\"\nthreshold = 10\nfor_s = 2\n",
        )
        .unwrap();
        let mut engine = SloEngine::new(rules);
        let mut db = Tsdb::new();
        db.ingest(0, &[sample("depth", &[], 5.0)]);
        let s = engine.evaluate(&db, 0);
        assert_eq!(s[0].state, AlertState::Inactive);
        assert!(!s[0].breached);
        // Breach begins: pending, not yet firing.
        db.ingest(1000, &[sample("depth", &[], 50.0)]);
        let s = engine.evaluate(&db, 1000);
        assert_eq!(s[0].state, AlertState::Pending { since_ms: 1000 });
        // Still breaching after for_s: fires.
        db.ingest(3000, &[sample("depth", &[], 60.0)]);
        let s = engine.evaluate(&db, 3000);
        assert_eq!(s[0].state, AlertState::Firing { since_ms: 1000 });
        assert!(engine.ever_fired());
        // Clears: resolved, and stays resolved; ever_fired persists.
        db.ingest(4000, &[sample("depth", &[], 1.0)]);
        let s = engine.evaluate(&db, 4000);
        assert_eq!(s[0].state, AlertState::Resolved { at_ms: 4000 });
        let s = engine.evaluate(&db, 5000);
        assert_eq!(s[0].state, AlertState::Resolved { at_ms: 4000 });
        assert!(!s[0].state.is_firing());
        assert!(engine.ever_fired());
    }

    #[test]
    fn pending_that_clears_before_for_s_never_fires() {
        let rules = parse_config(
            "[[slo]]\nname = \"queue\"\nkind = \"gauge\"\nmetric = \"depth\"\nthreshold = 10\nfor_s = 60\n",
        )
        .unwrap();
        let mut engine = SloEngine::new(rules);
        let mut db = Tsdb::new();
        db.ingest(0, &[sample("depth", &[], 50.0)]);
        engine.evaluate(&db, 0);
        db.ingest(1000, &[sample("depth", &[], 2.0)]);
        let s = engine.evaluate(&db, 1000);
        assert_eq!(s[0].state, AlertState::Inactive);
        assert!(!engine.ever_fired());
    }

    #[test]
    fn no_data_never_breaches() {
        let rules = parse_config(
            "[[slo]]\nname = \"q\"\nkind = \"quantile\"\nmetric = \"absent_seconds\"\nq = 0.99\nwindow_s = 10\nthreshold = 1\n",
        )
        .unwrap();
        let mut engine = SloEngine::new(rules);
        let db = Tsdb::new();
        let s = engine.evaluate(&db, 1000);
        assert_eq!(s[0].value, None);
        assert!(!s[0].breached);
        assert_eq!(s[0].state, AlertState::Inactive);
    }

    #[test]
    fn burn_rate_requires_both_windows() {
        let rules = parse_config(
            "[[slo]]\nname = \"budget\"\nkind = \"burn_rate\"\nbad_metric = \"bad_total\"\ntotal_metric = \"all_total\"\nobjective = 0.1\nfast_window_s = 10\nslow_window_s = 60\nthreshold = 1\n",
        )
        .unwrap();
        let mut engine = SloEngine::new(rules);
        let mut db = Tsdb::new();
        // 60 s of clean traffic: 10 events/s, no bad.
        for t in 0..=60u64 {
            db.ingest(
                t * 1000,
                &[
                    sample("all_total", &[], (t * 10) as f64),
                    sample("bad_total", &[], 0.0),
                ],
            );
        }
        let s = engine.evaluate(&db, 60_000);
        assert_eq!(s[0].value, Some(0.0));
        assert!(!s[0].breached);
        // A fast spike: the last 10 s go 50% bad. Fast window burns at
        // 5x budget, but the slow window is still diluted below 1x —
        // so the multi-window alert stays quiet.
        for t in 61..=70u64 {
            db.ingest(
                t * 1000,
                &[
                    sample("all_total", &[], (t * 10) as f64),
                    sample("bad_total", &[], ((t - 60) * 5) as f64),
                ],
            );
        }
        let s = engine.evaluate(&db, 70_000);
        let v = s[0].value.unwrap();
        assert!(v < 1.0, "slow window should bind: {v}");
        assert!(!s[0].breached);
        // Sustained badness: keep burning until the slow window agrees.
        for t in 71..=130u64 {
            db.ingest(
                t * 1000,
                &[
                    sample("all_total", &[], (t * 10) as f64),
                    sample("bad_total", &[], ((t - 60) * 5) as f64),
                ],
            );
        }
        let s = engine.evaluate(&db, 130_000);
        let v = s[0].value.unwrap();
        assert!(v > 1.0, "sustained burn must breach: {v}");
        assert!(s[0].breached);
        assert!(s[0].state.is_firing());
    }

    #[test]
    fn quantile_rule_breaches_on_windowed_tail() {
        let mut rules = parse_config(
            "[[slo]]\nname = \"p99\"\nkind = \"quantile\"\nmetric = \"lat_seconds\"\nq = 0.99\nwindow_s = 10\nthreshold = 0.1\n",
        )
        .unwrap();
        assert_eq!(rules.len(), 1);
        let rule = rules.pop().unwrap();
        let mut engine = SloEngine::new(vec![rule]);
        let mut db = Tsdb::new();
        let buckets = |fast: f64, slow: f64| {
            vec![
                sample("lat_seconds_bucket", &[("le", "0.1")], fast),
                sample("lat_seconds_bucket", &[("le", "1.0")], fast + slow),
                sample("lat_seconds_bucket", &[("le", "+Inf")], fast + slow),
            ]
        };
        db.ingest(0, &buckets(100.0, 0.0));
        db.ingest(10_000, &buckets(200.0, 0.0));
        let s = engine.evaluate(&db, 10_000);
        assert_eq!(s[0].value, Some(0.1));
        assert!(!s[0].breached, "p99 at the bound is not a breach");
        // 5% of the next window lands beyond 0.1 s: p99 escapes.
        db.ingest(20_000, &buckets(295.0, 5.0));
        let s = engine.evaluate(&db, 20_000);
        assert!(s[0].value.unwrap() > 0.1);
        assert!(s[0].breached);
    }
}
