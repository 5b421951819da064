//! `evsim` — command-line driver for the evclimate simulator.
//!
//! `evsim` with no arguments prints every command's flags. Each family
//! of commands is one module, whose docs say what its commands do:
//! - [`simulate`]: `cycles`, `simulate` and `compare`;
//! - [`explain`]: `validate-telemetry` and `explain`;
//! - [`fleet`]: `loadgen`, `serve`, `scrape` and `top`;
//! - [`history`]: `record`, `query` and `slo`.
//!
//! Every subcommand rejects a `--flag` it does not take, before it
//! starts any work.

// One module per command family, in `src/bin/evsim/`: this root keeps
// the binary's path, so it names each module's file.
#[path = "evsim/explain.rs"]
mod explain;
#[path = "evsim/fleet.rs"]
mod fleet;
#[path = "evsim/history.rs"]
mod history;
#[path = "evsim/simulate.rs"]
mod simulate;

use std::process::ExitCode;
use std::time::Duration;

use evclimate::core::fleet::LoadgenConfig;
use evclimate::core::{ControllerKind, ControllerSetup};

use explain::{cmd_explain, cmd_validate_telemetry};
use fleet::{cmd_loadgen, cmd_scrape, cmd_serve, cmd_top};
use history::{cmd_query, cmd_record, cmd_slo};
use simulate::{cmd_compare, cmd_cycles, cmd_simulate};

fn usage() -> &'static str {
    "usage:\n  evsim cycles\n  evsim simulate --cycle <name> --controller <onoff|fuzzy|pid|mpc> \
     [--ambient <°C>] [--target <°C>] [--precondition] [--json <path>] \
     [--telemetry <path.prom>] [--flight-recorder <path.jsonl>] \
     [--max-sqp-iterations <n>]\n  \
     evsim compare --cycle <name> [--ambient <°C>] [--target <°C>] [--precondition]\n  \
     evsim validate-telemetry <path.prom>\n  \
     evsim explain <dump.jsonl>\n  \
     evsim loadgen [--sessions <n>] [--steps <n>] [--chunk <n>] [--seed <n>] \
     [--shards <n>] [--queue-capacity <n>] [--controller <name>] \
     [--max-sqp-iterations <n>]\n  \
     evsim serve [--addr <host:port>] [--for-seconds <n>] \
     [--burst-sessions <n>] [--burst-steps <n>] [--seed <n>]\n  \
     evsim scrape --addr <host:port> [--require-histogram <name>] \
     [--require-counter <name>]\n  \
     evsim top --addr <host:port> [--interval <secs>] [--once]\n  \
     evsim record [--out <seg.evts>] [--interval <secs>] \
     (--addr <host:port> [--for-seconds <n>] | [loadgen flags] \
     [--max-sqp-iterations <n>] [--trace-out <path.json>] [--sample <modulus>] \
     [--capacity <events>])\n  \
     evsim query --segment <seg.evts> [--metric <name>] [--labels k=v,..] \
     [--window-s <n>] [--quantile <q> | --rate] [--exemplars [--trace <path.json>]]\n  \
     evsim slo --segment <seg.evts> [--rules <path.toml>]"
}

fn controller_by_name(name: &str) -> Option<ControllerKind> {
    match name.to_ascii_lowercase().as_str() {
        "onoff" | "on-off" => Some(ControllerKind::OnOff),
        "fuzzy" => Some(ControllerKind::Fuzzy),
        "pid" => Some(ControllerKind::Pid),
        "mpc" | "lifetime" => Some(ControllerKind::Mpc),
        _ => None,
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean `--flags`.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parse `argv`, rejecting any `--key` that no group in `keys` names.
    fn parse(argv: &[String], keys: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if !keys.iter().any(|group| group.split(' ').any(|k| k == key)) {
                return Err(format!("unknown flag '--{key}'"));
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_owned(), (*v).clone()));
                    it.next();
                }
                _ => flags.push(key.to_owned()),
            }
        }
        Ok(Self { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .ok_or_else(|| format!("--{key} expects a finite number, got '{v}'")),
        }
    }

    /// `--key` as a span of seconds: not negative, and within
    /// [`Duration`]'s range.
    fn get_secs(&self, key: &str, default: f64) -> Result<Duration, String> {
        let secs = self.get_f64(key, default)?;
        if secs < 0.0 {
            return Err(format!("--{key} must not be negative, got {secs}"));
        }
        Duration::try_from_secs_f64(secs).map_err(|_| format!("--{key} is too large, got {secs:e}"))
    }

    fn get_int<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a non-negative integer, got '{v}'")),
        }
    }
}

/// `--interval`, the pause between polls or samples: more than zero.
fn interval(args: &Args, default_secs: f64) -> Result<Duration, String> {
    let interval = args.get_secs("interval", default_secs)?;
    if interval.is_zero() {
        return Err("--interval must be positive".into());
    }
    Ok(interval)
}

/// A subcommand's entry point.
type Handler = fn(&Args) -> Result<(), String>;

/// The flags `simulate::build_sim` reads.
const SIM_FLAGS: &str = "cycle ambient target precondition";

/// The flags [`loadgen_config`] and [`controller_setup`] read, shared by
/// every subcommand that runs a loadgen burst. Each names its own
/// session and step-count flags.
const LOADGEN_FLAGS: &str = "chunk seed shards queue-capacity controller max-sqp-iterations";

/// Every subcommand that takes `--` flags: its name, the flags it reads
/// (groups of space-separated names) and its entry point.
#[rustfmt::skip]
const COMMANDS: &[(&str, &[&str], Handler)] = &[
    ("cycles", &[], cmd_cycles),
    ("simulate", &[SIM_FLAGS, "controller json telemetry flight-recorder max-sqp-iterations"],
        cmd_simulate),
    ("compare", &[SIM_FLAGS], cmd_compare),
    ("loadgen", &[LOADGEN_FLAGS, "sessions steps"], cmd_loadgen),
    ("serve", &[LOADGEN_FLAGS, "addr for-seconds burst-sessions burst-steps"], cmd_serve),
    ("scrape", &["addr require-histogram require-counter"], cmd_scrape),
    ("top", &["addr interval once"], cmd_top),
    ("record", &[LOADGEN_FLAGS, "sessions steps out interval addr for-seconds",
        "trace-out sample capacity"], cmd_record),
    ("query", &["segment metric labels window-s quantile rate exemplars trace"], cmd_query),
    ("slo", &["segment rules"], cmd_slo),
];

/// Look up `command` and parse its flags, so a flag it does not take
/// fails before any work starts.
fn parse_command(command: &str, argv: &[String]) -> Result<(Handler, Args), String> {
    let &(_, keys, run) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == command)
        .ok_or_else(|| format!("unknown command '{command}'\n{}", usage()))?;
    let args = Args::parse(argv, keys).map_err(|e| format!("evsim {command}: {e}"))?;
    Ok((run, args))
}

/// The controller wiring the flags ask for: `--max-sqp-iterations` caps
/// the MPC's SQP iterations per solve, the fault injection that forces
/// `max_iterations` outcomes. Callers attach their own registry,
/// recorder and trace ring.
fn controller_setup(args: &Args) -> Result<ControllerSetup, String> {
    let max_sqp_iterations = args
        .get("max-sqp-iterations")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--max-sqp-iterations expects a count, got '{v}'"))
        })
        .transpose()?;
    Ok(ControllerSetup {
        max_sqp_iterations,
        ..ControllerSetup::default()
    })
}

/// Build a [`LoadgenConfig`] from the shared synthetic-fleet flags over
/// `defaults`.
///
/// `sessions_key`/`steps_key` differ between `loadgen` (primary flags)
/// and `serve` (burst flags), so the caller names them.
fn loadgen_config(
    args: &Args,
    sessions_key: &str,
    steps_key: &str,
    defaults: LoadgenConfig,
) -> Result<LoadgenConfig, String> {
    let controller = match args.get("controller") {
        None => defaults.controller,
        Some(name) => controller_by_name(name)
            .ok_or_else(|| format!("unknown controller '{name}' (onoff|fuzzy|pid|mpc)"))?,
    };
    Ok(LoadgenConfig {
        sessions: args.get_int(sessions_key, defaults.sessions)?,
        steps_per_session: args.get_int(steps_key, defaults.steps_per_session)?,
        chunk: args.get_int("chunk", defaults.chunk)?,
        seed: args.get_int("seed", defaults.seed)?,
        shards: args.get_int("shards", defaults.shards)?,
        queue_capacity: args.get_int("queue-capacity", defaults.queue_capacity)?,
        controller,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let outcome = match command.as_str() {
        "validate-telemetry" => match argv.get(1) {
            Some(path) => cmd_validate_telemetry(path),
            None => Err(format!("missing <path.prom>\n{}", usage())),
        },
        "explain" => match argv.get(1) {
            Some(path) => cmd_explain(path),
            None => Err(format!("missing <dump.jsonl>\n{}", usage())),
        },
        command => parse_command(command, &argv[1..]).and_then(|(run, args)| run(&args)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
#[path = "evsim/tests.rs"]
mod tests;
