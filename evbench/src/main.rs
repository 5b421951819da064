//! `evbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload (or all four in turn), prints diagnostics
//! as `#` lines, every metric of the selected set as `name value unit`,
//! and, last, one JSON result line. Exits 1 when an output check or a
//! trace gate fails, 2 on a usage error.

use std::process::ExitCode;

use evbench::{run, workload, RunOptions, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("evbench: {msg}");
    eprintln!(
        "usage: evbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut name = None;
    let mut opts = RunOptions {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => opts.seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return bad(),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(name) = name else {
        return usage("--workload is required");
    };
    let names: Vec<&str> = if name == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![name.as_str()]
    };
    let mut passed = true;
    for n in names {
        let Some(w) = workload(n) else {
            return usage(&format!("unknown workload {n:?}"));
        };
        println!(
            "# workload {n}, seed {}, {} s, trace {}",
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let report = run(&w, &opts);
        print!("{}", report.render(opts.trace));
        passed &= report.passed();
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
