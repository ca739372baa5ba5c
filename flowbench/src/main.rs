//! FlowGNN benchmark: three workloads, exact simulated metrics beside
//! host-time metrics, and an outside-in per-layer trace.
//!
//! ```text
//! cargo run --release --offline --manifest-path flowbench/Cargo.toml -- \
//!     --workload hep_gcn_timing --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures its timed phase for
//! `--seconds`, then checks the program's outputs outside the timed
//! phase. Host-time metrics are stated at a reference host's speed,
//! measured by the calibration unit in `calib.rs`. The last line of
//! standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See `README.md` beside this file for what every metric
//! means and why each workload exists.

mod calib;
mod closed;
mod out;
mod sweep;
mod trace;

use std::process::ExitCode;

use out::Run;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["molhiv_gin_full", "hep_gcn_timing", "molhiv_serve_sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            eprintln!(
                "usage: flowbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(&args.workload, args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "molhiv_gin_full" => closed::run(closed::Kind::GinFull, &mut run),
        "hep_gcn_timing" => closed::run(closed::Kind::HepTiming, &mut run),
        "molhiv_serve_sweep" => sweep::run(&mut run),
        _ => unreachable!("validated in parse_args"),
    }
    run.finish()
}
