//! The repository benchmark: encrypted prediction and encrypted
//! training over TCP loopback, against the real daemons, end to end
//! and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload predict-mnist --seed 1 --seconds 8 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! tracing off; with `--trace 1` it also runs a traced pass and the
//! per-layer replays, and reports the per-layer metrics. Every run
//! checks every output bit for bit against the in-process reference.
//! The last line of standard output is the result object; the line
//! before it is the run's record (host, workload, both metric sets).
//! The workloads and their fixed loads are in `perfbench/workloads.json`;
//! `perfbench/README.md` maps each per-layer metric to the end-to-end
//! metric it should move.

mod affinity;
mod common;
mod layers;
mod predict;
mod report;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;

use serde::Value;

/// The layers plus the residual must match the median client-observed
/// wall time within this share of it.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Where the run writes its spans and scratch files: inside the
/// working directory the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench-out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The host the numbers came from.
fn host() -> Vec<(String, Value)> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    for (name, on) in [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("bmi2", std::arch::is_x86_feature_detected!("bmi2")),
        ("adx", std::arch::is_x86_feature_detected!("adx")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        (
            "avx512ifma",
            std::arch::is_x86_feature_detected!("avx512ifma"),
        ),
    ] {
        if on {
            flags.push(Value::Str(name.into()));
        }
    }
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("rustc".into(), Value::Str(rustc)),
        (
            "mont_kernel".into(),
            Value::Str(cryptonn_bigint::kernel_name().into()),
        ),
        ("cpu_flags".into(), Value::Seq(flags)),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let settings = common::settings();
    let outcome = if let Some(spec) = settings.predict.iter().find(|w| w.name == args.workload) {
        predict::run(spec, args.seed, args.seconds, args.trace)
    } else if let Some(spec) = settings.train.iter().find(|w| w.name == args.workload) {
        train::run(spec, args.seed, args.seconds, args.trace)
    } else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let _ = std::fs::remove_dir(out_dir());
    println!("{}", outcome.record_line(host()));
    if outcome.failed_run() {
        eprintln!("perfbench: the run failed; see the record's problems");
        std::process::exit(1);
    }
    println!("{}", outcome.result_line(args.trace));
}
