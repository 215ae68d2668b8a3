//! One workload run of the CPR benchmark, in its own process.
//!
//! ```text
//! perfbench --workload <kv-resident|txn-contended|net-loopback> --seed N
//!           --seconds S --trace 0|1 --dir DIR [--spans FILE]
//! ```
//!
//! Prints one JSON object on the last line of stdout: `correct`,
//! `attempted`, `failed`, every metric with its unit, the correctness
//! errors and free-form notes. Exits 1 when a correctness check fails.
//! `perfbench/run.py` builds this binary and turns its output into the
//! benchmark's result line.

mod common;
mod embedded;
mod kv;
mod net;
mod procfs;
mod stats;
mod trace;
mod txn;

use std::path::PathBuf;
use std::process::ExitCode;

use common::RunOpts;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <kv-resident|txn-contended|net-loopback> --seed N \
         --seconds S --trace 0|1 --dir DIR [--spans FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(dir)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds").and_then(|s| s.parse::<f64>().ok()),
        get("--trace"),
        get("--dir"),
    ) else {
        return usage();
    };
    if !seconds.is_finite() || seconds <= 0.0 || !matches!(trace.as_str(), "0" | "1") {
        return usage();
    }
    let opts = RunOpts {
        seed,
        seconds,
        trace: trace == "1",
        dir: PathBuf::from(dir),
        spans_out: get("--spans").map(PathBuf::from),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.dir) {
        eprintln!("cannot create {}: {e}", opts.dir.display());
        return ExitCode::FAILURE;
    }
    let result = match workload.as_str() {
        "kv-resident" => embedded::run(&kv::KvResident, &opts),
        "txn-contended" => embedded::run(&txn::TxnContended, &opts),
        "net-loopback" => net::run(&opts),
        _ => return usage(),
    };
    let _ = std::fs::remove_dir_all(&opts.dir);
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
