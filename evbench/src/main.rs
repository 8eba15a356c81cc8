//! `evbench` — the evprop benchmark: end-to-end metrics over the
//! program's own TCP server, and per-layer costs from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path evbench/Cargo.toml -- \
//!     --workload small_serve|paper_tree|session_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines (`#`-prefixed, plus a host block) come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (`setup_s`, `qps`, `p50_ms`, `p90_ms`), with
//! `--trace 1` the per-layer ones. See `README.md` beside this package
//! for what each metric means on each workload.

mod affinity;
mod churn;
mod common;
mod layers;
mod net;
mod paper_tree;
mod serving;
mod session_churn;
mod small_serve;
mod stats;

use std::process::ExitCode;

const USAGE: &str = "usage: evbench --workload small_serve|paper_tree|session_churn \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace '{other}'")),
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        common::host_block(&args.workload, args.seed, args.trace)
    );
    let result = match args.workload.as_str() {
        "small_serve" => small_serve::run(args.seed, args.seconds, args.trace),
        "paper_tree" => paper_tree::run(args.seed, args.seconds, args.trace),
        "session_churn" => session_churn::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    match result {
        Ok(r) => {
            for m in &r.metrics {
                println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("evbench: {e}");
            ExitCode::FAILURE
        }
    }
}
