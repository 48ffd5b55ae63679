//! `wirebench`: the repository's benchmark.
//!
//! Starts an in-process `mm-server`, drives one of three workloads
//! through the public `mm_server::Client`, checks every reply against an
//! in-process oracle, and ends with one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run that
//! replays the same requests through each layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload bulk_exchange --seed 1 --seconds 20 --trace 0
//! ```

mod bulk;
mod common;
mod ingest;
mod layers;
mod mixed;
mod report;
mod stats;
mod trace;

use common::Args;

const USAGE: &str = "usage: wirebench --workload <bulk_exchange|small_mixed|ingest_cdc> \
--seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "bulk_exchange" => bulk::run(&args),
        "small_mixed" => mixed::run(&args),
        "ingest_cdc" => ingest::run(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(report) => report.emit(&args.workload, args.seed, args.trace),
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}
