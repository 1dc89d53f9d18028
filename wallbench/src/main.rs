//! Wall-clock benchmark of the SparseNN reproduction.
//!
//! ```text
//! wallbench --workload <serve-sparse|batch-dense|train-basic|model-capacity>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt-reference]
//! ```
//!
//! Prints `property`, `metric`, `digest` and (traced) `selftime` /
//! `residual` / `overhead` lines, then one JSON result line. Exits 0 only
//! when every correctness check passed. `run.py` builds and runs it.

mod capacity;
mod common;
mod host;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use common::Args;
use report::Report;

type Workload = fn(&Args, &mut Report);

const WORKLOADS: &[(&str, Workload)] = &[
    ("serve-sparse", workloads::serve_sparse),
    ("batch-dense", workloads::batch_dense),
    ("train-basic", workloads::train_basic),
    ("model-capacity", workloads::model_capacity),
];

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--corrupt-reference" => args.corrupt = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let Some((_, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("wallbench: --workload must be one of {}", names.join(", "));
        std::process::exit(2);
    };
    println!(
        "host nproc={} cpu=\"{}\" l2_bytes={} seed={} seconds={} trace={} tiny={}",
        host::nproc(),
        host::cpu_model(),
        host::l2_bytes(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny
    );
    let mut report = Report::default();
    run(&args, &mut report);
    let names = if args.trace {
        probe::PER_LAYER
    } else {
        report::END_TO_END
    };
    std::process::exit(report.finish(names));
}
