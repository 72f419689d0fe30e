//! `perfbench`: the repository's benchmark of what users see.
//!
//! ```text
//! perfbench --workload <serve-point|serve-batch|release-set>
//!           --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --expected PATH
//! ```
//!
//! Serving workloads drive the `stpt-serve` binary at `--serve-bin` over
//! TCP; release workloads call the library crates in this process. Each run
//! checks every output it gets and ends its standard output with one JSON
//! line: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `run.py` builds
//! both programs and supplies the two paths.
//!
//! `--record` prints the lines of `expected_mre.txt` instead of checking
//! them.

mod http;
mod release;
mod report;
mod serving;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: String,
    expected: String,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: String::new(),
        expected: String::new(),
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--serve-bin" => args.serve_bin = value()?,
            "--expected" => args.expected = value()?,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run_workload(args: &Args, out: &mut Outcome) -> Result<(), String> {
    if args.workload == "release-set" {
        let plan = release::Plan::prepare(&args.expected, args.record)?;
        if args.record {
            release::record_expected(&plan);
        } else if args.trace {
            release::run_traced(&plan, out);
        } else {
            release::run_passes(&plan, args.seconds, out);
        }
        return Ok(());
    }
    let kind = match args.workload.as_str() {
        "serve-point" => serving::Kind::Point,
        "serve-batch" => serving::Kind::Batch,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if args.serve_bin.is_empty() {
        return Err("--serve-bin is required for serving workloads".to_string());
    }
    let name = args.workload.as_str();
    serving::run_serving(
        kind,
        name,
        args.seed,
        args.seconds,
        args.trace,
        &args.serve_bin,
        out,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = run_workload(&args, &mut out) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if args.record {
        return ExitCode::SUCCESS;
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        for (name, _) in PER_LAYER {
            if out.get(name).is_none() {
                out.set(name, 0.0);
            }
        }
    }
    println!(
        "checks: {} operations attempted, {} failed, {} run-level problems",
        out.attempted,
        out.failed,
        out.problems.len()
    );
    println!("{}", out.result_line(names));
    ExitCode::SUCCESS
}
