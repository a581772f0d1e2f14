//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds`, checks its outputs, and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A traced run also writes its per-layer table
//! to `out/trace-<workload>.{json,md}` under the package directory.

use hostbench::metrics::{self, END_TO_END, PER_LAYER};
use hostbench::runner::{measure, Measurement, Traced};
use hostbench::workloads::noc_alexnet::NocAlexnet;
use hostbench::workloads::pipeline_train::PipelineTrain;
use hostbench::workloads::serve_fault::ServeFault;
use hostbench::workloads::Error;
use std::path::Path;
use std::process::ExitCode;

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
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Measurement, Error> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "pipeline-train" => measure(&PipelineTrain, seed, seconds, trace),
        "noc-alexnet" => measure(&NocAlexnet, seed, seconds, trace),
        "serve-fault" => measure(&ServeFault, seed, seconds, trace),
        other => Err(format!("unknown workload {other}").into()),
    }
}

fn write_table(workload: &str, traced: &Traced) -> Result<(), Error> {
    let markdown = traced.table.markdown(workload);
    println!("{markdown}");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("trace-{workload}.md")), markdown)?;
    std::fs::write(dir.join(format!("trace-{workload}.json")), traced.table.json(workload))?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args).and_then(|m| {
        for failure in &m.failures {
            eprintln!("hostbench: check failed: {failure}");
        }
        let line = if let Some(traced) = &m.trace {
            write_table(&args.workload, traced)?;
            let values = metrics::per_layer(&m, traced, metrics::gemm_peaks());
            metrics::result_line(&m, &PER_LAYER, &values)
        } else {
            let values = metrics::end_to_end(&m, metrics::peak_rss_mb()?);
            metrics::result_line(&m, &END_TO_END, &values)
        };
        Ok(line)
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
