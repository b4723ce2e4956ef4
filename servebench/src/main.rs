//! `servebench`: the repository's serving benchmark.
//!
//! ```text
//! servebench --workload <scan-1m|wire-small|mutate-100k> --seed <n> \
//!            --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Drives the real `uhscm_serve::Server` in-process over loopback TCP with
//! open-loop traffic. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` gives the per-layer metrics (see `layers`).
//! Every response the oracle checks must match it bit for bit, or the run
//! exits non-zero without printing a result. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--smoke` shrinks the databases for the benchmark's own tests.
//! README.md describes the workloads and metrics.

mod e2e;
mod layers;
mod oracle;
mod setup;
mod spans;
mod spec;
mod stats;
mod traffic;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Build the workload's store into this file and exit (the set-up's
    /// child process; see `setup::build`).
    build_store: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        build_store: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            args.smoke = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        match flag {
            "--workload" => args.workload = value.clone(),
            "--build-store" => args.build_store = Some(PathBuf::from(value)),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required (one of {})", spec::NAMES.join(", ")));
    }
    Ok(args)
}

fn result_line(report: &e2e::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn workload(args: &Args) -> Result<spec::Spec, String> {
    spec::by_name(&args.workload, args.smoke).ok_or(format!(
        "unknown workload {} (one of {})",
        args.workload,
        spec::NAMES.join(", ")
    ))
}

fn run(args: &Args) -> Result<e2e::Report, String> {
    let spec = workload(args)?;
    // All files live under the current directory.
    let out_dir = PathBuf::from(".servebench");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let result = if args.trace {
        let spans_file = out_dir.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
        layers::run(&spec, args.seed, args.seconds, &work_dir, &spans_file)
    } else {
        e2e::run(&spec, args.seed, args.seconds, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = result?;
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(store_file) = &args.build_store {
        return match workload(&args).and_then(|w| setup::build_store(&w, args.seed, store_file)) {
            Ok(times) => {
                println!("{}", setup::store_times_line(&times));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("servebench --build-store: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
