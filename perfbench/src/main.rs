//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--costar-bin PATH] [--out DIR]`
//!
//! Runs one workload and prints its result as the last line of standard
//! output. `perfbench/run.sh` builds the program and this harness, then
//! runs it.

use perfbench::{run, Config, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::CliSmall,
        seed: 1,
        seconds: 10.0,
        trace: false,
        costar_bin: PathBuf::from("target/release/costar"),
        out_dir: PathBuf::from("perfbench/out"),
        sizes: Sizes::full(),
        tamper_reference: false,
        inject_churn: 0,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {value}"))?
            }
            "--seconds" => cfg.seconds = number(&value)?,
            "--trace" => cfg.trace = number(&value)? != 0.0,
            "--costar-bin" => cfg.costar_bin = PathBuf::from(value),
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            eprintln!(
                "perfbench: {} seed {}: {} operations, {} failed (error_rate {}); loop timings scaled by host factor {}, setup_s by {}",
                cfg.workload.name(),
                cfg.seed,
                report.attempted,
                report.failed,
                report.error_rate(),
                report.host_factor,
                report.setup_factor
            );
            for m in report.raw.iter().filter(|m| m.unit != "MB") {
                eprintln!("perfbench: raw {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
