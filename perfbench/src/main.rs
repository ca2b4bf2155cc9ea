//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints detail lines, then as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics, or per-layer metrics with `--trace 1`).
//! `--short` shrinks the inputs. Refuses to run as a debug build.

use perfbench::{run_workload, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(String, RunConfig), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut short) = (None, 1, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Scratch files (the ingest corpus, traces) stay inside the build
    // directory of the checkout.
    let out_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-run");
    Ok((
        workload,
        RunConfig {
            seed,
            seconds,
            trace,
            short,
            out_dir,
        },
    ))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to report a debug build; build with --release");
        return ExitCode::from(2);
    }
    let (workload, cfg) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={workload} seed={} seconds={} trace={} short={} profile=release \
         cores={cores} simd={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.short,
        pm_systolic::superplane::simd_level()
    );
    match run_workload(&workload, &cfg) {
        Ok(report) => {
            for line in &report.info {
                println!("{line}");
            }
            println!("{}", report.result_line(cfg.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
