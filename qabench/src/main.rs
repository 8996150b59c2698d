//! `qabench` — end-to-end and per-layer benchmark of the relpat system.
//!
//! ```text
//! qabench --workload <qald_paper|templated_100k|sparql_1m|serve_http>
//!         --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>]
//! ```
//!
//! Runs one workload, checks its outputs, and prints a human-readable
//! report, a provenance line and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer split,
//! measured from spans around calls into each crate's public API. Exits 1
//! when an output check fails, 2 on a usage error.

mod alloc;
mod gen;
mod inproc;
mod openloop;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

pub const WORKLOADS: &[&str] = &["qald_paper", "templated_100k", "sparql_1m", "serve_http"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload == "serve_http" && args.serve_bin.is_none() {
        return Err("serve_http needs --serve-bin <path to relpat-serve>".into());
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qabench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = report::Outcome::default();
    out.provenance("workload", format!("\"{}\"", args.workload));
    out.provenance("seed", args.seed.to_string());
    out.provenance("seconds", args.seconds.to_string());
    match args.workload.as_str() {
        "qald_paper" | "templated_100k" => inproc::run_questions(&args, &mut out),
        "sparql_1m" => inproc::run_store(&args, &mut out),
        _ => serve::run_serve(&args, &mut out),
    }
    if args.workload != "serve_http" {
        out.set("peak_rss_mb", report::peak_rss_mb("self").unwrap_or(0.0));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    out.provenance("nproc", nproc.to_string());
    // The commit is known only when run from a git checkout.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    out.provenance("git_commit", format!("\"{commit}\""));
    out.provenance(
        "rustc",
        format!("\"{}\"", command_line("rustc", &["--version"])),
    );
    print!("{}", out.render(&args.workload, args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
