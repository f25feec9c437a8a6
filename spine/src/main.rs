//! `spine` — the repo's benchmark. Five training workloads on the real
//! runtime, a microbench ladder over every layer below the step, and a
//! traced pass, all measured from outside the crates. See `README.md`.
//!
//! ```text
//! spine --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's contract)
//! spine set [--seed n] [--runs r] [--seconds s] [--workload w] [--out file]
//! spine ladder [--workload w] [--seed n]
//! spine compare <a.tsv> <b.tsv>
//! spine manifest                                                     prints BENCHMARK.json
//! ```

mod compare;
mod des;
mod ladder;
mod link;
mod run;
mod spans;
mod spec;
mod stats;
mod worker;
mod world;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use compare::Sample;
use spec::Workload;

/// Value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn workload_arg(args: &[String]) -> Result<Option<&'static Workload>, String> {
    flag(args, "--workload")
        .map(|n| spec::workload(n).ok_or_else(|| format!("unknown workload {n}")))
        .transpose()
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a result depends on, recorded with every run.
fn environment() -> String {
    format!(
        "nproc={} kernel={} rustc=\"{}\" git={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        dear_collectives::simd::active_kernel(),
        tool_version("rustc", &["--version"]),
        tool_version("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn one_run(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> Result<run::Outcome, String> {
    println!(
        "spine workload={} seed={seed} seconds={seconds} trace={} world={} model={} batch={} {}",
        w.name,
        u8::from(traced),
        w.world(),
        w.model.name(),
        w.batch,
        environment()
    );
    if traced {
        run::per_layer(w, seed, seconds, scratch)
    } else {
        run::end_to_end(w, seed, seconds, scratch)
    }
}

fn samples_of(w: &Workload, seed: u64, traced: bool, out: &run::Outcome) -> Vec<Sample> {
    let sample = |metric: &str, value: f64, unit: &str| Sample {
        workload: w.name.to_string(),
        seed,
        traced,
        metric: metric.to_string(),
        value,
        unit: unit.to_string(),
    };
    let mut v: Vec<Sample> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| sample(name, *value, unit))
        .collect();
    v.push(sample("attempted", out.attempted as f64, "count"));
    v.push(sample("failed", out.failed as f64, "count"));
    v
}

/// `spine set`: every workload `--runs` times untraced (seeds `seed`,
/// `seed+1`, …) and once traced, appended to a set file as they finish.
fn set(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    let runs: u64 = parsed(args, "--runs", 1)?;
    let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let only = workload_arg(args)?;
    let out_path = flag(args, "--out").map(PathBuf::from);
    let scratch = world::Scratch::create()?;
    let mut text = format!(
        "# spine set seed={seed} runs={runs} seconds={seconds} {}\n",
        environment()
    );
    let mut all_correct = true;
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        let passes = (0..runs).map(|i| (seed + i, false)).chain([(seed, true)]);
        for (seed, traced) in passes {
            let outcome = one_run(w, seed, seconds, traced, &scratch.0)?;
            println!("{}", outcome.to_json_line());
            all_correct &= outcome.correct;
            for s in samples_of(w, seed, traced, &outcome) {
                text.push_str(&s.to_line());
                text.push('\n');
            }
            if let Some(path) = &out_path {
                std::fs::write(path, &text)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
    }
    Ok(all_correct)
}

fn read_set(path: &str) -> Result<Vec<Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    compare::parse_set(&text)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("--worker") => {
            let out = flag(args, "--out").ok_or("worker: --out is missing")?;
            worker::worker_main(args, Path::new(out)).map(|()| true)
        }
        Some("manifest") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("compare") => {
            let (a, b) = match args {
                [_, a, b] => (read_set(a)?, read_set(b)?),
                _ => return Err("usage: spine compare <a.tsv> <b.tsv>".to_string()),
            };
            let (report, pass) = compare::compare(&a, &b);
            print!("{report}");
            Ok(pass)
        }
        Some("ladder") => {
            let w = workload_arg(args)?.unwrap_or(&spec::WORKLOADS[0]);
            println!("spine ladder workload={} {}", w.name, environment());
            run::ladder_only(w, parsed(args, "--seed", 1)?).map(|()| true)
        }
        Some("set") => set(args),
        _ => {
            let w = workload_arg(args)?.ok_or("--workload <name> is required (see README.md)")?;
            let seed = parsed(args, "--seed", 1)?;
            let seconds: f64 = parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
            let traced = parsed::<u8>(args, "--trace", 0)? == 1;
            let scratch = world::Scratch::create()?;
            let outcome = one_run(w, seed, seconds, traced, &scratch.0)?;
            println!("{}", outcome.to_json_line());
            Ok(outcome.correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
