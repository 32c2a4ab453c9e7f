//! The repository's benchmark: four workloads driven through the
//! public `qucp` APIs from outside, timed by the quiet-pass estimate,
//! with exact cost counters and a traced per-layer run. See
//! `README.md` beside this crate for why each workload exists and how
//! to read the numbers.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --smoke
//! benchmark --compare <a> <b>
//! ```
//!
//! A run prints a table for people, then one line describing the run,
//! then — last — the result object the contract asks for.

mod alloc;
mod compare;
mod harness;
mod host;
mod json;
mod metrics;
mod probes;
mod smoke;
mod stats;
mod trace;
mod workload;
mod workloads;

use std::process::ExitCode;

use harness::{RunConfig, RunResult};
use json::Json;
use workload::Scale;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The commit of the checkout, if the checkout is a git repository.
fn rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".into(),
        commit => commit.chars().take(12).collect(),
    }
}

/// The host as the run found it and the CPU it confined itself to.
#[derive(Debug, Clone, Copy)]
struct Host {
    threads: usize,
    pinned_cpu: Option<usize>,
}

/// The line that says which run the result line after it belongs to.
fn run_line(result: &RunResult, cfg: &RunConfig, host: Host) -> Json {
    Json::obj([(
        "run",
        Json::obj([
            ("workload", Json::Str(result.workload.into())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(cfg.traced)))),
            ("seconds", Json::Num(cfg.seconds)),
            ("passes", Json::Num(result.passes as f64)),
            ("host_threads", Json::Num(host.threads as f64)),
            (
                "pinned_cpu",
                host.pinned_cpu
                    .map_or(Json::Null, |cpu| Json::Num(cpu as f64)),
            ),
            ("rev", Json::Str(rev())),
        ]),
    )])
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "metrics",
            Json::obj(result.metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ])
}

/// Runs one workload and prints its three parts.
fn run(name: &str, cfg: &RunConfig, host: Host) -> Result<(), String> {
    let result = workloads::run(name, cfg).ok_or_else(|| {
        format!(
            "no workload is called {name}; there are {:?}",
            workloads::NAMES
        )
    })?;
    if cfg.traced {
        let path = host::out_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::to_json(&result.spans).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
    }
    print!("{}", result.table);
    for problem in &result.problems {
        println!("PROBLEM: {problem}");
    }
    println!("{}", run_line(&result, cfg, host).render());
    println!("{}", result_line(&result).render());
    Ok(())
}

/// The value after `flag`, parsed.
fn value_of<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let at = args
        .iter()
        .position(|a| a == flag)
        .ok_or_else(|| format!("{flag} is missing"))?;
    args.get(at + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn dispatch(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => compare::run(a, b),
            _ => Err("--compare needs two result files".into()),
        };
    }
    // Everything below measures: one CPU, before any thread exists.
    let host = Host {
        threads: host::host_threads(),
        pinned_cpu: host::pin_to_one_cpu(),
    };
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke::run(),
        _ => {
            let name: String = value_of(args, "--workload")?;
            let seconds: f64 = value_of(args, "--seconds")?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err("--seconds must be positive".into());
            }
            let cfg = RunConfig {
                seed: value_of(args, "--seed")?,
                seconds,
                scale: Scale::FULL,
                traced: match value_of::<u8>(args, "--trace")? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace is 0 or 1".into()),
                },
            };
            run(&name, &cfg, host)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
