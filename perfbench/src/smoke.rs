//! `--smoke`: every workload at a twentieth of its size, untraced and
//! traced, in a few seconds — the check that the benchmark still runs,
//! is correct, and prints what `BENCHMARK.json` promises.

use crate::harness::{RunConfig, RunResult};
use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::workload::Scale;
use crate::workloads;
use crate::workloads::NAMES;

/// Wall seconds of passes per smoke run.
const SECONDS: f64 = 0.2;

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(benchmark: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    benchmark
        .get(list)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {list}"))?
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a {list} entry lacks a name or a unit"))
        })
        .collect()
}

fn check(result: &RunResult, declared: &[(String, String)], limit: usize) -> Result<(), String> {
    let name = result.workload;
    if !result.correct {
        return Err(format!("{name}: not correct: {:?}", result.problems));
    }
    if result.failed != 0 || result.attempted == 0 {
        return Err(format!(
            "{name}: {} of {} calls failed",
            result.failed, result.attempted
        ));
    }
    if result.metrics.len() > limit {
        return Err(format!(
            "{name}: {} metrics, at most {limit}",
            result.metrics.len()
        ));
    }
    if let Some((bad, _, _)) = result.metrics.iter().find(|(n, _, _)| !well_formed(n)) {
        return Err(format!(
            "{name}: metric name {bad:?} is outside the charset"
        ));
    }
    let printed: Vec<(String, String)> = result
        .metrics
        .iter()
        .map(|&(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    if printed != declared {
        return Err(format!(
            "{name}: printed metrics differ from BENCHMARK.json: {:?}",
            declared
                .iter()
                .filter(|d| !printed.contains(d))
                .chain(printed.iter().filter(|p| !declared.contains(p)))
                .collect::<Vec<_>>()
        ));
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let benchmark = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = declared(&benchmark, "end_to_end")?;
    let per_layer = declared(&benchmark, "per_layer")?;
    let bounds: Vec<f64> = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .collect();
    if bounds != END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>() {
        return Err("the bounds of BENCHMARK.json differ from the benchmark's table".into());
    }
    let named: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if named != NAMES {
        return Err(format!("BENCHMARK.json names the workloads {named:?}"));
    }
    let started = std::time::Instant::now();
    for name in NAMES {
        for (traced, declared, limit) in [(false, &end_to_end, 16), (true, &per_layer, 128)] {
            let cfg = RunConfig {
                seed: 1,
                seconds: SECONDS,
                scale: Scale::SMOKE,
                traced,
            };
            let result = workloads::run(name, &cfg).expect("the table names real workloads");
            check(&result, declared, limit)?;
            println!(
                "smoke {name:<14} trace {} ok: {} passes, {} calls, {} metrics",
                u8::from(traced),
                result.passes,
                result.attempted,
                result.metrics.len()
            );
        }
    }
    println!("smoke ok in {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}
