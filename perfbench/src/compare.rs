//! `--compare <a> <b>`: two sets of runs, metric by metric.
//!
//! A set is a file of concatenated run outputs (`benchmark … >> a.txt`):
//! every `{"run": …}` line followed by its result line. `a` is the
//! base. Each workload × end-to-end metric gets one row with both
//! medians, their ratio, the bound and a verdict:
//!
//! - `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! - `unresolved` — it is not, but a set's own spread (quartile
//!   distance over median) is wider than the bound, so "no change"
//!   cannot be told from "changed", unless every run of `b` reads
//!   better than every run of `a`;
//! - `ok` — otherwise.
//!
//! Per-layer metrics have no bound: their rows carry no verdict.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::NAMES;

/// Values of one set, by (workload, metric).
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    let mut workload = None;
    for line in text.lines() {
        if line.starts_with("{\"run\"") {
            let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            workload = run
                .get("run")
                .and_then(|r| r.get("workload"))
                .and_then(Json::as_str)
                .map(str::to_string);
        } else if line.starts_with("{\"correct\"") {
            let result = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let workload = workload
                .take()
                .ok_or_else(|| format!("{path}: a result line without its run line"))?;
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{path}: a run of {workload} is not correct"));
            }
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("{path}: a result line without metrics"))?;
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: {name} has no value"))?;
                set.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{path}: no runs found"));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The verdict on one metric: `a` is the base, `bound` the share of
/// its median by which `b`'s median may be worse.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base, change) = (stats::median(a), stats::median(b));
    let worse_by = if lower_is_better {
        (change - base) / base.abs()
    } else {
        (base - change) / base.abs()
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let spread = |v: &[f64]| if v.len() < 2 { 0.0 } else { stats::spread(v) };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub fn run(a: &str, b: &str) -> Result<(), String> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    println!(
        "{:<14} {:<34} {:>13} {:>13} {:>9} {:>6}  verdict   (base = {a})",
        "workload", "metric", "median a", "median b", "b/a", "bound"
    );
    let mut worse = 0;
    for workload in NAMES {
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, Some((m.better == "lower", m.bound))))
            .chain(PER_LAYER.iter().map(|m| (m.0, None)));
        for (name, judged) in rows {
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (set_a.get(&key), set_b.get(&key)) else {
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let (bound, word) = match judged {
                Some((lower, bound)) => {
                    let v = verdict(va, vb, lower, bound);
                    worse += usize::from(v == Verdict::Worse);
                    (format!("{bound:.2}"), format!("{v:?}").to_lowercase())
                }
                None => ("-".into(), "-".into()),
            };
            println!(
                "{workload:<14} {name:<34} {ma:>13.6e} {mb:>13.6e} {:>9.4} {bound:>6}  {word:<10} n={}/{}",
                mb / ma,
                va.len(),
                vb.len()
            );
        }
    }
    if worse > 0 {
        return Err(format!("{worse} metrics are worse in {b} than in {a}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: 3 % worse inside a 10 % bound.
        let slower = steady.map(|v| v * 1.03);
        assert_eq!(verdict(&steady, &slower, true, 0.10), Verdict::Ok);
        // 20 % worse.
        let slow = steady.map(|v| v * 1.2);
        assert_eq!(verdict(&steady, &slow, true, 0.10), Verdict::Worse);
        // Higher is better: a 20 % drop is worse, a 20 % rise is not.
        assert_eq!(verdict(&slow, &steady, false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&steady, &slow, false, 0.10), Verdict::Ok);
        // A noisy set cannot show "no change" …
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &steady, true, 0.10), Verdict::Unresolved);
        // … but it can show a win, when every run of b beats every run of a.
        let fast = steady.map(|v| v * 0.5);
        assert_eq!(verdict(&noisy, &fast, true, 0.10), Verdict::Ok);
        // Exact metrics: identical sets are ok at any bound.
        assert_eq!(verdict(&[7.0, 7.0], &[7.0, 7.0], true, 0.01), Verdict::Ok);
    }
}
