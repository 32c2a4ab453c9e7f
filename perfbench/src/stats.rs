//! The estimators: which passes count as quiet, which percentile a
//! pass may report, and the order statistics of the human-readable
//! table and of `--compare`.

/// Share of the passes kept by the quiet-pass estimate.
const QUIET_SHARE: usize = 5;

/// Fewest passes the quiet-pass estimate averages over.
const QUIET_MIN: usize = 6;

/// Samples of one pass that must lie beyond a reported percentile. Ten
/// would do on a host of one's own. On a shared one a single stolen
/// time slice of 5 ms lands on ten 1 ms jobs of a pass, and a
/// percentile with ten samples beyond it then reports the neighbours:
/// `daemon_loop`'s in-pass p99 (12 beyond) spread 12–18 % over runs of
/// the same code where its p90 (120 beyond) spread 5 %.
const TAIL_SAMPLES: usize = 100;

/// Indices of the quiet passes: the fastest fifth by pass wall time,
/// never fewer than [`QUIET_MIN`] (or all of them), in ascending wall
/// order. Outside interference on a shared host only ever adds time
/// and lasts for seconds, so the fastest passes estimate the code's
/// cost while the median estimates the neighbours. Every timed metric
/// is averaged over these same passes.
pub fn quiet_passes(wall_ns: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..wall_ns.len()).collect();
    order.sort_by_key(|&i| (wall_ns[i], i));
    let keep = wall_ns
        .len()
        .div_ceil(QUIET_SHARE)
        .max(QUIET_MIN)
        .min(wall_ns.len());
    order.truncate(keep);
    order
}

/// Mean of `values` over the passes `quiet` names.
pub fn quiet_mean(values: &[f64], quiet: &[usize]) -> f64 {
    quiet.iter().map(|&i| values[i]).sum::<f64>() / quiet.len() as f64
}

/// Nearest rank (1-based) of the `pct`-th percentile among `samples`.
fn rank(samples: usize, pct: usize) -> usize {
    (samples * pct).div_ceil(100).clamp(1, samples)
}

/// Nearest-rank percentile of a non-empty ascending slice.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest of p99 / p90 / p50 that leaves at least
/// [`TAIL_SAMPLES`] samples of one pass beyond it: p99 needs 10 000
/// samples, p90 needs 1 000.
pub fn tail_percentile(samples: usize) -> usize {
    [99, 90]
        .into_iter()
        .find(|&pct| samples > 0 && samples - rank(samples, pct) >= TAIL_SAMPLES)
        .unwrap_or(50)
}

/// Median of `values` (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the acceptance check of the benchmark uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_passes_keep_the_fastest_fifth() {
        // 40 passes, wall = 1000 - i: the fastest are the last ones.
        let wall: Vec<u64> = (0..40).map(|i| 1000 - i).collect();
        let quiet = quiet_passes(&wall);
        assert_eq!(quiet, (32..40).rev().collect::<Vec<_>>());
    }

    #[test]
    fn quiet_passes_never_drop_below_six() {
        let wall: Vec<u64> = vec![9, 3, 7, 1, 8, 2, 6, 4, 5, 10];
        assert_eq!(quiet_passes(&wall), vec![3, 5, 1, 7, 8, 6]);
        // Fewer than six passes: all of them, fastest first.
        assert_eq!(quiet_passes(&[5, 4, 6]), vec![1, 0, 2]);
    }

    #[test]
    fn quiet_mean_uses_the_same_passes_for_every_metric() {
        let wall = [50, 10, 40, 20, 30, 60, 70];
        let quiet = quiet_passes(&wall);
        assert_eq!(quiet.len(), 6);
        let other = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 700.0];
        // Pass 6 is the slowest and the only one left out.
        assert_eq!(quiet_mean(&other, &quiet), 21.0 / 6.0);
    }

    #[test]
    fn no_percentile_with_under_a_hundred_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99);
        assert_eq!(tail_percentile(10_000), 99);
        assert_eq!(tail_percentile(9_999), 90);
        assert_eq!(tail_percentile(1_000), 90);
        assert_eq!(tail_percentile(999), 50);
        assert_eq!(tail_percentile(33), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50), 500);
        assert_eq!(percentile(&sorted, 99), 990);
        assert_eq!(percentile(&sorted, 100), 1000);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), 1.0);
    }
}
