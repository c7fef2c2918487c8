//! Order statistics: nearest-rank percentiles and medians of rounds.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it
/// (rank `ceil(p/100 * n)`, 1-based). 0.0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample set in place and return its nearest-rank percentile.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// Median (nearest-rank p50) of a small set of values, e.g. one
/// statistic computed per round.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    percentile(&mut v, 50.0)
}

/// Compute `stat` on each round's samples and report the median over
/// rounds, so one disturbed round cannot move the reported number.
pub fn median_of_rounds(rounds: &mut [Vec<f64>], stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter_mut()
        .filter(|r| !r.is_empty())
        .map(|r| stat(r))
        .collect();
    median(&per_round)
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quartiles (q1, q2, q3) by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses, so `--aa` reports the same
/// spread the benchmark's driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&s, 5.0), 15.0);
        assert_eq!(percentile_sorted(&s, 30.0), 20.0);
        assert_eq!(percentile_sorted(&s, 40.0), 20.0);
        assert_eq!(percentile_sorted(&s, 50.0), 35.0);
        assert_eq!(percentile_sorted(&s, 100.0), 50.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        // p99 of 10 000 samples leaves exactly 100 samples beyond it.
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&big, 99.0), 9_900.0);
    }

    #[test]
    fn percentile_sorts_first() {
        let mut s = [40.0, 15.0, 50.0, 20.0, 35.0];
        assert_eq!(percentile(&mut s, 50.0), 35.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        let mut rounds = vec![
            vec![1.0, 2.0, 3.0],
            vec![1.1, 2.1, 3.1],
            vec![100.0, 200.0, 300.0],
            vec![0.9, 1.9, 2.9],
            vec![1.0, 2.0, 3.0],
        ];
        let m = median_of_rounds(&mut rounds, |r| percentile(r, 50.0));
        assert_eq!(m, 2.0);
        // Empty rounds (a verb the workload never issued) are skipped.
        let mut sparse = vec![vec![], vec![4.0]];
        assert_eq!(median_of_rounds(&mut sparse, |r| percentile(r, 50.0)), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
