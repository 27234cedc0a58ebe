//! Order statistics for the benchmark's samples, and the pair rule a
//! performance claim is judged by.

/// Fewest samples a p95 may be reported from: at least ten samples must
/// lie beyond the 95th percentile, so `0.05 · n ≥ 10`.
pub const P95_MIN_SAMPLES: usize = 200;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile, interpolated exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method) computes them. One sample gives that sample three times; none
/// gives `NaN`.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: with two samples the outer quartiles extrapolate.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// 95th percentile by nearest rank, or `None` when fewer than
/// [`P95_MIN_SAMPLES`] samples leave too few beyond it to mean anything.
#[must_use]
pub fn p95(values: &[f64]) -> Option<f64> {
    if values.len() < P95_MIN_SAMPLES {
        return None;
    }
    let data = sorted(values);
    let rank = (values.len() * 95).div_ceil(100);
    data.get(rank - 1).copied()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values win (times, memory, cost).
    Lower,
    /// Larger values win (throughput, met fraction).
    Higher,
}

/// Outcome of [`pair_rule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVerdict {
    /// Pairs the change won outright (ties count for neither side).
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Change median minus parent median.
    pub median_gap: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    /// `true` when the change may claim a gain.
    pub gain: bool,
}

/// The rule a performance claim must pass: over at least ten alternating
/// parent/change pairs (`parent[i]` and `change[i]` ran back to back), the
/// change wins at least nine tenths of the pairs and its median beats the
/// parent's by more than the parent's own interquartile range.
///
/// # Panics
///
/// Panics when the two sides have different lengths: the values must be
/// paired run for run.
#[must_use]
pub fn pair_rule(parent: &[f64], change: &[f64], better: Better) -> PairVerdict {
    assert_eq!(
        parent.len(),
        change.len(),
        "pair rule needs one change run per parent run"
    );
    let improves = |from: f64, to: f64| match better {
        Better::Lower => to < from,
        Better::Higher => to > from,
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| improves(**p, **c))
        .count();
    let pairs = parent.len();
    let [q1, parent_median, q3] = quartiles(parent);
    let change_median = median(change);
    let parent_iqr = q3 - q1;
    let gain = pairs >= 10
        && wins * 10 >= pairs * 9
        && improves(parent_median, change_median)
        && (change_median - parent_median).abs() > parent_iqr;
    PairVerdict {
        wins,
        pairs,
        median_gap: change_median - parent_median,
        parent_iqr,
        gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_refuses_short_samples() {
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(p95(&short), None);
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest rank ⌈0.95·200⌉ = 190: ten samples (191..=200) beyond it.
        assert_eq!(p95(&enough), Some(190.0));
        let reversed: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        assert_eq!(p95(&reversed), Some(380.0));
    }

    #[test]
    fn pair_rule_accepts_a_clear_win() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        let v = pair_rule(&parent, &change, Better::Lower);
        assert_eq!((v.wins, v.pairs), (10, 10));
        assert!(v.gain);
        assert_eq!(v.median_gap, -20.0);
    }

    #[test]
    fn pair_rule_needs_nine_tenths_of_the_pairs() {
        let parent = vec![100.0; 10];
        let mut change = vec![50.0; 10];
        change[0] = 150.0;
        change[1] = 150.0;
        let v = pair_rule(&parent, &change, Better::Lower);
        assert_eq!(v.wins, 8);
        assert!(!v.gain);
        // Ties count for neither side.
        let mut tied = vec![50.0; 10];
        tied[3] = 100.0;
        assert_eq!(pair_rule(&parent, &tied, Better::Lower).wins, 9);
        assert!(pair_rule(&parent, &tied, Better::Lower).gain);
    }

    #[test]
    fn pair_rule_needs_a_gap_beyond_the_parent_spread() {
        // Every pair won, but by less than the parent's own IQR.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let v = pair_rule(&parent, &change, Better::Lower);
        assert_eq!(v.wins, 10);
        assert!(v.parent_iqr > 1.0);
        assert!(!v.gain);
    }

    #[test]
    fn pair_rule_respects_direction_and_pair_count() {
        let parent = vec![1.0; 10];
        let change = vec![2.0; 10];
        assert!(pair_rule(&parent, &change, Better::Higher).gain);
        assert!(!pair_rule(&parent, &change, Better::Lower).gain);
        // Nine pairs are too few to claim anything.
        assert!(!pair_rule(&parent[..9], &change[..9], Better::Higher).gain);
    }
}
