//! Percentiles under one rule, shared by every workload.
//!
//! * Nearest rank: the q-th quantile of n ordered samples is the sample at
//!   1-based rank `ceil(q·n)` (the workspace rule,
//!   [`sched_obs::nearest_rank_index`]); it never interpolates.
//! * A percentile is reported only when at least [`MIN_TAIL`] samples lie
//!   beyond it, so a p99 needs 1,000 samples and a p50 needs 20.
//! * Steadiness: every workload repeats the same operations several times in
//!   a run (passes over an instance pool, a trace pool, or an arrival
//!   schedule). Each operation's best (smallest) time over its repeats
//!   stands for it, as in the best-of-N rows of `bench::perf`, and
//!   percentiles are taken over operations. Time taken from the program by
//!   the host (a descheduled virtual CPU, a neighbour's burst) only ever adds
//!   to a repeat, so it moves the result only when it hits every repeat of
//!   an operation.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Repeats every operation needs before its best stands for it.
pub const MIN_REPEATS: usize = 3;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let idx = sched_obs::nearest_rank_index(sorted.len(), q)?;
    (sorted.len() - 1 - idx >= MIN_TAIL).then(|| sorted[idx])
}

/// Smallest sample count at which [`percentile`] reports `q`.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| sched_obs::nearest_rank_index(n, q).is_some_and(|i| n - 1 - i >= MIN_TAIL))
        .expect("some sample count supports every q < 1")
}

/// Ascending copy of `values` (`f64` total order).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of a handful of repeated measurements of one
/// quantity (set-up repeats, repeats of one operation). It is not a tail
/// claim, so [`MIN_TAIL`] does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    sched_obs::nearest_rank_index(s.len(), 0.5).map(|i| s[i])
}

/// Arithmetic mean, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The best (smallest) of each operation's repeated measurements, for
/// operations measured at least once.
pub fn per_op_best(repeats: &[Vec<f64>]) -> Vec<f64> {
    repeats
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| r.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Fewest repeats any operation got.
pub fn min_repeats(repeats: &[Vec<f64>]) -> usize {
    repeats.iter().map(Vec::len).min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_never_interpolates() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        let s = ramp(21);
        // rank ceil(10.5) = 11: an observed sample, not 10.5 or 11.5
        assert_eq!(percentile(&s, 0.5), Some(11.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        assert!(percentile(&ramp(999), 0.99).is_none());
        assert!(percentile(&ramp(1000), 0.99).is_some());
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn per_op_best_filters_disturbed_repeats() {
        // operation 0 was hit twice by an outside stall; its best was not
        let repeats = vec![vec![900.0, 10.0, 700.0], vec![20.0, 21.0, 19.0], vec![]];
        assert_eq!(per_op_best(&repeats), [10.0, 19.0]);
        assert_eq!(min_repeats(&repeats), 0);
        assert_eq!(min_repeats(&repeats[..2]), 3);
    }

    #[test]
    fn median_of_repeats_is_an_observed_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }
}
