//! Order statistics over `f64` samples.

/// Nearest-rank percentile of an ascending slice (the convention of
/// `cpq_obs::Percentiles`): the sample at rank `ceil(p/100 * n)`.
/// `None` for an empty slice, so a zero-sample percentile reaches the
/// JSON writer as `null` and never as `NaN`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts `samples` ascending (total order, so a stray NaN cannot panic).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut x = samples.to_vec();
    sort(&mut x);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Share of a run's cycles that [`quietest`] keeps.
pub const QUIET_SHARE: f64 = 0.25;

/// The quietest cycles of a run: the [`QUIET_SHARE`] of `cycles` (each one
/// pass over the same fixed work) with the smallest `total_time`, at least
/// one.
///
/// The sandbox's neighbours slow whole seconds of a run by up to half, and
/// the slow phases come and go over minutes, so a statistic over all ops
/// of a 20 s run moves by 15-20% between runs of the same code. Every
/// cycle does identical work, which makes its total time a measure of how
/// disturbed it was; statistics over the least disturbed quarter repeat to
/// a few percent. What a cycle holds (every query class, a checkpoint
/// interval) is kept whole, so the spikes the system itself causes stay in.
pub fn quietest<T>(mut cycles: Vec<T>, total_time: impl Fn(&T) -> f64) -> Vec<T> {
    cycles.sort_by(|a, b| total_time(a).total_cmp(&total_time(b)));
    let keep = ((cycles.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    cycles.truncate(keep);
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_empty() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&[], 95.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quietest_keeps_the_fastest_quarter_whole() {
        let cycles: Vec<Vec<f64>> = (1..=8).rev().map(|i| vec![f64::from(i), 1.0]).collect();
        let total = |c: &Vec<f64>| c.iter().sum::<f64>();
        assert_eq!(
            quietest(cycles, total),
            vec![vec![1.0, 1.0], vec![2.0, 1.0]]
        );
        assert_eq!(quietest(vec![vec![5.0]], total), vec![vec![5.0]]);
        assert!(quietest(Vec::new(), total).is_empty());
    }
}
