//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from here: the samples are
//! kept, sorted and ranked, never bucketed, and each summary carries its
//! sample count so a reader can tell how many samples lie beyond a p99.

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `p` percent of the samples are less than or equal to it.
/// Returns 0.0 for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Sorts samples ascending; NaNs (which no measurement produces) sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// The p50 and p99 of a sample set, with the count they were taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` exactly (sorts them in place).
    pub fn of(samples: &mut [f64]) -> Self {
        sort(samples);
        Self {
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            n: samples.len(),
        }
    }
}

/// Fewest samples a window of [`windowed`] holds, so that at least ten of
/// them lie above its p99.
pub const MIN_WINDOW_SAMPLES: usize = 1000;

/// How many windows `n` samples are cut into: as many as keep
/// [`MIN_WINDOW_SAMPLES`] in each, at least one and at most `max`.
pub fn windows_for(n: usize, max: usize) -> usize {
    (n / MIN_WINDOW_SAMPLES).clamp(1, max.max(1))
}

/// Summarizes `(time, value)` samples window by window: `[0, span)` is cut
/// into `windows` equal windows by sample time, each non-empty window is
/// summarized exactly, and the result holds the median over windows of
/// the p50s and of the p99s, with the total sample count. A disturbance
/// confined to a minority of windows does not move it.
pub fn windowed(samples: &[(u64, f64)], span: u64, windows: usize) -> Summary {
    let n = windows.max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, v) in samples {
        let w = (t as u128 * n as u128 / span.max(1) as u128) as usize;
        buckets[w.min(n - 1)].push(v);
    }
    let per: Vec<Summary> = buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| Summary::of(b))
        .collect();
    let p50s: Vec<f64> = per.iter().map(|s| s.p50).collect();
    let p99s: Vec<f64> = per.iter().map(|s| s.p99).collect();
    Summary {
        p50: median(&p50s),
        p99: median(&p99s),
        n: samples.len(),
    }
}

/// Rates per second between consecutive `(time_ns, count)` marks.
pub fn rates(marks: &[(u64, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 * 1e9 / (w[1].0 - w[0].0) as f64)
        .collect()
}

/// Least-squares slope of `(x, y)` points; 0.0 with fewer than two
/// distinct `x` values.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let small = [3.0, 7.0, 9.0];
        assert_eq!(percentile(&small, 50.0), 7.0);
        assert_eq!(percentile(&small, 99.0), 9.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn p99_resolves_changes_a_power_of_two_bucket_hides() {
        // 1000 samples: 990 at 1000 µs, the top ten at 1100 µs. A
        // power-of-two histogram reports both as its 1024/2048 ceiling;
        // the exact rank sees the 10% shift.
        let mut a: Vec<f64> = vec![1000.0; 1000];
        let mut b = a.clone();
        for x in b.iter_mut().skip(985) {
            *x = 1100.0;
        }
        let sa = Summary::of(&mut a);
        let sb = Summary::of(&mut b);
        assert_eq!(sa.p99, 1000.0);
        assert_eq!(sb.p99, 1100.0);
        assert_eq!(sb.n, 1000);
    }

    #[test]
    fn summary_is_order_independent() {
        let mut a = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(Summary::of(&mut a), Summary::of(&mut b));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn windowed_summary_takes_the_median_window() {
        // Five windows of 100 samples; one window is ten times slower.
        let mut samples = Vec::new();
        for w in 0..5u64 {
            for i in 0..100u64 {
                let v = if w == 2 {
                    10.0 * (i + 1) as f64
                } else {
                    (i + 1) as f64
                };
                samples.push((w * 1000 + i, v));
            }
        }
        let s = windowed(&samples, 5000, 5);
        assert_eq!((s.p50, s.p99, s.n), (50.0, 99.0, 500));
        let all = Summary::of(&mut samples.iter().map(|x| x.1).collect::<Vec<_>>());
        assert!(all.p99 > s.p99, "the whole-run p99 sees the slow window");
    }

    #[test]
    fn windows_keep_ten_samples_above_each_p99() {
        assert_eq!(windows_for(0, 10), 1);
        assert_eq!(windows_for(1999, 10), 1);
        assert_eq!(windows_for(8600, 10), 8);
        assert_eq!(windows_for(50_000, 10), 10);
        for n in [1000, 2500, 8600, 50_000] {
            assert!(n / windows_for(n, 10) / 100 >= 10, "{n}");
        }
    }

    #[test]
    fn rates_between_marks() {
        let marks = [
            (0, 0),
            (1_000_000_000, 100),
            (2_000_000_000, 300),
            (3_000_000_000, 450),
        ];
        assert_eq!(rates(&marks), vec![100.0, 200.0, 150.0]);
        assert_eq!(median(&rates(&marks)), 150.0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
    }
}
