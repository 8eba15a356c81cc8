//! Order statistics over raw client-side samples.
//!
//! Every percentile the benchmark reports comes from here, computed on
//! the raw samples (never from a bucketed histogram), and only when at
//! least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Percentile `q`, or the highest sample when there are too few for it
/// (0 for no samples).
pub fn pct_or_max(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q)
        .or_else(|| samples.iter().copied().reduce(f64::max))
        .unwrap_or(0.0)
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Cuts timed samples — `(completion time in seconds since the phase
/// start, value)` — into `windows` runs of consecutive completions with
/// equal counts, and returns the median over the windows of `stat`
/// applied to each window's values. Equal counts, not equal times, so
/// a phase long enough for a percentile overall is long enough in every
/// window. `None` when `stat` is `None` for any window.
pub fn windowed(
    samples: &[(f64, f64)],
    windows: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let per: Option<Vec<f64>> = chunks(samples, windows)
        .map(|c| stat(&c.iter().map(|&(_, v)| v).collect::<Vec<_>>()))
        .collect();
    per.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// Median over the same windows as [`windowed`] of the completions per
/// second, each window timed from the previous window's last completion.
pub fn windowed_rate(samples: &[(f64, f64)], windows: usize) -> f64 {
    let mut prev_end = 0.0;
    let rates: Vec<f64> = chunks(samples, windows)
        .map(|c| {
            let end = c.last().map_or(prev_end, |&(t, _)| t);
            let rate = c.len() as f64 / (end - prev_end).max(1e-9);
            prev_end = end;
            rate
        })
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

/// `samples` in completion order, cut into `windows` runs whose counts
/// differ by at most one.
fn chunks(samples: &[(f64, f64)], windows: usize) -> impl Iterator<Item = Vec<(f64, f64)>> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    let windows = windows.clamp(1, n.max(1));
    (0..windows).map(move |w| sorted[w * n / windows..(w + 1) * n / windows].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_percentile_without_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // p91 would leave 9.
        assert_eq!(percentile(&xs, 0.91), None);
        assert_eq!(percentile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 10], 0.0), None);
    }

    #[test]
    fn windowed_takes_the_median_window() {
        // Three windows of two completions; the middle one is slow.
        let samples = [
            (0.1, 1.0),
            (0.5, 1.0),
            (1.9, 9.0),
            (2.0, 9.0),
            (2.5, 2.0),
            (3.0, 2.0),
        ];
        assert_eq!(windowed(&samples, 3, |b| Some(median(b))), Some(2.0));
        // Rates 2/0.5, 2/1.5 and 2/1.0 completions per second.
        assert_eq!(windowed_rate(&samples, 3), 2.0);
        assert_eq!(windowed(&samples, 3, |b| percentile(b, 0.5)), None);
        assert_eq!(windowed(&[], 3, |b| Some(b.len() as f64)), Some(0.0));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
