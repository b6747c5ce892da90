//! Order statistics for timing samples.

/// Percentiles the tail rule tries, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); NaN when
/// there are no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `pct` (0–100); NaN when there are no samples.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[nearest_rank(pct, v.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value; `None` when even
/// the median has fewer than that many samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)?;
    Some((pct, percentile(xs, pct)))
}

/// Arithmetic mean; NaN when there are no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 sample beyond, p99 leaves exactly 10.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));

        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 would leave 9 beyond, so the rule falls back to p95.
        assert_eq!(tail(&xs), Some((95.0, 950.0)));

        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));

        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        assert_eq!(percentile(&xs, 50.0), 500.0);
    }
}
