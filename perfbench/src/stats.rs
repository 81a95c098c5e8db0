//! Order statistics for the reported figures.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest last (integers, so rank arithmetic is exact).
pub const TAIL_LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a latency distribution: the highest percentile of
/// [`TAIL_LADDER`] that still has at least [`TAIL_MIN_BEYOND`] samples
/// strictly beyond its nearest-rank position, with its value. `None`
/// when even the median has fewer than that many samples beyond it.
///
/// Reporting on a fixed ladder (rather than at `n - 10`) keeps the
/// percentile — and so the meaning of the figure — the same between
/// runs whose sample counts differ a little.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().rev().find_map(|&tenths| {
        let rank = nearest_rank(tenths, n)?;
        (n - rank >= TAIL_MIN_BEYOND).then(|| (tenths as f64 / 10.0, s[rank - 1]))
    })
}

/// 1-based nearest-rank position of the percentile `tenths / 10` among
/// `n` samples.
fn nearest_rank(tenths: u64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (tenths * n as u64).div_ceil(1000) as usize;
    Some(rank.clamp(1, n))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1..=n: the value at a nearest-rank percentile is the rank.
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 20 samples: p50 (rank 10) has 10 beyond, p75 (rank 15) only 5.
        assert_eq!(tail(&xs(20)), Some((50.0, 10.0)));
        // 19 samples: p50 is rank 10 with 9 beyond — no tail at all.
        assert_eq!(tail(&xs(19)), None);
        // 100 samples: p90 (rank 90) has exactly 10 beyond; p95 has 5.
        assert_eq!(tail(&xs(100)), Some((90.0, 90.0)));
        // 99 samples: p90 is rank 90 with 9 beyond, so p75 wins.
        assert_eq!(tail(&xs(99)), Some((75.0, 75.0)));
        // 1000 samples: p99 (rank 990) has 10 beyond.
        assert_eq!(tail(&xs(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 (rank 9990) has 10 beyond.
        assert_eq!(tail(&xs(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
    }
}
