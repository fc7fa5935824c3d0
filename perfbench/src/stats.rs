//! Order statistics over the benchmark's samples.
//!
//! Percentiles use the nearest-rank definition, so every reported value is a
//! sample that was actually observed.  A refused or failed request is
//! recorded as `f64::INFINITY`: it misses every latency limit and drags the
//! upper percentiles with it instead of silently disappearing.

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`): the smallest sample with at
/// least a `q` share of all samples at or below it.  `NaN` for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank 0.5-quantile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; `NaN` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// How many of `n` samples lie strictly above the nearest-rank
/// `q`-quantile.  A percentile is only reported when at least
/// [`MIN_TAIL`] samples lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// The 1-based nearest rank `⌈q·n⌉`, with the product's rounding error
/// (`0.99 · 1000 = 990.000…01`) kept from pushing it one rank up.
fn rank(n: usize, q: f64) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// The median over consecutive chunks of the per-chunk `q`-quantile;
/// `ends` holds each chunk's end index.  A stall of the machine lifts the
/// tail of the chunk it falls in, not the reported value.
pub fn chunked_quantile(values: &[f64], ends: &[usize], q: f64) -> f64 {
    let mut start = 0;
    let mut per_chunk = Vec::with_capacity(ends.len());
    for &end in ends {
        per_chunk.push(quantile(&values[start..end], q));
        start = end;
    }
    median(&per_chunk)
}

/// Fewest samples beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The smallest sample count whose `q`-quantile has [`MIN_TAIL`] samples
/// beyond it.
pub fn samples_needed(q: f64) -> usize {
    let mut n = MIN_TAIL;
    while beyond(n, q) < MIN_TAIL {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.001), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn refused_requests_dominate_the_tail() {
        let mut v = vec![1.0; 98];
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(quantile(&v, 0.98), 1.0);
        assert_eq!(quantile(&v, 0.99), f64::INFINITY);
    }

    #[test]
    fn chunked_quantiles_take_the_median_chunk() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        // One stalled chunk.
        for x in &mut v[100..110] {
            *x = 1000.0;
        }
        assert_eq!(quantile(&v, 0.98), 1000.0);
        assert_eq!(chunked_quantile(&v, &[100, 200, 300], 0.98), 97.0);
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(0, 0.99), 0);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
