//! Order statistics for the reported timings.

/// The percentiles a tail may be reported at. A tail is the highest of
/// these with at least [`TAIL_BEYOND`] samples above it; the ladder's
/// steps are a factor of ten apart in sample count, so a run whose
/// sample count moves by tens of percent keeps the same percentile.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: f64 = 10.0;

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
/// Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A tail: the highest ladder percentile with at least ten samples beyond
/// it, its value, and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

/// The tail of `values` by the [`TAIL_LADDER`] rule. With fewer than 20
/// samples no percentile has ten beyond it; the median is reported then.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: quantile(values, pct / 100.0),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 90.0, "p99 of 150 has only 1.5 beyond");
        assert_eq!(t.n, 150);
        assert_eq!(t.value, 135.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.0);
        assert_eq!(tail(&v[..15]).pct, 50.0);
    }
}
