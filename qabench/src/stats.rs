//! Order statistics over raw samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. Returns 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sub-buckets per power of two: values are kept to within 1/1024.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations in fixed memory, so a long
/// run's own bookkeeping does not grow the process being measured. Values
/// below 1024 ns are exact; larger ones keep their top 11 significant bits.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let shift = exp - SUB_BITS;
        (((shift + 1) as u64) << SUB_BITS | ((ns >> shift) & (SUB - 1))) as usize
    }

    /// Midpoint of the values that map to bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) - 1;
        let low = (SUB | (i & (SUB - 1))) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in ns (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank never exceeds the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_match_exact_ones_within_resolution() {
        let mut h = Histogram::default();
        let values: Vec<u64> = (1..=5000u64).map(|i| i * i * 37 % 10_000_000 + i).collect();
        for &v in &values {
            h.record(v);
        }
        let exact = sorted(&values.iter().map(|&v| v as f64).collect::<Vec<_>>());
        assert_eq!(h.len(), 5000);
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            let (e, got) = (percentile(&exact, p), h.percentile(p));
            assert!((got - e).abs() <= e / 1024.0 + 0.5, "p{p}: {got} vs {e}");
        }
        let mut small = Histogram::default();
        for v in [5, 1, 3, 1000] {
            small.record(v);
        }
        assert_eq!(small.percentile(50.0), 3.0);
        assert_eq!(small.percentile(100.0), 1000.0);
        assert_eq!(Histogram::default().percentile(50.0), 0.0);
        let mut big = Histogram::default();
        big.record(u64::MAX);
        assert!(big.percentile(50.0) > 1.8e19);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 76.0), 4.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 1..=100: p99 is the 99th sample, p90 the 90th.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
