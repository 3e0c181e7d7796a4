//! Exact order statistics over raw samples. Latencies are kept as plain
//! nanosecond vectors and reduced here; nothing goes through a bucketed
//! histogram, so a percentile is always a value that was actually measured.

/// Nearest-rank percentile (`0 < q <= 1`) of unsorted samples; `None` when
/// there are none. Sorts in place.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The tail percentile a sample of `n` supports: the highest of
/// p99 / p95 / p90 that still has ten samples beyond it, else the upper
/// quartile (which below forty samples has fewer than ten beyond it; the
/// report line prints the label and n so that is visible).
pub fn tail_quantile(n: usize) -> (f64, &'static str) {
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")] {
        if n as f64 * (1.0 - q) >= 10.0 - 1e-9 {
            return (q, label);
        }
    }
    (0.75, "p75")
}

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// method: q = 0 is the minimum, q = 1 the maximum).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and count of one value per segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty input.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            median: quantile_sorted(&sorted, 0.5),
            p25: quantile_sorted(&sorted, 0.25),
            p75: quantile_sorted(&sorted, 0.75),
            n: sorted.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // A value between log2 bucket edges survives untouched.
        let mut odd = vec![16_500, 16_501, 70_000];
        assert_eq!(percentile(&mut odd, 0.5), Some(16_501));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(100_000).1, "p99");
        assert_eq!(tail_quantile(1000).1, "p99");
        assert_eq!(tail_quantile(999).1, "p95");
        assert_eq!(tail_quantile(200).1, "p95");
        assert_eq!(tail_quantile(199).1, "p90");
        assert_eq!(tail_quantile(100).1, "p90");
        assert_eq!(tail_quantile(99).1, "p75");
        assert_eq!(tail_quantile(7), (0.75, "p75"));
    }

    #[test]
    fn summary_median_and_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p25, 1.75);
        assert_eq!(s.p75, 3.25);
        assert_eq!(s.n, 4);
        let one = Summary::of(&[9.0]).unwrap();
        assert_eq!((one.median, one.p25, one.p75, one.n), (9.0, 9.0, 9.0, 1));
        assert!(Summary::of(&[]).is_none());
    }
}
