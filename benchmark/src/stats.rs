//! The statistics every timing in the benchmark goes through: the
//! element-wise minimum across deterministic passes, nearest-rank
//! percentiles with the ten-samples-beyond rule, and the trajectory digest.

/// Element-wise minimum across passes: round `i` does identical work in
/// every pass of a seeded workload (the digest check proves it), so the
/// smallest time seen for round `i` is the one with the least interference.
///
/// Returns an empty series when there are no passes or their lengths differ.
pub fn min_series(passes: &[&[u64]]) -> Vec<u64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    if passes.iter().any(|p| p.len() != first.len()) {
        return Vec::new();
    }
    (0..first.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p[i])
                .min()
                .expect("at least one pass")
        })
        .collect()
}

/// Median of an unsorted series (the mean of the middle pair when even).
pub fn median(series: &[f64]) -> f64 {
    assert!(!series.is_empty(), "median of an empty series");
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail percentile a series of `n` samples supports, by nearest rank:
/// p90 when ten samples lie beyond it (`n ≥ 100`), otherwise the highest
/// percentile that still has ten samples beyond it; a series too short for
/// that to lie above the median reports its median.
///
/// Returns `(value, percentile actually used)`.
pub fn tail(series: &[f64]) -> (f64, f64) {
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let p90 = (0.9 * n as f64).ceil() as usize - 1;
    let index = p90.min(n.saturating_sub(11));
    if index <= (n - 1) / 2 {
        (median(series), 0.5)
    } else {
        (sorted[index], (index + 1) as f64 / n as f64)
    }
}

/// 1-based index of the first round whose accuracy reaches `target`, and
/// the sum of the series up to and including it.
pub fn time_to_target(series_ns: &[u64], accuracy: &[f32], target: f32) -> Option<(usize, u64)> {
    let crossing = accuracy.iter().position(|&a| a >= target)?;
    Some((crossing + 1, series_ns[..=crossing].iter().sum()))
}

/// FNV-1a over a run's trajectory: the bit patterns of every round's
/// accuracy and loss and its upload, wire and sample counts. Two passes
/// with equal digests did the same work round for round.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_series_takes_the_element_wise_minimum() {
        let passes: [&[u64]; 3] = [&[5, 9, 3], &[4, 10, 3], &[6, 8, 7]];
        assert_eq!(min_series(&passes), vec![4, 8, 3]);
        assert!(min_series(&[]).is_empty());
        assert!(min_series(&[&[1, 2][..], &[1][..]]).is_empty());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let upto = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 100 samples: p90 is the 90th, with exactly ten beyond it.
        assert_eq!(tail(&upto(100)), (90.0, 0.9));
        // 270 samples: still p90.
        assert_eq!(tail(&upto(270)), (243.0, 0.9));
        // 24 samples: the 14th is the highest with ten beyond it.
        let (value, p) = tail(&upto(24));
        assert_eq!(value, 14.0);
        assert!((p - 14.0 / 24.0).abs() < 1e-12);
        // Too few for a tail above the median: the median itself.
        assert_eq!(tail(&[7.0, 3.0]), (5.0, 0.5));
        assert_eq!(tail(&upto(12)), (6.5, 0.5));
        assert_eq!(tail(&upto(21)), (11.0, 0.5));
    }

    #[test]
    fn time_to_target_sums_through_the_crossing_round() {
        let ns = [10, 20, 30, 40];
        let acc = [0.1, 0.5, 0.9, 0.95];
        assert_eq!(time_to_target(&ns, &acc, 0.9), Some((3, 60)));
        assert_eq!(time_to_target(&ns, &acc, 0.0), Some((1, 10)));
        assert_eq!(time_to_target(&ns, &acc, 0.99), None);
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // FNV-1a of eight zero bytes.
        let mut zero = Digest::default();
        zero.push(0);
        assert_eq!(zero.finish(), 0xa8c7_f832_281a_39c5);
        let (mut ab, mut ba) = (Digest::default(), Digest::default());
        ab.push(1);
        ab.push(2);
        ba.push(2);
        ba.push(1);
        assert_ne!(ab.finish(), ba.finish());
    }
}
