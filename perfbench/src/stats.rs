//! Order statistics, bounded histograms and result digests.

/// Median, quartiles and sample count of a set of timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `samples` (which must be non-empty). Quartiles use the
/// same "exclusive" interpolation as Python's `statistics.quantiles`,
/// falling back to the extremes for fewer than two samples.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "cannot summarise zero samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quantile = |p: f64| {
        if n < 2 {
            return v[0];
        }
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Summary {
        median,
        q1: quantile(0.25),
        q3: quantile(0.75),
        n,
    }
}

/// The median of `samples` (non-empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Splits `samples` (non-empty) into `parts` consecutive parts of equal
/// size (fewer when there are fewer samples) and returns the median of
/// their means. A host that is slow for part of a run shifts a plain
/// median all at once when the slow samples become the majority; the
/// means shift in proportion, and the median of them drops a part that
/// a burst of interference spoiled.
pub fn median_of_means(samples: &[f64], parts: usize) -> f64 {
    assert!(!samples.is_empty(), "cannot summarise zero samples");
    let parts = parts.clamp(1, samples.len());
    let means: Vec<f64> = (0..parts)
        .map(|k| {
            let part = &samples[k * samples.len() / parts..(k + 1) * samples.len() / parts];
            part.iter().sum::<f64>() / part.len() as f64
        })
        .collect();
    median(&means)
}

/// Exact-value histogram of small non-negative integers (queue depths,
/// alternates tried per call): memory is bounded by the largest value
/// seen, not by the number of observations.
#[derive(Debug, Clone, Default)]
pub struct IntHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl IntHistogram {
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    pub fn merge(&mut self, other: &IntHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest value with at least a `p` share of observations at or
    /// below it (0 when empty).
    pub fn quantile(&self, p: f64) -> usize {
        let target = (p * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (value, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return value;
            }
        }
        0
    }

    /// `(value, count)` pairs with a non-zero count.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }
}

/// 64-bit FNV-1a over a stream of words: the pinned digests of
/// deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn median_of_means_drops_a_spoiled_part() {
        // Parts [1, 3], [2, 2], [100, 100]: means 2, 2, 100.
        let v = [1.0, 3.0, 2.0, 2.0, 100.0, 100.0];
        assert_eq!(median_of_means(&v, 3), 2.0);
        // More parts than samples: one sample per part.
        assert_eq!(median_of_means(&[4.0, 1.0], 5), 2.5);
        assert_eq!(median_of_means(&[7.0], 5), 7.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = IntHistogram::default();
        for v in [0, 0, 1, 1, 1, 2, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 9);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }
}
