//! A log-linear histogram of nanosecond durations.
//!
//! The benchmark keeps its own instrument instead of the program's
//! `LatencyHistogram`, so a change to the program under test cannot change
//! how the benchmark measures it.  Values below 256 are exact; above, each
//! power-of-two range has 128 linear sub-buckets (at most 0.8% error).

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Counts of recorded values by bucket.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// The middle of bucket `b`: the value a quantile in that bucket reports.
fn midpoint_of(b: usize) -> u64 {
    let b = b as u64;
    if b < 2 * SUB {
        return b;
    }
    let shift = b / SUB - 1;
    let low = (SUB + b % SUB) << shift;
    low + ((1u64 << shift) - 1) / 2
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` (0 < q <= 1), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint_of(b);
            }
        }
        unreachable!("rank {rank} is at most the total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_midpoints_fall_inside() {
        let mut last = 0;
        for v in (0..200_000u64).chain([1 << 40, u64::MAX / 3, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            let m = midpoint_of(b);
            assert_eq!(bucket_of(m), b, "midpoint of {v}'s bucket is outside it");
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_are_within_the_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q) as f64;
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }
}
