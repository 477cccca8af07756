//! Seeded randomness and the summary statistics every metric is built from.

/// SplitMix64: the benchmark's only randomness, so `--seed` fixes every
/// matrix seed and job mix.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these tiny `n` is < 2^-60).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn centered(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) computes
/// them, so `perf compare` judges a spread the way the driver does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 1, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile and the percentile actually used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// `want` when the sample count supports it, else the highest
    /// percentile that does.
    pub percentile: f64,
}

/// The `want` percentile (nearest rank), lowered if necessary so that at
/// least ten samples lie beyond the reported one — never report a tail the
/// sample count cannot resolve. With fewer than 21 samples that rule leaves
/// nothing above the median, and the median is reported.
pub fn tail(values: &[f64], want: f64) -> Tail {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 1, "percentile of nothing");
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let median_rank = n.div_ceil(2);
    let rank = wanted_rank.min(n.saturating_sub(10)).max(median_rank);
    Tail {
        value: v[rank - 1],
        percentile: if rank == wanted_rank {
            want
        } else {
            rank as f64 / n as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([10,20,30,40,50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_never_reports_a_percentile_with_fewer_than_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // 100 samples: p90 is rank 90, ten samples beyond it
        let t = tail(&v(100), 0.9);
        assert_eq!((t.value, t.percentile), (90.0, 0.9));
        // 99 samples: rank 90 would leave nine beyond, so rank 89 is used
        let t = tail(&v(99), 0.9);
        assert_eq!(t.value, 89.0);
        assert!(t.percentile < 0.9);
        // 1000 samples carry a p99; 500 do not
        assert_eq!(tail(&v(1000), 0.99).percentile, 0.99);
        let t = tail(&v(500), 0.99);
        assert_eq!(t.value, 490.0);
        // too few samples for any tail: the median stands in
        let t = tail(&v(15), 0.9);
        assert_eq!(t.value, 8.0);
        for n in 1..300 {
            let t = tail(&v(n), 0.9);
            let beyond = n - t.value as usize;
            assert!(
                beyond >= 10 || t.value as usize == n.div_ceil(2),
                "n={n}: {beyond} beyond rank {}",
                t.value
            );
        }
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..32).map(|_| r.below(8)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
