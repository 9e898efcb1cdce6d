//! Order statistics: the fastest of repeated timings and exact
//! nearest-rank percentiles of simulated latencies.

/// The smallest of `values`: the fastest repetition of a timing. Noise
/// from other tenants of the machine only ever slows a run down, so the
/// fastest of many short repetitions is the steadiest estimate of the
/// program's own cost.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The sum over components of each component's fastest repetition:
/// `reps[r][i]` is repetition `r`'s time for component `i`.
pub fn sum_of_fastest(reps: &[Vec<f64>]) -> f64 {
    let components = reps.first().map_or(0, Vec::len);
    (0..components)
        .map(|i| fastest(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

/// Exact latency percentiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Number of samples.
    pub samples: u64,
    /// Nearest-rank 50th percentile.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Nearest-rank 99.9th percentile.
    pub p999: u64,
    /// Samples strictly greater than `p999`: the p99.9 figure rests on at
    /// least ten of them only when this is 10 or more.
    pub beyond_p999: u64,
}

/// The nearest-rank quantile `num / den` of ascending `sorted`: the
/// smallest value with at least `n · num / den` samples at or below it.
/// Integer arithmetic, so no rounding moves a rank.
fn nearest_rank(sorted: &[u64], num: usize, den: usize) -> u64 {
    let n = sorted.len();
    let rank = (n * num).div_ceil(den).clamp(1, n);
    sorted[rank - 1]
}

/// Exact percentiles of `samples`, or `None` if there are none.
pub fn percentiles(mut samples: Vec<u64>) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let p999 = nearest_rank(&samples, 999, 1000);
    Some(Percentiles {
        samples: samples.len() as u64,
        p50: nearest_rank(&samples, 1, 2),
        p99: nearest_rank(&samples, 99, 100),
        p999,
        beyond_p999: (samples.len() - samples.partition_point(|&x| x <= p999)) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_and_sum_of_fastest() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        let reps = vec![vec![1.0, 5.0], vec![2.0, 4.0], vec![3.0, 6.0]];
        assert_eq!(sum_of_fastest(&reps), 5.0);
    }

    #[test]
    fn percentiles_of_a_hand_computed_list() {
        // 1..=2000 shuffled: nearest rank of q is ceil(q * 2000).
        let mut v: Vec<u64> = (1..=2000).collect();
        v.reverse();
        v.swap(3, 1500);
        let p = percentiles(v).unwrap();
        assert_eq!(p.samples, 2000);
        assert_eq!(p.p50, 1000); // ceil(0.5 * 2000) = 1000
        assert_eq!(p.p99, 1980); // ceil(0.99 * 2000) = 1980
        assert_eq!(p.p999, 1998); // ceil(0.999 * 2000) = 1998
        assert_eq!(p.beyond_p999, 2); // 1999 and 2000
    }

    #[test]
    fn percentiles_with_ties_and_small_sets() {
        // Ten samples: p50 is the 5th, p99 and p99.9 are the 10th.
        let v = vec![5, 1, 1, 9, 2, 2, 2, 7, 3, 40];
        let p = percentiles(v).unwrap();
        assert_eq!((p.p50, p.p99, p.p999), (2, 40, 40));
        assert_eq!(p.beyond_p999, 0);
        // Ties at the quantile do not count as beyond it.
        let p = percentiles(vec![4; 20_000]).unwrap();
        assert_eq!((p.p50, p.p999, p.beyond_p999), (4, 4, 0));
        // 10,010 samples: rank ceil(0.999 * 10010) = 10000, ten beyond.
        let p = percentiles((0..10_010).collect()).unwrap();
        assert_eq!((p.p999, p.beyond_p999), (9_999, 10));
        assert_eq!(percentiles(Vec::new()), None);
    }
}
