//! Summary statistics of latency samples: medians, quartiles, and the
//! tail-percentile rule (the highest percentile with at least ten samples
//! beyond it).

/// Percentiles the tail rule chooses from, in per-mille, lowest first.
pub const LADDER_PERMILLE: [u32; 4] = [500, 900, 990, 999];

/// Samples a tail percentile needs beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` percentile among `n` samples:
/// `ceil(permille * n / 1000)`, at least 1. Integer arithmetic, so the
/// rank is exact at every sample count.
pub fn nearest_rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the nearest-rank `permille` percentile.
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(nearest_rank(n, permille))
}

/// The highest percentile of [`LADDER_PERMILLE`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median lacks
/// them.
pub fn tail_permille(n: usize) -> Option<u32> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Fewest samples for which `permille` has [`MIN_BEYOND`] samples beyond
/// it.
pub fn min_samples_for(permille: u32) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, permille) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// Splits `samples` (in the order they were taken) into `segments`
/// consecutive runs of equal length, the last absorbing any remainder, and
/// applies `stat` to each, in order.
pub fn per_segment(samples: &[f64], segments: usize, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let segments = segments.clamp(1, samples.len().max(1));
    let len = samples.len() / segments;
    (0..segments)
        .map(|i| {
            let end = if i + 1 == segments {
                samples.len()
            } else {
                (i + 1) * len
            };
            stat(&samples[i * len..end])
        })
        .collect()
}

/// The median of [`per_segment`] values. A burst of outside load shorter
/// than about a third of a run moves at most one segment, and so not the
/// result.
pub fn segmented(samples: &[f64], segments: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    median(&per_segment(samples, segments, stat))
}

/// The nearest-rank `permille` percentile of [`per_segment`] values.
pub fn segment_percentile(
    samples: &[f64],
    segments: usize,
    permille: u32,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut values = per_segment(samples, segments, stat);
    values.sort_by(f64::total_cmp);
    percentile(&values, permille)
}

/// `a / b`, or 0 when `b` is 0 (a layer or run that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default); `None` for fewer than two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are checked against. 0 when undefined.
pub fn relative_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(900));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        assert_eq!(min_samples_for(990), 1000);
        assert_eq!(min_samples_for(900), 100);
        for n in 1..3000 {
            if let Some(p) = tail_permille(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND);
                let higher = LADDER_PERMILLE.iter().find(|&&q| q > p);
                if let Some(&q) = higher {
                    assert!(samples_beyond(n, q) < MIN_BEYOND, "n={n} p={p} q={q}");
                }
            }
        }
    }

    #[test]
    fn segmented_statistic_ignores_one_disturbed_segment() {
        let mut samples: Vec<f64> = (0..50).map(|i| f64::from(i % 10)).collect();
        // A burst lands in the second segment only.
        for s in &mut samples[10..20] {
            *s += 100.0;
        }
        let max = |seg: &[f64]| seg.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(segmented(&samples, 5, max), 9.0);
        assert_eq!(segmented(&samples, 1, max), 109.0);
        // The last segment absorbs the remainder.
        let len = |seg: &[f64]| seg.len() as f64;
        assert_eq!(segmented(&samples[..53.min(samples.len())], 4, len), 12.0);
        assert_eq!(segmented(&[], 3, len), 0.0);
    }

    #[test]
    fn segment_percentile_ranks_segment_values() {
        // Twenty segments of five samples whose medians are 1..=20, out of
        // order.
        let samples: Vec<f64> = (0..20)
            .flat_map(|i| {
                let m = f64::from((i * 7) % 20 + 1);
                [m - 0.5, m, m, m + 0.5, m]
            })
            .collect();
        let med = |seg: &[f64]| {
            let mut v = seg.to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, 500)
        };
        assert_eq!(segment_percentile(&samples, 20, 900, med), 18.0);
        assert_eq!(segment_percentile(&samples, 20, 500, med), 10.0);
        assert_eq!(segment_percentile(&samples, 20, 1000, med), 20.0);
        // One segment: the median of all samples.
        assert_eq!(segment_percentile(&samples, 1, 900, med), 10.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&[3.0], 990), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        assert_eq!(median(&v), 5.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
