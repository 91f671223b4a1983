//! The statistics every reported number goes through.
//!
//! - [`median`] of a sample.
//! - [`tail`]: the percentile rule — the highest percentile of
//!   [`LADDER`] that still has at least [`MIN_BEYOND`] samples beyond
//!   it, reported with its sample count.
//! - [`goodput`]: completions within a latency limit per second; a
//!   failed request is recorded as `f64::INFINITY`, so it misses every
//!   limit, exactly like a late one.
//! - [`residual`]: wall time minus the attributed layers, reported as
//!   measured (it may be negative when layers overlap) rather than
//!   clamped at zero.

/// Percentiles the tail rule may report, lowest first.
pub const LADDER: [f64; 3] = [0.5, 0.9, 0.99];

/// Samples a reported percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile as the rule reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 1)`.
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank index of percentile `p` in a sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Percentile `p` of a sample by nearest rank; 0 for an empty sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len())]
}

/// The percentile rule: the highest percentile of [`LADDER`] with at
/// least [`MIN_BEYOND`] samples beyond it. A sample too small to
/// support even the median reports the [`median`], with `beyond`
/// showing how little lies past it. `None` for an empty sample.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let r = rank(p, n);
        Tail {
            percentile: p,
            value: v[r],
            beyond: n - 1 - r,
            samples: n,
        }
    };
    Some(
        LADDER
            .iter()
            .rev()
            .map(|&p| at(p))
            .find(|t| t.beyond >= MIN_BEYOND)
            .unwrap_or_else(|| Tail {
                value: median(&v),
                ..at(LADDER[0])
            }),
    )
}

/// Splits a time-ordered sample into `k` contiguous segments of equal
/// count and returns the median over segments of `f(segment)`: a burst
/// of host noise spoils the segments it falls in, not the result.
pub fn segment_median(xs: &[f64], k: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let per = xs.len().div_ceil(k.max(1)).max(1);
    let values: Vec<f64> = xs.chunks(per).map(f).collect();
    median(&values)
}

/// Completions within `limit` per second of `span_s`: late and failed
/// (`INFINITY`) latencies both miss.
pub fn goodput(latencies: &[f64], limit: f64, span_s: f64) -> f64 {
    let met = latencies.iter().filter(|&&l| l <= limit).count();
    met as f64 / span_s
}

/// Wall time not covered by the attributed layers. Not clamped: a
/// negative residual means the attributed spans overlap or overrun the
/// wall clock, and that is reported as found.
pub fn residual(wall: f64, attributed: &[f64]) -> f64 {
    wall - attributed.iter().sum::<f64>()
}

/// The length of the union of `[start, end)` intervals clipped to
/// `[lo, hi)` — the part of a parent span its children cover.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, leaving exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!((t.beyond, t.samples), (10, 1000));

        // 999 samples: p99 leaves only 9, so the rule falls to p90.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.percentile, 0.9);
        assert_eq!(t.value, 900.0);
        assert_eq!(t.beyond, 99);

        // p99 is the top of the ladder however large the sample.
        let t = tail(&ramp(100_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (0.99, 1000));
    }

    #[test]
    fn quantile_takes_the_nearest_rank() {
        assert_eq!(quantile(&ramp(100), 0.1), 10.0);
        assert_eq!(quantile(&ramp(5), 0.1), 1.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_the_median_with_its_count() {
        let t = tail(&ramp(8)).unwrap();
        assert_eq!(t.percentile, 0.5);
        assert_eq!(t.value, 4.5);
        assert_eq!((t.beyond, t.samples), (4, 8));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn failed_requests_sit_at_the_top_of_the_tail() {
        let mut xs = ramp(990);
        xs.extend([f64::INFINITY; 10]);
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.value, 990.0);
        xs.push(f64::INFINITY);
        assert_eq!(tail(&xs).unwrap().value, f64::INFINITY);
    }

    #[test]
    fn segment_median_ignores_a_spoiled_segment() {
        let mut xs = vec![1.0; 30];
        xs[10..20].iter_mut().for_each(|x| *x = 50.0);
        assert_eq!(segment_median(&xs, 3, |s| tail(s).unwrap().value), 1.0);
        assert_eq!(segment_median(&xs, 1, median), 1.0);
    }

    #[test]
    fn goodput_counts_failed_and_late_requests_as_misses() {
        // Two on time (one exactly at the limit), one late, one failed.
        let lat = [5.0, 10.0, 10.5, f64::INFINITY];
        assert_eq!(goodput(&lat, 10.0, 2.0), 1.0);
        assert_eq!(goodput(&[], 10.0, 2.0), 0.0);
    }

    #[test]
    fn residual_is_reported_not_clamped() {
        assert_eq!(residual(10.0, &[3.0, 4.0]), 3.0);
        // Overlapping attributions overrun the wall clock: the negative
        // residual survives.
        assert_eq!(residual(10.0, &[6.0, 7.0]), -3.0);
    }

    #[test]
    fn covered_merges_overlaps_and_clips_to_the_parent() {
        let iv = [(1.0, 3.0), (2.0, 4.0), (6.0, 12.0), (-5.0, 0.5)];
        assert_eq!(covered(0.0, 10.0, &iv), 0.5 + 3.0 + 4.0);
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
    }
}
