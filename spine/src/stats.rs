//! Order statistics and span self-time.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    v
}

/// Median; the mean of the middle pair for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of nothing");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so spreads computed here agree with the driver's.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The `want` quantile (nearest rank), lowered until at least
/// `min_beyond` samples lie beyond it. Returns the value and the quantile
/// actually reported, which equals `want` once there are
/// `min_beyond / (1 - want)` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail_quantile(values: &[f64], want: f64, min_beyond: usize) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quantile of nothing");
    let rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = rank.min(n.saturating_sub(min_beyond)).max(1);
    (v[rank - 1], rank as f64 / n as f64)
}

/// A closed interval on one thread's clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

/// For spans recorded on ONE thread (so they nest or are disjoint), the
/// parent of each: the shortest other span that contains it. Equal
/// intervals nest in input order.
pub fn parents(spans: &[Interval]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end), i));
    let mut parent = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while stack
            .last()
            .is_some_and(|&top| spans[top].end < spans[i].end)
        {
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    parent
}

/// Self time of every span: its duration minus the part of it its
/// children cover (children may touch but, on one thread, never overlap
/// each other).
pub fn self_times(spans: &[Interval], parent: &[Option<usize>]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            own[p] = own[p].saturating_sub(spans[i].end - spans[i].start);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: the 190th is p95 and exactly 10 lie beyond.
        assert_eq!(tail_quantile(&v, 0.95, 10), (190.0, 0.95));
        // 100 samples: only 5 lie beyond p95, so p90 is the highest
        // percentile that may be reported.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.95, 10), (90.0, 0.9));
        // Fewer samples than the tail: the smallest one.
        assert_eq!(tail_quantile(&[5.0, 7.0], 0.95, 10), (5.0, 0.5));
    }

    #[test]
    fn self_time_of_a_nested_tree() {
        // step [0,100] ⊃ ff [5,30], bp [30,80] ⊃ hook [40,50]; a second
        // root [120,130].
        let spans = [
            Interval { start: 0, end: 100 },
            Interval { start: 5, end: 30 },
            Interval { start: 30, end: 80 },
            Interval { start: 40, end: 50 },
            Interval {
                start: 120,
                end: 130,
            },
        ];
        let p = parents(&spans);
        assert_eq!(p, vec![None, Some(0), Some(0), Some(2), None]);
        assert_eq!(self_times(&spans, &p), vec![25, 25, 40, 10, 10]);
    }
}
