//! Order statistics over samples and runs, and the run-set comparison
//! behind `bench_e2e compare`.
//!
//! Pure functions with no I/O, so every decision rule is unit-tested.

/// Percentiles, in per mille, that [`tail_per_mille`] may choose from.
const TAIL_LADDER: [usize; 4] = [500, 900, 990, 999];

/// Nearest-rank percentile of an ascending slice, `per_mille` in
/// `0..=1000`: the value at rank `ceil(len * per_mille / 1000)`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * per_mille).div_ceil(1000);
    sorted[rank.saturating_sub(1)]
}

/// The highest percentile of {p50, p90, p99, p99.9}, in per mille, that
/// leaves at least ten of `samples` beyond it; `None` below 20 samples.
pub fn tail_per_mille(samples: usize) -> Option<usize> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| samples - (samples * pm).div_ceil(1000) >= 10)
}

/// Median, averaging the middle pair of an even-sized set.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative for tiny sets, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; `None` for fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Latency statistics of a run, each the median over consecutive windows
/// of a fixed number of operations.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Windowed {
    /// Median over windows of the window's p50, in ns.
    pub p50_ns: f64,
    /// Median over windows of the window's p90, in ns.
    pub p90_ns: f64,
    /// Median over windows of operations per second of operation time.
    pub per_s: f64,
}

/// Splits `samples_ns` into consecutive windows of `window` samples,
/// dropping a trailing partial window, and takes the median of each
/// window statistic; `None` when no full window exists. A slowdown of the
/// machine that lasts a few windows barely moves the result.
pub fn windowed(samples_ns: &[u64], window: usize) -> Option<Windowed> {
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for chunk in samples_ns.chunks_exact(window.max(1)) {
        let ns = sorted(&chunk.iter().map(|&n| n as f64).collect::<Vec<_>>());
        p50.push(percentile(&ns, 500));
        p90.push(percentile(&ns, 900));
        rate.push(ns.len() as f64 * 1e9 / ns.iter().sum::<f64>());
    }
    (!p50.is_empty()).then(|| Windowed {
        p50_ns: median(&p50),
        p90_ns: median(&p90),
        per_s: median(&rate),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// Parses the `better` field of a `BENCHMARK.json` metric.
    pub fn parse(raw: &str) -> Option<Better> {
        match raw {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing one metric between two sets of runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric compared between run sets A (before) and B (after).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MetricComparison {
    /// Median over set A.
    pub median_a: f64,
    /// Median over set B.
    pub median_b: f64,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worsening: f64,
    /// The wider of the two sets' spreads ([`spread`]).
    pub spread: f64,
    /// The verdict under the bound.
    pub verdict: Verdict,
}

/// Compares one metric's runs in set `b` against set `a`.
///
/// The verdict is [`Verdict::Unresolved`] when either set's spread is
/// wider than `bound`, unless every run of B beats every run of A; then
/// it is [`Verdict::Worse`] when B's median is worse than A's by more
/// than `bound`, and [`Verdict::Within`] otherwise.
///
/// # Panics
///
/// Panics if either set is empty.
pub fn compare_runs(a: &[f64], b: &[f64], better: Better, bound: f64) -> MetricComparison {
    let (median_a, median_b) = (median(a), median(b));
    let worsening = match better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let spread = match (spread(a), spread(b)) {
        (Some(sa), Some(sb)) => sa.max(sb),
        _ => f64::INFINITY,
    };
    let b_dominates = b.iter().all(|&vb| a.iter().all(|&va| better.beats(vb, va)));
    let verdict = if spread > bound && !b_dominates {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    MetricComparison {
        median_a,
        median_b,
        worsening,
        spread,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(120), Some(900));
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(percentile(&v, 1000), 1000.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn windowed_medians_shrug_off_a_slow_window() {
        // Windows of 1..=100 ns; one window in five runs ten times slower.
        let fast: Vec<u64> = (1..=100).collect();
        let slow: Vec<u64> = fast.iter().map(|n| n * 10).collect();
        let mut series = Vec::new();
        for w in 0..5 {
            series.extend(if w == 2 { &slow } else { &fast });
        }
        series.extend([7, 7, 7]); // a partial window is dropped
        let w = windowed(&series, 100).unwrap();
        assert_eq!((w.p50_ns, w.p90_ns), (50.0, 90.0));
        assert!((w.per_s - 1e9 / 50.5).abs() < 1e-3);
        assert_eq!(windowed(&series[..99], 100), None);
    }

    #[test]
    fn steady_runs_within_and_beyond_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let close = [102.0, 103.0, 101.0, 102.5, 101.5];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let within = compare_runs(&a, &close, Better::Lower, 0.1);
        assert_eq!(within.verdict, Verdict::Within);
        assert!((within.worsening - 0.02).abs() < 1e-12);
        assert_eq!(
            compare_runs(&a, &slow, Better::Lower, 0.1).verdict,
            Verdict::Worse
        );
        // For a rate, a drop is the worsening.
        assert_eq!(
            compare_runs(&slow, &a, Better::Higher, 0.1).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let a = [100.0, 60.0, 140.0, 80.0, 120.0];
        let b = [105.0, 65.0, 145.0, 85.0, 125.0];
        assert_eq!(
            compare_runs(&a, &b, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        let faster = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(
            compare_runs(&a, &faster, Better::Lower, 0.1).verdict,
            Verdict::Within
        );
    }
}
