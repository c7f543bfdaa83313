//! Order statistics for the benchmark's own reporting: the summary of a
//! handful of timed reps, the "highest percentile the sample supports"
//! rule, and a bounded log-bucket histogram for per-call timings.

use serde_json::{Map, Value};

/// Sample size and order statistics of a sample of timed reps or
/// set-ups: range, the third value from either end, deciles,
/// quartiles, median.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    /// Third smallest (the largest, in a sample of fewer than three).
    pub lo3: f64,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    /// Third largest (the smallest, in a sample of fewer than three).
    pub hi3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` on an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: v[0],
            lo3: v[2.min(v.len() - 1)],
            p10: quantile_sorted(&v, 0.10),
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            p90: quantile_sorted(&v, 0.90),
            hi3: v[v.len().saturating_sub(3)],
            max: v[v.len() - 1],
        })
    }

    /// A one-sample summary (exact counts, simulated results).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            min: value,
            lo3: value,
            p10: value,
            q1: value,
            median: value,
            q3: value,
            p90: value,
            hi3: value,
            max: value,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn fields(&self) -> [(&'static str, f64); 9] {
        [
            ("min", self.min),
            ("lo3", self.lo3),
            ("p10", self.p10),
            ("q1", self.q1),
            ("median", self.median),
            ("q3", self.q3),
            ("p90", self.p90),
            ("hi3", self.hi3),
            ("max", self.max),
        ]
    }

    /// `{n, min, p10, …, max}`; a one-sample summary is `{n: 1, value}`.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("n".into(), Value::U64(self.n as u64));
        if self.n == 1 {
            m.insert("value".into(), Value::F64(self.median));
            return Value::Object(m);
        }
        for (k, v) in self.fields() {
            m.insert(k.into(), Value::F64(v));
        }
        Value::Object(m)
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |k: &str| v.get_path(k).as_f64();
        if let Some(value) = f("value") {
            return Some(Summary::exact(value));
        }
        Some(Summary {
            n: v.get_path("n").as_u64()? as usize,
            min: f("min")?,
            lo3: f("lo3")?,
            p10: f("p10")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            p90: f("p90")?,
            hi3: f("hi3")?,
            max: f("max")?,
        })
    }
}

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// method: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

/// The reps of a run re-pieced rank by rank. Every rep is timed in the
/// same pieces doing the same work (`drive::Laps`); entry `k` of the
/// result is the sum over the pieces of each piece's `k`-th shortest
/// time over all reps: entry 0 is the run pieced together from every
/// piece's best time, the last entry from every piece's worst. Sorted
/// ascending; with one piece per rep it is the reps' own times, sorted.
pub fn pieced(reps: &[Vec<f64>]) -> Vec<f64> {
    let mut totals = vec![0.0; reps.len()];
    let mut column = Vec::with_capacity(reps.len());
    for piece in 0..reps.first().map_or(0, Vec::len) {
        column.clear();
        column.extend(reps.iter().map(|r| r[piece]));
        column.sort_by(f64::total_cmp);
        for (total, t) in totals.iter_mut().zip(&column) {
            *total += t;
        }
    }
    totals
}

/// The percentiles this benchmark ever reports above the median, each
/// with the reciprocal of the share of samples beyond it.
const TAIL_PERCENTILES: [(f64, usize); 4] =
    [(99.99, 10_000), (99.9, 1_000), (99.0, 100), (90.0, 10)];

/// The highest of p99.99 / p99.9 / p99 / p90 that still has at least
/// ten samples beyond it in a sample of `n` — a tail percentile with
/// fewer is one outlier, not a statistic. `None` below 100 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|(_, one_in)| n >= 10 * one_in)
        .map(|(p, _)| p)
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted integer
/// sample, via selection (the sample is reordered).
pub fn percentile_u32(samples: &mut [u32], p: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    Some(*samples.select_nth_unstable(idx).1)
}

/// Fixed-size histogram of nanosecond durations: 8 sub-buckets per
/// power of two, so a quantile read back is within ~9 % of the sample
/// and memory stays constant however many calls are timed.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    pub samples: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; (64 * SUB) as usize],
            samples: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl LogHist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Upper edge of bucket `b` (the value a quantile reports).
    fn upper(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let exp = b / SUB - 1 + SUB_BITS as u64;
        let sub = b % SUB;
        ((SUB + sub + 1) << (exp - SUB_BITS as u64)) - 1
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.samples += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Nearest-rank quantile (`p` in 0..=100), as a bucket upper edge.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.samples as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::upper(b).min(self.max_ns));
            }
        }
        Some(self.max_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computed_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert_eq!((s.lo3, s.hi3), (3.0, 3.0));
        let two = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((two.lo3, two.hi3), (2.0, 1.0));
        assert!((s.rel_iqr() - 2.0 / 3.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
        let one = Summary::exact(7.5);
        assert_eq!(Summary::from_json(&one.to_json()), Some(one));
    }

    #[test]
    fn pieced_takes_each_piece_rank_by_rank() {
        // Three reps of two pieces; a disturbance hit a different piece
        // of each of the first two.
        let reps = vec![vec![1.0, 9.0], vec![5.0, 2.0], vec![1.5, 2.5]];
        assert_eq!(pieced(&reps), vec![1.0 + 2.0, 1.5 + 2.5, 5.0 + 9.0]);
        // One piece per rep: the reps themselves, sorted.
        assert_eq!(
            pieced(&[vec![3.0], vec![1.0], vec![2.0]]),
            vec![1.0, 2.0, 3.0]
        );
        assert!(pieced(&[]).is_empty());
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn integer_percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile_u32(&mut v, 50.0), Some(500));
        assert_eq!(percentile_u32(&mut v, 99.0), Some(990));
        assert_eq!(percentile_u32(&mut v, 100.0), Some(1000));
        assert_eq!(percentile_u32(&mut [], 50.0), None);
    }

    #[test]
    fn log_hist_quantiles_stay_within_a_sub_bucket() {
        let mut h = LogHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for (p, exact) in [(50.0, 50_000.0), (99.0, 99_000.0)] {
            let got = h.percentile(p).unwrap() as f64;
            assert!((got - exact).abs() / exact < 0.13, "p{p}: {got} vs {exact}");
        }
        assert_eq!(h.percentile(100.0), Some(100_000));
        assert_eq!(h.samples, 100_000);
        // Bucket edges are monotone and every value lands at or below
        // its bucket's upper edge.
        for ns in [0u64, 1, 7, 8, 9, 15, 16, 1023, 1024, u64::MAX / 2] {
            assert!(LogHist::upper(LogHist::bucket(ns)) >= ns, "{ns}");
        }
    }
}
