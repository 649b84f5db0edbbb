//! Summary statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread computed here matches
//! one computed by any script over the same run values.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` by Python's exclusive quantile method. A single
/// value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return s.first().map(|&v| (v, v, v));
    }
    let (m, n) = (ld as i64 + 1, 4i64);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // negative at the clamped ends, which extrapolates like Python
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median (0 for a zero
/// median); `None` when empty.
pub fn iqr_frac(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// closest ranks; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Outcome of comparing a change's runs against the parent's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine pairs in ten and the medians differ
    /// by more than the parent's own quartile spread.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Within the bound, and no gain shown.
    Unchanged,
    /// The run-to-run spread is wider than the bound, so the runs
    /// cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` (run values in run order, so that
/// index `i` of each forms a pair) under a relative `bound`.
///
/// * Either side's spread (IQR over median) wider than `bound`:
///   unresolved — unless every change run beats every parent run.
/// * Change median worse than the parent median by more than `bound`:
///   worse.
/// * Change wins at least 90% of the pairs (ties count for neither)
///   and the medians differ by more than the parent's IQR: better.
/// * Otherwise unchanged.
///
/// Returns `None` when either side has no runs or the parent median is
/// zero (no relative change is defined).
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (pq1, pmed, pq3) = quartiles(parent)?;
    let (_, cmed, _) = quartiles(change)?;
    if pmed == 0.0 {
        return None;
    }
    let spread = iqr_frac(parent)?.max(iqr_frac(change)?);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
    if spread > bound {
        return Some(if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        });
    }
    let worse_by = match better {
        Better::Lower => (cmed - pmed) / pmed.abs(),
        Better::Higher => (pmed - cmed) / pmed.abs(),
    };
    if worse_by > bound {
        return Some(Verdict::Worse);
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better.beats(c, p))
        .count();
    let gained = pairs > 0 && wins * 10 >= pairs * 9 && (cmed - pmed).abs() > pq3 - pq1;
    Some(if gained && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(iqr_frac(&[0.0, 0.0]), Some(0.0));
        assert_eq!(iqr_frac(&[]), None);
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[2.0]), Some(2.0));
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn verdicts_on_fixed_runs() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // identical distribution: unchanged
        assert_eq!(
            verdict(&parent, &parent, Better::Lower, 0.05),
            Some(Verdict::Unchanged)
        );
        // 10% slower on a lower-is-better metric: worse
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.10).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.05),
            Some(Verdict::Worse)
        );
        // the same numbers are a gain when higher is better
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.05),
            Some(Verdict::Better)
        );
        // 3% faster in every pair: better, though within the bound
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.97).collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.05),
            Some(Verdict::Better)
        );
        // a spread wider than the bound cannot be judged
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.05),
            Some(Verdict::Unresolved)
        );
        // ... unless every change run beats every parent run
        let wide_but_clear = [40.0, 60.0, 50.0, 45.0, 55.0];
        assert_eq!(
            verdict(&parent, &wide_but_clear, Better::Lower, 0.05),
            Some(Verdict::Better)
        );
        assert_eq!(verdict(&[], &parent, Better::Lower, 0.05), None);
        assert_eq!(verdict(&[0.0], &[1.0], Better::Lower, 0.05), None);
    }
}
