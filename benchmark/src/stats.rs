//! Order statistics and the regression-bound rule.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1)`, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie strictly beyond its rank — a tail
/// estimated from a handful of samples is noise, not a percentile.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() >= rank + TAIL_SAMPLES).then(|| v[rank - 1])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method); needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median (`None` with fewer than two samples or a zero median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// By what share of `base` the value `new` is *worse* (negative when it
/// is better). A zero base makes any worsening infinite.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// The regression rule: `new` passes when it is not worse than `base`
/// by more than `bound` (a share of `base`).
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        // p50 is supported from 20 samples on.
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.90), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!(within_bound(100.0, 109.9, Better::Lower, 0.10));
        assert!(!within_bound(100.0, 110.1, Better::Lower, 0.10));
        assert!(within_bound(100.0, 50.0, Better::Lower, 0.10));
        assert!(within_bound(1.2, 1.09, Better::Higher, 0.10));
        assert!(!within_bound(1.2, 1.07, Better::Higher, 0.10));
        assert!(within_bound(1.2, 2.0, Better::Higher, 0.10));
        // An exact count: any change for the worse fails a zero bound.
        assert!(within_bound(6.0, 6.0, Better::Lower, 0.0));
        assert!(!within_bound(6.0, 7.0, Better::Lower, 0.0));
        assert!(!within_bound(0.0, 1.0, Better::Lower, 0.10));
    }
}
