//! Summary statistics over latency samples.

/// The `p`-th percentile (`p` in `[0, 100]`) by linear interpolation
/// between closest ranks, the same rule as numpy's default. `None` for
/// an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median, or `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The `p`-th percentile of a latency sample: by the interpolating rule
/// when the sample leaves at least ten values beyond its p95, else by
/// Harrell–Davis. A long open-loop session has the values for the
/// first; there, the second would mix a slow band lying just past the
/// percentile into it. A closed loop of a few dozen operations has not.
pub fn latency_percentile(samples: &[f64], p: f64) -> Option<f64> {
    match tail_percentile(samples.len()) {
        Some(q) if q >= 95 => percentile(samples, p),
        _ => harrell_davis(samples, p),
    }
}

/// The `p`-th percentile by the Harrell–Davis estimator: a weighted
/// mean of all order statistics, the `i`-th weighted by the mass the
/// Beta(p(n+1), (1-p)(n+1)) distribution puts on `[(i-1)/n, i/n]`. On
/// the few dozen samples of a closed loop it swings much less from run
/// to run than the one or two order statistics the interpolating rule
/// reads. `None` for an empty sample.
pub fn harrell_davis(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p = (p / 100.0).clamp(0.0, 1.0);
    if n == 1 || p == 0.0 || p == 1.0 {
        return Some(if p < 1.0 { sorted[0] } else { sorted[n - 1] });
    }
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let mut prev = 0.0;
    let mut total = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        total += (cdf - prev) * x;
        prev = cdf;
    }
    Some(total)
}

/// The regularised incomplete beta function `I_x(a, b)`, by its
/// continued fraction (modified Lentz), on the side where it converges
/// fast.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for num in [
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ] {
            d = 1.0 + num * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The highest whole percentile that still leaves at least ten samples
/// strictly above its rank, so a tail figure rests on more than a
/// handful of observations. `None` when the sample has ten or fewer
/// values (no percentile qualifies).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n as u64 * u64::from(100 - p) >= 1000)
}

/// Interval union length: the part of `[start, end)` covered by the
/// (possibly overlapping) `children` intervals, each clipped to it.
pub fn covered(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), Some(96.0));
    }

    #[test]
    fn latency_percentile_picks_the_rule_by_sample_count() {
        // 300 samples leave 15 beyond the p95: the interpolating rule,
        // untouched by the slow band past it.
        let mut xs = vec![40.0; 290];
        xs.extend([900.0; 10]);
        assert_eq!(latency_percentile(&xs, 95.0), Some(40.0));
        assert_eq!(latency_percentile(&xs, 50.0), Some(40.0));
        // 20 samples leave one: Harrell–Davis for every percentile.
        let ys: Vec<f64> = (1..=20).map(f64::from).collect();
        for p in [50.0, 95.0] {
            assert_eq!(latency_percentile(&ys, p), harrell_davis(&ys, p));
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (x, f) in [(1.0, 1.0), (2.0, 1.0), (5.0, 24.0), (10.0, 362_880.0)] {
            assert!((ln_gamma(x) - f64::ln(f)).abs() < 1e-10, "{x}");
        }
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 1) = x²; I_x(1, 3) = 1 - (1 - x)³.
        for x in [0.1, 0.37, 0.5, 0.9] {
            assert!((beta_cdf(x, 1.0, 1.0) - x).abs() < 1e-12);
            assert!((beta_cdf(x, 2.0, 1.0) - x * x).abs() < 1e-12);
            assert!((beta_cdf(x, 1.0, 3.0) - (1.0 - (1.0 - x).powi(3))).abs() < 1e-12);
        }
        assert!((beta_cdf(0.5, 7.3, 7.3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_weighs_every_order_statistic() {
        assert_eq!(harrell_davis(&[], 50.0), None);
        assert_eq!(harrell_davis(&[3.0], 95.0), Some(3.0));
        // A symmetric sample's median is its centre.
        let hd = harrell_davis(&[5.0, 1.0, 3.0, 2.0, 4.0], 50.0).unwrap();
        assert!((hd - 3.0).abs() < 1e-12);
        // A constant sample gives the constant (the weights sum to 1).
        let hd = harrell_davis(&[7.0; 13], 95.0).unwrap();
        assert!((hd - 7.0).abs() < 1e-12);
        // On 1..=1001 it lands next to the plain percentile.
        let xs: Vec<f64> = (1..=1001).map(f64::from).collect();
        let hd = harrell_davis(&xs, 95.0).unwrap();
        assert!((hd - 951.0).abs() < 1.0, "{hd}");
        // Moving the largest sample moves the p95 only by its weight.
        let mut ys: Vec<f64> = (1..=30).map(f64::from).collect();
        let before = harrell_davis(&ys, 95.0).unwrap();
        ys[29] = 300.0;
        let after = harrell_davis(&ys, 95.0).unwrap();
        assert!(after > before && after - before < 0.5 * 270.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(94));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in [11, 37, 200, 5000] {
            let p = tail_percentile(n).unwrap();
            assert!(n * (100 - p as usize) >= 1000);
            if p < 99 {
                assert!(n * (99 - p as usize) < 1000);
            }
        }
    }

    #[test]
    fn covered_merges_overlapping_children() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (2.0, 5.0)]), 4.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 2.0), (4.0, 6.0)]), 3.0);
        // Children sticking out of the parent count only inside it.
        assert_eq!(covered(0.0, 10.0, &[(-5.0, 1.0), (9.0, 20.0)]), 2.0);
        assert_eq!(covered(0.0, 10.0, &[(12.0, 20.0)]), 0.0);
    }
}
