//! Self-contained random distributions.
//!
//! Implemented here instead of pulling in `rand_distr`, because the
//! workspace builds offline from in-repo code only. The generators need a
//! normal sampler (Box–Muller), truncation helpers, a 2-D diagonal Gaussian,
//! a Poisson sampler and the normal CDF (for analytic expected counts).

use rand::Rng;

/// Sample a standard normal `N(0, 1)` variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would make ln(0) = -inf.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sample `N(mean, std_dev²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Sample `N(mean, std_dev²)` truncated (by rejection, with a clamping
/// fallback after `max_tries`) to the closed interval `[lo, hi]`.
pub fn truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    debug_assert!(lo < hi, "invalid truncation interval");
    const MAX_TRIES: usize = 64;
    for _ in 0..MAX_TRIES {
        let v = normal(rng, mean, std_dev);
        if v >= lo && v <= hi {
            return v;
        }
    }
    normal(rng, mean, std_dev).clamp(lo, hi)
}

/// Sample a point from a 2-D Gaussian with independent axes (diagonal
/// covariance), truncated to the rectangle `[0, width] × [0, height]`.
pub fn truncated_gaussian_2d<R: Rng + ?Sized>(
    rng: &mut R,
    mean: (f64, f64),
    std_dev: (f64, f64),
    width: f64,
    height: f64,
) -> (f64, f64) {
    (
        truncated_normal(rng, mean.0, std_dev.0, 0.0, width),
        truncated_normal(rng, mean.1, std_dev.1, 0.0, height),
    )
}

/// Sample a Poisson variate with rate `lambda`.
///
/// Uses Knuth's multiplication method for small rates and a rounded normal
/// approximation for large rates (`lambda > 30`), which is more than accurate
/// enough for generating per-cell arrival counts.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let v = normal(rng, lambda, lambda.sqrt());
        return v.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        // Defensive bound; practically unreachable for lambda <= 30.
        if k > 10_000 {
            return k;
        }
    }
}

/// The standard normal cumulative distribution function, via the
/// Abramowitz–Stegun 7.1.26 erf approximation (|error| < 1.5e-7).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// CDF of `N(mean, std_dev²)` at `x`.
pub fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return if x >= mean { 1.0 } else { 0.0 };
    }
    standard_normal_cdf((x - mean) / std_dev)
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_has_roughly_zero_mean_unit_variance() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = truncated_normal(&mut r, 10.0, 5.0, 0.0, 12.0);
            assert!((0.0..=12.0).contains(&v));
        }
        // Extreme truncation exercises the clamping fallback.
        for _ in 0..50 {
            let v = truncated_normal(&mut r, 1000.0, 0.1, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_2d_stays_in_rectangle() {
        let mut r = rng();
        for _ in 0..500 {
            let (x, y) = truncated_gaussian_2d(&mut r, (25.0, 25.0), (12.0, 12.0), 50.0, 50.0);
            assert!((0.0..=50.0).contains(&x));
            assert!((0.0..=50.0).contains(&y));
        }
    }

    #[test]
    fn poisson_mean_is_close_to_lambda() {
        let mut r = rng();
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 5000;
            let mean = (0..n).map(|_| poisson(&mut r, lambda) as f64).sum::<f64>() / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.1, "lambda {lambda} mean {mean}");
        }
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!((normal_cdf(10.0, 10.0, 2.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(1.0, 0.0, 0.0) == 1.0);
        assert!(normal_cdf(-1.0, 0.0, 0.0) == 0.0);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for &x in &[0.0, 0.5, 1.0, 2.0, 3.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-6);
            assert!(erf(x) <= 1.0 && erf(x) >= 0.0);
        }
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
    }
}
