//! Special functions: log-gamma and the regularized incomplete beta.
//!
//! Needed for Student-t p-values on correlation coefficients (the paper
//! reports p-values alongside the cross-correlations of Figs. 20–21).
//! Implementations follow the classic Lanczos and Lentz continued-fraction
//! formulations; accuracy is ~1e-10 over the parameter ranges we use,
//! verified against known values in the tests.

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain: x > 0, got {x}");
    const COEFFS: [f64; 8] = [
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
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + (i as f64) + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction (Numerical Recipes `betacf` style, with the symmetry
/// transformation for convergence).
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "inc_beta parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "inc_beta domain: 0 <= x <= 1, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-30;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Two-sided p-value for a Student-t statistic with `df` degrees of
/// freedom: `P(|T| >= |t|)`.
pub fn t_test_p_value(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if !t.is_finite() {
        return 0.0;
    }
    let x = df / (df + t * t);
    inc_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        let half = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - half).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x·Γ(x)
        for x in [0.3, 1.7, 4.2, 9.9] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn inc_beta_boundaries_and_symmetry() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for (a, b, x) in [(2.0, 3.0, 0.4), (0.5, 0.5, 0.7), (5.0, 1.5, 0.2)] {
            let lhs = inc_beta(a, b, x);
            let rhs = 1.0 - inc_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1,1) = x.
        for x in [0.1, 0.33, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn inc_beta_known_value() {
        // I_{0.5}(2,2) = 0.5 by symmetry; I_{0.25}(2,2) = x²(3-2x) = 0.15625.
        assert!((inc_beta(2.0, 2.0, 0.5) - 0.5).abs() < 1e-12);
        assert!((inc_beta(2.0, 2.0, 0.25) - 0.15625).abs() < 1e-10);
    }

    #[test]
    fn t_test_p_values_reference() {
        // Standard normal limit: t=1.96, df large → p ≈ 0.05.
        let p = t_test_p_value(1.96, 100_000.0);
        assert!((p - 0.05).abs() < 0.001, "p={p}");
        // t=0 → p=1.
        assert!((t_test_p_value(0.0, 10.0) - 1.0).abs() < 1e-12);
        // t table: df=10, t=2.228 → p ≈ 0.05.
        let p = t_test_p_value(2.228, 10.0);
        assert!((p - 0.05).abs() < 0.001, "p={p}");
        // Monotone in |t|.
        assert!(t_test_p_value(3.0, 10.0) < t_test_p_value(1.0, 10.0));
        // Symmetric in sign.
        assert_eq!(t_test_p_value(2.0, 7.0), t_test_p_value(-2.0, 7.0));
    }
}
