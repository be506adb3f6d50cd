//! Ordinary least squares regression.
//!
//! Table 1 of the paper fits linear models predicting the next interval's
//! surge multiplier from (supply − demand), EWT and the previous
//! multiplier, reporting the fitted θ parameters and R² per city and per
//! data filter (Raw / Threshold / Rush). The models are tiny (3
//! predictors), so the normal equations with Gaussian elimination are
//! exact and fast.

/// A fitted linear model `ŷ = intercept + Σ coeffs[j]·x[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsModel {
    /// Intercept term.
    pub intercept: f64,
    /// One coefficient per predictor.
    pub coeffs: Vec<f64>,
}

/// A fitted model together with its in-sample fit quality.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// The model.
    pub model: OlsModel,
    /// Coefficient of determination on the fitting data.
    pub r2: f64,
    /// Number of fitting rows.
    pub n: usize,
}

impl OlsModel {
    /// Predicts `ŷ` for one row of predictors.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.coeffs.len(), "predictor arity mismatch");
        self.intercept + row.iter().zip(&self.coeffs).map(|(x, c)| x * c).sum::<f64>()
    }

    /// R² of this model on an arbitrary dataset (can be held-out data).
    pub fn r2_on(&self, rows: &[Vec<f64>], ys: &[f64]) -> f64 {
        assert_eq!(rows.len(), ys.len());
        if ys.len() < 2 {
            return 0.0;
        }
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        if ss_tot <= 0.0 {
            return 0.0;
        }
        let ss_res: f64 = rows
            .iter()
            .zip(ys)
            .map(|(row, y)| (y - self.predict(row)).powi(2))
            .sum();
        1.0 - ss_res / ss_tot
    }
}

/// Fits `ys ~ 1 + rows` by least squares. Every row must have the same
/// number of predictors. Returns `None` when the system is singular
/// (e.g. a constant predictor column) or there are fewer rows than
/// parameters.
pub fn fit(rows: &[Vec<f64>], ys: &[f64]) -> Option<OlsFit> {
    assert_eq!(rows.len(), ys.len(), "rows/targets length mismatch");
    let n = rows.len();
    if n == 0 {
        return None;
    }
    let k = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == k), "ragged predictor rows");
    let p = k + 1; // plus intercept
    if n < p {
        return None;
    }

    // Normal equations: (XᵀX)β = Xᵀy with X = [1 | rows].
    let mut xtx = vec![vec![0.0f64; p]; p];
    let mut xty = vec![0.0f64; p];
    for (row, &y) in rows.iter().zip(ys) {
        let mut xi = Vec::with_capacity(p);
        xi.push(1.0);
        xi.extend_from_slice(row);
        for a in 0..p {
            xty[a] += xi[a] * y;
            for b in 0..p {
                xtx[a][b] += xi[a] * xi[b];
            }
        }
    }
    let beta = solve(&mut xtx, &mut xty)?;
    let model = OlsModel { intercept: beta[0], coeffs: beta[1..].to_vec() };
    let r2 = model.r2_on(rows, ys);
    Some(OlsFit { model, r2, n })
}

/// Gaussian elimination with partial pivoting; consumes its inputs.
fn solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col].abs().total_cmp(&a[j][col].abs())
        })?;
        if a[pivot][col].abs() < 1e-10 {
            return None; // singular
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            for (x, p) in lower[0][col..n].iter_mut().zip(&upper[col][col..n]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for c in (row + 1)..n {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2 + 3a − 0.5b
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 + 3.0 * r[0] - 0.5 * r[1]).collect();
        let fit = fit(&rows, &ys).unwrap();
        assert!((fit.model.intercept - 2.0).abs() < 1e-9);
        assert!((fit.model.coeffs[0] - 3.0).abs() < 1e-9);
        assert!((fit.model.coeffs[1] + 0.5).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_relation_r2_below_one() {
        // Deterministic "noise" via a hash-ish sequence.
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64 / 50.0]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 1.0 + 2.0 * r[0] + (((i * 7919) % 100) as f64 - 50.0) / 25.0)
            .collect();
        let fit = fit(&rows, &ys).unwrap();
        assert!(fit.r2 > 0.7 && fit.r2 < 1.0, "r2={}", fit.r2);
        assert!((fit.model.coeffs[0] - 2.0).abs() < 0.2);
    }

    #[test]
    fn singular_design_returns_none() {
        // Two identical predictor columns.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert!(fit(&rows, &ys).is_none());
        // Constant column is also singular with the intercept present.
        let rows2: Vec<Vec<f64>> = (0..50).map(|_| vec![4.0]).collect();
        assert!(fit(&rows2, &ys).is_none());
    }

    #[test]
    fn underdetermined_returns_none() {
        let rows = vec![vec![1.0, 2.0, 3.0]];
        let ys = vec![1.0];
        assert!(fit(&rows, &ys).is_none());
        assert!(fit(&[], &[]).is_none());
    }

    #[test]
    fn r2_on_heldout_data() {
        let train: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y_train: Vec<f64> = train.iter().map(|r| 5.0 + 2.0 * r[0]).collect();
        let fit = fit(&train, &y_train).unwrap();
        let test: Vec<Vec<f64>> = (100..150).map(|i| vec![i as f64]).collect();
        let y_test: Vec<f64> = test.iter().map(|r| 5.0 + 2.0 * r[0]).collect();
        assert!((fit.model.r2_on(&test, &y_test) - 1.0).abs() < 1e-9);
        // Wrong relation on held-out data gives low (even negative) R².
        let y_bad: Vec<f64> = test.iter().map(|r| -r[0]).collect();
        assert!(fit.model.r2_on(&test, &y_bad) < 0.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_checks_arity() {
        let m = OlsModel { intercept: 0.0, coeffs: vec![1.0, 2.0] };
        let _ = m.predict(&[1.0]);
    }
}
