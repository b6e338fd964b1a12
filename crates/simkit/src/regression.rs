//! Least-squares regression models.
//!
//! The paper models the thermal and power behaviour of the datacenter with regressions fit to
//! three months of production telemetry (§2, Eq. 1–4), and its simulator uses piecewise
//! polynomial regression because it achieved a mean absolute error below 1 °C while
//! generalizing to unseen conditions better than random forests (§5.1). This module provides:
//!
//! * [`LinearModel`] — multivariate ordinary least squares with an intercept.
//! * [`Polynomial`] — univariate polynomial least squares of configurable degree.
//! * [`PiecewisePolynomial`] — univariate polynomials fit on contiguous segments of the input
//!   range. It is a fit only: a consumer reads the per-segment coefficients into the shape
//!   it evaluates, with the clamping outside the fitted range that the paper calls for (the
//!   model must not extrapolate wildly for unseen temperatures).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when a regression cannot be fit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// Fewer samples than unknown coefficients.
    TooFewSamples {
        /// Samples provided.
        provided: usize,
        /// Minimum required.
        required: usize,
    },
    /// The normal-equation system is singular (e.g. duplicated or constant features).
    Singular,
    /// Samples had inconsistent feature dimensions.
    DimensionMismatch {
        /// Dimension of the first sample.
        expected: usize,
        /// Dimension of the offending sample.
        found: usize,
    },
    /// A segment boundary list was invalid (unsorted or empty segments).
    InvalidSegments,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { provided, required } => {
                write!(
                    f,
                    "too few samples for fit: {provided} provided, {required} required"
                )
            }
            FitError::Singular => write!(f, "normal equations are singular"),
            FitError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, found {found}"
                )
            }
            FitError::InvalidSegments => write!(f, "invalid piecewise segment boundaries"),
        }
    }
}

impl std::error::Error for FitError {}

/// Solves the square linear system `a · x = b` in place using Gaussian elimination with
/// partial pivoting. Returns `None` when the matrix is (numerically) singular.
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    debug_assert!(a.len() == n && a.iter().all(|row| row.len() == n));
    for col in 0..n {
        // Partial pivot: find the row with the largest magnitude in this column.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, tail) = a.split_at_mut(row);
            let pivot = &pivot_rows[col];
            for (target, &coeff) in tail[0][col..n].iter_mut().zip(&pivot[col..n]) {
                *target -= factor * coeff;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Multivariate ordinary least squares: `y ≈ intercept + Σ coef_i · x_i`.
///
/// Used for the GPU-temperature model of Eq. (2), which is linear in the inlet temperature
/// and the GPU power draw, and as the building block for the piecewise models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
}

impl LinearModel {
    /// Fits the model to `(features, target)` samples by ordinary least squares.
    ///
    /// # Errors
    /// Returns [`FitError::TooFewSamples`] when there are fewer samples than coefficients,
    /// [`FitError::DimensionMismatch`] when samples disagree on dimension, and
    /// [`FitError::Singular`] when the design matrix is rank-deficient.
    pub fn fit(samples: &[(Vec<f64>, f64)]) -> Result<Self, FitError> {
        let dim = samples.first().map(|(x, _)| x.len()).unwrap_or(0);
        let unknowns = dim + 1;
        if samples.len() < unknowns {
            return Err(FitError::TooFewSamples {
                provided: samples.len(),
                required: unknowns,
            });
        }
        for (x, _) in samples {
            if x.len() != dim {
                return Err(FitError::DimensionMismatch {
                    expected: dim,
                    found: x.len(),
                });
            }
        }
        // Normal equations: (Xᵀ X) β = Xᵀ y with an implicit leading 1 column for the intercept.
        let mut xtx = vec![vec![0.0; unknowns]; unknowns];
        let mut xty = vec![0.0; unknowns];
        for (features, y) in samples {
            let mut row = Vec::with_capacity(unknowns);
            row.push(1.0);
            row.extend_from_slice(features);
            for i in 0..unknowns {
                xty[i] += row[i] * y;
                for j in 0..unknowns {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        let beta = solve_linear_system(xtx, xty).ok_or(FitError::Singular)?;
        Ok(Self {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
        })
    }

    /// Predicts the target for a feature vector.
    ///
    /// # Panics
    /// Panics if `features` has a different dimension than the model was fit with.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature dimension mismatch in predict"
        );
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(features)
                .map(|(c, x)| c * x)
                .sum::<f64>()
    }

    /// The fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted coefficients, one per feature.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

/// A univariate polynomial `y = c0 + c1·x + c2·x² + …` fit by least squares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polynomial {
    coefficients: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients in ascending-degree order.
    ///
    /// # Panics
    /// Panics if `coefficients` is empty.
    #[must_use]
    pub fn from_coefficients(coefficients: Vec<f64>) -> Self {
        assert!(
            !coefficients.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Self { coefficients }
    }

    /// Fits a polynomial of the given `degree` to `(x, y)` samples.
    ///
    /// # Errors
    /// Returns [`FitError::TooFewSamples`] or [`FitError::Singular`] as appropriate.
    pub fn fit(samples: &[(f64, f64)], degree: usize) -> Result<Self, FitError> {
        let expanded: Vec<(Vec<f64>, f64)> = samples
            .iter()
            .map(|&(x, y)| ((1..=degree).map(|d| x.powi(d as i32)).collect(), y))
            .collect();
        let linear = LinearModel::fit(&expanded)?;
        let mut coefficients = vec![linear.intercept()];
        coefficients.extend_from_slice(linear.coefficients());
        Ok(Self { coefficients })
    }

    /// Evaluates the polynomial at `x`.
    #[must_use]
    pub fn evaluate(&self, x: f64) -> f64 {
        // Horner's rule.
        self.coefficients
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc * x + c)
    }

    /// Coefficients in ascending-degree order.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

/// A univariate piecewise polynomial: the x-axis is split at breakpoints and an independent
/// polynomial is fit per segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiecewisePolynomial {
    /// One polynomial per segment, in breakpoint order.
    segments: Vec<Polynomial>,
}

impl PiecewisePolynomial {
    /// Fits one polynomial of the given `degree` per segment delimited by `breakpoints`.
    ///
    /// Samples outside the breakpoint range are assigned to the first/last segment so no data
    /// is discarded.
    ///
    /// # Errors
    /// Returns [`FitError::InvalidSegments`] for bad breakpoints, or propagates fitting errors
    /// from any segment (e.g. a segment with too few samples).
    pub fn fit(
        samples: &[(f64, f64)],
        breakpoints: &[f64],
        degree: usize,
    ) -> Result<Self, FitError> {
        if breakpoints.len() < 2 || breakpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FitError::InvalidSegments);
        }
        let n_segments = breakpoints.len() - 1;
        let mut buckets: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_segments];
        for &(x, y) in samples {
            let seg = segment_index(breakpoints, x);
            buckets[seg].push((x, y));
        }
        let mut segments = Vec::with_capacity(n_segments);
        for bucket in &buckets {
            segments.push(Polynomial::fit(bucket, degree)?);
        }
        Ok(Self { segments })
    }

    /// The per-segment polynomials.
    #[must_use]
    pub fn segments(&self) -> &[Polynomial] {
        &self.segments
    }
}

/// Index of the segment containing `x` (clamped to the valid segment range).
fn segment_index(breakpoints: &[f64], x: f64) -> usize {
    let n_segments = breakpoints.len() - 1;
    if x < breakpoints[0] {
        return 0;
    }
    for i in 0..n_segments {
        if x < breakpoints[i + 1] {
            return i;
        }
    }
    n_segments - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_recovers_exact_coefficients() {
        // y = 3 + 2*x1 - 0.5*x2
        let samples: Vec<(Vec<f64>, f64)> = (0..20)
            .map(|i| {
                let x1 = f64::from(i);
                let x2 = f64::from(i * i % 7);
                (vec![x1, x2], 3.0 + 2.0 * x1 - 0.5 * x2)
            })
            .collect();
        let model = LinearModel::fit(&samples).unwrap();
        assert!((model.intercept() - 3.0).abs() < 1e-8);
        assert!((model.coefficients()[0] - 2.0).abs() < 1e-8);
        assert!((model.coefficients()[1] + 0.5).abs() < 1e-8);
    }

    #[test]
    fn linear_model_rejects_too_few_samples() {
        let samples = vec![(vec![1.0, 2.0], 3.0)];
        assert!(matches!(
            LinearModel::fit(&samples),
            Err(FitError::TooFewSamples {
                provided: 1,
                required: 3
            })
        ));
    }

    #[test]
    fn linear_model_rejects_dimension_mismatch() {
        let samples = vec![
            (vec![1.0, 2.0], 3.0),
            (vec![1.0], 3.0),
            (vec![2.0, 1.0], 3.0),
        ];
        assert!(matches!(
            LinearModel::fit(&samples),
            Err(FitError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn linear_model_detects_singular_design() {
        // Second feature is an exact copy of the first -> singular normal equations.
        let samples: Vec<(Vec<f64>, f64)> = (0..10)
            .map(|i| {
                let x = f64::from(i);
                (vec![x, x], 2.0 * x)
            })
            .collect();
        assert_eq!(LinearModel::fit(&samples), Err(FitError::Singular));
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_panics_on_wrong_dimension() {
        let samples: Vec<(Vec<f64>, f64)> = (0..6)
            .map(|i| (vec![f64::from(i), f64::from(i * i)], f64::from(i)))
            .collect();
        let model = LinearModel::fit(&samples).unwrap();
        let _ = model.predict(&[1.0]);
    }

    #[test]
    fn polynomial_fits_quadratic_exactly() {
        // y = 1 - 2x + 0.5x^2
        let samples: Vec<(f64, f64)> = (-10..=10)
            .map(|i| {
                let x = f64::from(i);
                (x, 1.0 - 2.0 * x + 0.5 * x * x)
            })
            .collect();
        let poly = Polynomial::fit(&samples, 2).unwrap();
        assert_eq!(poly.coefficients().len(), 3);
        assert!((poly.coefficients()[0] - 1.0).abs() < 1e-8);
        assert!((poly.coefficients()[1] + 2.0).abs() < 1e-8);
        assert!((poly.coefficients()[2] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn polynomial_evaluate_uses_horner_correctly() {
        let poly = Polynomial::from_coefficients(vec![1.0, 0.0, 2.0]);
        assert_eq!(poly.evaluate(3.0), 1.0 + 2.0 * 9.0);
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn polynomial_rejects_empty_coefficients() {
        let _ = Polynomial::from_coefficients(vec![]);
    }

    #[test]
    fn piecewise_fits_different_regimes() {
        // Flat at 18 below x=15, rising with slope 0.8 between 15 and 25, rising with slope
        // 0.3 above 25 — the qualitative shape of the paper's inlet-temperature model (Fig. 3).
        let f = |x: f64| {
            if x < 15.0 {
                18.0
            } else if x < 25.0 {
                18.0 + 0.8 * (x - 15.0)
            } else {
                26.0 + 0.3 * (x - 25.0)
            }
        };
        let samples: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                let x = f64::from(i) * 0.1;
                (x, f(x))
            })
            .collect();
        let model = PiecewisePolynomial::fit(&samples, &[0.0, 15.0, 25.0, 40.0], 1).unwrap();
        // Each segment's samples lie on one line, so each fit recovers its `[c0, c1]`:
        // 18, 18 + 0.8 (x − 15) and 26 + 0.3 (x − 25).
        let lines = [[18.0, 0.0], [6.0, 0.8], [18.5, 0.3]];
        assert_eq!(model.segments().len(), lines.len());
        for (segment, line) in model.segments().iter().zip(lines) {
            assert_eq!(segment.coefficients().len(), 2);
            for (fitted, exact) in segment.coefficients().iter().zip(line) {
                assert!((fitted - exact).abs() < 1e-8, "{fitted} vs {exact}");
            }
        }
    }

    #[test]
    fn piecewise_rejects_bad_breakpoints() {
        let samples = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)];
        assert_eq!(
            PiecewisePolynomial::fit(&samples, &[5.0, 1.0], 1).unwrap_err(),
            FitError::InvalidSegments
        );
        assert_eq!(
            PiecewisePolynomial::fit(&samples, &[1.0], 1).unwrap_err(),
            FitError::InvalidSegments
        );
    }

    #[test]
    fn segment_index_edges() {
        let bp = [0.0, 10.0, 20.0];
        assert_eq!(segment_index(&bp, -5.0), 0);
        assert_eq!(segment_index(&bp, 0.0), 0);
        assert_eq!(segment_index(&bp, 9.99), 0);
        assert_eq!(segment_index(&bp, 10.0), 1);
        assert_eq!(segment_index(&bp, 20.0), 1);
        assert_eq!(segment_index(&bp, 99.0), 1);
    }

    #[test]
    fn fit_error_display() {
        assert!(FitError::Singular.to_string().contains("singular"));
        assert!(FitError::TooFewSamples {
            provided: 1,
            required: 2
        }
        .to_string()
        .contains("too few"));
    }
}
