//! The general least-squares fits: ordinary least squares with an intercept
//! ([`LinearModel`]), univariate polynomials ([`Polynomial`]) and polynomials fit per
//! segment of the input range ([`PiecewisePolynomial`]), each solving its own normal
//! equations from scratch.
//!
//! They are the executable reference that a `FixedDesign` solve and the profiles it fits
//! equal bit for bit, and nothing else: this file is compiled into tests only (simkit's
//! `regression` tests declare it as a module, the `tapas` profile tests include it by
//! path).

use simkit::regression::FitError;

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

/// Multivariate ordinary least squares: `y ≈ intercept + Σ coef_i · x_i`, fitted from
/// scratch: the building block of the polynomial and piecewise fits, and the reference a
/// [`FixedDesign`] solve is tested against.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coefficients: Vec<f64>,
}

impl Polynomial {
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

    /// Coefficients in ascending-degree order.
    #[must_use]
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

/// A univariate piecewise polynomial: the x-axis is split at breakpoints and an independent
/// polynomial is fit per segment.
#[derive(Debug, Clone, PartialEq)]
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
pub fn segment_index(breakpoints: &[f64], x: f64) -> usize {
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
