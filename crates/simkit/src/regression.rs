//! Least-squares regression on a fixed design.
//!
//! The paper models the thermal and power behaviour of the datacenter with regressions fit to
//! three months of production telemetry (§2, Eq. 1–4), and its simulator uses piecewise
//! polynomial regression because it achieved a mean absolute error below 1 °C while
//! generalizing to unseen conditions better than random forests (§5.1). Offline profiling
//! samples every server on the same grids, so a fit is [`FixedDesign`]: the normal
//! equations of one grid are eliminated once, and each server's fit only solves for its
//! targets. A piecewise fit is one design per segment.
//!
//! The general fits (multivariate, polynomial and piecewise-polynomial least squares, each
//! solving its own normal equations) are kept in `regression/reference.rs` as the
//! executable reference a `FixedDesign` solve equals bit for bit; they are compiled into
//! tests only.

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

/// Least squares on a fixed design of `N` unknowns, for fits that share their samples'
/// regressors and differ only in the targets.
///
/// Building the design forms the normal equations' `XᵀX` and eliminates it once, with the
/// partial pivoting of the reference `LinearModel::fit`, recording each pivot swap, each
/// row factor and the upper triangle. [`Self::solve`] accumulates `Xᵀy` in sample order,
/// replays the swaps and factors on it and back-substitutes: the operations
/// `LinearModel::fit` runs on the same samples, in the same order, so the coefficients are
/// bit-identical. A solve allocates nothing.
#[derive(Debug, Clone)]
pub struct FixedDesign<const N: usize> {
    /// The design matrix `X`, one row of regressors per sample.
    rows: Box<[[f64; N]]>,
    /// Per elimination column, the row swapped into the pivot position.
    pivots: [usize; N],
    /// Per elimination column, the factor each later row was reduced by.
    factors: [[f64; N]; N],
    /// `XᵀX` after elimination (its upper triangle is read).
    upper: [[f64; N]; N],
}

impl<const N: usize> FixedDesign<N> {
    /// Factors the design with one row of regressors per sample: `[1, x₁, …]` for a model
    /// with an intercept.
    ///
    /// # Errors
    /// Returns [`FitError::TooFewSamples`] when there are fewer rows than unknowns and
    /// [`FitError::Singular`] when the design is rank-deficient.
    pub fn new(rows: impl IntoIterator<Item = [f64; N]>) -> Result<Self, FitError> {
        let rows: Box<[[f64; N]]> = rows.into_iter().collect();
        if rows.len() < N {
            return Err(FitError::TooFewSamples {
                provided: rows.len(),
                required: N,
            });
        }
        let mut a = [[0.0; N]; N];
        for row in &rows {
            for (a_row, &xi) in a.iter_mut().zip(row) {
                for (a_ij, &xj) in a_row.iter_mut().zip(row) {
                    *a_ij += xi * xj;
                }
            }
        }
        let mut pivots = [0; N];
        let mut factors = [[0.0; N]; N];
        for col in 0..N {
            let pivot_row = (col..N)
                .max_by(|&i, &j| {
                    a[i][col]
                        .abs()
                        .partial_cmp(&a[j][col].abs())
                        .expect("finite")
                })
                .expect("non-empty range");
            if a[pivot_row][col].abs() < 1e-12 {
                return Err(FitError::Singular);
            }
            a.swap(col, pivot_row);
            pivots[col] = pivot_row;
            let pivot = a[col];
            for (row, factor) in a[col + 1..].iter_mut().zip(&mut factors[col][col + 1..]) {
                *factor = row[col] / pivot[col];
                for (target, &coeff) in row[col..].iter_mut().zip(&pivot[col..]) {
                    *target -= *factor * coeff;
                }
            }
        }
        Ok(Self {
            rows,
            pivots,
            factors,
            upper: a,
        })
    }

    /// The design of a degree-`N − 1` polynomial: one row `[1, x, x², …]` per sample `x`,
    /// the powers taken as the reference `Polynomial::fit` takes them.
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn polynomial(xs: impl IntoIterator<Item = f64>) -> Result<Self, FitError> {
        Self::new(
            xs.into_iter()
                .map(|x| std::array::from_fn(|d| if d == 0 { 1.0 } else { x.powi(d as i32) })),
        )
    }

    /// The least-squares coefficients, in regressor order, for one target per design row.
    ///
    /// # Panics
    /// Panics if `targets` yields another number of values than the design has rows.
    #[must_use]
    pub fn solve(&self, targets: impl IntoIterator<Item = f64>) -> [f64; N] {
        let mut targets = targets.into_iter();
        let mut b = [0.0; N];
        for row in &self.rows {
            let y = targets.next().expect("one target per design row");
            for (b_i, &xi) in b.iter_mut().zip(row) {
                *b_i += xi * y;
            }
        }
        assert!(targets.next().is_none(), "one target per design row");
        for (col, (&pivot_row, factors)) in self.pivots.iter().zip(&self.factors).enumerate() {
            b.swap(col, pivot_row);
            let (head, tail) = b.split_at_mut(col + 1);
            for (target, &factor) in tail.iter_mut().zip(&factors[col + 1..]) {
                *target -= factor * head[col];
            }
        }
        let mut x = [0.0; N];
        for row in (0..N).rev() {
            let upper = &self.upper[row];
            let mut acc = b[row];
            for (&coeff, &solved) in upper[row + 1..].iter().zip(&x[row + 1..]) {
                acc -= coeff * solved;
            }
            x[row] = acc / upper[row];
        }
        x
    }
}

/// The general least-squares fits a [`FixedDesign`] solve is held to bit for bit.
#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{segment_index, LinearModel, PiecewisePolynomial, Polynomial};
    use super::*;
    use crate::rng::SimRng;

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

    /// A random design of `samples` rows `[1, x₁, …]` with features in `[−scale, scale)`
    /// and random targets, solved by [`FixedDesign`] and fitted by [`LinearModel::fit`]:
    /// the coefficients agree bit for bit. Returns whether the elimination swapped rows.
    fn solve_matches_reference<const N: usize>(
        rng: &mut SimRng,
        samples: usize,
        scale: f64,
    ) -> bool {
        let rows: Vec<[f64; N]> = (0..samples)
            .map(|_| {
                std::array::from_fn(|d| {
                    if d == 0 {
                        1.0
                    } else {
                        rng.uniform(-scale, scale)
                    }
                })
            })
            .collect();
        let targets: Vec<f64> = (0..samples).map(|_| rng.uniform(-50.0, 50.0)).collect();
        let reference = LinearModel::fit(
            &rows
                .iter()
                .zip(&targets)
                .map(|(row, &y)| (row[1..].to_vec(), y))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let design = FixedDesign::new(rows.iter().copied()).unwrap();
        let solved = design.solve(targets.iter().copied());
        let expected = [&[reference.intercept()], reference.coefficients()].concat();
        assert_eq!(
            solved.map(f64::to_bits).to_vec(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        design
            .pivots
            .iter()
            .enumerate()
            .any(|(col, &row)| row != col)
    }

    #[test]
    fn fixed_design_solves_equal_the_reference_fit_bit_for_bit() {
        let mut rng = SimRng::seed_from(11);
        let (mut cases, mut swapped) = (0, 0);
        for case in 0..100 {
            // With features near zero the intercept column keeps its pivot; with features
            // far from zero partial pivoting swaps rows.
            let scale = if case % 2 == 0 { 0.1 } else { 100.0 };
            let samples = rng.uniform_usize(3, 40);
            for swaps in [
                solve_matches_reference::<2>(&mut rng, samples, scale),
                solve_matches_reference::<3>(&mut rng, samples, scale),
            ] {
                cases += 1;
                swapped += usize::from(swaps);
            }
        }
        assert!(
            0 < swapped && swapped < cases,
            "{swapped} of {cases} swapped"
        );

        // A polynomial design takes its powers as `Polynomial::fit` does.
        let xs: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.6 + 4.9 * x * (0.3 + 0.7 * x)).collect();
        let samples: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        let solved = FixedDesign::<3>::polynomial(xs).unwrap().solve(ys);
        let reference = Polynomial::fit(&samples, 2).unwrap();
        assert_eq!(
            solved.map(f64::to_bits).to_vec(),
            reference
                .coefficients()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fixed_design_fails_where_the_reference_fit_fails() {
        let features = |rows: &[[f64; 3]]| -> Vec<(Vec<f64>, f64)> {
            rows.iter().map(|row| (row[1..].to_vec(), 1.0)).collect()
        };
        // A duplicated feature and a constant one: singular.
        let duplicated: Vec<[f64; 3]> =
            (0..10).map(|i| [1.0, f64::from(i), f64::from(i)]).collect();
        let constant: Vec<[f64; 3]> = (0..10).map(|i| [1.0, f64::from(i), 5.0]).collect();
        // Fewer samples than unknowns.
        let short = [[1.0, 2.0, 3.0], [1.0, 4.0, 7.0]];
        for rows in [&duplicated[..], &constant, &short] {
            let expected = LinearModel::fit(&features(rows)).unwrap_err();
            assert_eq!(
                FixedDesign::new(rows.iter().copied()).unwrap_err(),
                expected
            );
        }
        assert_eq!(
            FixedDesign::<3>::new(duplicated).unwrap_err(),
            FitError::Singular
        );
        assert_eq!(
            FixedDesign::new(short).unwrap_err(),
            FitError::TooFewSamples {
                provided: 2,
                required: 3
            }
        );
        assert_eq!(
            FixedDesign::<2>::new([[1.0, 2.0]]).unwrap_err(),
            LinearModel::fit(&[(vec![2.0], 1.0)]).unwrap_err()
        );
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
