//! Zero-noise extrapolation factories: Linear, Polynomial, Richardson
//! (the Mitiq factories the paper evaluates).
//!
//! Each factory fits expectation values measured at scale factors
//! `λ₁ < λ₂ < …` and extrapolates to the zero-noise limit `λ = 0`.

use std::fmt;

/// An extrapolation method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factory {
    /// Least-squares straight line; intercept at λ = 0.
    Linear,
    /// Least-squares polynomial of the given order.
    Poly(usize),
    /// Richardson extrapolation: the degree-(n−1) interpolating
    /// polynomial evaluated at λ = 0.
    Richardson,
}

impl fmt::Display for Factory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Factory::Linear => write!(f, "LinearFactory"),
            Factory::Poly(k) => write!(f, "PolyFactory({k})"),
            Factory::Richardson => write!(f, "RichardsonFactory"),
        }
    }
}

/// Errors from extrapolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtrapolationError {
    /// Fewer samples than the model needs.
    NotEnoughSamples {
        /// Samples required.
        needed: usize,
        /// Samples provided.
        got: usize,
    },
    /// Two samples share a scale factor (Richardson needs distinct
    /// nodes).
    DuplicateScale {
        /// The repeated scale factor (×1000, rounded — for Eq/Display).
        milli_scale: i64,
    },
}

impl fmt::Display for ExtrapolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtrapolationError::NotEnoughSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            ExtrapolationError::DuplicateScale { milli_scale } => {
                write!(f, "duplicate scale factor {}", *milli_scale as f64 / 1000.0)
            }
        }
    }
}

impl std::error::Error for ExtrapolationError {}

impl Factory {
    /// Extrapolates `(scale, value)` samples to scale zero.
    ///
    /// # Errors
    ///
    /// [`ExtrapolationError::NotEnoughSamples`] if the model is
    /// under-determined, [`ExtrapolationError::DuplicateScale`] if
    /// Richardson nodes coincide.
    pub fn extrapolate(&self, samples: &[(f64, f64)]) -> Result<f64, ExtrapolationError> {
        match self {
            Factory::Linear => polyfit_at_zero(samples, 1),
            Factory::Poly(k) => polyfit_at_zero(samples, *k),
            Factory::Richardson => richardson(samples),
        }
    }
}

/// All factories evaluated in the paper's Fig. 6 experiment.
pub fn standard_factories() -> Vec<Factory> {
    vec![Factory::Linear, Factory::Poly(2), Factory::Richardson]
}

/// Least-squares polynomial fit of `degree`, evaluated at zero (the
/// constant coefficient).
fn polyfit_at_zero(samples: &[(f64, f64)], degree: usize) -> Result<f64, ExtrapolationError> {
    let n = samples.len();
    if n < degree + 1 {
        return Err(ExtrapolationError::NotEnoughSamples {
            needed: degree + 1,
            got: n,
        });
    }
    // Normal equations A^T A c = A^T y with A[i][j] = x_i^j.
    let m = degree + 1;
    let mut ata = vec![vec![0.0f64; m]; m];
    let mut aty = vec![0.0f64; m];
    for &(x, y) in samples {
        let mut xi = vec![1.0f64; m];
        for j in 1..m {
            xi[j] = xi[j - 1] * x;
        }
        for r in 0..m {
            for c in 0..m {
                ata[r][c] += xi[r] * xi[c];
            }
            aty[r] += xi[r] * y;
        }
    }
    let coeffs = solve_linear(&mut ata, &mut aty)?;
    Ok(coeffs[0])
}

/// Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // pivoting logic reads clearer with indices
fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Result<Vec<f64>, ExtrapolationError> {
    let n = a.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return Err(ExtrapolationError::DuplicateScale {
                milli_scale: (a[pivot][col] * 1000.0).round() as i64,
            });
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for r in col + 1..n {
            let f = a[r][col] / a[col][col];
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for c in row + 1..n {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Richardson extrapolation: Lagrange interpolation evaluated at zero.
fn richardson(samples: &[(f64, f64)]) -> Result<f64, ExtrapolationError> {
    if samples.len() < 2 {
        return Err(ExtrapolationError::NotEnoughSamples {
            needed: 2,
            got: samples.len(),
        });
    }
    for (i, &(xi, _)) in samples.iter().enumerate() {
        for &(xj, _) in &samples[i + 1..] {
            if (xi - xj).abs() < 1e-12 {
                return Err(ExtrapolationError::DuplicateScale {
                    milli_scale: (xi * 1000.0).round() as i64,
                });
            }
        }
    }
    let mut total = 0.0;
    for (i, &(xi, yi)) in samples.iter().enumerate() {
        let mut weight = 1.0;
        for (j, &(xj, _)) in samples.iter().enumerate() {
            if i != j {
                weight *= (0.0 - xj) / (xi - xj);
            }
        }
        total += weight * yi;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_recovers_exact_line() {
        // y = 0.9 − 0.2 λ → intercept 0.9.
        let samples: Vec<(f64, f64)> = [1.0, 1.5, 2.0, 2.5]
            .iter()
            .map(|&x| (x, 0.9 - 0.2 * x))
            .collect();
        let v = Factory::Linear.extrapolate(&samples).unwrap();
        assert!((v - 0.9).abs() < 1e-10);
    }

    #[test]
    fn poly_recovers_exact_quadratic() {
        let samples: Vec<(f64, f64)> = [1.0, 1.5, 2.0, 2.5]
            .iter()
            .map(|&x| (x, 0.8 - 0.1 * x - 0.05 * x * x))
            .collect();
        let v = Factory::Poly(2).extrapolate(&samples).unwrap();
        assert!((v - 0.8).abs() < 1e-9);
    }

    #[test]
    fn richardson_interpolates_exactly() {
        // Cubic through 4 points: Richardson must hit the intercept.
        let f = |x: f64| 0.7 - 0.3 * x + 0.04 * x * x - 0.01 * x * x * x;
        let samples: Vec<(f64, f64)> = [1.0, 1.5, 2.0, 2.5].iter().map(|&x| (x, f(x))).collect();
        let v = Factory::Richardson.extrapolate(&samples).unwrap();
        assert!((v - 0.7).abs() < 1e-9, "{v}");
    }

    #[test]
    fn exponential_decay_improves_with_order() {
        // y = e^{-λ}: intercept 1. Higher-order models fit better.
        let samples: Vec<(f64, f64)> = [1.0f64, 1.5, 2.0, 2.5]
            .iter()
            .map(|&x| (x, (-x).exp()))
            .collect();
        let lin = (Factory::Linear.extrapolate(&samples).unwrap() - 1.0).abs();
        let ric = (Factory::Richardson.extrapolate(&samples).unwrap() - 1.0).abs();
        assert!(ric < lin, "richardson {ric} should beat linear {lin}");
    }

    #[test]
    fn not_enough_samples_rejected() {
        let e = Factory::Poly(2)
            .extrapolate(&[(1.0, 0.5), (2.0, 0.4)])
            .unwrap_err();
        assert!(matches!(
            e,
            ExtrapolationError::NotEnoughSamples { needed: 3, got: 2 }
        ));
        let e = Factory::Richardson.extrapolate(&[(1.0, 0.5)]).unwrap_err();
        assert!(matches!(e, ExtrapolationError::NotEnoughSamples { .. }));
    }

    #[test]
    fn duplicate_scales_rejected_by_richardson() {
        let e = Factory::Richardson
            .extrapolate(&[(1.0, 0.5), (1.0, 0.4), (2.0, 0.3)])
            .unwrap_err();
        assert!(matches!(e, ExtrapolationError::DuplicateScale { .. }));
    }

    #[test]
    fn display_names() {
        assert_eq!(Factory::Linear.to_string(), "LinearFactory");
        assert_eq!(Factory::Poly(2).to_string(), "PolyFactory(2)");
        assert_eq!(Factory::Richardson.to_string(), "RichardsonFactory");
        assert_eq!(standard_factories().len(), 3);
    }

    #[test]
    fn min_samples() {
        // Each factory rejects one sample fewer than it needs and fits
        // with exactly that many.
        let line: Vec<(f64, f64)> = (1..=4).map(|x| (x as f64, 1.0 - 0.1 * x as f64)).collect();
        for (factory, needed) in [
            (Factory::Linear, 2),
            (Factory::Poly(3), 4),
            (Factory::Richardson, 2),
        ] {
            let e = factory.extrapolate(&line[..needed - 1]).unwrap_err();
            assert!(
                matches!(e, ExtrapolationError::NotEnoughSamples { needed: n, .. } if n == needed)
            );
            assert!(factory.extrapolate(&line[..needed]).is_ok());
        }
    }

    #[test]
    fn error_display() {
        let e = ExtrapolationError::NotEnoughSamples { needed: 3, got: 1 };
        assert!(e.to_string().contains("at least 3"));
    }
}
