//! Minimal complex arithmetic and small dense matrices.
//!
//! Implemented in-repo to keep the dependency set within the approved
//! offline list (see DESIGN.md); only what the statevector engine and the
//! VQE eigensolver need.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number, laid out as its two parts in
/// order (`#[repr(C)]`), so a slice of them reads as `f64` pairs.
///
/// ```
/// use qucp_sim::math::Complex;
/// let z = Complex::new(1.0, 2.0) * Complex::i();
/// assert!((z.re + 2.0).abs() < 1e-15);
/// assert!((z.im - 1.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates `re + i·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Zero.
    pub const fn zero() -> Self {
        Complex::new(0.0, 0.0)
    }

    /// One.
    pub const fn one() -> Self {
        Complex::new(1.0, 0.0)
    }

    /// The imaginary unit.
    pub const fn i() -> Self {
        Complex::new(0.0, 1.0)
    }

    /// A real number as a complex.
    pub const fn real(re: f64) -> Self {
        Complex::new(re, 0.0)
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Whether both parts are within `eps` of `other`'s.
    pub fn approx_eq(self, other: Complex, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, o: Complex) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, o: Complex) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, o: Complex) {
        *self = *self * o;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, k: f64) -> Complex {
        self.scale(k)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, k: f64) -> Complex {
        Complex::new(self.re / k, self.im / k)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// A 2×2 complex matrix (row-major).
pub type Mat2 = [[Complex; 2]; 2];

/// A 4×4 complex matrix (row-major).
pub type Mat4 = [[Complex; 4]; 4];

/// The 2×2 identity.
pub fn mat2_identity() -> Mat2 {
    let z = Complex::zero();
    let o = Complex::one();
    [[o, z], [z, o]]
}

/// Product of two 2×2 matrices.
pub fn mat2_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[Complex::zero(); 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            for (k, &bk) in b.iter().map(|r| &r[j]).enumerate() {
                *cell += a[i][k] * bk;
            }
        }
    }
    out
}

/// Conjugate transpose of a 2×2 matrix.
pub fn mat2_dagger(a: &Mat2) -> Mat2 {
    [
        [a[0][0].conj(), a[1][0].conj()],
        [a[0][1].conj(), a[1][1].conj()],
    ]
}

/// Kronecker product `a ⊗ b` of two 2×2 matrices (a acts on the
/// higher-order qubit).
pub fn kron2(a: &Mat2, b: &Mat2) -> Mat4 {
    let mut out = [[Complex::zero(); 4]; 4];
    for i in 0..2 {
        for j in 0..2 {
            for k in 0..2 {
                for l in 0..2 {
                    out[i * 2 + k][j * 2 + l] = a[i][j] * b[k][l];
                }
            }
        }
    }
    out
}

/// Whether `a` is unitary to tolerance `eps`.
pub fn mat2_is_unitary(a: &Mat2, eps: f64) -> bool {
    let prod = mat2_mul(a, &mat2_dagger(a));
    let id = mat2_identity();
    for i in 0..2 {
        for j in 0..2 {
            if !prod[i][j].approx_eq(id[i][j], eps) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((a.norm_sqr() - 5.0).abs() < 1e-15);
        assert!((a.abs() - 5f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn cis_is_on_unit_circle() {
        for k in 0..8 {
            let z = Complex::cis(k as f64 * 0.7);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
        let z = Complex::cis(std::f64::consts::FRAC_PI_2);
        assert!(z.approx_eq(Complex::i(), 1e-15));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex::one();
        z += Complex::i();
        z -= Complex::one();
        z *= Complex::i();
        assert!(z.approx_eq(Complex::new(-1.0, 0.0), 1e-15));
        assert_eq!(Complex::real(2.0) / 2.0, Complex::one());
        assert_eq!(Complex::one() * 3.0, Complex::real(3.0));
    }

    #[test]
    fn from_f64() {
        let z: Complex = 2.5f64.into();
        assert_eq!(z, Complex::new(2.5, 0.0));
    }

    #[test]
    fn display_signs() {
        assert_eq!(Complex::new(1.0, -0.5).to_string(), "1.000000-0.500000i");
        assert_eq!(Complex::new(0.0, 0.25).to_string(), "0.000000+0.250000i");
    }

    #[test]
    fn mat2_products() {
        let id = mat2_identity();
        let x: Mat2 = [
            [Complex::zero(), Complex::one()],
            [Complex::one(), Complex::zero()],
        ];
        assert_eq!(mat2_mul(&id, &x), x);
        assert_eq!(mat2_mul(&x, &x), id);
        assert!(mat2_is_unitary(&x, 1e-12));
    }

    #[test]
    fn dagger_of_phase() {
        let s: Mat2 = [
            [Complex::one(), Complex::zero()],
            [Complex::zero(), Complex::i()],
        ];
        let sd = mat2_dagger(&s);
        assert_eq!(sd[1][1], Complex::new(0.0, -1.0));
        assert!(mat2_is_unitary(&s, 1e-12));
    }

    #[test]
    fn kron_identity_structure() {
        let id = mat2_identity();
        let z: Mat2 = [
            [Complex::one(), Complex::zero()],
            [Complex::zero(), Complex::new(-1.0, 0.0)],
        ];
        let k = kron2(&id, &z);
        // diag(1,-1,1,-1)
        assert_eq!(k[0][0], Complex::one());
        assert_eq!(k[1][1], Complex::new(-1.0, 0.0));
        assert_eq!(k[2][2], Complex::one());
        assert_eq!(k[3][3], Complex::new(-1.0, 0.0));
    }

    #[test]
    fn non_unitary_detected() {
        let m: Mat2 = [
            [Complex::real(2.0), Complex::zero()],
            [Complex::zero(), Complex::one()],
        ];
        assert!(!mat2_is_unitary(&m, 1e-12));
    }
}
