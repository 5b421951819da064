//! Free functions on `&[f64]` vectors.
//!
//! The optimizer keeps its iterates as plain `Vec<f64>`; these helpers cover
//! the handful of BLAS-1 style operations it needs without pulling in a
//! vector wrapper type.
//!
//! # Examples
//!
//! ```
//! use ev_linalg::vecops;
//!
//! let x = [1.0, 2.0, 2.0];
//! assert_eq!(vecops::dot(&x, &x), 9.0);
//! assert_eq!(vecops::norm2(&x), 3.0);
//! ```

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖∞`.
#[must_use]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// In-place scaled accumulation `y ← y + a·x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Elementwise difference `x − y` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Scaled copy `a·x` as a new vector.
#[must_use]
pub fn scale(a: f64, x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| a * v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn sub_and_scale() {
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(0.5, &[2.0, 4.0]), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
