//! Symmetric positive (semi-)definite solves for the ALS normal equations.
//!
//! Each ALS subproblem updates `A^(n) ← M^(n) Γ^(n)†` where
//! `Γ^(n) = S^(1) ∗ ... ∗ S^(N)` (skipping `n`) is an `R × R` symmetric PSD
//! matrix. We factor `Γ = L Lᵀ` by Cholesky; when Γ is numerically
//! rank-deficient (common at high collinearity) we fall back to the
//! pseudo-inverse through a cyclic Jacobi symmetric eigendecomposition —
//! the role ScaLAPACK's SPD solvers play in the paper.
//!
//! The matmuls on this path — Gram formation (`Matrix::gram`), the
//! pseudo-inverse reconstruction `V diag(λ⁺) Vᵀ`, and the `M·Γ⁺` RHS
//! product — all route through the packed register-tiled GEMM engine
//! (`crate::gemm`); only the O(R³) triangular factor/solve loops stay
//! scalar, as `R ≤ ~50` keeps them off the profile.

use crate::gemm::{gemm, Trans};
use crate::matrix::Matrix;
use rayon::prelude::*;

/// Cholesky factorization `G = L Lᵀ` (lower L). Returns `None` if a pivot
/// is not sufficiently positive, signalling the pseudo-inverse fallback.
pub fn cholesky(g: &Matrix) -> Option<Matrix> {
    let n = g.rows();
    assert_eq!(n, g.cols(), "cholesky needs a square matrix");
    let mut l = Matrix::zeros(n, n);
    // Scale-aware pivot tolerance.
    let max_diag = (0..n).map(|i| g.get(i, i)).fold(0.0f64, f64::max);
    let tol = max_diag.max(1.0) * 1e-13 * n as f64;
    for j in 0..n {
        let mut d = g.get(j, j);
        for k in 0..j {
            let v = l.get(j, k);
            d -= v * v;
        }
        if d <= tol {
            return None;
        }
        let dj = d.sqrt();
        l.set(j, j, dj);
        for i in j + 1..n {
            let mut v = g.get(i, j);
            for k in 0..j {
                v -= l.get(i, k) * l.get(j, k);
            }
            l.set(i, j, v / dj);
        }
    }
    Some(l)
}

/// Solve `x L = b` ... internal: given lower-triangular `L` from
/// `G = L Lᵀ`, overwrite a row vector `b` with `b G⁻¹` via two triangular
/// solves: first `y Lᵀ = b` then `x L = y`, both expressed row-wise.
fn solve_row_in_place(l: &Matrix, row: &mut [f64]) {
    let n = l.rows();
    // Solve y such that y * L^T = row  ⇔  L y^T = row^T  (forward subst).
    for i in 0..n {
        let mut v = row[i];
        for (k, &r) in row[..i].iter().enumerate() {
            v -= l.get(i, k) * r;
        }
        row[i] = v / l.get(i, i);
    }
    // Solve x such that x * L = y  ⇔  L^T x^T = y^T  (backward subst).
    for i in (0..n).rev() {
        let mut v = row[i];
        for (k, &r) in row.iter().enumerate().take(n).skip(i + 1) {
            v -= l.get(k, i) * r;
        }
        row[i] = v / l.get(i, i);
    }
}

/// Symmetric eigendecomposition by cyclic Jacobi rotations.
/// Returns `(eigenvalues, V)` with `G = V diag(λ) Vᵀ`, V's columns the
/// eigenvectors. Intended for the small `R × R` Γ matrices.
pub fn jacobi_eigh(g: &Matrix, max_sweeps: usize) -> (Vec<f64>, Matrix) {
    let n = g.rows();
    assert_eq!(n, g.cols());
    let mut a = g.clone();
    let mut v = Matrix::identity(n);
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                off += a.get(p, q) * a.get(p, q);
            }
        }
        if off.sqrt() < 1e-14 * (1.0 + a_norm(&a)) {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation to rows/cols p and q of A.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let eig = (0..n).map(|i| a.get(i, i)).collect();
    (eig, v)
}

fn a_norm(a: &Matrix) -> f64 {
    a.data().iter().map(|x| x.abs()).fold(0.0, f64::max)
}

/// Moore-Penrose pseudo-inverse of a symmetric PSD matrix via Jacobi.
pub fn pinv_sym(g: &Matrix) -> Matrix {
    let n = g.rows();
    let (eig, v) = jacobi_eigh(g, 50);
    let max_eig = eig.iter().cloned().fold(0.0f64, f64::max);
    let cutoff = max_eig.max(0.0) * 1e-12 * n as f64;
    // pinv = V diag(1/λ over cutoff) Vᵀ
    let mut vinv = v.clone(); // will hold V * diag(λ⁺)
    for (j, &lam) in eig.iter().enumerate() {
        let inv = if lam > cutoff { 1.0 / lam } else { 0.0 };
        for i in 0..n {
            let val = vinv.get(i, j) * inv;
            vinv.set(i, j, val);
        }
    }
    let mut out = Matrix::zeros(n, n);
    gemm(Trans::No, Trans::Yes, 1.0, &vinv, &v, 0.0, &mut out);
    out
}

/// How the normal-equation solve was carried out, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveMethod {
    /// Cholesky succeeded (the common case).
    Cholesky,
    /// Γ was numerically singular; pseudo-inverse fallback used.
    PseudoInverse,
}

/// Compute `M Γ†` — the ALS factor update `A^(n) ← M^(n) Γ^(n)†` — for a
/// row-distributed `M` (each caller passes the rows it owns). Rows are
/// solved independently in parallel.
pub fn solve_gram(gamma: &Matrix, m: &Matrix) -> (Matrix, SolveMethod) {
    assert_eq!(gamma.rows(), gamma.cols());
    assert_eq!(
        m.cols(),
        gamma.rows(),
        "RHS column count must equal Γ order"
    );
    match cholesky(gamma) {
        Some(l) => {
            let mut out = m.clone();
            let cols = out.cols();
            let rows = out.rows();
            // Two triangular solves per row ≈ 2·R² flops; the persistent
            // pool makes dispatch cheap enough to fan out 4× earlier than
            // under per-call spawning (2^17), in multi-row chunks claimed
            // dynamically.
            let nthreads = rayon::current_num_threads().max(1);
            if rows * cols * cols >= 1 << 15 && nthreads > 1 {
                let rows_per_chunk = rows.div_ceil(nthreads * 4).max(1);
                out.data_mut()
                    .par_chunks_mut(rows_per_chunk * cols)
                    .for_each(|block| {
                        for row in block.chunks_mut(cols) {
                            solve_row_in_place(&l, row);
                        }
                    });
            } else {
                for row in out.data_mut().chunks_mut(cols) {
                    solve_row_in_place(&l, row);
                }
            }
            (out, SolveMethod::Cholesky)
        }
        None => {
            let pinv = pinv_sym(gamma);
            let mut out = Matrix::zeros(m.rows(), m.cols());
            gemm(Trans::No, Trans::No, 1.0, m, &pinv, 0.0, &mut out);
            (out, SolveMethod::PseudoInverse)
        }
    }
}

/// Flop count for the solve path: one `R³/3` factorization plus `2 R²` per
/// RHS row (used by the cost ledger).
pub fn solve_flops(r: usize, rhs_rows: usize) -> u64 {
    let r = r as u64;
    r * r * r / 3 + 2 * r * r * rhs_rows as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // A^T A + n*I is comfortably SPD.
        let a = Matrix::from_fn(n + 2, n, |i, j| {
            let x = (i as u64 * 2654435761 + j as u64 * 97 + seed) % 1000;
            x as f64 / 500.0 - 1.0
        });
        let mut g = a.gram();
        for i in 0..n {
            let v = g.get(i, i) + n as f64 * 0.1;
            g.set(i, i, v);
        }
        g
    }

    #[test]
    fn cholesky_reconstructs() {
        let g = spd(6, 3);
        let l = cholesky(&g).expect("SPD matrix must factor");
        let mut llt = Matrix::zeros(6, 6);
        gemm(Trans::No, Trans::Yes, 1.0, &l, &l, 0.0, &mut llt);
        assert!(llt.max_abs_diff(&g) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_singular() {
        let mut g = Matrix::zeros(3, 3);
        g.set(0, 0, 1.0);
        g.set(1, 1, 1.0); // rank 2
        assert!(cholesky(&g).is_none());
    }

    #[test]
    fn solve_gram_recovers_solution() {
        let g = spd(5, 7);
        // Pick X, form M = X G, solve back.
        let x = Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f64 / 3.0 - 2.0);
        let mut m = Matrix::zeros(4, 5);
        gemm(Trans::No, Trans::No, 1.0, &x, &g, 0.0, &mut m);
        let (got, method) = solve_gram(&g, &m);
        assert_eq!(method, SolveMethod::Cholesky);
        assert!(got.max_abs_diff(&x) < 1e-8);
    }

    #[test]
    fn jacobi_eigh_diagonalizes() {
        let g = spd(5, 11);
        let (eig, v) = jacobi_eigh(&g, 50);
        // Check G v_j = λ_j v_j for each column.
        for (j, &lam) in eig.iter().enumerate() {
            let vj = v.col(j);
            for i in 0..5 {
                let gv: f64 = (0..5).map(|k| g.get(i, k) * vj[k]).sum();
                assert!((gv - lam * vj[i]).abs() < 1e-8, "eigpair {j}");
            }
        }
    }

    #[test]
    fn pinv_on_singular_matrix() {
        // Rank-1 PSD matrix: g = u uᵀ.
        let u = [1.0, 2.0, 3.0];
        let g = Matrix::from_fn(3, 3, |i, j| u[i] * u[j]);
        let p = pinv_sym(&g);
        // G P G = G for the Moore-Penrose inverse.
        let gp = g.matmul(&p);
        let gpg = gp.matmul(&g);
        assert!(gpg.max_abs_diff(&g) < 1e-8);
    }

    #[test]
    fn solve_path_routes_through_packed_gemm() {
        // Gram formation and the pseudo-inverse fallback must issue their
        // matmuls through the packed engine, where the perf work lives.
        let a = Matrix::from_fn(40, 16, |i, j| ((i * 7 + j * 3) % 13) as f64 / 6.0 - 1.0);
        let (products, madds) = crate::gemm::tally::read();
        let _ = a.gram(); // 16×16 via a Trans::Yes GEMM
        let (after, after_madds) = crate::gemm::tally::read();
        assert_eq!(after - products, 1);
        assert_eq!(after_madds - madds, 16 * 16 * 40);

        let u: Vec<f64> = (0..3).map(|i| (i + 1) as f64).collect();
        let sing = Matrix::from_fn(3, 3, |i, j| u[i] * u[j]);
        let m = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let (products, _) = crate::gemm::tally::read();
        let (_, method) = solve_gram(&sing, &m);
        assert_eq!(method, SolveMethod::PseudoInverse);
        // pinv_sym's V·diag·Vᵀ plus the M·Γ⁺ product.
        let calls = crate::gemm::tally::read().0 - products;
        assert!(
            calls >= 2,
            "pinv path must go through gemm ({calls} products)"
        );
    }

    #[test]
    fn solve_gram_falls_back_on_singular() {
        let u = [1.0, -1.0];
        let g = Matrix::from_fn(2, 2, |i, j| u[i] * u[j]);
        let m = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let (out, method) = solve_gram(&g, &m);
        assert_eq!(method, SolveMethod::PseudoInverse);
        // The result must satisfy the normal equations in the least-squares
        // sense: out * G * G ≈ M * G (consistency on the range of G).
        let og = out.matmul(&g).matmul(&g);
        let mg = m.matmul(&g);
        assert!(og.max_abs_diff(&mg) < 1e-8);
    }
}
