//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use sparsenn_linalg::{qr::qr, svd::jacobi_svd, truncated::truncated_svd, vector, Matrix};

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        prop::collection::vec(-10.0f32..10.0, m * n)
            .prop_map(move |data| Matrix::from_vec(m, n, data))
    })
}

/// `len` entries of which about `zero_pct` % are zeros, half of those
/// `-0.0`; the rest are finite values in `[-10, 10)`.
fn sparse_vec(len: usize, zero_pct: u32) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0u32..100, -10.0f32..10.0, 0u8..2), len).prop_map(move |cells| {
        cells
            .into_iter()
            .map(|(die, v, neg)| match (die < zero_pct, neg) {
                (false, _) => v,
                (true, 0) => 0.0,
                (true, _) => -0.0,
            })
            .collect()
    })
}

/// A `rows × cols` matrix with 1–37 rows (every remainder of a 4-row
/// blocking), a vector of length `cols`, each with 0–100 % zeros.
fn sparse_system() -> impl Strategy<Value = (Matrix, Vec<f32>)> {
    (1usize..=37, 1usize..=48, 0u32..=100, 0u32..=100).prop_flat_map(|(m, n, zm, zx)| {
        (sparse_vec(m * n, zm), sparse_vec(n, zx))
            .prop_map(move |(data, x)| (Matrix::from_vec(m, n, data), x))
    })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// matvec is linear: A(x + αy) = Ax + αAy.
    #[test]
    fn matvec_is_linear(a in matrix_strategy(12), alpha in -3.0f32..3.0) {
        let n = a.cols();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        let y: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos()).collect();
        let mut xy = x.clone();
        vector::axpy(alpha, &y, &mut xy);
        let lhs = a.matvec(&xy);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..a.rows() {
            let rhs = ax[i] + alpha * ay[i];
            prop_assert!((lhs[i] - rhs).abs() <= 1e-3 * (1.0 + rhs.abs()));
        }
    }

    /// `matvec` equals, bit for bit, one sequential dot product per row
    /// over all columns, whatever the share and sign of zeros in `x`.
    #[test]
    fn matvec_is_bit_identical_to_sequential_dots((a, x) in sparse_system()) {
        let want: Vec<f32> = (0..a.rows())
            .map(|i| {
                let mut acc = 0.0f32;
                for (&aij, &xj) in a.row(i).iter().zip(&x) {
                    acc += aij * xj;
                }
                acc
            })
            .collect();
        prop_assert_eq!(bits(&a.matvec(&x)), bits(&want));
    }

    /// `matmul_tn` equals, bit for bit, `transpose().matmul()`.
    #[test]
    fn matmul_tn_is_bit_identical_to_transpose_matmul(
        (a, b) in (1usize..=37, 1usize..=23, 1usize..=11, 0u32..=100).prop_flat_map(|(k, m, n, z)| {
            (sparse_vec(k * m, z), sparse_vec(k * n, 0)).prop_map(move |(a, b)| {
                (Matrix::from_vec(k, m, a), Matrix::from_vec(k, n, b))
            })
        })
    ) {
        let got = a.matmul_tn(&b);
        let want = a.transpose().matmul(&b);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
    }

    /// ⟨Ax, y⟩ = ⟨x, Aᵀy⟩ (adjoint identity links forward and backward pass).
    #[test]
    fn matvec_adjoint_identity(a in matrix_strategy(12)) {
        let x: Vec<f32> = (0..a.cols()).map(|i| (i as f32 * 0.9).sin()).collect();
        let y: Vec<f32> = (0..a.rows()).map(|i| (i as f32 * 0.4).cos()).collect();
        let lhs = vector::dot(&a.matvec(&x), &y);
        let rhs = vector::dot(&x, &a.matvec_t(&y));
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs()));
    }

    /// QR reconstructs A.
    #[test]
    fn qr_reconstructs(a in matrix_strategy(10)) {
        let f = qr(&a);
        let err = a.sub(&f.q.matmul(&f.r)).frobenius_norm();
        prop_assert!(err <= 1e-3 * (1.0 + a.frobenius_norm()), "err {err}");
    }

    /// Jacobi SVD reconstructs A and keeps singular values sorted.
    #[test]
    fn svd_reconstructs_and_sorts(a in matrix_strategy(9)) {
        let svd = jacobi_svd(&a);
        let err = a.sub(&svd.reconstruct()).frobenius_norm();
        prop_assert!(err <= 1e-3 * (1.0 + a.frobenius_norm()), "err {err}");
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-5);
        }
        for &s in &svd.s {
            prop_assert!(s >= 0.0);
        }
    }

    /// The spectral content of the truncated SVD never exceeds the full one,
    /// and reconstruction error is bounded by the tail energy plus slack.
    #[test]
    fn truncated_error_bounded_by_tail(a in matrix_strategy(9), r in 1usize..4) {
        let full = jacobi_svd(&a);
        let r = r.min(full.s.len());
        let t = truncated_svd(&a, r, 11);
        let tail: f32 = full.s[r..].iter().map(|s| s * s).sum::<f32>().sqrt();
        let err = a.sub(&t.reconstruct()).frobenius_norm();
        // Randomized algorithms give (1+ε) approximations; allow 30 % + abs slack.
        prop_assert!(err <= 1.3 * tail + 1e-2 + 0.05 * a.frobenius_norm(),
            "err {err} tail {tail}");
    }

    /// Softmax is a probability distribution and argmax-invariant.
    #[test]
    fn softmax_properties(xs in prop::collection::vec(-30.0f32..30.0, 1..16)) {
        let p = vector::softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert_eq!(vector::argmax(&xs), vector::argmax(&p));
    }
}
