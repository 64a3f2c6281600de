//! # pp-tensor — dense tensor substrate
//!
//! The single-node tensor-algebra layer underneath the parallel CP
//! decomposition algorithms of Ma & Solomonik (IPDPS 2021): row-major dense
//! tensors and matrices, a blocked rayon-parallel GEMM (standing in for
//! MKL), blocked N-d transposes (standing in for HPTT), the TTM and batched
//! TTV contraction kernels that dimension trees are made of, Khatri-Rao and
//! Hadamard products, and symmetric positive-definite solves with a
//! pseudo-inverse fallback for the ALS normal equations.
//!
//! Layout convention: everything is row-major; dimension-tree intermediates
//! `𝓜^(S)` store the CP rank as a trailing mode.
//!
//! # Example
//!
//! ```
//! use pp_tensor::prelude::*;
//! use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};
//!
//! let mut rng = seeded(1);
//! let t = uniform_tensor(&[4, 5, 6], &mut rng);
//! let factors: Vec<Matrix> = [4, 5, 6]
//!     .iter()
//!     .map(|&d| uniform_matrix(d, 3, &mut rng))
//!     .collect();
//!
//! // MTTKRP for mode 0 equals a first-level TTM followed by a batched TTV.
//! let m_direct = mttkrp(&t, &factors, 0);
//! let inter = ttm(&t, 2, &factors[2]).tensor; // contract mode 2 → 𝓜^(0,1)
//! let m_tree = mttv(&inter, 1, &factors[1]).tensor; // contract mode 1
//! let m_tree = Matrix::from_vec(4, 3, m_tree.into_vec());
//! assert!(m_direct.max_abs_diff(&m_tree) < 1e-10);
//! ```

pub mod dense;
pub mod gemm;
pub mod kernels;
pub mod matrix;
pub mod rng;
pub mod semisparse;
pub mod shape;
pub(crate) mod simd;
pub mod solve;
pub mod sparse;
pub(crate) mod store;
pub mod transpose;
pub mod workspace;

pub use dense::DenseTensor;
pub use matrix::Matrix;
pub use semisparse::{SemiSparseTensor, TtmPlan};
pub use shape::Shape;
pub use sparse::{CsfTensor, SparseTensor};
pub use workspace::{Workspace, WorkspaceStats};

/// Commonly used items, for glob import in downstream crates and examples.
pub mod prelude {
    pub use crate::dense::DenseTensor;
    pub use crate::gemm::{gemm, gemm_slice, Trans};
    pub use crate::kernels::krp::{gamma, khatri_rao, reconstruct};
    pub use crate::kernels::mttv::mttv;
    pub use crate::kernels::naive::mttkrp;
    pub use crate::kernels::ttm::{ttm, ttm_first, ttm_last};
    pub use crate::matrix::{hadamard_chain_skip, Matrix};
    pub use crate::semisparse::{csf_ttm, semisparse_mttkrp, ss_mttv, SemiSparseTensor, TtmPlan};
    pub use crate::shape::Shape;
    pub use crate::solve::{solve_gram, SolveMethod};
    pub use crate::sparse::{sparse_mttkrp, CsfTensor, SparseTensor};
    pub use crate::transpose::{move_mode_first, move_mode_last, permute};
}
