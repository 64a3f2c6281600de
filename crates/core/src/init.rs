//! Factor-matrix initialization.
//!
//! The paper initializes uniformly at random (Alg. 1 line 2), and so does
//! every session, rank and job here: the factors are a function of the
//! extents, the rank and the seed alone.

use pp_tensor::rng::{seeded, uniform_matrix};
use pp_tensor::Matrix;

/// Uniform `[0,1)` random factors for a tensor of extents `dims` (Alg. 1
/// line 2): the initialization every session and rank starts from.
pub fn init_factors(dims: &[usize], rank: usize, seed: u64) -> Vec<Matrix> {
    let mut rng = seeded(seed);
    dims.iter()
        .map(|&d| uniform_matrix(d, rank, &mut rng))
        .collect()
}
