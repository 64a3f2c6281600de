//! Distributed dense tensors: each rank owns one padded block of the global
//! tensor, indexed by its grid coordinates (`𝓣_𝒫(x)` of §II-A). The ranks
//! are threads of one process, so a block that is one contiguous run of the
//! global (a grid split along the leading mode only, without padding) shares
//! the global's storage; every other block is a copy.

use crate::dist::BlockDist;
use crate::grid::ProcGrid;
use pp_comm::Collectives;
use pp_tensor::{DenseTensor, Shape};

/// The block of a global tensor owned by one rank.
///
/// The local tensor always has the padded shape `⌈s_1/I_1⌉ × ... ×
/// ⌈s_N/I_N⌉`; padding entries are zero and therefore contribute nothing to
/// contractions.
#[derive(Clone)]
pub struct DistTensor {
    global_shape: Shape,
    grid: ProcGrid,
    coords: Vec<usize>,
    dists: Vec<BlockDist>,
    local: DenseTensor,
}

impl DistTensor {
    /// Rank `rank`'s local block of a replicated global tensor. A block
    /// that is one run of the global — the whole block, no padding — shares
    /// the global's storage ([`DenseTensor::share_run`]: a refcount bump,
    /// where the run keeps the store's placement). Any other block is
    /// copied out, one contiguous run at a time, onto a fresh store.
    pub fn from_global(t: &DenseTensor, grid: &ProcGrid, rank: usize) -> Self {
        assert_eq!(t.order(), grid.order(), "tensor/grid order mismatch");
        let coords = grid.coords_of(rank);
        let dists: Vec<BlockDist> = (0..t.order())
            .map(|k| BlockDist::new(t.dim(k), grid.dim(k)))
            .collect();
        let local_shape = Shape::new(dists.iter().map(|d| d.block()).collect::<Vec<_>>());
        // A run that covers the whole block is its only one.
        let mut whole = None;
        for_each_run(&dists, &coords, |l, g, len| {
            if l == 0 && len == local_shape.len() {
                whole = Some(g);
            }
        });
        let shared = whole.and_then(|g| t.share_run(g, local_shape.clone()));
        let local = shared.unwrap_or_else(|| {
            // Padding stays the zeros the block is born as.
            let mut local = DenseTensor::zeros(local_shape);
            let (src, dst) = (t.data(), local.data_mut());
            for_each_run(&dists, &coords, |l, g, len| {
                dst[l..l + len].copy_from_slice(&src[g..g + len]);
            });
            local
        });
        DistTensor {
            global_shape: t.shape().clone(),
            grid: grid.clone(),
            coords,
            dists,
            local,
        }
    }

    /// The global tensor shape.
    pub fn global_shape(&self) -> &Shape {
        &self.global_shape
    }

    /// The processor grid.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// This rank's grid coordinates.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// Per-mode block distributions.
    pub fn dist(&self, k: usize) -> &BlockDist {
        &self.dists[k]
    }

    /// The local padded block.
    pub fn local(&self) -> &DenseTensor {
        &self.local
    }

    /// Reassemble the global tensor on every rank (all-gather of blocks).
    /// Test/diagnostic utility — not used by the scalable algorithms.
    pub fn gather_global<C: Collectives>(&self, world: &C) -> DenseTensor {
        assert_eq!(world.size(), self.grid.size());
        let blocks = world.all_gather_v(self.local.data());
        let mut out = DenseTensor::zeros(self.global_shape.clone());
        let dst = out.data_mut();
        for (rank, block) in blocks.iter().enumerate() {
            for_each_run(&self.dists, &self.grid.coords_of(rank), |l, g, len| {
                dst[g..g + len].copy_from_slice(&block[l..l + len]);
            });
        }
        out
    }
}

/// Visit the real (unpadded) entries of the block at grid position
/// `coords` as maximal contiguous runs: `run(local offset, global offset,
/// length)`, both offsets row-major. Behind the last mode that is split or
/// padded every mode is whole in the block and in the global tensor alike,
/// so a run spans that mode's real rows times everything after it — the
/// whole block for a grid split along mode 0 only.
fn for_each_run(dists: &[BlockDist], coords: &[usize], mut run: impl FnMut(usize, usize, usize)) {
    let n = dists.len();
    let real: Vec<usize> = (0..n).map(|k| dists[k].real_len(coords[k])).collect();
    if real.contains(&0) {
        return; // a block of padding only
    }
    let (mut lstride, mut gstride) = (vec![1usize; n], vec![1usize; n]);
    for k in (0..n - 1).rev() {
        lstride[k] = lstride[k + 1] * dists[k + 1].block();
        gstride[k] = gstride[k + 1] * dists[k + 1].global();
    }
    let j = (0..n)
        .rev()
        .find(|&k| dists[k].block() != dists[k].global())
        .unwrap_or(0);
    let len = real[j] * lstride[j];
    let origin: usize = (0..n)
        .map(|k| coords[k] * dists[k].block() * gstride[k])
        .sum();
    // Odometer over the modes before `j`, real rows only.
    let mut idx = vec![0usize; j];
    loop {
        let offset =
            |stride: &[usize]| -> usize { idx.iter().zip(stride).map(|(i, s)| i * s).sum() };
        run(offset(&lstride), origin + offset(&gstride), len);
        let mut k = j;
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < real[k] {
                break;
            }
            idx[k] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_comm::Runtime;
    use std::sync::Arc;

    /// The element-by-element walk `from_global` used to be: every local
    /// (padded) index mapped to its global one, or left zero.
    fn from_global_walk(t: &DenseTensor, grid: &ProcGrid, rank: usize) -> DenseTensor {
        let coords = grid.coords_of(rank);
        let dists: Vec<BlockDist> = (0..t.order())
            .map(|k| BlockDist::new(t.dim(k), grid.dim(k)))
            .collect();
        let shape = Shape::new(dists.iter().map(|d| d.block()).collect::<Vec<_>>());
        DenseTensor::from_fn(shape, |lidx| {
            let gidx: Option<Vec<usize>> = (0..lidx.len())
                .map(|k| dists[k].global_of(coords[k], lidx[k]))
                .collect();
            gidx.map_or(0.0, |g| t.get(&g))
        })
    }

    #[test]
    fn run_copies_equal_the_element_walk_bit_for_bit() {
        // Per rank: whether its block is one run of a store-backed global
        // that starts on a cache line, hence shared.
        let cases: [(&[usize], &[usize], &[bool]); 13] = [
            (&[5, 4, 3], &[2, 1, 1], &[true, false]), // rank 1 padded
            (&[5, 4, 3], &[2, 1, 2], &[false; 4]),    // padded first and last
            (&[5, 4, 3], &[1, 2, 1], &[false; 2]),    // unpadded middle split
            (&[5, 4, 3], &[3, 3, 2], &[false; 18]),   // padded everywhere
            (&[6, 4, 2], &[2, 1, 1], &[true, true]),  // unpadded
            (&[6, 3, 1], &[2, 1, 1], &[true, false]), // rank 1 off a cache line
            (&[5, 3], &[2, 2], &[false; 4]),          // padded
            (&[4, 6], &[2, 2], &[false; 4]),          // unpadded
            (&[3, 2], &[5, 1], &[true, false, false, false, false]), // empty blocks
            (&[7], &[3], &[true, false, false]),
            (&[5, 4, 3], &[1, 1, 1], &[true]),
            (&[4, 6], &[1, 1], &[true]),
            (&[7], &[1], &[true]),
        ];
        for (dims, grid, shares) in cases {
            let adopted = seq_tensor(dims.to_vec());
            let placed = adopted.clone();
            let grid = ProcGrid::new(grid.to_vec());
            assert_eq!(shares.len(), grid.size());
            for (t, on_store) in [(&placed, true), (&adopted, false)] {
                for (rank, &shared) in shares.iter().enumerate() {
                    let got = DistTensor::from_global(t, &grid, rank);
                    let want = from_global_walk(t, &grid, rank);
                    let what = format!("{dims:?} rank {rank}, on the store: {on_store}");
                    assert_eq!(got.local().shape(), want.shape());
                    let bits = |x: &DenseTensor| -> Vec<u64> {
                        x.data().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(got.local()), bits(&want), "{what}");
                    let at = got.local().data().as_ptr();
                    if on_store && shared {
                        let origin = t.data()[rank * want.len()..].as_ptr();
                        assert_eq!(at, origin, "{what}: shares the global");
                    } else {
                        assert!(!t.data().as_ptr_range().contains(&at), "{what}: a copy");
                    }
                }
            }
        }
    }

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(shape, (0..len).map(|x| x as f64 + 1.0).collect())
    }

    #[test]
    fn local_blocks_partition_global() {
        let t = seq_tensor(vec![4, 6]);
        let grid = ProcGrid::new(vec![2, 2]);
        // Collect all real entries across ranks; they must cover the tensor.
        let mut seen = vec![false; t.len()];
        for rank in 0..4 {
            let dt = DistTensor::from_global(&t, &grid, rank);
            let coords = grid.coords_of(rank);
            for lidx in dt.local().shape().indices() {
                let g0 = dt.dist(0).global_of(coords[0], lidx[0]);
                let g1 = dt.dist(1).global_of(coords[1], lidx[1]);
                if let (Some(g0), Some(g1)) = (g0, g1) {
                    assert_eq!(dt.local().get(&lidx), t.get(&[g0, g1]));
                    let lin = g0 * 6 + g1;
                    assert!(!seen[lin], "duplicate coverage");
                    seen[lin] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn padding_is_zero() {
        let t = seq_tensor(vec![5, 3]);
        let grid = ProcGrid::new(vec![2, 2]);
        // Rank 3 has grid coords (1,1).
        // Mode 0 block = 3 → rank row block [3,6) has one padded row (5).
        // Mode 1 block = 2 → col block [2,4) has one padded col (3).
        let dt = DistTensor::from_global(&t, &grid, 3);
        assert_eq!(dt.local().shape().dims(), &[3, 2]);
        assert_eq!(dt.local().get(&[2, 0]), 0.0); // padded row
        assert_eq!(dt.local().get(&[0, 1]), 0.0); // padded col
        assert_eq!(dt.local().get(&[0, 0]), t.get(&[3, 2]));
    }

    #[test]
    fn gather_roundtrip() {
        let t = Arc::new(seq_tensor(vec![5, 4, 3]));
        let _grid = ProcGrid::new(vec![2, 1, 2]);
        let t2 = t.clone();
        let out = Runtime::new(4).run(move |ctx| {
            let dt = DistTensor::from_global(&t2, &ProcGrid::new(vec![2, 1, 2]), ctx.rank());
            dt.gather_global(&ctx.comm)
        });
        for g in out.results {
            assert_eq!(g.data(), t.data());
        }
    }
}
