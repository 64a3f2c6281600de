//! Distributed factor matrices with the two layouts of Algorithm 3.
//!
//! For mode `i` on a grid with extent `I_i` and slice size `P/I_i`:
//!
//! * **Q layout** — `A^(i)` is partitioned by rows over *all* `P` ranks, in
//!   a nested fashion: the `⌈s_i/I_i⌉` rows belonging to slice `x_i` are
//!   themselves partitioned among the `P/I_i` ranks of that slice. Linear
//!   solves and Gram updates run on Q blocks.
//! * **P layout** — all ranks sharing grid coordinate `x_i` redundantly own
//!   the same `⌈s_i/I_i⌉` rows; local MTTKRPs read P blocks.
//!
//! A rank stores only its P block; its Q block is the P block's rows at
//! the rank's slice position, so [`DistFactor`] holds the geometry alone.
//! `commit` (Alg. 3 lines 17–18) All-Reduces the Gram of a new Q
//! block and All-Gathers the slice's Q blocks into the new P block;
//! `reduce_scatter_rows` (line 14) sums local MTTKRP contributions over the
//! slice and scatters Q rows. All padding rows are zero, so they are inert
//! in every contraction, Gram matrix, and solve.

use crate::dist::BlockDist;
use crate::grid::ProcGrid;
use pp_comm::Collectives;
use pp_tensor::Matrix;

/// Row-layout parameters for one mode's factor matrix on a given grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactorLayout {
    /// Global number of rows `s_i`.
    pub global_rows: usize,
    /// Grid extent `I_i` for this mode.
    pub grid_extent: usize,
    /// Ranks per slice, `P / I_i`.
    pub slice_size: usize,
    /// P-layout rows per rank: `⌈s_i / I_i⌉`.
    pub block: usize,
    /// Q-layout rows per rank: `⌈block / slice_size⌉`.
    pub sub: usize,
    /// Number of columns (the CP rank `R`).
    pub rank_cols: usize,
}

impl FactorLayout {
    /// Layout for mode `mode` of a tensor with extent `s` on `grid`.
    pub fn new(s: usize, grid: &ProcGrid, mode: usize, r: usize) -> Self {
        let grid_extent = grid.dim(mode);
        let slice_size = grid.slice_size(mode);
        let block = BlockDist::new(s, grid_extent).block();
        let sub = block.div_ceil(slice_size);
        FactorLayout {
            global_rows: s,
            grid_extent,
            slice_size,
            block,
            sub,
            rank_cols: r,
        }
    }

    /// Global row index of Q-row `l` on (grid coordinate `coord`, slice
    /// position `pos`), or `None` if it is padding.
    pub fn global_row(&self, coord: usize, pos: usize, l: usize) -> Option<usize> {
        debug_assert!(coord < self.grid_extent && pos < self.slice_size && l < self.sub);
        let within_block = pos * self.sub + l;
        if within_block >= self.block {
            return None;
        }
        let g = coord * self.block + within_block;
        (g < self.global_rows).then_some(g)
    }

    /// Global row index of P-row `l` on grid coordinate `coord`, or `None`
    /// if padding.
    pub fn global_p_row(&self, coord: usize, l: usize) -> Option<usize> {
        debug_assert!(coord < self.grid_extent && l < self.block);
        let g = coord * self.block + l;
        (g < self.global_rows).then_some(g)
    }
}

/// One rank's place in a distributed factor matrix: the layout, its grid
/// coordinate and its slice position. The rows themselves are the
/// caller's: a rank keeps its P block, and its Q block is that P block's
/// rows at the slice position ([`DistFactor::q_rows`]).
#[derive(Clone)]
pub struct DistFactor {
    layout: FactorLayout,
    /// This rank's grid coordinate for the factor's mode (`x_i`).
    coord: usize,
    /// This rank's position within its mode slice (0-based, by world rank).
    slice_pos: usize,
}

impl DistFactor {
    /// This rank's place in a factor of `layout`.
    pub fn new(layout: FactorLayout, coord: usize, slice_pos: usize) -> Self {
        DistFactor {
            layout,
            coord,
            slice_pos,
        }
    }

    /// Layout parameters.
    pub fn layout(&self) -> &FactorLayout {
        &self.layout
    }

    /// This rank's P block (`block × R`, zero-padded) of a replicated
    /// global factor (used at initialization: every rank generates the
    /// same seeded random matrix and takes its rows, which matches Alg. 3
    /// without a scatter).
    pub fn p_block(&self, global: &Matrix) -> Matrix {
        assert_eq!(global.rows(), self.layout.global_rows);
        assert_eq!(global.cols(), self.layout.rank_cols);
        let mut p = Matrix::zeros(self.layout.block, self.layout.rank_cols);
        for l in 0..self.layout.block {
            if let Some(g) = self.layout.global_p_row(self.coord, l) {
                p.row_mut(l).copy_from_slice(global.row(g));
            }
        }
        p
    }

    /// This rank's Q block (`sub × R`) of its P block `p`: the rows at its
    /// slice position (the All-Gather concatenates the slice's Q blocks in
    /// that order), zero past the block.
    pub fn q_rows(&self, p: &Matrix) -> Matrix {
        let (l, r) = (&self.layout, p.cols());
        let lo = (self.slice_pos * l.sub).min(l.block);
        let hi = (lo + l.sub).min(l.block);
        let mut rows = Matrix::zeros(l.sub, r);
        rows.data_mut()[..(hi - lo) * r].copy_from_slice(&p.data()[lo * r..hi * r]);
        rows
    }

    /// Install this rank's new Q block `q` (after a solve): zero its
    /// padding rows, All-Reduce the Gram `S^(i) = A^(i)ᵀ A^(i)` over
    /// `world` (Alg. 3 line 17) and All-Gather the slice's Q blocks into
    /// the new P block (line 18). Returns `(Gram, P block)`.
    pub fn commit<C: Collectives>(&self, mut q: Matrix, world: &C, slice: &C) -> (Matrix, Matrix) {
        let (l, r) = (&self.layout, self.layout.rank_cols);
        assert_eq!((q.rows(), q.cols()), (l.sub, r));
        assert_eq!(slice.size(), l.slice_size);
        for row in 0..l.sub {
            if l.global_row(self.coord, self.slice_pos, row).is_none() {
                q.row_mut(row).fill(0.0);
            }
        }
        let local = q.gram();
        let gram = Matrix::from_vec(r, r, world.all_reduce_sum(local.data()));
        // The concatenation covers ≥ block rows; keep the first `block`.
        let mut gathered = slice.all_gather(q.data());
        debug_assert_eq!(gathered.len(), l.sub * l.slice_size * r);
        gathered.truncate(l.block * r);
        (gram, Matrix::from_vec(l.block, r, gathered))
    }

    /// Reduce-Scatter local MTTKRP contributions (`block × R`, this rank's
    /// partial sums) over the mode slice; returns this rank's `sub × R`
    /// segment of the fully summed `M^(i)` (Alg. 3 line 14).
    pub fn reduce_scatter_rows<C: Collectives>(&self, m_local: &Matrix, slice: &C) -> Matrix {
        assert_eq!(slice.size(), self.layout.slice_size);
        assert_eq!(m_local.rows(), self.layout.block);
        assert_eq!(m_local.cols(), self.layout.rank_cols);
        let r = self.layout.rank_cols;
        let padded_rows = self.layout.sub * self.layout.slice_size;
        let mut buf = vec![0.0f64; padded_rows * r];
        buf[..self.layout.block * r].copy_from_slice(m_local.data());
        let counts = vec![self.layout.sub * r; self.layout.slice_size];
        let mine = slice.reduce_scatter_sum(&buf, &counts);
        Matrix::from_vec(self.layout.sub, r, mine)
    }

    /// Reassemble the global factor matrix from the Q rows of every rank's
    /// P block `p` (gathers over the world communicator).
    pub fn gather_global<C: Collectives>(
        &self,
        p: &Matrix,
        world: &C,
        grid: &ProcGrid,
        mode: usize,
    ) -> Matrix {
        let r = self.layout.rank_cols;
        let blocks = world.all_gather_v(self.q_rows(p).data());
        let mut out = Matrix::zeros(self.layout.global_rows, r);
        for (rank, block) in blocks.iter().enumerate() {
            let coords = grid.coords_of(rank);
            let members = grid.slice_members(mode, rank);
            let pos = members.iter().position(|&m| m == rank).unwrap();
            for l in 0..self.layout.sub {
                if let Some(g) = self.layout.global_row(coords[mode], pos, l) {
                    out.row_mut(g).copy_from_slice(&block[l * r..(l + 1) * r]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_comm::Runtime;
    use std::sync::Arc;

    fn global_factor(rows: usize, r: usize) -> Matrix {
        Matrix::from_fn(rows, r, |i, j| (i * r + j) as f64 + 1.0)
    }

    #[test]
    fn layout_row_maps_cover_all_rows() {
        let grid = ProcGrid::new(vec![2, 3]);
        let layout = FactorLayout::new(7, &grid, 0, 2);
        assert_eq!(layout.block, 4); // ceil(7/2)
        assert_eq!(layout.sub, 2); // ceil(4/3)
        let mut seen = [false; 7];
        for coord in 0..2 {
            for pos in 0..3 {
                for l in 0..2 {
                    if let Some(g) = layout.global_row(coord, pos, l) {
                        assert!(!seen[g]);
                        seen[g] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn p_block_and_q_rows_agree_with_global() {
        let grid = ProcGrid::new(vec![2, 2]);
        let layout = FactorLayout::new(5, &grid, 0, 3);
        let g = global_factor(5, 3);
        let f = DistFactor::new(layout, 1, 1);
        let p = f.p_block(&g);
        let q = f.q_rows(&p);
        for l in 0..layout.sub {
            match layout.global_row(1, 1, l) {
                Some(gr) => assert_eq!(q.row(l), g.row(gr)),
                None => assert!(q.row(l).iter().all(|&x| x == 0.0)),
            }
        }
        for l in 0..layout.block {
            match layout.global_p_row(1, l) {
                Some(gr) => assert_eq!(p.row(l), g.row(gr)),
                None => assert!(p.row(l).iter().all(|&x| x == 0.0)),
            }
        }
    }

    /// Every rank of a `grid` commits its Q rows of `g` on `mode`, with
    /// `poison` written into each padding row first; returns each rank's
    /// `(coordinate, Gram, P block)`.
    fn commit_all(
        grid: &Arc<ProcGrid>,
        g: &Arc<Matrix>,
        mode: usize,
        poison: f64,
    ) -> Vec<(usize, Matrix, Matrix)> {
        let (grid, g) = (grid.clone(), g.clone());
        let out = Runtime::new(grid.size()).run(move |ctx| {
            let layout = FactorLayout::new(g.rows(), &grid, mode, g.cols());
            let coord = grid.coords_of(ctx.rank())[mode];
            let slice = grid.slice_comm(&ctx.comm, mode);
            let f = DistFactor::new(layout, coord, slice.rank());
            let mut q = f.q_rows(&f.p_block(&g));
            for l in 0..layout.sub {
                if layout.global_row(coord, slice.rank(), l).is_none() {
                    q.row_mut(l).fill(poison);
                }
            }
            let (gram, p) = f.commit(q, &ctx.comm, &slice);
            (coord, gram, p)
        });
        out.results
    }

    #[test]
    fn commit_reconstructs_slice_block() {
        // Grid 2x2, factor on mode 0 with 5 rows: slices {0,1} and {2,3}.
        let grid = Arc::new(ProcGrid::new(vec![2, 2]));
        let g = Arc::new(global_factor(5, 2));
        for (rank, (coord, _, p)) in commit_all(&grid, &g, 0, 0.0).iter().enumerate() {
            let layout = FactorLayout::new(5, &grid, 0, 2);
            assert_eq!(
                *p,
                DistFactor::new(layout, *coord, 0).p_block(&g),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn commit_gram_matches_global_gram() {
        let grid = Arc::new(ProcGrid::new(vec![2, 2]));
        let g = Arc::new(global_factor(5, 3));
        let want = g.gram();
        for (_, got, _) in commit_all(&grid, &g, 1, 0.0) {
            assert!(got.max_abs_diff(&want) < 1e-10);
        }
    }

    /// Padding rows of a committed Q block are zeroed before the Gram and
    /// the gather: the Gram is the real rows' and the P block's padding
    /// rows are zero. Both kinds of padding occur: past the block within a
    /// slice (7 rows, 2 slices of 3 ranks: 6 Q rows for 4 P rows) and past
    /// the global rows (the second block holds rows 4–6 and one pad).
    #[test]
    fn commit_zeroes_padding_rows() {
        let grid = Arc::new(ProcGrid::new(vec![2, 3]));
        let g = Arc::new(global_factor(7, 2));
        let want = g.gram();
        let layout = FactorLayout::new(7, &grid, 0, 2);
        for (coord, gram, p) in commit_all(&grid, &g, 0, 1e3) {
            assert_eq!(gram, want);
            assert_eq!(p, DistFactor::new(layout, coord, 0).p_block(&g));
        }
    }

    #[test]
    fn reduce_scatter_sums_slice_contributions() {
        let grid = Arc::new(ProcGrid::new(vec![2, 2]));
        let out = Runtime::new(4).run({
            let grid = grid.clone();
            move |ctx| {
                let layout = FactorLayout::new(4, &grid, 0, 2);
                let coords = grid.coords_of(ctx.rank());
                let slice = grid.slice_comm(&ctx.comm, 0);
                let f = DistFactor::new(layout, coords[0], slice.rank());
                // Every rank contributes an all-ones block; sum = slice size.
                let ones = Matrix::from_fn(layout.block, 2, |_, _| 1.0);
                let q = f.reduce_scatter_rows(&ones, &slice);
                (ctx.rank(), q)
            }
        });
        for (_, q) in out.results {
            // slice_size = 2, sub = 1 → every entry is 2.0.
            assert_eq!(q.rows(), 1);
            assert!(q.data().iter().all(|&x| x == 2.0));
        }
    }

    #[test]
    fn gather_global_roundtrip() {
        let grid = Arc::new(ProcGrid::new(vec![2, 3]));
        let g = Arc::new(global_factor(7, 2));
        let out = Runtime::new(6).run({
            let grid = grid.clone();
            let g = g.clone();
            move |ctx| {
                let layout = FactorLayout::new(7, &grid, 0, 2);
                let coords = grid.coords_of(ctx.rank());
                let slice = grid.slice_comm(&ctx.comm, 0);
                let f = DistFactor::new(layout, coords[0], slice.rank());
                f.gather_global(&f.p_block(&g), &ctx.comm, &grid, 0)
            }
        });
        for got in out.results {
            assert!(got.max_abs_diff(&g) < 1e-12);
        }
    }
}
