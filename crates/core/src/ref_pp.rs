//! Cyclops-style reference parallel PP (the `PP-init-ref` /
//! `PP-approx-ref` baselines of Table I and Table II).
//!
//! The reference implementation (Ma & Solomonik 2018, built on Cyclops)
//! treats every contraction in the PP dimension tree as a general
//! distributed tensor contraction: Cyclops redistributes the operands to a
//! mapping that is efficient for each contraction, which inserts an
//! all-to-all style redistribution *between consecutive contractions*, and
//! its approximated step keeps correction matrices fully replicated,
//! reducing each `U^(n,i)` with its own world collective (`N²` collectives
//! per sweep instead of `N`).
//!
//! The functions here compute **identical results** to a
//! [`crate::ParSession`] in [`crate::ParKind::Pp`] (Algorithm 4) —
//! the extra collectives are semantically identity redistributions and
//! equivalent reductions — so the difference between the two is exactly
//! the communication overhead the paper's Table II quantifies.
//! `tests/comm_cost_crosscheck.rs` counts it on the comm ledger: per
//! approximated sweep and at initialization, against
//! [`ParSession::build_pp_operators`] plus locally summed corrections, both
//! followed by the same Reduce-Scatter. A wall-clock comparison composes
//! the same two calls.

use crate::ParSession;
use pp_comm::{Collectives, RankCtx};
use pp_dtree::correct::first_order_correction;
use pp_dtree::pp_tree::PpOperators;
use pp_tensor::Matrix;

/// Round-trip an intermediate's buffer through an All-to-All — the
/// redistribution Cyclops performs between consecutive contractions. The
/// data returns bit-identical (each rank keeps its own shard), so results
/// are unchanged while the communication cost is actually paid.
fn redistribute(ctx: &mut RankCtx, data: &[f64]) {
    let p = ctx.size();
    let chunk = data.len().div_ceil(p.max(1));
    let chunks: Vec<Vec<f64>> = (0..p)
        .map(|d| {
            let lo = (d * chunk).min(data.len());
            let hi = ((d + 1) * chunk).min(data.len());
            data[lo..hi].to_vec()
        })
        .collect();
    let _ = ctx.comm.all_to_all(chunks);
}

/// PP initialization with Cyclops-style redistribution costs: builds the
/// same local operators as Algorithm 4, then pays one redistribution per
/// operator (pairs and anchors) plus a full replication of every factor
/// matrix, mimicking the general-contraction data movement.
pub fn ref_pp_init(ctx: &mut RankCtx, s: &mut ParSession) -> PpOperators {
    // Cyclops-style: factor matrices replicated in full before contracting.
    for (f, p) in s.st.dist_factors.iter().zip(s.factors()) {
        let _ = ctx.comm.all_gather(f.q_rows(p).data());
    }
    let ops = s.build_pp_operators();
    // One redistribution per materialized operator.
    for pair in ops.pairs.values() {
        redistribute(ctx, pair.tensor.data());
    }
    for first in &ops.firsts {
        redistribute(ctx, first.data());
    }
    ops
}

/// One `ref` approximated factor update for mode `n`: identical math to
/// Algorithm 4's lines 4-8, but each first-order correction is reduced with
/// its own world All-Reduce over the *full* factor rows (N² collectives per
/// sweep), instead of being summed locally and Reduce-Scattered once.
pub fn ref_pp_approx_correction(
    ctx: &mut RankCtx,
    s: &ParSession,
    ops: &PpOperators,
    p_p: &[Matrix],
    n: usize,
) -> Matrix {
    let mut m_local = ops.firsts[n].clone();
    for (i, (p, p_ref)) in s.factors().iter().zip(p_p).enumerate() {
        if i == n {
            continue;
        }
        let d_p = p.sub(p_ref);
        let u = first_order_correction(ops, n, i, &d_p);
        // Reference pattern: reduce every correction separately across the
        // whole machine (then keep our own slice-summed copy so the final
        // result is identical to the efficient algorithm's).
        let _ = ctx.comm.all_reduce_sum(u.data());
        m_local.axpy(1.0, &u);
    }
    m_local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlsConfig;
    use crate::ParKind;
    use pp_comm::Runtime;
    use pp_datagen::lowrank::noisy_rank;
    use pp_grid::{DistTensor, ProcGrid};
    use std::sync::Arc;

    #[test]
    fn both_variants_produce_same_corrections() {
        let t = Arc::new(noisy_rank(&[8, 6, 8], 2, 0.05, 5));
        let grid = ProcGrid::new(vec![2, 1, 2]);
        let cfg = AlsConfig::new(2).with_max_sweeps(4).with_tol(0.0);
        let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
        let out = Runtime::from_env(4).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            let mut s = ParSession::new(ctx, &g2, &local, &c2, ParKind::Exact);
            let _ = s.step(ctx);
            let ops = s.build_pp_operators();
            let p_p = s.factors().to_vec();
            // Move the factors with one more sweep.
            let _ = s.step(ctx);
            // Ours: local sums.
            let mut ours = ops.firsts[0].clone();
            for (i, p_ref) in p_p.iter().enumerate().take(3).skip(1) {
                let d_p = s.factors()[i].sub(p_ref);
                ours.axpy(1.0, &first_order_correction(&ops, 0, i, &d_p));
            }
            // Reference path.
            let theirs = ref_pp_approx_correction(ctx, &s, &ops, &p_p, 0);
            ours.max_abs_diff(&theirs)
        });
        for diff in out.results {
            assert!(diff < 1e-12, "variants diverged: {diff}");
        }
    }
}
