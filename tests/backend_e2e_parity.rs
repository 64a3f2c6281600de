//! End-to-end determinism of the parallel sessions across comm backends:
//! every method must produce **bitwise identical** fitness traces (and
//! identical model-cost ledgers) whether the collectives run on the
//! rendezvous oracle or on the p2p channel transport. The p2p algorithms
//! move raw per-rank contributions and reduce them in ascending rank order
//! — exactly the summation order of the rendezvous oracle — so equality is
//! exact, not approximate.
//!
//! Also injects a rank panic under the p2p backend: the launcher must
//! report a rank-thread panic (peers blocked on the dead rank's channels
//! are poisoned awake), not hang.

use parallel_pp::comm::{Backend, CostCounters, Runtime};
use parallel_pp::core::ref_pp::{ref_pp_approx_correction, ref_pp_init};
use parallel_pp::core::{AlsConfig, AlsReport, ParKind, ParSession, SolveStrategy};
use parallel_pp::datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use parallel_pp::dtree::TreePolicy;
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::DenseTensor;
use std::sync::Arc;

fn workload() -> DenseTensor {
    let (t, _, _) = collinearity_tensor(
        &CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.4,
            hi: 0.6,
        },
        21,
    );
    t
}

fn base_cfg() -> AlsConfig {
    AlsConfig::new(3)
        .with_max_sweeps(8)
        .with_tol(0.0)
        .with_pp_tol(0.3)
}

/// Run one parallel method on both backends (P=4, 2×2×1 grid) and
/// assert the per-rank reports and model ledgers match bitwise.
fn assert_driver_parity(which: &str) {
    let t = Arc::new(workload());
    let grid = ProcGrid::new(vec![2, 2, 1]);
    let base = base_cfg();
    let (kind, cfg) = match which {
        "dt" => (ParKind::Exact, base),
        "msdt" => (ParKind::Exact, base.with_policy(TreePolicy::MultiSweep)),
        // PLANC: the standard tree with a replicated solve.
        "planc" => (
            ParKind::Exact,
            base.with_policy(TreePolicy::Standard)
                .with_solve(SolveStrategy::Replicated),
        ),
        "pp" => (ParKind::Pp, base.with_policy(TreePolicy::MultiSweep)),
        other => panic!("unknown method {other}"),
    };
    let run = |backend: Backend| -> (Vec<AlsReport>, Vec<CostCounters>) {
        let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
        let out = Runtime::with_backend(4, backend).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            ParSession::new(ctx, &g2, &local, &c2, kind).run(ctx).report
        });
        (out.results, out.costs)
    };
    let (rv, rv_costs) = run(Backend::Rendezvous);
    let (pp, pp_costs) = run(Backend::P2p);
    for (rank, (a, b)) in rv.iter().zip(pp.iter()).enumerate() {
        assert_eq!(
            a.sweeps.len(),
            b.sweeps.len(),
            "{which}: sweep count diverged on rank {rank}"
        );
        for (i, (sa, sb)) in a.sweeps.iter().zip(b.sweeps.iter()).enumerate() {
            assert_eq!(sa.kind, sb.kind, "{which}: sweep {i} kind, rank {rank}");
            assert_eq!(
                sa.fitness.to_bits(),
                sb.fitness.to_bits(),
                "{which}: fitness diverged at sweep {i} on rank {rank}: {} vs {}",
                sa.fitness,
                sb.fitness
            );
        }
        assert_eq!(
            a.final_fitness.to_bits(),
            b.final_fitness.to_bits(),
            "{which}: final fitness, rank {rank}"
        );
    }
    assert_eq!(rv_costs, pp_costs, "{which}: model ledgers diverged");
}

#[test]
fn par_cp_als_dt_trace_identical_across_backends() {
    assert_driver_parity("dt");
}

#[test]
fn par_cp_als_msdt_trace_identical_across_backends() {
    assert_driver_parity("msdt");
}

#[test]
fn planc_cp_als_trace_identical_across_backends() {
    assert_driver_parity("planc");
}

#[test]
fn par_pp_cp_als_trace_identical_across_backends() {
    assert_driver_parity("pp");
}

#[test]
fn ref_pp_corrections_identical_across_backends() {
    // The Cyclops-style reference path exercises all_gather, all_to_all
    // (redistribution), and per-correction all-reduces; its per-rank
    // correction matrices must come out bit-equal on both backends.
    let t = Arc::new(workload());
    let grid = ProcGrid::new(vec![2, 2, 1]);
    let cfg = base_cfg();
    let run = |backend: Backend| -> Vec<Vec<u64>> {
        let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
        let out = Runtime::with_backend(4, backend).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            let mut s = ParSession::new(ctx, &g2, &local, &c2, ParKind::Exact);
            let _ = s.step(ctx);
            let ops = ref_pp_init(ctx, &mut s);
            let p_p = s.factors().to_vec();
            // Move the factors with one more sweep.
            let _ = s.step(ctx);
            let mut bits = Vec::new();
            for n in 0..3 {
                let m = ref_pp_approx_correction(ctx, &s, &ops, &p_p, n);
                bits.extend(m.data().iter().map(|x| x.to_bits()));
            }
            bits
        });
        out.results
    };
    let rv = run(Backend::Rendezvous);
    let pp = run(Backend::P2p);
    for (rank, (a, b)) in rv.iter().zip(pp.iter()).enumerate() {
        assert_eq!(a, b, "ref-pp corrections diverged on rank {rank}");
    }
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn p2p_rank_panic_surfaces_instead_of_hanging() {
    // Fault injection through a real session: rank 2 dies mid-initialization
    // while its peers sit in session collectives on the channel transport.
    // The poison must wake them and the launcher must report the panic.
    let t = Arc::new(workload());
    let grid = ProcGrid::new(vec![2, 2, 1]);
    let cfg = base_cfg();
    let (t2, g2, c2) = (t, grid, cfg);
    let _ = Runtime::with_backend(4, Backend::P2p).run(move |ctx| {
        if ctx.rank() == 2 {
            panic!("injected rank failure");
        }
        let local = DistTensor::from_global(&t2, &g2, ctx.rank());
        ParSession::new(ctx, &g2, &local, &c2, ParKind::Exact)
            .run(ctx)
            .report
    });
}
