//! Held workspace buffers count against the admission budget
//! (`AlsSession::cache_memory_elems`), and counting them changes nothing a
//! tenant can observe: under a `--cache-budget-mb 1` budget that admits
//! exactly two of these four dense tenants at a time, the single-driver
//! schedule and every tenant's factors are the ones the scheduler produced
//! before sessions had a workspace (the literals below were recorded at
//! that commit).

use pp_core::SweepKind;
use pp_serve::{parse_manifest, run_batch, ServeConfig};

/// Any two estimates fit 131 072 elements, any three do not.
const MANIFEST: &str = "\
job name=a method=msdt rank=12 sweeps=5 tol=0.0 dims=48x48x24 gen-rank=6 noise=0.05 data-seed=21 seed=31
job name=b method=dt   rank=12 sweeps=4 tol=0.0 dims=48x40x24 gen-rank=6 noise=0.05 data-seed=22 seed=32
job name=c method=pp   rank=6  sweeps=9 tol=0.0 pp-tol=0.3 dataset=collinearity s=14 order=4 r=6 lo=0.5 hi=0.7 data-seed=23 seed=33
job name=d method=msdt rank=12 sweeps=4 tol=0.0 dims=40x48x24 gen-rank=6 noise=0.05 data-seed=24 seed=34
";

/// `--cache-budget-mb 1`, as `ppcp batch` converts it.
const BUDGET_ELEMS: usize = 1024 * 1024 / 8;

const SCHEDULE: &str = "a0e b0e a1e b1e a2e b2e a3e b3e a4e c0e d0e c1e d1e c2i d2e c3a d3e c4a \
                        c5e c6i c7a c8a";

const FACTOR_FNV: [u64; 4] = [
    0xc101_5b65_9089_3223,
    0xdc00_bbd8_3ae2_e502,
    0x5e1f_d901_e160_3fdc,
    0xefa7_4212_6e5c_30b0,
];

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_budget_for_two_dense_tenants_schedules_as_it_did_before_the_workspace() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    let est: Vec<usize> = jobs.iter().map(|j| j.est_cache_elems()).collect();
    for i in 0..jobs.len() {
        for j in i + 1..jobs.len() {
            assert!(est[i] + est[j] <= BUDGET_ELEMS, "jobs {i} and {j} must fit");
            for k in j + 1..jobs.len() {
                assert!(est[i] + est[j] + est[k] > BUDGET_ELEMS, "{i},{j},{k}");
            }
        }
    }
    let cfg = ServeConfig::new(4).with_cache_budget_elems(BUDGET_ELEMS);
    let report = run_batch(&jobs, &cfg).unwrap();
    assert_eq!(report.completed(), 4);

    let schedule: Vec<String> = report
        .schedule
        .iter()
        .map(|e| {
            let kind = match e.kind {
                SweepKind::Exact => 'e',
                SweepKind::PpInit => 'i',
                SweepKind::PpApprox => 'a',
            };
            format!("{}{}{kind}", jobs[e.job].name, e.sweep)
        })
        .collect();
    assert_eq!(schedule.join(" "), SCHEDULE);

    let factors: Vec<u64> = report
        .jobs
        .iter()
        .map(|j| {
            let out = j.output.as_ref().expect("completed job has output");
            fnv(out
                .factors
                .iter()
                .flat_map(|f| f.data().iter().map(|x| x.to_bits())))
        })
        .collect();
    assert_eq!(factors, FACTOR_FNV, "{factors:#x?}");
}
