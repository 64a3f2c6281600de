//! First-level TTM timings: `ttm_at_in` at every mode position of the
//! benchmark's dense shapes, at each pool width, best of ten calls after a
//! warm-up, with an FNV-1a digest of each output's bits so two builds can
//! be compared both for speed and for identical results.
//!
//! Prints one line per shape, position and width:
//! `shape R p=… w=… : best ms / GF/s / digest`. Positions `0..N−1` take
//! the strip GEMM's transposed-A path (`ttm_first` and the batched
//! `ttm_at`), position `N−1` its untransposed one (`ttm_last`).
//!
//! Run: `cargo run --release --example ttm_probe -- [--widths 1,2]
//!       [--dims 128x256x256@32]` (`--dims` times one shape of its own at
//! rank `R` in place of the table below).

use parallel_pp::tensor::kernels::ttm::ttm_at_in;
use parallel_pp::tensor::rng::{seeded, uniform_matrix, uniform_tensor};
use parallel_pp::tensor::{DenseTensor, Workspace};
use std::time::{Duration, Instant};

/// The benchmark's dense first-level shapes and ranks: `dense3-msdt` and
/// `dist3-p2p` (256³, R 32), `dense4-pp` (56⁴, R 24) and `stream4-incr`'s
/// time-lapse (64×64×32×40, R 16).
const SHAPES: [(&[usize], usize); 3] = [
    (&[256, 256, 256], 32),
    (&[56, 56, 56, 56], 24),
    (&[64, 64, 32, 40], 16),
];

/// Calls per measurement; the best is reported.
const REPS: usize = 10;
/// Untimed calls before the first measurement.
const WARMUP: Duration = Duration::from_secs(2);

/// FNV-1a over the bits of a tensor's elements.
fn digest(t: &DenseTensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    let mut widths = vec![1, 2];
    let mut shapes: Vec<(Vec<usize>, usize)> =
        SHAPES.iter().map(|&(d, r)| (d.to_vec(), r)).collect();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--widths" => {
                widths = value
                    .split(',')
                    .map(|w| w.parse().expect("width"))
                    .collect()
            }
            "--dims" => {
                // `AxBxC@R`: one shape of your own.
                let (dims, r) = value.split_once('@').expect("dims as AxBxC@R");
                let dims = dims
                    .split('x')
                    .map(|d| d.parse().expect("extent"))
                    .collect();
                shapes = vec![(dims, r.parse().expect("rank"))];
            }
            _ => panic!("unknown flag {flag}"),
        }
    }

    let ws = Workspace::new();
    let mut rng = seeded(7);
    let mut warm = true;
    for (dims, r) in shapes {
        // On the tensor store, as a session's input is (2 MiB huge pages
        // from 2 MiB up; `uniform_tensor` builds there): a `Vec`'s 4 KiB
        // pages would scatter the cache sets that long power-of-two row
        // strides otherwise share.
        let t = uniform_tensor(&dims, &mut rng);
        let facs: Vec<_> = dims
            .iter()
            .map(|&s| uniform_matrix(s, r, &mut rng))
            .collect();
        if warm {
            // The first seconds of a process run slow (page faults, clock
            // ramp): spin on the first shape before timing anything.
            let start = Instant::now();
            while start.elapsed() < WARMUP {
                drop(ttm_at_in(&ws, &t, 0, &facs[0]));
            }
            warm = false;
        }
        let flops = 2.0 * t.len() as f64 * r as f64;
        for (p, fac) in facs.iter().enumerate() {
            for &w in &widths {
                let _width = rayon::scoped_num_threads(w);
                let mut best = f64::INFINITY;
                let mut bits = 0;
                for _ in 0..REPS {
                    let start = Instant::now();
                    let out = ttm_at_in(&ws, &t, p, fac);
                    best = best.min(start.elapsed().as_secs_f64());
                    bits = digest(&out);
                }
                let shape: Vec<String> = dims.iter().map(usize::to_string).collect();
                println!(
                    "{} R{r} p={p} w={w} : {:.2} ms / {:.1} GF/s / {bits:016x}",
                    shape.join("x"),
                    best * 1e3,
                    flops / best * 1e-9,
                );
            }
        }
    }
}
