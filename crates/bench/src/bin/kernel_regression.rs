//! Kernel-regression gate: tiled dense kernels, the batched Hamming scan
//! and the bucket top-`n` select must never be slower than their naive
//! references on the standard bench shapes, and must stay bitwise
//! identical to them.
//!
//! `xtask ci` runs this binary after the test suite; it exits non-zero on
//! the first regression so a kernel "optimization" that loses to the naive
//! loop (or silently changes results) cannot land. Thresholds are 1.0x on
//! purpose — this is a floor against regressions, not a benchmark; the
//! measured speedups are recorded by `cargo bench -p uhscm-bench --bench
//! kernels` into `BENCH_kernels.json`.

use rand::Rng;
use std::collections::BinaryHeap;
use std::time::Instant;
use uhscm_eval::bitcode::hamming_scan;
use uhscm_eval::{merge_top_n, select_top_n, BitCodes};
use uhscm_linalg::{kernels, rng};

/// Interleaved best-of-N wall times of `naive` and `tuned`, in ns (first
/// calls are discarded warm-ups). The two kernels alternate within one
/// sampling loop so slow frequency drift on the host — which can swing
/// absolute times by ±30% across a few seconds — hits both sides equally
/// and cancels out of the ratio.
fn best_pair_ns(samples: usize, mut naive: impl FnMut(), mut tuned: impl FnMut()) -> (u64, u64) {
    naive();
    tuned();
    let (mut best_naive, mut best_tuned) = (u64::MAX, u64::MAX);
    for _ in 0..samples {
        let t0 = Instant::now();
        naive();
        best_naive = best_naive.min(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        tuned();
        best_tuned = best_tuned.min(t0.elapsed().as_nanos() as u64);
    }
    (best_naive, best_tuned)
}

fn check(name: &str, naive_ns: u64, tuned_ns: u64, identical: bool, failures: &mut u32) {
    let speedup = naive_ns as f64 / tuned_ns.max(1) as f64;
    println!(
        "{name:<28} naive {naive_ns:>12} ns | tuned {tuned_ns:>12} ns | {speedup:.2}x | bitwise {identical}"
    );
    if !identical {
        eprintln!("kernel_regression: {name}: tuned kernel is NOT bitwise identical to naive");
        *failures += 1;
    }
    if tuned_ns > naive_ns {
        eprintln!("kernel_regression: {name}: tuned kernel slower than naive ({speedup:.2}x)");
        *failures += 1;
    }
}

/// The per-segment bounded max-heap top-`n` the serve shards ran before the
/// bucket select: scan a block, push every `(distance, global_index)` that
/// beats the heap's worst, emit the heap sorted, and merge one list per
/// segment with [`merge_top_n`].
fn heap_top_n(
    queries: &BitCodes,
    qi: usize,
    segments: &[(u32, BitCodes)],
    n: usize,
) -> Vec<(u32, u32)> {
    let per_segment: Vec<Vec<(u32, u32)>> = segments
        .iter()
        .map(|(offset, codes)| {
            let mut heap: BinaryHeap<(u32, u32)> = BinaryHeap::with_capacity(n + 1);
            let mut block = [0u32; hamming_scan::SCAN_BLOCK];
            let mut start = 0;
            while start < codes.len() {
                let end = (start + hamming_scan::SCAN_BLOCK).min(codes.len());
                let dists = &mut block[..end - start];
                hamming_scan::scan_range_into(queries, qi, codes, start..end, dists);
                for (off, &d) in dists.iter().enumerate() {
                    let cand = (d, offset + (start + off) as u32);
                    if heap.len() < n {
                        heap.push(cand);
                    } else if heap.peek().is_some_and(|&worst| cand < worst) {
                        heap.pop();
                        heap.push(cand);
                    }
                }
                start = end;
            }
            heap.into_sorted_vec()
        })
        .collect();
    merge_top_n(&per_segment, n)
}

fn main() {
    let mut failures = 0u32;
    let mut r = rng::seeded(7);

    // Standard dense shape: 256 images of 4096-d features projected to 64
    // bits — the matmul row of BENCH_kernels.json.
    let a = rng::gauss_matrix(&mut r, 256, 4096, 1.0);
    let b = rng::gauss_matrix(&mut r, 4096, 64, 1.0);
    let tiled = a.matmul(&b);
    let naive = kernels::matmul_naive(&a, &b);
    let identical =
        tiled.as_slice().iter().zip(naive.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
    let (naive_ns, tiled_ns) = best_pair_ns(
        5,
        || {
            std::hint::black_box(kernels::matmul_naive(&a, &b));
        },
        || {
            std::hint::black_box(a.matmul(&b));
        },
    );
    check("matmul 256x4096*4096x64", naive_ns, tiled_ns, identical, &mut failures);

    // Standard Hamming shape: 128 queries against an 8192-code database at
    // 64 bits — the retrieval row of BENCH_kernels.json.
    let db = BitCodes::from_real(&rng::gauss_matrix(&mut r, 8192, 64, 1.0));
    let queries = BitCodes::from_real(&rng::gauss_matrix(&mut r, 128, 64, 1.0));
    let mut dists = vec![0u32; db.len()];
    let pairwise = |dists: &mut [u32]| {
        for qi in 0..queries.len() {
            for (j, d) in dists.iter_mut().enumerate() {
                *d = queries.hamming(qi, &db, j);
            }
            std::hint::black_box(&dists);
        }
    };
    let scan = |dists: &mut [u32]| {
        for qi in 0..queries.len() {
            hamming_scan::scan_into(&queries, qi, &db, dists);
            std::hint::black_box(&dists);
        }
    };
    let mut scan_out = vec![0u32; db.len()];
    pairwise(&mut dists);
    let identical = (0..queries.len()).all(|qi| {
        hamming_scan::scan_into(&queries, qi, &db, &mut scan_out);
        (0..db.len()).all(|j| scan_out[j] == queries.hamming(qi, &db, j))
    });
    let (pair_ns, scan_ns) = best_pair_ns(5, || pairwise(&mut dists), || scan(&mut scan_out));
    check("hamming_scan 128q x 8192db", pair_ns, scan_ns, identical, &mut failures);

    // Serving shape: top-100 over 1M uniform 64-bit codes stored as 62
    // segments of 16,384 (the `scan-1m` store layout). The naive side is
    // one bounded heap per segment plus a 62-way merge; the tuned side is
    // one bucket select whose bound carries across all 62 segments.
    const SEGMENT: usize = 16_384;
    let total = 1_000_000usize;
    let segments: Vec<(u32, BitCodes)> = (0..total.div_ceil(SEGMENT))
        .map(|s| {
            let len = SEGMENT.min(total - s * SEGMENT);
            let words = (0..len).map(|_| r.gen::<u64>()).collect();
            (
                (s * SEGMENT) as u32,
                BitCodes::from_words(len, 64, words).expect("full-width words have no padding"),
            )
        })
        .collect();
    let queries =
        BitCodes::from_words(16, 64, (0..16).map(|_| r.gen::<u64>()).collect()).expect("queries");
    let select = |qi: usize| {
        select_top_n(&queries, qi, segments.iter().map(|(o, c)| (*o, c)), 100, |_| false)
    };
    let identical =
        (0..queries.len()).all(|qi| select(qi) == heap_top_n(&queries, qi, &segments, 100));
    let (heap_ns, select_ns) = best_pair_ns(
        5,
        || {
            for qi in 0..queries.len() {
                std::hint::black_box(heap_top_n(&queries, qi, &segments, 100));
            }
        },
        || {
            for qi in 0..queries.len() {
                std::hint::black_box(select(qi));
            }
        },
    );
    check("top-100 select 1M x 62 segs", heap_ns, select_ns, identical, &mut failures);

    if failures > 0 {
        eprintln!("kernel_regression: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("kernel_regression: all kernels at or above naive throughput, bitwise identical");
}
