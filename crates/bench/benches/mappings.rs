//! Criterion micro-benchmarks of the index transformations (§III): the
//! paper claims the 2-Hamming mapping is "nearly constant time" (one
//! square root) and the 3-Hamming one "logarithmic in practice"
//! (Newton–Raphson). These benches quantify both and compare against the
//! exact integer implementations and lexicographic enumeration.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lnls_neighborhood::mapping2d::{rank2, size2, unrank2, unrank2_f32_paper};
use lnls_neighborhood::mapping3d::{rank3, size3, unrank3, unrank3_newton};
use lnls_neighborhood::{KHamming, LexMoves, Neighborhood};

fn bench_unrank2(c: &mut Criterion) {
    let mut g = c.benchmark_group("unrank2");
    for n in [73u64, 1517, 1 << 20] {
        let m = size2(n);
        g.bench_with_input(BenchmarkId::new("exact_isqrt", n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 997) % m;
                black_box(unrank2(n, black_box(i)))
            })
        });
        if n <= 1517 {
            g.bench_with_input(BenchmarkId::new("f32_paper", n), &n, |b, &n| {
                let mut i = 0u64;
                b.iter(|| {
                    i = (i + 997) % m;
                    black_box(unrank2_f32_paper(n, black_box(i)))
                })
            });
        }
    }
    g.finish();
}

fn bench_unrank3(c: &mut Criterion) {
    let mut g = c.benchmark_group("unrank3");
    for n in [73u64, 117, 1517] {
        let m = size3(n);
        g.bench_with_input(BenchmarkId::new("exact_icbrt", n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 99_991) % m;
                black_box(unrank3(n, black_box(i)))
            })
        });
        g.bench_with_input(BenchmarkId::new("newton_raphson", n), &n, |b, &n| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 99_991) % m;
                black_box(unrank3_newton(n, black_box(i)))
            })
        });
    }
    g.finish();
}

fn bench_rank(c: &mut Criterion) {
    let mut g = c.benchmark_group("rank");
    g.bench_function("rank2_n1517", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 1515;
            black_box(rank2(1517, i, i + 1))
        })
    });
    g.bench_function("rank3_n1517", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 13) % 1514;
            black_box(rank3(1517, i, i + 1, i + 2))
        })
    });
    g.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    // Full-neighborhood scan: per-index unranking vs O(1) lexicographic
    // advance — the difference a per-move neighborhood scan cares about.
    let mut g = c.benchmark_group("enumerate_n73_k3");
    let hood = KHamming::new(73, 3);
    g.bench_function("unrank_per_index", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, mv) in hood.moves() {
                acc = acc.wrapping_add(mv.bits()[2] as u64);
            }
            black_box(acc)
        })
    });
    g.bench_function("lex_advance", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, mv) in LexMoves::new(73, 3) {
                acc = acc.wrapping_add(mv.bits()[2] as u64);
            }
            black_box(acc)
        })
    });
    let two = KHamming::new(1517, 2);
    g.bench_function("unrank_per_index_2h_n1517", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, mv) in two.moves().take(100_000) {
                acc = acc.wrapping_add(mv.bits()[1] as u64);
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_unrank2, bench_unrank3, bench_rank, bench_enumeration);
criterion_main!(benches);
