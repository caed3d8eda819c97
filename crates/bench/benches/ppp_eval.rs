//! Criterion micro-benchmarks of PPP evaluation: full re-evaluation vs
//! the O(m·k + touched) incremental path, per neighborhood size, and a
//! whole neighborhood through the flat `eval_range` kernel vs the
//! per-move path — the quantity that decides every CPU column in the
//! paper's tables.
//!
//! ```text
//! cargo bench -p lnls-bench --bench ppp_eval
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lnls_core::{eval_each_move, BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::{KHamming, Neighborhood};
use lnls_ppp::{Ppp, PppInstance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(m: usize, n: usize) -> (Ppp, BitString) {
    let p = Ppp::new(PppInstance::generate(m, n, 42));
    let mut rng = StdRng::seed_from_u64(1);
    let s = BitString::random(&mut rng, n);
    (p, s)
}

fn bench_full_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("ppp_full_eval");
    for (m, n) in [(73, 73), (101, 117), (1501, 1517)] {
        let (p, s) = setup(m, n);
        g.bench_with_input(BenchmarkId::from_parameter(format!("{m}x{n}")), &(), |b, _| {
            b.iter(|| black_box(p.evaluate(black_box(&s))))
        });
    }
    g.finish();
}

fn bench_neighbor_fitness(c: &mut Criterion) {
    let mut g = c.benchmark_group("ppp_neighbor_fitness");
    for (m, n) in [(73usize, 73usize), (101, 117)] {
        for k in 1..=3usize {
            let (p, s) = setup(m, n);
            let mut st = p.init_state(&s);
            let hood = KHamming::new(n, k);
            let mut rng = StdRng::seed_from_u64(2);
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{m}x{n}_k{k}")),
                &(),
                |b, _| {
                    b.iter(|| {
                        let mv = hood.unrank(rng.gen_range(0..hood.size()));
                        black_box(p.neighbor_fitness(&mut st, &s, &mv))
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_iteration_scan(c: &mut Criterion) {
    // One full tabu-iteration evaluation sweep (the unit the tables
    // multiply by iteration counts): the `eval_range` call every
    // explorer makes, then the per-move path it must reproduce.
    // Throughput is in moves, so elem/s reads as moves per second.
    let shapes = [(73usize, 73usize, 1usize), (73, 73, 2), (73, 73, 3), (101, 117, 3)];
    for (group, per_move) in [("ppp_iteration_scan", false), ("ppp_iteration_scan_per_move", true)]
    {
        let mut g = c.benchmark_group(group);
        for (m, n, k) in shapes {
            let (p, s) = setup(m, n);
            let mut st = p.init_state(&s);
            let hood = KHamming::new(n, k);
            let mut out = vec![0i64; hood.size() as usize];
            g.throughput(Throughput::Elements(hood.size()));
            g.bench_with_input(
                BenchmarkId::from_parameter(format!("{m}x{n}_k{k}")),
                &(),
                |b, _| {
                    b.iter(|| {
                        if per_move {
                            eval_each_move(&p, &mut st, &s, &hood, 0, &mut out);
                        } else {
                            p.eval_range(&mut st, &s, &hood, 0, &mut out);
                        }
                        black_box(out.iter().copied().min())
                    })
                },
            );
        }
        g.finish();
    }
}

fn bench_apply_move(c: &mut Criterion) {
    let (p, s) = setup(101, 117);
    let hood = KHamming::new(117, 3);
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("ppp_apply_move_101x117_k3", |b| {
        let mut s = s.clone();
        let mut st = p.init_state(&s);
        b.iter(|| {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            p.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
        })
    });
}

criterion_group!(
    benches,
    bench_full_eval,
    bench_neighbor_fitness,
    bench_iteration_scan,
    bench_apply_move
);
criterion_main!(benches);
