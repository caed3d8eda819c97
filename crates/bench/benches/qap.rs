//! Bench target for A7: Taillard's robust tabu search on the QAP — the
//! paper's tabu search (ref. [11]) in its original habitat, with the
//! swap neighborhood scanned on the host delta table, the naive host
//! recompute, and the simulated GPU. Criterion times the host paths;
//! the GPU path reports its modeled ledger.
//!
//! Two rows time what a fleet's QAP job pays per event, at the sizes the
//! workloads draw: `delta_table_iteration` is one robust-tabu iteration
//! (selection scan plus table commit) on one prebuilt table, and
//! `gpu_residency` is a device placement — `GpuSwapEvaluator::new` plus
//! its first `deltas`, the launch that profiles the kernel (n = 10 and
//! 12, the size `ckpt-churn` draws).
//!
//! ```text
//! cargo bench -p lnls-bench --bench qap
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lnls_gpu_sim::DeviceSpec;
use lnls_qap::{
    FreshEvaluator, GpuSwapEvaluator, Permutation, QapInstance, RobustTabu, RtsConfig,
    SwapEvaluator, TableEvaluator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_qap(c: &mut Criterion) {
    let mut group = c.benchmark_group("qap_rts");
    group.sample_size(10);

    for n in [20usize, 40] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let inst = QapInstance::random_symmetric(&mut rng, n);
        let init = Permutation::random(&mut rng, n);
        let rts = RobustTabu::new(RtsConfig::budget(50).with_seed(1));

        group.bench_with_input(BenchmarkId::new("delta_table", n), &n, |b, _| {
            b.iter(|| rts.run(&inst, &mut TableEvaluator::new(), init.clone()).best_cost)
        });
        group.bench_with_input(BenchmarkId::new("fresh_recompute", n), &n, |b, _| {
            b.iter(|| rts.run(&inst, &mut FreshEvaluator::new(), init.clone()).best_cost)
        });
    }
    group.finish();

    let mut group = c.benchmark_group("qap_events");
    for n in [9usize, 12] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let inst = QapInstance::random_uniform(&mut rng, n);
        let rts = RobustTabu::new(RtsConfig::budget(u64::MAX).with_seed(1));
        let mut cursor = rts.cursor(&inst, Permutation::random(&mut rng, n));
        let mut table = TableEvaluator::new();
        // The first step builds the table; every timed step reuses it.
        cursor.step(&inst, &mut table);
        group.bench_with_input(BenchmarkId::new("delta_table_iteration", n), &n, |b, _| {
            b.iter(|| cursor.step(&inst, &mut table))
        });
    }
    for n in [10usize, 12] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let inst = QapInstance::random_uniform(&mut rng, n);
        let p = Permutation::random(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("gpu_residency", n), &n, |b, _| {
            b.iter(|| GpuSwapEvaluator::new(&inst, DeviceSpec::gtx280()).deltas(&inst, &p)[0])
        });
    }
    group.finish();

    // Modeled GPU ledger (not a wall-clock benchmark: the simulator's
    // wall time is irrelevant, its *predicted* seconds are the result).
    println!("\n== A7: modeled GPU vs host for the full-neighborhood swap scan ==");
    for n in [20usize, 40, 80, 160] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let inst = QapInstance::random_symmetric(&mut rng, n);
        let p = Permutation::random(&mut rng, n);
        let mut gpu = GpuSwapEvaluator::new(&inst, DeviceSpec::gtx280());
        let _ = gpu.deltas(&inst, &p);
        let book = SwapEvaluator::book(&gpu).unwrap();
        println!(
            "  n={n:>4} ({:>6} swaps): gpu {:>9.5} s   host {:>9.5} s   x{:.2}",
            lnls_neighborhood::mapping2d::size2(n as u64),
            book.gpu_total_s(),
            book.host_s,
            book.speedup().unwrap_or(0.0)
        );
    }
}

criterion_group!(benches, bench_qap);
criterion_main!(benches);
