//! Quickstart: crack a small Permuted Perceptron instance with the
//! paper's tabu search, once per exploration backend, and print the
//! modeled CPU/GPU cost — Table-row style.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The paper's smallest instance shape, scaled down so the example
    // finishes in seconds: a 41×41 Pointcheval instance.
    let (m, n, seed) = (41, 41, 2010);
    let instance = PppInstance::generate(m, n, seed);
    let problem = Ppp::new(instance);
    println!("instance: PPP {m}×{n} (seed {seed})");

    let hood = KHamming::new(n, 2);
    let budget = 4_000;
    println!(
        "neighborhood: {} ({} moves); tabu budget {budget} iterations\n",
        Neighborhood::name(&hood),
        Neighborhood::size(&hood),
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(budget).with_seed(seed), Neighborhood::size(&hood));

    // --- CPU backend (the paper's baseline) -----------------------------
    let mut cpu = SequentialExplorer::new(hood);
    let r_cpu = search.run(&problem, &mut cpu, init.clone());
    println!(
        "cpu-seq   : fitness {:>3}  iters {:>5}  success {}  wall {:?}",
        r_cpu.best_fitness, r_cpu.iterations, r_cpu.success, r_cpu.wall
    );

    // --- simulated GPU backend (the paper's contribution) ---------------
    let mut gpu = PppGpuExplorer::new(&problem, 2, GpuExplorerConfig::default());
    let r_gpu = search.run(&problem, &mut gpu, init);
    println!(
        "gpu-sim   : fitness {:>3}  iters {:>5}  success {}  wall {:?}",
        r_gpu.best_fitness, r_gpu.iterations, r_gpu.success, r_gpu.wall
    );

    // Both backends must make identical decisions.
    assert_eq!(r_cpu.best_fitness, r_gpu.best_fitness);
    assert_eq!(r_cpu.iterations, r_gpu.iterations);

    let book = r_gpu.book.expect("the GPU backend prices its work");
    println!("\nmodeled times for the GPU run (GTX 280 model vs Xeon 3 GHz model):");
    println!("  kernels   {:>10}", fmt_seconds(book.kernel_s));
    println!("  overhead  {:>10}", fmt_seconds(book.overhead_s));
    println!("  h2d       {:>10}  ({} bytes)", fmt_seconds(book.h2d_s), book.bytes_h2d);
    println!("  d2h       {:>10}  ({} bytes)", fmt_seconds(book.d2h_s), book.bytes_d2h);
    println!("  GPU total {:>10}", fmt_seconds(book.gpu_total_s()));
    println!("  CPU total {:>10}", fmt_seconds(book.host_s));
    println!("  speedup   x{:.1}", book.speedup().unwrap_or(0.0));

    if r_gpu.success {
        println!("\nsolved: recovered an ε-vector with the target multiset.");
    } else {
        println!(
            "\nnot solved within {budget} iterations (fitness {}); try a larger budget",
            r_gpu.best_fitness
        );
    }
}
