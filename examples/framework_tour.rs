//! Tour of the framework beyond the paper's tabu-on-PPP pipeline: every
//! search driver from the paper's introduction (hill climbing, simulated
//! annealing, iterated local search, variable neighborhood search) on
//! every bundled binary problem (OneMax, QUBO, MAX-3SAT, NK landscape).
//!
//! ```text
//! cargo run --release --example framework_tour
//! ```

use lnls::core::{IncrementalEval, VariableNeighborhoodSearch};
use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_all_drivers<P: IncrementalEval>(name: &str, problem: &P, seed: u64) {
    let n = problem.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);

    // Hill climbing, best improvement, 2-Hamming.
    let mut hc_ex = SequentialExplorer::new(KHamming::new(n, 2));
    let hc = HillClimbing::best(SearchConfig::budget(2_000).with_seed(seed));
    let r_hc = hc.run(problem, &mut hc_ex, init.clone());

    // Simulated annealing samples the 2-Hamming neighborhood by
    // unranking uniform indices — the paper's mappings as samplers.
    let sa = SimulatedAnnealing::new(
        SearchConfig::budget(60_000).with_seed(seed),
        KHamming::new(n, 2),
        8.0,
    );
    let r_sa = sa.run(problem, init.clone());

    // Iterated local search: 1-flip descent + 4-flip perturbations.
    let ils = IteratedLocalSearch::new(SearchConfig::budget(60).with_seed(seed));
    let r_ils = ils.run(problem, init.clone());

    // VNS over the 1 → 2 → 3-Hamming ladder.
    let mut ladder: Vec<Box<dyn Explorer<P>>> = vec![
        Box::new(SequentialExplorer::new(KHamming::new(n, 1))),
        Box::new(SequentialExplorer::new(KHamming::new(n, 2))),
        Box::new(SequentialExplorer::new(KHamming::new(n, 3))),
    ];
    let vns = VariableNeighborhoodSearch::new(SearchConfig::budget(500).with_seed(seed));
    let r_vns = vns.run(problem, &mut ladder, init);

    println!(
        "{name:<18} hc {:>6}   sa {:>6}   ils {:>6}   vns {:>6}",
        r_hc.best_fitness, r_sa.best_fitness, r_ils.best_fitness, r_vns.best_fitness
    );
}

fn main() {
    println!("best fitness per driver (lower is better, same budget family)\n");
    let mut rng = StdRng::seed_from_u64(5);

    let onemax = OneMax::new(48);
    run_all_drivers("onemax-48", &onemax, 11);

    let qubo = Qubo::random(&mut rng, 40, 10, 0.4);
    run_all_drivers("qubo-40", &qubo, 12);

    let maxsat = MaxSat::random(&mut rng, 50, 210);
    run_all_drivers("max3sat-50v-210c", &maxsat, 13);

    let nk = NkLandscape::random(&mut rng, 40, 3, 100);
    run_all_drivers("nk-40-3", &nk, 14);

    println!(
        "\nall four problems run unchanged through every driver — the\n\
         neighborhoods and mappings are problem-agnostic, as §II claims."
    );
}
