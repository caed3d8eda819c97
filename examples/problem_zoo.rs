//! The framework's generality claim, live: the same tabu search and the
//! same neighborhood ladder applied to five binary problems (OneMax,
//! QUBO, Max-Cut, knapsack, Ising spin glass), with the ParadisEO-style
//! observers recording each run and GVNS as the escape hatch where a
//! single neighborhood stalls.
//!
//! ```text
//! cargo run --release --example problem_zoo
//! ```

use lnls::core::peo::{Acceptance, FitnessTrace, MaxIterations, PeoSearch, TargetFitness};
use lnls::core::problem::IncrementalEval;
use lnls::core::GeneralVns;
use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tabu_row<P: IncrementalEval>(name: &str, problem: &P, n: usize, k: usize, budget: u64) {
    let hood = KHamming::new(n, k);
    let mut explorer = SequentialExplorer::new(hood);
    let search = TabuSearch::paper(
        SearchConfig::budget(budget).with_seed(7).with_target(problem.target_fitness()),
        Neighborhood::size(&hood),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let init = BitString::random(&mut rng, n);
    let r = search.run(problem, &mut explorer, init);
    println!(
        "  {name:<18} {k}-Hamming ({:>6} moves): best {:>7}  iters {:>5}  wall {:?}",
        Neighborhood::size(&hood),
        r.best_fitness,
        r.iterations,
        r.wall
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2010);
    let n = 48;

    println!("same driver, five problems, growing neighborhoods:\n");

    let onemax = OneMax::new(n);
    let qubo = Qubo::random(&mut rng, n, 9, 0.4);
    let maxcut = MaxCut::random(&mut rng, n, 0.25, 9);
    let knap = Knapsack::random(&mut rng, n, 20, 10);
    let ising = IsingLattice::random_pm(&mut rng, 7, 0); // 49 spins

    for k in 1..=2usize {
        println!("k = {k}:");
        tabu_row("onemax", &onemax, n, k, 200);
        tabu_row("qubo", &qubo, n, k, 200);
        tabu_row("max-cut", &maxcut, n, k, 200);
        tabu_row("knapsack", &knap, n, k, 200);
        tabu_row("ising-7x7", &ising, 49, k, 200);
        println!();
    }

    // --- white-box composition: observers + continuators -----------------
    println!("peo-style run on Max-Cut with a fitness trace:");
    let mut trace = FitnessTrace::default();
    let mut explorer = SequentialExplorer::new(KHamming::new(n, 2));
    let result = PeoSearch::new(Acceptance::Always)
        .stop_when(MaxIterations(60))
        .stop_when(TargetFitness(i64::MIN + 1)) // unreachable: run the full budget
        .observe(&mut trace)
        .run(&maxcut, &mut explorer, BitString::zeros(n));
    let first = trace.best.first().copied().unwrap_or_default();
    println!(
        "  start {} → best {} over {} iterations (cut value {})",
        trace.initial.unwrap_or_default(),
        result.best_fitness,
        result.iterations,
        -result.best_fitness
    );
    println!("  trace head: {first} … tail: {}", trace.best.last().copied().unwrap_or_default());

    // --- GVNS across the ladder ------------------------------------------
    println!("\ngvns (shake + descend over the 1/2/3-Hamming ladder) on the spin glass:");
    let mut ladder: Vec<Box<dyn Explorer<IsingLattice>>> = vec![
        Box::new(SequentialExplorer::new(KHamming::new(49, 1))),
        Box::new(SequentialExplorer::new(KHamming::new(49, 2))),
        Box::new(SequentialExplorer::new(KHamming::new(49, 3))),
    ];
    let gvns = GeneralVns::new(SearchConfig::budget(40).with_seed(3).with_target(None))
        .with_descent_budget(200)
        .with_restarts(4);
    let init = BitString::random(&mut rng, 49);
    let r = gvns.run(&ising, &mut ladder, init);
    println!(
        "  best energy {} after {} shake-descend rounds ({} evaluations)",
        r.best_fitness, r.iterations, r.evals
    );
}
