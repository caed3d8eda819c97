//! The paper's closing perspective made concrete: plain tabu search
//! versus the same iteration budget organized as a Knudsen–Meier-style
//! *consensus attack* (independent searches voting bitwise on a shared
//! restart point). On solvable instances the voting variant reaches
//! lower fitness — "introducing appropriate cryptanalysis heuristics".
//!
//! ```text
//! cargo run --release --example consensus_attack
//! ```

use lnls::ppp::ConsensusAttack;
use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (m, n, seed) = (29, 29, 11);
    let instance = PppInstance::generate(m, n, seed);
    let problem = Ppp::new(instance);
    println!("PPP {m}×{n} (seed {seed})\n");

    // One long tabu run: 6 rounds × 4 searches × 300 iterations worth.
    let total_budget = 6 * 4 * 300u64;
    let hood = KHamming::new(n, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);
    let search = TabuSearch::paper(
        SearchConfig::budget(total_budget).with_seed(seed),
        Neighborhood::size(&hood),
    );
    let mut ex = SequentialExplorer::new(hood);
    let single = search.run(&problem, &mut ex, init);
    println!(
        "single tabu   : fitness {:>3}  ({} iterations)  success {}",
        single.best_fitness, single.iterations, single.success
    );

    // The same budget as a consensus attack.
    let attack = ConsensusAttack {
        searches_per_round: 4,
        budget_per_search: 300,
        rounds: 6,
        k: 2,
        voters: 3,
        perturbation: 4,
        seed,
    };
    let out = attack.run(&problem);
    match &out.solution {
        Some(v) => {
            assert!(problem.inst.is_solution(v));
            println!(
                "consensus     : SOLVED in round {} ({} iterations total)",
                out.rounds_used, out.total_iterations
            );
        }
        None => println!(
            "consensus     : fitness {:>3}  ({} iterations total)",
            out.best_fitness, out.total_iterations
        ),
    }

    println!(
        "\nsame iteration budget, different organization — voting restarts\n\
         concentrate the search near the planted secret (Knudsen–Meier)."
    );
}
