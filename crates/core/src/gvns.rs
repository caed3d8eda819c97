//! General Variable Neighborhood Search (Mladenović & Hansen): the
//! shake-and-descend metaheuristic built on top of the
//! [`crate::vns::VariableNeighborhoodSearch`] descent.
//!
//! Where the plain descent stops at a local optimum of the neighborhood
//! union, GVNS *shakes* — jumps to a random solution of the k-th
//! neighborhood — and descends again, escalating k each time the descent
//! falls back to the incumbent. The shake draws a uniform flat index in
//! `[0, m_k)` and decodes it with the paper's `unrank` mappings, which
//! makes the one-to-two / one-to-three index transformations of
//! appendices B–C double as samplers.

use crate::bitstring::BitString;
use crate::explore::Explorer;
use crate::problem::IncrementalEval;
use crate::search::{SearchConfig, SearchResult};
use crate::vns::VariableNeighborhoodSearch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shake-based General VNS over a neighborhood ladder.
pub struct GeneralVns {
    /// Generic search knobs. `max_iters` bounds the number of
    /// shake-descend rounds; each inner descent gets
    /// [`descent_budget`](Self::descent_budget) accepted moves.
    pub config: SearchConfig,
    /// Accepted-move budget handed to each inner descent.
    pub descent_budget: u64,
    /// How many consecutive shake levels to try before a full restart
    /// from a fresh random solution (0 disables restarts).
    pub restart_after: usize,
}

impl GeneralVns {
    /// GVNS with the given outer budget and a default inner descent
    /// budget of 1 000 accepted moves, no restarts.
    pub fn new(config: SearchConfig) -> Self {
        Self { config, descent_budget: 1_000, restart_after: 0 }
    }

    /// Replace the inner descent budget (builder style).
    pub fn with_descent_budget(mut self, budget: u64) -> Self {
        self.descent_budget = budget;
        self
    }

    /// Enable random restarts after `rounds` fruitless shake escalations.
    pub fn with_restarts(mut self, rounds: usize) -> Self {
        self.restart_after = rounds;
        self
    }

    /// Run from `init` over the ladder `explorers` (ordered small →
    /// large, as for the descent).
    pub fn run<P: IncrementalEval>(
        &self,
        problem: &P,
        explorers: &mut [Box<dyn Explorer<P>>],
        init: BitString,
    ) -> SearchResult {
        assert!(!explorers.is_empty(), "GVNS needs at least one neighborhood");
        let wall0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = problem.dim();

        let mut incumbent = init;
        let mut incumbent_f = problem.evaluate(&incumbent);
        let mut best = incumbent.clone();
        let mut best_f = incumbent_f;
        let mut evals = 1u64;
        let mut rounds = 0u64;
        let mut fruitless = 0usize;

        let descent = VariableNeighborhoodSearch::new(SearchConfig {
            max_iters: self.descent_budget,
            target_fitness: self.config.target_fitness,
            time_limit: self.config.time_limit,
            seed: self.config.seed,
        });

        // Round 0: descend from the initial solution before any shake.
        let r0 = descent.run(problem, explorers, incumbent.clone());
        evals += r0.evals;
        incumbent = r0.best;
        incumbent_f = r0.best_fitness;
        if incumbent_f < best_f {
            best = incumbent.clone();
            best_f = incumbent_f;
        }

        let mut level = 0usize;
        while rounds < self.config.max_iters {
            if self.config.target_fitness.is_some_and(|t| best_f <= t) {
                break;
            }
            if let Some(limit) = self.config.time_limit {
                if wall0.elapsed() >= limit {
                    break;
                }
            }

            // Shake: random neighbor in the level-th neighborhood.
            let ex = &explorers[level];
            let mv = ex.unrank(rng.gen_range(0..ex.size()));
            let mut shaken = incumbent.clone();
            shaken.apply(&mv);

            // Descend from the shaken point.
            let r = descent.run(problem, explorers, shaken);
            evals += r.evals + 1;
            rounds += 1;

            if r.best_fitness < incumbent_f {
                incumbent = r.best;
                incumbent_f = r.best_fitness;
                level = 0;
                fruitless = 0;
                if incumbent_f < best_f {
                    best = incumbent.clone();
                    best_f = incumbent_f;
                }
            } else if level + 1 < explorers.len() {
                level += 1;
            } else {
                level = 0;
                fruitless += 1;
                if self.restart_after > 0 && fruitless >= self.restart_after {
                    incumbent = BitString::random(&mut rng, n);
                    incumbent_f = problem.evaluate(&incumbent);
                    evals += 1;
                    fruitless = 0;
                }
            }
        }

        SearchResult {
            best,
            best_fitness: best_f,
            iterations: rounds,
            success: self.config.target_fitness.is_some_and(|t| best_f <= t),
            evals,
            wall: wall0.elapsed(),
            book: None,
            backend: format!("gvns/{} levels", explorers.len()),
            history: None,
            trajectory: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::SequentialExplorer;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::KHamming;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ladder(n: usize) -> Vec<Box<dyn Explorer<ZeroCount>>> {
        vec![
            Box::new(SequentialExplorer::new(KHamming::new(n, 1))),
            Box::new(SequentialExplorer::new(KHamming::new(n, 2))),
            Box::new(SequentialExplorer::new(KHamming::new(n, 3))),
        ]
    }

    #[test]
    fn gvns_solves_zerocount() {
        let n = 24;
        let p = ZeroCount { n };
        let mut rng = StdRng::seed_from_u64(3);
        let init = BitString::random(&mut rng, n);
        let gvns = GeneralVns::new(SearchConfig::budget(50).with_seed(3));
        let r = gvns.run(&p, &mut ladder(n), init);
        assert!(r.success, "fitness {}", r.best_fitness);
        assert_eq!(r.backend, "gvns/3 levels");
    }

    #[test]
    fn gvns_escapes_descent_local_optimum() {
        // Deceptive trap: fitness 0 at all-ones, otherwise
        // 1 + number of ones — the descent from 0⃗ walks *downhill* to
        // 0⃗ = fitness 1 (a strict local optimum for any k ≤ 3 because
        // adding ones increases fitness until all n are set). Only
        // repeated shaking can cross the barrier; plain descent cannot.
        struct Trap {
            n: usize,
        }
        impl crate::problem::BinaryProblem for Trap {
            fn dim(&self) -> usize {
                self.n
            }
            fn evaluate(&self, s: &BitString) -> i64 {
                let ones = s.count_ones() as i64;
                if ones == self.n as i64 {
                    0
                } else {
                    1 + ones
                }
            }
            fn target_fitness(&self) -> Option<i64> {
                Some(0)
            }
        }
        impl IncrementalEval for Trap {
            type State = i64;
            fn init_state(&self, s: &BitString) -> i64 {
                crate::problem::BinaryProblem::evaluate(self, s)
            }
            fn state_fitness(&self, st: &i64) -> i64 {
                *st
            }
            fn neighbor_fitness(
                &self,
                _: &mut i64,
                s: &BitString,
                mv: &lnls_neighborhood::FlipMove,
            ) -> i64 {
                let mut ones = s.count_ones() as i64;
                for &b in mv.bits() {
                    ones += if s.get(b as usize) { -1 } else { 1 };
                }
                if ones == self.n as i64 {
                    0
                } else {
                    1 + ones
                }
            }
            fn apply_move(&self, st: &mut i64, s: &BitString, mv: &lnls_neighborhood::FlipMove) {
                *st = self.neighbor_fitness(&mut 0, s, mv);
            }
        }
        // Tiny n so that a shake plausibly lands near all-ones.
        let n = 5;
        let p = Trap { n };
        let mut explorers: Vec<Box<dyn Explorer<Trap>>> = vec![
            Box::new(SequentialExplorer::new(KHamming::new(n, 1))),
            Box::new(SequentialExplorer::new(KHamming::new(n, 2))),
            Box::new(SequentialExplorer::new(KHamming::new(n, 3))),
        ];
        let gvns = GeneralVns::new(SearchConfig::budget(5_000).with_seed(7)).with_restarts(3);
        let r = gvns.run(&p, &mut explorers, BitString::zeros(n));
        assert!(r.success, "GVNS should eventually restart/shake into the optimum");
        assert!(r.iterations > 0);
    }

    #[test]
    fn gvns_respects_round_budget() {
        let n = 30;
        let p = ZeroCount { n };
        let gvns = GeneralVns::new(SearchConfig {
            max_iters: 4,
            target_fitness: None,
            time_limit: None,
            seed: 0,
        })
        .with_descent_budget(2);
        let r = gvns.run(&p, &mut ladder(n), BitString::zeros(n));
        assert_eq!(r.iterations, 4);
        assert!(!r.success);
    }

    #[test]
    fn gvns_builders() {
        let g = GeneralVns::new(SearchConfig::budget(1)).with_descent_budget(9).with_restarts(2);
        assert_eq!(g.descent_budget, 9);
        assert_eq!(g.restart_after, 2);
    }
}
