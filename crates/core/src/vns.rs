//! Variable neighborhood search over the 1/2/3-Hamming ladder — the LS
//! heuristic that most directly exercises the paper's thesis, switching
//! to a *larger* neighborhood exactly when the smaller one is exhausted.

use crate::bitstring::BitString;
use crate::explore::Explorer;
use crate::problem::IncrementalEval;
use crate::search::{SearchConfig, SearchResult};
use std::time::Instant;

/// Best-improvement VNS cycling through the supplied explorers (ordered
/// small → large). On improvement it returns to the smallest
/// neighborhood; when every neighborhood fails it stops (a local optimum
/// of the union).
pub struct VariableNeighborhoodSearch {
    /// Generic search knobs (`max_iters` counts accepted moves).
    pub config: SearchConfig,
}

impl VariableNeighborhoodSearch {
    /// VNS with the given budget.
    pub fn new(config: SearchConfig) -> Self {
        Self { config }
    }

    /// Run from `init` over the neighborhood ladder `explorers`.
    pub fn run<P: IncrementalEval>(
        &self,
        problem: &P,
        explorers: &mut [Box<dyn Explorer<P>>],
        init: BitString,
    ) -> SearchResult {
        assert!(!explorers.is_empty(), "VNS needs at least one neighborhood");
        let wall0 = Instant::now();
        let mut s = init;
        let mut state = problem.init_state(&s);
        let mut cur = problem.state_fitness(&state);
        let mut out = Vec::new();
        let mut level = 0usize;
        let mut moves = 0u64;
        let mut evals = 0u64;

        while moves < self.config.max_iters {
            if self.config.target_fitness.is_some_and(|t| cur <= t) {
                break;
            }
            if let Some(limit) = self.config.time_limit {
                if wall0.elapsed() >= limit {
                    break;
                }
            }
            let ex = &mut explorers[level];
            ex.explore(problem, &s, &mut state, &mut out);
            evals += out.len() as u64;
            let (best_idx, &best_f) = out
                .iter()
                .enumerate()
                .min_by_key(|&(i, f)| (*f, i))
                .expect("non-empty neighborhood");
            if best_f < cur {
                let mv = ex.unrank(best_idx as u64);
                problem.apply_move(&mut state, &s, &mv);
                s.apply(&mv);
                ex.committed(problem, &s, &state, &mv);
                cur = best_f;
                moves += 1;
                level = 0; // improvement: restart the ladder
            } else if level + 1 < explorers.len() {
                level += 1; // escalate to the larger neighborhood
            } else {
                break; // local optimum of every neighborhood
            }
        }

        SearchResult {
            best: s,
            best_fitness: cur,
            iterations: moves,
            success: self.config.target_fitness.is_some_and(|t| cur <= t),
            evals,
            wall: wall0.elapsed(),
            book: None,
            backend: format!("vns/{} levels", explorers.len()),
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
    fn vns_solves_zerocount() {
        let n = 20;
        let p = ZeroCount { n };
        let mut rng = StdRng::seed_from_u64(8);
        let init = BitString::random(&mut rng, n);
        let vns = VariableNeighborhoodSearch::new(SearchConfig::budget(1000));
        let r = vns.run(&p, &mut ladder(n), init);
        assert!(r.success);
    }

    #[test]
    fn vns_escalates_on_parity_trap() {
        // A problem where 1- and 2-flip moves cannot improve but a 3-flip
        // can: fitness = |ones − 3| forces weight exactly 3 from weight 0
        // via odd flips; from 0⃗, 1-flip improves though. Use weight 6 →
        // target 3: the 2-flip neighborhood changes weight by {−2, 0, +2},
        // 1-flip by ±1, so build fitness that penalizes intermediate
        // weights: f(w) = 0 if w == 3, 1 if w == 6, 5 otherwise.
        struct Trap {
            n: usize,
        }
        impl crate::problem::BinaryProblem for Trap {
            fn dim(&self) -> usize {
                self.n
            }
            fn evaluate(&self, s: &BitString) -> i64 {
                match s.count_ones() {
                    3 => 0,
                    6 => 1,
                    _ => 5,
                }
            }
            fn target_fitness(&self) -> Option<i64> {
                Some(0)
            }
        }
        impl IncrementalEval for Trap {
            type State = u32;
            fn init_state(&self, s: &BitString) -> u32 {
                s.count_ones()
            }
            fn state_fitness(&self, state: &u32) -> i64 {
                match *state {
                    3 => 0,
                    6 => 1,
                    _ => 5,
                }
            }
            fn neighbor_fitness(
                &self,
                state: &mut u32,
                s: &BitString,
                mv: &lnls_neighborhood::FlipMove,
            ) -> i64 {
                let mut w = *state as i64;
                for &b in mv.bits() {
                    w += if s.get(b as usize) { -1 } else { 1 };
                }
                match w {
                    3 => 0,
                    6 => 1,
                    _ => 5,
                }
            }
            fn apply_move(&self, state: &mut u32, s: &BitString, mv: &lnls_neighborhood::FlipMove) {
                let mut w = *state as i64;
                for &b in mv.bits() {
                    w += if s.get(b as usize) { -1 } else { 1 };
                }
                *state = w as u32;
            }
        }
        let n = 12;
        let p = Trap { n };
        let mut init = BitString::zeros(n);
        for i in 0..6 {
            init.flip(i);
        }
        let mut explorers: Vec<Box<dyn Explorer<Trap>>> = vec![
            Box::new(SequentialExplorer::new(KHamming::new(n, 1))),
            Box::new(SequentialExplorer::new(KHamming::new(n, 2))),
            Box::new(SequentialExplorer::new(KHamming::new(n, 3))),
        ];
        let vns = VariableNeighborhoodSearch::new(SearchConfig::budget(100));
        let r = vns.run(&p, &mut explorers, init);
        // Only the 3-Hamming level can jump 6 → 3 in one move.
        assert!(r.success, "fitness {}", r.best_fitness);
        assert_eq!(r.best.count_ones(), 3);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn vns_stops_at_union_local_optimum() {
        let n = 10;
        let p = ZeroCount { n };
        // Start at the optimum: no neighborhood can improve; must stop
        // immediately without moves.
        let mut init = BitString::zeros(n);
        for i in 0..n {
            init.flip(i);
        }
        let vns = VariableNeighborhoodSearch::new(SearchConfig::budget(100).with_target(None));
        let r = vns.run(&p, &mut ladder(n), init);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.best_fitness, 0);
    }
}
