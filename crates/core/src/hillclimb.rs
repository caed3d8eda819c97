//! Hill climbing (steepest descent / first improvement) — the simplest
//! instance of the paper's Fig. 1 model, and the inner loop of ILS.

use crate::bitstring::BitString;
use crate::explore::Explorer;
use crate::problem::IncrementalEval;
use crate::search::{SearchConfig, SearchResult};
use lnls_neighborhood::{lex_advance, FlipMove};
use std::time::Instant;

/// Pivot rule for hill climbing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pivot {
    /// Evaluate the whole neighborhood, take the best improving move.
    BestImprovement,
    /// Take the first improving move found (lexicographic scan).
    FirstImprovement,
}

/// Deterministic hill climber over an [`Explorer`] backend. Stops at a
/// local optimum, the iteration budget, or the target fitness.
pub struct HillClimbing {
    /// Generic search knobs.
    pub config: SearchConfig,
    /// Pivot rule.
    pub pivot: Pivot,
}

impl HillClimbing {
    /// Best-improvement climber with the given budget.
    pub fn best(config: SearchConfig) -> Self {
        Self { config, pivot: Pivot::BestImprovement }
    }

    /// First-improvement climber with the given budget.
    pub fn first(config: SearchConfig) -> Self {
        Self { config, pivot: Pivot::FirstImprovement }
    }

    /// Run from `init`.
    pub fn run<P, E>(&self, problem: &P, explorer: &mut E, init: BitString) -> SearchResult
    where
        P: IncrementalEval,
        E: Explorer<P> + ?Sized,
    {
        let t0 = Instant::now();
        let mut s = init;
        let mut state = problem.init_state(&s);
        let mut cur = problem.state_fitness(&state);
        let mut out = Vec::new();
        let mut iterations = 0;
        let mut evals = 0u64;

        while iterations < self.config.max_iters {
            if self.config.target_fitness.is_some_and(|t| cur <= t) {
                break;
            }
            if let Some(limit) = self.config.time_limit {
                if t0.elapsed() >= limit {
                    break;
                }
            }
            let mv = match self.pivot {
                Pivot::BestImprovement => {
                    explorer.explore(problem, &s, &mut state, &mut out);
                    evals += out.len() as u64;
                    let (best_idx, &best_f) = out
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, f)| (*f, i))
                        .expect("non-empty neighborhood");
                    if best_f >= cur {
                        break; // local optimum
                    }
                    cur = best_f;
                    explorer.unrank(best_idx as u64)
                }
                Pivot::FirstImprovement => {
                    // Enumerate through the explorer (union-safe) and
                    // stop at the first improving move.
                    let mut found: Option<FlipMove> = None;
                    explorer.for_each_move(0, explorer.size(), &mut |_, mv| {
                        evals += 1;
                        let f = problem.neighbor_fitness(&mut state, &s, &mv);
                        if f < cur {
                            cur = f;
                            found = Some(mv);
                            return false;
                        }
                        true
                    });
                    match found {
                        Some(mv) => mv,
                        None => break, // local optimum
                    }
                }
            };
            problem.apply_move(&mut state, &s, &mv);
            s.apply(&mv);
            explorer.committed(problem, &s, &state, &mv);
            iterations += 1;
        }

        let success = self.config.target_fitness.is_some_and(|t| cur <= t);
        SearchResult {
            best: s,
            best_fitness: cur,
            iterations,
            success,
            evals,
            wall: t0.elapsed(),
            book: explorer.book(),
            backend: explorer.backend(),
            history: None,
            trajectory: None,
        }
    }
}

/// Free-standing first-improvement descent used by drivers that do not
/// carry an explorer (SA restarts, ILS inner loop): descends `s` in place
/// until a local optimum of the `k`-Hamming neighborhood, returning the
/// final fitness and evaluations spent.
pub fn descend_in_place<P: IncrementalEval>(
    problem: &P,
    s: &mut BitString,
    state: &mut P::State,
    k: usize,
    max_moves: u64,
) -> (i64, u64) {
    let n = problem.dim();
    let mut cur = problem.state_fitness(state);
    let mut evals = 0u64;
    let mut moves = 0u64;
    'outer: while moves < max_moves {
        let mut bits = [0u32; 4];
        for (i, b) in bits.iter_mut().enumerate().take(k) {
            *b = i as u32;
        }
        loop {
            let mv = FlipMove::from_sorted(&bits[..k]);
            evals += 1;
            let f = problem.neighbor_fitness(state, s, &mv);
            if f < cur {
                problem.apply_move(state, s, &mv);
                s.apply(&mv);
                cur = f;
                moves += 1;
                continue 'outer;
            }
            if !lex_advance(&mut bits[..k], n as u32) {
                break 'outer; // full scan, no improvement
            }
        }
    }
    (cur, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::SequentialExplorer;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::KHamming;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn best_improvement_solves_zerocount() {
        let p = ZeroCount { n: 48 };
        let mut rng = StdRng::seed_from_u64(3);
        let init = BitString::random(&mut rng, 48);
        let mut ex = SequentialExplorer::new(KHamming::new(48, 1));
        let hc = HillClimbing::best(SearchConfig::budget(1000));
        let r = hc.run(&p, &mut ex, init);
        assert!(r.success);
        assert_eq!(r.best_fitness, 0);
    }

    #[test]
    fn first_improvement_solves_zerocount_with_fewer_evals_per_step() {
        let p = ZeroCount { n: 48 };
        let mut rng = StdRng::seed_from_u64(3);
        let init = BitString::random(&mut rng, 48);
        let zeros_at_start = {
            use crate::problem::BinaryProblem;
            p.evaluate(&init) as u64
        };
        let mut ex = SequentialExplorer::new(KHamming::new(48, 1));
        let hc = HillClimbing::first(SearchConfig::budget(1000));
        let r = hc.run(&p, &mut ex, init);
        assert!(r.success);
        // First improvement on ZeroCount touches each zero bit once; the
        // scan resets each iteration, so evals ≤ iterations × n.
        assert_eq!(r.iterations, zeros_at_start);
        assert!(r.evals <= r.iterations * 48);
    }

    #[test]
    fn stops_at_local_optimum() {
        // ZeroCount has no local optima under 1-flip except the global
        // one, so force a budgeted stop instead.
        let p = ZeroCount { n: 32 };
        let mut rng = StdRng::seed_from_u64(4);
        let init = BitString::random(&mut rng, 32);
        let mut ex = SequentialExplorer::new(KHamming::new(32, 1));
        let hc = HillClimbing::best(SearchConfig { max_iters: 2, ..SearchConfig::budget(2) });
        let r = hc.run(&p, &mut ex, init);
        assert_eq!(r.iterations, 2);
        assert!(!r.success);
    }

    #[test]
    fn descend_in_place_reaches_optimum() {
        let p = ZeroCount { n: 30 };
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = BitString::random(&mut rng, 30);
        let mut st = p.init_state(&s);
        let (f, evals) = descend_in_place(&p, &mut s, &mut st, 1, 10_000);
        assert_eq!(f, 0);
        assert!(evals > 0);
        assert_eq!(s.count_ones(), 30);
    }
}
