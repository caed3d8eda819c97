//! OneMax, the fruit fly of binary optimization, phrased as minimization
//! (count the zero bits). Useful as a smoke-test problem whose optimum
//! and landscape are fully understood.

use lnls_core::{eval_each_move, BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::{checked_binomial, FlipMove, Neighborhood};

/// Minimize the number of zero bits; solved at the all-ones string.
#[derive(Copy, Clone, Debug)]
pub struct OneMax {
    n: usize,
}

impl OneMax {
    /// OneMax over `n`-bit strings.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "OneMax needs n > 0");
        Self { n }
    }
}

/// Incremental state: the current number of zero bits.
#[derive(Copy, Clone, Debug)]
pub struct OneMaxState {
    zeros: i64,
}

impl BinaryProblem for OneMax {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        self.n as i64 - s.count_ones() as i64
    }

    fn name(&self) -> String {
        format!("onemax-{}", self.n)
    }

    fn target_fitness(&self) -> Option<i64> {
        Some(0)
    }
}

impl IncrementalEval for OneMax {
    type State = OneMaxState;

    fn init_state(&self, s: &BitString) -> OneMaxState {
        OneMaxState { zeros: self.evaluate(s) }
    }

    fn state_fitness(&self, state: &OneMaxState) -> i64 {
        state.zeros
    }

    fn neighbor_fitness(&self, state: &mut OneMaxState, s: &BitString, mv: &FlipMove) -> i64 {
        let mut f = state.zeros;
        for &b in mv.bits() {
            f += if s.get(b as usize) { 1 } else { -1 };
        }
        f
    }

    fn apply_move(&self, state: &mut OneMaxState, s: &BitString, mv: &FlipMove) {
        state.zeros = self.neighbor_fitness(&mut state.clone(), s, mv);
    }

    /// Row kernel for a full 2-Hamming neighborhood. Flipping bit `b`
    /// changes the zero count by `d[b] = ±1`, and every 2-flip `(i, j)` of
    /// row `i` shares `d[i]`, so the row is `zeros + d[i] + d[j]` for
    /// `j > i`: one flat add per move, no move decoded. Any other range —
    /// partial, `k ≠ 2`, or a union of radii — is evaluated move by move.
    fn eval_range<N: Neighborhood>(
        &self,
        state: &mut OneMaxState,
        s: &BitString,
        hood: &N,
        lo: u64,
        out: &mut [i64],
    ) {
        let n = self.n;
        let full_two_hamming = hood.k() == 2
            && lo == 0
            && out.len() as u64 == hood.size()
            && checked_binomial(n as u64, 2) == Some(hood.size());
        if !full_two_hamming {
            return eval_each_move(self, state, s, hood, lo, out);
        }
        let d: Vec<i64> = (0..n).map(|b| if s.get(b) { 1 } else { -1 }).collect();
        let mut at = 0;
        for (i, &di) in d.iter().enumerate() {
            let tail = &d[i + 1..];
            let base = state.zeros + di;
            for (o, &dj) in out[at..at + tail.len()].iter_mut().zip(tail) {
                *o = base + dj;
            }
            at += tail.len();
        }
    }
}

impl lnls_core::Persist for OneMax {
    fn write(&self, out: &mut Vec<u8>) {
        lnls_core::Persist::write(&self.n, out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let n: usize = r.read()?;
        if n == 0 {
            return Err(lnls_core::PersistError::new("OneMax needs n > 0"));
        }
        Ok(OneMax::new(n))
    }
}

impl lnls_core::PersistTag for OneMax {
    const TAG: &'static str = "onemax";
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_core::{SearchConfig, SequentialExplorer, TabuSearch};
    use lnls_neighborhood::{KHamming, Neighborhood};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn evaluate_counts_zeros() {
        let p = OneMax::new(8);
        let mut s = BitString::zeros(8);
        assert_eq!(p.evaluate(&s), 8);
        s.flip(0);
        s.flip(7);
        assert_eq!(p.evaluate(&s), 6);
    }

    #[test]
    fn delta_matches_full() {
        let p = OneMax::new(40);
        let mut rng = StdRng::seed_from_u64(1);
        let s = BitString::random(&mut rng, 40);
        let mut st = p.init_state(&s);
        for mv in [FlipMove::one(0), FlipMove::two(1, 39), FlipMove::three(2, 3, 4)] {
            let mut s2 = s.clone();
            s2.apply(&mv);
            assert_eq!(p.neighbor_fitness(&mut st, &s, &mv), p.evaluate(&s2));
        }
    }

    #[test]
    fn tabu_solves_onemax() {
        let p = OneMax::new(64);
        let hood = KHamming::new(64, 1);
        let mut ex = SequentialExplorer::new(hood);
        let search = TabuSearch::paper(SearchConfig::budget(100), hood.size());
        let r = search.run(&p, &mut ex, BitString::zeros(64));
        assert!(r.success);
        assert_eq!(r.best.count_ones(), 64);
    }
}
