//! Problem abstractions: full evaluation and incremental (delta)
//! evaluation of neighbors.
//!
//! Fitness is a minimized `i64`; 0 is conventionally "solved" for
//! satisfaction-style problems (the PPP's successful tries in the paper's
//! tables are runs reaching fitness 0).

use crate::bitstring::BitString;
use lnls_neighborhood::{FlipMove, Neighborhood};

/// A pseudo-Boolean minimization problem.
pub trait BinaryProblem: Send + Sync {
    /// Solution length `n`.
    fn dim(&self) -> usize;

    /// Full (from scratch) evaluation.
    fn evaluate(&self, s: &BitString) -> i64;

    /// Human-readable name for reports.
    fn name(&self) -> String {
        "binary-problem".to_string()
    }

    /// The fitness that counts as "solved", if any (0 for PPP). Searches
    /// use it as an early-stopping target and success criterion.
    fn target_fitness(&self) -> Option<i64> {
        None
    }
}

/// Incremental evaluation: a problem-specific state makes evaluating a
/// neighbor `s ⊕ mv` much cheaper than a full re-evaluation (`O(m·k)`
/// instead of `O(m·n)` for the PPP).
pub trait IncrementalEval: BinaryProblem {
    /// Auxiliary state tracking the current solution (e.g. the PPP's
    /// product vector `Y` and histogram). `Clone` so parallel explorers
    /// can give each worker its own copy.
    type State: Send + Sync + Clone;

    /// Build the state for solution `s`.
    fn init_state(&self, s: &BitString) -> Self::State;

    /// Fitness of the current solution as recorded in `state`.
    fn state_fitness(&self, state: &Self::State) -> i64;

    /// Fitness of the neighbor `s ⊕ mv`.
    ///
    /// Takes `&mut state` so implementations may use scratch space inside
    /// the state, but must behave *logically const*: the observable state
    /// is unchanged and the same call always returns the same value
    /// (equal to `self.evaluate(&(s ⊕ mv))`).
    fn neighbor_fitness(&self, state: &mut Self::State, s: &BitString, mv: &FlipMove) -> i64;

    /// Advance the state across the move `mv` (called with `s` still the
    /// *pre-move* solution; the caller flips `s` afterwards).
    fn apply_move(&self, state: &mut Self::State, s: &BitString, mv: &FlipMove);

    /// Fill `out[i]` with the fitness of the neighbor with flat index
    /// `lo + i` under `hood` — one slice of the paper's `new_fitness`
    /// array, the host analogue of one evaluation kernel launch.
    ///
    /// Every explorer evaluates through this method. The default calls
    /// [`neighbor_fitness`](Self::neighbor_fitness) once per move
    /// ([`eval_each_move`]); a problem may override it with a flat
    /// kernel for the ranges it recognizes, but must return exactly the
    /// default's values. It must write every slot: explorers reuse `out`
    /// across iterations without clearing it.
    ///
    /// # Panics
    /// Panics if `lo + out.len()` exceeds `hood.size()`.
    fn eval_range<N: Neighborhood>(
        &self,
        state: &mut Self::State,
        s: &BitString,
        hood: &N,
        lo: u64,
        out: &mut [i64],
    ) {
        eval_each_move(self, state, s, hood, lo, out);
    }
}

/// The default [`IncrementalEval::eval_range`]: enumerate the moves
/// `lo..lo + out.len()` of `hood` in index order and evaluate each with
/// [`neighbor_fitness`](IncrementalEval::neighbor_fitness). Overrides
/// call it for the ranges their kernels do not cover.
///
/// # Panics
/// Panics if `lo + out.len()` exceeds `hood.size()`.
pub fn eval_each_move<P: IncrementalEval + ?Sized, N: Neighborhood>(
    problem: &P,
    state: &mut P::State,
    s: &BitString,
    hood: &N,
    lo: u64,
    out: &mut [i64],
) {
    let hi = lo + out.len() as u64;
    assert!(hi <= hood.size(), "range {lo}..{hi} exceeds {} moves", hood.size());
    let mut slots = out.iter_mut();
    hood.for_each_move_in(lo, hi, &mut |_, mv| {
        let slot = slots.next().expect("for_each_move_in visits exactly hi - lo moves");
        *slot = problem.neighbor_fitness(state, s, &mv);
        true
    });
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// OneMax as a minimization: count of zero bits; solved at 0 (all
    /// ones). Tiny reference problem for framework tests.
    pub struct ZeroCount {
        pub n: usize,
    }

    #[derive(Clone)]
    pub struct ZeroState {
        pub zeros: i64,
    }

    impl BinaryProblem for ZeroCount {
        fn dim(&self) -> usize {
            self.n
        }
        fn evaluate(&self, s: &BitString) -> i64 {
            self.n as i64 - s.count_ones() as i64
        }
        fn name(&self) -> String {
            format!("zerocount-{}", self.n)
        }
        fn target_fitness(&self) -> Option<i64> {
            Some(0)
        }
    }

    impl IncrementalEval for ZeroCount {
        type State = ZeroState;
        fn init_state(&self, s: &BitString) -> ZeroState {
            ZeroState { zeros: self.evaluate(s) }
        }
        fn state_fitness(&self, state: &ZeroState) -> i64 {
            state.zeros
        }
        fn neighbor_fitness(&self, state: &mut ZeroState, s: &BitString, mv: &FlipMove) -> i64 {
            let mut f = state.zeros;
            for &b in mv.bits() {
                // flipping a 0 removes a zero; flipping a 1 adds one
                f += if s.get(b as usize) { 1 } else { -1 };
            }
            f
        }
        fn apply_move(&self, state: &mut ZeroState, s: &BitString, mv: &FlipMove) {
            state.zeros = self.neighbor_fitness(state, s, mv);
        }
    }

    #[test]
    fn zerocount_delta_matches_full() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = ZeroCount { n: 40 };
        let mut rng = StdRng::seed_from_u64(1);
        let s = BitString::random(&mut rng, 40);
        let mut st = p.init_state(&s);
        assert_eq!(p.state_fitness(&st), p.evaluate(&s));
        for mv in [FlipMove::one(3), FlipMove::two(0, 39), FlipMove::three(1, 2, 3)] {
            let mut s2 = s.clone();
            s2.apply(&mv);
            assert_eq!(p.neighbor_fitness(&mut st, &s, &mv), p.evaluate(&s2), "{mv}");
        }
    }
}
