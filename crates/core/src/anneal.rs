//! Simulated annealing — one of the "common LS heuristics of the
//! literature" the paper's introduction enumerates. SA samples *random*
//! neighbors instead of sweeping the whole neighborhood, which makes it
//! the natural consumer of the unranking functions as samplers: drawing a
//! uniform move index and unranking it yields a uniform k-flip move
//! without rejection.
//!
//! Like tabu search, the walk is driven through a resumable cursor
//! ([`AnnealCursor`], a [`SearchCursor`]): [`SimulatedAnnealing::run`]
//! is implemented on top of it, so a cursor stepped in quanta of any
//! size makes bit-for-bit the moves an uninterrupted run makes —
//! temperature schedule, RNG stream and all.

use crate::bitstring::BitString;
use crate::cursor::SearchCursor;
use crate::problem::IncrementalEval;
use crate::search::{SearchConfig, SearchResult};
use lnls_neighborhood::Neighborhood;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Geometric-cooling simulated annealing.
pub struct SimulatedAnnealing<N: Neighborhood> {
    /// Generic search knobs (`max_iters` counts proposed moves).
    pub config: SearchConfig,
    /// Neighborhood sampled for proposals.
    pub hood: N,
    /// Initial temperature.
    pub t0: f64,
    /// Geometric cooling factor per step (0 < alpha < 1).
    pub alpha: f64,
    /// Steps between cooling events.
    pub steps_per_temp: u64,
}

impl<N: Neighborhood> SimulatedAnnealing<N> {
    /// A standard configuration: `t0` scaled to the problem, cooling 0.999.
    pub fn new(config: SearchConfig, hood: N, t0: f64) -> Self {
        Self { config, hood, t0, alpha: 0.999, steps_per_temp: 1 }
    }

    /// Build a resumable [`AnnealCursor`] positioned at `init`.
    ///
    /// The cursor owns every piece of loop-carried state — RNG stream
    /// and temperature included — so the walk can be stepped in quanta,
    /// snapshotted mid-flight, and resumed without changing a single
    /// accept/reject decision.
    pub fn cursor<P: IncrementalEval>(&self, problem: &P, init: BitString) -> AnnealCursor<P, N>
    where
        N: Clone,
    {
        assert_eq!(init.len(), problem.dim(), "initial solution has wrong length");
        let s = init;
        let state = problem.init_state(&s);
        let cur = problem.state_fitness(&state);
        AnnealCursor {
            max_iters: self.config.max_iters,
            target: self.config.target_fitness,
            hood: self.hood.clone(),
            alpha: self.alpha,
            steps_per_temp: self.steps_per_temp,
            rng: StdRng::seed_from_u64(self.config.seed),
            best: s.clone(),
            best_fitness: cur,
            s,
            state,
            cur,
            temp: self.t0.max(f64::MIN_POSITIVE),
            iterations: 0,
            evals: 0,
        }
    }

    /// Run from `init`.
    pub fn run<P: IncrementalEval>(&self, problem: &P, init: BitString) -> SearchResult
    where
        N: Clone,
    {
        let wall0 = Instant::now();
        let mut cursor = self.cursor(problem, init);
        loop {
            if let Some(limit) = self.config.time_limit {
                if wall0.elapsed() >= limit {
                    break;
                }
            }
            if cursor.step_batch(problem, 1) == 0 {
                break;
            }
        }
        cursor.into_result(wall0.elapsed(), self.hood.name())
    }
}

/// The loop-carried state of one simulated-annealing walk, stepped
/// externally. Produced by [`SimulatedAnnealing::cursor`]; one step is
/// one proposed move (sample, evaluate, accept/reject, cool).
pub struct AnnealCursor<P: IncrementalEval, N: Neighborhood> {
    max_iters: u64,
    target: Option<i64>,
    hood: N,
    alpha: f64,
    steps_per_temp: u64,
    rng: StdRng,
    s: BitString,
    state: P::State,
    cur: i64,
    best: BitString,
    best_fitness: i64,
    temp: f64,
    iterations: u64,
    evals: u64,
}

impl<P: IncrementalEval, N: Neighborhood + Clone> Clone for AnnealCursor<P, N> {
    fn clone(&self) -> Self {
        Self {
            max_iters: self.max_iters,
            target: self.target,
            hood: self.hood.clone(),
            alpha: self.alpha,
            steps_per_temp: self.steps_per_temp,
            rng: self.rng.clone(),
            s: self.s.clone(),
            state: self.state.clone(),
            cur: self.cur,
            best: self.best.clone(),
            best_fitness: self.best_fitness,
            temp: self.temp,
            iterations: self.iterations,
            evals: self.evals,
        }
    }
}

impl<P: IncrementalEval, N: Neighborhood + Clone> AnnealCursor<P, N> {
    /// Current solution.
    pub fn current(&self) -> &BitString {
        &self.s
    }

    /// The neighborhood this walk samples from.
    pub fn hood(&self) -> &N {
        &self.hood
    }

    /// Best solution seen so far.
    pub fn best_solution(&self) -> &BitString {
        &self.best
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.temp
    }

    /// Neighbor evaluations consumed so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Byte-level snapshot of the walk (hand-rolled; see
    /// [`crate::persist`]). The incremental state is left out and
    /// rebuilt from the problem by
    /// [`read_persisted`](Self::read_persisted).
    pub fn persist(&self, out: &mut Vec<u8>)
    where
        N: crate::persist::Persist,
    {
        use crate::persist::Persist;
        self.max_iters.write(out);
        self.target.write(out);
        self.hood.write(out);
        self.alpha.write(out);
        self.steps_per_temp.write(out);
        self.rng.write(out);
        self.s.write(out);
        self.cur.write(out);
        self.best.write(out);
        self.best_fitness.write(out);
        self.temp.write(out);
        self.iterations.write(out);
        self.evals.write(out);
    }

    /// Rebuild a walk captured by [`persist`](Self::persist). `problem`
    /// must be the instance the walk ran on — the rebuilt incremental
    /// state is cross-checked against the recorded fitness.
    pub fn read_persisted(
        r: &mut crate::persist::Reader<'_>,
        problem: &P,
    ) -> Result<Self, crate::persist::PersistError>
    where
        N: crate::persist::Persist,
    {
        use crate::persist::PersistError;
        let max_iters: u64 = r.read()?;
        let target: Option<i64> = r.read()?;
        let hood: N = r.read()?;
        let alpha: f64 = r.read()?;
        let steps_per_temp: u64 = r.read()?;
        let rng: StdRng = r.read()?;
        let s: BitString = r.read()?;
        let cur: i64 = r.read()?;
        let best: BitString = r.read()?;
        let best_fitness: i64 = r.read()?;
        let temp: f64 = r.read()?;
        let iterations: u64 = r.read()?;
        let evals: u64 = r.read()?;
        if s.len() != problem.dim() || best.len() != problem.dim() {
            return Err(PersistError::new("solution length does not match the problem"));
        }
        if hood.dim() != problem.dim() {
            return Err(PersistError::new("neighborhood/problem dimension mismatch"));
        }
        if steps_per_temp == 0 || !temp.is_finite() || temp <= 0.0 {
            return Err(PersistError::new("corrupt annealing schedule"));
        }
        let state = problem.init_state(&s);
        if problem.state_fitness(&state) != cur {
            return Err(PersistError::new(
                "rebuilt state fitness disagrees with the snapshot (wrong problem instance?)",
            ));
        }
        Ok(Self {
            max_iters,
            target,
            hood,
            alpha,
            steps_per_temp,
            rng,
            s,
            state,
            cur,
            best,
            best_fitness,
            temp,
            iterations,
            evals,
        })
    }

    /// Finalize into a [`SearchResult`]; the caller supplies elapsed
    /// wall-clock and the neighborhood name (a cursor has no clock).
    pub fn into_result(self, wall: std::time::Duration, hood_name: &str) -> SearchResult {
        SearchResult {
            success: self.target.is_some_and(|t| self.best_fitness <= t),
            best: self.best,
            best_fitness: self.best_fitness,
            iterations: self.iterations,
            evals: self.evals,
            wall,
            book: None,
            backend: format!("sa/{hood_name}"),
            history: None,
            trajectory: None,
        }
    }
}

impl<P: IncrementalEval, N: Neighborhood + Clone> SearchCursor for AnnealCursor<P, N> {
    type Ctx<'a>
        = &'a P
    where
        Self: 'a;
    type Snapshot = Self;

    fn step_batch(&mut self, problem: &P, quota: u64) -> u64 {
        let m = self.hood.size();
        let mut ran = 0;
        while ran < quota {
            if self.iterations >= self.max_iters
                || self.target.is_some_and(|t| self.best_fitness <= t)
            {
                break;
            }
            self.iterations += 1;
            // Uniform neighbor via unranking — no rejection sampling.
            let idx = self.rng.gen_range(0..m);
            let mv = self.hood.unrank(idx);
            let f = problem.neighbor_fitness(&mut self.state, &self.s, &mv);
            self.evals += 1;
            let delta = f - self.cur;
            let accept = delta <= 0 || {
                let p = (-(delta as f64) / self.temp).exp();
                self.rng.gen::<f64>() < p
            };
            if accept {
                problem.apply_move(&mut self.state, &self.s, &mv);
                self.s.apply(&mv);
                self.cur = f;
                if self.cur < self.best_fitness {
                    self.best_fitness = self.cur;
                    self.best = self.s.clone();
                }
            }
            if self.iterations.is_multiple_of(self.steps_per_temp) {
                self.temp = (self.temp * self.alpha).max(1e-12);
            }
            ran += 1;
        }
        ran
    }

    fn is_done(&self) -> bool {
        self.iterations >= self.max_iters || self.target.is_some_and(|t| self.best_fitness <= t)
    }

    fn best(&self) -> i64 {
        self.best_fitness
    }

    fn iterations(&self) -> u64 {
        self.iterations
    }

    fn snapshot(&self) -> Self {
        self.clone()
    }

    fn restore(&mut self, snapshot: Self) {
        *self = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::KHamming;

    #[test]
    fn sa_solves_zerocount() {
        let p = ZeroCount { n: 32 };
        let mut rng = StdRng::seed_from_u64(1);
        let init = BitString::random(&mut rng, 32);
        let sa = SimulatedAnnealing::new(
            SearchConfig::budget(50_000).with_seed(2),
            KHamming::new(32, 1),
            2.0,
        );
        let r = sa.run(&p, init);
        assert!(r.success, "fitness {}", r.best_fitness);
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let p = ZeroCount { n: 24 };
        let mut rng = StdRng::seed_from_u64(9);
        let init = BitString::random(&mut rng, 24);
        let run = |seed| {
            let sa = SimulatedAnnealing::new(
                SearchConfig { max_iters: 500, target_fitness: None, time_limit: None, seed },
                KHamming::new(24, 2),
                1.5,
            );
            sa.run(&p, init.clone()).best_fitness
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn zero_temperature_behaves_greedily() {
        // With t0 ≈ 0 only improving/equal moves are accepted: fitness
        // must be monotone non-increasing, hence final ≤ initial.
        let p = ZeroCount { n: 40 };
        let mut rng = StdRng::seed_from_u64(3);
        let init = BitString::random(&mut rng, 40);
        let init_fitness = {
            use crate::problem::BinaryProblem;
            p.evaluate(&init)
        };
        let sa = SimulatedAnnealing::new(
            SearchConfig::budget(5_000).with_seed(4),
            KHamming::new(40, 1),
            1e-9,
        );
        let r = sa.run(&p, init);
        assert!(r.best_fitness <= init_fitness);
    }

    #[test]
    fn cursor_steps_match_run_exactly() {
        // The ragged-quantum walk must reproduce run()'s RNG stream,
        // temperature schedule and accept decisions bit for bit.
        let p = ZeroCount { n: 28 };
        let mut rng = StdRng::seed_from_u64(6);
        let init = BitString::random(&mut rng, 28);
        let sa = SimulatedAnnealing::new(
            SearchConfig::budget(700).with_seed(11),
            KHamming::new(28, 2),
            1.2,
        );
        let want = sa.run(&p, init.clone());

        let mut cursor = sa.cursor(&p, init);
        for quota in [13u64, 1, 200, 5].iter().cycle() {
            if cursor.step_batch(&p, *quota) == 0 {
                break;
            }
        }
        let got = cursor.into_result(std::time::Duration::ZERO, sa.hood.name());
        assert_eq!(got.best, want.best);
        assert_eq!(got.best_fitness, want.best_fitness);
        assert_eq!(got.iterations, want.iterations);
        assert_eq!(got.evals, want.evals);
    }

    #[test]
    fn cursor_persists_mid_walk_and_resumes_exactly() {
        let p = ZeroCount { n: 26 };
        let mut rng = StdRng::seed_from_u64(12);
        let init = BitString::random(&mut rng, 26);
        let sa = SimulatedAnnealing::new(
            SearchConfig::budget(400).with_seed(21),
            KHamming::new(26, 2),
            1.3,
        );
        let want = sa.run(&p, init.clone());

        // Walk part-way, snapshot to bytes, revive, finish.
        let mut cursor = sa.cursor(&p, init);
        cursor.step_batch(&p, 137);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut revived: AnnealCursor<ZeroCount, KHamming> =
            AnnealCursor::read_persisted(&mut crate::persist::Reader::new(&bytes), &p)
                .expect("decode");
        assert_eq!(revived.iterations(), 137);
        revived.step_batch(&p, u64::MAX);
        assert_eq!(revived.best(), want.best_fitness);
        assert_eq!(revived.iterations(), want.iterations);
        assert_eq!(revived.evals(), want.evals);

        // The wrong problem instance is rejected, as is truncation.
        let wrong = ZeroCount { n: 24 };
        assert!(AnnealCursor::<ZeroCount, KHamming>::read_persisted(
            &mut crate::persist::Reader::new(&bytes),
            &wrong
        )
        .is_err());
        assert!(AnnealCursor::<ZeroCount, KHamming>::read_persisted(
            &mut crate::persist::Reader::new(&bytes[..bytes.len() - 3]),
            &p
        )
        .is_err());
    }
}
