//! The steppable-search contract every schedulable driver implements.
//!
//! The paper's core observation is that *one neighborhood iteration* —
//! generate the full neighborhood, evaluate it on the device, commit the
//! selected move — is the unit of GPU work. That makes it the natural
//! preemption quantum for a multi-tenant fleet: any search whose
//! loop-carried state can be held in a resumable cursor can be stepped a
//! quantum at a time, checkpointed mid-run, and interleaved with other
//! tenants without changing a single move it makes.
//!
//! [`SearchCursor`] captures that contract. A cursor owns every piece of
//! loop-carried state (current solution, memory structures, RNG,
//! counters); what it does *not* own — the problem instance and the
//! evaluation backend — is passed to [`step_batch`](SearchCursor::step_batch)
//! as the [`Ctx`](SearchCursor::Ctx) associated type, so one trait covers
//! drivers with very different externals:
//!
//! * [`TabuCursor`](crate::tabu::TabuCursor) steps against
//!   `(&P, &mut dyn Explorer<P>)` — full-neighborhood tabu search;
//! * [`AnnealCursor`](crate::anneal::AnnealCursor) steps against `&P` —
//!   simulated annealing samples its own neighbors;
//! * `lnls_qap::RtsCursor` steps against
//!   `(&QapInstance, &mut dyn SwapEvaluator)` — Taillard's robust tabu
//!   on the QAP swap neighborhood.
//!
//! Implementations must be **bit-exact** with their run-to-completion
//! drivers: stepping a cursor in quanta of any size makes exactly the
//! moves one uninterrupted run makes. The runtime scheduler's preemption
//! tests enforce this property end to end.

/// One resumable search walk, steppable in iteration quanta.
///
/// See the [module docs](self) for the contract. Wall-clock limits are
/// deliberately outside the trait — a cursor has no clock; drivers that
/// honor [`SearchConfig::time_limit`](crate::search::SearchConfig)
/// check it between `step_batch` calls.
///
/// `SearchCursor` is not object-safe (the `Ctx` GAT names each driver's
/// externals precisely); schedulers that need a uniform handle bundle a
/// cursor with its externals behind [`DynCursor`] — see
/// [`ProblemCursor`] for the ready-made adapter covering every cursor
/// that steps against `&P` alone.
pub trait SearchCursor {
    /// External dependencies one step needs (problem instance,
    /// evaluation backend). Borrowed per call so the cursor itself stays
    /// a self-contained, cloneable bundle of loop-carried state.
    type Ctx<'a>
    where
        Self: 'a;

    /// Self-contained deep copy of the loop-carried state. Restoring it
    /// and continuing reproduces the original walk move for move.
    type Snapshot;

    /// Run at most `quota` iterations; returns how many actually ran.
    /// A short count means the walk finished ([`is_done`](Self::is_done)
    /// turned true) before the quota was spent. `quota == u64::MAX`
    /// means "run to completion".
    fn step_batch(&mut self, ctx: Self::Ctx<'_>, quota: u64) -> u64;

    /// True when the walk has nothing left to do (target reached or
    /// budget exhausted); `step_batch` is a no-op from then on.
    fn is_done(&self) -> bool;

    /// Best fitness (cost) seen so far.
    fn best(&self) -> i64;

    /// Iterations executed so far.
    fn iterations(&self) -> u64;

    /// Capture the walk mid-flight.
    fn snapshot(&self) -> Self::Snapshot;

    /// Rewind the walk to a captured snapshot.
    fn restore(&mut self, snapshot: Self::Snapshot);
}

/// Object-safe view of a steppable walk: a [`SearchCursor`] *bundled
/// with the externals its steps need*, so callers that cannot name the
/// concrete `Ctx` type (job schedulers, registries, plugin layers) can
/// still drive it through `Box<dyn DynCursor>`.
///
/// The contract is inherited from [`SearchCursor`]: stepping in quanta
/// of any size makes exactly the moves one uninterrupted run makes.
pub trait DynCursor: Send {
    /// Run at most `quota` iterations; returns how many actually ran
    /// (see [`SearchCursor::step_batch`]).
    fn step(&mut self, quota: u64) -> u64;

    /// True when the walk has nothing left to do.
    fn is_done(&self) -> bool;

    /// Best fitness (cost) seen so far.
    fn best(&self) -> i64;

    /// Iterations executed so far.
    fn iterations(&self) -> u64;
}

/// Adapter turning any cursor whose [`Ctx`](SearchCursor::Ctx) is a
/// plain problem borrow (`&P`) into an object-safe [`DynCursor`] by
/// bundling it with a shared handle to that problem.
///
/// [`AnnealCursor`](crate::anneal::AnnealCursor) is the bundled
/// implementation: simulated annealing samples its own neighbors, so
/// the problem instance is the only external a step needs. Cursors with
/// richer externals (an evaluation backend, a device ledger) keep their
/// own purpose-built executors.
pub struct ProblemCursor<P, C> {
    problem: std::sync::Arc<P>,
    cursor: C,
}

impl<P, C> ProblemCursor<P, C> {
    /// Bundle `cursor` with the problem it steps against.
    pub fn new(problem: std::sync::Arc<P>, cursor: C) -> Self {
        Self { problem, cursor }
    }

    /// The bundled problem instance.
    pub fn problem(&self) -> &std::sync::Arc<P> {
        &self.problem
    }

    /// The wrapped cursor.
    pub fn cursor(&self) -> &C {
        &self.cursor
    }

    /// Unbundle into the problem handle and the cursor.
    pub fn into_parts(self) -> (std::sync::Arc<P>, C) {
        (self.problem, self.cursor)
    }
}

impl<P, C: Clone> Clone for ProblemCursor<P, C> {
    fn clone(&self) -> Self {
        Self { problem: std::sync::Arc::clone(&self.problem), cursor: self.cursor.clone() }
    }
}

impl<P, C> DynCursor for ProblemCursor<P, C>
where
    P: Send + Sync + 'static,
    C: Send + 'static + for<'a> SearchCursor<Ctx<'a> = &'a P>,
{
    fn step(&mut self, quota: u64) -> u64 {
        self.cursor.step_batch(&self.problem, quota)
    }

    fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    fn best(&self) -> i64 {
        self.cursor.best()
    }

    fn iterations(&self) -> u64 {
        self.cursor.iterations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{AnnealCursor, SimulatedAnnealing};
    use crate::bitstring::BitString;
    use crate::explore::{Explorer, SequentialExplorer};
    use crate::problem::testutil::ZeroCount;
    use crate::search::SearchConfig;
    use crate::tabu::TabuSearch;
    use lnls_neighborhood::{KHamming, Neighborhood};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Stepping a cursor in ragged quanta — with a snapshot/restore
    /// detour in the middle — lands on exactly the run-to-completion
    /// result. Exercised for both core cursors through the one trait.
    #[test]
    fn quanta_and_snapshots_are_invisible_tabu() {
        let p = ZeroCount { n: 24 };
        let hood = KHamming::new(24, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let init = BitString::random(&mut rng, 24);
        let search = TabuSearch::paper(SearchConfig::budget(40).with_seed(9), hood.size());

        let mut ex = SequentialExplorer::new(hood);
        let want = search.run(&p, &mut ex, init.clone());

        let mut cursor = search.cursor(&p, init);
        let mut ex2 = SequentialExplorer::new(hood);
        let mut ran = 0;
        for quota in [1u64, 3, 2, 7, 1, u64::MAX] {
            let snap = cursor.snapshot();
            let a = cursor.step_batch((&p, &mut ex2 as &mut dyn Explorer<ZeroCount>), quota);
            // Rewind and replay the same quota: identical progress.
            cursor.restore(snap);
            let b = cursor.step_batch((&p, &mut ex2 as &mut dyn Explorer<ZeroCount>), quota);
            assert_eq!(a, b, "replay after restore must be deterministic");
            ran += b;
            if cursor.is_done() {
                break;
            }
        }
        assert_eq!(ran, want.iterations);
        assert_eq!(cursor.best(), want.best_fitness);
        assert_eq!(cursor.iterations(), want.iterations);
    }

    #[test]
    fn quanta_and_snapshots_are_invisible_anneal() {
        let p = ZeroCount { n: 20 };
        let hood = KHamming::new(20, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let init = BitString::random(&mut rng, 20);
        let sa = SimulatedAnnealing::new(SearchConfig::budget(300).with_seed(7), hood, 1.5);
        let want = sa.run(&p, init.clone());

        let mut cursor: AnnealCursor<ZeroCount, KHamming> = sa.cursor(&p, init);
        while !cursor.is_done() {
            let snap = cursor.snapshot();
            cursor.step_batch(&p, 11);
            let after = cursor.iterations();
            cursor.restore(snap);
            cursor.step_batch(&p, 11);
            assert_eq!(cursor.iterations(), after);
        }
        assert_eq!(cursor.best(), want.best_fitness);
        assert_eq!(cursor.iterations(), want.iterations);
    }

    /// The object-safe adapter must reproduce the typed walk exactly:
    /// a boxed `dyn DynCursor` stepped in ragged quanta lands on the
    /// run-to-completion result.
    #[test]
    fn problem_cursor_erases_without_changing_the_walk() {
        let p = ZeroCount { n: 20 };
        let hood = KHamming::new(20, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let init = BitString::random(&mut rng, 20);
        let sa = SimulatedAnnealing::new(SearchConfig::budget(250).with_seed(13), hood, 1.4);
        let want = sa.run(&p, init.clone());

        let cursor = sa.cursor(&p, init);
        let mut walk: Box<dyn DynCursor> =
            Box::new(ProblemCursor::new(std::sync::Arc::new(p), cursor));
        for quota in [5u64, 1, 90, 3].iter().cycle() {
            if walk.step(*quota) == 0 {
                break;
            }
        }
        assert!(walk.is_done());
        assert_eq!(walk.best(), want.best_fitness);
        assert_eq!(walk.iterations(), want.iterations);
    }
}
