//! Tabu search (paper §IV.B): the general LS model of Fig. 1 driven by a
//! short-term memory. The paper follows Taillard's robust taboo search
//! and sets "the tabu list size … to m/6 where m is the number of
//! neighbors", with the list holding "the solutions that have been
//! visited in the recent past".
//!
//! Two faithful readings are implemented:
//!
//! * [`TabuStrategy::SolutionRing`] (default, the literal reading): a
//!   ring of the last `L` visited solutions; a move is tabu when it would
//!   recreate one of them. Solutions are compared by 64-bit Zobrist hash,
//!   updated in O(k) per candidate.
//! * [`TabuStrategy::Attribute`]: the classic attribute memory — a bit
//!   flipped in the last `tenure` iterations may not be flipped back.
//!
//! Aspiration: a tabu move is admissible anyway when it improves on the
//! best fitness seen so far.

use crate::bitstring::{zobrist_table, BitString};
use crate::cursor::SearchCursor;
use crate::explore::Explorer;
use crate::persist::{Persist, PersistError, Reader};
use crate::problem::IncrementalEval;
use crate::search::{SearchConfig, SearchResult, StopReason};
use lnls_gpu_sim::TimeBook;
use lnls_neighborhood::FlipMove;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Short-term memory variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TabuStrategy {
    /// Ring of the last `len` visited solutions (Zobrist hashes). A move
    /// is tabu when it would recreate one of them — the most literal
    /// reading of "the tabu list contains the solutions that have been
    /// visited in the recent past".
    SolutionRing {
        /// Ring capacity; the paper uses `m/6`.
        len: usize,
    },
    /// Ring of the last `len` *applied move indices*. Re-applying a
    /// k-flip move undoes it exactly, so this forbids recent reversals;
    /// it is the reading under which "size m/6" scales sensibly with
    /// every neighborhood (m = neighborhood size).
    MoveRing {
        /// Ring capacity; the paper uses `m/6`.
        len: usize,
    },
    /// Attribute memory: a flipped bit is tabu for `tenure` iterations
    /// (Taillard's robust taboo search, which the paper cites as its
    /// tabu base).
    Attribute {
        /// Iterations a bit stays tabu after being flipped.
        tenure: u64,
    },
}

impl TabuStrategy {
    /// The paper's configuration for a neighborhood of size `m`: a
    /// short-term memory of `m/6` entries, interpreted as a move ring
    /// (see variant docs; the solution-ring reading is available
    /// explicitly).
    pub fn paper_default(neighborhood_size: u64) -> Self {
        TabuStrategy::MoveRing { len: ((neighborhood_size / 6).max(1) as usize).min(1 << 22) }
    }
}

/// Tabu-search driver over any [`Explorer`] backend.
#[derive(Clone)]
pub struct TabuSearch {
    /// Generic search knobs.
    pub config: SearchConfig,
    /// Short-term memory variant.
    pub strategy: TabuStrategy,
    /// Allow tabu moves that improve the global best.
    pub aspiration: bool,
    /// Record the best-so-far trajectory.
    pub keep_history: bool,
}

impl TabuSearch {
    /// A tabu search with the paper's configuration for a neighborhood of
    /// `m` moves: solution ring of `m/6`, aspiration on.
    pub fn paper(config: SearchConfig, neighborhood_size: u64) -> Self {
        Self {
            config,
            strategy: TabuStrategy::paper_default(neighborhood_size),
            aspiration: true,
            keep_history: false,
        }
    }

    /// Build a resumable [`TabuCursor`] positioned at `init`.
    ///
    /// The cursor owns every piece of loop-carried state, so callers can
    /// interleave many searches iteration by iteration (the runtime
    /// scheduler's launch batching), snapshot them mid-flight
    /// (checkpoint/resume), or drive them to completion like
    /// [`run`](Self::run) does.
    pub fn cursor<P: IncrementalEval>(&self, problem: &P, init: BitString) -> TabuCursor<P> {
        let n = problem.dim();
        assert_eq!(init.len(), n, "initial solution has wrong length");

        let s = init;
        let state = problem.init_state(&s);
        let cur_fitness = problem.state_fitness(&state);

        let ztable = zobrist_table(n, 0xC0FFEE ^ self.config.seed);
        let cur_hash = s.zobrist(&ztable);
        let ring_len = match self.strategy {
            TabuStrategy::SolutionRing { len } => len,
            _ => 0,
        };
        let mut ring: Vec<u64> = Vec::new();
        let mut ring_set: HashMap<u64, u32> = HashMap::new();
        if ring_len > 0 {
            ring_set.insert(cur_hash, 1);
            ring.push(cur_hash);
        }
        let mring_len = match self.strategy {
            TabuStrategy::MoveRing { len } => len,
            _ => 0,
        };

        TabuCursor {
            search: self.clone(),
            best: s.clone(),
            best_fitness: cur_fitness,
            history: self.keep_history.then(Vec::new),
            trajectory: self.keep_history.then(Vec::new),
            s,
            state,
            cur_fitness,
            ztable,
            cur_hash,
            ring,
            ring_pos: 0,
            ring_set,
            ring_len,
            mring: Vec::new(),
            mring_pos: 0,
            mring_set: HashMap::new(),
            mring_len,
            last_flip: vec![u64::MAX; n],
            iterations: 0,
            evals: 0,
            last_committed: None,
            out_scratch: Vec::new(),
        }
    }

    /// Run from the given initial solution.
    pub fn run<P, E>(&self, problem: &P, explorer: &mut E, init: BitString) -> SearchResult
    where
        P: IncrementalEval,
        E: Explorer<P> + ?Sized,
    {
        let t0 = Instant::now();
        let mut cursor = self.cursor(problem, init);
        loop {
            if let Some(limit) = self.config.time_limit {
                if t0.elapsed() >= limit {
                    break;
                }
            }
            if cursor.step(problem, explorer).is_some() {
                break;
            }
        }
        cursor.into_result(t0.elapsed(), explorer.book(), explorer.backend())
    }
}

/// The loop-carried state of one tabu-search walk, stepped externally.
///
/// Produced by [`TabuSearch::cursor`]. One [`step`](Self::step) performs
/// exactly one iteration of the paper's model — explore the full
/// neighborhood, select the best admissible move, commit it — so a run
/// driven through a cursor makes bit-for-bit the moves
/// [`TabuSearch::run`] makes (which is implemented on top of it).
///
/// For backends that evaluate *several* walks per device launch
/// (`BatchedExplorer`), the exploration and selection halves are exposed
/// separately: evaluate the neighborhood externally into a fitness
/// vector, then feed it to [`select_and_commit`](Self::select_and_commit).
///
/// The cursor is `Clone` (the problem state `P::State` always is), which
/// is what makes in-flight jobs checkpointable in the runtime scheduler.
pub struct TabuCursor<P: IncrementalEval> {
    search: TabuSearch,
    s: BitString,
    state: P::State,
    cur_fitness: i64,
    best: BitString,
    best_fitness: i64,
    history: Option<Vec<i64>>,
    trajectory: Option<Vec<i64>>,
    ztable: Vec<u64>,
    cur_hash: u64,
    ring: Vec<u64>,
    ring_pos: usize,
    ring_set: HashMap<u64, u32>,
    ring_len: usize,
    mring: Vec<u64>,
    mring_pos: usize,
    mring_set: HashMap<u64, u32>,
    mring_len: usize,
    last_flip: Vec<u64>,
    iterations: u64,
    evals: u64,
    last_committed: Option<FlipMove>,
    out_scratch: Vec<i64>,
}

impl<P: IncrementalEval> Clone for TabuCursor<P> {
    fn clone(&self) -> Self {
        Self {
            search: self.search.clone(),
            s: self.s.clone(),
            state: self.state.clone(),
            cur_fitness: self.cur_fitness,
            best: self.best.clone(),
            best_fitness: self.best_fitness,
            history: self.history.clone(),
            trajectory: self.trajectory.clone(),
            ztable: self.ztable.clone(),
            cur_hash: self.cur_hash,
            ring: self.ring.clone(),
            ring_pos: self.ring_pos,
            ring_set: self.ring_set.clone(),
            ring_len: self.ring_len,
            mring: self.mring.clone(),
            mring_pos: self.mring_pos,
            mring_set: self.mring_set.clone(),
            mring_len: self.mring_len,
            last_flip: self.last_flip.clone(),
            iterations: self.iterations,
            evals: self.evals,
            last_committed: self.last_committed,
            out_scratch: Vec::new(),
        }
    }
}

impl<P: IncrementalEval> TabuCursor<P> {
    /// Why the walk must stop now, if it must (target reached or budget
    /// exhausted). Wall-clock limits are the caller's concern — a cursor
    /// has no clock.
    pub fn stop_reason(&self) -> Option<StopReason> {
        let target = self.search.config.target_fitness;
        if target.is_some_and(|t| self.best_fitness <= t) {
            Some(StopReason::Target)
        } else if self.iterations >= self.search.config.max_iters {
            Some(StopReason::MaxIters)
        } else {
            None
        }
    }

    /// One full iteration through `explorer`. Returns `None` when the
    /// iteration ran, or the [`StopReason`] when the walk is finished and
    /// nothing was done.
    pub fn step<E>(&mut self, problem: &P, explorer: &mut E) -> Option<StopReason>
    where
        E: Explorer<P> + ?Sized,
    {
        if let Some(reason) = self.stop_reason() {
            return Some(reason);
        }
        let m = explorer.size();
        let mut out = std::mem::take(&mut self.out_scratch);
        explorer.explore(problem, &self.s, &mut self.state, &mut out);
        self.evals += m;
        self.iterations += 1;
        let iter = self.iterations - 1;
        self.select_commit_inner(problem, |i| explorer.unrank(i), &out, iter);
        self.out_scratch = out;
        if let Some(mv) = self.last_move() {
            explorer.committed(problem, &self.s, &self.state, &mv);
        }
        None
    }

    /// Selection half of one iteration, for externally evaluated
    /// neighborhoods: `out[i]` must hold the fitness of the neighbor with
    /// flat move index `i` under `hood`'s enumeration (the contract of
    /// [`Explorer::explore`]). Returns `false` (and does nothing) when
    /// the walk is already finished.
    pub fn select_and_commit<N: lnls_neighborhood::Neighborhood>(
        &mut self,
        problem: &P,
        hood: &N,
        out: &[i64],
    ) -> bool {
        if self.stop_reason().is_some() {
            return false;
        }
        self.evals += out.len() as u64;
        self.iterations += 1;
        let iter = self.iterations - 1;
        self.select_commit_inner(problem, |i| hood.unrank(i), out, iter);
        true
    }

    /// The move committed by the latest iteration (for explorer resync).
    pub fn last_move(&self) -> Option<FlipMove> {
        self.last_committed
    }

    /// The move to commit: the best admissible index of `out` (ties →
    /// lowest index), or the best index overall when every move is tabu,
    /// with its fitness.
    ///
    /// The scan itself is [`best_admissible`]. Only a candidate that
    /// beats the current admissible best, is not rescued by aspiration,
    /// and whose tabu status depends on its bits (solution ring,
    /// attribute memory) is decoded with `unrank` — the caller's decoder,
    /// so a mixed-radius neighborhood (`UnionHamming`) stays
    /// index-aligned with `out`.
    fn select(&self, out: &[i64], unrank: &impl Fn(u64) -> FlipMove, iter: u64) -> (i64, u64) {
        let aspiration = self.search.aspiration.then_some(self.best_fitness);
        best_admissible(out, &|idx, f| {
            aspiration.is_some_and(|best| f < best) || !self.is_tabu(idx, unrank, iter)
        })
    }

    /// Whether the move with flat index `idx` is tabu at iteration `iter`.
    fn is_tabu(&self, idx: u64, unrank: &impl Fn(u64) -> FlipMove, iter: u64) -> bool {
        match self.search.strategy {
            TabuStrategy::SolutionRing { .. } => {
                let mv = unrank(idx);
                let h = mv.bits().iter().fold(self.cur_hash, |h, &b| h ^ self.ztable[b as usize]);
                self.ring_set.contains_key(&h)
            }
            TabuStrategy::MoveRing { .. } => self.mring_set.contains_key(&idx),
            TabuStrategy::Attribute { tenure } => unrank(idx).bits().iter().any(|&b| {
                let lf = self.last_flip[b as usize];
                lf != u64::MAX && iter.saturating_sub(lf) < tenure
            }),
        }
    }

    fn select_commit_inner(
        &mut self,
        problem: &P,
        unrank: impl Fn(u64) -> FlipMove,
        out: &[i64],
        iter: u64,
    ) {
        let (f, chosen_idx) = self.select(out, &unrank, iter);
        let mv = unrank(chosen_idx);

        // Commit the move.
        problem.apply_move(&mut self.state, &self.s, &mv);
        self.s.apply(&mv);
        self.cur_fitness = f;
        debug_assert_eq!(problem.state_fitness(&self.state), self.cur_fitness);
        for &b in mv.bits() {
            self.cur_hash ^= self.ztable[b as usize];
            self.last_flip[b as usize] = iter;
        }
        self.last_committed = Some(mv);

        if self.ring_len > 0 {
            if self.ring.len() < self.ring_len {
                self.ring.push(self.cur_hash);
            } else {
                let evicted = std::mem::replace(&mut self.ring[self.ring_pos], self.cur_hash);
                self.ring_pos = (self.ring_pos + 1) % self.ring_len;
                if let Some(c) = self.ring_set.get_mut(&evicted) {
                    *c -= 1;
                    if *c == 0 {
                        self.ring_set.remove(&evicted);
                    }
                }
            }
            *self.ring_set.entry(self.cur_hash).or_insert(0) += 1;
        }
        if self.mring_len > 0 {
            if self.mring.len() < self.mring_len {
                self.mring.push(chosen_idx);
            } else {
                let evicted = std::mem::replace(&mut self.mring[self.mring_pos], chosen_idx);
                self.mring_pos = (self.mring_pos + 1) % self.mring_len;
                if let Some(c) = self.mring_set.get_mut(&evicted) {
                    *c -= 1;
                    if *c == 0 {
                        self.mring_set.remove(&evicted);
                    }
                }
            }
            *self.mring_set.entry(chosen_idx).or_insert(0) += 1;
        }

        if self.cur_fitness < self.best_fitness {
            self.best_fitness = self.cur_fitness;
            self.best = self.s.clone();
        }
        if let Some(h) = self.history.as_mut() {
            h.push(self.best_fitness);
        }
        if let Some(t) = self.trajectory.as_mut() {
            t.push(self.cur_fitness);
        }
    }

    /// Current solution.
    pub fn current(&self) -> &BitString {
        &self.s
    }

    /// The `(solution, state)` pair an external evaluation needs, split
    /// so both can be borrowed at once (a `BatchLane` holds the solution
    /// shared and the state mutably).
    pub fn explore_parts(&mut self) -> (&BitString, &mut P::State) {
        (&self.s, &mut self.state)
    }

    /// Iterations left in the budget.
    pub fn remaining_iters(&self) -> u64 {
        self.search.config.max_iters.saturating_sub(self.iterations)
    }

    /// Problem state of the current solution.
    pub fn state(&self) -> &P::State {
        &self.state
    }

    /// Mutable problem state (exploration backends use scratch space
    /// inside it).
    pub fn state_mut(&mut self) -> &mut P::State {
        &mut self.state
    }

    /// Best fitness seen so far.
    pub fn best_fitness(&self) -> i64 {
        self.best_fitness
    }

    /// Best solution seen so far.
    pub fn best_solution(&self) -> &BitString {
        &self.best
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Neighbor evaluations consumed so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Byte-level snapshot of the walk (hand-rolled; see
    /// [`crate::persist`]). Everything derivable is left out and rebuilt
    /// by [`read_persisted`](Self::read_persisted): the Zobrist table
    /// comes from `(n, seed)`, the incremental state from the problem,
    /// and the ring lookup sets from the rings themselves.
    pub fn persist(&self, out: &mut Vec<u8>) {
        self.search.config.write(out);
        self.search.strategy.write(out);
        self.search.aspiration.write(out);
        self.search.keep_history.write(out);
        self.s.write(out);
        self.best.write(out);
        self.cur_fitness.write(out);
        self.best_fitness.write(out);
        self.history.write(out);
        self.trajectory.write(out);
        self.ring.write(out);
        self.ring_pos.write(out);
        self.mring.write(out);
        self.mring_pos.write(out);
        self.last_flip.write(out);
        self.iterations.write(out);
        self.evals.write(out);
        self.last_committed.write(out);
    }

    /// Rebuild a walk captured by [`persist`](Self::persist). `problem`
    /// must be the same instance the walk ran on — the rebuilt
    /// incremental state is cross-checked against the recorded fitness.
    pub fn read_persisted(r: &mut Reader<'_>, problem: &P) -> Result<Self, PersistError> {
        let search = TabuSearch {
            config: r.read()?,
            strategy: r.read()?,
            aspiration: r.read()?,
            keep_history: r.read()?,
        };
        let s: BitString = r.read()?;
        let n = problem.dim();
        if s.len() != n {
            return Err(PersistError::new("solution length does not match the problem"));
        }
        let best: BitString = r.read()?;
        let cur_fitness: i64 = r.read()?;
        let best_fitness: i64 = r.read()?;
        let history: Option<Vec<i64>> = r.read()?;
        let trajectory: Option<Vec<i64>> = r.read()?;
        let ring: Vec<u64> = r.read()?;
        let ring_pos: usize = r.read()?;
        let mring: Vec<u64> = r.read()?;
        let mring_pos: usize = r.read()?;
        let last_flip: Vec<u64> = r.read()?;
        let iterations: u64 = r.read()?;
        let evals: u64 = r.read()?;
        let last_committed: Option<FlipMove> = r.read()?;

        let state = problem.init_state(&s);
        if problem.state_fitness(&state) != cur_fitness {
            return Err(PersistError::new(
                "rebuilt state fitness disagrees with the snapshot (wrong problem instance?)",
            ));
        }
        let ztable = zobrist_table(n, 0xC0FFEE ^ search.config.seed);
        let cur_hash = s.zobrist(&ztable);
        let ring_len = match search.strategy {
            TabuStrategy::SolutionRing { len } => len,
            _ => 0,
        };
        let mring_len = match search.strategy {
            TabuStrategy::MoveRing { len } => len,
            _ => 0,
        };
        // Corrupt bytes must be rejected here, not crash a later step:
        // rings never exceed the strategy's capacity, eviction cursors
        // stay inside it, and the attribute memory covers every bit.
        if best.len() != n || last_flip.len() != n {
            return Err(PersistError::new("best/last-flip length does not match the problem"));
        }
        if ring.len() > ring_len || ring_pos >= ring_len.max(1) {
            return Err(PersistError::new("solution ring exceeds its strategy capacity"));
        }
        if mring.len() > mring_len || mring_pos >= mring_len.max(1) {
            return Err(PersistError::new("move ring exceeds its strategy capacity"));
        }
        let mut ring_set: HashMap<u64, u32> = HashMap::new();
        for &h in &ring {
            *ring_set.entry(h).or_insert(0) += 1;
        }
        let mut mring_set: HashMap<u64, u32> = HashMap::new();
        for &idx in &mring {
            *mring_set.entry(idx).or_insert(0) += 1;
        }
        Ok(Self {
            search,
            s,
            state,
            cur_fitness,
            best,
            best_fitness,
            history,
            trajectory,
            ztable,
            cur_hash,
            ring,
            ring_pos,
            ring_set,
            ring_len,
            mring,
            mring_pos,
            mring_set,
            mring_len,
            last_flip,
            iterations,
            evals,
            last_committed,
            out_scratch: Vec::new(),
        })
    }

    /// Finalize into a [`SearchResult`]; the caller supplies what a
    /// cursor cannot know — elapsed wall-clock and the backend identity.
    pub fn into_result(
        self,
        wall: Duration,
        book: Option<TimeBook>,
        backend: String,
    ) -> SearchResult {
        let target = self.search.config.target_fitness;
        SearchResult {
            best: self.best,
            best_fitness: self.best_fitness,
            iterations: self.iterations,
            success: target.is_some_and(|t| self.best_fitness <= t),
            evals: self.evals,
            wall,
            book,
            backend,
            history: self.history,
            trajectory: self.trajectory,
        }
    }
}

/// Moves per chunk of [`best_admissible`]'s scan.
const SELECT_CHUNK: usize = 64;

/// The smallest entry of `xs` (`i64::MAX` when empty), kept in eight
/// independent lanes: no compare waits on the one before it, as in a
/// single compare-and-move chain, and targets with 64-bit vector
/// compares can vectorize them.
fn chunk_min(xs: &[i64]) -> i64 {
    const LANES: usize = 8;
    let mut lanes = [i64::MAX; LANES];
    let mut blocks = xs.chunks_exact(LANES);
    for block in &mut blocks {
        for (lane, &f) in lanes.iter_mut().zip(block) {
            *lane = (*lane).min(f);
        }
    }
    lanes.iter().chain(blocks.remainder()).fold(i64::MAX, |m, &f| m.min(f))
}

/// The tabu selection rule over a fitness vector: the lowest `out[i]`
/// among the indices `admissible(i, out[i])` accepts, ties to the lowest
/// index; the lowest overall when it accepts none.
///
/// `out` is scanned in chunks of [`SELECT_CHUNK`]. Once an admissible
/// incumbent exists, a chunk is walked move by move only when its
/// minimum is strictly below the incumbent's fitness: its indices are
/// all higher, so a tie cannot win. Neighbors have similar fitness, so
/// the incumbent settles early and most chunks cost one eight-lane
/// minimum. `admissible` must be pure; it sees each candidate at most
/// once, in index order.
///
/// Non-generic on purpose: it is compiled once here, whichever crate
/// instantiates the cursor.
fn best_admissible(out: &[i64], admissible: &dyn Fn(u64, i64) -> bool) -> (i64, u64) {
    let mut best: Option<(i64, u64)> = None;
    for (lo, chunk) in (0u64..).step_by(SELECT_CHUNK).zip(out.chunks(SELECT_CHUNK)) {
        if best.is_some_and(|(bf, _)| chunk_min(chunk) >= bf) {
            continue;
        }
        for (idx, &f) in (lo..).zip(chunk) {
            if best.is_none_or(|(bf, _)| f < bf) && admissible(idx, f) {
                best = Some((f, idx));
            }
        }
    }
    best.unwrap_or_else(|| {
        let f = chunk_min(out);
        let idx = out.iter().position(|&x| x == f).expect("non-empty neighborhood");
        (f, idx as u64)
    })
}

impl<P: IncrementalEval> SearchCursor for TabuCursor<P> {
    type Ctx<'a>
        = (&'a P, &'a mut dyn Explorer<P>)
    where
        Self: 'a;
    type Snapshot = Self;

    fn step_batch(&mut self, (problem, explorer): Self::Ctx<'_>, quota: u64) -> u64 {
        let mut ran = 0;
        while ran < quota {
            if self.step(problem, explorer).is_some() {
                break;
            }
            ran += 1;
        }
        ran
    }

    fn is_done(&self) -> bool {
        self.stop_reason().is_some()
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
    use crate::explore::SequentialExplorer;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::{KHamming, Neighborhood, UnionHamming};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_zerocount(n: usize, strategy: TabuStrategy, iters: u64) -> SearchResult {
        let p = ZeroCount { n };
        let mut rng = StdRng::seed_from_u64(11);
        let init = BitString::random(&mut rng, n);
        let mut ex = SequentialExplorer::new(KHamming::new(n, 1));
        let search = TabuSearch {
            config: SearchConfig::budget(iters).with_seed(1),
            strategy,
            aspiration: true,
            keep_history: true,
        };
        search.run(&p, &mut ex, init)
    }

    #[test]
    fn solves_zerocount_with_solution_ring() {
        let r = run_zerocount(32, TabuStrategy::SolutionRing { len: 50 }, 200);
        assert!(r.success, "fitness {}", r.best_fitness);
        assert_eq!(r.best_fitness, 0);
        assert_eq!(r.best.count_ones(), 32);
        // ZeroCount under best-improvement 1-flip: strictly decreasing, so
        // iterations ≈ number of zero bits in the start solution.
        assert!(r.iterations <= 33);
    }

    #[test]
    fn solves_zerocount_with_attribute_memory() {
        let r = run_zerocount(32, TabuStrategy::Attribute { tenure: 5 }, 200);
        assert!(r.success);
    }

    #[test]
    fn history_is_monotone_best_so_far() {
        let r = run_zerocount(24, TabuStrategy::SolutionRing { len: 20 }, 100);
        let h = r.history.expect("history requested");
        assert!(h.windows(2).all(|w| w[1] <= w[0]), "best-so-far must not regress");
    }

    /// Count-of-ones (minimize), used to observe oscillation: starting at
    /// the optimum (all zeros), every move goes uphill and the tempting
    /// move is always straight back.
    struct CountOnes {
        n: usize,
    }
    impl crate::problem::BinaryProblem for CountOnes {
        fn dim(&self) -> usize {
            self.n
        }
        fn evaluate(&self, s: &BitString) -> i64 {
            s.count_ones() as i64
        }
    }
    impl IncrementalEval for CountOnes {
        type State = i64;
        fn init_state(&self, s: &BitString) -> i64 {
            s.count_ones() as i64
        }
        fn state_fitness(&self, state: &i64) -> i64 {
            *state
        }
        fn neighbor_fitness(&self, state: &mut i64, s: &BitString, mv: &FlipMove) -> i64 {
            let mut f = *state;
            for &b in mv.bits() {
                f += if s.get(b as usize) { -1 } else { 1 };
            }
            f
        }
        fn apply_move(&self, state: &mut i64, s: &BitString, mv: &FlipMove) {
            *state = self.neighbor_fitness(state, s, mv);
        }
    }

    fn oscillation_trajectory(strategy: TabuStrategy) -> Vec<i64> {
        let p = CountOnes { n: 8 };
        let mut ex = SequentialExplorer::new(KHamming::new(8, 1));
        let search = TabuSearch {
            config: SearchConfig { max_iters: 6, target_fitness: None, time_limit: None, seed: 0 },
            strategy,
            aspiration: true,
            keep_history: true,
        };
        let r = search.run(&p, &mut ex, BitString::zeros(8));
        r.trajectory.expect("history requested")
    }

    #[test]
    fn ring_prevents_immediate_backtracking() {
        // Start at the optimum (weight 0). The first move must go uphill
        // to weight 1. Without memory, the best neighbor of weight-1 is
        // weight-0 again: the trajectory would oscillate 1,0,1,0….
        // The ring forbids recreating a visited solution, so weight 0 can
        // never reappear.
        let with_ring = oscillation_trajectory(TabuStrategy::SolutionRing { len: 16 });
        assert_eq!(with_ring[0], 1);
        assert!(
            with_ring.iter().all(|&f| f > 0),
            "ring failed to prevent revisiting the start: {with_ring:?}"
        );

        // Degenerate memory (ring of 1 = only the current solution) lets
        // the search bounce straight back.
        let no_memory = oscillation_trajectory(TabuStrategy::SolutionRing { len: 1 });
        assert!(no_memory.contains(&0), "expected oscillation without memory: {no_memory:?}");
    }

    #[test]
    fn paper_default_list_size() {
        match TabuStrategy::paper_default(2628) {
            TabuStrategy::MoveRing { len } => assert_eq!(len, 438),
            _ => panic!("wrong strategy"),
        }
    }

    #[test]
    fn move_ring_prevents_reversal() {
        // Same setup as the solution-ring test: with a move ring the
        // immediate undo (same move index) is tabu, so weight 0 cannot
        // reappear right away.
        let with_ring = oscillation_trajectory(TabuStrategy::MoveRing { len: 16 });
        assert_eq!(with_ring[0], 1);
        assert!(with_ring[1] > 0, "move ring failed to forbid the undo: {with_ring:?}");
    }

    #[test]
    fn two_hamming_tabu_runs() {
        let p = ZeroCount { n: 16 };
        let mut rng = StdRng::seed_from_u64(2);
        let init = BitString::random(&mut rng, 16);
        let hood = KHamming::new(16, 2);
        let mut ex = SequentialExplorer::new(hood);
        let search = TabuSearch::paper(SearchConfig::budget(100), hood.size());
        let r = search.run(&p, &mut ex, init.clone());
        // 2-flips preserve parity of ones-count relative to init: success
        // only possible if parity matches; either way fitness ≤ init's.
        let p0 = ZeroCount { n: 16 };
        use crate::problem::BinaryProblem;
        assert!(r.best_fitness <= p0.evaluate(&init));
        assert!(r.iterations > 0);
    }

    #[test]
    fn persisted_cursor_resumes_identically() {
        let p = ZeroCount { n: 24 };
        let hood = KHamming::new(24, 2);
        let mut rng = StdRng::seed_from_u64(13);
        let init = BitString::random(&mut rng, 24);
        let search = TabuSearch {
            config: SearchConfig::budget(30).with_seed(3),
            strategy: TabuStrategy::SolutionRing { len: 9 },
            aspiration: true,
            keep_history: true,
        };
        let mut cursor = search.cursor(&p, init);
        let mut ex = SequentialExplorer::new(hood);
        for _ in 0..7 {
            cursor.step(&p, &mut ex);
        }
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut revived = TabuCursor::read_persisted(&mut Reader::new(&bytes), &p).expect("decode");
        while cursor.step(&p, &mut ex).is_none() {}
        let mut ex2 = SequentialExplorer::new(hood);
        while revived.step(&p, &mut ex2).is_none() {}
        assert_eq!(revived.best_fitness(), cursor.best_fitness());
        assert_eq!(revived.iterations(), cursor.iterations());
        assert_eq!(revived.evals(), cursor.evals());
        assert_eq!(revived.best_solution(), cursor.best_solution());
    }

    #[test]
    fn persisted_cursor_rejects_wrong_problem() {
        let p = ZeroCount { n: 16 };
        let search = TabuSearch::paper(SearchConfig::budget(5), 16);
        let cursor = search.cursor(&p, BitString::zeros(16));
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let wrong = ZeroCount { n: 20 };
        assert!(TabuCursor::read_persisted(&mut Reader::new(&bytes), &wrong).is_err());
    }

    /// The selection rule written out from its definition: among the
    /// admissible moves (not tabu, or better than the best fitness with
    /// aspiration on) the lowest fitness wins, ties to the lowest index;
    /// with none admissible, the best move overall. Moves come from
    /// `for_each_move_in`, tabu status from the rings and the attribute
    /// memory themselves (a solution's full Zobrist hash, the move ring's
    /// entries), never from the cursor's lookup sets or `unrank`.
    fn reference_select<N: Neighborhood>(
        c: &TabuCursor<ZeroCount>,
        hood: &N,
        out: &[i64],
        iter: u64,
    ) -> (i64, u64) {
        let mut all = Vec::new();
        let mut admissible = Vec::new();
        hood.for_each_move_in(0, hood.size(), &mut |idx, mv| {
            let f = out[idx as usize];
            let tabu = match c.search.strategy {
                TabuStrategy::SolutionRing { .. } => {
                    let mut next = c.s.clone();
                    next.apply(&mv);
                    c.ring.contains(&next.zobrist(&c.ztable))
                }
                TabuStrategy::MoveRing { .. } => c.mring.contains(&idx),
                TabuStrategy::Attribute { tenure } => mv.bits().iter().any(|&b| {
                    let flipped = c.last_flip[b as usize];
                    flipped != u64::MAX && iter - flipped < tenure
                }),
            };
            all.push((f, idx));
            if !tabu || (c.search.aspiration && f < c.best_fitness) {
                admissible.push((f, idx));
            }
            true
        });
        admissible.into_iter().min().or(all.into_iter().min()).expect("non-empty")
    }

    /// A fitness vector over `m` moves. Shape 0 draws from five values,
    /// so ties are everywhere; shape 1 from a wide range, so the minimum
    /// is nearly unique and may sit in any chunk; shape 2 falls with the
    /// index, so later chunks keep beating the incumbent. On top, half
    /// the vectors get a new low tied across a chunk boundary, and a
    /// quarter a strict minimum on the last move, inside the ragged tail
    /// of the last chunk.
    fn fitness_vector(rng: &mut StdRng, m: usize, shape: u8) -> Vec<i64> {
        use rand::Rng;
        let mut out: Vec<i64> = match shape {
            0 => (0..m).map(|_| rng.gen_range(0..5)).collect(),
            1 => (0..m).map(|_| rng.gen_range(-1_000..1_000)).collect(),
            _ => (0..m).map(|i| (m - i) as i64 / 8 + rng.gen_range(0i64..3)).collect(),
        };
        let low = *out.iter().min().expect("non-empty neighborhood");
        if m > SELECT_CHUNK && rng.gen_bool(0.5) {
            let edge = SELECT_CHUNK * rng.gen_range(1..=(m - 1) / SELECT_CHUNK);
            out[edge - 1] = low - 1;
            out[edge] = low - 1;
        }
        if rng.gen_bool(0.25) {
            out[m - 1] = low - 2;
        }
        out
    }

    /// Random tabu memory over `hood` (about `tabu_pct`% of the moves, or
    /// every move at 100), a [`fitness_vector`] of `shape`, an aspiration
    /// threshold drawn from it, then the chunked scan against
    /// [`reference_select`].
    fn check_selection<N: Neighborhood>(
        hood: &N,
        (seed, strategy, aspiration, tabu_pct, shape): (u64, u8, bool, u64, u8),
    ) -> proptest::TestCaseResult {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, m) = (hood.dim(), hood.size());
        let tenure = 6;
        let strategy = match strategy {
            0 => TabuStrategy::SolutionRing { len: m as usize + 1 },
            1 => TabuStrategy::MoveRing { len: m as usize },
            _ => TabuStrategy::Attribute { tenure },
        };
        let search = TabuSearch {
            config: SearchConfig::budget(10),
            strategy,
            aspiration,
            keep_history: false,
        };
        let p = ZeroCount { n };
        let mut c = search.cursor(&p, BitString::random(&mut rng, n));
        let iter = 100;
        let mut moves = Vec::new();
        hood.for_each_move_in(0, m, &mut |idx, mv| {
            moves.push((idx, mv));
            true
        });
        for (idx, mv) in moves {
            if rng.gen_range(0..100u64) >= tabu_pct {
                continue;
            }
            let mut next = c.s.clone();
            next.apply(&mv);
            c.ring.push(next.zobrist(&c.ztable));
            c.mring.push(idx);
        }
        for b in 0..n {
            c.last_flip[b] = if rng.gen_range(0..100u64) < tabu_pct {
                iter - 1 - rng.gen_range(0..tenure)
            } else if rng.gen_bool(0.5) {
                iter - tenure - rng.gen_range(0..4u64)
            } else {
                u64::MAX
            };
        }
        for &h in &c.ring {
            *c.ring_set.entry(h).or_insert(0) += 1;
        }
        for &idx in &c.mring {
            *c.mring_set.entry(idx).or_insert(0) += 1;
        }
        let out = fitness_vector(&mut rng, m as usize, shape);
        c.best_fitness = out[rng.gen_range(0..m as usize)] + rng.gen_range(-1i64..2);

        let got = c.select(&out, &|i| hood.unrank(i), iter);
        proptest::prop_assert_eq!(got, reference_select(&c, hood, &out, iter));
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn index_scan_selection_matches_the_reference(
            seed in proptest::any::<u64>(),
            strategy in 0u8..3,
            aspiration in proptest::any::<bool>(),
            tabu_pct in 0u64..101,
            hood_and_n in 0usize..12,
            shape in 0u8..3,
        ) {
            // A third of the cases mark every move tabu (the fallback).
            let tabu_pct = if seed % 3 == 0 { 100 } else { tabu_pct };
            // 9 to 1,140 moves: one chunk up to eighteen, every last one
            // ragged.
            let (hood, n) = (hood_and_n % 4, [9, 14, 20][hood_and_n / 4]);
            let case = (seed, strategy, aspiration, tabu_pct, shape);
            match hood {
                0 => check_selection(&KHamming::new(n, 1), case)?,
                1 => check_selection(&KHamming::new(n, 2), case)?,
                2 => check_selection(&KHamming::new(n, 3), case)?,
                _ => check_selection(&UnionHamming::new(n, &[1, 2]), case)?,
            }
        }
    }

    #[test]
    fn time_limit_stops_early() {
        let p = ZeroCount { n: 64 };
        let mut ex = SequentialExplorer::new(KHamming::new(64, 2));
        let search = TabuSearch {
            config: SearchConfig {
                max_iters: u64::MAX,
                target_fitness: None, // never satisfied
                time_limit: Some(std::time::Duration::from_millis(50)),
                seed: 0,
            },
            strategy: TabuStrategy::paper_default(KHamming::new(64, 2).size()),
            aspiration: true,
            keep_history: false,
        };
        let r = search.run(&p, &mut ex, BitString::zeros(64));
        assert!(r.wall < std::time::Duration::from_secs(10));
        assert!(!r.success);
    }
}
