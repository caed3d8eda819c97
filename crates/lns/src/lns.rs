//! The destroy-and-repair cursor.

use crate::destroy::DestroyOp;
use crate::radius::AdaptiveRadius;
use lnls_core::persist::{Persist, PersistError, Reader};
use lnls_core::{BitString, IncrementalEval, SearchConfig, SearchCursor, SearchResult};
use lnls_neighborhood::FlipMove;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Most repair lanes a round may run: [`LnsSearch::with_lanes`] asserts
/// it and the decoder refuses more, so every search a caller can build
/// restores from its own checkpoint.
const MAX_LANES: usize = 1 << 16;

/// Most lane-passes (`lanes × inner_iters`) a round may run, under the
/// same contract as [`MAX_LANES`]. The runtime prices a round as one
/// stream span holding an upload and a readback per lane-pass, so this
/// keeps one span's schedule in the tens of megabytes. It admits every
/// lane count at the default two passes.
const MAX_LANE_PASSES: u64 = 1 << 17;

/// Whether `lanes` lanes of `inner_iters` passes fit [`MAX_LANE_PASSES`].
fn lane_passes_fit(lanes: usize, inner_iters: u64) -> bool {
    (lanes as u64).checked_mul(inner_iters).is_some_and(|p| p <= MAX_LANE_PASSES)
}

/// Configuration builder for the destroy-and-repair search.
///
/// `max_iters` counts **rounds** (one round = destroy → multi-lane
/// repair → accept/reject → radius update); the repair work inside a
/// round is what the fleet runtime prices as one fused multi-lane
/// batch.
#[derive(Clone, Debug)]
pub struct LnsSearch {
    config: SearchConfig,
    lanes: usize,
    inner_iters: u64,
    op: DestroyOp,
    radius: AdaptiveRadius,
}

impl LnsSearch {
    /// The fleet defaults: 4 repair lanes, 2 repair passes per round,
    /// cycling destroy operators, [`AdaptiveRadius::paper_default`].
    pub fn paper(config: SearchConfig) -> Self {
        Self {
            config,
            lanes: 4,
            inner_iters: 2,
            op: DestroyOp::Cycle,
            radius: AdaptiveRadius::paper_default(),
        }
    }

    /// Use `lanes` parallel repair lanes (at least 1, at most 2^16, and
    /// at most 2^17 lane-passes with the current pass count).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "need at least one repair lane");
        assert!(lanes <= MAX_LANES, "at most {MAX_LANES} repair lanes, got {lanes}");
        self.lanes = lanes;
        self.assert_lane_passes()
    }

    /// Run `inner_iters` repair passes per round (at least 1, and at most
    /// 2^17 lane-passes with the current lane count).
    pub fn with_inner_iters(mut self, inner_iters: u64) -> Self {
        assert!(inner_iters >= 1, "need at least one repair pass");
        self.inner_iters = inner_iters;
        self.assert_lane_passes()
    }

    fn assert_lane_passes(self) -> Self {
        let (lanes, passes) = (self.lanes, self.inner_iters);
        assert!(
            lane_passes_fit(lanes, passes),
            "at most {MAX_LANE_PASSES} lane-passes per round, got {lanes} lanes × {passes} passes"
        );
        self
    }

    /// Select freed variables with `op`.
    pub fn with_destroy(mut self, op: DestroyOp) -> Self {
        self.op = op;
        self
    }

    /// Control the destroy fraction with `radius`.
    pub fn with_radius(mut self, radius: AdaptiveRadius) -> Self {
        self.radius = radius;
        self
    }

    /// A resumable cursor over `problem` starting from `init`.
    ///
    /// # Panics
    /// Panics when `init` does not match the problem dimension.
    pub fn cursor<P: IncrementalEval>(&self, problem: &P, init: BitString) -> LnsCursor<P> {
        assert_eq!(init.len(), problem.dim(), "initial solution/problem dimension mismatch");
        let state = problem.init_state(&init);
        let cur_fitness = problem.state_fitness(&state);
        let target = self.config.target_fitness.or(problem.target_fitness());
        LnsCursor {
            max_rounds: self.config.max_iters,
            target,
            lanes: self.lanes,
            inner_iters: self.inner_iters,
            op: self.op,
            radius: self.radius.clone(),
            rng: StdRng::seed_from_u64(self.config.seed),
            best: init.clone(),
            best_fitness: cur_fitness,
            s: init,
            cur_fitness,
            rounds: 0,
            evals: 0,
            _problem: std::marker::PhantomData,
        }
    }

    /// Run to completion (convenience over [`cursor`](Self::cursor)).
    pub fn run<P: IncrementalEval>(&self, problem: &P, init: BitString) -> SearchResult {
        let mut cursor = self.cursor(problem, init);
        cursor.step_batch(problem, u64::MAX);
        cursor.into_result(std::time::Duration::ZERO)
    }
}

/// A resumable destroy-and-repair walk; see [`LnsSearch`].
///
/// One [`SearchCursor`] iteration is one **round**, atomic by design:
/// checkpoints land between rounds only, so stepping in quanta of any
/// size reproduces the uninterrupted walk bit for bit. Every random
/// choice (random destroy subsets, block starts, repair-lane restarts)
/// is drawn from one seeded RNG in a fixed order.
pub struct LnsCursor<P: IncrementalEval> {
    max_rounds: u64,
    target: Option<i64>,
    lanes: usize,
    inner_iters: u64,
    op: DestroyOp,
    radius: AdaptiveRadius,
    rng: StdRng,
    /// Incumbent solution.
    s: BitString,
    cur_fitness: i64,
    best: BitString,
    best_fitness: i64,
    rounds: u64,
    evals: u64,
    _problem: std::marker::PhantomData<fn(&P)>,
}

impl<P: IncrementalEval> Clone for LnsCursor<P> {
    fn clone(&self) -> Self {
        Self {
            max_rounds: self.max_rounds,
            target: self.target,
            lanes: self.lanes,
            inner_iters: self.inner_iters,
            op: self.op,
            radius: self.radius.clone(),
            rng: self.rng.clone(),
            s: self.s.clone(),
            cur_fitness: self.cur_fitness,
            best: self.best.clone(),
            best_fitness: self.best_fitness,
            rounds: self.rounds,
            evals: self.evals,
            _problem: std::marker::PhantomData,
        }
    }
}

impl<P: IncrementalEval> LnsCursor<P> {
    /// Repair lanes per round (the fused-batch width).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Repair passes per round (the fused-span length).
    pub fn inner_iters(&self) -> u64 {
        self.inner_iters
    }

    /// Variables the **next** round will free — the radius-derived
    /// repair neighborhood size the runtime prices the round's fused
    /// batch with. A pure function of the controller state.
    pub fn planned_free_count(&self) -> usize {
        let n = self.s.len();
        ((self.radius.fraction() * n as f64).ceil() as usize).clamp(1, n)
    }

    /// The destroy-radius controller.
    pub fn radius(&self) -> &AdaptiveRadius {
        &self.radius
    }

    /// The configured destroy operator.
    pub fn op(&self) -> DestroyOp {
        self.op
    }

    /// Current incumbent.
    pub fn current(&self) -> &BitString {
        &self.s
    }

    /// Incumbent fitness.
    pub fn current_fitness(&self) -> i64 {
        self.cur_fitness
    }

    /// Best solution found so far.
    pub fn best_solution(&self) -> &BitString {
        &self.best
    }

    /// Neighbor evaluations performed so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The freed indices of one destroy application, strictly
    /// increasing. All RNG draws happen here, in a fixed order.
    fn destroy(&mut self, problem: &P, free_count: usize) -> Vec<u32> {
        let n = self.s.len();
        match self.op.for_round(self.rounds) {
            DestroyOp::Random => {
                let mut picked = BTreeSet::new();
                while picked.len() < free_count {
                    picked.insert(self.rng.gen_range(0..n as u32));
                }
                picked.into_iter().collect()
            }
            DestroyOp::Block => {
                let start = self.rng.gen_range(0..n as u32);
                let mut idx: Vec<u32> =
                    (0..free_count as u32).map(|t| (start + t) % n as u32).collect();
                idx.sort_unstable();
                idx
            }
            DestroyOp::GreedyWorst => {
                // Free the variables whose single flip most improves the
                // incumbent (ties by index). No RNG draws.
                let mut st = problem.init_state(&self.s);
                let mut scored: Vec<(i64, u32)> = (0..n as u32)
                    .map(|i| (problem.neighbor_fitness(&mut st, &self.s, &FlipMove::one(i)), i))
                    .collect();
                self.evals += n as u64;
                scored.sort_unstable();
                let mut idx: Vec<u32> = scored[..free_count].iter().map(|&(_, i)| i).collect();
                idx.sort_unstable();
                idx
            }
            DestroyOp::Cycle => unreachable!("for_round resolves Cycle"),
        }
    }

    /// One full round: destroy, repair `lanes` starts with
    /// `inner_iters` greedy passes restricted to the freed variables,
    /// accept the best repaired lane when it improves the incumbent,
    /// update the radius controller.
    fn round(&mut self, problem: &P) {
        let free_count = self.planned_free_count();
        let freed = self.destroy(problem, free_count);

        let mut champion: Option<(BitString, i64)> = None;
        for lane in 0..self.lanes {
            let mut sol = self.s.clone();
            if lane > 0 {
                // Diversified restart: freed variables re-rolled from
                // the shared RNG stream (lane 0 repairs the incumbent).
                for &i in &freed {
                    let bit: bool = self.rng.gen();
                    sol.set(i as usize, bit);
                }
            }
            let mut st = problem.init_state(&sol);
            let mut fit = problem.state_fitness(&st);
            for _pass in 0..self.inner_iters {
                let mut best_mv: Option<(FlipMove, i64)> = None;
                for &i in &freed {
                    let mv = FlipMove::one(i);
                    let f = problem.neighbor_fitness(&mut st, &sol, &mv);
                    self.evals += 1;
                    if best_mv.is_none_or(|(_, bf)| f < bf) {
                        best_mv = Some((mv, f));
                    }
                }
                match best_mv {
                    Some((mv, f)) if f < fit => {
                        problem.apply_move(&mut st, &sol, &mv);
                        sol.apply(&mv);
                        fit = f;
                    }
                    _ => break, // freed sub-problem locally optimal
                }
            }
            if champion.as_ref().is_none_or(|&(_, cf)| fit < cf) {
                champion = Some((sol, fit));
            }
        }

        let (sol, fit) = champion.expect("at least one repair lane");
        if fit < self.cur_fitness {
            self.s = sol;
            self.cur_fitness = fit;
            self.radius.record_improvement();
            if fit < self.best_fitness {
                self.best = self.s.clone();
                self.best_fitness = fit;
            }
        } else {
            self.radius.record_stall();
        }
        self.rounds += 1;
    }

    /// Byte-level snapshot of the walk (hand-rolled; see
    /// [`lnls_core::persist`]). The incremental state is rebuilt from
    /// the problem by [`read_persisted`](Self::read_persisted).
    pub fn persist(&self, out: &mut Vec<u8>) {
        self.max_rounds.write(out);
        self.target.write(out);
        self.lanes.write(out);
        self.inner_iters.write(out);
        self.op.write(out);
        self.radius.write(out);
        self.rng.write(out);
        self.s.write(out);
        self.cur_fitness.write(out);
        self.best.write(out);
        self.best_fitness.write(out);
        self.rounds.write(out);
        self.evals.write(out);
    }

    /// Rebuild a walk captured by [`persist`](Self::persist). `problem`
    /// must be the instance the walk ran on — the rebuilt incremental
    /// state is cross-checked against the recorded fitness.
    pub fn read_persisted(r: &mut Reader<'_>, problem: &P) -> Result<Self, PersistError> {
        let max_rounds: u64 = r.read()?;
        let target: Option<i64> = r.read()?;
        let lanes: usize = r.read()?;
        let inner_iters: u64 = r.read()?;
        let op: DestroyOp = r.read()?;
        let radius: AdaptiveRadius = r.read()?;
        let rng: StdRng = r.read()?;
        let s: BitString = r.read()?;
        let cur_fitness: i64 = r.read()?;
        let best: BitString = r.read()?;
        let best_fitness: i64 = r.read()?;
        let rounds: u64 = r.read()?;
        let evals: u64 = r.read()?;
        if s.len() != problem.dim() || best.len() != problem.dim() {
            return Err(PersistError::new("solution length does not match the problem"));
        }
        if lanes == 0
            || lanes > MAX_LANES
            || inner_iters == 0
            || !lane_passes_fit(lanes, inner_iters)
        {
            return Err(PersistError::new("corrupt lns repair shape"));
        }
        let state = problem.init_state(&s);
        if problem.state_fitness(&state) != cur_fitness {
            return Err(PersistError::new(
                "rebuilt state fitness disagrees with the snapshot (wrong problem instance?)",
            ));
        }
        if problem.evaluate(&best) != best_fitness {
            return Err(PersistError::new("recorded best fitness disagrees with its solution"));
        }
        Ok(Self {
            max_rounds,
            target,
            lanes,
            inner_iters,
            op,
            radius,
            rng,
            s,
            cur_fitness,
            best,
            best_fitness,
            rounds,
            evals,
            _problem: std::marker::PhantomData,
        })
    }

    /// Finalize into a [`SearchResult`]; the caller supplies elapsed
    /// wall-clock (a cursor has no clock).
    pub fn into_result(self, wall: std::time::Duration) -> SearchResult {
        SearchResult {
            success: self.target.is_some_and(|t| self.best_fitness <= t),
            best: self.best,
            best_fitness: self.best_fitness,
            iterations: self.rounds,
            evals: self.evals,
            wall,
            book: None,
            backend: format!("lns/{}", self.op.label()),
            history: None,
            trajectory: None,
        }
    }
}

impl<P: IncrementalEval> SearchCursor for LnsCursor<P> {
    type Ctx<'a>
        = &'a P
    where
        Self: 'a;
    type Snapshot = Self;

    fn step_batch(&mut self, problem: &P, quota: u64) -> u64 {
        let mut ran = 0;
        while ran < quota && !self.is_done() {
            self.round(problem);
            ran += 1;
        }
        ran
    }

    fn is_done(&self) -> bool {
        self.rounds >= self.max_rounds || self.target.is_some_and(|t| self.best_fitness <= t)
    }

    fn best(&self) -> i64 {
        self.best_fitness
    }

    fn iterations(&self) -> u64 {
        self.rounds
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
    use lnls_core::BinaryProblem;
    use lnls_problems::{Knapsack, MaxSat, Qubo};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn searches() -> Vec<LnsSearch> {
        // Knapsack/Qubo fitness is negative, so `budget`'s default
        // target of 0 would stop instantly; run on rounds alone.
        let base = SearchConfig::budget(40).with_seed(11).with_target(None);
        vec![
            LnsSearch::paper(base.clone()),
            LnsSearch::paper(base.clone()).with_destroy(DestroyOp::Random).with_lanes(2),
            LnsSearch::paper(base.clone()).with_destroy(DestroyOp::Block).with_inner_iters(3),
            LnsSearch::paper(base).with_destroy(DestroyOp::GreedyWorst),
        ]
    }

    #[test]
    fn quanta_are_invisible_across_problems_and_ops() {
        let mut rng = StdRng::seed_from_u64(2);
        let knap = Knapsack::random(&mut rng, 24, 9, 5);
        let sat = MaxSat::random(&mut rng, 24, 90);
        let qubo = Qubo::random(&mut rng, 24, 7, 0.5);
        let init = BitString::random(&mut rng, 24);
        for search in searches() {
            macro_rules! check {
                ($p:expr) => {{
                    let want = search.run($p, init.clone());
                    let mut cursor = search.cursor($p, init.clone());
                    for quota in [1u64, 3, 2, 7, 1].iter().cycle() {
                        let snap = cursor.snapshot();
                        let a = cursor.step_batch($p, *quota);
                        cursor.restore(snap);
                        let b = cursor.step_batch($p, *quota);
                        assert_eq!(a, b, "replay after restore must be deterministic");
                        if cursor.is_done() {
                            break;
                        }
                    }
                    assert_eq!(cursor.best(), want.best_fitness);
                    assert_eq!(cursor.iterations(), want.iterations);
                    assert_eq!(cursor.evals(), want.evals);
                }};
            }
            check!(&knap);
            check!(&sat);
            check!(&qubo);
        }
    }

    #[test]
    fn repair_improves_a_random_start() {
        let mut rng = StdRng::seed_from_u64(5);
        let knap = Knapsack::random(&mut rng, 32, 10, 6);
        let init = BitString::random(&mut rng, 32);
        let start = knap.evaluate(&init);
        let r = LnsSearch::paper(SearchConfig::budget(60).with_seed(3).with_target(None))
            .run(&knap, init);
        assert!(r.best_fitness < start, "60 rounds must improve a random knapsack start");
        assert!(knap.feasible(&r.best), "penalized optimum should be feasible");
    }

    #[test]
    fn persist_roundtrip_resumes_identically() {
        let mut rng = StdRng::seed_from_u64(8);
        let qubo = Qubo::random(&mut rng, 20, 6, 0.6);
        let init = BitString::random(&mut rng, 20);
        let search = LnsSearch::paper(SearchConfig::budget(30).with_seed(17).with_target(None));
        let mut cursor = search.cursor(&qubo, init);
        cursor.step_batch(&qubo, 11);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut back = LnsCursor::read_persisted(&mut Reader::new(&bytes), &qubo).expect("decode");
        cursor.step_batch(&qubo, u64::MAX);
        back.step_batch(&qubo, u64::MAX);
        assert_eq!(back.best(), cursor.best());
        assert_eq!(back.iterations(), cursor.iterations());
        assert_eq!(back.evals(), cursor.evals());
        assert_eq!(back.current(), cursor.current());
    }

    #[test]
    fn persist_rejects_wrong_instance_and_corrupt_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Qubo::random(&mut rng, 16, 6, 0.6);
        let b = Qubo::random(&mut rng, 16, 6, 0.6);
        let init = BitString::random(&mut rng, 16);
        let search = LnsSearch::paper(SearchConfig::budget(20).with_seed(4).with_target(None));
        let mut cursor = search.cursor(&a, init);
        cursor.step_batch(&a, 5);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        assert!(
            LnsCursor::read_persisted(&mut Reader::new(&bytes), &b).is_err(),
            "a different instance must be refused"
        );
        assert!(LnsCursor::<Qubo>::read_persisted(&mut Reader::new(&[1, 2, 3]), &a).is_err());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn with_lanes_refuses_a_shape_its_decoder_refuses() {
        let _ = LnsSearch::paper(SearchConfig::budget(1)).with_lanes(MAX_LANES + 1);
    }

    #[test]
    #[should_panic(expected = "lane-passes")]
    fn with_inner_iters_refuses_a_shape_its_decoder_refuses() {
        // The runtime prices a round's passes as one stream span: 2^40
        // passes aborted the process on the span's event reservation.
        let _ = LnsSearch::paper(SearchConfig::budget(1)).with_inner_iters(1 << 40);
    }

    #[test]
    fn persist_rejects_lane_passes_past_the_bound() {
        let mut rng = StdRng::seed_from_u64(12);
        let qubo = Qubo::random(&mut rng, 12, 6, 0.6);
        let init = BitString::random(&mut rng, 12);
        let search = LnsSearch::paper(SearchConfig::budget(4).with_seed(2));
        let cursor = search.with_lanes(2).with_inner_iters(MAX_LANE_PASSES / 2).cursor(&qubo, init);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut prefix = Vec::new();
        cursor.max_rounds.write(&mut prefix);
        cursor.target.write(&mut prefix);
        cursor.lanes.write(&mut prefix);
        let at = prefix.len();
        let (lanes, passes) = (at - 8..at, at..at + 8);
        assert_eq!(bytes[passes.clone()], (MAX_LANE_PASSES / 2).to_le_bytes());
        let decode = |bytes: &[u8]| LnsCursor::read_persisted(&mut Reader::new(bytes), &qubo);
        assert!(decode(&bytes).is_ok(), "the bound itself restores");
        // One lane more puts the same passes past the product bound.
        let mut wider = bytes.clone();
        wider[lanes].copy_from_slice(&3u64.to_le_bytes());
        assert!(decode(&wider).is_err());
        bytes[passes].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn radius_reacts_to_the_walk() {
        // On a tiny OneMax-like knapsack the radius must move: stalls
        // widen it, improvements shrink it back.
        let mut rng = StdRng::seed_from_u64(10);
        let knap = Knapsack::random(&mut rng, 16, 8, 4);
        let init = BitString::random(&mut rng, 16);
        let search = LnsSearch::paper(SearchConfig::budget(200).with_seed(6).with_target(None));
        let mut cursor = search.cursor(&knap, init);
        let start_frac = cursor.radius().fraction();
        cursor.step_batch(&knap, u64::MAX);
        // After exhausting improvements the controller must have grown
        // past its floor at least once.
        assert!(
            cursor.radius().fraction() > start_frac || cursor.radius().stalls() > 0,
            "a finished walk ends in the stalled regime"
        );
    }
}
