//! The portfolio-race cursor: tabu vs. annealing vs. shaken descent.

use lnls_core::persist::{Persist, PersistError, Reader};
use lnls_core::{
    AnnealCursor, BitString, Explorer, IncrementalEval, SearchConfig, SearchCursor, SearchResult,
    SequentialExplorer, SimulatedAnnealing, TabuCursor, TabuSearch,
};
use lnls_neighborhood::{FlipMove, KHamming, Neighborhood};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

/// Display names of the three racing lanes, by lane index.
pub const LANE_NAMES: [&str; 3] = ["tabu", "sa", "gvns"];

/// Largest leader boost: [`PortfolioSearch::with_boost`] asserts it and
/// the decoder refuses more, so every race a caller can build restores
/// from its own checkpoint (a leader window prices `boost + 2` kernel
/// entries).
const MAX_BOOST: u64 = 1 << 16;

/// Configuration builder for the portfolio race.
///
/// `max_iters` counts **rounds**. Every round each lane advances one
/// sub-step, except the current leader which advances
/// [`boost`](Self::with_boost) sub-steps; at every
/// [`realloc_every`](Self::with_realloc_every)-round boundary the lane
/// with the best incumbent becomes the new leader. The three
/// heterogeneous lanes are what the runtime prices as one fused batch.
#[derive(Clone, Debug)]
pub struct PortfolioSearch {
    config: SearchConfig,
    realloc_every: u64,
    boost: u64,
    hood_k: usize,
}

impl PortfolioSearch {
    /// The fleet defaults: re-pick the leader every 8 rounds, give it a
    /// 4× sub-step boost, explore 2-Hamming tabu neighborhoods.
    pub fn paper(config: SearchConfig) -> Self {
        Self { config, realloc_every: 8, boost: 4, hood_k: 2 }
    }

    /// Re-pick the leader every `rounds` rounds (at least 1).
    pub fn with_realloc_every(mut self, rounds: u64) -> Self {
        assert!(rounds >= 1, "need a positive reallocation quantum");
        self.realloc_every = rounds;
        self
    }

    /// Give the leading lane `boost` sub-steps per round (at least 1, at
    /// most 2^16).
    pub fn with_boost(mut self, boost: u64) -> Self {
        assert!(boost >= 1, "the leader keeps at least one sub-step");
        assert!(boost <= MAX_BOOST, "a boost of at most {MAX_BOOST} sub-steps, got {boost}");
        self.boost = boost;
        self
    }

    /// Tabu-lane neighborhood order (k-Hamming, at least 1).
    pub fn with_hood_k(mut self, k: usize) -> Self {
        assert!(k >= 1, "neighborhood order must be at least 1");
        self.hood_k = k;
        self
    }

    /// A resumable race over `problem` starting all lanes from `init`.
    ///
    /// # Panics
    /// Panics when `init` does not match the problem dimension.
    pub fn cursor<P: IncrementalEval>(&self, problem: &P, init: BitString) -> PortfolioCursor<P> {
        let dim = problem.dim();
        assert_eq!(init.len(), dim, "initial solution/problem dimension mismatch");
        let target = self.config.target_fitness.or(problem.target_fitness());
        let seed = self.config.seed;
        let hood = KHamming::new(dim, self.hood_k);
        // Lanes never self-limit on iterations: the portfolio's round
        // budget is the only clock. Targets still stop a lane early.
        let lane_cfg = |s: u64| SearchConfig::budget(u64::MAX).with_seed(s).with_target(target);
        let tabu = TabuSearch::paper(lane_cfg(seed), hood.size()).cursor(problem, init.clone());
        let anneal = SimulatedAnnealing::new(lane_cfg(seed ^ 0x9e37_79b9), hood, 1.5)
            .cursor(problem, init.clone());
        let greedy = GreedyLane::new(problem, init, seed ^ 0x7f4a_7c15, 4);
        PortfolioCursor {
            max_rounds: self.config.max_iters,
            target,
            realloc_every: self.realloc_every,
            boost: self.boost,
            hood,
            tabu,
            anneal,
            greedy,
            leader: 0,
            switches: 0,
            rounds: 0,
        }
    }

    /// Run to completion (convenience over [`cursor`](Self::cursor)).
    pub fn run<P: IncrementalEval>(&self, problem: &P, init: BitString) -> SearchResult {
        let mut cursor = self.cursor(problem, init);
        cursor.step_batch(problem, u64::MAX);
        cursor.into_result(Duration::ZERO)
    }
}

/// The third racing lane: steepest single-flip descent that, at a local
/// optimum, shakes by flipping `cur_shake` random distinct bits and
/// grows the shake order up to `max_shake` while shakes keep failing —
/// a general-VNS-shaped perturbation schedule.
#[derive(Clone)]
struct GreedyLane {
    s: BitString,
    fit: i64,
    best: BitString,
    best_fitness: i64,
    cur_shake: u32,
    max_shake: u32,
    rng: StdRng,
    iterations: u64,
    evals: u64,
}

impl GreedyLane {
    fn new<P: IncrementalEval>(problem: &P, init: BitString, seed: u64, max_shake: u32) -> Self {
        let fit = problem.evaluate(&init);
        Self {
            s: init.clone(),
            fit,
            best: init,
            best_fitness: fit,
            cur_shake: 1,
            max_shake: max_shake.max(1),
            rng: StdRng::seed_from_u64(seed),
            iterations: 0,
            evals: 0,
        }
    }

    fn step<P: IncrementalEval>(&mut self, problem: &P) {
        let n = self.s.len();
        let mut st = problem.init_state(&self.s);
        let mut best_mv: Option<(FlipMove, i64)> = None;
        for i in 0..n as u32 {
            let mv = FlipMove::one(i);
            let f = problem.neighbor_fitness(&mut st, &self.s, &mv);
            self.evals += 1;
            if best_mv.is_none_or(|(_, bf)| f < bf) {
                best_mv = Some((mv, f));
            }
        }
        match best_mv {
            Some((mv, f)) if f < self.fit => {
                self.s.apply(&mv);
                self.fit = f;
                self.cur_shake = 1;
            }
            _ => {
                // Local optimum: shake, then widen the next shake.
                let k = (self.cur_shake as usize).min(n);
                let mut picked = BTreeSet::new();
                while picked.len() < k {
                    picked.insert(self.rng.gen_range(0..n as u32));
                }
                for &i in &picked {
                    self.s.flip(i as usize);
                }
                self.fit = problem.evaluate(&self.s);
                self.evals += 1;
                self.cur_shake = (self.cur_shake + 1).min(self.max_shake);
            }
        }
        if self.fit < self.best_fitness {
            self.best_fitness = self.fit;
            self.best = self.s.clone();
        }
        self.iterations += 1;
    }

    fn persist(&self, out: &mut Vec<u8>) {
        self.s.write(out);
        self.fit.write(out);
        self.best.write(out);
        self.best_fitness.write(out);
        self.cur_shake.write(out);
        self.max_shake.write(out);
        self.rng.write(out);
        self.iterations.write(out);
        self.evals.write(out);
    }

    fn read_persisted<P: IncrementalEval>(
        r: &mut Reader<'_>,
        problem: &P,
    ) -> Result<Self, PersistError> {
        let s: BitString = r.read()?;
        let fit: i64 = r.read()?;
        let best: BitString = r.read()?;
        let best_fitness: i64 = r.read()?;
        let cur_shake: u32 = r.read()?;
        let max_shake: u32 = r.read()?;
        let rng: StdRng = r.read()?;
        let iterations: u64 = r.read()?;
        let evals: u64 = r.read()?;
        if s.len() != problem.dim() || best.len() != problem.dim() {
            return Err(PersistError::new("gvns lane solution length does not match the problem"));
        }
        if cur_shake == 0 || max_shake == 0 || cur_shake > max_shake {
            return Err(PersistError::new("corrupt gvns shake schedule"));
        }
        if problem.evaluate(&s) != fit || problem.evaluate(&best) != best_fitness {
            return Err(PersistError::new(
                "gvns lane fitness disagrees with its solution (wrong problem instance?)",
            ));
        }
        Ok(Self { s, fit, best, best_fitness, cur_shake, max_shake, rng, iterations, evals })
    }
}

/// How a finished (or in-flight) race went, lane by lane; attached to
/// the job outcome by the runtime so fleet reports can show where the
/// budget actually flowed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioOutcome {
    /// Sub-steps each lane actually ran, by [`LANE_NAMES`] index.
    pub lane_iterations: [u64; 3],
    /// Best fitness each lane reached, by [`LANE_NAMES`] index.
    pub lane_best: [i64; 3],
    /// Lane index currently (or finally) holding the boost.
    pub leader: usize,
    /// Leader changes over the race.
    pub switches: u64,
    /// Portfolio rounds completed.
    pub rounds: u64,
}

impl PortfolioOutcome {
    /// Name of the winning lane.
    pub fn leader_name(&self) -> &'static str {
        LANE_NAMES[self.leader]
    }
}

impl Persist for PortfolioOutcome {
    fn write(&self, out: &mut Vec<u8>) {
        for v in self.lane_iterations {
            v.write(out);
        }
        for v in self.lane_best {
            v.write(out);
        }
        self.leader.write(out);
        self.switches.write(out);
        self.rounds.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let lane_iterations = [r.read()?, r.read()?, r.read()?];
        let lane_best = [r.read()?, r.read()?, r.read()?];
        let leader: usize = r.read()?;
        if leader >= LANE_NAMES.len() {
            return Err(PersistError::new(format!("portfolio leader {leader} out of range")));
        }
        Ok(Self { lane_iterations, lane_best, leader, switches: r.read()?, rounds: r.read()? })
    }
}

/// A resumable portfolio race; see [`PortfolioSearch`].
///
/// One [`SearchCursor`] iteration is one round, atomic by design, so
/// preemption at any quantum reproduces the uninterrupted race bit for
/// bit. Leader reallocation happens only at deterministic round
/// boundaries (`rounds % realloc_every == 0`).
pub struct PortfolioCursor<P: IncrementalEval> {
    max_rounds: u64,
    target: Option<i64>,
    realloc_every: u64,
    boost: u64,
    hood: KHamming,
    tabu: TabuCursor<P>,
    anneal: AnnealCursor<P, KHamming>,
    greedy: GreedyLane,
    leader: u8,
    switches: u64,
    rounds: u64,
}

impl<P: IncrementalEval> Clone for PortfolioCursor<P> {
    fn clone(&self) -> Self {
        Self {
            max_rounds: self.max_rounds,
            target: self.target,
            realloc_every: self.realloc_every,
            boost: self.boost,
            hood: self.hood,
            tabu: self.tabu.clone(),
            anneal: self.anneal.clone(),
            greedy: self.greedy.clone(),
            leader: self.leader,
            switches: self.switches,
            rounds: self.rounds,
        }
    }
}

impl<P: IncrementalEval> PortfolioCursor<P> {
    /// Best fitness per lane, by [`LANE_NAMES`] index.
    pub fn lane_bests(&self) -> [i64; 3] {
        [self.tabu.best_fitness(), SearchCursor::best(&self.anneal), self.greedy.best_fitness]
    }

    /// Sub-steps run per lane, by [`LANE_NAMES`] index.
    pub fn lane_iterations(&self) -> [u64; 3] {
        [self.tabu.iterations(), SearchCursor::iterations(&self.anneal), self.greedy.iterations]
    }

    /// Lane currently holding the boost.
    pub fn leader(&self) -> usize {
        self.leader as usize
    }

    /// Leader changes so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Rounds between leader re-elections.
    pub fn realloc_every(&self) -> u64 {
        self.realloc_every
    }

    /// Sub-steps the leader runs per round.
    pub fn boost(&self) -> u64 {
        self.boost
    }

    /// The tabu lane's neighborhood (sizes the runtime's lane pricing).
    pub fn hood(&self) -> &KHamming {
        &self.hood
    }

    /// Neighbor evaluations across all lanes.
    pub fn evals(&self) -> u64 {
        self.tabu.evals() + self.anneal.evals() + self.greedy.evals
    }

    /// Best solution across all lanes (ties favor the lower lane index).
    pub fn best_solution(&self) -> &BitString {
        match self.argmin_lane() {
            0 => self.tabu.best_solution(),
            1 => self.anneal.best_solution(),
            _ => &self.greedy.best,
        }
    }

    /// Snapshot of the race for reports.
    pub fn outcome(&self) -> PortfolioOutcome {
        PortfolioOutcome {
            lane_iterations: self.lane_iterations(),
            lane_best: self.lane_bests(),
            leader: self.leader as usize,
            switches: self.switches,
            rounds: self.rounds,
        }
    }

    fn argmin_lane(&self) -> u8 {
        let bests = self.lane_bests();
        let mut lane = 0u8;
        for (i, &b) in bests.iter().enumerate().skip(1) {
            if b < bests[lane as usize] {
                lane = i as u8;
            }
        }
        lane
    }

    /// One round: every lane advances one sub-step, the leader advances
    /// `boost`; at reallocation boundaries the best lane takes the boost.
    fn round(&mut self, problem: &P, explorer: &mut dyn Explorer<P>) {
        for lane in 0u8..3 {
            let substeps = if lane == self.leader { self.boost } else { 1 };
            match lane {
                0 => {
                    self.tabu.step_batch((problem, explorer), substeps);
                }
                1 => {
                    self.anneal.step_batch(problem, substeps);
                }
                _ => {
                    for _ in 0..substeps {
                        self.greedy.step(problem);
                    }
                }
            }
        }
        self.rounds += 1;
        if self.rounds.is_multiple_of(self.realloc_every) {
            let next = self.argmin_lane();
            if next != self.leader {
                self.leader = next;
                self.switches += 1;
            }
        }
    }

    /// Byte-level snapshot of the race (hand-rolled; see
    /// [`lnls_core::persist`]).
    pub fn persist(&self, out: &mut Vec<u8>) {
        self.max_rounds.write(out);
        self.target.write(out);
        self.realloc_every.write(out);
        self.boost.write(out);
        self.leader.write(out);
        self.switches.write(out);
        self.rounds.write(out);
        self.hood.write(out);
        self.tabu.persist(out);
        self.anneal.persist(out);
        self.greedy.persist(out);
    }

    /// Rebuild a race captured by [`persist`](Self::persist). `problem`
    /// must be the instance the race ran on — every lane cross-checks
    /// its recorded fitness against a rebuilt state.
    pub fn read_persisted(r: &mut Reader<'_>, problem: &P) -> Result<Self, PersistError> {
        let max_rounds: u64 = r.read()?;
        let target: Option<i64> = r.read()?;
        let realloc_every: u64 = r.read()?;
        let boost: u64 = r.read()?;
        let leader: u8 = r.read()?;
        let switches: u64 = r.read()?;
        let rounds: u64 = r.read()?;
        let hood: KHamming = r.read()?;
        if leader >= 3 {
            return Err(PersistError::new(format!("portfolio leader lane {leader} out of range")));
        }
        if realloc_every == 0 || boost == 0 || boost > MAX_BOOST {
            return Err(PersistError::new("corrupt portfolio reallocation schedule"));
        }
        if hood.dim() != problem.dim() {
            return Err(PersistError::new("neighborhood/problem dimension mismatch"));
        }
        let tabu = TabuCursor::read_persisted(r, problem)?;
        let anneal = AnnealCursor::read_persisted(r, problem)?;
        let greedy = GreedyLane::read_persisted(r, problem)?;
        Ok(Self {
            max_rounds,
            target,
            realloc_every,
            boost,
            hood,
            tabu,
            anneal,
            greedy,
            leader,
            switches,
            rounds,
        })
    }

    /// Finalize into a [`SearchResult`]; the caller supplies elapsed
    /// wall-clock (a cursor has no clock).
    pub fn into_result(self, wall: Duration) -> SearchResult {
        let lane = self.argmin_lane();
        let best_fitness = self.lane_bests()[lane as usize];
        let best = self.best_solution().clone();
        SearchResult {
            success: self.target.is_some_and(|t| best_fitness <= t),
            best,
            best_fitness,
            iterations: self.rounds,
            evals: self.evals(),
            wall,
            book: None,
            backend: format!("portfolio/{}", LANE_NAMES[lane as usize]),
            history: None,
            trajectory: None,
        }
    }
}

impl<P: IncrementalEval> SearchCursor for PortfolioCursor<P> {
    type Ctx<'a>
        = &'a P
    where
        Self: 'a;
    type Snapshot = Self;

    fn step_batch(&mut self, problem: &P, quota: u64) -> u64 {
        let mut explorer = SequentialExplorer::new(self.hood);
        let mut ran = 0;
        while ran < quota && !self.is_done() {
            self.round(problem, &mut explorer);
            ran += 1;
        }
        ran
    }

    fn is_done(&self) -> bool {
        self.rounds >= self.max_rounds
            || self.target.is_some_and(|t| self.lane_bests().iter().any(|&b| b <= t))
    }

    fn best(&self) -> i64 {
        self.lane_bests().into_iter().min().expect("three lanes")
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
    use lnls_problems::{Knapsack, MaxSat, Qubo};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quanta_are_invisible() {
        let mut rng = StdRng::seed_from_u64(3);
        let knap = Knapsack::random(&mut rng, 20, 9, 5);
        let sat = MaxSat::random(&mut rng, 20, 80);
        let qubo = Qubo::random(&mut rng, 20, 7, 0.5);
        let init = BitString::random(&mut rng, 20);
        // Knapsack/Qubo fitness is negative, so `budget`'s default
        // target of 0 would stop instantly; run on rounds alone.
        let search =
            PortfolioSearch::paper(SearchConfig::budget(40).with_seed(12).with_target(None))
                .with_realloc_every(4)
                .with_boost(3);
        macro_rules! check {
            ($p:expr) => {{
                let want = search.run($p, init.clone());
                let mut cursor = search.cursor($p, init.clone());
                for quota in [1u64, 5, 2, 3].iter().cycle() {
                    cursor.step_batch($p, *quota);
                    if cursor.is_done() {
                        break;
                    }
                }
                assert_eq!(cursor.best(), want.best_fitness);
                assert_eq!(cursor.iterations(), want.iterations);
                assert_eq!(cursor.evals(), want.evals);
                assert_eq!(cursor.lane_iterations(), {
                    let full = search.cursor($p, init.clone());
                    let mut f = full;
                    f.step_batch($p, u64::MAX);
                    f.lane_iterations()
                });
            }};
        }
        check!(&knap);
        check!(&sat);
        check!(&qubo);
    }

    #[test]
    fn leader_earns_the_boost() {
        let mut rng = StdRng::seed_from_u64(6);
        let qubo = Qubo::random(&mut rng, 24, 8, 0.6);
        let init = BitString::random(&mut rng, 24);
        let search =
            PortfolioSearch::paper(SearchConfig::budget(64).with_seed(2).with_target(None))
                .with_realloc_every(4)
                .with_boost(5);
        let mut cursor = search.cursor(&qubo, init);
        cursor.step_batch(&qubo, u64::MAX);
        let out = cursor.outcome();
        let total: u64 = out.lane_iterations.iter().sum();
        assert_eq!(out.rounds, 64);
        // 64 rounds × (boost + 2) sub-steps, minus whatever a finished
        // lane declined; with no target every lane runs its share.
        assert_eq!(total, 64 * (5 + 2));
        let max_lane = out.lane_iterations.iter().max().expect("lanes");
        let min_lane = out.lane_iterations.iter().min().expect("lanes");
        assert!(
            max_lane > min_lane,
            "the boost must concentrate budget on some lane: {:?}",
            out.lane_iterations
        );
        assert_eq!(out.lane_best.iter().min().copied(), Some(cursor.best()));
    }

    #[test]
    fn persist_roundtrip_resumes_identically() {
        let mut rng = StdRng::seed_from_u64(14);
        let sat = MaxSat::random(&mut rng, 18, 70);
        let init = BitString::random(&mut rng, 18);
        let search = PortfolioSearch::paper(SearchConfig::budget(50).with_seed(9));
        let mut cursor = search.cursor(&sat, init);
        cursor.step_batch(&sat, 13);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut back =
            PortfolioCursor::read_persisted(&mut Reader::new(&bytes), &sat).expect("decode");
        cursor.step_batch(&sat, u64::MAX);
        back.step_batch(&sat, u64::MAX);
        assert_eq!(back.best(), cursor.best());
        assert_eq!(back.lane_iterations(), cursor.lane_iterations());
        assert_eq!(back.evals(), cursor.evals());
        assert_eq!(back.outcome(), cursor.outcome());
    }

    #[test]
    fn persist_rejects_wrong_instance() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = Knapsack::random(&mut rng, 16, 9, 5);
        let b = Knapsack::random(&mut rng, 16, 9, 5);
        let init = BitString::random(&mut rng, 16);
        let search =
            PortfolioSearch::paper(SearchConfig::budget(20).with_seed(1).with_target(None));
        let mut cursor = search.cursor(&a, init);
        cursor.step_batch(&a, 7);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        assert!(PortfolioCursor::read_persisted(&mut Reader::new(&bytes), &b).is_err());
        assert!(PortfolioCursor::<Knapsack>::read_persisted(&mut Reader::new(&[0, 1]), &a).is_err());
    }

    #[test]
    fn persist_rejects_a_boost_past_the_bound() {
        // A boost of 2^40 used to decode, and the runtime sizes a leader
        // window's kernel chain at boost + 2 entries: 8 TiB of f64.
        let mut rng = StdRng::seed_from_u64(16);
        let sat = MaxSat::random(&mut rng, 12, 40);
        let init = BitString::random(&mut rng, 12);
        let search = PortfolioSearch::paper(SearchConfig::budget(10).with_seed(1));
        let cursor = search.with_boost(MAX_BOOST).cursor(&sat, init);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut prefix = Vec::new();
        cursor.max_rounds.write(&mut prefix);
        cursor.target.write(&mut prefix);
        cursor.realloc_every.write(&mut prefix);
        let boost = prefix.len()..prefix.len() + 8;
        assert_eq!(bytes[boost.clone()], MAX_BOOST.to_le_bytes());
        let decode = |bytes: &[u8]| PortfolioCursor::read_persisted(&mut Reader::new(bytes), &sat);
        assert!(decode(&bytes).is_ok(), "the bound itself restores");
        bytes[boost].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn with_boost_refuses_a_boost_its_decoder_refuses() {
        let _ = PortfolioSearch::paper(SearchConfig::budget(1)).with_boost(MAX_BOOST + 1);
    }
}
