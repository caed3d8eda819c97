//! Taillard's robust tabu search (Parallel Computing 17, 1991) — the
//! algorithm the LS paper cites as its tabu search (reference \[11\]),
//! here in its native habitat: the QAP swap neighborhood.
//!
//! Per iteration, *all* `C(n,2)` swap deltas are consulted (the paper's
//! "generate and evaluate the full neighborhood" model), the best
//! admissible move is committed, and the reverse assignments are made
//! tabu for a tenure drawn uniformly from `[0.9n, 1.1n]` — the
//! randomized tenure is what makes the search "robust". A move is tabu
//! when **both** facilities would return to locations they occupied
//! within their tenure; an aspiration criterion admits any move that
//! improves on the best cost ever seen.

use crate::instance::QapInstance;
use crate::objective::DeltaTable;
use crate::permutation::Permutation;
use lnls_core::persist::{Persist, PersistError, Reader};
use lnls_core::SearchCursor;
use lnls_gpu_sim::TimeBook;
use lnls_neighborhood::mapping2d::unrank2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where the swap deltas come from: a host-side [`DeltaTable`]
/// (amortized O(1) per neighbor) or the simulated GPU
/// ([`GpuSwapEvaluator`](crate::gpu::GpuSwapEvaluator), one thread per
/// swap, O(n) each — the paper's kernel structure on this problem).
pub trait SwapEvaluator {
    /// All `C(n,2)` deltas for the current permutation, flat-indexed by
    /// the triangular mapping (Appendix A).
    fn deltas(&mut self, inst: &QapInstance, p: &Permutation) -> &[i64];

    /// Notify that the search committed swap `(r, s)`; `p` is the
    /// **pre-swap** permutation.
    fn committed(&mut self, inst: &QapInstance, p: &Permutation, r: usize, s: usize);

    /// Modeled time ledger, if the backend prices its work.
    fn book(&self) -> Option<TimeBook> {
        None
    }

    /// Backend name for reports.
    fn backend(&self) -> String;
}

/// Host evaluator backed by the incrementally maintained [`DeltaTable`].
pub struct TableEvaluator {
    table: Option<DeltaTable>,
}

impl TableEvaluator {
    /// An empty evaluator; the table initializes on first use.
    pub fn new() -> Self {
        Self { table: None }
    }
}

impl Default for TableEvaluator {
    fn default() -> Self {
        Self::new()
    }
}

impl SwapEvaluator for TableEvaluator {
    fn deltas(&mut self, inst: &QapInstance, p: &Permutation) -> &[i64] {
        let table = self.table.get_or_insert_with(|| DeltaTable::new(inst, p));
        debug_assert!(table.tracks(inst, p), "delta table does not track the assignment");
        table.deltas()
    }

    fn committed(&mut self, inst: &QapInstance, p: &Permutation, r: usize, s: usize) {
        if let Some(t) = self.table.as_mut() {
            t.commit(inst, p, r, s);
        }
    }

    fn backend(&self) -> String {
        "cpu-delta-table".into()
    }
}

/// Naive host evaluator recomputing every delta from scratch each
/// iteration — the O(n³)-per-iteration baseline the benches compare
/// against.
pub struct FreshEvaluator {
    scratch: Vec<i64>,
}

impl FreshEvaluator {
    /// A stateless evaluator.
    pub fn new() -> Self {
        Self { scratch: Vec::new() }
    }
}

impl Default for FreshEvaluator {
    fn default() -> Self {
        Self::new()
    }
}

impl SwapEvaluator for FreshEvaluator {
    fn deltas(&mut self, inst: &QapInstance, p: &Permutation) -> &[i64] {
        use crate::objective::swap_delta;
        let n = inst.size() as u64;
        let m = lnls_neighborhood::mapping2d::size2(n);
        self.scratch.clear();
        self.scratch.reserve(m as usize);
        for idx in 0..m {
            let (r, s) = unrank2(n, idx);
            self.scratch.push(swap_delta(inst, p, r as usize, s as usize));
        }
        &self.scratch
    }

    fn committed(&mut self, _: &QapInstance, _: &Permutation, _: usize, _: usize) {}

    fn backend(&self) -> String {
        "cpu-fresh".into()
    }
}

/// Knobs of the robust tabu search.
#[derive(Clone, Debug)]
pub struct RtsConfig {
    /// Iteration budget.
    pub max_iters: u64,
    /// Stop early at this cost (known optima / targets).
    pub target: Option<i64>,
    /// RNG seed (initial tenure draws only; the search is otherwise
    /// deterministic given the evaluator).
    pub seed: u64,
}

impl RtsConfig {
    /// Budgeted config with no target.
    pub fn budget(max_iters: u64) -> Self {
        Self { max_iters, target: None, seed: 0 }
    }

    /// Set the target cost (builder style).
    pub fn with_target(mut self, target: Option<i64>) -> Self {
        self.target = target;
        self
    }

    /// Set the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Outcome of one robust-tabu run.
#[derive(Clone, Debug)]
pub struct RtsResult {
    /// Best assignment found.
    pub best: Permutation,
    /// Its cost.
    pub best_cost: i64,
    /// Iterations executed.
    pub iterations: u64,
    /// Swap-delta evaluations consumed.
    pub evals: u64,
    /// True if the target cost was reached.
    pub success: bool,
    /// Modeled time ledger from the evaluator, if priced.
    pub book: Option<TimeBook>,
    /// Evaluator name.
    pub backend: String,
}

impl Persist for RtsConfig {
    fn write(&self, out: &mut Vec<u8>) {
        self.max_iters.write(out);
        self.target.write(out);
        self.seed.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RtsConfig { max_iters: r.read()?, target: r.read()?, seed: r.read()? })
    }
}

impl Persist for RtsResult {
    fn write(&self, out: &mut Vec<u8>) {
        self.best.write(out);
        self.best_cost.write(out);
        self.iterations.write(out);
        self.evals.write(out);
        self.success.write(out);
        self.book.write(out);
        self.backend.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RtsResult {
            best: r.read()?,
            best_cost: r.read()?,
            iterations: r.read()?,
            evals: r.read()?,
            success: r.read()?,
            book: r.read()?,
            backend: r.read()?,
        })
    }
}

/// The robust tabu search driver.
pub struct RobustTabu {
    /// Search knobs.
    pub config: RtsConfig,
}

impl RobustTabu {
    /// A driver with the given config.
    pub fn new(config: RtsConfig) -> Self {
        Self { config }
    }

    /// Build a resumable [`RtsCursor`] positioned at `init`.
    ///
    /// The cursor owns every piece of loop-carried state — the tabu
    /// matrix and the tenure RNG included — so QAP runs can be stepped a
    /// quantum at a time, checkpointed mid-run and resumed on a
    /// different evaluator without changing a single swap.
    /// [`run`](Self::run) is implemented on top of it.
    pub fn cursor(&self, inst: &QapInstance, init: Permutation) -> RtsCursor {
        let n = inst.size();
        assert_eq!(init.len(), n, "permutation/instance size mismatch");
        let cost = inst.cost(&init);
        RtsCursor {
            config: self.config.clone(),
            rng: StdRng::seed_from_u64(self.config.seed),
            best: init.clone(),
            best_cost: cost,
            p: init,
            cost,
            tabu_until: vec![0u64; n * n],
            iterations: 0,
            evals: 0,
            lo: ((9 * n) / 10).max(1) as u64,
            hi: ((11 * n) / 10).max(2) as u64,
        }
    }

    /// Run from `init` using `eval` for the neighborhood scans.
    pub fn run<E: SwapEvaluator>(
        &self,
        inst: &QapInstance,
        eval: &mut E,
        init: Permutation,
    ) -> RtsResult {
        let mut cursor = self.cursor(inst, init);
        cursor.step_batch((inst, eval as &mut dyn SwapEvaluator), u64::MAX);
        debug_assert_eq!(cursor.cost, inst.cost(&cursor.p), "incremental cost drifted");
        cursor.into_result(eval.book(), eval.backend())
    }
}

/// The loop-carried state of one robust-tabu walk, stepped externally.
///
/// Produced by [`RobustTabu::cursor`]. One step performs exactly one
/// iteration of Taillard's algorithm — scan all `C(n,2)` swap deltas,
/// commit the best admissible swap, randomize the reverse tenures — so a
/// run driven through a cursor makes swap-for-swap the moves
/// [`RobustTabu::run`] makes (which is implemented on top of it). The
/// evaluator is *external* state: deltas are exact on every backend, so
/// a walk may migrate between host tables and simulated devices
/// mid-flight without perturbing its trajectory.
#[derive(Clone, Debug)]
pub struct RtsCursor {
    config: RtsConfig,
    p: Permutation,
    cost: i64,
    best: Permutation,
    best_cost: i64,
    /// `tabu_until[i * n + loc]`: first iteration at which facility `i`
    /// may return to location `loc`.
    tabu_until: Vec<u64>,
    rng: StdRng,
    iterations: u64,
    evals: u64,
    lo: u64,
    hi: u64,
}

impl RtsCursor {
    /// One full iteration through `eval`. Returns `false` (doing
    /// nothing) when the walk is already finished.
    pub fn step<E: SwapEvaluator + ?Sized>(&mut self, inst: &QapInstance, eval: &mut E) -> bool {
        if self.is_done() {
            return false;
        }
        let n = inst.size();
        let iterations = self.iterations;
        let deltas = eval.deltas(inst, &self.p);
        self.evals += deltas.len() as u64;

        // Fully tabu neighborhood: take the absolute best (rare; keeps
        // the walk alive like Taillard's implementation).
        let (idx, d) = self.best_admissible(deltas).unwrap_or_else(|| {
            deltas
                .iter()
                .enumerate()
                .min_by_key(|&(i, d)| (*d, i))
                .map(|(i, &d)| (i as u64, d))
                .expect("non-empty neighborhood")
        });

        let (r, s) = unrank2(n as u64, idx);
        let (r, s) = (r as usize, s as usize);
        // Forbid sending the facilities back to their old places.
        let tenure_r = self.rng.gen_range(self.lo..=self.hi);
        let tenure_s = self.rng.gen_range(self.lo..=self.hi);
        self.tabu_until[r * n + self.p.get(r)] = iterations + 1 + tenure_r;
        self.tabu_until[s * n + self.p.get(s)] = iterations + 1 + tenure_s;

        eval.committed(inst, &self.p, r, s);
        self.p.swap(r, s);
        self.cost += d;
        self.iterations += 1;
        if self.cost < self.best_cost {
            self.best_cost = self.cost;
            self.best = self.p.clone();
        }
        true
    }

    /// The best admissible move in `deltas` — not tabu, or aspirating —
    /// as `(flat index, delta)`, ties to the lowest index; `None` when
    /// every move is tabu.
    ///
    /// Walks the swaps `r < s` in lexicographic order beside the flat
    /// index, the order `rank2` defines, so no move is unranked. A
    /// move's tabu status is read only when its delta beats the
    /// incumbent.
    pub(crate) fn best_admissible(&self, deltas: &[i64]) -> Option<(u64, i64)> {
        let n = self.p.len();
        let (p, now) = (self.p.as_slice(), self.iterations);
        let mut chosen: Option<(u64, i64)> = None;
        let mut idx = 0usize;
        for r in 0..n {
            let tabu_r = &self.tabu_until[r * n..][..n];
            let pr = p[r] as usize;
            for s in r + 1..n {
                let d = deltas[idx];
                idx += 1;
                if chosen.is_some_and(|(_, bd)| d >= bd) {
                    continue;
                }
                let tabu = tabu_r[p[s] as usize] > now && self.tabu_until[s * n + pr] > now;
                if tabu && self.cost + d >= self.best_cost {
                    continue;
                }
                chosen = Some((idx as u64 - 1, d));
            }
        }
        chosen
    }

    /// Current assignment.
    pub fn current(&self) -> &Permutation {
        &self.p
    }

    /// Best assignment seen so far.
    pub fn best_assignment(&self) -> &Permutation {
        &self.best
    }

    /// Best cost seen so far.
    pub fn best_cost(&self) -> i64 {
        self.best_cost
    }

    /// Swap-delta evaluations consumed so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Iterations left in the budget.
    pub fn remaining_iters(&self) -> u64 {
        self.config.max_iters.saturating_sub(self.iterations)
    }

    /// Finalize into an [`RtsResult`]; the caller supplies what a cursor
    /// cannot know — the evaluator's ledger and identity.
    pub fn into_result(self, book: Option<TimeBook>, backend: String) -> RtsResult {
        RtsResult {
            success: self.config.target.is_some_and(|t| self.best_cost <= t),
            best: self.best,
            best_cost: self.best_cost,
            iterations: self.iterations,
            evals: self.evals,
            book,
            backend,
        }
    }

    /// Byte-level snapshot of the walk (hand-rolled; see
    /// [`lnls_core::persist`]). The tenure window `lo`/`hi` is derived
    /// from the instance size, so it is rebuilt on decode rather than
    /// trusted from bytes.
    pub fn persist(&self, out: &mut Vec<u8>) {
        self.config.write(out);
        self.p.write(out);
        self.cost.write(out);
        self.best.write(out);
        self.best_cost.write(out);
        self.tabu_until.write(out);
        self.rng.write(out);
        self.iterations.write(out);
        self.evals.write(out);
    }

    /// Rebuild a walk captured by [`persist`](Self::persist). `inst`
    /// must be the same instance the walk ran on — the recorded
    /// incremental cost is cross-checked against it, and corrupt bytes
    /// are rejected here, not left to crash a later step.
    pub fn read_persisted(r: &mut Reader<'_>, inst: &QapInstance) -> Result<Self, PersistError> {
        let n = inst.size();
        let cursor = Self {
            config: r.read()?,
            p: r.read()?,
            cost: r.read()?,
            best: r.read()?,
            best_cost: r.read()?,
            tabu_until: r.read()?,
            rng: r.read()?,
            iterations: r.read()?,
            evals: r.read()?,
            lo: ((9 * n) / 10).max(1) as u64,
            hi: ((11 * n) / 10).max(2) as u64,
        };
        if cursor.p.len() != n || cursor.best.len() != n || cursor.tabu_until.len() != n * n {
            return Err(PersistError::new("permutation/instance size mismatch"));
        }
        if inst.cost(&cursor.p) != cursor.cost {
            return Err(PersistError::new(
                "recorded cost disagrees with the instance (wrong QAP instance?)",
            ));
        }
        if inst.cost(&cursor.best) != cursor.best_cost {
            return Err(PersistError::new("recorded best cost disagrees with the instance"));
        }
        Ok(cursor)
    }
}

impl SearchCursor for RtsCursor {
    type Ctx<'a> = (&'a QapInstance, &'a mut dyn SwapEvaluator);
    type Snapshot = Self;

    fn step_batch(&mut self, (inst, eval): Self::Ctx<'_>, quota: u64) -> u64 {
        let mut ran = 0;
        while ran < quota {
            if !self.step(inst, eval) {
                break;
            }
            ran += 1;
        }
        ran
    }

    fn is_done(&self) -> bool {
        self.iterations >= self.config.max_iters
            || self.config.target.is_some_and(|t| self.best_cost <= t)
    }

    fn best(&self) -> i64 {
        self.best_cost
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

    /// The selection loop `best_admissible` replaced: unrank every index,
    /// read its tabu status, keep the lowest admissible delta (ties: the
    /// lowest index).
    fn best_admissible_reference(c: &RtsCursor, deltas: &[i64]) -> Option<(u64, i64)> {
        let n = c.p.len();
        let mut chosen: Option<(u64, i64)> = None;
        for (idx, &d) in deltas.iter().enumerate() {
            let (r, s) = unrank2(n as u64, idx as u64);
            let (r, s) = (r as usize, s as usize);
            let tabu = c.tabu_until[r * n + c.p.get(s)] > c.iterations
                && c.tabu_until[s * n + c.p.get(r)] > c.iterations;
            let aspirates = c.cost + d < c.best_cost;
            if tabu && !aspirates {
                continue;
            }
            if chosen.is_none_or(|(_, bd)| d < bd) {
                chosen = Some((idx as u64, d));
            }
        }
        chosen
    }

    /// Walk `inst` from `init` on a delta table, holding the scan against
    /// the reference at every step; with `forbid_all`, every move is made
    /// tabu before each step, so only aspirating moves are admissible.
    /// Returns how many steps found no admissible move.
    fn scan_matches_reference(
        inst: &QapInstance,
        init: Permutation,
        seed: u64,
        forbid_all: bool,
    ) -> u64 {
        let rts = RobustTabu::new(RtsConfig::budget(200).with_seed(seed));
        let mut cursor = rts.cursor(inst, init);
        let mut eval = TableEvaluator::new();
        let mut fully_tabu = 0;
        while !cursor.is_done() {
            if forbid_all {
                cursor.tabu_until.fill(u64::MAX);
            }
            let deltas = eval.deltas(inst, &cursor.p).to_vec();
            let want = best_admissible_reference(&cursor, &deltas);
            assert_eq!(cursor.best_admissible(&deltas), want, "iteration {}", cursor.iterations);
            fully_tabu += u64::from(want.is_none());
            assert!(cursor.step(inst, &mut eval));
        }
        fully_tabu
    }

    /// An instance with entries drawn from `0..=max`.
    fn small_range(rng: &mut StdRng, n: usize, max: i64) -> QapInstance {
        let mut m = || (0..n * n).map(|_| rng.gen_range(0..=max)).collect();
        QapInstance::new(n, m(), m())
    }

    #[test]
    fn scan_matches_the_reference_when_every_delta_ties() {
        // Zero flows: every swap costs nothing, so every delta is 0 and
        // the lowest admissible index must win each step.
        let mut rng = StdRng::seed_from_u64(31);
        for n in [5, 9, 12] {
            let d = small_range(&mut rng, n, 99).dists().to_vec();
            let inst = QapInstance::new(n, vec![0; n * n], d);
            scan_matches_reference(&inst, Permutation::random(&mut rng, n), n as u64, false);
        }
    }

    #[test]
    fn scan_matches_the_reference_on_many_ties() {
        // Entries in 0..=2: deltas repeat across the neighborhood.
        let mut rng = StdRng::seed_from_u64(32);
        for n in [4, 7, 10, 12] {
            let inst = small_range(&mut rng, n, 2);
            scan_matches_reference(&inst, Permutation::random(&mut rng, n), n as u64, false);
        }
        let inst = QapInstance::random_uniform(&mut rng, 11);
        scan_matches_reference(&inst, Permutation::random(&mut rng, 11), 1, false);
    }

    #[test]
    fn scan_matches_the_reference_through_the_fully_tabu_fallback() {
        // Only at n = 2 can the tenure window make a whole neighborhood
        // tabu: the lone swap back is tabu and never aspirates. It takes
        // all n(n − 1) facility/location pairs off a facility's current
        // location; from n = 4 on at most 2·⌊1.1n⌋ are ever tabu at once,
        // and at n = 3 the three swaps that would set six of them send
        // one facility back to its own former location. So larger walks
        // forbid every move, and the scan must then admit exactly the
        // aspirating ones.
        let mut rng = StdRng::seed_from_u64(33);
        let mut fully_tabu = 0;
        for seed in 0..4 {
            let inst = QapInstance::random_uniform(&mut rng, 2);
            fully_tabu +=
                scan_matches_reference(&inst, Permutation::random(&mut rng, 2), seed, false);
        }
        assert!(fully_tabu > 0, "the fully tabu fallback never fired at n = 2");
        for n in [3, 5, 8] {
            fully_tabu = 0;
            for max in [2, 99] {
                let inst = small_range(&mut rng, n, max);
                let init = Permutation::random(&mut rng, n);
                scan_matches_reference(&inst, init.clone(), n as u64, false);
                fully_tabu += scan_matches_reference(&inst, init, n as u64, true);
            }
            assert!(fully_tabu > 0, "the fully tabu fallback never fired at n = {n}");
        }
    }

    #[test]
    fn rts_reaches_brute_force_optimum_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = QapInstance::random_symmetric(&mut rng, 8);
        let (opt, _) = inst.brute_force_optimum();
        let rts = RobustTabu::new(RtsConfig::budget(2_000).with_target(Some(opt)));
        let init = Permutation::random(&mut rng, 8);
        let r = rts.run(&inst, &mut TableEvaluator::new(), init);
        assert_eq!(r.best_cost, opt, "missed optimum by {}", r.best_cost - opt);
        assert!(r.success);
        assert_eq!(inst.cost(&r.best), r.best_cost);
    }

    #[test]
    fn rts_reaches_brute_force_optimum_asymmetric() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = QapInstance::random_uniform(&mut rng, 7);
        let (opt, _) = inst.brute_force_optimum();
        let rts = RobustTabu::new(RtsConfig::budget(2_000).with_target(Some(opt)));
        let init = Permutation::identity(7);
        let r = rts.run(&inst, &mut TableEvaluator::new(), init);
        assert_eq!(r.best_cost, opt);
    }

    #[test]
    fn table_and_fresh_evaluators_agree_step_for_step() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = QapInstance::random_uniform(&mut rng, 9);
        let init = Permutation::random(&mut rng, 9);
        let rts = RobustTabu::new(RtsConfig::budget(120).with_seed(5));
        let a = rts.run(&inst, &mut TableEvaluator::new(), init.clone());
        let b = rts.run(&inst, &mut FreshEvaluator::new(), init);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best, b.best);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn budget_respected_and_cost_consistent() {
        let mut rng = StdRng::seed_from_u64(10);
        let inst = QapInstance::random_uniform(&mut rng, 12);
        let rts = RobustTabu::new(RtsConfig::budget(37));
        let r = rts.run(&inst, &mut TableEvaluator::new(), Permutation::identity(12));
        assert_eq!(r.iterations, 37);
        assert_eq!(r.evals, 37 * 66); // C(12,2) = 66 per iteration
        assert_eq!(inst.cost(&r.best), r.best_cost);
    }

    #[test]
    fn cursor_quanta_match_run_exactly() {
        // Stepping in ragged quanta — including a mid-walk evaluator
        // migration from the delta table to the naive recompute — must
        // reproduce run()'s swaps, tenure draws and best cost exactly.
        let mut rng = StdRng::seed_from_u64(21);
        let inst = QapInstance::random_uniform(&mut rng, 10);
        let init = Permutation::random(&mut rng, 10);
        let rts = RobustTabu::new(RtsConfig::budget(90).with_seed(6));
        let want = rts.run(&inst, &mut TableEvaluator::new(), init.clone());

        let mut cursor = rts.cursor(&inst, init);
        let mut table = TableEvaluator::new();
        let mut fresh = FreshEvaluator::new();
        let mut flip = false;
        loop {
            let ran = if flip {
                cursor.step_batch((&inst, &mut fresh as &mut dyn SwapEvaluator), 7)
            } else {
                cursor.step_batch((&inst, &mut table as &mut dyn SwapEvaluator), 7)
            };
            // A committed swap invalidates the idle table's incremental
            // state; rebuild it on re-entry by starting fresh.
            table = TableEvaluator::new();
            flip = !flip;
            if ran < 7 {
                break;
            }
        }
        assert!(cursor.is_done());
        assert_eq!(cursor.best_cost(), want.best_cost);
        assert_eq!(cursor.iterations(), want.iterations);
        assert_eq!(cursor.evals(), want.evals);
        assert_eq!(cursor.best_assignment().as_slice(), want.best.as_slice());
    }

    #[test]
    fn persisted_cursor_resumes_identically() {
        let mut rng = StdRng::seed_from_u64(22);
        let inst = QapInstance::random_uniform(&mut rng, 9);
        let init = Permutation::random(&mut rng, 9);
        let rts = RobustTabu::new(RtsConfig::budget(60).with_seed(2));

        let mut cursor = rts.cursor(&inst, init);
        let mut eval = FreshEvaluator::new();
        cursor.step_batch((&inst, &mut eval as &mut dyn SwapEvaluator), 23);
        let mut bytes = Vec::new();
        cursor.persist(&mut bytes);
        let mut revived =
            RtsCursor::read_persisted(&mut lnls_core::Reader::new(&bytes), &inst).expect("decode");
        cursor.step_batch((&inst, &mut eval as &mut dyn SwapEvaluator), u64::MAX);
        let mut eval2 = FreshEvaluator::new();
        revived.step_batch((&inst, &mut eval2 as &mut dyn SwapEvaluator), u64::MAX);
        assert_eq!(revived.best_cost(), cursor.best_cost());
        assert_eq!(revived.iterations(), cursor.iterations());
        assert_eq!(revived.best_assignment().as_slice(), cursor.best_assignment().as_slice());

        // Wrong instance: the cost cross-check must refuse.
        let other = QapInstance::random_uniform(&mut rng, 9);
        assert!(RtsCursor::read_persisted(&mut lnls_core::Reader::new(&bytes), &other).is_err());
    }

    #[test]
    fn tabu_forces_uphill_exploration() {
        // From a local optimum, plain best-improvement is stuck; RTS
        // must keep moving (uphill) and, thanks to the tabu matrix, not
        // oscillate on one swap. We check it visits > 2 distinct
        // permutations from a converged start.
        let mut rng = StdRng::seed_from_u64(11);
        let inst = QapInstance::random_symmetric(&mut rng, 6);
        let (opt, popt) = inst.brute_force_optimum();
        // Start exactly at the optimum: everything is uphill from here.
        let rts = RobustTabu::new(RtsConfig::budget(25));
        let r = rts.run(&inst, &mut TableEvaluator::new(), popt.clone());
        assert_eq!(r.best_cost, opt, "must keep the optimum as best");
        assert_eq!(r.iterations, 25, "search must keep walking uphill");
    }
}
