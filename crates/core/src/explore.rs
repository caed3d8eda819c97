//! Neighborhood exploration backends.
//!
//! One search iteration of the paper's model (Fig. 1) generates *and
//! evaluates* the full neighborhood of the current solution. The
//! [`Explorer`] trait abstracts where that evaluation happens:
//!
//! * [`SequentialExplorer`] — one host thread, the paper's "CPU time"
//!   configuration;
//! * [`ParallelCpuExplorer`] — all host cores via scoped threads (an obvious
//!   baseline the paper leaves on the table; only tests drive it today);
//! * `PppGpuExplorer` (in `lnls-ppp`) — the simulated-GPU path of the
//!   paper, implementing this same trait.
//!
//! The host explorers hold no evaluation loop of their own: each fills
//! its fitness vector (or, in parallel, each worker's contiguous chunk)
//! with one [`IncrementalEval::eval_range`] call, the host analogue of
//! the paper's one-thread-per-move kernel. The default evaluates move by
//! move; a problem can override it with a flat row kernel (`OneMax` does
//! for a full 2-Hamming range).
//!
//! Fleet runs fuse several walks' explorations into one launch and
//! price it through the stream/event model — see
//! [`BatchedExplorer`](crate::batch::BatchedExplorer), which produces
//! per-lane fitness vectors bit-identical to [`SequentialExplorer`]'s.

use crate::bitstring::BitString;
use crate::problem::IncrementalEval;
use lnls_gpu_sim::{ThreadCtx, TimeBook};
use lnls_neighborhood::combinadic::unrank_combinadic;
use lnls_neighborhood::mapping2d::unrank2;
use lnls_neighborhood::mapping3d::unrank3;
use lnls_neighborhood::{FlipMove, Neighborhood};
use std::time::{Duration, Instant};

/// Decode flat move `index` of the `k`-Hamming neighborhood over `n`
/// bits inside a simulated GPU thread (paper §III.B), charging the
/// mapping's arithmetic to `ctx`. Every one-thread-per-move kernel
/// (`lnls-ppp`, `lnls-problems`) decodes its thread id here. Returns
/// the move's bit indices, padded with zeros, and `k`.
///
/// # Panics
/// Panics if `k` is not in `1..=4`, or if `k = 2` and `n` exceeds
/// [`UNRANK2_MAX_N`](lnls_neighborhood::mapping2d::UNRANK2_MAX_N).
#[inline]
pub fn unrank_device<C: ThreadCtx>(ctx: &mut C, k: u8, n: u32, index: u64) -> ([u32; 4], usize) {
    match k {
        1 => {
            ctx.alu(1);
            ([index as u32, 0, 0, 0], 1)
        }
        2 => {
            ctx.sfu(1); // sqrtf
            ctx.alu(10); // index arithmetic of Fig. 9
            let (i, j) = unrank2(n as u64, index);
            ([i as u32, j as u32, 0, 0], 2)
        }
        3 => {
            ctx.sfu(2); // cbrt seed + Newton step (Fig. 10 newtonGPU)
            ctx.alu(30); // plan arithmetic of App. C
            let (a, b, c) = unrank3(n as u64, index);
            ([a as u32, b as u32, c as u32, 0], 3)
        }
        4 => {
            ctx.alu(60); // combinadic coordinate walk
            let mut out = [0u32; 4];
            unrank_combinadic(n as u64, index, &mut out);
            (out, 4)
        }
        _ => unreachable!("k must be 1..=4"),
    }
}

/// A backend able to evaluate every neighbor of the current solution.
///
/// `out[i]` receives the fitness of the neighbor with flat move index `i`
/// (the paper's `new_fitness` array). Implementations must produce values
/// identical to `problem.evaluate(s ⊕ unrank(i))` — the GPU/CPU
/// consistency tests enforce this bit-for-bit.
pub trait Explorer<P: IncrementalEval>: Send {
    /// Number of neighbors (`m` in the paper).
    fn size(&self) -> u64;

    /// Hamming weight of this explorer's moves.
    fn k(&self) -> usize;

    /// Decode a flat move index.
    fn unrank(&self, index: u64) -> FlipMove;

    /// Visit the moves with indices in `lo..hi` (clamped to
    /// [`size`](Self::size)) in index order; stop early when the
    /// callback returns `false`. It must agree index-for-index with the
    /// fitness vector [`explore`](Self::explore) fills; explorers wrapping
    /// a [`Neighborhood`] delegate to [`Neighborhood::for_each_move_in`].
    /// Hill climbing's first-improvement pass walks moves through it.
    fn for_each_move(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, FlipMove) -> bool);

    /// Evaluate the full neighborhood of `s` into `out` (resized to
    /// [`size`](Self::size)).
    fn explore(&mut self, problem: &P, s: &BitString, state: &mut P::State, out: &mut Vec<i64>);

    /// Notify the backend that the search committed `mv` (backends with
    /// device-resident state resynchronize here).
    fn committed(&mut self, _problem: &P, _s: &BitString, _state: &P::State, _mv: &FlipMove) {}

    /// Modeled time ledger, if this backend prices its work (the GPU
    /// explorer does; host explorers return `None` and are timed by wall
    /// clock).
    fn book(&self) -> Option<TimeBook> {
        None
    }

    /// Total wall-clock spent inside [`explore`](Self::explore).
    fn wall(&self) -> Duration;

    /// Backend name for reports.
    fn backend(&self) -> String;
}

/// Single-threaded exploration in lexicographic move order.
pub struct SequentialExplorer<N: Neighborhood> {
    hood: N,
    wall: Duration,
}

impl<N: Neighborhood> SequentialExplorer<N> {
    /// Explore `hood` on one host thread.
    pub fn new(hood: N) -> Self {
        Self { hood, wall: Duration::ZERO }
    }
}

impl<P: IncrementalEval, N: Neighborhood> Explorer<P> for SequentialExplorer<N> {
    fn size(&self) -> u64 {
        self.hood.size()
    }

    fn k(&self) -> usize {
        self.hood.k()
    }

    fn unrank(&self, index: u64) -> FlipMove {
        self.hood.unrank(index)
    }

    fn for_each_move(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, FlipMove) -> bool) {
        self.hood.for_each_move_in(lo, hi, f);
    }

    fn explore(&mut self, problem: &P, s: &BitString, state: &mut P::State, out: &mut Vec<i64>) {
        let t0 = Instant::now();
        out.resize(self.hood.size() as usize, 0);
        problem.eval_range(state, s, &self.hood, 0, out);
        self.wall += t0.elapsed();
    }

    fn wall(&self) -> Duration {
        self.wall
    }

    fn backend(&self) -> String {
        format!("cpu-seq/{}", self.hood.name())
    }
}

/// Multi-threaded exploration: the index range is split into contiguous
/// chunks, one per worker, each with a cloned state.
pub struct ParallelCpuExplorer<N: Neighborhood> {
    hood: N,
    workers: usize,
    wall: Duration,
}

impl<N: Neighborhood> ParallelCpuExplorer<N> {
    /// Explore `hood` with `workers` host threads (0 = all cores).
    pub fn new(hood: N, workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            workers
        };
        Self { hood, workers, wall: Duration::ZERO }
    }
}

impl<P: IncrementalEval, N: Neighborhood> Explorer<P> for ParallelCpuExplorer<N> {
    fn size(&self) -> u64 {
        self.hood.size()
    }

    fn k(&self) -> usize {
        self.hood.k()
    }

    fn unrank(&self, index: u64) -> FlipMove {
        self.hood.unrank(index)
    }

    fn for_each_move(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, FlipMove) -> bool) {
        self.hood.for_each_move_in(lo, hi, f);
    }

    fn explore(&mut self, problem: &P, s: &BitString, state: &mut P::State, out: &mut Vec<i64>) {
        let t0 = Instant::now();
        let m = self.hood.size() as usize;
        out.resize(m, 0);
        let workers = self.workers.min(m.max(1));
        if workers <= 1 || m < 1024 {
            // Too small to amortize thread spawn.
            problem.eval_range(state, s, &self.hood, 0, out);
            self.wall += t0.elapsed();
            return;
        }
        let chunk = m.div_ceil(workers);
        let hood = &self.hood;
        std::thread::scope(|scope| {
            for (w, slice) in out.chunks_mut(chunk).enumerate() {
                let lo = (w * chunk) as u64;
                let mut local_state = state.clone();
                scope.spawn(move || problem.eval_range(&mut local_state, s, hood, lo, slice));
            }
        });
        self.wall += t0.elapsed();
    }

    fn wall(&self) -> Duration {
        self.wall
    }

    fn backend(&self) -> String {
        format!("cpu-par{}/{}", self.workers, self.hood.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::KHamming;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn brute_force(p: &ZeroCount, s: &BitString, hood: &impl Neighborhood) -> Vec<i64> {
        use crate::problem::BinaryProblem;
        hood.moves()
            .map(|(_, mv)| {
                let mut s2 = s.clone();
                s2.apply(&mv);
                p.evaluate(&s2)
            })
            .collect()
    }

    #[test]
    fn sequential_matches_brute_force() {
        let p = ZeroCount { n: 20 };
        let mut rng = StdRng::seed_from_u64(5);
        let s = BitString::random(&mut rng, 20);
        let mut out = Vec::new();
        let hood = KHamming::new(20, 2);
        let mut ex = SequentialExplorer::new(hood);
        let mut st = p.init_state(&s);
        Explorer::<ZeroCount>::explore(&mut ex, &p, &s, &mut st, &mut out);
        assert_eq!(out, brute_force(&p, &s, &hood));
        assert!(Explorer::<ZeroCount>::wall(&ex) > Duration::ZERO);
    }

    #[test]
    fn parallel_matches_sequential_all_hoods() {
        let p = ZeroCount { n: 24 };
        let mut rng = StdRng::seed_from_u64(6);
        let s = BitString::random(&mut rng, 24);
        let mut st = p.init_state(&s);

        let mut out_seq = Vec::new();
        let mut out_par = Vec::new();

        macro_rules! check {
            ($hood:expr) => {{
                let mut seq = SequentialExplorer::new($hood);
                let mut par = ParallelCpuExplorer::new($hood, 4);
                Explorer::<ZeroCount>::explore(&mut seq, &p, &s, &mut st, &mut out_seq);
                Explorer::<ZeroCount>::explore(&mut par, &p, &s, &mut st, &mut out_par);
                assert_eq!(out_seq, out_par);
            }};
        }
        check!(KHamming::new(24, 1));
        check!(KHamming::new(24, 2));
        check!(KHamming::new(24, 3));
    }

    #[test]
    fn parallel_handles_chunk_boundaries_exactly() {
        // Size not divisible by worker count; forces ragged chunks.
        let p = ZeroCount { n: 31 };
        let mut rng = StdRng::seed_from_u64(9);
        let s = BitString::random(&mut rng, 31);
        let mut st = p.init_state(&s);
        let hood = KHamming::new(31, 3); // C(31,3) = 4495
        let mut par = ParallelCpuExplorer::new(hood, 7);
        let mut out = Vec::new();
        Explorer::<ZeroCount>::explore(&mut par, &p, &s, &mut st, &mut out);
        assert_eq!(out, brute_force(&p, &s, &hood));
    }

    #[test]
    fn explorer_metadata() {
        let ex = SequentialExplorer::new(KHamming::new(10, 2));
        assert_eq!(Explorer::<ZeroCount>::size(&ex), 45);
        assert_eq!(Explorer::<ZeroCount>::k(&ex), 2);
        assert_eq!(Explorer::<ZeroCount>::unrank(&ex, 0).bits(), &[0, 1]);
        assert!(Explorer::<ZeroCount>::book(&ex).is_none());
    }
}
