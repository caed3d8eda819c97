//! `IncrementalEval::eval_range`, the one evaluation call every explorer
//! makes, against per-move `neighbor_fitness` on random index ranges. This
//! pins two kernels and their guards:
//!
//! - OneMax's 2-Hamming row kernel, which admits only a full
//!   single-radius 2-Hamming range;
//! - the PPP's flat kernel, which admits any range of any fixed-k
//!   neighborhood, partial ranges included, on one- and multi-word
//!   matrix columns (`m > 64`);
//!
//! and the per-move fallback for everything else: unions of radii, and
//! OneMax's partial ranges and `k ≠ 2`.

use lnls::core::eval_each_move;
use lnls::core::problem::{BinaryProblem, IncrementalEval};
use lnls::neighborhood::{FlipMove, KHamming, Neighborhood, UnionHamming};
use lnls::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimize the zero count through the default `eval_range`: OneMax's
/// landscape without its row kernel.
struct ZeroCount(usize);

impl BinaryProblem for ZeroCount {
    fn dim(&self) -> usize {
        self.0
    }
    fn evaluate(&self, s: &BitString) -> i64 {
        self.0 as i64 - s.count_ones() as i64
    }
    fn name(&self) -> String {
        "zerocount".to_string()
    }
}

impl IncrementalEval for ZeroCount {
    type State = i64;
    fn init_state(&self, s: &BitString) -> i64 {
        self.evaluate(s)
    }
    fn state_fitness(&self, st: &i64) -> i64 {
        *st
    }
    fn neighbor_fitness(&self, st: &mut i64, s: &BitString, mv: &FlipMove) -> i64 {
        mv.bits().iter().fold(*st, |f, &b| f + if s.get(b as usize) { 1 } else { -1 })
    }
    fn apply_move(&self, st: &mut i64, s: &BitString, mv: &FlipMove) {
        *st = self.neighbor_fitness(st, s, mv);
    }
}

/// `eval_range` over `lo..lo + len` equals `neighbor_fitness` on each
/// move `unrank` decodes. `lo` and `len` are folded into the
/// neighborhood; `full` takes the whole range instead.
fn check_range<P: IncrementalEval, N: Neighborhood>(
    p: &P,
    s: &BitString,
    hood: &N,
    (lo, len): (u64, u64),
    full: bool,
) -> Result<(), TestCaseError> {
    let m = hood.size();
    let (lo, len) = if full { (0, m) } else { (lo % m, len % (m - lo % m + 1)) };
    let mut st = p.init_state(s);
    let mut out = vec![i64::MIN; len as usize];
    p.eval_range(&mut st, s, hood, lo, &mut out);
    let want: Vec<i64> =
        (lo..lo + len).map(|i| p.neighbor_fitness(&mut st, s, &hood.unrank(i))).collect();
    prop_assert!(out == want, "{} over {} [{lo}, {lo}+{len})", p.name(), hood.name());
    Ok(())
}

/// [`check_range`] over every neighborhood shape, each on a random range
/// and on its full range.
fn check_problem<P: IncrementalEval>(p: &P, seed: u64, range: (u64, u64)) -> TestCaseResult {
    let n = p.dim();
    let s = BitString::random(&mut StdRng::seed_from_u64(seed), n);
    for full in [false, true] {
        for k in 1..=4 {
            check_range(p, &s, &KHamming::new(n, k), range, full)?;
        }
        check_range(p, &s, &UnionHamming::new(n, &[1, 2]), range, full)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn onemax_eval_range_matches_per_move(
        n in 4usize..26,
        seed in any::<u64>(),
        range in (any::<u64>(), any::<u64>()),
    ) {
        check_problem(&OneMax::new(n), seed, range)?;
    }

    #[test]
    fn zerocount_eval_range_matches_per_move(
        n in 4usize..26,
        seed in any::<u64>(),
        range in (any::<u64>(), any::<u64>()),
    ) {
        check_problem(&ZeroCount(n), seed, range)?;
    }

    #[test]
    fn ppp_eval_range_matches_per_move(
        m in 5usize..30,
        n in 5usize..24,
        seed in any::<u64>(),
        range in (any::<u64>(), any::<u64>()),
    ) {
        check_problem(&Ppp::new(PppInstance::generate(m, n, seed)), seed, range)?;
    }

    #[test]
    fn ppp_eval_range_matches_per_move_on_multi_word_columns(
        m in 65usize..=140,
        n in 4usize..12,
        seed in any::<u64>(),
        range in (any::<u64>(), any::<u64>()),
    ) {
        // m > 64: every matrix column spans two or three u64 words.
        check_problem(&Ppp::new(PppInstance::generate(m, n, seed)), seed, range)?;
    }

    #[test]
    fn maxcut_eval_range_matches_per_move(
        n in 4usize..30,
        seed in any::<u64>(),
        range in (any::<u64>(), any::<u64>()),
    ) {
        let p = MaxCut::random(&mut StdRng::seed_from_u64(seed), n, 0.4, 9);
        check_problem(&p, seed, range)?;
    }
}

#[test]
fn onemax_row_kernel_equals_the_default_path() {
    // OneMax overrides eval_range; ZeroCount keeps the default. On the
    // full 2-Hamming range (the kernel's only input) they must agree.
    let n = 96;
    let s = BitString::random(&mut StdRng::seed_from_u64(7), n);
    let hood = KHamming::new(n, 2);
    // Different sentinels: a slot either side leaves unwritten differs.
    let mut fast = vec![i64::MIN; hood.size() as usize];
    let mut slow = vec![i64::MAX; hood.size() as usize];
    OneMax::new(n).eval_range(&mut OneMax::new(n).init_state(&s), &s, &hood, 0, &mut fast);
    ZeroCount(n).eval_range(&mut ZeroCount(n).init_state(&s), &s, &hood, 0, &mut slow);
    assert_eq!(fast, slow);
}

#[test]
#[should_panic(expected = "exceeds")]
fn onemax_rejects_a_range_past_the_neighborhood() {
    // A full-length slice starting past 0 runs off the end: the row
    // kernel must not take it, and the per-move path refuses it.
    let n = 12;
    let s = BitString::zeros(n);
    let hood = KHamming::new(n, 2);
    let mut out = vec![0; hood.size() as usize];
    OneMax::new(n).eval_range(&mut OneMax::new(n).init_state(&s), &s, &hood, 1, &mut out);
}

#[test]
fn ppp_kernel_matches_per_move_across_prefix_boundaries_at_paper_size() {
    // The paper's 73×73 instance (two column words) under 3-Hamming,
    // after a short walk so the state is not the one `init_state` built.
    // The range starts inside the (0, 5) prefix and runs past the last
    // move with first bit 0, so it crosses dozens of (i, j) boundaries
    // and one i boundary.
    let p = Ppp::new(PppInstance::generate(73, 73, 11));
    let hood = KHamming::new(73, 3);
    let mut s = BitString::random(&mut StdRng::seed_from_u64(12), 73);
    let mut st = p.init_state(&s);
    for bits in [[3, 17, 60], [0, 1, 2], [20, 40, 72]] {
        let mv = FlipMove::from_sorted(&bits);
        p.apply_move(&mut st, &s, &mv);
        s.apply(&mv);
    }
    let lo = hood.rank(&FlipMove::three(0, 5, 40));
    let len = 3_000;
    assert!(lo + len > hood.rank(&FlipMove::three(1, 2, 3)), "the range crosses i = 0 → 1");
    let mut fast = vec![i64::MIN; len as usize];
    let mut slow = vec![i64::MAX; len as usize];
    p.eval_range(&mut st, &s, &hood, lo, &mut fast);
    eval_each_move(&p, &mut st, &s, &hood, lo, &mut slow);
    let first_diff = fast.iter().zip(&slow).position(|(a, b)| a != b);
    assert!(
        first_diff.is_none(),
        "move {:?} differs",
        first_diff.map(|i| hood.unrank(lo + i as u64))
    );
}

#[test]
#[should_panic(expected = "exceeds")]
fn ppp_rejects_a_range_past_the_neighborhood() {
    // The PPP twin of the OneMax case: the kernel's guard must not take
    // a range that runs off the end, and the per-move path refuses it.
    let p = Ppp::new(PppInstance::generate(20, 12, 3));
    let s = BitString::zeros(12);
    let hood = KHamming::new(12, 2);
    let mut out = vec![0; hood.size() as usize];
    p.eval_range(&mut p.init_state(&s), &s, &hood, 1, &mut out);
}

#[test]
fn ppp_kernel_hands_a_range_that_could_overflow_i32_to_the_per_move_path() {
    // The kernel sums a move's two cost terms in i32. Two target bins
    // of i32::MAX overflow that sum, so the guard must hand the range
    // to the per-move path, whose sums are i64.
    let mut inst = PppInstance::generate(9, 7, 5);
    inst.target_hist[1] = i32::MAX;
    inst.target_hist[3] = i32::MAX;
    let p = Ppp::new(inst);
    let s = BitString::random(&mut StdRng::seed_from_u64(6), 7);
    let hood = KHamming::new(7, 2);
    // Different sentinels: a slot either side leaves unwritten differs.
    let mut fast = vec![i64::MIN; hood.size() as usize];
    let mut slow = vec![i64::MAX; hood.size() as usize];
    p.eval_range(&mut p.init_state(&s), &s, &hood, 0, &mut fast);
    eval_each_move(&p, &mut p.init_state(&s), &s, &hood, 0, &mut slow);
    assert_eq!(fast, slow);
}
