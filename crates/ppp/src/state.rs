//! The PPP as an [`IncrementalEval`] problem: `O(m·k + n)` neighbor
//! evaluation instead of `O(m·n)` full re-evaluation.
//!
//! The state tracks the product vector `Y`, the candidate histogram `H'`
//! (non-negative bins), and both cost terms. Evaluating a `k`-flip
//! neighbor walks the `k` packed matrix columns once: per row,
//! `ΔY_j = Σ_c 4·(a_jc ⊕ v_c) − 2`, and the histogram-cost delta is
//! accumulated through a scratch delta-histogram (`O(touched bins)`
//! cleanup, no allocation).
//!
//! That per-move path ([`neighbor_fitness`](IncrementalEval::neighbor_fitness))
//! is the oracle. Explorers evaluate through
//! [`eval_range`](IncrementalEval::eval_range), which `Ppp` answers with
//! the paper's §III array fill laid out flat for any range of a fixed-k
//! lexicographic neighborhood:
//!
//! 1. the column deltas `D[c·m + r]` (`ΔY_r` when bit `c` flips, ±2) are
//!    unpacked once per call into one contiguous `n × m` array;
//! 2. the prefix products `P_t = Y + Σ_{u<t} D[bits_u]` are rebuilt only
//!    from the first bit position a lexicographic step changes, so a
//!    2-Hamming range pays one `m`-row rebuild per first bit `i` and a
//!    3-Hamming range one per `(i, j)`;
//! 3. each move is one branch-free pass over the `m` rows of
//!    `P_{k−1} + D[last]` (the negativity sum and each row's histogram
//!    bin), the bin counts, then the histogram distance to the target.
//!    Every row value has the parity of `n`, so the bins are `(y + n) / 2`
//!    and the distance reads only the `⌊n/2⌋ + 1` bins that can match.
//!
//! The result is the exact integer the per-move path returns. Unions of
//! radii, any neighborhood whose size is not `C(n, k)`, and instances
//! whose per-move sums could overflow `i32` fall back to the per-move
//! path.

use crate::instance::PppInstance;
use crate::objective::{fitness_parts, NEG_WEIGHT};
use lnls_core::{eval_each_move, BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::flip::MAX_FLIPS;
use lnls_neighborhood::{checked_binomial, lex_advance, FlipMove, Neighborhood};

/// The PPP wrapped as a minimization problem.
#[derive(Clone, Debug)]
pub struct Ppp {
    /// The instance being attacked.
    pub inst: PppInstance,
}

impl Ppp {
    /// Wrap an instance.
    pub fn new(inst: PppInstance) -> Self {
        Self { inst }
    }
}

impl lnls_core::Persist for Ppp {
    fn write(&self, out: &mut Vec<u8>) {
        // The `.ppp` text format already round-trips instances without a
        // serialization crate; embed it as one length-prefixed string.
        lnls_core::Persist::write(&self.inst.save_to_string(), out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let text: String = r.read()?;
        let inst = PppInstance::parse(&text).map_err(lnls_core::PersistError::new)?;
        Ok(Ppp::new(inst))
    }
}

impl lnls_core::PersistTag for Ppp {
    const TAG: &'static str = "ppp";
}

/// Incremental-evaluation state for [`Ppp`].
#[derive(Clone, Debug)]
pub struct PppState {
    /// Product vector `Y = A·x`.
    pub y: Vec<i32>,
    /// Histogram of non-negative `Y` values (`0..=n`).
    pub hist: Vec<i32>,
    /// `Σ_j (|Y_j| − Y_j)` (un-weighted).
    pub neg_cost: i64,
    /// `Σ_i |H_i − H'_i|`.
    pub hist_cost: i64,
    /// Scratch delta-histogram (always all-zero between calls).
    delta: Vec<i32>,
    /// Scratch list of touched bins (cleared between calls).
    touched: Vec<u32>,
}

impl PppState {
    /// The two cost terms combined, the paper's `f(V')`.
    #[inline]
    pub fn fitness(&self) -> i64 {
        NEG_WEIGHT * self.neg_cost + self.hist_cost
    }
}

/// `|y| − y` (0 for non-negative, `−2y` for negative).
#[inline]
fn neg_term(y: i32) -> i64 {
    if y < 0 {
        (-2 * y) as i64
    } else {
        0
    }
}

impl Ppp {
    /// Shared row walk: calls `row_fn(j, old_y, new_y)` for every row
    /// whose product changes under `mv`.
    #[inline]
    fn for_changed_rows<F: FnMut(usize, i32, i32)>(
        &self,
        y: &[i32],
        s: &BitString,
        mv: &FlipMove,
        mut row_fn: F,
    ) {
        let m = self.inst.m();
        let wpc = self.inst.a.words_per_col();
        // Per flipped column: xor-adjusted packed bits so that a set bit
        // contributes +4 to ΔY (and each column contributes −2 baseline).
        let k = mv.k();
        let mut xors: [&[u64]; 4] = [&[]; 4];
        let mut inv: [u64; 4] = [0; 4];
        for (t, &c) in mv.bits().iter().enumerate() {
            xors[t] = self.inst.a.col_words(c as usize);
            inv[t] = if s.get(c as usize) { u64::MAX } else { 0 };
        }
        let base = -2 * k as i32;
        // Index loops mirror the kernel's word/bit addressing.
        #[allow(clippy::needless_range_loop)]
        for w in 0..wpc {
            let lo = w * 64;
            let hi = m.min(lo + 64);
            let mut words = [0u64; 4];
            for t in 0..k {
                words[t] = xors[t][w] ^ inv[t];
            }
            for j in lo..hi {
                let r = (j - lo) as u32;
                let mut set = 0i32;
                for word in words.iter().take(k) {
                    set += ((word >> r) & 1) as i32;
                }
                let dy = 4 * set + base;
                if dy != 0 {
                    row_fn(j, y[j], y[j] + dy);
                }
            }
        }
    }
}

impl BinaryProblem for Ppp {
    fn dim(&self) -> usize {
        self.inst.n()
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        crate::objective::full_fitness(&self.inst, s)
    }

    fn name(&self) -> String {
        format!("ppp-{}x{}", self.inst.m(), self.inst.n())
    }

    fn target_fitness(&self) -> Option<i64> {
        Some(0)
    }
}

impl IncrementalEval for Ppp {
    type State = PppState;

    fn init_state(&self, s: &BitString) -> PppState {
        let n = self.inst.n();
        let mut y = Vec::new();
        self.inst.a.product(s, &mut y);
        let mut hist = vec![0i32; n + 1];
        for &yj in &y {
            if yj >= 0 {
                hist[yj as usize] += 1;
            }
        }
        let (neg_cost, hist_cost) = fitness_parts(&self.inst, s);
        PppState { y, hist, neg_cost, hist_cost, delta: vec![0; n + 1], touched: Vec::new() }
    }

    fn state_fitness(&self, state: &PppState) -> i64 {
        state.fitness()
    }

    fn neighbor_fitness(&self, state: &mut PppState, s: &BitString, mv: &FlipMove) -> i64 {
        let mut neg_d = 0i64;
        // Split borrows: the closure mutates scratch while reading `y`.
        let PppState { y, hist, neg_cost, hist_cost, delta, touched } = state;
        debug_assert!(touched.is_empty());
        self.for_changed_rows(y, s, mv, |_, old, new| {
            neg_d += neg_term(new) - neg_term(old);
            if old >= 0 {
                delta[old as usize] -= 1;
                touched.push(old as u32);
            }
            if new >= 0 {
                delta[new as usize] += 1;
                touched.push(new as u32);
            }
        });
        let mut hist_d = 0i64;
        let target = &self.inst.target_hist;
        for &b in touched.iter() {
            let b = b as usize;
            let d = delta[b];
            if d != 0 {
                let h = target[b] as i64;
                let hp = hist[b] as i64;
                hist_d += (h - (hp + d as i64)).abs() - (h - hp).abs();
                delta[b] = 0;
            }
        }
        touched.clear();
        NEG_WEIGHT * (*neg_cost + neg_d) + (*hist_cost + hist_d)
    }

    fn apply_move(&self, state: &mut PppState, s: &BitString, mv: &FlipMove) {
        let mut neg_d = 0i64;
        let PppState { y, hist, neg_cost, hist_cost, delta, touched } = state;
        debug_assert!(touched.is_empty());
        let mut updates: Vec<(usize, i32)> = Vec::with_capacity(16);
        self.for_changed_rows(y, s, mv, |j, old, new| {
            neg_d += neg_term(new) - neg_term(old);
            if old >= 0 {
                delta[old as usize] -= 1;
                touched.push(old as u32);
            }
            if new >= 0 {
                delta[new as usize] += 1;
                touched.push(new as u32);
            }
            updates.push((j, new));
        });
        for (j, new) in updates {
            y[j] = new;
        }
        let target = &self.inst.target_hist;
        let mut hist_d = 0i64;
        for &b in touched.iter() {
            let b = b as usize;
            let d = delta[b];
            if d != 0 {
                let h = target[b] as i64;
                let hp = hist[b] as i64;
                hist_d += (h - (hp + d as i64)).abs() - (h - hp).abs();
                hist[b] += d;
                delta[b] = 0;
            }
        }
        touched.clear();
        *neg_cost += neg_d;
        *hist_cost += hist_d;
    }

    /// The flat range kernel (module docs) for any range of a fixed-k
    /// lexicographic neighborhood; anything else — a union of radii, a
    /// neighborhood of another dimension, a range past the end — is
    /// evaluated move by move.
    fn eval_range<N: Neighborhood>(
        &self,
        state: &mut PppState,
        s: &BitString,
        hood: &N,
        lo: u64,
        out: &mut [i64],
    ) {
        let (m, n, k) = (self.inst.m(), self.inst.n(), hood.k());
        let fixed_k = (1..=MAX_FLIPS).contains(&k)
            && hood.dim() == n
            && checked_binomial(n as u64, k as u64) == Some(hood.size())
            && !out.is_empty()
            && lo.checked_add(out.len() as u64).is_some_and(|hi| hi <= hood.size());
        let target = fixed_k.then(|| HistTarget::new(&self.inst.target_hist, m, n)).flatten();
        let Some(target) = target else {
            return eval_each_move(self, state, s, hood, lo, out);
        };
        self.eval_fixed_k(&state.y, s, &target, hood.unrank(lo), out);
    }
}

impl Ppp {
    /// The kernel behind [`eval_range`](IncrementalEval::eval_range),
    /// kept apart from the neighborhood type so it is compiled once:
    /// fills `out` with the fitness of `first` and of the moves after it
    /// in lexicographic order over `n` bits, which the caller has
    /// checked exist.
    fn eval_fixed_k(
        &self,
        y: &[i32],
        s: &BitString,
        target: &HistTarget,
        first: FlipMove,
        out: &mut [i64],
    ) {
        let (m, n, k) = (self.inst.m(), self.inst.n(), first.k());
        let d = self.column_deltas(s);
        let mut bits = [0u32; MAX_FLIPS];
        bits[..k].copy_from_slice(first.bits());
        // Level t of `prefix` is P_t = Y + Σ_{u<t} D[bits_u], t < k.
        let mut prefix = vec![0i32; k * m];
        prefix[..m].copy_from_slice(y);
        let mut stale = 1;
        let (mut bins, mut count) = (vec![0u32; m], vec![0i32; 2 * (n + 1)]);
        let mut at = 0;
        loop {
            for t in stale..k {
                let (done, rest) = prefix.split_at_mut(t * m);
                let col = &d[bits[t - 1] as usize * m..][..m];
                for ((p, &q), &dc) in rest[..m].iter_mut().zip(&done[(t - 1) * m..]).zip(col) {
                    *p = q + dc;
                }
            }
            // One run: every last bit from bits[k-1] to n-1 under the
            // same prefix, cut short where the range ends.
            let last = bits[k - 1] as usize;
            let run = (n - last).min(out.len() - at);
            let level = &prefix[(k - 1) * m..];
            for (o, col) in out[at..at + run].iter_mut().zip(d[last * m..].chunks_exact(m)) {
                *o = target.fitness(level, col, &mut bins, &mut count);
            }
            at += run;
            if at == out.len() {
                return;
            }
            bits[k - 1] = n as u32 - 1;
            let before = bits;
            let advanced = lex_advance(&mut bits[..k], n as u32);
            debug_assert!(advanced, "the range fits, so a next prefix exists");
            stale = (0..k).find(|&t| bits[t] != before[t]).expect("an advance changes a bit") + 1;
        }
    }

    /// `D[c·m + r]`: `ΔY_r = 4·(a_rc ⊕ v_c) − 2` when bit `c` of `s`
    /// flips, one contiguous `m`-row slice per column.
    fn column_deltas(&self, s: &BitString) -> Vec<i32> {
        let (m, n) = (self.inst.m(), self.inst.n());
        let mut d = vec![0i32; n * m];
        for (c, col) in d.chunks_exact_mut(m).enumerate() {
            let inv = if s.get(c) { u64::MAX } else { 0 };
            for (rows, &word) in col.chunks_mut(64).zip(self.inst.a.col_words(c)) {
                let bits = word ^ inv;
                for (r, dr) in rows.iter_mut().enumerate() {
                    *dr = 4 * ((bits >> r) & 1) as i32 - 2;
                }
            }
        }
        d
    }
}

/// The histogram term of the range kernel. Every row value has the
/// parity of `n` (`Y_r = n − 2·popcount`), so a row of value `y` is
/// counted in bin `(y + n) / 2` of `0..=n`. The non-negative values fill
/// bins `⌈n/2⌉..=n`, which `same` (the target bins of `n`'s parity) is
/// laid against; a target bin of the other parity costs `|H_b|` whatever
/// the move, which `other` sums once.
struct HistTarget {
    same: Vec<i32>,
    other: i64,
    n: usize,
}

impl HistTarget {
    /// `None` unless `target` has the `n + 1` bins of an `m × n`
    /// instance and a move's two cost terms fit `i32`: the negativity
    /// sum is at most `2n·m`, the histogram distance at most `Σ|H_b| + m`.
    fn new(target: &[i32], m: usize, n: usize) -> Option<Self> {
        let fits = |bound: u64| bound <= i32::MAX as u64;
        let spread: u64 = target.iter().map(|&h| h.unsigned_abs() as u64).sum();
        let small = fits((2 * n as u64).saturating_mul(m as u64)) && fits(spread + m as u64);
        if target.len() != n + 1 || !small {
            return None;
        }
        let same = target.iter().skip(n % 2).step_by(2).copied().collect();
        let other = target.iter().skip(1 - n % 2).step_by(2).map(|&h| (h as i64).abs()).sum();
        Some(Self { same, other, n })
    }

    /// The fitness of the move whose rows are `prefix + col`, in
    /// branch-free passes: each row's negativity term and bin, then the
    /// bin counts — alternate rows into the two halves of `count`, so a
    /// run of rows with one value does not wait on its own stores — and
    /// the histogram distance. `count` is all-zero between calls.
    #[inline]
    fn fitness(&self, prefix: &[i32], col: &[i32], bins: &mut [u32], count: &mut [i32]) -> i64 {
        let n = self.n as i32;
        let mut neg = 0i32;
        for ((bin, &p), &dc) in bins.iter_mut().zip(prefix).zip(col) {
            let y = p + dc;
            neg += y.abs() - y;
            *bin = ((y + n) >> 1) as u32;
        }
        let (even, odd) = count.split_at_mut(self.n + 1);
        let mut pairs = bins.chunks_exact(2);
        for pair in &mut pairs {
            even[pair[0] as usize] += 1;
            odd[pair[1] as usize] += 1;
        }
        for &bin in pairs.remainder() {
            even[bin as usize] += 1;
        }
        let lo = self.n + 1 - self.same.len();
        let hist: i32 = (self.same.iter().zip(&even[lo..]).zip(&odd[lo..]))
            .map(|((&h, &a), &b)| (h - a - b).abs())
            .sum();
        count.fill(0);
        NEG_WEIGHT * neg as i64 + hist as i64 + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_neighborhood::{KHamming, LexMoves, Neighborhood};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_all_moves(m: usize, n: usize, k: usize, seed: u64) {
        let inst = PppInstance::generate(m, n, seed);
        let p = Ppp::new(inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let s = BitString::random(&mut rng, n);
        let mut st = p.init_state(&s);
        assert_eq!(st.fitness(), p.evaluate(&s), "state fitness at init");
        for (_, mv) in LexMoves::new(n, k) {
            let mut s2 = s.clone();
            s2.apply(&mv);
            let expect = p.evaluate(&s2);
            let got = p.neighbor_fitness(&mut st, &s, &mv);
            assert_eq!(got, expect, "m={m} n={n} {mv}");
        }
        // Scratch must be clean afterwards.
        assert!(st.delta.iter().all(|&d| d == 0));
        assert!(st.touched.is_empty());
    }

    #[test]
    fn neighbor_fitness_matches_full_eval_k1() {
        check_all_moves(15, 15, 1, 1);
        check_all_moves(21, 33, 1, 2);
    }

    #[test]
    fn neighbor_fitness_matches_full_eval_k2() {
        check_all_moves(15, 15, 2, 3);
        check_all_moves(33, 21, 2, 4);
    }

    #[test]
    fn neighbor_fitness_matches_full_eval_k3() {
        check_all_moves(13, 17, 3, 5);
    }

    #[test]
    fn apply_move_keeps_state_consistent_over_random_walk() {
        let inst = PppInstance::generate(31, 31, 9);
        let p = Ppp::new(inst);
        let mut rng = StdRng::seed_from_u64(10);
        let mut s = BitString::random(&mut rng, 31);
        let mut st = p.init_state(&s);
        let hood = KHamming::new(31, 3);
        for step in 0..200 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = p.neighbor_fitness(&mut st, &s, &mv);
            p.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.fitness(), predicted, "step {step}");
            assert_eq!(st.fitness(), p.evaluate(&s), "step {step} vs full eval");
            // Internal invariants.
            let mut hist = vec![0i32; 32];
            let mut y = Vec::new();
            p.inst.a.product(&s, &mut y);
            assert_eq!(y, st.y, "Y vector at step {step}");
            for &yj in &y {
                if yj >= 0 {
                    hist[yj as usize] += 1;
                }
            }
            assert_eq!(hist, st.hist, "histogram at step {step}");
        }
    }

    #[test]
    fn secret_state_is_zero() {
        let inst = PppInstance::generate(73, 73, 77);
        let secret = inst.secret.clone().unwrap();
        let p = Ppp::new(inst);
        let st = p.init_state(&secret);
        assert_eq!(st.fitness(), 0);
        assert_eq!(st.neg_cost, 0);
        assert_eq!(st.hist_cost, 0);
    }
}
