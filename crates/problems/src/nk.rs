//! NK landscapes (Kauffman), adjacent-neighborhood model: locus `i`
//! contributes `f_i(s_i, s_{i+1}, …, s_{i+K})` (indices mod n) from a
//! lookup table. Tunable ruggedness (K) makes it the standard synthetic
//! landscape for studying neighborhood size vs. solution quality — the
//! exact trade-off the paper investigates on the PPP.

use lnls_core::{BinaryProblem, BitString, IncrementalEval};
use lnls_neighborhood::FlipMove;
use rand::Rng;

/// An NK landscape with adjacent epistasis, minimized.
#[derive(Clone, Debug)]
pub struct NkLandscape {
    n: usize,
    k: usize,
    /// `n` tables of `2^(k+1)` integer contributions.
    tables: Vec<Vec<i32>>,
}

impl NkLandscape {
    /// Random landscape: contributions uniform in `[0, scale)`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize, scale: i32) -> Self {
        assert!(k < n, "K must be below n");
        assert!(k <= 16, "table size 2^(K+1) would explode");
        let entries = 1usize << (k + 1);
        let tables =
            (0..n).map(|_| (0..entries).map(|_| rng.gen_range(0..scale)).collect()).collect();
        Self { n, k, tables }
    }

    /// The epistasis parameter K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pattern index of locus `i`: bits `i..=i+K` (mod n), LSB = locus
    /// `i` itself, with the bits of `mv` (if any) virtually flipped.
    #[inline]
    fn pattern(&self, i: usize, s: &BitString, mv: Option<&FlipMove>) -> usize {
        let mut idx = 0usize;
        for t in 0..=self.k {
            let pos = (i + t) % self.n;
            let mut bit = s.get(pos);
            if let Some(mv) = mv {
                if mv.contains(pos as u32) {
                    bit = !bit;
                }
            }
            idx |= (bit as usize) << t;
        }
        idx
    }

    /// Contribution of locus `i`.
    #[inline]
    fn contribution(&self, i: usize, s: &BitString, mv: Option<&FlipMove>) -> i32 {
        self.tables[i][self.pattern(i, s, mv)]
    }
}

/// Incremental state: per-locus contributions, total, and a stamp array
/// deduplicating loci affected by a k-flip move.
#[derive(Clone, Debug)]
pub struct NkState {
    contrib: Vec<i32>,
    total: i64,
    stamp: Vec<u32>,
    epoch: u32,
}

impl BinaryProblem for NkLandscape {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&self, s: &BitString) -> i64 {
        (0..self.n).map(|i| self.contribution(i, s, None) as i64).sum()
    }

    fn name(&self) -> String {
        format!("nk-{}-{}", self.n, self.k)
    }
}

impl IncrementalEval for NkLandscape {
    type State = NkState;

    fn init_state(&self, s: &BitString) -> NkState {
        let contrib: Vec<i32> = (0..self.n).map(|i| self.contribution(i, s, None)).collect();
        let total = contrib.iter().map(|&c| c as i64).sum();
        NkState { contrib, total, stamp: vec![0; self.n], epoch: 0 }
    }

    fn state_fitness(&self, state: &NkState) -> i64 {
        state.total
    }

    fn neighbor_fitness(&self, state: &mut NkState, s: &BitString, mv: &FlipMove) -> i64 {
        state.epoch = state.epoch.wrapping_add(1);
        let epoch = state.epoch;
        let mut f = state.total;
        for &b in mv.bits() {
            let b = b as usize;
            // Locus i is affected iff b ∈ {i, …, i+K} (mod n), i.e.
            // i ∈ {b−K, …, b} (mod n).
            for t in 0..=self.k {
                let i = (b + self.n - t) % self.n;
                if state.stamp[i] == epoch {
                    continue;
                }
                state.stamp[i] = epoch;
                f += (self.contribution(i, s, Some(mv)) - state.contrib[i]) as i64;
            }
        }
        f
    }

    fn apply_move(&self, state: &mut NkState, s: &BitString, mv: &FlipMove) {
        state.epoch = state.epoch.wrapping_add(1);
        let epoch = state.epoch;
        for &b in mv.bits() {
            let b = b as usize;
            for t in 0..=self.k {
                let i = (b + self.n - t) % self.n;
                if state.stamp[i] == epoch {
                    continue;
                }
                state.stamp[i] = epoch;
                let new = self.contribution(i, s, Some(mv));
                state.total += (new - state.contrib[i]) as i64;
                state.contrib[i] = new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_neighborhood::{KHamming, LexMoves, Neighborhood};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn k0_is_separable() {
        // With K = 0 each locus contributes independently; the optimum is
        // the per-locus argmin and 1-flip descent must reach it.
        use lnls_core::{HillClimbing, SearchConfig, SequentialExplorer};
        let mut rng = StdRng::seed_from_u64(1);
        let p = NkLandscape::random(&mut rng, 24, 0, 100);
        let optimum: i64 = p.tables.iter().map(|t| t.iter().copied().min().unwrap() as i64).sum();
        let mut ex = SequentialExplorer::new(lnls_neighborhood::KHamming::new(24, 1));
        let hc = HillClimbing::best(SearchConfig::budget(1000).with_target(None));
        let r = hc.run(&p, &mut ex, BitString::zeros(24));
        assert_eq!(r.best_fitness, optimum);
    }

    #[test]
    fn delta_matches_full_eval_exhaustively() {
        let mut rng = StdRng::seed_from_u64(2);
        for k_epi in [0usize, 1, 3, 5] {
            let p = NkLandscape::random(&mut rng, 14, k_epi, 50);
            let s = BitString::random(&mut rng, 14);
            let mut st = p.init_state(&s);
            for k in 1..=4usize {
                for (_, mv) in LexMoves::new(14, k) {
                    let mut s2 = s.clone();
                    s2.apply(&mv);
                    assert_eq!(
                        p.neighbor_fitness(&mut st, &s, &mv),
                        p.evaluate(&s2),
                        "K={k_epi} k={k} {mv}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_walk_keeps_state_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = NkLandscape::random(&mut rng, 29, 4, 1000);
        let mut s = BitString::random(&mut rng, 29);
        let mut st = p.init_state(&s);
        let hood = KHamming::new(29, 3);
        for _ in 0..150 {
            let mv = hood.unrank(rng.gen_range(0..hood.size()));
            let predicted = p.neighbor_fitness(&mut st, &s, &mv);
            p.apply_move(&mut st, &s, &mv);
            s.apply(&mv);
            assert_eq!(st.total, predicted);
            assert_eq!(st.total, p.evaluate(&s));
        }
    }

    #[test]
    fn wraparound_loci_are_handled() {
        // A flip of bit 0 affects loci n−K..n−1 through the wrap.
        let mut rng = StdRng::seed_from_u64(4);
        let p = NkLandscape::random(&mut rng, 10, 3, 50);
        let s = BitString::zeros(10);
        let mut st = p.init_state(&s);
        let mv = FlipMove::one(0);
        let mut s2 = s.clone();
        s2.apply(&mv);
        assert_eq!(p.neighbor_fitness(&mut st, &s, &mv), p.evaluate(&s2));
    }

    #[test]
    #[should_panic(expected = "K must be below n")]
    fn oversized_k_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = NkLandscape::random(&mut rng, 4, 4, 10);
    }
}
