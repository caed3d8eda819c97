//! The k-Hamming neighborhood (paper §II, Figs. 3–5): every radius
//! `1 ≤ k ≤ 4` through one index ↔ move bijection, the combinatorial
//! number system — the generalization the paper's §V ("handling larger
//! neighborhoods") motivates. Its lexicographic layout is the paper's, so
//! `unrank` uses the closed forms of §III for `k ≤ 3` (the identity of
//! Fig. 7, [`unrank2`] of App. B, [`unrank3`] of App. C) wherever they are
//! exact, and the combinadic walk everywhere else.

use crate::combinadic::{rank_combinadic, unrank_combinadic};
use crate::flip::MAX_FLIPS;
use crate::mapping2d::{unrank2, UNRANK2_MAX_N};
use crate::mapping3d::unrank3;
use crate::{binomial, FlipMove, Neighborhood};

/// Largest `n` at which [`unrank3`] runs without a saturated
/// intermediate: `6·C(n, 3) = n(n−1)(n−2)` fits `u64` up to here, so its
/// plan search starts from an exact cube-root seed.
const UNRANK3_MAX_N: u64 = 2_642_246;

/// The neighborhood of all `k`-bit flips of an `n`-bit string
/// (`C(n, k)` moves), `1 ≤ k ≤` [`MAX_FLIPS`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KHamming {
    n: usize,
    k: usize,
    size: u64,
}

impl KHamming {
    /// Neighborhood of Hamming distance `k` over `n`-bit strings.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > MAX_FLIPS`, or `k > n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!((1..=MAX_FLIPS).contains(&k), "KHamming supports 1..={MAX_FLIPS}, got k={k}");
        assert!(k <= n, "KHamming requires k <= n (k={k}, n={n})");
        Self { n, k, size: binomial(n as u64, k as u64) }
    }
}

impl Neighborhood for KHamming {
    #[inline]
    fn dim(&self) -> usize {
        self.n
    }

    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn size(&self) -> u64 {
        self.size
    }

    /// The closed forms of the paper's mappings for `k ≤ 3` inside their
    /// exact range; the combinadic walk (`O(n)` per move) elsewhere.
    #[inline]
    fn unrank(&self, index: u64) -> FlipMove {
        debug_assert!(index < self.size);
        let n = self.n as u64;
        match self.k {
            1 => FlipMove::one(index as u32),
            2 if n <= UNRANK2_MAX_N => {
                let (i, j) = unrank2(n, index);
                FlipMove::two(i as u32, j as u32)
            }
            3 if n <= UNRANK3_MAX_N => {
                let (a, b, c) = unrank3(n, index);
                FlipMove::three(a as u32, b as u32, c as u32)
            }
            k => {
                let mut buf = [0u32; MAX_FLIPS];
                unrank_combinadic(n, index, &mut buf[..k]);
                FlipMove::from_sorted(&buf[..k])
            }
        }
    }

    #[inline]
    fn rank(&self, mv: &FlipMove) -> u64 {
        debug_assert_eq!(mv.k(), self.k);
        rank_combinadic(self.n as u64, mv.bits())
    }

    fn name(&self) -> &'static str {
        match self.k {
            1 => "1-Hamming (generic)",
            2 => "2-Hamming (generic)",
            3 => "3-Hamming (generic)",
            _ => "4-Hamming (generic)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_matches_the_combinadic_walk() {
        let walk = |n: u64, k: usize, index: u64| {
            let mut buf = [0u32; MAX_FLIPS];
            unrank_combinadic(n, index, &mut buf[..k]);
            FlipMove::from_sorted(&buf[..k])
        };
        for n in [4usize, 7, 12, 23] {
            for k in 1..=4 {
                let h = KHamming::new(n, k);
                for index in 0..h.size() {
                    assert_eq!(h.unrank(index), walk(n as u64, k, index), "n={n} k={k} #{index}");
                }
            }
        }
        // Each closed form's last n and the first n past it. The walk
        // takes O(n) steps per coordinate, so it is compared on the
        // first moves only (index 0 is unrank2's largest `X`); the last
        // move inside the range is known.
        for (k, max_n) in [(2, UNRANK2_MAX_N), (3, UNRANK3_MAX_N)] {
            for n in [max_n, max_n + 1] {
                let h = KHamming::new(n as usize, k);
                for index in 0..4 {
                    assert_eq!(h.unrank(index), walk(n, k, index), "n={n} k={k} #{index}");
                }
            }
            let h = KHamming::new(max_n as usize, k);
            let last: Vec<u32> = (max_n - k as u64..max_n).map(|b| b as u32).collect();
            assert_eq!(h.unrank(h.size() - 1), FlipMove::from_sorted(&last), "n={max_n} k={k}");
        }
    }

    #[test]
    fn rank_inverts_unrank() {
        // n = k is the size-one neighborhood: its one move flips every bit.
        for (k, ns) in [(1, [1, 2, 73]), (2, [2, 3, 73]), (3, [3, 5, 30]), (4, [4, 5, 15])] {
            for n in ns {
                let h = KHamming::new(n, k);
                assert_eq!(h.size(), binomial(n as u64, k as u64), "n={n} k={k}");
                for f in 0..h.size() {
                    let mv = h.unrank(f);
                    assert_eq!(mv.k(), k);
                    assert_eq!(h.rank(&mv), f, "n={n} k={k} #{f}");
                }
            }
            let all: Vec<u32> = (0..k as u32).collect();
            assert_eq!(KHamming::new(k, k).unrank(0), FlipMove::from_sorted(&all));
        }
        // Radius 1 is the identity mapping of the paper's Fig. 7.
        let h = KHamming::new(73, 1);
        for f in 0..h.size() {
            assert_eq!(h.unrank(f), FlipMove::one(f as u32));
        }
    }

    #[test]
    fn checked_accessors() {
        let h = KHamming::new(8, 1);
        assert!(h.try_unrank(7).is_some());
        assert!(h.try_unrank(8).is_none());
        assert!(h.try_rank(&FlipMove::one(7)).is_some());
        assert!(h.try_rank(&FlipMove::one(8)).is_none());
        assert!(h.try_rank(&FlipMove::two(1, 2)).is_none());
    }

    #[test]
    fn paper_instance_sizes() {
        // Table III: the 2- and 3-Hamming sizes of the paper's instances
        // (the 3-Hamming size is each run's iteration bound).
        for (n, two, three) in
            [(73, 2_628, 62_196), (81, 3_240, 85_320), (101, 5_050, 166_650), (117, 6_786, 260_130)]
        {
            assert_eq!(KHamming::new(n, 2).size(), two, "n={n}");
            assert_eq!(KHamming::new(n, 3).size(), three, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "k <= n")]
    fn k_larger_than_n_rejected() {
        let _ = KHamming::new(2, 3);
    }
}
