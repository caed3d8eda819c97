//! Hamming-ball neighborhoods for binary encodings and the thread-id ↔ move
//! mappings of Luong, Melab & Talbi, *"Large Neighborhood Local Search
//! Optimization on Graphics Processing Units"* (LSPP @ IPDPS 2010).
//!
//! A *move* on a binary string of length `n` flips `k` distinct bit
//! positions. The neighborhood of Hamming distance `k` is the set of all
//! `C(n, k)` such moves. On a GPU each move is evaluated by one thread, and
//! the thread only knows its flat id — so the crate's central service is a
//! pair of bijections per neighborhood:
//!
//! * [`Neighborhood::unrank`]: flat index → move (ℕ → ℕᵏ, paper App. B/C),
//! * [`Neighborhood::rank`]: move → flat index (ℕᵏ → ℕ, paper App. A/D).
//!
//! [`KHamming`] is that pair for every radius `1 ≤ k ≤ 4`. Its layout is
//! lexicographic over sorted index tuples, the paper's own, so it unranks
//! `k ≤ 3` with the paper's closed forms ([`mapping2d`], [`mapping3d`])
//! and agrees with them index for index (property-tested).
//!
//! Two families of implementations are provided:
//!
//! * **Exact** integer arithmetic (`u64::isqrt`, integer cube-root fix-up) —
//!   the default. Each closed form is exact up to its own bound (e.g.
//!   [`mapping2d::UNRANK2_MAX_N`]); past it [`KHamming`] walks the
//!   combinadic instead, so it is exact for any `n` where the neighborhood
//!   size fits `u64`.
//! * **Paper-faithful floating point** ([`mapping2d::unrank2_f32_paper`],
//!   [`mapping3d::unrank3_newton`]) reproducing the `f32`/Newton–Raphson
//!   code of the paper's Figs. 9–10 — kept so the precision ablation (A1 in
//!   DESIGN.md) can quantify where they break.
//!
//! # Example
//!
//! ```
//! use lnls_neighborhood::{KHamming, Neighborhood};
//!
//! let hood = KHamming::new(101, 3);
//! assert_eq!(hood.size(), 101 * 100 * 99 / 6);
//! let mv = hood.unrank(12345);
//! assert_eq!(hood.rank(&mv), 12345);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combinadic;
pub mod flip;
pub mod iter;
pub mod mapping2d;
pub mod mapping3d;
pub mod newton;
pub mod partition;
pub mod union;

mod khamming;

pub use flip::FlipMove;
pub use iter::{lex_advance, LexMoves, MoveIter};
pub use khamming::KHamming;
pub use partition::{partition_ranges, IndexRange};
pub use union::UnionHamming;

/// A neighborhood of a binary string of dimension `n`: the set of all moves
/// flipping exactly `k` distinct bits, indexed `0..size()` in lexicographic
/// order of the sorted bit-index tuple.
///
/// Implementations must guarantee that [`rank`](Self::rank) and
/// [`unrank`](Self::unrank) are mutually inverse bijections between
/// `0..size()` and the set of sorted `k`-tuples over `0..dim()`.
pub trait Neighborhood: Send + Sync {
    /// Length `n` of the binary strings this neighborhood operates on.
    fn dim(&self) -> usize;

    /// Number of bits flipped by each move (the Hamming distance `k`).
    fn k(&self) -> usize;

    /// Number of moves in the neighborhood, `C(n, k)`.
    fn size(&self) -> u64;

    /// Map a flat move index (a GPU thread id) to the move it denotes.
    ///
    /// # Panics
    /// May panic (or return an unspecified move) if `index >= self.size()`;
    /// use [`try_unrank`](Self::try_unrank) for checked access.
    fn unrank(&self, index: u64) -> FlipMove;

    /// Map a move back to its flat index. Inverse of [`unrank`](Self::unrank).
    ///
    /// # Panics
    /// May panic if the move does not belong to this neighborhood (wrong
    /// number of bits, unsorted/duplicate indices, or indices `>= dim()`).
    fn rank(&self, mv: &FlipMove) -> u64;

    /// Checked variant of [`unrank`](Self::unrank).
    fn try_unrank(&self, index: u64) -> Option<FlipMove> {
        (index < self.size()).then(|| self.unrank(index))
    }

    /// Checked variant of [`rank`](Self::rank).
    fn try_rank(&self, mv: &FlipMove) -> Option<u64> {
        let n = self.dim() as u32;
        let bits = mv.bits();
        let sorted_unique = bits.windows(2).all(|w| w[0] < w[1]);
        (bits.len() == self.k() && sorted_unique && bits.iter().all(|&b| b < n))
            .then(|| self.rank(mv))
    }

    /// Iterator over every move in index order.
    fn moves(&self) -> MoveIter<'_, Self>
    where
        Self: Sized,
    {
        MoveIter::new(self)
    }

    /// Visit the moves with flat indices in `lo..hi` (clamped to
    /// [`size`](Self::size)) in index order, stopping early when the
    /// callback returns `false`.
    ///
    /// The default implementation assumes the neighborhood enumerates a
    /// *fixed* `k` in lexicographic order (true for [`KHamming`]): it
    /// unranks once at `lo` and advances with
    /// [`lex_advance`] — O(1) amortized per move, no per-index Newton
    /// steps. Mixed-k neighborhoods ([`UnionHamming`]) override this
    /// with per-segment dispatch.
    fn for_each_move_in(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, FlipMove) -> bool) {
        let hi = hi.min(self.size());
        if lo >= hi {
            return;
        }
        let first = self.unrank(lo);
        let k = first.k();
        let mut bits = [0u32; crate::flip::MAX_FLIPS];
        bits[..k].copy_from_slice(first.bits());
        let n = self.dim() as u32;
        for idx in lo..hi {
            let mv = FlipMove::from_sorted(&bits[..k]);
            if !f(idx, mv) {
                return;
            }
            if idx + 1 < hi {
                lex_advance(&mut bits[..k], n);
            }
        }
    }

    /// A short human-readable name, e.g. `"2-Hamming"`.
    fn name(&self) -> &'static str;
}

/// Binomial coefficient `C(n, k)` for small `k` (≤ 8), computed exactly in
/// `u128` and returned as `u64`.
///
/// # Panics
/// Panics if the result does not fit in `u64`; use [`checked_binomial`]
/// for shapes that come from outside the program.
#[inline]
pub fn binomial(n: u64, k: u64) -> u64 {
    checked_binomial(n, k).expect("binomial overflows u64")
}

/// Binomial coefficient `C(n, k)`, or `None` when it does not fit in
/// `u64` — the size check for a neighborhood shape `(n, k)` read from
/// untrusted bytes.
#[inline]
pub fn checked_binomial(n: u64, k: u64) -> Option<u64> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for t in 0..k {
        // `acc` is C(n, t) ≤ u64::MAX here, so the product fits u128.
        // C(n, ·) rises up to k ≤ n/2: once a prefix overflows, so does
        // the result.
        acc = acc * (n - t) as u128 / (t + 1) as u128;
        if acc > u64::MAX as u128 {
            return None;
        }
    }
    Some(acc as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(73, 3), 73 * 72 * 71 / 6);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn binomial_matches_pascal() {
        for n in 1..40u64 {
            for k in 1..5u64 {
                assert_eq!(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k));
            }
        }
    }

    #[test]
    fn checked_binomial_detects_overflow() {
        assert_eq!(checked_binomial(10, 3), Some(120));
        assert_eq!(checked_binomial(3, 5), Some(0));
        assert_eq!(checked_binomial(u64::MAX, 1), Some(u64::MAX));
        assert_eq!(checked_binomial(u64::MAX, u64::MAX - 1), Some(u64::MAX));
        assert_eq!(checked_binomial(1 << 40, 2), None);
        assert_eq!(checked_binomial(1 << 40, 4), None);
        // The largest n whose C(n, 2) still fits, and the first that does not.
        assert_eq!(checked_binomial(6_074_001_000, 2), Some(18_446_744_070_963_499_500));
        assert_eq!(checked_binomial(6_074_001_001, 2), None);
    }

    #[test]
    fn binomial_large_n_three() {
        // C(2_000_000, 3) must still be exact.
        let n = 2_000_000u64;
        assert_eq!(binomial(n, 3), n * (n - 1) * (n - 2) / 6);
    }
}
