//! Iteration over neighborhoods in flat-index order.

use crate::{FlipMove, Neighborhood};

/// Iterator over `(index, move)` pairs of a neighborhood, in index order.
///
/// Produced by [`Neighborhood::moves`]. Unranks lazily, so iterating a
/// prefix of a huge neighborhood costs only what is consumed.
pub struct MoveIter<'a, N: Neighborhood> {
    hood: &'a N,
    next: u64,
    end: u64,
}

impl<'a, N: Neighborhood> MoveIter<'a, N> {
    pub(crate) fn new(hood: &'a N) -> Self {
        Self { hood, next: 0, end: hood.size() }
    }

    /// Restrict the iterator to the half-open index range `lo..hi`
    /// (clamped to the neighborhood size). Used for partitioned scans.
    pub fn range(hood: &'a N, lo: u64, hi: u64) -> Self {
        let end = hi.min(hood.size());
        Self { hood, next: lo.min(end), end }
    }
}

impl<N: Neighborhood> Iterator for MoveIter<'_, N> {
    type Item = (u64, FlipMove);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        Some((idx, self.hood.unrank(idx)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl<N: Neighborhood> ExactSizeIterator for MoveIter<'_, N> {}

/// Advance a strictly increasing combination over `0..n` to its
/// lexicographic successor in place. Returns `false` (leaving the slice
/// unspecified) when `bits` was the last combination.
///
/// This is the O(1)-amortized companion to unranking: scans that visit
/// *every* move (a per-move neighborhood evaluation) should enumerate
/// instead of unranking each index.
#[inline]
pub fn lex_advance(bits: &mut [u32], n: u32) -> bool {
    let k = bits.len();
    debug_assert!(k >= 1);
    // Find the rightmost position that can still grow.
    let mut i = k;
    while i > 0 {
        i -= 1;
        let max_at_i = n - (k - i) as u32;
        if bits[i] < max_at_i {
            bits[i] += 1;
            for j in (i + 1)..k {
                bits[j] = bits[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Iterator over `(index, move)` pairs in lexicographic order using
/// [`lex_advance`] — index-compatible with [`MoveIter`] but O(1) per step
/// instead of one unranking per step.
pub struct LexMoves {
    cur: [u32; crate::flip::MAX_FLIPS],
    k: usize,
    n: u32,
    next_idx: u64,
    size: u64,
}

impl LexMoves {
    /// Enumerate the full k-Hamming neighborhood over `n`-bit strings.
    pub fn new(n: usize, k: usize) -> Self {
        assert!((1..=crate::flip::MAX_FLIPS).contains(&k) && k <= n);
        let mut cur = [0u32; crate::flip::MAX_FLIPS];
        for (i, c) in cur.iter_mut().enumerate().take(k) {
            *c = i as u32;
        }
        Self { cur, k, n: n as u32, next_idx: 0, size: crate::binomial(n as u64, k as u64) }
    }
}

impl Iterator for LexMoves {
    type Item = (u64, FlipMove);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next_idx >= self.size {
            return None;
        }
        let idx = self.next_idx;
        let mv = FlipMove::from_sorted(&self.cur[..self.k]);
        self.next_idx += 1;
        if self.next_idx < self.size {
            let advanced = lex_advance(&mut self.cur[..self.k], self.n);
            debug_assert!(advanced);
        }
        Some((idx, mv))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.size - self.next_idx) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for LexMoves {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KHamming;

    #[test]
    fn full_iteration_covers_everything_once() {
        let h = KHamming::new(9, 2);
        let collected: Vec<_> = h.moves().collect();
        assert_eq!(collected.len() as u64, h.size());
        for (t, (idx, mv)) in collected.iter().enumerate() {
            assert_eq!(*idx, t as u64);
            assert_eq!(h.rank(mv), *idx);
        }
    }

    #[test]
    fn range_iteration() {
        let h = KHamming::new(10, 3);
        let all: Vec<_> = h.moves().collect();
        let mid: Vec<_> = MoveIter::range(&h, 20, 40).collect();
        assert_eq!(mid.len(), 20);
        assert_eq!(&all[20..40], &mid[..]);
        // Clamped range.
        let tail: Vec<_> = MoveIter::range(&h, h.size() - 3, h.size() + 100).collect();
        assert_eq!(tail.len(), 3);
    }

    #[test]
    fn size_hint_is_exact() {
        let h = KHamming::new(12, 2);
        let mut it = h.moves();
        assert_eq!(it.size_hint(), (66, Some(66)));
        it.next();
        assert_eq!(it.size_hint(), (65, Some(65)));
    }

    #[test]
    fn lex_moves_matches_unranking_for_all_k() {
        for (n, k) in [(9usize, 1usize), (9, 2), (9, 3), (9, 4), (21, 3)] {
            let hood = KHamming::new(n, k);
            let by_unrank: Vec<_> = hood.moves().collect();
            let by_lex: Vec<_> = LexMoves::new(n, k).collect();
            assert_eq!(by_unrank, by_lex, "n={n} k={k}");
        }
    }

    #[test]
    fn lex_advance_terminates_exactly() {
        let mut bits = [0u32, 1, 2];
        let mut count = 1;
        while lex_advance(&mut bits, 7) {
            count += 1;
        }
        assert_eq!(count, 35); // C(7,3)
    }

    #[test]
    fn lex_moves_handles_singleton_neighborhood() {
        let all: Vec<_> = LexMoves::new(3, 3).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.bits(), &[0, 1, 2]);
    }
}
