//! The 2-Hamming index transformations of the paper (Propositions 1 and 2,
//! Appendices A and B).
//!
//! Layout: moves are pairs `(i, j)` with `0 ≤ i < j < n`, enumerated in
//! lexicographic order, i.e. row `i` of a strictly-upper-triangular matrix.
//! The paper derives the closed forms
//!
//! * ℕ²→ℕ (App. A):  `f(i,j) = i·(n−1) + (j−1) − i·(i+1)/2`
//! * ℕ→ℕ² (App. B):  with `X = m − f − 1`, the largest `k` with
//!   `k(k+1)/2 ≤ X` is `k = ⌊(√(8X+1) − 1)/2⌋`, then `i = n − 2 − k` and
//!   `j = f − i(n−1) + i(i+1)/2 + 1`.
//!
//! [`rank2`]/[`unrank2`] implement these with exact integer arithmetic
//! (`u64::isqrt`): `rank2` for every `n` whose neighborhood size fits
//! `u64`, `unrank2` for `n ≤` [`UNRANK2_MAX_N`].
//! [`unrank2_f32_paper`] reproduces the single-precision GPU code of the
//! paper's Fig. 9 — including its `+0.1f` rounding guard — so the precision
//! ablation can locate the instance sizes where `f32` first mis-maps.

/// Neighborhood size `m = n(n−1)/2` of the 2-Hamming neighborhood, exact
/// whenever it fits `u64` (the product is taken in `u128`).
#[inline]
pub fn size2(n: u64) -> u64 {
    (n as u128 * (n - 1) as u128 / 2) as u64
}

/// ℕ²→ℕ: Proposition 1 / Appendix A. Requires `i < j < n`.
#[inline]
pub fn rank2(n: u64, i: u64, j: u64) -> u64 {
    debug_assert!(i < j && j < n, "rank2 needs i<j<n, got i={i} j={j} n={n}");
    i * (n - 1) + (j - 1) - i * (i + 1) / 2
}

/// Largest `n` at which [`unrank2`] is exact: its `8·X + 1`, with
/// `X < C(n, 2)`, fits `u64` up to here and overflows past it.
pub const UNRANK2_MAX_N: u64 = 1 << 31;

/// ℕ→ℕ²: Proposition 2 / Appendix B, exact integer version.
/// Requires `index < size2(n)`; returns `(i, j)` with `i < j`.
///
/// # Panics
/// Panics if `n >` [`UNRANK2_MAX_N`], where `8·X + 1` would wrap into a
/// wrong pair; [`KHamming`](crate::KHamming) walks the combinadic there.
#[inline]
pub fn unrank2(n: u64, index: u64) -> (u64, u64) {
    assert!(n <= UNRANK2_MAX_N, "unrank2 is exact only for n <= 2^31 (UNRANK2_MAX_N), got n={n}");
    let m = size2(n);
    debug_assert!(index < m, "unrank2 index {index} out of range (m={m})");
    // X = number of elements strictly after `index`; the largest k with
    // k(k+1)/2 <= X tells how many full rows fit behind it (paper eq. 4-5).
    let x = m - index - 1;
    let k = (((8 * x + 1).isqrt()) - 1) / 2;
    let i = n - 2 - k;
    let j = index + i * (i + 1) / 2 - i * (n - 1) + 1;
    (i, j)
}

/// ℕ→ℕ²: paper-faithful single-precision version of Fig. 9.
///
/// This is the literal GPU source from the paper, ported: `sqrtf`,
/// `floorf`, and the `+0.1f` guard against `sqrtf` returning just below an
/// exact integer root. The paper's listing computes the row distance into a
/// variable it also calls `move_index`; the arithmetic here follows it
/// step by step. Exact for small `n`; for large `n` the 24-bit mantissa
/// truncates `8X+1` and the result can drift off by one row — quantified in
/// the `ablations` bench (experiment A1).
#[inline]
pub fn unrank2_f32_paper(n: u64, index: u64) -> (u64, u64) {
    let m = size2(n);
    debug_assert!(index < m);
    let x = (m - index - 1) as f32;
    let k = (((8.0f32 * x + 1.0 + 0.1).sqrt() - 1.0) / 2.0).floor();
    let i = (n as f32 - 2.0 - k) as u64;
    // Wrapping arithmetic: when the f32 row estimate is off by one, the
    // exact formula for j underflows u64. The hardware kernel would just
    // produce a garbage index; we reproduce that behaviour instead of
    // panicking so the ablation can observe the mis-mapping.
    let j = index.wrapping_add(i * (i + 1) / 2).wrapping_sub(i * (n - 1)).wrapping_add(1);
    (i, j)
}

/// Smallest `n` (searched over a coarse grid) at which [`unrank2_f32_paper`]
/// disagrees with the exact mapping on at least one index, or `None` if no
/// disagreement was found up to `max_n`. Used by the precision ablation.
pub fn f32_first_failure(max_n: u64) -> Option<(u64, u64)> {
    let mut n = 64;
    while n <= max_n {
        let m = size2(n);
        // The fragile region is the high end of X (start of the index range)
        // and row boundaries; scan a band plus a stride over the rest.
        let band = 4096.min(m);
        let check = |idx: u64| unrank2(n, idx) != unrank2_f32_paper(n, idx);
        for idx in 0..band {
            if check(idx) {
                return Some((n, idx));
            }
        }
        let mut idx = band;
        let stride = (m / 65_536).max(1);
        while idx < m {
            if check(idx) {
                return Some((n, idx));
            }
            idx += stride;
        }
        n = n * 5 / 4;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference enumeration: lexicographic pairs.
    fn reference_pairs(n: u64) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                v.push((i, j));
            }
        }
        v
    }

    #[test]
    fn paper_worked_example() {
        // Paper App. A: n = 6, m = 15, (i=2, j=3) ↦ 9.
        assert_eq!(size2(6), 15);
        assert_eq!(rank2(6, 2, 3), 9);
        assert_eq!(unrank2(6, 9), (2, 3));
    }

    #[test]
    fn rank_matches_reference_enumeration() {
        for n in [2u64, 3, 4, 5, 6, 7, 17, 73] {
            for (f, &(i, j)) in reference_pairs(n).iter().enumerate() {
                assert_eq!(rank2(n, i, j), f as u64, "n={n} pair=({i},{j})");
            }
        }
    }

    #[test]
    fn unrank_is_inverse_small_n() {
        for n in [2u64, 3, 5, 8, 73, 117, 257] {
            for f in 0..size2(n) {
                let (i, j) = unrank2(n, f);
                assert!(i < j && j < n);
                assert_eq!(rank2(n, i, j), f, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn unrank_extremes() {
        let n = 1517;
        assert_eq!(unrank2(n, 0), (0, 1));
        assert_eq!(unrank2(n, n - 2), (0, n - 1));
        assert_eq!(unrank2(n, n - 1), (1, 2));
        assert_eq!(unrank2(n, size2(n) - 1), (n - 2, n - 1));
    }

    #[test]
    fn unrank_huge_n_spot_checks() {
        // n = 2^21: m ≈ 2.2e12; exercise 64-bit paths far beyond f32 reach.
        let n = 1u64 << 21;
        let m = size2(n);
        for f in [0, 1, n, m / 2, m - 2, m - 1] {
            let (i, j) = unrank2(n, f);
            assert_eq!(rank2(n, i, j), f);
        }
    }

    #[test]
    #[should_panic(expected = "unrank2 is exact only for n <= 2^31 (UNRANK2_MAX_N)")]
    fn unrank_past_its_bound_panics() {
        let _ = unrank2((1 << 31) + 1, 0);
    }

    #[test]
    fn f32_paper_version_agrees_on_paper_instances() {
        // On every instance size the paper actually ran (n ≤ 1517) the f32
        // code must agree with the exact mapping — otherwise their GPU
        // results would have been corrupted.
        for n in [73u64, 81, 101, 117, 217, 517, 1017, 1517] {
            for f in 0..size2(n) {
                assert_eq!(
                    unrank2_f32_paper(n, f),
                    unrank2(n, f),
                    "f32 mapping diverged at n={n}, f={f}"
                );
            }
        }
    }

    #[test]
    fn f32_version_eventually_fails() {
        // The ablation claim: single precision cannot carry arbitrarily
        // large neighborhoods. 8X+1 needs ~2·log2(n) bits; beyond the 24-bit
        // mantissa (n ≳ 2^13) rounding must eventually mis-rank.
        let failure = f32_first_failure(1 << 15);
        assert!(failure.is_some(), "expected the f32 mapping to fail somewhere below n=2^15");
        let (n, idx) = failure.unwrap();
        assert!(n > 1517, "f32 failed at n={n} idx={idx}, inside the paper's own range!");
    }
}
