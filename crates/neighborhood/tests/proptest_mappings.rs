//! Property-based tests of the index mappings: the bijection laws that
//! make the GPU thread-id ↔ move correspondence sound (paper §III).

use lnls_neighborhood::combinadic::{rank_combinadic, unrank_combinadic};
use lnls_neighborhood::mapping2d::{rank2, size2, unrank2};
use lnls_neighborhood::mapping3d::{rank3, size3, unrank3, unrank3_newton};
use lnls_neighborhood::{binomial, lex_advance, FlipMove, KHamming, Neighborhood};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// unrank2 ∘ rank2 = id over random pairs and sizes.
    #[test]
    fn rank2_unrank2_roundtrip(n in 2u64..5000, seed in any::<u64>()) {
        let i = seed % (n - 1);
        let j = i + 1 + (seed >> 32) % (n - i - 1);
        let f = rank2(n, i, j);
        prop_assert!(f < size2(n));
        prop_assert_eq!(unrank2(n, f), (i, j));
    }

    /// rank2 ∘ unrank2 = id over random flat indices.
    #[test]
    fn unrank2_rank2_roundtrip(n in 2u64..5000, x in any::<u64>()) {
        let f = x % size2(n);
        let (i, j) = unrank2(n, f);
        prop_assert!(i < j && j < n);
        prop_assert_eq!(rank2(n, i, j), f);
    }

    /// The 3D mapping round-trips over random triples.
    #[test]
    fn rank3_unrank3_roundtrip(n in 3u64..2000, seed in any::<u64>()) {
        let a = seed % (n - 2);
        let b = a + 1 + (seed >> 24) % (n - a - 2);
        let c = b + 1 + (seed >> 48) % (n - b - 1);
        let f = rank3(n, a, b, c);
        prop_assert!(f < size3(n));
        prop_assert_eq!(unrank3(n, f), (a, b, c));
    }

    /// …and over random flat indices, with the Newton variant agreeing.
    #[test]
    fn unrank3_rank3_roundtrip(n in 3u64..2000, x in any::<u64>()) {
        let f = x % size3(n);
        let (a, b, c) = unrank3(n, f);
        prop_assert!(a < b && b < c && c < n);
        prop_assert_eq!(rank3(n, a, b, c), f);
        prop_assert_eq!(unrank3_newton(n, f), (a, b, c));
    }

    /// The combinadic generalization round-trips for every k ≤ 4.
    #[test]
    fn combinadic_roundtrip(n in 4u64..1000, k in 1usize..=4, x in any::<u64>()) {
        let f = x % binomial(n, k as u64);
        let mut out = [0u32; 4];
        unrank_combinadic(n, f, &mut out[..k]);
        prop_assert!(out[..k].windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(rank_combinadic(n, &out[..k]), f);
    }

    /// Adjacent indices map to adjacent combinations (order preserved).
    #[test]
    fn unranking_preserves_lexicographic_order(n in 4u64..300, k in 1usize..=4, x in any::<u64>()) {
        let m = binomial(n, k as u64);
        // n = k has a single combination: no successor to compare with.
        prop_assume!(m >= 2);
        let f = x % (m - 1);
        let mut a = [0u32; 4];
        let mut b = [0u32; 4];
        unrank_combinadic(n, f, &mut a[..k]);
        unrank_combinadic(n, f + 1, &mut b[..k]);
        prop_assert!(a[..k] < b[..k], "order violated at f={}", f);
        // lex_advance agrees with unranking the successor.
        let mut c = a;
        prop_assert!(lex_advance(&mut c[..k], n as u32));
        prop_assert_eq!(&c[..k], &b[..k]);
    }

    /// KHamming agrees with the paper's closed forms at k = 1..3.
    #[test]
    fn neighborhood_trait_consistency(n in 4usize..500, x in any::<u64>()) {
        let (h1, h2, h3) = (KHamming::new(n, 1), KHamming::new(n, 2), KHamming::new(n, 3));
        let nn = n as u64;
        prop_assert_eq!(h2.size(), size2(nn));
        prop_assert_eq!(h3.size(), size3(nn));
        let f1 = x % h1.size();
        let f2 = x % h2.size();
        let f3 = x % h3.size();
        prop_assert_eq!(h1.unrank(f1), FlipMove::one(f1 as u32));
        prop_assert_eq!(h1.rank(&FlipMove::one(f1 as u32)), f1);
        let (i, j) = unrank2(nn, f2);
        prop_assert_eq!(h2.unrank(f2), FlipMove::two(i as u32, j as u32));
        prop_assert_eq!(h2.rank(&h2.unrank(f2)), rank2(nn, i, j));
        let (a, b, c) = unrank3(nn, f3);
        prop_assert_eq!(h3.unrank(f3), FlipMove::three(a as u32, b as u32, c as u32));
        prop_assert_eq!(h3.rank(&h3.unrank(f3)), rank3(nn, a, b, c));
    }

    /// try_rank rejects exactly the malformed moves.
    #[test]
    fn try_rank_validates(n in 3usize..200, a in any::<u32>(), b in any::<u32>()) {
        let h = KHamming::new(n, 2);
        let (a, b) = (a % (n as u32 * 2), b % (n as u32 * 2));
        if a < b {
            let mv = FlipMove::two(a, b);
            let expect_ok = (b as usize) < n;
            prop_assert_eq!(h.try_rank(&mv).is_some(), expect_ok);
        }
        // Wrong arity is always rejected.
        prop_assert!(h.try_rank(&FlipMove::one(0)).is_none());
    }
}

/// Mixed-radius unions: the flat index space is a bijection onto the
/// disjoint union of its parts, in ascending-radius order.
mod union_properties {
    use super::*;
    use lnls_neighborhood::UnionHamming;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn union_roundtrip(n in 5usize..60, x in any::<u64>()) {
            let u = UnionHamming::ladder123(n);
            let idx = x % u.size();
            let mv = u.unrank(idx);
            prop_assert_eq!(u.rank(&mv), idx);
            prop_assert!(mv.k() >= 1 && mv.k() <= 3);
        }

        #[test]
        fn union_size_is_sum_of_parts(n in 5usize..200) {
            let u = UnionHamming::ladder123(n);
            let expect = binomial(n as u64, 1) + binomial(n as u64, 2) + binomial(n as u64, 3);
            prop_assert_eq!(u.size(), expect);
        }

        #[test]
        fn union_enumeration_is_sorted_by_radius(n in 5usize..24) {
            let u = UnionHamming::ladder123(n);
            let mut last_k = 0usize;
            let mut count = 0u64;
            let mut sorted = true;
            u.for_each_move_in(0, u.size(), &mut |_idx, mv| {
                sorted &= mv.k() >= last_k;
                last_k = mv.k();
                count += 1;
                true
            });
            prop_assert!(sorted, "radius decreased during enumeration");
            prop_assert_eq!(count, u.size());
        }

        /// Range enumeration agrees with unranking for arbitrary windows,
        /// including windows straddling segment boundaries.
        #[test]
        fn union_range_windows_agree_with_unrank(n in 5usize..30, a in any::<u64>(), b in any::<u64>()) {
            let u = UnionHamming::ladder123(n);
            let (mut lo, mut hi) = (a % u.size(), b % (u.size() + 1));
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            let mut expect = lo;
            let mut ok = true;
            u.for_each_move_in(lo, hi, &mut |idx, mv| {
                ok &= idx == expect && mv == u.unrank(idx);
                expect += 1;
                true
            });
            prop_assert!(ok, "window enumeration diverged");
            prop_assert_eq!(expect, hi);
        }
    }
}
