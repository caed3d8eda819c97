//! Property-based tests for the QAP substrate: delta exactness, the
//! incrementally maintained table, and mapping round-trips on the swap
//! index space.

use lnls_neighborhood::mapping2d::{rank2, size2, unrank2};
use lnls_qap::{swap_delta, DeltaTable, Permutation, QapInstance};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_instance(max_n: usize) -> impl Strategy<Value = (QapInstance, u64)> {
    (2usize..=max_n, any::<u64>(), any::<bool>()).prop_map(|(n, seed, sym)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = if sym {
            QapInstance::random_symmetric(&mut rng, n)
        } else {
            QapInstance::random_uniform(&mut rng, n)
        };
        (inst, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// swap_delta == full recompute, for every swap of a random
    /// permutation.
    #[test]
    fn delta_is_exact((inst, seed) in arb_instance(12)) {
        let n = inst.size();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let p = Permutation::random(&mut rng, n);
        let base = inst.cost(&p);
        for r in 0..n {
            for s in (r + 1)..n {
                let mut q = p.clone();
                q.swap(r, s);
                prop_assert_eq!(swap_delta(&inst, &p, r, s), inst.cost(&q) - base);
            }
        }
    }

    /// The delta table stays exact across a random committed walk, from
    /// n = 2 and 3 (where no pair is disjoint from a swap) up to 16, with
    /// `commit` handed each swap in either order: every entry matches
    /// `swap_delta` after every commit, and the full recompute at the end.
    #[test]
    fn table_exact_after_walk((inst, seed) in arb_instance(16), steps in 1usize..=64) {
        let n = inst.size();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdef);
        let mut p = Permutation::random(&mut rng, n);
        let mut table = DeltaTable::new(&inst, &p);
        for step in 0..steps {
            let idx = (seed.wrapping_mul(step as u64 + 1)) % size2(n as u64);
            let (r, s) = unrank2(n as u64, idx);
            let (r, s) = if rng.gen() { (r, s) } else { (s, r) };
            table.commit(&inst, &p, r as usize, s as usize);
            p.swap(r as usize, s as usize);
            for a in 0..n {
                for b in (a + 1)..n {
                    prop_assert_eq!(table.get(a, b), swap_delta(&inst, &p, a, b), "step {} ({},{})", step, a, b);
                }
            }
        }
        let base = inst.cost(&p);
        for r in 0..n {
            for s in (r + 1)..n {
                let mut q = p.clone();
                q.swap(r, s);
                prop_assert_eq!(table.get(r, s), inst.cost(&q) - base, "({},{})", r, s);
            }
        }
    }

    /// Swap-index bijection: every flat index decodes to an ordered pair
    /// that encodes back to itself (the Appendix A/B identity on the
    /// swap move space).
    #[test]
    fn swap_indexing_is_a_bijection(n in 2u64..200) {
        let m = size2(n);
        for idx in [0, 1, m / 2, m.saturating_sub(2), m - 1] {
            if idx >= m {
                continue; // n = 2 has a single swap
            }
            let (i, j) = unrank2(n, idx);
            prop_assert!(i < j && j < n);
            prop_assert_eq!(rank2(n, i, j), idx);
        }
    }

    /// A swap is an involution: applying it twice restores the cost.
    #[test]
    fn swap_involution((inst, seed) in arb_instance(12)) {
        let n = inst.size();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x123);
        let mut p = Permutation::random(&mut rng, n);
        let c0 = inst.cost(&p);
        let d1 = swap_delta(&inst, &p, 0, n - 1);
        p.swap(0, n - 1);
        let d2 = swap_delta(&inst, &p, 0, n - 1);
        p.swap(0, n - 1);
        prop_assert_eq!(d1, -d2);
        prop_assert_eq!(inst.cost(&p), c0);
    }

    /// Text round-trip is the identity.
    #[test]
    fn save_parse_roundtrip((inst, _) in arb_instance(10)) {
        let text = inst.save_to_string();
        let back = QapInstance::parse(&text).unwrap();
        prop_assert_eq!(back, inst);
    }
}
