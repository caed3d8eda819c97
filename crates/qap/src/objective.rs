//! Swap-move deltas for the QAP objective.
//!
//! `swap_delta` is the classical O(n) formula (valid for asymmetric
//! instances); [`DeltaTable`] maintains all `C(n,2)` deltas across
//! committed moves with Taillard's O(1) update for pairs disjoint from
//! the applied swap — the data structure at the heart of robust tabu
//! search (the paper's reference \[11\]).
//!
//! The table tracks `D` through the current assignment: it holds
//! `dp[k·n + l] = D[p_k][p_l]` and its transpose beside `Fᵀ`, so both of
//! its kernels — the disjoint update and the recompute of the pairs a
//! swap touches — read contiguous rows, and a commit only swaps two rows
//! and two columns of `dp` and `dpᵀ` to follow the assignment.
//!
//! Table entries are flat-indexed with the *paper's own* triangular
//! mapping (`rank2`/`unrank2`, Appendices A–B): the same bijection that
//! maps GPU thread ids to 2-Hamming moves maps swap moves here, which
//! is precisely the generality claim of §III.

use crate::instance::QapInstance;
use crate::permutation::Permutation;
use lnls_neighborhood::mapping2d::{rank2, size2, unrank2};

/// Exact cost change of swapping facilities `r` and `s` in `p` — O(n).
///
/// # Panics
/// Panics if `r == s` or either index is out of range.
pub fn swap_delta(inst: &QapInstance, p: &Permutation, r: usize, s: usize) -> i64 {
    let n = inst.size();
    assert!(r < n && s < n && r != s, "bad swap ({r},{s})");
    let (pr, ps) = (p.get(r), p.get(s));
    let mut d = inst.flow(r, r) * (inst.dist(ps, ps) - inst.dist(pr, pr))
        + inst.flow(r, s) * (inst.dist(ps, pr) - inst.dist(pr, ps))
        + inst.flow(s, r) * (inst.dist(pr, ps) - inst.dist(ps, pr))
        + inst.flow(s, s) * (inst.dist(pr, pr) - inst.dist(ps, ps));
    for k in 0..n {
        if k == r || k == s {
            continue;
        }
        let pk = p.get(k);
        d += inst.flow(k, r) * (inst.dist(pk, ps) - inst.dist(pk, pr))
            + inst.flow(k, s) * (inst.dist(pk, pr) - inst.dist(pk, ps))
            + inst.flow(r, k) * (inst.dist(ps, pk) - inst.dist(pr, pk))
            + inst.flow(s, k) * (inst.dist(pr, pk) - inst.dist(ps, pk));
    }
    d
}

/// All-pairs swap deltas, kept current across committed moves.
///
/// After a swap `(r,s)` is applied, entries for pairs disjoint from
/// `{r,s}` update in O(1) (Taillard's formula); the `2n−3` pairs
/// touching `r` or `s` are recomputed in O(n) each. One commit
/// therefore costs O(n²) total for the table — amortized O(1) per
/// neighbor, which is what makes exhaustive swap neighborhoods viable
/// on the CPU at all.
#[derive(Clone, Debug)]
pub struct DeltaTable {
    n: usize,
    delta: Vec<i64>,
    /// `dp[k·n + l] = D[p_k][p_l]`: the distances seen through the
    /// assignment the table tracks.
    dp: Vec<i64>,
    /// Transpose of `dp`.
    dpt: Vec<i64>,
    /// Transpose of `F`.
    ft: Vec<i64>,
    /// `commit`'s four rows, interleaved: `[x_u, y_u, x'_u, y'_u]` per
    /// facility `u`.
    rows: Vec<[i64; 4]>,
}

/// Row `i` of the row-major `n × n` matrix `m`.
#[inline]
fn row(m: &[i64], n: usize, i: usize) -> &[i64] {
    &m[i * n..][..n]
}

/// Transpose of the row-major `n × n` matrix `m`.
fn transpose(m: &[i64], n: usize) -> Vec<i64> {
    (0..n * n).map(|i| m[(i % n) * n + i / n]).collect()
}

/// Swap rows `a < b` and columns `a`, `b` of the `n × n` matrix `m`.
fn swap_rows_and_columns(m: &mut [i64], n: usize, a: usize, b: usize) {
    let (head, tail) = m.split_at_mut(b * n);
    head[a * n..][..n].swap_with_slice(&mut tail[..n]);
    for r in m.chunks_exact_mut(n) {
        r.swap(a, b);
    }
}

/// [`swap_delta`] of `r < s`, read from rows `r` and `s` of `F`, `Fᵀ`,
/// `dp` and `dpᵀ` (`D[p_k][p_l]` is `dp[k·n + l]`).
fn pair_delta(f: &[i64], ft: &[i64], dp: &[i64], dpt: &[i64], n: usize, r: usize, s: usize) -> i64 {
    let (fr, fs, ftr, fts) = (row(f, n, r), row(f, n, s), row(ft, n, r), row(ft, n, s));
    let (dr, ds, dtr, dts) = (row(dp, n, r), row(dp, n, s), row(dpt, n, r), row(dpt, n, s));
    let mut d = fr[r] * (ds[s] - dr[r])
        + fr[s] * (ds[r] - dr[s])
        + fs[r] * (dr[s] - ds[r])
        + fs[s] * (dr[r] - ds[s]);
    for k in 0..n {
        if k == r || k == s {
            continue;
        }
        d += (fr[k] - fs[k]) * (ds[k] - dr[k]) + (ftr[k] - fts[k]) * (dts[k] - dtr[k]);
    }
    d
}

impl DeltaTable {
    /// Build the table for `p` — O(n³).
    pub fn new(inst: &QapInstance, p: &Permutation) -> Self {
        let n = inst.size();
        let dp: Vec<i64> = (0..n * n).map(|i| inst.dist(p.get(i / n), p.get(i % n))).collect();
        let dpt = transpose(&dp, n);
        let ft = transpose(inst.flows(), n);
        let mut delta = Vec::with_capacity(size2(n as u64) as usize);
        for r in 0..n {
            for s in (r + 1)..n {
                delta.push(pair_delta(inst.flows(), &ft, &dp, &dpt, n, r, s));
            }
        }
        Self { n, delta, dp, dpt, ft, rows: vec![[0; 4]; n] }
    }

    /// Number of swap moves tracked.
    pub fn len(&self) -> usize {
        self.delta.len()
    }

    /// True when `n < 2` (no swaps exist).
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Delta of the swap `(r, s)`; order-insensitive.
    #[inline]
    pub fn get(&self, r: usize, s: usize) -> i64 {
        let (a, b) = if r < s { (r, s) } else { (s, r) };
        self.delta[rank2(self.n as u64, a as u64, b as u64) as usize]
    }

    /// Delta by flat move index (the GPU thread-id view).
    #[inline]
    pub fn get_flat(&self, index: u64) -> i64 {
        self.delta[index as usize]
    }

    /// Every delta, flat-indexed.
    pub(crate) fn deltas(&self) -> &[i64] {
        &self.delta
    }

    /// True when the table tracks the assignment `p` of `inst`: every
    /// `dp` entry is `D[p_k][p_l]`.
    pub(crate) fn tracks(&self, inst: &QapInstance, p: &Permutation) -> bool {
        let n = self.n;
        p.len() == n && (0..n * n).all(|i| self.dp[i] == inst.dist(p.get(i / n), p.get(i % n)))
    }

    /// Decode a flat index into the swap it denotes.
    pub fn unrank(&self, index: u64) -> (usize, usize) {
        let (i, j) = unrank2(self.n as u64, index);
        (i as usize, j as usize)
    }

    /// The move with the minimum delta, with its flat index
    /// (ties: lowest index).
    pub fn argmin(&self) -> (u64, i64) {
        let mut best = (0u64, i64::MAX);
        for (i, &d) in self.delta.iter().enumerate() {
            if d < best.1 {
                best = (i as u64, d);
            }
        }
        best
    }

    /// Refresh the table across the commit of swap `(r, s)`.
    ///
    /// `p` must still be the **pre-swap** permutation — the one the
    /// table tracks (checked in debug builds); the caller applies the
    /// swap to `p` afterwards.
    pub fn commit(&mut self, inst: &QapInstance, p: &Permutation, r: usize, s: usize) {
        debug_assert!(self.tracks(inst, p), "delta table does not track the pre-swap assignment");
        let n = self.n;
        let (a, b) = if r < s { (r, s) } else { (s, r) };
        let f = inst.flows();
        // For a pair (u, v) disjoint from {a, b}, cancelling the k ∉
        // {a, b} terms of the O(n) formula (only facilities a and b
        // changed location) leaves Taillard's update
        //   δ_q(u,v) − δ_p(u,v) = (x_u − x_v)(y_u − y_v) + (x'_u − x'_v)(y'_u − y'_v)
        // over four rows of the pre-swap distances.
        let (fa, fb) = (row(f, n, a), row(f, n, b));
        let (fta, ftb) = (row(&self.ft, n, a), row(&self.ft, n, b));
        let (da, db) = (row(&self.dp, n, a), row(&self.dp, n, b));
        let (dta, dtb) = (row(&self.dpt, n, a), row(&self.dpt, n, b));
        for (u, w) in self.rows.iter_mut().enumerate() {
            *w = [fa[u] - fb[u], da[u] - db[u], fta[u] - ftb[u], dta[u] - dtb[u]];
        }
        // Follow the assignment, then recompute the 2n − 3 pairs that
        // touch {a, b} on the post-swap distances.
        swap_rows_and_columns(&mut self.dp, n, a, b);
        swap_rows_and_columns(&mut self.dpt, n, a, b);
        let flat = |x: usize, y: usize| rank2(n as u64, x as u64, y as u64) as usize;
        for u in (0..n).filter(|&u| u != a && u != b) {
            for t in [a, b] {
                let (x, y) = if u < t { (u, t) } else { (t, u) };
                self.delta[flat(x, y)] = pair_delta(f, &self.ft, &self.dp, &self.dpt, n, x, y);
            }
        }
        self.delta[flat(a, b)] = pair_delta(f, &self.ft, &self.dp, &self.dpt, n, a, b);
        // The disjoint pairs, row by row through the flat layout. The
        // touching pairs already hold their post-swap deltas, so they
        // are skipped.
        let mut rest = self.delta.as_mut_slice();
        for u in 0..n {
            let (line, tail) = rest.split_at_mut(n - 1 - u);
            rest = tail;
            if u == a || u == b {
                continue;
            }
            let [xu, yu, xtu, ytu] = self.rows[u];
            for (v, (d, &[xv, yv, xtv, ytv])) in
                (u + 1..n).zip(line.iter_mut().zip(&self.rows[u + 1..]))
            {
                if v == a || v == b {
                    continue;
                }
                *d += (xu - xv) * (yu - yv) + (xtu - xtv) * (ytu - ytv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_table(inst: &QapInstance, p: &Permutation, table: &DeltaTable) {
        let n = inst.size();
        let base = inst.cost(p);
        for r in 0..n {
            for s in (r + 1)..n {
                let mut q = p.clone();
                q.swap(r, s);
                assert_eq!(table.get(r, s), inst.cost(&q) - base, "pair ({r},{s}) stale");
            }
        }
    }

    #[test]
    fn swap_delta_matches_full_recompute_asymmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = QapInstance::random_uniform(&mut rng, 9);
        let p = Permutation::random(&mut rng, 9);
        let base = inst.cost(&p);
        for r in 0..9 {
            for s in 0..9 {
                if r == s {
                    continue;
                }
                let mut q = p.clone();
                q.swap(r, s);
                assert_eq!(swap_delta(&inst, &p, r, s), inst.cost(&q) - base, "({r},{s})");
            }
        }
    }

    #[test]
    fn table_initializes_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        let inst = QapInstance::random_uniform(&mut rng, 8);
        let p = Permutation::random(&mut rng, 8);
        check_table(&inst, &p, &DeltaTable::new(&inst, &p));
    }

    #[test]
    fn table_stays_exact_across_commits_asymmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = QapInstance::random_uniform(&mut rng, 10);
        let mut p = Permutation::random(&mut rng, 10);
        let mut table = DeltaTable::new(&inst, &p);
        for step in 0..30 {
            let r = rng.gen_range(0..10);
            let mut s = rng.gen_range(0..10);
            while s == r {
                s = rng.gen_range(0..10);
            }
            table.commit(&inst, &p, r, s);
            p.swap(r, s);
            check_table(&inst, &p, &table);
            let _ = step;
        }
    }

    #[test]
    fn table_stays_exact_across_commits_symmetric() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst = QapInstance::random_symmetric(&mut rng, 9);
        let mut p = Permutation::random(&mut rng, 9);
        let mut table = DeltaTable::new(&inst, &p);
        for _ in 0..25 {
            let (idx, _) = table.argmin();
            let (r, s) = table.unrank(idx);
            table.commit(&inst, &p, r, s);
            p.swap(r, s);
            check_table(&inst, &p, &table);
        }
    }

    #[test]
    fn argmin_agrees_with_flat_indexing() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = QapInstance::random_uniform(&mut rng, 7);
        let p = Permutation::random(&mut rng, 7);
        let table = DeltaTable::new(&inst, &p);
        let (idx, val) = table.argmin();
        assert_eq!(table.get_flat(idx), val);
        let (r, s) = table.unrank(idx);
        assert_eq!(table.get(r, s), val);
        for i in 0..table.len() as u64 {
            assert!(table.get_flat(i) >= val);
        }
    }
}
