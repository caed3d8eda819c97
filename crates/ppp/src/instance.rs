//! PPP instance generation (Pointcheval's construction) and persistence.
//!
//! Definition 1 of the paper: given an ε-matrix `A` (m×n) and a multiset
//! `S` of non-negative integers, find an ε-vector `V` with
//! `{{(AV)_j}} = S`. Instances are generated the standard way: draw `A`
//! and a secret `V` uniformly, then negate every row with `(AV)_j < 0` —
//! the resulting instance has all-non-negative correlations and `V` as a
//! planted solution. The paper's "popular instances of the literature"
//! are exactly such random instances at sizes 73×73, 81×81, 101×101,
//! 101×117.

use crate::matrix::EpsilonMatrix;
use lnls_core::BitString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A PPP instance: public matrix + target multiset (as a histogram),
/// optionally remembering the planted secret (for tests and the crypto
/// example; a real verifier would not have it).
#[derive(Clone, Debug)]
pub struct PppInstance {
    /// The public ε-matrix.
    pub a: EpsilonMatrix,
    /// Histogram of the target multiset `S`: `target_hist[v]` counts rows
    /// with `(AV)_j = v`, for `v` in `0..=n`.
    pub target_hist: Vec<i32>,
    /// The planted secret, if known.
    pub secret: Option<BitString>,
}

impl PppInstance {
    /// Rows.
    pub fn m(&self) -> usize {
        self.a.m()
    }

    /// Columns = solution length.
    pub fn n(&self) -> usize {
        self.a.n()
    }

    /// Generate an instance of shape `m × n` with a planted secret.
    pub fn generate(m: usize, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = EpsilonMatrix::random(&mut rng, m, n);
        let secret = BitString::random(&mut rng, n);
        // Pointcheval: flip rows with negative correlation so S is a
        // multiset of non-negative integers and `secret` still solves it.
        for j in 0..m {
            if a.row_product(j, &secret) < 0 {
                a.negate_row(j);
            }
        }
        let mut target_hist = vec![0i32; n + 1];
        for j in 0..m {
            let y = a.row_product(j, &secret);
            debug_assert!(y >= 0);
            target_hist[y as usize] += 1;
        }
        Self { a, target_hist, secret: Some(secret) }
    }

    /// The four instances of the paper's Tables I–III.
    pub fn paper_sizes() -> [(usize, usize); 4] {
        [(73, 73), (81, 81), (101, 101), (101, 117)]
    }

    /// The size ladder of the paper's Fig. 8: `(101,117), (201,217), …,
    /// (1501,1517)`.
    pub fn fig8_sizes() -> Vec<(usize, usize)> {
        (0..15).map(|i| (101 + 100 * i, 117 + 100 * i)).collect()
    }

    /// Serialize to the `.ppp` text format (hex row words; `secret -`
    /// when unknown).
    pub fn save_to_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let (m, n) = (self.m(), self.n());
        let _ = writeln!(s, "ppp {m} {n}");
        let _ = write!(s, "rows");
        for w in self.a.row_words() {
            let _ = write!(s, " {w:x}");
        }
        let _ = writeln!(s);
        let _ = write!(s, "hist");
        for h in &self.target_hist {
            let _ = write!(s, " {h}");
        }
        let _ = writeln!(s);
        match &self.secret {
            None => {
                let _ = writeln!(s, "secret -");
            }
            Some(v) => {
                let _ = write!(s, "secret");
                for w in v.words() {
                    let _ = write!(s, " {w:x}");
                }
                let _ = writeln!(s);
            }
        }
        s
    }

    /// Parse the `.ppp` text format written by
    /// [`save_to_string`](Self::save_to_string).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty instance file")?;
        let mut it = header.split_whitespace();
        if it.next() != Some("ppp") {
            return Err("missing 'ppp' header".into());
        }
        let m: usize = it.next().ok_or("missing m")?.parse().map_err(|e| format!("bad m: {e}"))?;
        let n: usize = it.next().ok_or("missing n")?.parse().map_err(|e| format!("bad n: {e}"))?;
        if m == 0 || n == 0 {
            return Err(format!("m and n must be positive, got m = {m}, n = {n}"));
        }

        let rows_line = lines.next().ok_or("missing rows line")?;
        let mut rows_it = rows_line.split_whitespace();
        if rows_it.next() != Some("rows") {
            return Err("missing 'rows' line".into());
        }
        let rows: Vec<u64> = rows_it
            .map(|t| u64::from_str_radix(t, 16).map_err(|e| format!("bad row word: {e}")))
            .collect::<Result<_, _>>()?;
        if m.checked_mul(n.div_ceil(64)) != Some(rows.len()) {
            return Err(format!("rows has {} words, expected {m}·⌈{n}/64⌉", rows.len()));
        }

        let hist_line = lines.next().ok_or("missing hist line")?;
        let mut hist_it = hist_line.split_whitespace();
        if hist_it.next() != Some("hist") {
            return Err("missing 'hist' line".into());
        }
        let target_hist: Vec<i32> = hist_it
            .map(|t| t.parse().map_err(|e| format!("bad hist entry: {e}")))
            .collect::<Result<_, _>>()?;
        if target_hist.len() != n + 1 {
            return Err(format!("hist has {} entries, expected {}", target_hist.len(), n + 1));
        }

        let secret_line = lines.next().ok_or("missing secret line")?;
        let mut sec_it = secret_line.split_whitespace();
        if sec_it.next() != Some("secret") {
            return Err("missing 'secret' line".into());
        }
        let rest: Vec<&str> = sec_it.collect();
        let secret = if rest == ["-"] {
            None
        } else {
            let words: Vec<u64> = rest
                .iter()
                .map(|t| u64::from_str_radix(t, 16).map_err(|e| format!("bad secret word: {e}")))
                .collect::<Result<_, _>>()?;
            if words.len() < n.div_ceil(64) {
                return Err(format!("secret has {} words, expected ⌈{n}/64⌉", words.len()));
            }
            let mut v = BitString::zeros(n);
            for i in 0..n {
                if (words[i / 64] >> (i % 64)) & 1 == 1 {
                    v.flip(i);
                }
            }
            Some(v)
        };
        // Every line parsed; now the histogram must be one of m row
        // products: every bin in 0..=m, summing to m. A negative bin
        // would overflow the distance's `abs`.
        let in_range = target_hist.iter().all(|&h| usize::try_from(h).is_ok_and(|h| h <= m));
        if !in_range || target_hist.iter().map(|&h| h as usize).sum::<usize>() != m {
            return Err(format!("hist bins must lie in 0..={m} and sum to m = {m}"));
        }
        let a = EpsilonMatrix::from_row_words(m, n, &rows);
        Ok(Self { a, target_hist, secret })
    }

    /// Forget the planted secret (what an attacker sees).
    pub fn public_only(mut self) -> Self {
        self.secret = None;
        self
    }

    /// Check whether `v` solves the instance (multiset equality — the
    /// success criterion behind the paper's "# solutions" column).
    pub fn is_solution(&self, v: &BitString) -> bool {
        let mut hist = vec![0i32; self.n() + 1];
        for j in 0..self.m() {
            let y = self.a.row_product(j, v);
            if y < 0 {
                return false;
            }
            hist[y as usize] += 1;
        }
        hist == self.target_hist
    }

    /// Generate with a fresh RNG from entropy (convenience for examples).
    pub fn generate_random(m: usize, n: usize) -> Self {
        Self::generate(m, n, rand::thread_rng().gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_secret_is_a_solution() {
        for (m, n) in [(15, 15), (73, 73), (31, 47)] {
            let inst = PppInstance::generate(m, n, 42);
            let secret = inst.secret.clone().unwrap();
            assert!(inst.is_solution(&secret), "{m}x{n}");
        }
    }

    #[test]
    fn target_multiset_is_nonnegative_with_m_entries() {
        let inst = PppInstance::generate(73, 73, 7);
        let total: i32 = inst.target_hist.iter().sum();
        assert_eq!(total, 73);
        // n odd → all correlations odd → even bins empty.
        for (v, &count) in inst.target_hist.iter().enumerate() {
            if v % 2 == 0 {
                assert_eq!(count, 0, "even bin {v} must be empty for odd n");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = PppInstance::generate(21, 21, 1);
        let b = PppInstance::generate(21, 21, 2);
        assert_ne!(a.a, b.a);
    }

    #[test]
    fn save_parse_roundtrip() {
        let inst = PppInstance::generate(19, 33, 5);
        let text = inst.save_to_string();
        let back = PppInstance::parse(&text).expect("parse");
        assert_eq!(inst.a, back.a);
        assert_eq!(inst.target_hist, back.target_hist);
        assert_eq!(inst.secret, back.secret);

        let public = inst.public_only();
        let text2 = public.save_to_string();
        let back2 = PppInstance::parse(&text2).expect("parse public");
        assert!(back2.secret.is_none());
        assert_eq!(public.a, back2.a);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PppInstance::parse("").is_err());
        assert!(PppInstance::parse("ppp 3").is_err());
        assert!(PppInstance::parse("ppp 3 3\nrows zz\nhist 0\nsecret -").is_err());
        // Each of these used to panic while building the matrix or the
        // secret; each is an error naming the field now.
        let rejects = |text: &str, field: &str| {
            let err = PppInstance::parse(text).expect_err(text);
            assert!(err.contains(field), "{text:?} failed as {err:?}, which does not name {field}");
        };
        rejects("ppp 3 2\nrows 0 1\nhist 0 1 2\nsecret -", "rows");
        rejects("ppp 0 2\nrows\nhist 0 0 0\nsecret -", "m and n");
        rejects("ppp 2 0\nrows\nhist 0\nsecret -", "m and n");
        let hist = vec!["0"; 71].join(" ");
        rejects(&format!("ppp 1 70\nrows 0 0\nhist {hist}\nsecret 1"), "secret");
        // A bin outside 0..=m used to parse, then overflow `abs` in
        // `evaluate` and `init_state`; bins summing past m are no
        // histogram of m rows.
        rejects("ppp 1 1\nrows 0\nhist -2147483648 1\nsecret -", "hist");
        rejects("ppp 1 1\nrows 0\nhist 1 1\nsecret -", "hist");
    }

    #[test]
    fn wrong_vector_is_not_a_solution() {
        let inst = PppInstance::generate(33, 33, 11);
        let mut v = inst.secret.clone().unwrap();
        v.flip(0);
        // One flip moves every row's product by ±2: the multiset almost
        // surely changes (and negativity may appear).
        assert!(!inst.is_solution(&v));
    }

    #[test]
    fn paper_and_fig8_sizes() {
        assert_eq!(PppInstance::paper_sizes()[3], (101, 117));
        let f8 = PppInstance::fig8_sizes();
        assert_eq!(f8.len(), 15);
        assert_eq!(f8[0], (101, 117));
        assert_eq!(f8[14], (1501, 1517));
    }
}
