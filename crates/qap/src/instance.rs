//! QAP instances: flow matrix `F` between facilities, distance matrix
//! `D` between locations; cost of an assignment `p` is
//! `Σ_{i,j} F[i][j] · D[p[i]][p[j]]`.
//!
//! The generator follows Taillard's `taiXXa` recipe — uniform integer
//! flows and distances — which is the instance family his robust tabu
//! search paper (the LS paper's reference \[11\]) evaluates on. A small
//! text format (QAPLIB-style: `n`, then `F` row-major, then `D`)
//! round-trips instances without a serialization crate.

use crate::permutation::Permutation;
use lnls_core::Persist;
use rand::Rng;

/// Why an instance is refused when [`within_i64_bound`] fails.
const TOO_LARGE: &str = "QAP matrix entries too large: 8·n²·max F·max D exceeds i64::MAX";

/// True when `8·n²·max F·max D ≤ i64::MAX` for non-negative `f`, `d`,
/// computed with checked arithmetic. Under this bound every kernel on
/// the instance is exact. With `M = max F · max D`:
///
/// - `cost` sums `n²` products `F[i][j]·D[p_i][p_j]`, each at most `M`;
/// - [`swap_delta`](crate::swap_delta), the delta table's pair kernel
///   and the device kernel add four diagonal products, then per other
///   facility products of a flow, or of a difference of two flows (at
///   most `max F`), with a difference of two distances (at most
///   `max D`): every partial sum is at most `4n·M`;
/// - the table's update of a disjoint pair adds two products of a
///   difference of flow differences (at most `2·max F`) with a
///   difference of distance differences (at most `2·max D`), at most
///   `8M` in all, to a delta of at most `4n·M`;
/// - robust tabu's aspiration test adds a delta to a cost, at most
///   `n²·M + 4n·M`.
///
/// For `n ≥ 2` each of these is at most `8·n²·M`.
fn within_i64_bound(n: usize, f: &[i64], d: &[i64]) -> bool {
    let max_f = f.iter().copied().max().unwrap_or(0);
    let max_d = d.iter().copied().max().unwrap_or(0);
    i64::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(n))
        .and_then(|n2| n2.checked_mul(8))
        .and_then(|b| b.checked_mul(max_f))
        .and_then(|b| b.checked_mul(max_d))
        .is_some()
}

/// Why `f` and `d` cannot be an instance's matrices, if they cannot: a
/// negative entry, or entries past [`within_i64_bound`].
fn refused_entries(n: usize, f: &[i64], d: &[i64]) -> Option<&'static str> {
    if f.iter().chain(d).any(|&x| x < 0) {
        return Some("negative QAP matrix entry");
    }
    (!within_i64_bound(n, f, d)).then_some(TOO_LARGE)
}

/// A QAP instance with dense integer matrices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QapInstance {
    n: usize,
    /// Row-major flows (`n²`).
    f: Vec<i64>,
    /// Row-major distances (`n²`).
    d: Vec<i64>,
}

impl QapInstance {
    /// Build from explicit matrices.
    ///
    /// # Panics
    /// Panics on size mismatch, negative entries (QAPLIB instances are
    /// non-negative) or entries so large that a kernel could overflow
    /// `i64`: every instance has `8·n²·max F·max D ≤ i64::MAX`, which
    /// keeps every partial sum of `cost`, [`swap_delta`](crate::swap_delta),
    /// the delta table's kernels and the device kernel in range.
    pub fn new(n: usize, f: Vec<i64>, d: Vec<i64>) -> Self {
        assert!(n >= 2, "need at least two facilities");
        assert_eq!(f.len(), n * n, "flow matrix must be n×n");
        assert_eq!(d.len(), n * n, "distance matrix must be n×n");
        if let Some(why) = refused_entries(n, &f, &d) {
            panic!("{why}");
        }
        Self { n, f, d }
    }

    /// Taillard-style uniform random instance: flows and distances
    /// uniform in `[0, 99]`, zero diagonals.
    pub fn random_uniform<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let gen = |rng: &mut R| {
            let mut m = vec![0i64; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        m[i * n + j] = rng.gen_range(0..=99);
                    }
                }
            }
            m
        };
        let f = gen(rng);
        let d = gen(rng);
        Self::new(n, f, d)
    }

    /// A symmetric instance (random symmetric `F`/`D`) — the variant
    /// Taillard's tabu search assumes for its O(1) delta-table update.
    pub fn random_symmetric<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let gen = |rng: &mut R| {
            let mut m = vec![0i64; n * n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = rng.gen_range(0..=99);
                    m[i * n + j] = v;
                    m[j * n + i] = v;
                }
            }
            m
        };
        let f = gen(rng);
        let d = gen(rng);
        Self::new(n, f, d)
    }

    /// Problem size `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Flow between facilities `i` and `j`.
    #[inline]
    pub fn flow(&self, i: usize, j: usize) -> i64 {
        self.f[i * self.n + j]
    }

    /// Distance between locations `a` and `b`.
    #[inline]
    pub fn dist(&self, a: usize, b: usize) -> i64 {
        self.d[a * self.n + b]
    }

    /// Raw row-major flow matrix (device upload).
    pub fn flows(&self) -> &[i64] {
        &self.f
    }

    /// Raw row-major distance matrix (device upload).
    pub fn dists(&self) -> &[i64] {
        &self.d
    }

    /// True if both matrices are symmetric.
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.flow(i, j) != self.flow(j, i) || self.dist(i, j) != self.dist(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Full objective: `Σ_{i,j} F[i][j] · D[p[i]][p[j]]`.
    pub fn cost(&self, p: &Permutation) -> i64 {
        assert_eq!(p.len(), self.n, "permutation length");
        let mut c = 0i64;
        for i in 0..self.n {
            for j in 0..self.n {
                c += self.flow(i, j) * self.dist(p.get(i), p.get(j));
            }
        }
        c
    }

    /// QAPLIB-style text serialization: `n`, blank line, `F` rows, blank
    /// line, `D` rows.
    pub fn save_to_string(&self) -> String {
        let mut s = format!("{}\n\n", self.n);
        let dump = |m: &[i64], s: &mut String| {
            for i in 0..self.n {
                let row: Vec<String> = (0..self.n).map(|j| m[i * self.n + j].to_string()).collect();
                s.push_str(&row.join(" "));
                s.push('\n');
            }
        };
        dump(&self.f, &mut s);
        s.push('\n');
        dump(&self.d, &mut s);
        s
    }

    /// Parse the text format produced by
    /// [`save_to_string`](Self::save_to_string) (whitespace-tolerant, as
    /// QAPLIB files are).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut nums = text
            .split_whitespace()
            .map(|t| t.parse::<i64>().map_err(|e| format!("bad token {t:?}: {e}")));
        let n = nums.next().ok_or("empty input")?? as usize;
        if n < 2 {
            return Err(format!("n = {n} too small"));
        }
        let mut take = |what: &str| -> Result<Vec<i64>, String> {
            let mut m = Vec::with_capacity(n * n);
            for k in 0..n * n {
                m.push(nums.next().ok_or(format!("{what} truncated at entry {k}"))??);
            }
            Ok(m)
        };
        let f = take("flow matrix")?;
        let d = take("distance matrix")?;
        if nums.next().is_some() {
            return Err("trailing tokens after matrices".to_string());
        }
        if let Some(why) = refused_entries(n, &f, &d) {
            return Err(why.to_string());
        }
        Ok(Self::new(n, f, d))
    }

    /// Exact optimum by exhaustive permutation enumeration — usable for
    /// `n ≤ 9`; cross-checks the searches.
    pub fn brute_force_optimum(&self) -> (i64, Permutation) {
        assert!(self.n <= 9, "brute force limited to n ≤ 9");
        let mut p: Vec<u32> = (0..self.n as u32).collect();
        let mut best_cost = i64::MAX;
        let mut best = p.clone();
        // Heap's algorithm, iterative.
        let mut c = vec![0usize; self.n];
        let eval = |perm: &[u32], inst: &Self| {
            let q = Permutation::from_vec(perm.to_vec());
            inst.cost(&q)
        };
        best_cost = best_cost.min(eval(&p, self));
        let mut i = 0;
        while i < self.n {
            if c[i] < i {
                if i % 2 == 0 {
                    p.swap(0, i);
                } else {
                    p.swap(c[i], i);
                }
                let cost = eval(&p, self);
                if cost < best_cost {
                    best_cost = cost;
                    best.copy_from_slice(&p);
                }
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        (best_cost, Permutation::from_vec(best))
    }
}

impl Persist for QapInstance {
    fn write(&self, out: &mut Vec<u8>) {
        self.n.write(out);
        self.f.write(out);
        self.d.write(out);
    }
    fn read(r: &mut lnls_core::Reader<'_>) -> Result<Self, lnls_core::PersistError> {
        let n: usize = r.read()?;
        let f: Vec<i64> = r.read()?;
        let d: Vec<i64> = r.read()?;
        if n < 2 || f.len() != n * n || d.len() != n * n {
            return Err(lnls_core::PersistError("malformed QAP instance".into()));
        }
        if let Some(why) = refused_entries(n, &f, &d) {
            return Err(lnls_core::PersistError(why.into()));
        }
        Ok(Self::new(n, f, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> QapInstance {
        // n=3 hand instance.
        QapInstance::new(3, vec![0, 2, 3, 2, 0, 1, 3, 1, 0], vec![0, 5, 1, 5, 0, 4, 1, 4, 0])
    }

    #[test]
    fn cost_hand_checked() {
        let inst = tiny();
        let id = Permutation::identity(3);
        // Σ F_ij D_ij = 2·(2·5 + 3·1 + 1·4) = 34
        assert_eq!(inst.cost(&id), 34);
        let p = Permutation::from_vec(vec![1, 0, 2]);
        // pairs: (0,1):F=2,D(1,0)=5→10 ; (0,2):F=3,D(1,2)=4→12 ; (1,2):F=1,D(0,2)=1→1
        // symmetric doubling → 2·23 = 46
        assert_eq!(inst.cost(&p), 46);
    }

    #[test]
    fn brute_force_finds_global() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = QapInstance::random_uniform(&mut rng, 6);
        let (opt, p) = inst.brute_force_optimum();
        assert_eq!(inst.cost(&p), opt);
        // every permutation costs at least opt (spot check a few)
        for _ in 0..20 {
            let q = Permutation::random(&mut rng, 6);
            assert!(inst.cost(&q) >= opt);
        }
    }

    #[test]
    fn text_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst = QapInstance::random_uniform(&mut rng, 7);
        let text = inst.save_to_string();
        let back = QapInstance::parse(&text).expect("parse");
        assert_eq!(back, inst);
    }

    #[test]
    fn parse_rejects_truncation() {
        let inst = tiny();
        let text = inst.save_to_string();
        let cut = &text[..text.len() - 4];
        assert!(QapInstance::parse(cut).is_err());
    }

    #[test]
    fn parse_rejects_trailing() {
        let mut text = tiny().save_to_string();
        text.push_str("\n42\n");
        assert!(QapInstance::parse(&text).is_err());
    }

    #[test]
    fn symmetric_generator_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = QapInstance::random_symmetric(&mut rng, 12);
        assert!(inst.is_symmetric());
        // uniform generator generally is not
        let inst2 = QapInstance::random_uniform(&mut rng, 12);
        let _ = inst2.is_symmetric(); // no assertion — just must not panic
    }

    #[test]
    #[should_panic(expected = "n×n")]
    fn wrong_size_rejected() {
        let _ = QapInstance::new(3, vec![0; 8], vec![0; 9]);
    }

    /// A 3×3 instance with every off-diagonal entry 2^40: its cost,
    /// 6·2^80, cannot be an `i64`.
    fn huge() -> (Vec<i64>, Vec<i64>) {
        let m: Vec<i64> = (0..9).map(|i| if i % 4 == 0 { 0 } else { 1 << 40 }).collect();
        (m.clone(), m)
    }

    #[test]
    #[should_panic(expected = "8·n²·max F·max D exceeds i64::MAX")]
    fn new_refuses_entries_whose_cost_overflows() {
        let (f, d) = huge();
        let _ = QapInstance::new(3, f, d);
    }

    #[test]
    fn parse_refuses_entries_whose_cost_overflows() {
        let (f, d) = huge();
        let row = |m: &[i64]| m.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
        let text = format!("3\n\n{}\n\n{}\n", row(&f), row(&d));
        let err = QapInstance::parse(&text).expect_err("2^40 entries must be refused");
        assert!(err.contains("i64::MAX"), "{err}");
        // The largest entries the bound admits at n = 3 still parse.
        let max = (i64::MAX / 72).isqrt();
        let ok = text.replace(&(1i64 << 40).to_string(), &max.to_string());
        assert!(QapInstance::parse(&ok).is_ok());
    }

    #[test]
    fn parse_refuses_a_negative_entry() {
        let text = tiny().save_to_string().replacen(" 2 ", " -2 ", 1);
        assert!(QapInstance::parse(&text).is_err());
    }

    #[test]
    fn persist_refuses_entries_whose_cost_overflows() {
        // Bytes a writer of an unchecked instance would produce.
        let (f, d) = huge();
        let mut bytes = Vec::new();
        3usize.write(&mut bytes);
        f.write(&mut bytes);
        d.write(&mut bytes);
        let err = QapInstance::read(&mut lnls_core::Reader::new(&bytes))
            .expect_err("2^40 entries must be refused");
        assert!(err.0.contains("i64::MAX"), "{}", err.0);
        // A round-trip of an admissible instance still decodes.
        let mut bytes = Vec::new();
        tiny().write(&mut bytes);
        assert_eq!(QapInstance::read(&mut lnls_core::Reader::new(&bytes)).unwrap(), tiny());
    }
}
