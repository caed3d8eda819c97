//! GPU neighbor-evaluation kernels for the bundled problems.
//!
//! The paper's `MoveIncrEvalKernel` pattern (Figs. 7/9/10) is problem-
//! agnostic: decode the thread id into a move with the §III mappings,
//! evaluate the neighbor incrementally against base state uploaded by
//! the host, store the fitness at the move index. This module instances
//! the pattern for [`OneMax`](crate::OneMax), [`Qubo`] and
//! [`MaxCut`](crate::MaxCut), demonstrating
//! that the mappings + simulator substrate generalize beyond the PPP —
//! exactly the "for binary problems" claim of §II.
//!
//! [`QuboGpuExplorer`] wires the QUBO kernel into the
//! [`lnls_core::Explorer`] trait so every search driver can
//! run QUBO neighborhoods on the simulated device; the consistency
//! tests check bit-exact agreement with the sequential explorer.

use crate::qubo::Qubo;
use lnls_core::{unrank_device, BitString, Explorer, IncrementalEval};
use lnls_gpu_sim::{
    Device, DeviceBuffer, DeviceSpec, ExecMode, Kernel, LaunchConfig, MemSpace, ThreadCtx, TimeBook,
};
use lnls_neighborhood::{FlipMove, KHamming, Neighborhood};
use std::time::{Duration, Instant};

/// Pack a [`BitString`] into the u32 words the kernels read.
pub fn pack_bits(s: &BitString) -> Vec<u32> {
    s.words().iter().flat_map(|&w| [w as u32, (w >> 32) as u32]).collect()
}

#[inline]
fn bit_of<C: ThreadCtx>(ctx: &mut C, vbits: &DeviceBuffer<u32>, c: usize) -> bool {
    let w = ctx.ld(vbits, c / 32);
    ctx.alu(3);
    (w >> (c % 32)) & 1 == 1
}

// ---------------------------------------------------------------------
// OneMax
// ---------------------------------------------------------------------

/// Neighbor evaluation for [`OneMax`](crate::OneMax): `Δf = ±1` per
/// flipped bit.
pub struct OneMaxEvalKernel {
    /// Hamming distance of the neighborhood (1..=4).
    pub k: u8,
    /// Solution length.
    pub n: u32,
    /// Moves evaluated by this launch.
    pub msize: u64,
    /// Packed current solution.
    pub vbits: DeviceBuffer<u32>,
    /// Fitness of the current solution.
    pub fit_base: i64,
    /// Output fitness per move index.
    pub out: DeviceBuffer<i64>,
}

impl Kernel for OneMaxEvalKernel {
    fn name(&self) -> &'static str {
        "onemax_eval"
    }

    fn profile_key(&self) -> u64 {
        ((self.k as u64) << 32) ^ self.n as u64
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
        let tid = ctx.id().global();
        if !ctx.branch(tid < self.msize) {
            return;
        }
        let (cols, k) = unrank_device(ctx, self.k, self.n, tid);
        let mut f = self.fit_base;
        for &c in cols.iter().take(k) {
            // flipping a 1 adds a zero (+1), flipping a 0 removes one (−1)
            ctx.alu(2);
            f += if bit_of(ctx, &self.vbits, c as usize) { 1 } else { -1 };
        }
        ctx.st(&self.out, tid as usize, f);
    }
}

// ---------------------------------------------------------------------
// QUBO
// ---------------------------------------------------------------------

/// Neighbor evaluation for [`Qubo`]: the O(k²) sequential-flip delta of
/// the CPU path, with `Q` in texture memory (read-only, shared by all
/// threads — the ε-matrix placement of the paper) and the row sums `r`
/// in global memory, re-uploaded per iteration.
pub struct QuboEvalKernel {
    /// Hamming distance of the neighborhood (1..=4).
    pub k: u8,
    /// Solution length.
    pub n: u32,
    /// Moves evaluated by this launch.
    pub msize: u64,
    /// Row-major `n×n` matrix (texture).
    pub q: DeviceBuffer<i64>,
    /// Packed current solution.
    pub vbits: DeviceBuffer<u32>,
    /// Off-diagonal row sums of the current solution.
    pub r: DeviceBuffer<i64>,
    /// Fitness of the current solution.
    pub fit_base: i64,
    /// Output fitness per move index.
    pub out: DeviceBuffer<i64>,
}

impl Kernel for QuboEvalKernel {
    fn name(&self) -> &'static str {
        "qubo_eval"
    }

    fn profile_key(&self) -> u64 {
        0x5155424f ^ ((self.k as u64) << 32) ^ self.n as u64 // "QUBO"
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
        let tid = ctx.id().global();
        if !ctx.branch(tid < self.msize) {
            return;
        }
        let (cols, k) = unrank_device(ctx, self.k, self.n, tid);
        let n = self.n as usize;
        let mut f = self.fit_base;
        let mut flipped = [false; 4];
        for t in 0..k {
            let i = cols[t] as usize;
            let xi = bit_of(ctx, &self.vbits, i) ^ flipped[t];
            let mut ri = ctx.ld(&self.r, i);
            for (u, &cu) in cols.iter().enumerate().take(k) {
                if u != t && flipped[u] {
                    let j = cu as usize;
                    let qij = ctx.ld(&self.q, i * n + j);
                    ctx.alu(3);
                    ri += if bit_of(ctx, &self.vbits, j) { -qij } else { qij };
                }
            }
            let qii = ctx.ld(&self.q, i * n + i);
            ctx.alu(4);
            let sign = if xi { -1 } else { 1 };
            f += sign * (qii + 2 * ri);
            flipped[t] = true;
        }
        ctx.st(&self.out, tid as usize, f);
    }
}

// ---------------------------------------------------------------------
// Max-Cut
// ---------------------------------------------------------------------

/// Neighbor evaluation for [`MaxCut`](crate::MaxCut): per-vertex gain
/// sums plus the
/// pair correction for edges inside the flipped set, read from a CSR
/// graph in texture memory.
pub struct MaxCutEvalKernel {
    /// Hamming distance of the neighborhood (1..=4).
    pub k: u8,
    /// Vertex count.
    pub n: u32,
    /// Moves evaluated by this launch.
    pub msize: u64,
    /// CSR row offsets (`n+1`, texture).
    pub offsets: DeviceBuffer<u32>,
    /// CSR neighbor ids (texture).
    pub nbr: DeviceBuffer<u32>,
    /// CSR edge weights (texture).
    pub wgt: DeviceBuffer<i64>,
    /// Packed current partition.
    pub vbits: DeviceBuffer<u32>,
    /// Per-vertex crossing-weight sums of the current partition.
    pub cross: DeviceBuffer<i64>,
    /// Per-vertex same-side-weight sums of the current partition.
    pub same: DeviceBuffer<i64>,
    /// Fitness (= −cut) of the current partition.
    pub fit_base: i64,
    /// Output fitness per move index.
    pub out: DeviceBuffer<i64>,
}

impl Kernel for MaxCutEvalKernel {
    fn name(&self) -> &'static str {
        "maxcut_eval"
    }

    fn profile_key(&self) -> u64 {
        0x4d43 ^ ((self.k as u64) << 32) ^ self.n as u64
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
        let tid = ctx.id().global();
        if !ctx.branch(tid < self.msize) {
            return;
        }
        let (cols, k) = unrank_device(ctx, self.k, self.n, tid);
        let mut delta = 0i64;
        for &c in cols.iter().take(k) {
            let v = c as usize;
            let cr = ctx.ld(&self.cross, v);
            let sa = ctx.ld(&self.same, v);
            ctx.alu(2);
            delta += cr - sa;
        }
        // Pair corrections: edges with both endpoints flipped keep their
        // side relation; undo the double toggle.
        for t in 0..k {
            let u = cols[t] as usize;
            let lo = ctx.ld(&self.offsets, u) as usize;
            let hi = ctx.ld(&self.offsets, u + 1) as usize;
            for other in cols.iter().take(k).skip(t + 1) {
                let v = *other;
                for e in lo..hi {
                    let nb = ctx.ld(&self.nbr, e);
                    ctx.alu(1);
                    if !ctx.branch(nb == v) {
                        continue;
                    }
                    let w = ctx.ld(&self.wgt, e);
                    let su = bit_of(ctx, &self.vbits, u);
                    let sv = bit_of(ctx, &self.vbits, v as usize);
                    ctx.alu(3);
                    delta += if su != sv { -2 * w } else { 2 * w };
                }
            }
        }
        ctx.st(&self.out, tid as usize, self.fit_base + delta);
    }
}

// ---------------------------------------------------------------------
// QUBO explorer
// ---------------------------------------------------------------------

/// GPU-backed [`Explorer`] for [`Qubo`]: the matrix stays resident in
/// texture memory; each iteration uploads the packed solution and row
/// sums, launches [`QuboEvalKernel`] with one thread per neighbor, and
/// reads the fitness array back — the paper's iteration structure.
pub struct QuboGpuExplorer {
    k: usize,
    n: usize,
    msize: u64,
    hood: KHamming,
    dev: Device,
    q: DeviceBuffer<i64>,
    vbits: DeviceBuffer<u32>,
    r: DeviceBuffer<i64>,
    out: DeviceBuffer<i64>,
    block_size: u32,
    mode: ExecMode,
    wall: Duration,
}

impl QuboGpuExplorer {
    /// Build for `problem` and the `k`-Hamming neighborhood on the
    /// given device spec.
    pub fn new(problem: &Qubo, k: usize, spec: DeviceSpec) -> Self {
        use lnls_core::BinaryProblem;
        let n = problem.dim();
        let hood = KHamming::new(n, k);
        let msize = hood.size();
        let mut dev = Device::new(spec);
        let q = dev.upload_new(problem.matrix(), MemSpace::Texture, "qubo_q");
        // pack_bits emits two u32 words per 64-bit BitString word.
        let vbits =
            dev.alloc_zeroed::<u32>(n.div_ceil(64).max(1) * 2, MemSpace::Global, "qubo_vbits");
        let r = dev.alloc_zeroed::<i64>(n, MemSpace::Global, "qubo_r");
        let out = dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "qubo_out");
        Self {
            k,
            n,
            msize,
            hood,
            dev,
            q,
            vbits,
            r,
            out,
            block_size: 128,
            mode: ExecMode::Auto,
            wall: Duration::ZERO,
        }
    }

    /// The simulated device (counters, ledgers).
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

impl Explorer<Qubo> for QuboGpuExplorer {
    fn size(&self) -> u64 {
        self.msize
    }

    fn k(&self) -> usize {
        self.k
    }

    fn unrank(&self, index: u64) -> FlipMove {
        self.hood.unrank(index)
    }

    fn for_each_move(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, FlipMove) -> bool) {
        self.hood.for_each_move_in(lo, hi, f);
    }

    fn explore(
        &mut self,
        problem: &Qubo,
        s: &BitString,
        state: &mut <Qubo as IncrementalEval>::State,
        out: &mut Vec<i64>,
    ) {
        let t0 = Instant::now();
        self.dev.upload(&self.vbits, &pack_bits(s));
        self.dev.upload(&self.r, state.row_sums());
        let kernel = QuboEvalKernel {
            k: self.k as u8,
            n: self.n as u32,
            msize: self.msize,
            q: self.q.clone(),
            vbits: self.vbits.clone(),
            r: self.r.clone(),
            fit_base: problem.state_fitness(state),
            out: self.out.clone(),
        };
        self.dev.launch(&kernel, LaunchConfig::cover_1d(self.msize, self.block_size), self.mode);
        self.dev.download_into(&self.out, out);
        self.wall += t0.elapsed();
    }

    fn book(&self) -> Option<TimeBook> {
        Some(self.dev.book().clone())
    }

    fn wall(&self) -> Duration {
        self.wall
    }

    fn backend(&self) -> String {
        format!("gpu-sim/qubo-{}h", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use crate::onemax::OneMax;
    use lnls_core::BinaryProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device() -> Device {
        Device::new(DeviceSpec::gtx280())
    }

    #[test]
    fn onemax_kernel_matches_full_eval() {
        let n = 23;
        let p = OneMax::new(n);
        let mut rng = StdRng::seed_from_u64(1);
        let s = BitString::random(&mut rng, n);
        for k in 1..=4usize {
            let hood = KHamming::new(n, k);
            let msize = hood.size();
            let mut dev = device();
            let vbits = dev.upload_new(&pack_bits(&s), MemSpace::Global, "v");
            let out = dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "f");
            let kernel = OneMaxEvalKernel {
                k: k as u8,
                n: n as u32,
                msize,
                vbits,
                fit_base: p.evaluate(&s),
                out: out.clone(),
            };
            let rep = dev.launch(&kernel, LaunchConfig::cover_1d(msize, 64), ExecMode::Trace);
            assert!(rep.races.is_empty());
            let got = dev.download(&out);
            for (idx, mv) in hood.moves() {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(got[idx as usize], p.evaluate(&s2), "k={k} idx={idx}");
            }
        }
    }

    #[test]
    fn qubo_kernel_matches_full_eval() {
        let n = 17;
        let mut rng = StdRng::seed_from_u64(2);
        let p = Qubo::random(&mut rng, n, 9, 0.6);
        let s = BitString::random(&mut rng, n);
        let st = p.init_state(&s);
        for k in 1..=3usize {
            let hood = KHamming::new(n, k);
            let msize = hood.size();
            let mut dev = device();
            let q = dev.upload_new(p.matrix(), MemSpace::Texture, "q");
            let vbits = dev.upload_new(&pack_bits(&s), MemSpace::Global, "v");
            let r = dev.upload_new(st.row_sums(), MemSpace::Global, "r");
            let out = dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "f");
            let kernel = QuboEvalKernel {
                k: k as u8,
                n: n as u32,
                msize,
                q,
                vbits,
                r,
                fit_base: st.fitness(),
                out: out.clone(),
            };
            let rep = dev.launch(&kernel, LaunchConfig::cover_1d(msize, 64), ExecMode::Trace);
            assert!(rep.races.is_empty());
            let got = dev.download(&out);
            for (idx, mv) in hood.moves() {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(got[idx as usize], p.evaluate(&s2), "k={k} idx={idx}");
            }
        }
    }

    #[test]
    fn maxcut_kernel_matches_full_eval() {
        let n = 15;
        let mut rng = StdRng::seed_from_u64(3);
        let p = MaxCut::random(&mut rng, n, 0.5, 7);
        let s = BitString::random(&mut rng, n);
        let st = p.init_state(&s);
        let (offsets, nbr, wgt) = p.to_csr();
        for k in 1..=3usize {
            let hood = KHamming::new(n, k);
            let msize = hood.size();
            let mut dev = device();
            let offsets = dev.upload_new(&offsets, MemSpace::Texture, "off");
            let nbr_b = dev.upload_new(&nbr, MemSpace::Texture, "nbr");
            let wgt_b = dev.upload_new(&wgt, MemSpace::Texture, "wgt");
            let vbits = dev.upload_new(&pack_bits(&s), MemSpace::Global, "v");
            let cross = dev.upload_new(st.cross(), MemSpace::Global, "cross");
            let same = dev.upload_new(st.same(), MemSpace::Global, "same");
            let out = dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "f");
            let kernel = MaxCutEvalKernel {
                k: k as u8,
                n: n as u32,
                msize,
                offsets,
                nbr: nbr_b,
                wgt: wgt_b,
                vbits,
                cross,
                same,
                fit_base: st.fitness(),
                out: out.clone(),
            };
            let rep = dev.launch(&kernel, LaunchConfig::cover_1d(msize, 64), ExecMode::Trace);
            assert!(rep.races.is_empty());
            let got = dev.download(&out);
            for (idx, mv) in hood.moves() {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(got[idx as usize], p.evaluate(&s2), "k={k} idx={idx}");
            }
        }
    }

    #[test]
    fn qubo_gpu_explorer_matches_sequential() {
        use lnls_core::SequentialExplorer;
        let n = 19;
        let mut rng = StdRng::seed_from_u64(4);
        let p = Qubo::random(&mut rng, n, 8, 0.5);
        let s = BitString::random(&mut rng, n);
        for k in 1..=3usize {
            let mut st = p.init_state(&s);
            let mut gpu = QuboGpuExplorer::new(&p, k, DeviceSpec::gtx280());
            let mut seq = SequentialExplorer::new(KHamming::new(n, k));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            gpu.explore(&p, &s, &mut st, &mut a);
            Explorer::<Qubo>::explore(&mut seq, &p, &s, &mut st, &mut b);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn qubo_tabu_run_identical_on_gpu_and_cpu() {
        use lnls_core::{SearchConfig, SequentialExplorer, TabuSearch};
        let n = 14;
        let mut rng = StdRng::seed_from_u64(5);
        let p = Qubo::random(&mut rng, n, 7, 0.6);
        let init = BitString::random(&mut rng, n);
        let hood = KHamming::new(n, 2);

        let search = TabuSearch::paper(SearchConfig::budget(60).with_target(None), hood.size());
        let mut seq = SequentialExplorer::new(hood);
        let r_cpu = search.run(&p, &mut seq, init.clone());

        let mut gpu = QuboGpuExplorer::new(&p, 2, DeviceSpec::gtx280());
        let r_gpu = search.run(&p, &mut gpu, init);

        assert_eq!(r_cpu.best_fitness, r_gpu.best_fitness);
        assert_eq!(r_cpu.iterations, r_gpu.iterations);
        assert_eq!(r_cpu.best, r_gpu.best);
        // The GPU path must have priced its work.
        assert!(r_gpu.book.expect("time book").launches >= 60);
    }

    #[test]
    fn gpu_explorer_prices_transfers_and_kernels() {
        let n = 16;
        let mut rng = StdRng::seed_from_u64(6);
        let p = Qubo::random(&mut rng, n, 5, 0.5);
        let s = BitString::random(&mut rng, n);
        let mut st = p.init_state(&s);
        let mut gpu = QuboGpuExplorer::new(&p, 2, DeviceSpec::gtx280());
        let mut out = Vec::new();
        gpu.explore(&p, &s, &mut st, &mut out);
        let book = Explorer::<Qubo>::book(&gpu).unwrap();
        assert_eq!(book.launches, 1);
        assert!(book.bytes_h2d > 0, "solution upload must be accounted");
        assert!(book.bytes_d2h >= (out.len() * 8) as u64, "fitness readback");
        assert!(book.kernel_s > 0.0);
    }
}
