//! Shared-memory staged variant of the PPP evaluation kernel.
//!
//! The baseline kernel (Figs. 7/9/10) reads the base product vector `Y`
//! from global memory once per *thread* per row — `m` DRAM reads per
//! thread. Staging `Y` into per-block **shared memory** first (a
//! cooperative strided load, then a `__syncthreads` barrier — modeled
//! here as a kernel phase boundary) cuts that to `m` DRAM reads per
//! *block*, the canonical CUDA optimization the paper's §IV.C remark
//! about "covering the memory access latency" gestures at.
//!
//! The cost: `2·m` 32-bit words of shared memory per block, which on a
//! 16 KiB/SM GT200 throttles residency for large `m` — the ablation
//! (A8) exposes exactly this trade-off: a big win at small block
//! counts, shrinking (or reversing) when occupancy collapses.

use crate::kernels::PppEvalKernel;
use lnls_core::unrank_device;
use lnls_gpu_sim::{Kernel, ThreadCtx};

/// [`PppEvalKernel`] with `Y` staged in shared memory.
///
/// Launch with `LaunchConfig::with_shared_words(2 * m)` — the occupancy
/// calculator then accounts the residency cost honestly.
pub struct PppEvalKernelShared {
    /// The baseline kernel holding all buffers and base costs.
    pub inner: PppEvalKernel,
}

impl Kernel for PppEvalKernelShared {
    fn name(&self) -> &'static str {
        match self.inner.k {
            1 => "ppp_eval_1h_shared",
            2 => "ppp_eval_2h_shared",
            3 => "ppp_eval_3h_shared",
            _ => "ppp_eval_4h_shared",
        }
    }

    fn phases(&self) -> u32 {
        2 // stage, barrier, evaluate
    }

    fn profile_key(&self) -> u64 {
        self.inner.profile_key() ^ 0x5348 // "SH"
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, phase: u32) {
        let k = &self.inner;
        let id = ctx.id();
        let m = k.m as usize;
        if phase == 0 {
            // Cooperative strided staging: thread t of the block loads
            // rows t, t+bs, … . Consecutive threads hit consecutive
            // banks — conflict-free.
            let bs = id.block_dim as usize;
            let mut j = id.thread as usize;
            while ctx.branch(j < m) {
                let v = ctx.ld(&k.y, j);
                ctx.sh_st(j, v as u32 as u64);
                j += bs;
            }
            return;
        }

        // Phase 1: identical to the baseline evaluation, with Y reads
        // served from shared memory.
        let tid = id.global();
        if !ctx.branch(tid < k.msize) {
            return;
        }
        let (cols, kk) = unrank_device(ctx, k.k, k.n, k.base_index + tid);
        let n = k.n as usize;

        let bins = ctx.local_alloc(n + 1);
        for b in 0..=n {
            ctx.local_st(bins + b, 0);
        }

        let mut vmask = [0u32; 4];
        for t in 0..kk {
            let c = cols[t] as usize;
            let w = ctx.ld(&k.vbits, c / 32);
            ctx.alu(3);
            vmask[t] = if (w >> (c % 32)) & 1 == 1 { u32::MAX } else { 0 };
        }

        let base = -2 * kk as i32;
        let mut neg_d = 0i64;
        let wpc = k.wpc32 as usize;
        for w in 0..wpc {
            let mut xw = [0u32; 4];
            for t in 0..kk {
                let aw = ctx.ld(&k.a_cols, cols[t] as usize * wpc + w);
                ctx.alu(2);
                xw[t] = aw ^ vmask[t];
            }
            let lo = w * 32;
            let hi = m.min(lo + 32);
            for j in lo..hi {
                let r = (j - lo) as u32;
                let mut set = 0i32;
                for x in xw.iter().take(kk) {
                    set += ((x >> r) & 1) as i32;
                }
                let dy = 4 * set + base;
                ctx.alu(3 + kk as u32);
                if !ctx.branch(dy != 0) {
                    continue;
                }
                let old = ctx.sh_ld(j) as u32 as i32;
                let new = old + dy;
                ctx.alu(4);
                if old < 0 {
                    neg_d -= (-2 * old) as i64;
                }
                if new < 0 {
                    neg_d += (-2 * new) as i64;
                }
                if ctx.branch(old >= 0) {
                    let d = ctx.local_ld(bins + old as usize);
                    ctx.local_st(bins + old as usize, d - 1);
                }
                if ctx.branch(new >= 0) {
                    let d = ctx.local_ld(bins + new as usize);
                    ctx.local_st(bins + new as usize, d + 1);
                }
            }
        }

        let mut hist_d = 0i64;
        for b in 0..=n {
            let d = ctx.local_ld(bins + b);
            if !ctx.branch(d != 0) {
                continue;
            }
            let h = ctx.ld(&k.hist_target, b) as i64;
            let hp = ctx.ld(&k.hist_cur, b) as i64;
            ctx.alu(6);
            hist_d += (h - (hp + d as i64)).abs() - (h - hp).abs();
        }

        let fitness = 30 * (k.neg_base + neg_d) + (k.hist_base + hist_d);
        ctx.alu(3);
        ctx.st(&k.out, tid as usize, fitness as i32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PppInstance;
    use crate::state::Ppp;
    use lnls_core::{BinaryProblem, BitString, IncrementalEval};
    use lnls_gpu_sim::{Device, DeviceSpec, ExecMode, LaunchConfig, MemSpace};
    use lnls_neighborhood::{KHamming, Neighborhood};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(
        m: usize,
        n: usize,
        k: usize,
        dev: &mut Device,
        s: &BitString,
    ) -> (PppEvalKernel, u64) {
        let inst = PppInstance::generate(m, n, 77);
        let p = Ppp::new(inst);
        let state = p.init_state(s);
        let hood = KHamming::new(n, k);
        let msize = hood.size();
        let wpc32 = (p.inst.a.words_per_col() * 2) as u32;
        let a_cols = dev.upload_new(&p.inst.a.cols_as_u32(), MemSpace::Texture, "a");
        let vbits: Vec<u32> =
            s.words().iter().flat_map(|&w| [w as u32, (w >> 32) as u32]).collect();
        let vbits = dev.upload_new(&vbits, MemSpace::Global, "v");
        let y = dev.upload_new(&state.y, MemSpace::Global, "y");
        let hist_target = dev.upload_new(&p.inst.target_hist, MemSpace::Texture, "ht");
        let hist_cur = dev.upload_new(&state.hist, MemSpace::Global, "hc");
        let out = dev.alloc_zeroed::<i32>(msize as usize, MemSpace::Global, "f");
        (
            PppEvalKernel {
                k: k as u8,
                n: n as u32,
                m: m as u32,
                msize,
                base_index: 0,
                wpc32,
                a_cols,
                vbits,
                y,
                hist_target,
                hist_cur,
                out,
                neg_base: state.neg_cost,
                hist_base: state.hist_cost,
            },
            msize,
        )
    }

    #[test]
    fn shared_variant_matches_baseline_values() {
        for (m, n, k) in [(21usize, 21usize, 1usize), (33, 21, 2), (17, 15, 3), (70, 37, 2)] {
            let mut rng = StdRng::seed_from_u64(8);
            let s = BitString::random(&mut rng, n);
            let mut dev = Device::new(DeviceSpec::gtx280());
            let (inner, msize) = build(m, n, k, &mut dev, &s);
            let out = inner.out.clone();
            let kernel = PppEvalKernelShared { inner };
            let cfg = LaunchConfig::cover_1d(msize, 64).with_shared_words(2 * m as u32);
            let rep = dev.launch(&kernel, cfg, ExecMode::Trace);
            assert!(rep.races.is_empty(), "{:?}", rep.races);

            // Compare against the full host evaluation.
            let inst = PppInstance::generate(m, n, 77);
            let p = Ppp::new(inst);
            let hood = KHamming::new(n, k);
            let got = dev.download(&out);
            for (idx, mv) in hood.moves() {
                let mut s2 = s.clone();
                s2.apply(&mv);
                assert_eq!(
                    got[idx as usize] as i64,
                    p.evaluate(&s2),
                    "m={m} n={n} k={k} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn shared_variant_cuts_global_y_traffic() {
        let (m, n, k) = (64usize, 33usize, 2usize);
        let mut rng = StdRng::seed_from_u64(9);
        let s = BitString::random(&mut rng, n);

        let mut dev = Device::new(DeviceSpec::gtx280());
        let (base_kernel, msize) = build(m, n, k, &mut dev, &s);
        let rep_base = dev.launch(&base_kernel, LaunchConfig::cover_1d(msize, 64), ExecMode::Auto);

        let mut dev2 = Device::new(DeviceSpec::gtx280());
        let (inner, _) = build(m, n, k, &mut dev2, &s);
        let shared_kernel = PppEvalKernelShared { inner };
        let cfg = LaunchConfig::cover_1d(msize, 64).with_shared_words(2 * m as u32);
        let rep_shared = dev2.launch(&shared_kernel, cfg, ExecMode::Auto);

        let base_glb = rep_base.counters.per_thread_avg.ld_global;
        let shared_glb = rep_shared.counters.per_thread_avg.ld_global;
        assert!(
            shared_glb < base_glb * 0.5,
            "staging should halve global loads at least: {shared_glb} vs {base_glb}"
        );
        assert!(rep_shared.counters.per_thread_avg.shared > 0.0, "shared accesses must be charged");
    }

    #[test]
    fn shared_request_throttles_occupancy() {
        // A 1501-row instance needs 3002 words/block: at 16 KiB (4096
        // words) per SM only one block fits, vs several for the
        // baseline. The occupancy calculator must report that.
        use lnls_gpu_sim::occupancy;
        let spec = DeviceSpec::gtx280();
        let base = occupancy(&spec, &LaunchConfig::cover_1d(10_000, 128));
        let staged =
            occupancy(&spec, &LaunchConfig::cover_1d(10_000, 128).with_shared_words(2 * 1501));
        assert!(staged.blocks_per_sm < base.blocks_per_sm);
        assert_eq!(staged.blocks_per_sm, 1);
    }
}
