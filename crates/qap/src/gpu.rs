//! The QAP swap-neighborhood kernel on the simulated GPU.
//!
//! One thread per swap (`C(n,2)` threads), exactly the paper's
//! `MoveIncrEvalKernel` pattern: the thread id is decoded into the swap
//! `(r,s)` with the one-to-two transformation of Appendix B (the same
//! `sqrtf` mapping as Fig. 9 — swaps and 2-Hamming moves share the
//! triangular index space), then the O(n) delta formula is evaluated
//! against device-resident `F`/`D` (texture) and the current assignment
//! (global, re-uploaded per iteration).
//!
//! [`GpuSwapEvaluator`] plugs the kernel into
//! [`RobustTabu`](crate::rts::RobustTabu) via the
//! [`crate::rts::SwapEvaluator`] trait, giving the full
//! GPU-resident search loop of the paper on the QAP.

use crate::instance::QapInstance;
use crate::permutation::Permutation;
use crate::rts::SwapEvaluator;
use lnls_gpu_sim::{
    Device, DeviceBuffer, DeviceSpec, ExecMode, Kernel, LaunchConfig, MemSpace, ThreadCtx, TimeBook,
};
use lnls_neighborhood::mapping2d::{size2, unrank2};

/// Swap-delta kernel: `out[idx] = Δcost of swap unrank2(idx)`.
pub struct QapSwapKernel {
    /// Problem size.
    pub n: u32,
    /// Swaps evaluated by this launch (`C(n,2)` for a full scan).
    pub msize: u64,
    /// Row-major flows (texture).
    pub f: DeviceBuffer<i64>,
    /// Row-major distances (texture).
    pub d: DeviceBuffer<i64>,
    /// Current assignment `p` (global).
    pub p: DeviceBuffer<u32>,
    /// Output delta per flat swap index.
    pub out: DeviceBuffer<i64>,
}

impl Kernel for QapSwapKernel {
    fn name(&self) -> &'static str {
        "qap_swap_eval"
    }

    fn profile_key(&self) -> u64 {
        0x514150 ^ self.n as u64 // "QAP"
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
        let tid = ctx.id().global();
        if !ctx.branch(tid < self.msize) {
            return;
        }
        ctx.sfu(1); // sqrtf of the Appendix B unranking
        ctx.alu(10);
        let (r, s) = unrank2(self.n as u64, tid);
        let (r, s) = (r as usize, s as usize);
        let n = self.n as usize;

        let pr = ctx.ld(&self.p, r) as usize;
        let ps = ctx.ld(&self.p, s) as usize;

        let frr = ctx.ld(&self.f, r * n + r);
        let fss = ctx.ld(&self.f, s * n + s);
        let frs = ctx.ld(&self.f, r * n + s);
        let fsr = ctx.ld(&self.f, s * n + r);
        let dpp = ctx.ld(&self.d, pr * n + pr);
        let dss = ctx.ld(&self.d, ps * n + ps);
        let dps = ctx.ld(&self.d, pr * n + ps);
        let dsp = ctx.ld(&self.d, ps * n + pr);
        ctx.alu(12);
        let mut delta =
            frr * (dss - dpp) + frs * (dsp - dps) + fsr * (dps - dsp) + fss * (dpp - dss);

        for k in 0..n {
            if !ctx.branch(k != r && k != s) {
                continue;
            }
            let pk = ctx.ld(&self.p, k) as usize;
            let fkr = ctx.ld(&self.f, k * n + r);
            let fks = ctx.ld(&self.f, k * n + s);
            let frk = ctx.ld(&self.f, r * n + k);
            let fsk = ctx.ld(&self.f, s * n + k);
            let dkp = ctx.ld(&self.d, pk * n + pr);
            let dks = ctx.ld(&self.d, pk * n + ps);
            let dpk = ctx.ld(&self.d, pr * n + pk);
            let dsk = ctx.ld(&self.d, ps * n + pk);
            ctx.alu(12);
            delta += fkr * (dks - dkp) + fks * (dkp - dks) + frk * (dsk - dpk) + fsk * (dpk - dsk);
        }
        ctx.st(&self.out, tid as usize, delta);
    }
}

/// GPU-backed [`SwapEvaluator`]: `F`/`D` resident in texture memory,
/// the assignment re-uploaded each iteration, deltas computed on the
/// device and read back — the paper's iteration structure on the QAP.
pub struct GpuSwapEvaluator {
    n: usize,
    msize: u64,
    dev: Device,
    f: DeviceBuffer<i64>,
    d: DeviceBuffer<i64>,
    p: DeviceBuffer<u32>,
    out: DeviceBuffer<i64>,
    block_size: u32,
    scratch: Vec<i64>,
}

impl GpuSwapEvaluator {
    /// Build for `inst` on the given device spec.
    pub fn new(inst: &QapInstance, spec: DeviceSpec) -> Self {
        let n = inst.size();
        let msize = size2(n as u64);
        let mut dev = Device::new(spec);
        let f = dev.upload_new(inst.flows(), MemSpace::Texture, "qap_f");
        let d = dev.upload_new(inst.dists(), MemSpace::Texture, "qap_d");
        let p = dev.alloc_zeroed::<u32>(n, MemSpace::Global, "qap_p");
        let out = dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "qap_out");
        Self { n, msize, dev, f, d, p, out, block_size: 128, scratch: Vec::new() }
    }

    /// The simulated device (ledger access).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Threads per block for the scan kernel (ablations).
    pub fn set_block_size(&mut self, bs: u32) {
        self.block_size = bs.max(1);
    }
}

impl SwapEvaluator for GpuSwapEvaluator {
    fn deltas(&mut self, _inst: &QapInstance, p: &Permutation) -> &[i64] {
        self.dev.upload(&self.p, p.as_slice());
        let kernel = QapSwapKernel {
            n: self.n as u32,
            msize: self.msize,
            f: self.f.clone(),
            d: self.d.clone(),
            p: self.p.clone(),
            out: self.out.clone(),
        };
        self.dev.launch(
            &kernel,
            LaunchConfig::cover_1d(self.msize, self.block_size),
            ExecMode::Auto,
        );
        self.dev.download_into(&self.out, &mut self.scratch);
        &self.scratch
    }

    fn committed(&mut self, _: &QapInstance, _: &Permutation, _: usize, _: usize) {
        // Stateless between launches: the next `deltas` call re-uploads
        // the permutation, exactly like the paper's per-iteration V
        // upload.
    }

    fn book(&self) -> Option<TimeBook> {
        Some(self.dev.book().clone())
    }

    fn backend(&self) -> String {
        "gpu-sim/qap-swap".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::swap_delta;
    use crate::rts::{RobustTabu, RtsConfig, TableEvaluator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_matches_host_deltas() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = QapInstance::random_uniform(&mut rng, 13);
        let p = Permutation::random(&mut rng, 13);
        let mut gpu = GpuSwapEvaluator::new(&inst, DeviceSpec::gtx280());
        let got = gpu.deltas(&inst, &p).to_vec();
        for (idx, &g) in got.iter().enumerate() {
            let (r, s) = unrank2(13, idx as u64);
            assert_eq!(g, swap_delta(&inst, &p, r as usize, s as usize), "idx={idx}");
        }
    }

    #[test]
    fn kernel_is_race_free() {
        let mut rng = StdRng::seed_from_u64(2);
        let inst = QapInstance::random_uniform(&mut rng, 9);
        let p = Permutation::random(&mut rng, 9);
        let mut dev = Device::new(DeviceSpec::gtx280());
        let f = dev.upload_new(inst.flows(), MemSpace::Texture, "f");
        let d = dev.upload_new(inst.dists(), MemSpace::Texture, "d");
        let pb = dev.upload_new(p.as_slice(), MemSpace::Global, "p");
        let msize = size2(9);
        let out = dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "out");
        let k = QapSwapKernel { n: 9, msize, f, d, p: pb, out };
        let rep = dev.launch(&k, LaunchConfig::cover_1d(msize, 32), ExecMode::Trace);
        assert!(rep.races.is_empty(), "{:?}", rep.races);
    }

    #[test]
    fn gpu_rts_matches_cpu_rts() {
        let mut rng = StdRng::seed_from_u64(3);
        let rts = RobustTabu::new(RtsConfig::budget(80).with_seed(4));
        let check = |inst: QapInstance, rng: &mut StdRng| {
            let init = Permutation::random(rng, inst.size());
            let cpu = rts.run(&inst, &mut TableEvaluator::new(), init.clone());
            let mut gpu_eval = GpuSwapEvaluator::new(&inst, DeviceSpec::gtx280());
            let gpu = rts.run(&inst, &mut gpu_eval, init);
            assert_eq!(cpu.best_cost, gpu.best_cost);
            assert_eq!(cpu.best, gpu.best);
            assert_eq!(cpu.iterations, gpu.iterations);
            // The GPU run must have priced its launches.
            let book = gpu.book.expect("time book");
            assert_eq!(book.launches, 80);
            assert!(book.bytes_h2d > 0 && book.bytes_d2h > 0);
        };
        let symmetric = QapInstance::random_symmetric(&mut rng, 10);
        check(symmetric, &mut rng);
        let asymmetric = QapInstance::random_uniform(&mut rng, 12);
        assert!(!asymmetric.is_symmetric());
        check(asymmetric, &mut rng);
    }

    #[test]
    fn gpu_speedup_grows_with_n() {
        // The paper's Fig. 8 shape on the QAP: modeled speedup at n=60
        // must exceed n=15 (more threads, better occupancy).
        let mut rng = StdRng::seed_from_u64(5);
        let ratio = |n: usize, rng: &mut StdRng| {
            let inst = QapInstance::random_uniform(rng, n);
            let p = Permutation::random(rng, n);
            let mut gpu = GpuSwapEvaluator::new(&inst, DeviceSpec::gtx280());
            let _ = gpu.deltas(&inst, &p);
            let book = SwapEvaluator::book(&gpu).unwrap();
            book.host_s / book.gpu_total_s()
        };
        let small = ratio(15, &mut rng);
        let large = ratio(60, &mut rng);
        assert!(large > small, "speedup must grow: n=15 ×{small}, n=60 ×{large}");
    }
}
