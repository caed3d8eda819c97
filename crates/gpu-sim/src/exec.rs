//! Thread contexts and block execution.
//!
//! Two [`ThreadCtx`] implementations drive every kernel:
//!
//! * `FastCtx` — all accounting methods are no-ops that the optimizer
//!   erases; memory ops are relaxed atomic loads/stores.
//! * `TraceCtx` — records instruction counts, the device-memory address
//!   trace (for coalescing analysis) and feeds the race detector.
//!
//! Blocks are the unit of parallelism: a block's threads run sequentially
//! on one host worker, phase by phase — precisely the visibility CUDA
//! guarantees (nothing within a phase, everything across a barrier).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counting::{AccessRec, ThreadTrace};
use crate::dim::LaunchConfig;
use crate::kernel::{Kernel, ThreadCtx, ThreadId};
use crate::memory::{DeviceBuffer, DeviceWord, MemSpace};
use crate::race::RaceTracker;

/// How a launch is executed and profiled.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Profile sampled blocks if this kernel/config has no cached profile,
    /// then run the rest of the grid fast. The default.
    #[default]
    Auto,
    /// Never profile; reuse a cached profile if one exists (timing falls
    /// back to zero counters otherwise).
    Fast,
    /// Profile *every* block with race detection; slow, for tests and
    /// small launches.
    Trace,
}

/// Per-block shared memory (64-bit cells; `LaunchConfig::shared_words`
/// counts 32-bit words for occupancy, rounded up here).
pub(crate) struct SharedMem {
    cells: Vec<AtomicU64>,
}

impl SharedMem {
    pub(crate) fn new(words32: u32) -> Self {
        let n = (words32 as usize).div_ceil(2);
        Self { cells: (0..n).map(|_| AtomicU64::new(0)).collect() }
    }

    #[inline]
    fn ld(&self, idx: usize) -> u64 {
        self.cells[idx].load(Ordering::Relaxed)
    }

    #[inline]
    fn st(&self, idx: usize, v: u64) {
        self.cells[idx].store(v, Ordering::Relaxed);
    }
}

/// Zero-overhead context for production runs.
pub(crate) struct FastCtx<'a> {
    pub(crate) id: ThreadId,
    pub(crate) shared: &'a SharedMem,
    pub(crate) local: &'a mut Vec<i32>,
    pub(crate) local_top: usize,
}

impl ThreadCtx for FastCtx<'_> {
    #[inline]
    fn id(&self) -> ThreadId {
        self.id
    }

    #[inline]
    fn ld<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        buf.get(idx)
    }

    #[inline]
    fn st<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) {
        buf.set(idx, v);
    }

    #[inline]
    fn sh_ld(&mut self, idx: usize) -> u64 {
        self.shared.ld(idx)
    }

    #[inline]
    fn sh_st(&mut self, idx: usize, v: u64) {
        self.shared.st(idx, v);
    }

    #[inline]
    fn local_alloc(&mut self, words: usize) -> usize {
        let base = self.local_top;
        self.local_top += words;
        if self.local.len() < self.local_top {
            self.local.resize(self.local_top, 0);
        }
        base
    }

    #[inline]
    fn local_ld(&mut self, off: usize) -> i32 {
        self.local[off]
    }

    #[inline]
    fn local_st(&mut self, off: usize, v: i32) {
        self.local[off] = v;
    }

    #[inline]
    fn alu(&mut self, _n: u32) {}

    #[inline]
    fn sfu(&mut self, _n: u32) {}

    #[inline]
    fn branch(&mut self, taken: bool) -> bool {
        taken
    }
}

/// Counting context for profiled runs.
pub(crate) struct TraceCtx<'a> {
    pub(crate) id: ThreadId,
    pub(crate) shared: &'a SharedMem,
    pub(crate) local: &'a mut Vec<i32>,
    pub(crate) local_top: usize,
    pub(crate) trace: ThreadTrace,
    pub(crate) race: Option<&'a mut RaceTracker>,
}

impl TraceCtx<'_> {
    #[inline]
    fn record_access(&mut self, space: MemSpace, bytes: u32, addr: u64, store: bool) {
        self.trace.accesses.push(AccessRec { space, bytes, addr, store });
    }
}

/// Address base separating buffers in the coalescing analysis: buffer id
/// in the high bits, byte offset in the low 40.
#[inline]
fn buf_addr(buf_id: u64, byte_off: u64) -> u64 {
    (buf_id << 40) | byte_off
}

impl ThreadCtx for TraceCtx<'_> {
    #[inline]
    fn id(&self) -> ThreadId {
        self.id
    }

    fn ld<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        let c = &mut self.trace.counters;
        match buf.space() {
            MemSpace::Global => c.ld_global += 1,
            MemSpace::Texture => c.ld_texture += 1,
            MemSpace::Constant => c.ld_constant += 1,
        }
        self.record_access(
            buf.space(),
            T::BYTES,
            buf_addr(buf.id(), idx as u64 * T::BYTES as u64),
            false,
        );
        if let Some(r) = &mut self.race {
            // Reads of read-only spaces cannot race.
            if buf.space() == MemSpace::Global {
                r.on_access(buf.id(), idx as u64, self.id.global(), false);
            }
        }
        buf.get(idx)
    }

    fn st<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) {
        assert_eq!(
            buf.space(),
            MemSpace::Global,
            "stores are only legal to global memory (buffer '{}')",
            buf.label()
        );
        self.trace.counters.st_global += 1;
        self.record_access(
            MemSpace::Global,
            T::BYTES,
            buf_addr(buf.id(), idx as u64 * T::BYTES as u64),
            true,
        );
        if let Some(r) = &mut self.race {
            r.on_access(buf.id(), idx as u64, self.id.global(), true);
        }
        buf.set(idx, v);
    }

    fn sh_ld(&mut self, idx: usize) -> u64 {
        self.trace.counters.shared += 1;
        self.trace.shared_accesses.push(idx as u32);
        if let Some(r) = &mut self.race {
            // Shared memory is per block: fold block id into the "buffer".
            r.on_access(u64::MAX - self.id.block, idx as u64, self.id.global(), false);
        }
        self.shared.ld(idx)
    }

    fn sh_st(&mut self, idx: usize, v: u64) {
        self.trace.counters.shared += 1;
        self.trace.shared_accesses.push(idx as u32);
        if let Some(r) = &mut self.race {
            r.on_access(u64::MAX - self.id.block, idx as u64, self.id.global(), true);
        }
        self.shared.st(idx, v);
    }

    #[inline]
    fn local_alloc(&mut self, words: usize) -> usize {
        let base = self.local_top;
        self.local_top += words;
        if self.local.len() < self.local_top {
            self.local.resize(self.local_top, 0);
        }
        base
    }

    #[inline]
    fn local_ld(&mut self, off: usize) -> i32 {
        self.trace.counters.local += 1;
        self.local[off]
    }

    #[inline]
    fn local_st(&mut self, off: usize, v: i32) {
        self.trace.counters.local += 1;
        self.local[off] = v;
    }

    #[inline]
    fn alu(&mut self, n: u32) {
        self.trace.counters.alu += n as u64;
    }

    #[inline]
    fn sfu(&mut self, n: u32) {
        self.trace.counters.sfu += n as u64;
    }

    #[inline]
    fn branch(&mut self, taken: bool) -> bool {
        self.trace.counters.branches += 1;
        self.trace.branch_taken.push(taken);
        taken
    }
}

/// Run one block in fast mode (all phases, all threads).
pub(crate) fn run_block_fast<K: Kernel>(
    kernel: &K,
    cfg: &LaunchConfig,
    block: u64,
    arena: &mut Vec<i32>,
) {
    let bs = cfg.block_threads();
    let shared = SharedMem::new(cfg.shared_words);
    let phases = kernel.phases();
    for phase in 0..phases {
        for t in 0..bs {
            let mut ctx = FastCtx {
                id: ThreadId { block, thread: t, block_dim: bs, grid_dim: cfg.grid_blocks() },
                shared: &shared,
                local: arena,
                local_top: 0,
            };
            kernel.run(&mut ctx, phase);
        }
    }
}

/// Run one block in trace mode; returns the per-thread traces.
///
/// Threads of a block mostly trace alike, so each thread's vectors are
/// reserved up front from the lengths its predecessor reached.
pub(crate) fn run_block_trace<K: Kernel>(
    kernel: &K,
    cfg: &LaunchConfig,
    block: u64,
    arena: &mut Vec<i32>,
    mut race: Option<&mut RaceTracker>,
) -> Vec<ThreadTrace> {
    let bs = cfg.block_threads();
    let shared = SharedMem::new(cfg.shared_words);
    let phases = kernel.phases();
    let mut traces: Vec<ThreadTrace> = vec![ThreadTrace::default(); bs as usize];
    for phase in 0..phases {
        if phase > 0 {
            if let Some(r) = race.as_deref_mut() {
                r.phase_boundary();
            }
        }
        for t in 0..bs {
            let mut trace = std::mem::take(&mut traces[t as usize]);
            if t > 0 {
                trace.reserve_like(&traces[t as usize - 1]);
            }
            let mut ctx = TraceCtx {
                id: ThreadId { block, thread: t, block_dim: bs, grid_dim: cfg.grid_blocks() },
                shared: &shared,
                local: arena,
                local_top: 0,
                trace,
                race: race.as_deref_mut(),
            };
            kernel.run(&mut ctx, phase);
            traces[t as usize] = ctx.trace;
        }
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::ThreadCounters;
    use crate::memory::DeviceBuffer;

    /// Sum of every counter class (test helper).
    fn counters_total(c: &ThreadCounters) -> u64 {
        c.alu
            + c.sfu
            + c.branches
            + c.ld_global
            + c.st_global
            + c.ld_texture
            + c.ld_constant
            + c.shared
            + c.local
    }

    /// y[i] = x[i] * 2 with explicit accounting.
    struct Doubler {
        x: DeviceBuffer<i32>,
        y: DeviceBuffer<i32>,
        n: u64,
    }

    impl Kernel for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }

        fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
            let tid = ctx.id().global();
            if ctx.branch(tid < self.n) {
                let v = ctx.ld(&self.x, tid as usize);
                ctx.alu(1);
                ctx.st(&self.y, tid as usize, v * 2);
            }
        }
    }

    fn doubler(n: usize) -> Doubler {
        let x =
            DeviceBuffer::from_slice(&(0..n as i32).collect::<Vec<_>>(), MemSpace::Global, 1, "x");
        let y = DeviceBuffer::<i32>::zeroed(n, MemSpace::Global, 2, "y");
        Doubler { x, y, n: n as u64 }
    }

    #[test]
    fn fast_block_computes() {
        let k = doubler(100);
        let cfg = LaunchConfig::cover_1d(100, 64);
        let mut arena = Vec::new();
        for b in 0..cfg.grid_blocks() {
            run_block_fast(&k, &cfg, b, &mut arena);
        }
        assert_eq!(k.y.snapshot(), (0..100).map(|v| v * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn trace_block_counts_and_computes() {
        let k = doubler(100);
        let cfg = LaunchConfig::cover_1d(100, 64);
        let mut arena = Vec::new();
        let mut all = Vec::new();
        for b in 0..cfg.grid_blocks() {
            all.extend(run_block_trace(&k, &cfg, b, &mut arena, None));
        }
        assert_eq!(k.y.get(42), 84);
        assert_eq!(all.len(), 128);
        // Active threads: 1 branch + 1 ld + 1 alu + 1 st.
        let active = &all[10].counters;
        assert_eq!(active.ld_global, 1);
        assert_eq!(active.st_global, 1);
        assert_eq!(active.alu, 1);
        assert_eq!(active.branches, 1);
        // Guard threads: branch only.
        let guard = &all[110].counters;
        assert_eq!(counters_total(guard), 1);
        assert_eq!(guard.branches, 1);
    }

    #[test]
    fn trace_detects_overlapping_writes() {
        struct Clash {
            out: DeviceBuffer<i32>,
        }
        impl Kernel for Clash {
            fn name(&self) -> &'static str {
                "clash"
            }
            fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
                // every thread writes index 0: a write/write race
                ctx.st(&self.out, 0, ctx.id().global() as i32);
            }
        }
        let k = Clash { out: DeviceBuffer::<i32>::zeroed(1, MemSpace::Global, 9, "out") };
        let cfg = LaunchConfig::cover_1d(8, 8);
        let mut race = RaceTracker::new(4);
        let mut arena = Vec::new();
        run_block_trace(&k, &cfg, 0, &mut arena, Some(&mut race));
        assert!(!race.events().is_empty(), "expected a write/write race");
    }

    #[test]
    fn local_scratch_is_private_per_thread() {
        struct Scratch {
            out: DeviceBuffer<i32>,
            n: u64,
        }
        impl Kernel for Scratch {
            fn name(&self) -> &'static str {
                "scratch"
            }
            fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
                let tid = ctx.id().global();
                if !ctx.branch(tid < self.n) {
                    return;
                }
                let base = ctx.local_alloc(4);
                for i in 0..4 {
                    ctx.local_st(base + i, (tid as i32 + 1) * (i as i32 + 1));
                }
                let mut acc = 0;
                for i in 0..4 {
                    acc += ctx.local_ld(base + i);
                }
                ctx.st(&self.out, tid as usize, acc);
            }
        }
        let n = 50;
        let k =
            Scratch { out: DeviceBuffer::<i32>::zeroed(n, MemSpace::Global, 3, "o"), n: n as u64 };
        let cfg = LaunchConfig::cover_1d(n as u64, 32);
        let mut arena = Vec::new();
        for b in 0..cfg.grid_blocks() {
            run_block_fast(&k, &cfg, b, &mut arena);
        }
        // acc = (tid+1) * (1+2+3+4)
        for t in 0..n {
            assert_eq!(k.out.get(t), (t as i32 + 1) * 10);
        }
    }

    #[test]
    fn stores_to_texture_space_rejected_in_trace() {
        struct BadStore {
            t: DeviceBuffer<i32>,
        }
        impl Kernel for BadStore {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
                ctx.st(&self.t, 0, 1);
            }
        }
        let k = BadStore { t: DeviceBuffer::<i32>::zeroed(1, MemSpace::Texture, 4, "t") };
        let cfg = LaunchConfig::cover_1d(1, 1);
        let mut arena = Vec::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_block_trace(&k, &cfg, 0, &mut arena, None);
        }));
        assert!(result.is_err(), "texture store must be rejected");
    }
}
