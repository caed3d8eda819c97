//! The SPMD kernel programming model (paper §III.A).
//!
//! A [`Kernel`] is a function executed by every thread of a launch grid;
//! each thread sees its ids through a [`ThreadCtx`] and must route *all*
//! device-memory traffic and cost-relevant arithmetic through that context
//! so the profiler can count it. Two context implementations exist: a fast
//! one whose accounting methods compile to nothing, and a counting one
//! used on sampled blocks to feed the timing model (see
//! [`crate::counting`]).
//!
//! `__syncthreads()` is modeled by *phases*: a kernel declares how many
//! barrier-separated phases it has, and the executor runs every thread of
//! a block through phase `p` before any thread enters `p+1`. Within a
//! phase, threads of a block execute in an unspecified order — exactly the
//! guarantee CUDA gives between barriers. Intra-phase communication is a
//! data race; the trace-mode race detector flags it.

use crate::memory::{DeviceBuffer, DeviceWord};

/// Per-thread identifiers, the simulator's `threadIdx`/`blockIdx`.
#[derive(Copy, Clone, Debug)]
pub struct ThreadId {
    /// Linear block index within the grid.
    pub block: u64,
    /// Linear thread index within the block.
    pub thread: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Blocks in the grid.
    pub grid_dim: u64,
}

impl ThreadId {
    /// The flat global thread id: `blockIdx.x * blockDim.x + threadIdx.x`
    /// (the first line of every kernel in the paper's Figs. 7/9/10).
    #[inline]
    pub fn global(&self) -> u64 {
        self.block * self.block_dim as u64 + self.thread as u64
    }

    /// Warp index within the block.
    #[inline]
    pub fn warp(&self) -> u32 {
        self.thread / 32
    }

    /// Lane within the warp.
    #[inline]
    pub fn lane(&self) -> u32 {
        self.thread % 32
    }
}

/// The device-side view a kernel thread has of the machine.
///
/// Memory access methods are monomorphic over [`DeviceWord`]; accounting
/// methods ([`alu`](Self::alu), [`sfu`](Self::sfu), [`branch`](Self::branch))
/// cost nothing in fast mode. The *local* methods model CUDA local memory
/// (per-thread scratch that physically lives in DRAM on GT200): contents
/// are private to the thread and — in this simulator — do not survive a
/// phase boundary.
pub trait ThreadCtx {
    /// This thread's identifiers.
    fn id(&self) -> ThreadId;

    /// Load one element from a device buffer (global/texture/constant
    /// space is taken from the buffer).
    fn ld<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize) -> T;

    /// Store one element to a device buffer.
    fn st<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T);

    /// Load from block-shared memory (64-bit words).
    fn sh_ld(&mut self, idx: usize) -> u64;

    /// Store to block-shared memory (64-bit words).
    fn sh_st(&mut self, idx: usize, v: u64);

    /// Reserve `words` 32-bit words of per-thread local scratch; returns
    /// the base offset to use with [`local_ld`](Self::local_ld)/
    /// [`local_st`](Self::local_st). Contents start unspecified — kernels
    /// must zero what they read (costed like the stores they are).
    fn local_alloc(&mut self, words: usize) -> usize;

    /// Load a 32-bit word from local scratch.
    fn local_ld(&mut self, off: usize) -> i32;

    /// Store a 32-bit word to local scratch.
    fn local_st(&mut self, off: usize, v: i32);

    /// Account `n` scalar ALU instructions.
    fn alu(&mut self, n: u32);

    /// Account `n` special-function instructions (sqrt, rcp, …).
    fn sfu(&mut self, n: u32);

    /// Account a branch and report whether this thread takes it (used by
    /// the profiler to estimate warp divergence). Returns `taken` so it
    /// can wrap a condition inline: `if ctx.branch(x < y) { … }`.
    fn branch(&mut self, taken: bool) -> bool;
}

/// A simulated GPU kernel.
///
/// A launch runs every block exactly once — a profiled launch runs its
/// sampled blocks under the counting context and the rest fast — but in
/// no fixed order, and possibly on several host threads at once. So a
/// store must not depend on another block's stores, nor on another
/// thread's stores from the same phase; each thread overwrites the
/// outputs it owns. Cross-phase communication within a block, through
/// shared or global memory, is allowed.
pub trait Kernel: Sync {
    /// Kernel name for reports and profile caching.
    fn name(&self) -> &'static str;

    /// Number of barrier-separated phases (1 = no `__syncthreads`).
    fn phases(&self) -> u32 {
        1
    }

    /// A stable key identifying this instance's *cost shape*: launches
    /// whose `(name, profile_key, LaunchConfig)` match reuse each other's
    /// profile instead of re-counting. Instances whose per-thread work
    /// differs (e.g. different problem sizes) must return different keys.
    fn profile_key(&self) -> u64 {
        0
    }

    /// The thread function: executed once per thread per phase.
    fn run<C: ThreadCtx>(&self, ctx: &mut C, phase: u32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_math_matches_cuda() {
        let id = ThreadId { block: 20, thread: 68, block_dim: 128, grid_dim: 21 };
        assert_eq!(id.global(), 20 * 128 + 68);
        assert_eq!(id.warp(), 2);
        assert_eq!(id.lane(), 4);
    }
}
