//! On-device argmin selection: the kernel, its analytic price, and the
//! scheduler-wide [`SelectionMode`] knob.
//!
//! The paper's search loop copies the whole fitness array back to the
//! host every iteration and lets the CPU pick the best neighbor — `m·8`
//! bytes of D2H traffic per iteration per walk. The classic follow-up
//! (mirrored in the GPU-SA-for-QAP line of work, arXiv:1208.2675)
//! reduces on the device first, shrinking the readback to **one packed
//! `(fitness, index)` record per walk**. This module is both sides of
//! that option:
//!
//! * [`MinReduceKernel`] + [`device_min`] — the *functional* tree
//!   reduction, executed for real on the simulator (and the showcase for
//!   block barriers and shared memory; the pipelining ablation uses it
//!   solo);
//! * [`SelectionMode`] + [`argmin_kernel_seconds`] — the *fleet-wide*
//!   pricing knob: `lnls-runtime`'s `SchedulerConfig` (and per-job
//!   `JobSpec` overrides) select [`SelectionMode::DeviceArgmin`] to
//!   price one extra reduction launch per fused iteration and cut each
//!   lane's modeled D2H from `m·8` bytes to [`ARGMIN_RECORD_BYTES`].
//!
//! Selection mode is **pricing-only**: the runtime's cursors still
//! commit exactly the move a host-side scan picks (the modeled kernel
//! folds admissibility — e.g. tabu status — into the packed keys, so the
//! record it would return is the very move the host selects). Search
//! results are bit-identical under either mode; only the ledger changes.
//!
//! Values are `u64` keys ordered ascending; to arg-min a fitness array,
//! pack `(fitness, index)` with [`pack_key`] so ties break toward the
//! lower index.

use crate::dim::LaunchConfig;
use crate::exec::ExecMode;
use crate::kernel::{Kernel, ThreadCtx};
use crate::memory::{DeviceBuffer, MemSpace};
use crate::spec::DeviceSpec;
use crate::Device;

/// How the best neighbor of an evaluated batch is selected — the
/// scheduler-wide knob of `lnls-runtime`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum SelectionMode {
    /// The paper's loop: download every lane's whole fitness array
    /// (`m·8` bytes) and scan on the host.
    #[default]
    HostArgmin,
    /// Reduce on the device first: one extra tree-reduction launch per
    /// fused iteration (priced by [`argmin_kernel_seconds`]), then one
    /// packed `(fitness, index)` record ([`ARGMIN_RECORD_BYTES`]) read
    /// back per lane.
    DeviceArgmin,
}

impl SelectionMode {
    /// True for [`SelectionMode::DeviceArgmin`].
    pub fn is_device(self) -> bool {
        matches!(self, SelectionMode::DeviceArgmin)
    }
}

/// Bytes read back per lane per iteration under
/// [`SelectionMode::DeviceArgmin`]: one packed `(fitness, index)` key.
pub const ARGMIN_RECORD_BYTES: u64 = 8;

/// Modeled execution seconds (excluding launch overhead) of one fused
/// argmin reduction over `keys` packed values.
///
/// The reduction streams every key once (bandwidth bound:
/// `8·keys / mem_bandwidth`) and spends ~2 abstract ops per key in the
/// shared-memory tree (issue bound, derated to 25 % of peak like every
/// measured kernel of this workspace); per-block minima fold into the
/// per-lane output records with 64-bit global atomics (native on GT200 /
/// sm_13), so one launch suffices. The caller adds the device's launch
/// overhead — in a stream schedule that happens automatically
/// ([`crate::stream::price_fused_span`] adds it per kernel op).
pub fn argmin_kernel_seconds(spec: &DeviceSpec, keys: u64) -> f64 {
    let bandwidth_s = (keys * ARGMIN_RECORD_BYTES) as f64 / spec.mem_bandwidth;
    let peak_ops = spec.sm_count as f64 * spec.warp_size as f64 / spec.issue_cycles * spec.clock_hz;
    let issue_s = keys as f64 * 2.0 / (peak_ops * 0.25);
    bandwidth_s.max(issue_s)
}

/// Pack a non-negative fitness and a move index into an order-preserving
/// `u64` key: smaller fitness first, then smaller index.
#[inline]
pub fn pack_key(fitness: u32, index: u32) -> u64 {
    ((fitness as u64) << 32) | index as u64
}

/// Inverse of [`pack_key`].
#[inline]
pub fn unpack_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Grid-stride block min-reduction: `output[b] = min(input[i])` over the
/// indices block `b` touches. One launch reduces `n` keys to `gridDim`.
pub struct MinReduceKernel {
    /// Keys to reduce.
    pub input: DeviceBuffer<u64>,
    /// One slot per block.
    pub output: DeviceBuffer<u64>,
    /// Number of valid keys in `input`.
    pub n: u64,
}

impl MinReduceKernel {
    fn log2_bs(&self, ctx_bs: u32) -> u32 {
        debug_assert!(ctx_bs.is_power_of_two());
        ctx_bs.trailing_zeros()
    }
}

impl Kernel for MinReduceKernel {
    fn name(&self) -> &'static str {
        "min_reduce"
    }

    fn phases(&self) -> u32 {
        // Phase 0 = strided load; then log2(block size) tree phases. The
        // executor asks before knowing the launch config, so use the
        // worst case (512-thread blocks → 9 tree phases); extra phases
        // are no-ops for smaller blocks.
        1 + 9
    }

    fn profile_key(&self) -> u64 {
        self.n
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, phase: u32) {
        let id = ctx.id();
        let bs = id.block_dim;
        let tid = id.thread;
        if phase == 0 {
            // Strided pre-reduction: thread t of block b scans keys
            // t, t+stride, … within the block's contiguous span.
            let total = bs as u64 * id.grid_dim;
            let mut best = u64::MAX;
            let mut i = id.global();
            while ctx.branch(i < self.n) {
                let v = ctx.ld(&self.input, i as usize);
                ctx.alu(2);
                best = best.min(v);
                i += total;
            }
            ctx.sh_st(tid as usize, best);
            return;
        }
        let steps = self.log2_bs(bs);
        if phase > steps {
            return; // no-op padding phases for small blocks
        }
        let stride = bs >> phase;
        if ctx.branch(tid < stride) {
            let a = ctx.sh_ld(tid as usize);
            let b = ctx.sh_ld((tid + stride) as usize);
            ctx.alu(2);
            ctx.sh_st(tid as usize, a.min(b));
            if stride == 1 && tid == 0 {
                ctx.st(&self.output, id.block as usize, a.min(b));
            }
        }
    }
}

/// Reduce `input[..n]` to its minimum key: one device pass to per-block
/// minima, then a host pass over the (small) downloaded remainder. All
/// transfers and launches are costed on `dev`.
pub fn device_min(
    dev: &mut Device,
    input: &DeviceBuffer<u64>,
    n: u64,
    block_size: u32,
    mode: ExecMode,
) -> u64 {
    assert!(block_size.is_power_of_two(), "reduction block size must be a power of two");
    assert!(n > 0, "cannot reduce an empty array");
    // Enough blocks to keep the device busy, but never more than one
    // element per thread would need.
    let max_blocks = n.div_ceil(block_size as u64);
    let blocks = max_blocks.min(4 * dev.spec().sm_count as u64).max(1);
    let cfg = LaunchConfig {
        grid: crate::dim::Dim3::x(blocks as u32),
        block: crate::dim::Dim3::x(block_size),
        shared_words: block_size * 2, // u64 cells
    };
    let output = dev.alloc_zeroed::<u64>(blocks as usize, MemSpace::Global, "block_minima");
    let kernel = MinReduceKernel { input: input.clone(), output: output.clone(), n };
    dev.launch(&kernel, cfg, mode);
    let partial = dev.download(&output);
    partial.into_iter().min().expect("at least one block")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    #[test]
    fn selection_mode_defaults_to_the_paper_loop() {
        assert_eq!(SelectionMode::default(), SelectionMode::HostArgmin);
        assert!(!SelectionMode::HostArgmin.is_device());
        assert!(SelectionMode::DeviceArgmin.is_device());
    }

    #[test]
    fn argmin_price_scales_and_beats_the_readback_it_replaces() {
        let spec = DeviceSpec::gtx280();
        let small = argmin_kernel_seconds(&spec, 1024);
        let large = argmin_kernel_seconds(&spec, 1 << 20);
        assert!(small > 0.0 && large > small, "price must grow with the key count");
        // At the paper's saturated scale the reduction is far cheaper
        // than the m·8-byte PCIe readback it eliminates.
        let m = 260_130u64;
        let saved = crate::timing::transfer_seconds(&spec, m * ARGMIN_RECORD_BYTES)
            - crate::timing::transfer_seconds(&spec, ARGMIN_RECORD_BYTES);
        let cost = argmin_kernel_seconds(&spec, m) + spec.launch_overhead_s;
        assert!(cost < saved, "reduction {cost}s must beat the {saved}s of PCIe it saves");
    }

    #[test]
    fn pack_orders_lexicographically() {
        assert!(pack_key(1, 999) < pack_key(2, 0));
        assert!(pack_key(5, 3) < pack_key(5, 4));
        assert_eq!(unpack_key(pack_key(123, 456)), (123, 456));
    }

    #[test]
    fn reduces_known_minimum() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let n = 10_000u64;
        let keys: Vec<u64> = (0..n).map(|i| pack_key((i % 977 + 5) as u32, i as u32)).collect();
        let expected = keys.iter().copied().min().unwrap();
        let input = dev.upload_new(&keys, MemSpace::Global, "keys");
        let got = device_min(&mut dev, &input, n, 128, ExecMode::Auto);
        assert_eq!(got, expected);
    }

    #[test]
    fn reduces_in_trace_mode_without_races() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let keys: Vec<u64> = (0..500u64).rev().map(|i| pack_key(i as u32, i as u32)).collect();
        let input = dev.upload_new(&keys, MemSpace::Global, "keys");
        // Trace mode runs the race detector across all phases: barriers
        // must make the tree reduction race-free.
        let output = dev.alloc_zeroed::<u64>(4, MemSpace::Global, "out");
        let kernel = MinReduceKernel { input: input.clone(), output: output.clone(), n: 500 };
        let cfg = LaunchConfig {
            grid: crate::dim::Dim3::x(4),
            block: crate::dim::Dim3::x(64),
            shared_words: 128,
        };
        let report = dev.launch(&kernel, cfg, ExecMode::Trace);
        assert!(report.races.is_empty(), "races: {:?}", report.races);
        let partial = dev.download(&output);
        assert_eq!(partial.into_iter().min().unwrap(), pack_key(0, 0));
    }

    #[test]
    fn single_element_and_odd_sizes() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        for n in [1u64, 2, 3, 63, 64, 65, 1023] {
            let keys: Vec<u64> =
                (0..n).map(|i| pack_key(((i * 37) % 101) as u32, i as u32)).collect();
            let expected = keys.iter().copied().min().unwrap();
            let input = dev.upload_new(&keys, MemSpace::Global, "keys");
            assert_eq!(device_min(&mut dev, &input, n, 64, ExecMode::Auto), expected, "n={n}");
        }
    }

    #[test]
    fn d2h_traffic_is_small() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let n = 100_000u64;
        let keys: Vec<u64> = (0..n).map(|i| pack_key(i as u32, i as u32)).collect();
        let input = dev.upload_new(&keys, MemSpace::Global, "keys");
        let before = dev.book().bytes_d2h;
        device_min(&mut dev, &input, n, 128, ExecMode::Auto);
        let downloaded = dev.book().bytes_d2h - before;
        // ≤ 4 waves × 30 SMs blocks × 8 bytes, ≪ n × 8.
        assert!(downloaded <= 4 * 30 * 8, "downloaded {downloaded} bytes");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_block_rejected() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let input = dev.upload_new(&[1u64, 2], MemSpace::Global, "keys");
        let _ = device_min(&mut dev, &input, 2, 48, ExecMode::Auto);
    }
}
