//! The device object: allocation, transfers, launches, and the time
//! ledger tying the functional simulation to the analytic model.
//!
//! A launch runs every block of its grid exactly once. The first launch
//! of a kernel shape on a device (`ExecMode::Auto`, no cached profile)
//! runs a handful of sampled blocks under the counting context, which
//! both computes their outputs and records the traces the profile is
//! built from; the rest of the grid then runs fast. Later launches of
//! the same shape reuse the cached profile and run every block fast.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::counting::{aggregate_warp, finalize, KernelCounters, WarpAggregate};
use crate::dim::LaunchConfig;
use crate::exec::{run_block_fast, run_block_trace, ExecMode};
use crate::kernel::Kernel;
use crate::memory::{DeviceBuffer, DeviceWord, MemSpace};
use crate::race::{RaceEvent, RaceTracker};
use crate::report::{LaunchReport, TimeBook};
use crate::spec::{DeviceSpec, HostSpec};
use crate::timing::{predict, predict_host_seconds, transfer_seconds};

/// Key of the profile cache: (kernel name, kernel profile key, geometry).
type ProfileKey = (&'static str, u64, u32, u64, u32);

/// A simulated GPU.
///
/// Owns the timing ledger ([`TimeBook`]) and a cache of kernel profiles so
/// that a search loop launching the same kernel thousands of times pays
/// the (simulation-side) profiling cost once.
pub struct Device {
    spec: DeviceSpec,
    host: HostSpec,
    book: TimeBook,
    profiles: HashMap<ProfileKey, KernelCounters>,
    next_buf_id: u64,
    workers: usize,
    /// Maximum number of blocks profiled per launch in `Auto` mode.
    sample_blocks: usize,
}

impl Device {
    /// A device with the given spec and the default host baseline
    /// (Xeon 3 GHz, like the paper).
    ///
    /// # Panics
    /// If the spec's coalescing segment is not a power of two.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_host(spec, HostSpec::xeon_3ghz())
    }

    /// A device with an explicit host baseline for the CPU-time column.
    ///
    /// # Panics
    /// If the spec's coalescing segment is not a power of two.
    pub fn with_host(spec: DeviceSpec, host: HostSpec) -> Self {
        // The host's parallelism is read once per process: the query
        // re-reads cgroup files on every call, and the count only decides
        // how many host threads simulate a large launch's blocks.
        static HOST_THREADS: OnceLock<usize> = OnceLock::new();
        let workers = *HOST_THREADS
            .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        // The profiler bins addresses into segments, halves and quarters
        // by their address bits.
        assert!(
            spec.coalesce_segment.is_power_of_two(),
            "{}: a coalescing segment of {} bytes is not a power of two",
            spec.name,
            spec.coalesce_segment
        );
        Self {
            spec,
            host,
            book: TimeBook::default(),
            profiles: HashMap::new(),
            next_buf_id: 1,
            workers,
            sample_blocks: 4,
        }
    }

    /// Cap the host worker threads used to simulate blocks.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Host baseline description.
    pub fn host(&self) -> &HostSpec {
        &self.host
    }

    /// The accumulated time ledger.
    pub fn book(&self) -> &TimeBook {
        &self.book
    }

    /// Reset the ledger (e.g. between experiment repetitions).
    pub fn reset_book(&mut self) {
        self.book = TimeBook::default();
    }

    /// Merge externally priced work into this device's ledger.
    ///
    /// Higher layers that price launches analytically (the runtime
    /// scheduler's fused batches, stream schedules) account them here so
    /// fleet-level reporting ([`MultiDevice::books_sum`], per-device busy
    /// fractions) sees one consistent ledger regardless of how the work
    /// was priced.
    ///
    /// [`MultiDevice::books_sum`]: crate::MultiDevice::books_sum
    pub fn charge(&mut self, work: &TimeBook) {
        self.book.add(work);
    }

    /// Drop all cached kernel profiles.
    pub fn clear_profiles(&mut self) {
        self.profiles.clear();
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_buf_id;
        self.next_buf_id += 1;
        id
    }

    /// Allocate a zero-initialized buffer.
    pub fn alloc_zeroed<T: DeviceWord + Default>(
        &mut self,
        len: usize,
        space: MemSpace,
        label: &'static str,
    ) -> DeviceBuffer<T> {
        let id = self.fresh_id();
        DeviceBuffer::zeroed(len, space, id, label)
    }

    /// Allocate a buffer and upload `data` into it (costed H2D transfer).
    pub fn upload_new<T: DeviceWord>(
        &mut self,
        data: &[T],
        space: MemSpace,
        label: &'static str,
    ) -> DeviceBuffer<T> {
        let id = self.fresh_id();
        let buf = DeviceBuffer::from_slice(data, space, id, label);
        self.account_h2d(buf.bytes());
        buf
    }

    /// Overwrite a buffer from host data (costed H2D transfer).
    pub fn upload<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, data: &[T]) {
        buf.fill_from(data);
        self.account_h2d(buf.bytes());
    }

    /// Read a buffer back to the host (costed D2H transfer).
    pub fn download<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.account_d2h(buf.bytes());
        buf.snapshot()
    }

    /// Read a buffer back into an existing host vector (costed).
    pub fn download_into<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, out: &mut Vec<T>) {
        self.account_d2h(buf.bytes());
        out.clear();
        out.extend((0..buf.len()).map(|i| buf.get(i)));
    }

    fn account_h2d(&mut self, bytes: u64) {
        self.book.h2d_s += transfer_seconds(&self.spec, bytes);
        self.book.bytes_h2d += bytes;
    }

    fn account_d2h(&mut self, bytes: u64) {
        self.book.d2h_s += transfer_seconds(&self.spec, bytes);
        self.book.bytes_d2h += bytes;
    }

    /// Execute a kernel over `cfg` (see [`ExecMode`] for the profiling
    /// policy) and account its modeled cost in the ledger.
    pub fn launch<K: Kernel>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
        mode: ExecMode,
    ) -> LaunchReport {
        let t0 = Instant::now();
        let key: ProfileKey = (
            kernel.name(),
            kernel.profile_key(),
            cfg.block_threads(),
            cfg.grid_blocks(),
            cfg.shared_words,
        );
        let blocks = cfg.grid_blocks();
        let mut races = Vec::new();

        let counters = match mode {
            ExecMode::Trace => {
                let all: Vec<u64> = (0..blocks).collect();
                let (counters, events) = self.profile(kernel, &cfg, &all);
                races = events;
                self.profiles.insert(key, counters.clone());
                counters
            }
            ExecMode::Auto | ExecMode::Fast => match (self.profiles.get(&key).cloned(), mode) {
                (Some(cached), _) => {
                    self.execute(kernel, &cfg, &[]);
                    cached
                }
                (None, ExecMode::Fast) => {
                    self.execute(kernel, &cfg, &[]);
                    KernelCounters { total_threads: cfg.total_threads(), ..Default::default() }
                }
                (None, _) => {
                    let sample = sample_blocks(blocks, self.sample_blocks);
                    let (counters, events) = self.profile(kernel, &cfg, &sample);
                    races = events;
                    self.profiles.insert(key, counters.clone());
                    // The traced blocks computed their outputs: run the
                    // rest of the grid fast.
                    self.execute(kernel, &cfg, &sample);
                    counters
                }
            },
        };

        let timing = predict(&self.spec, &cfg, &counters);
        let host_seconds = predict_host_seconds(&self.host, &counters);
        self.book.kernel_s += timing.kernel_seconds;
        self.book.overhead_s += timing.launch_overhead_seconds;
        self.book.host_s += host_seconds;
        self.book.launches += 1;

        LaunchReport {
            name: kernel.name(),
            cfg,
            counters,
            timing,
            host_seconds,
            wall: t0.elapsed(),
            races,
            profiled: true,
        }
    }

    /// Run `blocks` under the counting context with race detection, and
    /// build the launch's profile from their traces.
    fn profile<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        blocks: &[u64],
    ) -> (KernelCounters, Vec<RaceEvent>) {
        let mut tracker = RaceTracker::new(32);
        let mut arena = Vec::new();
        let mut traces = Vec::with_capacity(blocks.len() * cfg.block_threads() as usize);
        for &b in blocks {
            traces.extend(run_block_trace(kernel, cfg, b, &mut arena, Some(&mut tracker)));
        }
        (self.aggregate(cfg, &traces, cfg.total_threads()), tracker.events())
    }

    /// Run every block but the already traced `skip` functionally (fast
    /// contexts), in parallel when the launch is big enough to amortize
    /// thread spawning.
    fn execute<K: Kernel>(&self, kernel: &K, cfg: &LaunchConfig, skip: &[u64]) {
        let blocks = cfg.grid_blocks();
        let parallel = self.workers > 1 && blocks >= 4 && cfg.total_threads() >= 4096;
        if !parallel {
            let mut arena = Vec::new();
            for b in (0..blocks).filter(|b| !skip.contains(b)) {
                run_block_fast(kernel, cfg, b, &mut arena);
            }
            return;
        }
        let next = AtomicU64::new(0);
        let workers = self.workers.min(blocks as usize);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut arena = Vec::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks {
                            break;
                        }
                        if !skip.contains(&b) {
                            run_block_fast(kernel, cfg, b, &mut arena);
                        }
                    }
                });
            }
        });
    }

    /// Warp-aggregate sampled thread traces into launch counters, and
    /// replay the texture-fetch streams through a per-SM cache model to
    /// measure the hit rate the timing model should use.
    fn aggregate(
        &self,
        cfg: &LaunchConfig,
        traces: &[crate::counting::ThreadTrace],
        total_threads: u64,
    ) -> KernelCounters {
        let warp = self.spec.warp_size as usize;
        let mut warps: Vec<WarpAggregate> = Vec::with_capacity(traces.len() / warp + 1);
        let bs = cfg.block_threads() as usize;
        let mut tex_hits = 0u64;
        let mut tex_total = 0u64;
        for block_traces in traces.chunks(bs.max(1)) {
            for w in block_traces.chunks(warp) {
                let refs: Vec<&crate::counting::ThreadTrace> = w.iter().collect();
                warps.push(aggregate_warp(
                    &refs,
                    self.spec.coalesce_segment,
                    self.spec.sfu_issue_factor,
                ));
            }
            // One texture cache per block (blocks land on arbitrary SMs;
            // a fresh cache per block is the conservative choice). The
            // replay interleaves lanes warp by warp, site by site —
            // the SIMT issue order.
            let mut cache = crate::counting::TextureCacheSim::gt200();
            for w in block_traces.chunks(warp) {
                let max_sites = w.iter().map(|t| t.accesses.len()).max().unwrap_or(0);
                for site in 0..max_sites {
                    for t in w {
                        if let Some(a) = t.accesses.get(site) {
                            if a.space == crate::memory::MemSpace::Texture {
                                cache.access(a.addr);
                            }
                        }
                    }
                }
            }
            if let Some(rate) = cache.hit_rate() {
                // Accumulate weighted by this block's fetch count.
                let total = block_traces.iter().map(|t| t.counters.ld_texture).sum::<u64>();
                tex_hits += (rate * total as f64) as u64;
                tex_total += total;
            }
        }
        let mut counters = finalize(total_threads, traces, &warps);
        counters.measured_tex_hit = (tex_total > 0).then(|| tex_hits as f64 / tex_total as f64);
        counters
    }
}

/// Choose up to `max` representative blocks: ends plus evenly spaced
/// interior blocks (skewed away from the final partially-guarded block
/// when the grid is large enough to afford it).
fn sample_blocks(blocks: u64, max: usize) -> Vec<u64> {
    if blocks as usize <= max {
        return (0..blocks).collect();
    }
    let mut picks = vec![0u64];
    let interior = max - 1;
    for i in 1..=interior {
        let b = (blocks - 1) * i as u64 / (interior as u64 + 1);
        if !picks.contains(&b) {
            picks.push(b);
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ThreadCtx;

    struct AddOne {
        buf: DeviceBuffer<i32>,
        out: DeviceBuffer<i32>,
        n: u64,
    }

    impl Kernel for AddOne {
        fn name(&self) -> &'static str {
            "add_one"
        }
        fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
            let tid = ctx.id().global();
            if ctx.branch(tid < self.n) {
                let v = ctx.ld(&self.buf, tid as usize);
                ctx.alu(1);
                ctx.st(&self.out, tid as usize, v + 1);
            }
        }
    }

    fn setup(dev: &mut Device, n: usize) -> AddOne {
        let data: Vec<i32> = (0..n as i32).collect();
        let buf = dev.upload_new(&data, MemSpace::Global, "in");
        let out = dev.alloc_zeroed::<i32>(n, MemSpace::Global, "out");
        AddOne { buf, out, n: n as u64 }
    }

    #[test]
    fn launch_computes_and_accounts() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let k = setup(&mut dev, 1000);
        let report = dev.launch(&k, LaunchConfig::cover_1d(1000, 128), ExecMode::Auto);
        assert_eq!(k.out.get(999), 1000);
        assert!(report.timing.total_seconds > 0.0);
        assert!(report.host_seconds > 0.0);
        assert_eq!(dev.book().launches, 1);
        assert!(dev.book().h2d_s > 0.0);
        assert!(dev.book().kernel_s > 0.0);
    }

    #[test]
    fn profile_cache_hits_across_launches() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let k = setup(&mut dev, 1000);
        let cfg = LaunchConfig::cover_1d(1000, 128);
        let r1 = dev.launch(&k, cfg, ExecMode::Auto);
        let r2 = dev.launch(&k, cfg, ExecMode::Auto);
        assert_eq!(r1.counters, r2.counters, "second launch must reuse the profile");
        assert_eq!(dev.book().launches, 2);
    }

    #[test]
    fn fast_mode_without_profile_still_computes() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let k = setup(&mut dev, 256);
        let r = dev.launch(&k, LaunchConfig::cover_1d(256, 64), ExecMode::Fast);
        assert_eq!(k.out.get(0), 1);
        assert_eq!(r.counters.sampled_threads, 0);
    }

    #[test]
    fn trace_mode_profiles_everything() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let k = setup(&mut dev, 200);
        let r = dev.launch(&k, LaunchConfig::cover_1d(200, 64), ExecMode::Trace);
        // 4 blocks × 64 threads sampled.
        assert_eq!(r.counters.sampled_threads, 256);
        assert!(r.races.is_empty());
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        dev.set_workers(8);
        let n = 100_000;
        let k = setup(&mut dev, n);
        dev.launch(&k, LaunchConfig::cover_1d(n as u64, 128), ExecMode::Auto);
        let parallel_result = k.out.snapshot();

        let mut dev2 = Device::new(DeviceSpec::gtx280());
        dev2.set_workers(1);
        let k2 = setup(&mut dev2, n);
        dev2.launch(&k2, LaunchConfig::cover_1d(n as u64, 128), ExecMode::Auto);
        assert_eq!(parallel_result, k2.out.snapshot());
    }

    #[test]
    fn download_accounts_bytes() {
        let mut dev = Device::new(DeviceSpec::gtx280());
        let k = setup(&mut dev, 64);
        dev.launch(&k, LaunchConfig::cover_1d(64, 64), ExecMode::Auto);
        let v = dev.download(&k.out);
        assert_eq!(v[5], 6);
        assert_eq!(dev.book().bytes_d2h, 64 * 4);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_segment_that_is_not_a_power_of_two_is_refused() {
        Device::new(DeviceSpec { coalesce_segment: 96, ..DeviceSpec::gtx280() });
    }

    #[test]
    fn sample_blocks_shapes() {
        assert_eq!(sample_blocks(3, 4), vec![0, 1, 2]);
        let s = sample_blocks(2033, 4);
        assert_eq!(s[0], 0);
        assert!(s.len() <= 4);
        assert!(s.iter().all(|&b| b < 2033));
    }

    #[test]
    fn bigger_grids_predict_better_throughput() {
        // The whole point of the paper: per-move cost falls with grid size.
        let mut dev = Device::new(DeviceSpec::gtx280());
        let k_small = setup(&mut dev, 73);
        let r_small = dev.launch(&k_small, LaunchConfig::cover_1d(73, 128), ExecMode::Auto);
        let k_big = setup(&mut dev, 62_196);
        let r_big = dev.launch(&k_big, LaunchConfig::cover_1d(62_196, 128), ExecMode::Auto);
        let per_small = r_small.timing.kernel_seconds / 73.0;
        let per_big = r_big.timing.kernel_seconds / 62_196.0;
        assert!(per_big < per_small, "per-thread {per_big} !< {per_small}");
    }
}
