//! Hardware descriptions for the analytic timing model.
//!
//! The paper's testbed is an NVIDIA GTX 280 (GT200, 30 SMs — the paper
//! says "32 multiprocessors", which matches no GT200 SKU; we expose both
//! presets and default to the datasheet value) against an Intel Xeon at
//! 3 GHz. All constants that the model multiplies counters by are listed
//! here with their provenance, so the calibration is auditable.
//!
//! Each spec also carries its **engine layout**
//! ([`EngineConfig`]): how many DMA queues
//! and concurrent-kernel slots the part exposes. The layout decides what
//! a stream schedule may overlap, so the batched fleet pricing
//! (`lnls_core::BatchedExplorer` → [`crate::stream::price_fused_span`])
//! reads it straight off the device it charges. Every preset ships the
//! historically accurate GT200 layout; [`DeviceSpec::with_engines`]
//! swaps in another (e.g. [`EngineConfig::fermi`]) for overlap studies.

use crate::stream::EngineConfig;

/// Static description of a simulated CUDA-class device.
///
/// Cycle quantities are in *core clock* cycles. The issue model follows
/// the GT200 generation: one warp instruction is issued per SM every
/// [`issue_cycles`](Self::issue_cycles) cycles (8 scalar pipes × 4 cycles
/// = 32 lanes).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Threads per warp (32 on every NVIDIA part).
    pub warp_size: u32,
    /// Core (shader) clock in Hz.
    pub clock_hz: f64,
    /// Peak global-memory bandwidth, bytes/second.
    pub mem_bandwidth: f64,
    /// Global-memory latency, cycles (400–600 on GT200; we use the middle).
    pub lat_global: f64,
    /// Texture-cache hit latency, cycles.
    pub lat_texture_hit: f64,
    /// Texture-cache hit rate assumed for read-only instance data.
    pub texture_hit_rate: f64,
    /// Shared-memory access latency, cycles.
    pub lat_shared: f64,
    /// Cycles to issue one warp instruction (GT200: 4).
    pub issue_cycles: f64,
    /// Issue-cycle multiplier for special-function ops (sqrt, rcp…).
    pub sfu_issue_factor: f64,
    /// Coalescing segment size in bytes (GT200 relaxed rules: 128B, the
    /// paper's §IV.B note that the GTX 280 "relaxed" the G80 alignment
    /// constraints).
    pub coalesce_segment: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// 32-bit shared-memory words per SM (16 KiB on GT200).
    pub shared_words_per_sm: u32,
    /// Kernel-launch + driver overhead per launch, seconds.
    pub launch_overhead_s: f64,
    /// Host↔device transfer: fixed latency per transfer, seconds.
    pub pcie_latency_s: f64,
    /// Host↔device transfer: sustained bandwidth, bytes/second.
    pub pcie_bandwidth: f64,
    /// Hardware queue layout: DMA engines and concurrent-kernel slots.
    /// Decides what a stream schedule may overlap on this device.
    pub engines: EngineConfig,
}

impl DeviceSpec {
    /// NVIDIA GeForce GTX 280 (GT200): the paper's card, datasheet SM
    /// count (30).
    pub fn gtx280() -> Self {
        Self {
            name: "GTX 280 (GT200, 30 SM)",
            sm_count: 30,
            warp_size: 32,
            clock_hz: 1.296e9,
            mem_bandwidth: 141.7e9,
            lat_global: 500.0,
            lat_texture_hit: 110.0,
            texture_hit_rate: 0.92,
            lat_shared: 2.0,
            issue_cycles: 4.0,
            sfu_issue_factor: 4.0,
            coalesce_segment: 128,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
            max_warps_per_sm: 32,
            max_threads_per_block: 512,
            shared_words_per_sm: 4096, // 16 KiB
            launch_overhead_s: 18e-6,
            pcie_latency_s: 12e-6,
            pcie_bandwidth: 3.0e9,
            engines: EngineConfig::gt200(),
        }
    }

    /// The same silicon with a different engine layout — the overlap
    /// ablation knob (e.g. a GT200 timing model scheduled under
    /// [`EngineConfig::fermi`] queues).
    #[must_use]
    pub fn with_engines(mut self, engines: EngineConfig) -> Self {
        self.engines = engines;
        self
    }

    /// Same silicon but with the SM count the paper states (32); kept so
    /// the reproduction can be run under the paper's own numbers.
    pub fn gtx280_paper() -> Self {
        Self { name: "GTX 280 (paper: 32 SM)", sm_count: 32, ..Self::gtx280() }
    }

    /// NVIDIA 8800 GTX (G80): the previous generation the paper contrasts
    /// (strict coalescing — modeled as 64-byte segments and a lower clock,
    /// no relaxed alignment).
    pub fn g80() -> Self {
        Self {
            name: "8800 GTX (G80, 16 SM)",
            sm_count: 16,
            clock_hz: 1.35e9,
            mem_bandwidth: 86.4e9,
            coalesce_segment: 64,
            max_threads_per_sm: 768,
            max_warps_per_sm: 24,
            texture_hit_rate: 0.9,
            ..Self::gtx280()
        }
    }

    /// Tesla C1060: GT200 with more memory, marginally lower clock.
    pub fn tesla_c1060() -> Self {
        Self {
            name: "Tesla C1060 (GT200, 30 SM)",
            clock_hz: 1.296e9,
            mem_bandwidth: 102.0e9,
            ..Self::gtx280()
        }
    }

    /// Warps needed to run one block of `threads` threads.
    #[inline]
    pub fn warps_per_block(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }
}

/// Static description of the host CPU used as the sequential baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct HostSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Average cycles per abstract ALU op (superscalar x86 ≈ 0.5–1.0; the
    /// evaluation loop is branchy integer code, so we calibrate ~0.8).
    pub cpi_alu: f64,
    /// Cycles per special-function op (sqrt etc.).
    pub cpi_sfu: f64,
    /// Cycles per memory access (instance data is cache-resident for the
    /// paper's sizes; a blend of L1/L2 hits).
    pub cpi_mem: f64,
}

impl HostSpec {
    /// Intel Xeon 3 GHz (the paper's host; it has 8 cores but the paper's
    /// CPU column is a sequential implementation).
    pub fn xeon_3ghz() -> Self {
        Self {
            name: "Xeon 3 GHz (1 core)",
            clock_hz: 3.0e9,
            cpi_alu: 0.8,
            cpi_sfu: 20.0,
            cpi_mem: 1.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx280_peak_throughput_sanity() {
        let d = DeviceSpec::gtx280();
        // Scalar-op throughput: 30 SM × 32 lanes / 4 cycles... i.e. one
        // 32-thread warp instruction per SM per 4 cycles = 8 thread-ops
        // per cycle per SM → 240 ops/cycle → ≈311 G thread-ops/s.
        let ops_per_s = d.sm_count as f64 * d.warp_size as f64 / d.issue_cycles * d.clock_hz;
        assert!((ops_per_s - 311.0e9).abs() / 311.0e9 < 0.01);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let d = DeviceSpec::gtx280();
        assert_eq!(d.warps_per_block(1), 1);
        assert_eq!(d.warps_per_block(32), 1);
        assert_eq!(d.warps_per_block(33), 2);
        assert_eq!(d.warps_per_block(128), 4);
    }

    #[test]
    fn ratio_of_peaks_bounds_observed_speedups() {
        // The paper's best acceleration is ×25.8; the peak-throughput
        // ratio of the modeled parts must exceed that (real kernels are
        // memory/latency bound, so observed < peak).
        let d = DeviceSpec::gtx280();
        let h = HostSpec::xeon_3ghz();
        let gpu = d.sm_count as f64 * d.warp_size as f64 / d.issue_cycles * d.clock_hz;
        let cpu = h.clock_hz / h.cpi_alu;
        assert!(gpu / cpu > 25.8, "peak ratio {} too small", gpu / cpu);
    }

    #[test]
    fn presets_differ_where_documented() {
        assert_eq!(DeviceSpec::gtx280().sm_count, 30);
        assert_eq!(DeviceSpec::gtx280_paper().sm_count, 32);
        assert_eq!(DeviceSpec::g80().coalesce_segment, 64);
        assert!(DeviceSpec::tesla_c1060().mem_bandwidth < DeviceSpec::gtx280().mem_bandwidth);
    }
}
