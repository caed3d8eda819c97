//! Instruction and memory-transaction counting on sampled blocks.
//!
//! The profiler executes a handful of blocks with a context that records,
//! per thread, instruction-class counts and the address trace of every
//! device-memory access. Traces are then aggregated per warp:
//!
//! * the SIMT **issue cost** of a warp is the *maximum* instruction count
//!   over its threads (inactive lanes still occupy issue slots), plus one
//!   extra issue slot per additional memory transaction a divergent /
//!   scattered access generates;
//! * **coalescing** follows the GT200 rule: for every access "site"
//!   (the i-th device access of each thread, grouped across the warp),
//!   the touched 128-byte segments are counted, and each transaction is
//!   shrunk to 64/32 bytes when the warp's footprint within the segment
//!   allows.
//!
//! The per-warp aggregates are averaged and scaled to the full launch by
//! the timing model.
//!
//! Segments, their halves and quarters, and texture-cache lines are
//! powers of two, so the profiler bins addresses with shifts and masks:
//! a site's segments are counted in a 64-bit bitmap beside each one's
//! lowest and highest address (only a site spanning more segments than
//! that is sorted), and the texture cache's sets are flat 4-way arrays.

use crate::memory::MemSpace;

/// Instruction-class counters for one simulated thread.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ThreadCounters {
    /// Scalar ALU instructions.
    pub alu: u64,
    /// Special-function instructions.
    pub sfu: u64,
    /// Branches executed.
    pub branches: u64,
    /// Global-space loads.
    pub ld_global: u64,
    /// Global-space stores.
    pub st_global: u64,
    /// Texture fetches.
    pub ld_texture: u64,
    /// Constant-cache loads.
    pub ld_constant: u64,
    /// Shared-memory accesses (loads + stores).
    pub shared: u64,
    /// Local-memory accesses (per-thread scratch in DRAM).
    pub local: u64,
}

impl ThreadCounters {
    /// Total dynamic instructions as seen by the issue unit (each memory
    /// access is one instruction; transaction replays are added during
    /// warp aggregation).
    #[inline]
    pub fn issue_slots(&self, sfu_issue_factor: f64) -> f64 {
        (self.alu
            + self.branches
            + self.ld_global
            + self.st_global
            + self.ld_texture
            + self.ld_constant
            + self.shared
            + self.local) as f64
            + self.sfu as f64 * sfu_issue_factor
    }

    /// Device-memory accesses that pay DRAM-class latency.
    #[inline]
    pub fn dram_accesses(&self) -> u64 {
        self.ld_global + self.st_global + self.ld_texture + self.local
    }
}

/// One recorded device-memory access (profiling mode only).
#[derive(Copy, Clone, Debug)]
pub struct AccessRec {
    /// Memory space of the buffer.
    pub space: MemSpace,
    /// Access width in bytes (4 or 8).
    pub bytes: u32,
    /// Byte address within the buffer's allocation, offset by a
    /// per-buffer base so distinct buffers never share segments.
    pub addr: u64,
    /// True for stores.
    pub store: bool,
}

/// Everything recorded about one thread during profiling.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Instruction-class counts.
    pub counters: ThreadCounters,
    /// Ordered device-memory access trace.
    pub accesses: Vec<AccessRec>,
    /// Ordered shared-memory cell indices (for bank-conflict analysis).
    pub shared_accesses: Vec<u32>,
    /// Branch outcomes in program order (for divergence estimation).
    pub branch_taken: Vec<bool>,
}

impl ThreadTrace {
    /// Reserve room for as many records of each kind as `other` holds.
    pub(crate) fn reserve_like(&mut self, other: &ThreadTrace) {
        self.accesses.reserve(other.accesses.len().saturating_sub(self.accesses.len()));
        let shared = other.shared_accesses.len().saturating_sub(self.shared_accesses.len());
        self.shared_accesses.reserve(shared);
        self.branch_taken.reserve(other.branch_taken.len().saturating_sub(self.branch_taken.len()));
    }
}

/// Per-launch aggregate fed to the timing model. All `per_*` quantities
/// are averages over the sampled population.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelCounters {
    /// Threads the launch executes in total (grid × block).
    pub total_threads: u64,
    /// Threads actually profiled.
    pub sampled_threads: u64,
    /// Warps actually profiled.
    pub sampled_warps: u64,
    /// Average per-thread instruction counters.
    pub per_thread: ThreadCounters,
    /// Average per-thread counters in floating point (exact means).
    pub per_thread_avg: ThreadAverages,
    /// Mean over warps of the max per-thread issue-slot count — the SIMT
    /// issue cost of one warp, *before* transaction replays.
    pub warp_issue_slots: f64,
    /// Mean extra transactions per warp (beyond the first) summed over
    /// all access sites — the replay cost added to the issue stream.
    pub warp_extra_transactions: f64,
    /// Mean shared-memory bank-conflict replays per warp (GT200: 16
    /// banks per half-warp, broadcast exempt).
    pub warp_bank_conflicts: f64,
    /// Texture-cache hit rate measured by replaying the sampled blocks'
    /// fetch streams through a cache model; `None` when the kernel
    /// issued no texture fetches.
    pub measured_tex_hit: Option<f64>,
    /// Mean DRAM transactions a warp generates (all spaces that reach
    /// DRAM: global + local + texture misses are derated later).
    pub warp_dram_transactions: f64,
    /// Average DRAM bytes per *thread* (after coalescing, before the
    /// texture-hit derating applied by the timing model).
    pub bytes_per_thread: BytesBySpace,
    /// Fraction of branch sites with divergent outcomes within a warp.
    pub divergent_branch_frac: f64,
}

/// Floating-point per-thread means for each instruction class.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ThreadAverages {
    /// ALU instructions.
    pub alu: f64,
    /// Special-function instructions.
    pub sfu: f64,
    /// Branches.
    pub branches: f64,
    /// Global loads.
    pub ld_global: f64,
    /// Global stores.
    pub st_global: f64,
    /// Texture fetches.
    pub ld_texture: f64,
    /// Constant loads.
    pub ld_constant: f64,
    /// Shared accesses.
    pub shared: f64,
    /// Local accesses.
    pub local: f64,
}

/// Post-coalescing DRAM bytes per thread, by space.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BytesBySpace {
    /// Global loads+stores.
    pub global: f64,
    /// Texture fetches (before cache-hit derating).
    pub texture: f64,
    /// Local scratch.
    pub local: f64,
}

/// GT200 coalescing: given the byte addresses one warp issues at one
/// access site, return `(transactions, bytes)` after segment merging.
///
/// Rule (CUDA programming guide, compute capability 1.2/1.3): addresses
/// are binned into aligned 128-byte segments; each touched segment is one
/// transaction, shrunk to 64 or 32 bytes if the warp's footprint inside
/// the segment fits an aligned half/quarter segment.
///
/// # Panics
/// If `segment` is not a power of two.
pub fn coalesce(addrs: &[u64], segment: u32) -> (u64, u64) {
    coalesce_shifted(addrs, segment_shift(segment))
}

/// `log2(segment)`, asserting that the segment is a power of two: every
/// segment, half and quarter is then an aligned run of address bits.
fn segment_shift(segment: u32) -> u32 {
    assert!(
        segment.is_power_of_two(),
        "coalescing segment of {segment} bytes is not a power of two"
    );
    segment.trailing_zeros()
}

/// Segments a site may span and still be binned in one bitmap word.
const BITMAP_SEGMENTS: u64 = 64;

/// [`coalesce`] over segments of `1 << shift` bytes. A site spanning
/// fewer than [`BITMAP_SEGMENTS`] segments is binned into a bitmap with
/// each segment's lowest and highest address; a wider one (several
/// buffers, or a scattered gather) is sorted instead.
fn coalesce_shifted(addrs: &[u64], shift: u32) -> (u64, u64) {
    if addrs.is_empty() {
        return (0, 0);
    }
    let (lo, hi) = addrs.iter().fold((u64::MAX, 0), |(lo, hi), &a| (lo.min(a), hi.max(a)));
    let first = lo >> shift;
    if (hi >> shift) - first >= BITMAP_SEGMENTS {
        return coalesce_sorted(addrs, shift);
    }
    let mut touched = 0u64;
    let (mut lows, mut highs) =
        ([u64::MAX; BITMAP_SEGMENTS as usize], [0u64; BITMAP_SEGMENTS as usize]);
    for &a in addrs {
        let at = ((a >> shift) - first) as usize;
        touched |= 1 << at;
        lows[at] = lows[at].min(a);
        highs[at] = highs[at].max(a);
    }
    let (mut rest, mut bytes) = (touched, 0u64);
    while rest != 0 {
        let at = rest.trailing_zeros() as usize;
        bytes += transaction_bytes(lows[at], highs[at], shift);
        rest &= rest - 1;
    }
    (u64::from(touched.count_ones()), bytes)
}

/// [`coalesce_shifted`] for a site spanning many segments: sort a copy,
/// so that each segment's addresses are one run, whose first is its
/// lowest and whose last is its highest. A warp issues at most 32
/// addresses, so the copy lives on the stack.
fn coalesce_sorted(addrs: &[u64], shift: u32) -> (u64, u64) {
    let mut warp = [0u64; 32];
    let mut wide = Vec::new();
    let sorted: &mut [u64] = match warp.get_mut(..addrs.len()) {
        Some(lanes) => lanes,
        None => {
            wide.resize(addrs.len(), 0);
            &mut wide
        }
    };
    sorted.copy_from_slice(addrs);
    sorted.sort_unstable();
    let (mut transactions, mut bytes) = (0u64, 0u64);
    for group in sorted.chunk_by(|a, b| a >> shift == b >> shift) {
        transactions += 1;
        bytes += transaction_bytes(group[0], group[group.len() - 1], shift);
    }
    (transactions, bytes)
}

/// The transaction serving one segment of `1 << shift` bytes whose
/// lowest and highest addresses are `lo` and `hi`: the segment, shrunk
/// to its aligned quarter or half when that is at least 32 bytes and
/// holds both (they share every address bit above its size).
#[inline]
fn transaction_bytes(lo: u64, hi: u64, shift: u32) -> u64 {
    let segment = 1u64 << shift;
    for size in [segment / 4, segment / 2] {
        if size >= 32 && lo ^ hi < size {
            return size;
        }
    }
    segment
}

/// Aggregate the traces of one warp's threads.
#[derive(Clone, Debug, Default)]
pub struct WarpAggregate {
    /// Max issue slots over the warp's threads.
    pub issue_slots: f64,
    /// Extra transactions beyond one per access site.
    pub extra_transactions: f64,
    /// Shared-memory bank-conflict replays.
    pub bank_conflicts: f64,
    /// DRAM transactions.
    pub dram_transactions: f64,
    /// Post-coalescing bytes by space.
    pub bytes: BytesBySpace,
    /// Branch sites examined / divergent.
    pub branch_sites: u64,
    /// Divergent branch sites.
    pub divergent_sites: u64,
}

/// GT200 shared-memory bank conflicts for one access site: 16 banks of
/// 32-bit words served per *half*-warp; lanes hitting the same bank
/// serialize unless they read the very same address (broadcast). The
/// simulator's shared cells are 64-bit, so cell `i` occupies banks
/// `(2i) % 16` and `(2i+1) % 16` — modeled as bank pair `i % 8`.
///
/// Returns the number of *extra* cycles (replays) beyond a conflict-free
/// access.
pub fn bank_conflict_replays(cells: &[u32]) -> u64 {
    let mut extra = 0u64;
    for half in cells.chunks(16) {
        let mut degree = [0u32; 8];
        let mut seen: Vec<(u32, u32)> = Vec::with_capacity(half.len()); // (cell, count)
        for &c in half {
            match seen.iter_mut().find(|e| e.0 == c) {
                Some(e) => e.1 += 1, // same address: broadcast, no new bank pressure
                None => {
                    seen.push((c, 1));
                    degree[(c % 8) as usize] += 1;
                }
            }
        }
        let worst = degree.iter().copied().max().unwrap_or(0);
        extra += worst.saturating_sub(1) as u64;
    }
    extra
}

/// Ways per texture-cache set.
const WAYS: usize = 4;

/// Replay a texture-fetch stream through a small set-associative cache
/// (GT200-class: ~8 KiB per SM, 32-byte lines, LRU within 4-way sets).
/// Returns `(hits, total)`.
pub struct TextureCacheSim {
    /// `(tag, stamp)` per way; a stamp of 0 marks a way never filled,
    /// and ways fill in order.
    sets: Vec<[(u64, u64); WAYS]>,
    /// `log2(line bytes)`.
    line_shift: u32,
    /// `sets.len() - 1`: the set count is a power of two.
    set_mask: u64,
    stamp: u64,
    hits: u64,
    total: u64,
}

impl TextureCacheSim {
    /// A cache with `capacity_bytes` in `line_bytes` lines, 4-way LRU.
    ///
    /// # Panics
    /// If either size is not a power of two.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
        assert!(
            capacity_bytes.is_power_of_two() && line_bytes.is_power_of_two(),
            "texture cache of {capacity_bytes} bytes in {line_bytes}-byte lines: \
             both sizes must be powers of two"
        );
        let lines = (capacity_bytes / line_bytes).max(WAYS as u64) as usize;
        let sets = lines / WAYS;
        Self {
            sets: vec![[(0, 0); WAYS]; sets],
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stamp: 0,
            hits: 0,
            total: 0,
        }
    }

    /// GT200-sized default: 8 KiB, 32-byte lines.
    pub fn gt200() -> Self {
        Self::new(8 * 1024, 32)
    }

    /// Access one byte address; records hit or miss.
    pub fn access(&mut self, addr: u64) {
        self.total += 1;
        self.stamp += 1;
        let line = addr >> self.line_shift;
        let ways = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(way) = ways.iter_mut().find(|w| w.0 == line && w.1 != 0) {
            way.1 = self.stamp;
            self.hits += 1;
            return;
        }
        // The smallest stamp is the first way never filled, else the
        // least recently used one.
        let mut victim = 0;
        for w in 1..WAYS {
            if ways[w].1 < ways[victim].1 {
                victim = w;
            }
        }
        ways[victim] = (line, self.stamp);
    }

    /// Observed hit rate, `None` before any access.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.total > 0).then(|| self.hits as f64 / self.total as f64)
    }
}

/// Aggregate one warp (≤ 32 thread traces) under the given coalescing
/// segment size and SFU issue factor.
///
/// # Panics
/// If `segment` is not a power of two.
pub fn aggregate_warp(
    traces: &[&ThreadTrace],
    segment: u32,
    sfu_issue_factor: f64,
) -> WarpAggregate {
    let shift = segment_shift(segment);
    let mut agg = WarpAggregate::default();
    if traces.is_empty() {
        return agg;
    }
    agg.issue_slots =
        traces.iter().map(|t| t.counters.issue_slots(sfu_issue_factor)).fold(0.0, f64::max);

    // Group the i-th access of every thread as one SIMT access site.
    let max_sites = traces.iter().map(|t| t.accesses.len()).max().unwrap_or(0);
    let mut addrs: Vec<u64> = Vec::with_capacity(32);
    for site in 0..max_sites {
        addrs.clear();
        let mut space = None;
        for t in traces {
            if let Some(a) = t.accesses.get(site) {
                addrs.push(a.addr);
                space = Some(a.space);
            }
        }
        let Some(space) = space else { continue };
        match space {
            MemSpace::Global => {
                let (trans, bytes) = coalesce_shifted(&addrs, shift);
                agg.extra_transactions += (trans - 1) as f64;
                agg.dram_transactions += trans as f64;
                agg.bytes.global += bytes as f64;
            }
            MemSpace::Texture => {
                let (trans, bytes) = coalesce_shifted(&addrs, shift);
                agg.extra_transactions += (trans - 1) as f64;
                agg.dram_transactions += trans as f64;
                agg.bytes.texture += bytes as f64;
            }
            MemSpace::Constant => {
                // Broadcast-friendly: one transaction if uniform, else one
                // per distinct address (serialized by the constant cache).
                let mut distinct: Vec<u64> = Vec::new();
                for &a in &addrs {
                    if !distinct.contains(&a) {
                        distinct.push(a);
                    }
                }
                agg.extra_transactions += (distinct.len() - 1) as f64;
            }
        }
    }

    // Shared-memory bank conflicts, site by site.
    let max_sh_sites = traces.iter().map(|t| t.shared_accesses.len()).max().unwrap_or(0);
    let mut cells: Vec<u32> = Vec::with_capacity(32);
    for site in 0..max_sh_sites {
        cells.clear();
        for t in traces {
            if let Some(&c) = t.shared_accesses.get(site) {
                cells.push(c);
            }
        }
        agg.bank_conflicts += bank_conflict_replays(&cells) as f64;
    }

    // Local scratch: per-thread arrays are interleaved by the ABI, so a
    // lockstep access coalesces perfectly — one transaction, 4 bytes/lane.
    let local_accesses: u64 = traces.iter().map(|t| t.counters.local).sum();
    let local_sites = traces.iter().map(|t| t.counters.local).max().unwrap_or(0);
    agg.dram_transactions += local_sites as f64;
    agg.bytes.local += (local_accesses * 4) as f64;

    // Divergence: a site is divergent if outcomes differ within the warp.
    let max_branch_sites = traces.iter().map(|t| t.branch_taken.len()).max().unwrap_or(0);
    for site in 0..max_branch_sites {
        let mut any_taken = false;
        let mut any_not = false;
        for t in traces {
            match t.branch_taken.get(site) {
                Some(true) => any_taken = true,
                Some(false) => any_not = true,
                None => any_not = true, // retired lane ≈ not-taken path
            }
        }
        agg.branch_sites += 1;
        if any_taken && any_not {
            agg.divergent_sites += 1;
        }
    }
    agg
}

/// Combine warp aggregates and thread traces into launch-level counters.
pub fn finalize(
    total_threads: u64,
    traces: &[ThreadTrace],
    warps: &[WarpAggregate],
) -> KernelCounters {
    let sampled_threads = traces.len() as u64;
    let sampled_warps = warps.len() as u64;
    let mut k =
        KernelCounters { total_threads, sampled_threads, sampled_warps, ..Default::default() };
    if sampled_threads == 0 {
        return k;
    }
    let inv_t = 1.0 / sampled_threads as f64;
    let mut sum = ThreadCounters::default();
    for t in traces {
        let c = &t.counters;
        sum.alu += c.alu;
        sum.sfu += c.sfu;
        sum.branches += c.branches;
        sum.ld_global += c.ld_global;
        sum.st_global += c.st_global;
        sum.ld_texture += c.ld_texture;
        sum.ld_constant += c.ld_constant;
        sum.shared += c.shared;
        sum.local += c.local;
    }
    k.per_thread = ThreadCounters {
        alu: (sum.alu as f64 * inv_t) as u64,
        sfu: (sum.sfu as f64 * inv_t) as u64,
        branches: (sum.branches as f64 * inv_t) as u64,
        ld_global: (sum.ld_global as f64 * inv_t) as u64,
        st_global: (sum.st_global as f64 * inv_t) as u64,
        ld_texture: (sum.ld_texture as f64 * inv_t) as u64,
        ld_constant: (sum.ld_constant as f64 * inv_t) as u64,
        shared: (sum.shared as f64 * inv_t) as u64,
        local: (sum.local as f64 * inv_t) as u64,
    };
    k.per_thread_avg = ThreadAverages {
        alu: sum.alu as f64 * inv_t,
        sfu: sum.sfu as f64 * inv_t,
        branches: sum.branches as f64 * inv_t,
        ld_global: sum.ld_global as f64 * inv_t,
        st_global: sum.st_global as f64 * inv_t,
        ld_texture: sum.ld_texture as f64 * inv_t,
        ld_constant: sum.ld_constant as f64 * inv_t,
        shared: sum.shared as f64 * inv_t,
        local: sum.local as f64 * inv_t,
    };
    if sampled_warps > 0 {
        let inv_w = 1.0 / sampled_warps as f64;
        k.warp_issue_slots = warps.iter().map(|w| w.issue_slots).sum::<f64>() * inv_w;
        k.warp_extra_transactions = warps.iter().map(|w| w.extra_transactions).sum::<f64>() * inv_w;
        k.warp_bank_conflicts = warps.iter().map(|w| w.bank_conflicts).sum::<f64>() * inv_w;
        k.warp_dram_transactions = warps.iter().map(|w| w.dram_transactions).sum::<f64>() * inv_w;
        k.bytes_per_thread = BytesBySpace {
            global: warps.iter().map(|w| w.bytes.global).sum::<f64>() * inv_t,
            texture: warps.iter().map(|w| w.bytes.texture).sum::<f64>() * inv_t,
            local: warps.iter().map(|w| w.bytes.local).sum::<f64>() * inv_t,
        };
        let sites: u64 = warps.iter().map(|w| w.branch_sites).sum();
        let div: u64 = warps.iter().map(|w| w.divergent_sites).sum();
        k.divergent_branch_frac = if sites > 0 { div as f64 / sites as f64 } else { 0.0 };
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pairwise coalescing `coalesce` replaced: for each distinct
    /// segment, one pass over the warp for its lowest address and one
    /// for its highest.
    fn coalesce_reference(addrs: &[u64], segment: u32) -> (u64, u64) {
        if addrs.is_empty() {
            return (0, 0);
        }
        let seg = segment as u64;
        let mut segs: Vec<u64> = Vec::with_capacity(8);
        for &a in addrs {
            let s = a / seg;
            if !segs.contains(&s) {
                segs.push(s);
            }
        }
        let mut bytes = 0u64;
        for &s in &segs {
            let lo = addrs.iter().filter(|&&a| a / seg == s).min().copied().unwrap();
            let hi = addrs.iter().filter(|&&a| a / seg == s).max().copied().unwrap();
            let mut size = seg;
            for candidate in [seg / 4, seg / 2] {
                if candidate >= 32 && lo / candidate == hi / candidate {
                    size = candidate;
                    break;
                }
            }
            bytes += size;
        }
        (segs.len() as u64, bytes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// 1–32 lanes over at most four segments `stride` segments
        /// apart (so a site spans 1 to 388 segments, either side of the
        /// bitmap's 64), each lane a word within a window of 1 to 32
        /// words at some offset, so a segment's footprint fits 32, 64,
        /// 128 or no shrunk transaction, at segment sizes 32 to 256.
        #[test]
        fn coalesce_matches_the_pairwise_reference(
            lanes in prop::collection::vec((0u64..4, 0u64..32), 1..33),
            first in 0u64..1_000,
            stride in 1u64..130,
            window_log in 0u32..6,
            shift in 0u64..32,
            segment_log in 5u32..9,
        ) {
            let segment = 1u32 << segment_log;
            let seg = segment as u64;
            let window = 1u64 << window_log;
            let addrs: Vec<u64> = lanes
                .iter()
                .map(|&(s, w)| (first + s * stride) * seg + ((shift + w % window) * 4) % seg)
                .collect();
            prop_assert_eq!(coalesce(&addrs, segment), coalesce_reference(&addrs, segment));
        }

        /// The flat 4-way cache against the one it replaced, fetch by
        /// fetch: capacities of 64 B to 8 KiB in 4- to 64-byte lines,
        /// over address ranges from a few lines to many times the
        /// capacity.
        #[test]
        fn texture_cache_matches_the_vec_of_vec_lru(
            capacity_log in 6u32..14,
            line_log in 2u32..7,
            range_log in 4u32..16,
            fetches in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            let (capacity, line) = (1u64 << capacity_log, 1u64 << line_log);
            let mut flat = TextureCacheSim::new(capacity, line);
            let mut oracle = VecLru::new(capacity, line);
            for &f in &fetches {
                let addr = f % (1u64 << range_log);
                flat.access(addr);
                oracle.access(addr);
                prop_assert_eq!((flat.hits, flat.total), (oracle.hits, oracle.total));
            }
            prop_assert_eq!(flat.hit_rate(), oracle.hit_rate());
        }
    }

    /// The texture cache before its sets were flattened: one `Vec` of
    /// `(tag, stamp)` ways per set, grown on a miss until it holds four,
    /// then evicting the smallest stamp.
    struct VecLru {
        sets: Vec<Vec<(u64, u64)>>,
        line_bytes: u64,
        stamp: u64,
        hits: u64,
        total: u64,
    }

    impl VecLru {
        fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
            let lines = (capacity_bytes / line_bytes).max(4) as usize;
            let sets = lines / 4;
            Self {
                sets: vec![Vec::with_capacity(4); sets.max(1)],
                line_bytes,
                stamp: 0,
                hits: 0,
                total: 0,
            }
        }

        fn access(&mut self, addr: u64) {
            self.total += 1;
            self.stamp += 1;
            let line = addr / self.line_bytes;
            let set = (line % self.sets.len() as u64) as usize;
            let ways = &mut self.sets[set];
            if let Some(entry) = ways.iter_mut().find(|e| e.0 == line) {
                entry.1 = self.stamp;
                self.hits += 1;
                return;
            }
            if ways.len() < 4 {
                ways.push((line, self.stamp));
            } else {
                let lru = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(i, _)| i)
                    .expect("non-empty ways");
                ways[lru] = (line, self.stamp);
            }
        }

        fn hit_rate(&self) -> Option<f64> {
            (self.total > 0).then(|| self.hits as f64 / self.total as f64)
        }
    }

    #[test]
    fn texture_cache_line_zero_never_hits_an_empty_way() {
        // Way slots start as tag 0: only a filled way may hit.
        let mut c = TextureCacheSim::new(256, 32);
        c.access(0);
        assert_eq!(c.hits, 0);
        c.access(4);
        assert_eq!(c.hits, 1);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn coalesce_refuses_a_segment_that_is_not_a_power_of_two() {
        coalesce(&[0, 4], 96);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn texture_cache_refuses_sizes_that_are_not_powers_of_two() {
        TextureCacheSim::new(6 * 1024, 32);
    }

    #[test]
    fn coalesce_beyond_a_warp_matches_the_reference() {
        // More lanes than the stack copy holds: binned when they span
        // few segments, sorted on the heap when they span many, or when
        // they hit two buffers (ids in the address bits from 40 up).
        let near: Vec<u64> = (0..80).map(|i| (i * 52) % 700).collect();
        let far: Vec<u64> = (0..80).map(|i| (i * 4_100) % 700_000).collect();
        let buffers: Vec<u64> = (0..32).map(|i| ((1 + i % 2) << 40) | (i * 8)).collect();
        for addrs in [near, far, buffers] {
            for segment in [32, 64, 128, 256] {
                assert_eq!(coalesce(&addrs, segment), coalesce_reference(&addrs, segment));
            }
        }
        assert_eq!(coalesce(&[], 128), (0, 0));
    }

    #[test]
    fn coalesce_contiguous_is_one_transaction() {
        // 32 threads × 4B contiguous from an aligned base: one 128B txn.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(coalesce(&addrs, 128), (1, 128));
    }

    #[test]
    fn coalesce_same_address_shrinks() {
        // All lanes hit one word: one transaction, 32 bytes (min size).
        let addrs = vec![64u64; 32];
        assert_eq!(coalesce(&addrs, 128), (1, 32));
    }

    #[test]
    fn coalesce_strided_explodes() {
        // Stride-128: every lane its own segment.
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        let (trans, bytes) = coalesce(&addrs, 128);
        assert_eq!(trans, 32);
        assert_eq!(bytes, 32 * 32); // each shrunk to 32B
    }

    #[test]
    fn coalesce_half_segment() {
        // 16 contiguous words in the upper half of a segment → 64B txn.
        let addrs: Vec<u64> = (0..16).map(|i| 64 + i * 4).collect();
        assert_eq!(coalesce(&addrs, 128), (1, 64));
    }

    #[test]
    fn coalesce_g80_smaller_segments() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        // 64B segments: the same warp needs two transactions.
        assert_eq!(coalesce(&addrs, 64).0, 2);
    }

    #[test]
    fn warp_issue_is_max_not_sum() {
        let mut a = ThreadTrace::default();
        a.counters.alu = 10;
        let mut b = ThreadTrace::default();
        b.counters.alu = 100;
        let agg = aggregate_warp(&[&a, &b], 128, 4.0);
        assert_eq!(agg.issue_slots, 100.0);
    }

    #[test]
    fn divergence_detection() {
        let a = ThreadTrace { branch_taken: vec![true, true], ..Default::default() };
        let b = ThreadTrace { branch_taken: vec![true, false], ..Default::default() };
        let agg = aggregate_warp(&[&a, &b], 128, 4.0);
        assert_eq!(agg.branch_sites, 2);
        assert_eq!(agg.divergent_sites, 1);
    }

    #[test]
    fn bank_conflicts_distinct_pairs_are_free() {
        // 8 lanes on 8 distinct bank pairs: conflict-free.
        let cells: Vec<u32> = (0..8).collect();
        assert_eq!(bank_conflict_replays(&cells), 0);
        // 16 contiguous 64-bit cells: each pair hit twice → one replay.
        let cells: Vec<u32> = (0..16).collect();
        assert_eq!(bank_conflict_replays(&cells), 1);
    }

    #[test]
    fn bank_conflicts_stride_eight_serializes() {
        // Stride-8 within a half-warp: all lanes hit bank pair 0.
        let cells: Vec<u32> = (0..16).map(|i| i * 8).collect();
        assert_eq!(bank_conflict_replays(&cells), 15);
    }

    #[test]
    fn bank_conflicts_broadcast_is_free() {
        let cells = vec![5u32; 16];
        assert_eq!(bank_conflict_replays(&cells), 0);
    }

    #[test]
    fn bank_conflicts_counted_per_half_warp() {
        // 32 lanes; each half-warp has a 2-way conflict of its own.
        let mut cells: Vec<u32> = (0..16).collect();
        cells.extend(0..16u32);
        assert_eq!(bank_conflict_replays(&cells), 2);
    }

    #[test]
    fn texture_cache_streaming_misses() {
        let mut c = TextureCacheSim::new(256, 32); // 8 lines
        for i in 0..100u64 {
            c.access(i * 32);
        }
        assert_eq!(c.hit_rate().unwrap(), 0.0);
    }

    #[test]
    fn texture_cache_reuse_hits() {
        let mut c = TextureCacheSim::new(256, 32);
        c.access(0);
        for _ in 0..99 {
            c.access(4); // same line as 0
        }
        let rate = c.hit_rate().unwrap();
        assert!((rate - 0.99).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn texture_cache_working_set_behaviour() {
        // Working set fits: near-perfect reuse after the cold pass.
        let mut small = TextureCacheSim::new(1024, 32); // 32 lines
        for _ in 0..10 {
            for i in 0..16u64 {
                small.access(i * 32);
            }
        }
        assert!(small.hit_rate().unwrap() > 0.85);
        // Working set 4x the capacity with LRU + round-robin scan:
        // pathological streaming, hit rate collapses.
        let mut big = TextureCacheSim::new(1024, 32);
        for _ in 0..10 {
            for i in 0..128u64 {
                big.access(i * 32);
            }
        }
        assert!(big.hit_rate().unwrap() < 0.2);
    }

    #[test]
    fn finalize_averages() {
        let mut t1 = ThreadTrace::default();
        t1.counters.alu = 10;
        let mut t2 = ThreadTrace::default();
        t2.counters.alu = 20;
        let k = finalize(64, &[t1, t2], &[]);
        assert_eq!(k.total_threads, 64);
        assert_eq!(k.sampled_threads, 2);
        assert_eq!(k.per_thread.alu, 15);
        assert!((k.per_thread_avg.alu - 15.0).abs() < 1e-12);
    }
}
