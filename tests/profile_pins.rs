//! The kernel profiler, pinned exactly.
//!
//! Each case builds a fresh [`Device`], so its first `ExecMode::Auto`
//! launch runs the profiling pass: trace the sampled blocks, aggregate
//! them warp by warp (coalescing, bank conflicts, divergence) and replay
//! their texture fetches through the cache model. The case keeps the
//! length and the FNV-1a digest of `format!("{:?}", report.counters)`,
//! so any change to a count, a transaction, a byte or the measured hit
//! rate moves a digest. Every case runs on GT200 (128-byte segments)
//! and on G80 (64-byte segments).
//!
//! The digests are recorded constants: a change to the profiler that
//! keeps the modeled figures reproduces them exactly. On a mismatch the
//! test prints every case's row as it now reads.

use lnls::core::{BitString, IncrementalEval};
use lnls::gpu::reduce::MinReduceKernel;
use lnls::gpu::{
    Device, DeviceBuffer, DeviceSpec, Dim3, ExecMode, Kernel, LaunchConfig, LaunchReport, MemSpace,
    ThreadCtx,
};
use lnls::neighborhood::binomial;
use lnls::ppp::{Ppp, PppEvalKernel, PppEvalKernelShared, PppInstance};
use lnls::problems::OneMaxEvalKernel;
use lnls::qap::{Permutation, QapInstance, QapSwapKernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(case, device, (Debug bytes hashed, FNV-1a digest))`.
type Pinned = (&'static str, &'static str, (usize, u64));

const PINNED: [Pinned; 16] = [
    ("qap-n10", "gt200", (678, 0x08e2_2541_410f_66ff)),
    ("qap-n10", "g80", (680, 0x474e_a205_c5b2_443d)),
    ("qap-n12", "gt200", (673, 0x50a1_32e2_a7d7_cd98)),
    ("qap-n12", "g80", (672, 0xe81c_5f4d_6e45_b96f)),
    ("qap-n40", "gt200", (679, 0x9dfe_29f6_ce0e_8f22)),
    ("qap-n40", "g80", (680, 0xa710_addf_03d7_4b01)),
    ("ppp-k2", "gt200", (715, 0x5202_47ab_d64f_93fc)),
    ("ppp-k2", "g80", (718, 0xd87a_b863_354d_f33c)),
    ("ppp-k2-shared", "gt200", (732, 0x8367_c2f2_94d0_84a4)),
    ("ppp-k2-shared", "g80", (729, 0x66be_e073_1930_b427)),
    ("onemax-k2", "gt200", (618, 0xf27f_fafe_182e_8bfd)),
    ("onemax-k2", "g80", (618, 0x169e_4799_28fb_f7a9)),
    ("device-min", "gt200", (650, 0x0872_dbcc_d661_da12)),
    ("device-min", "g80", (650, 0x03f8_b1b0_9746_2f0e)),
    ("qap-n12-bs32", "gt200", (695, 0x9b0d_dbc0_a00c_ed95)),
    ("qap-n12-bs32", "g80", (695, 0x0222_8dfd_40ab_99c2)),
];

/// 64-bit FNV-1a over `text`, with its length.
fn fnv1a(text: &str) -> (usize, u64) {
    let hash = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    (text.len(), hash)
}

fn spec(device: &str) -> DeviceSpec {
    match device {
        "gt200" => DeviceSpec::gtx280(),
        "g80" => DeviceSpec::g80(),
        other => panic!("no device preset {other}"),
    }
}

/// The swap-delta kernel over a random `n`-facility instance, one
/// thread per swap in blocks of `block` threads.
fn qap(dev: &mut Device, n: usize, block: u32) -> LaunchReport {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let inst = QapInstance::random_uniform(&mut rng, n);
    let p = Permutation::random(&mut rng, n);
    let msize = binomial(n as u64, 2);
    let kernel = QapSwapKernel {
        n: n as u32,
        msize,
        f: dev.upload_new(inst.flows(), MemSpace::Texture, "f"),
        d: dev.upload_new(inst.dists(), MemSpace::Texture, "d"),
        p: dev.upload_new(p.as_slice(), MemSpace::Global, "p"),
        out: dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "out"),
    };
    dev.launch(&kernel, LaunchConfig::cover_1d(msize, block), ExecMode::Auto)
}

/// The PPP 2-Hamming kernel on a 31×41 instance (820 moves, 7 blocks of
/// which 4 are sampled), with `Y` in global memory or staged in shared
/// memory.
fn ppp(dev: &mut Device, shared: bool) -> LaunchReport {
    let (m, n) = (31, 41);
    let problem = Ppp::new(PppInstance::generate(m, n, 5));
    let s = BitString::random(&mut StdRng::seed_from_u64(5), n);
    let state = problem.init_state(&s);
    let msize = binomial(n as u64, 2);
    let vbits: Vec<u32> = s.words().iter().flat_map(|&w| [w as u32, (w >> 32) as u32]).collect();
    let kernel = PppEvalKernel {
        k: 2,
        n: n as u32,
        m: m as u32,
        msize,
        base_index: 0,
        wpc32: (problem.inst.a.words_per_col() * 2) as u32,
        a_cols: dev.upload_new(&problem.inst.a.cols_as_u32(), MemSpace::Texture, "a"),
        vbits: dev.upload_new(&vbits, MemSpace::Global, "v"),
        y: dev.upload_new(&state.y, MemSpace::Global, "y"),
        hist_target: dev.upload_new(&problem.inst.target_hist, MemSpace::Texture, "ht"),
        hist_cur: dev.upload_new(&state.hist, MemSpace::Global, "hc"),
        out: dev.alloc_zeroed::<i32>(msize as usize, MemSpace::Global, "f"),
        neg_base: state.neg_cost,
        hist_base: state.hist_cost,
    };
    let cfg = LaunchConfig::cover_1d(msize, 128);
    if shared {
        let staged = PppEvalKernelShared { inner: kernel };
        dev.launch(&staged, cfg.with_shared_words(2 * m as u32), ExecMode::Auto)
    } else {
        dev.launch(&kernel, cfg, ExecMode::Auto)
    }
}

/// The OneMax 2-Hamming kernel at n = 40 (780 moves).
fn onemax(dev: &mut Device) -> LaunchReport {
    let n = 40;
    let s = BitString::random(&mut StdRng::seed_from_u64(40), n);
    let vbits: Vec<u32> = s.words().iter().flat_map(|&w| [w as u32, (w >> 32) as u32]).collect();
    let msize = binomial(n as u64, 2);
    let kernel = OneMaxEvalKernel {
        k: 2,
        n: n as u32,
        msize,
        vbits: dev.upload_new(&vbits, MemSpace::Global, "v"),
        fit_base: s.count_ones() as i64,
        out: dev.alloc_zeroed::<i64>(msize as usize, MemSpace::Global, "out"),
    };
    dev.launch(&kernel, LaunchConfig::cover_1d(msize, 128), ExecMode::Auto)
}

/// The block min-reduction `reduce::device_min` launches, over 5,000
/// random keys in 20 blocks of 256 threads: a strided load, then eight
/// shared-memory tree phases.
fn device_min(dev: &mut Device) -> LaunchReport {
    let n = 5_000u64;
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect();
    let blocks = n.div_ceil(256).min(4 * dev.spec().sm_count as u64) as u32;
    let kernel = MinReduceKernel {
        input: dev.upload_new(&keys, MemSpace::Global, "keys"),
        output: dev.alloc_zeroed::<u64>(blocks as usize, MemSpace::Global, "minima"),
        n,
    };
    let cfg = LaunchConfig { grid: Dim3::x(blocks), block: Dim3::x(256), shared_words: 512 };
    dev.launch(&kernel, cfg, ExecMode::Auto)
}

fn profile(case: &str, device: &str) -> LaunchReport {
    let mut dev = Device::new(spec(device));
    match case {
        "qap-n10" => qap(&mut dev, 10, 128),
        "qap-n12" => qap(&mut dev, 12, 128),
        "qap-n40" => qap(&mut dev, 40, 128),
        "qap-n12-bs32" => qap(&mut dev, 12, 32),
        "ppp-k2" => ppp(&mut dev, false),
        "ppp-k2-shared" => ppp(&mut dev, true),
        "onemax-k2" => onemax(&mut dev),
        "device-min" => device_min(&mut dev),
        other => panic!("no case {other}"),
    }
}

#[test]
fn first_launch_counters_match_the_pinned_profile() {
    let mut rows = Vec::new();
    let mut moved = false;
    for (case, device, pin) in PINNED {
        let report = profile(case, device);
        assert!(report.profiled && report.counters.sampled_threads > 0, "{case} on {device}");
        let (len, hash) = fnv1a(&format!("{:?}", report.counters));
        moved |= (len, hash) != pin;
        rows.push(format!(
            "(\"{case}\", \"{device}\", ({len}, 0x{hash:016x})),{}",
            if (len, hash) != pin { " // moved" } else { "" }
        ));
    }
    assert!(!moved, "kernel profiles moved:\n{}", rows.join("\n"));
}

/// Thread 0 of each block adds one to its block's slot: run once, a
/// slot reads 1; run twice, 2.
struct BumpOncePerBlock {
    out: DeviceBuffer<i32>,
}

impl Kernel for BumpOncePerBlock {
    fn name(&self) -> &'static str {
        "bump_once_per_block"
    }

    fn run<C: ThreadCtx>(&self, ctx: &mut C, _phase: u32) {
        let id = ctx.id();
        if ctx.branch(id.thread == 0) {
            let v = ctx.ld(&self.out, id.block as usize);
            ctx.alu(1);
            ctx.st(&self.out, id.block as usize, v + 1);
        }
    }
}

/// A profiled launch runs each block exactly once: the blocks the
/// profiler traced are not run again, the rest of a larger grid runs
/// once too, and a launch whose every block is sampled (at most four)
/// counts exactly what a full trace counts.
#[test]
fn a_profiled_launch_runs_each_block_once() {
    for blocks in 1..=9u32 {
        let cfg = LaunchConfig { grid: Dim3::x(blocks), block: Dim3::x(64), shared_words: 0 };
        let launch = |mode| {
            let mut dev = Device::new(DeviceSpec::gtx280());
            let out = dev.alloc_zeroed::<i32>(blocks as usize, MemSpace::Global, "out");
            let report = dev.launch(&BumpOncePerBlock { out: out.clone() }, cfg, mode);
            (dev.download(&out), report)
        };
        let (auto_out, auto) = launch(ExecMode::Auto);
        let (trace_out, trace) = launch(ExecMode::Trace);
        assert_eq!(auto_out, vec![1; blocks as usize], "Auto over {blocks} blocks");
        assert_eq!(trace_out, vec![1; blocks as usize], "Trace over {blocks} blocks");
        if blocks <= 4 {
            assert_eq!(auto.counters, trace.counters, "{blocks} blocks");
        }
    }
}
