//! Property-based tests of the stream-overlap invariants behind the
//! fleet's fused-batch pricing (`price_fused_span`; one iteration is a
//! span of one): a breadth-first schedule's makespan never exceeds the
//! serialized sum of its operations, equals it on the GT200
//! single-engine layout (where nothing inside one dependent fused
//! iteration can overlap), and is strictly smaller for a two-lane fused
//! batch under a Fermi-class layout (dual copy engines overlap the
//! per-lane transfers). The span ledger (`TimeBook::fused_span`) books
//! exactly what the schedule serializes.

use lnls_gpu_sim::{
    price_fused_span, transfer_seconds, DeviceSpec, EngineConfig, LaneIo, LaunchMode, StreamOp,
    TimeBook,
};
use proptest::prelude::*;

const EPS: f64 = 1e-12;

fn lanes_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any breadth-first fused schedule, any engine layout: the makespan
    /// is bounded by the serialized sum, floored by every engine's busy
    /// time, and the serialized sum is exactly the per-op durations.
    #[test]
    fn makespan_bounded_by_serialized(
        shapes in lanes_strategy(),
        kernel_us in 1u64..5_000,
        argmin_us in 0u64..200,
        copy_engines in 1usize..4,
        kernel_slots in 1usize..4,
    ) {
        let spec = DeviceSpec::gtx280()
            .with_engines(EngineConfig { copy_engines, concurrent_kernels: kernel_slots });
        let lanes: Vec<LaneIo> = shapes
            .iter()
            .map(|&(h2d_bytes, d2h_bytes)| LaneIo { h2d_bytes, d2h_bytes })
            .collect();
        let mut kernels = vec![kernel_us as f64 * 1e-6];
        if argmin_us > 0 {
            kernels.push(argmin_us as f64 * 1e-6);
        }
        let sched = price_fused_span(&spec, &lanes, &kernels, 1, LaunchMode::PerIteration);

        prop_assert!(sched.makespan <= sched.serialized + EPS);
        prop_assert!(sched.makespan >= sched.copy_busy / copy_engines as f64 - EPS);
        prop_assert!(sched.makespan >= sched.compute_busy - EPS, "one kernel chain");

        let expect_serialized: f64 = lanes
            .iter()
            .map(|l| transfer_seconds(&spec, l.h2d_bytes) + transfer_seconds(&spec, l.d2h_bytes))
            .sum::<f64>()
            + kernels.iter().map(|k| k + spec.launch_overhead_s).sum::<f64>();
        prop_assert!((sched.serialized - expect_serialized).abs() < EPS);
    }

    /// GT200 layout (one DMA queue, serial kernels): a fused iteration
    /// is one dependent chain through single-capacity engines, so the
    /// makespan *equals* the serialized time — the stream model
    /// reproduces the paper-era serial-sum pricing exactly.
    #[test]
    fn gt200_fused_iteration_cannot_overlap(
        shapes in lanes_strategy(),
        kernel_us in 1u64..5_000,
        with_argmin in any::<bool>(),
    ) {
        let spec = DeviceSpec::gtx280();
        prop_assert_eq!(spec.engines, EngineConfig::gt200());
        let lanes: Vec<LaneIo> = shapes
            .iter()
            .map(|&(h2d_bytes, d2h_bytes)| LaneIo { h2d_bytes, d2h_bytes })
            .collect();
        let mut kernels = vec![kernel_us as f64 * 1e-6];
        if with_argmin {
            kernels.push(2e-6);
        }
        let sched = price_fused_span(&spec, &lanes, &kernels, 1, LaunchMode::PerIteration);
        prop_assert!(
            (sched.makespan - sched.serialized).abs() < EPS,
            "GT200 must serialize the whole fused iteration: makespan {} vs serialized {}",
            sched.makespan,
            sched.serialized
        );
    }

    /// Fermi layout, two fused lanes: the dual copy engines run the two
    /// lanes' uploads (and readbacks) concurrently, so the makespan is
    /// *strictly* below the serialized sum — every transfer carries at
    /// least the PCIe setup latency, so there is always something to
    /// hide.
    #[test]
    fn fermi_two_lane_batch_strictly_overlaps(
        h2d in 0u64..1 << 20,
        d2h in 0u64..1 << 20,
        kernel_us in 1u64..5_000,
    ) {
        let spec = DeviceSpec::gtx280().with_engines(EngineConfig::fermi());
        let lanes = [LaneIo { h2d_bytes: h2d, d2h_bytes: d2h }; 2];
        let kernels = [kernel_us as f64 * 1e-6];
        let sched = price_fused_span(&spec, &lanes, &kernels, 1, LaunchMode::PerIteration);
        prop_assert!(
            sched.makespan < sched.serialized - EPS,
            "two-lane fermi batch must overlap: makespan {} vs serialized {}",
            sched.makespan,
            sched.serialized
        );
        // The overlap is real concurrency, not dropped work: both
        // uploads start before the kernel, both readbacks after it.
        let kernel_start = sched
            .ops
            .iter()
            .find(|o| matches!(o.op, StreamOp::Kernel { .. }))
            .expect("one kernel")
            .start;
        for op in sched.ops.iter().filter(|o| matches!(o.op, StreamOp::H2D { .. })) {
            prop_assert!(op.finish <= kernel_start + EPS);
        }
    }

    /// A multi-iteration span (any engine layout, either launch mode)
    /// never costs more than the same iterations priced back to back:
    /// double-buffered uploads and persistent kernels only relax
    /// constraints. Under `PersistentSpan` the serialized sum drops by
    /// exactly the amortized launch overheads, and the makespan by at
    /// most that plus whatever pipelining hides.
    #[test]
    fn span_makespan_bounded_by_per_iteration_sum(
        shapes in lanes_strategy(),
        kernel_us in 1u64..5_000,
        argmin_us in 0u64..200,
        n in 1usize..6,
        copy_engines in 1usize..4,
        kernel_slots in 1usize..4,
    ) {
        let spec = DeviceSpec::gtx280()
            .with_engines(EngineConfig { copy_engines, concurrent_kernels: kernel_slots });
        let lanes: Vec<LaneIo> = shapes
            .iter()
            .map(|&(h2d_bytes, d2h_bytes)| LaneIo { h2d_bytes, d2h_bytes })
            .collect();
        let mut kernels = vec![kernel_us as f64 * 1e-6];
        if argmin_us > 0 {
            kernels.push(argmin_us as f64 * 1e-6);
        }
        let single = price_fused_span(&spec, &lanes, &kernels, 1, LaunchMode::PerIteration);
        let per = price_fused_span(&spec, &lanes, &kernels, n, LaunchMode::PerIteration);
        let resident = price_fused_span(&spec, &lanes, &kernels, n, LaunchMode::PersistentSpan);
        let bound = n as f64 * single.makespan;
        prop_assert!(
            per.makespan <= bound + EPS,
            "span must never exceed per-iteration pricing: {} vs {}",
            per.makespan,
            bound
        );
        prop_assert!(resident.makespan <= per.makespan + EPS, "residency never hurts");
        let amortized = (n - 1) as f64 * kernels.len() as f64 * spec.launch_overhead_s;
        prop_assert!((per.serialized - resident.serialized - amortized).abs() < EPS);
        prop_assert!(per.makespan - resident.makespan <= amortized + EPS);
    }

    /// Fermi layout, ≥2 fused lanes, n ≥ 2 iterations: cross-iteration
    /// pipelining is a *strict* win — the next iteration's uploads
    /// always overlap something (kernel, readback, or the other lane's
    /// transfers), so the span beats n back-to-back fused iterations.
    #[test]
    fn fermi_multi_iteration_span_strictly_pipelines(
        h2d in 0u64..1 << 20,
        d2h in 0u64..1 << 20,
        kernel_us in 1u64..5_000,
        n in 2usize..6,
        persistent in any::<bool>(),
    ) {
        let spec = DeviceSpec::gtx280().with_engines(EngineConfig::fermi());
        let lanes = [LaneIo { h2d_bytes: h2d, d2h_bytes: d2h }; 2];
        let kernels = [kernel_us as f64 * 1e-6];
        let mode =
            if persistent { LaunchMode::PersistentSpan } else { LaunchMode::PerIteration };
        let single = price_fused_span(&spec, &lanes, &kernels, 1, LaunchMode::PerIteration);
        let span = price_fused_span(&spec, &lanes, &kernels, n, mode);
        prop_assert!(
            span.makespan < n as f64 * single.makespan - EPS,
            "a {}-iteration fermi span must strictly pipeline: {} vs {}",
            n,
            span.makespan,
            n as f64 * single.makespan
        );
    }

    /// The span ledger books what the span schedules: any lanes, kernel
    /// chain, span length, launch mode and engine layout — its GPU total
    /// is the schedule's serialized sum, bytes are `n` times the lanes',
    /// launches are one per kernel position per iteration (or per span
    /// when resident), and the overhead it reports saved is exactly the
    /// launches it did not charge.
    #[test]
    fn span_ledger_books_what_the_span_serializes(
        shapes in lanes_strategy(),
        kernel_us in 1u64..5_000,
        argmin_us in 0u64..200,
        n in 1usize..9,
        persistent in any::<bool>(),
        (copy_engines, kernel_slots) in (1usize..4, 1usize..4),
    ) {
        let spec = DeviceSpec::gtx280()
            .with_engines(EngineConfig { copy_engines, concurrent_kernels: kernel_slots });
        let lanes: Vec<LaneIo> = shapes
            .iter()
            .map(|&(h2d_bytes, d2h_bytes)| LaneIo { h2d_bytes, d2h_bytes })
            .collect();
        let mut kernels = vec![kernel_us as f64 * 1e-6];
        if argmin_us > 0 {
            kernels.push(argmin_us as f64 * 1e-6);
        }
        let mode =
            if persistent { LaunchMode::PersistentSpan } else { LaunchMode::PerIteration };
        let sched = price_fused_span(&spec, &lanes, &kernels, n, mode);
        let (book, saved) = TimeBook::fused_span(&spec, &lanes, &kernels, 0.0, n as u64, mode);

        let total = book.gpu_total_s();
        prop_assert!(
            (total - sched.serialized).abs() <= 1e-12 * sched.serialized,
            "ledger {} vs serialized {}",
            total,
            sched.serialized
        );
        let n = n as u64;
        prop_assert_eq!(book.bytes_h2d, n * lanes.iter().map(|l| l.h2d_bytes).sum::<u64>());
        prop_assert_eq!(book.bytes_d2h, n * lanes.iter().map(|l| l.d2h_bytes).sum::<u64>());
        let positions = kernels.len() as u64;
        let launches = if persistent { positions } else { positions * n };
        prop_assert_eq!(book.launches, launches);
        let expect_saved = (n * positions - book.launches) as f64 * spec.launch_overhead_s;
        prop_assert!((saved - expect_saved).abs() < EPS, "saved {} vs {}", saved, expect_saved);
    }
}
