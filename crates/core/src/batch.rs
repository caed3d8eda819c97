//! Fused neighborhood evaluation for co-scheduled searches, priced
//! through the stream/event model.
//!
//! The paper wins by making each kernel launch *large* — thousands of
//! neighbors per iteration amortize the launch overhead and PCIe
//! latency that dominate small launches. A fleet serving many concurrent
//! searches can apply the same lever one level up: when several walks
//! share a problem family and neighborhood, their per-iteration
//! evaluations are independent and can ride in **one** fused launch —
//! one kernel covering `Σ mᵢ` threads — instead of `B` small launches
//! each paying its own overhead.
//!
//! [`BatchedExplorer`] implements that fusion over the simulated-device
//! cost model. Functionally it evaluates every lane exactly like
//! [`SequentialExplorer`](crate::explore::SequentialExplorer), with one
//! [`IncrementalEval::eval_range`] call over the lane's full
//! neighborhood (a problem's flat row kernel when it has one) — the
//! fitness vectors, and therefore the moves a driver selects from them,
//! are bit-for-bit those of a solo run. Only the *pricing* differs, and
//! it is no longer a serial sum: the iterations between
//! [`BatchedExplorer::begin_span`] and [`BatchedExplorer::finish_span`]
//! are lowered to one **breadth-first stream schedule**
//! ([`price_fused_span`] — per-lane async H2D copies, the fused kernel
//! chain gated on them by events, per-lane D2H readbacks; a single
//! iteration is a span of one) and the walk is charged the schedule's
//! **makespan** under the device's engine layout
//! ([`DeviceSpec::engines`]). On the paper's GT200 (one DMA queue, one
//! kernel at a time) nothing inside the dependent iteration can overlap,
//! so a span of one costs the serial sum; layouts with more engines
//! ([`EngineConfig::fermi`](lnls_gpu_sim::EngineConfig::fermi)) overlap
//! the per-lane copies against each other and the makespan prices the
//! win. The [`TimeBook`] keeps recording per-component busy time
//! ([`TimeBook::fused_span`]; its total is the serialized cost, the
//! makespan is what the fleet clock advances by), and
//! [`BatchedExplorer::overlap_factor`] reports the cumulative
//! serialized-over-makespan ratio.
//!
//! Selection is a second knob, and it is **per lane**
//! ([`BatchLane::selection`]): when any lane selects
//! [`SelectionMode::DeviceArgmin`](lnls_gpu_sim::SelectionMode), the
//! schedule appends the on-device argmin reduction
//! ([`argmin_kernel_seconds`], keyed over exactly the opted-in lanes'
//! segments) to the kernel chain and shrinks *those* lanes' readbacks
//! from `m·8` bytes to one packed `(fitness, index)` record — so a
//! per-job override keeps its pricing even inside a mixed fused batch.
//! Pricing-only, exactly like the rest of this module (see
//! `lnls_gpu_sim::reduce`).
//!
//! Cost shapes come from [`LaneProfile`], the same analytic quantities
//! [`IterationProfile`] uses for multi-walk stream pricing, so solo and
//! fused runs are priced with one consistent model.

use crate::bitstring::BitString;
use crate::problem::IncrementalEval;
use lnls_gpu_sim::{
    argmin_kernel_seconds, price_fused_span, DeviceSpec, HostSpec, IterationProfile, LaneIo,
    LaunchMode, SelectionMode, TimeBook, ARGMIN_RECORD_BYTES,
};
use lnls_neighborhood::Neighborhood;
use std::time::{Duration, Instant};

/// Per-iteration cost shape of one search lane on a device: what one
/// neighborhood evaluation moves over PCIe and burns in compute.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LaneProfile {
    /// Bytes uploaded per iteration (solution bits + incremental state).
    pub h2d_bytes: u64,
    /// Bytes read back per iteration (the fitness array).
    pub d2h_bytes: u64,
    /// Modeled kernel seconds per iteration (excluding launch overhead).
    pub kernel_seconds: f64,
    /// Modeled sequential-host seconds for the same evaluation (the
    /// paper's CPU column; feeds speedup reporting).
    pub host_seconds: f64,
}

impl LaneProfile {
    /// Analytic shape of the paper's `MoveIncrEvalKernel` pattern for a
    /// `k`-Hamming neighborhood of `m` moves on an `n`-bit problem whose
    /// incremental state re-uploads `state_bytes` per iteration.
    ///
    /// The per-neighbor work is modeled as `unrank + k incremental
    /// updates` — `12 + 18·k` abstract ops, the op count of the generic
    /// kernels in `lnls-problems::gpu` to within a small factor. Device
    /// throughput uses the issue model of [`DeviceSpec`] derated to 25 %
    /// of peak (the memory-bound regime every measured kernel of this
    /// workspace lands in); host throughput uses [`HostSpec`] CPIs.
    pub fn incremental_eval(
        spec: &DeviceSpec,
        host: &HostSpec,
        m: u64,
        k: usize,
        n: usize,
        state_bytes: u64,
    ) -> Self {
        let ops_per_neighbor = 12.0 + 18.0 * k as f64;
        let peak_ops =
            spec.sm_count as f64 * spec.warp_size as f64 / spec.issue_cycles * spec.clock_hz;
        let device_ops = peak_ops * 0.25;
        let host_ops = host.clock_hz / (host.cpi_alu.max(f64::EPSILON) * 1.5);
        Self {
            h2d_bytes: (n as u64).div_ceil(8) + state_bytes,
            d2h_bytes: m * std::mem::size_of::<i64>() as u64,
            kernel_seconds: m as f64 * ops_per_neighbor / device_ops,
            host_seconds: m as f64 * ops_per_neighbor / host_ops,
        }
    }

    /// The synchronous solo cost of one iteration: own upload (with PCIe
    /// latency), own launch overhead, kernel, own readback.
    pub fn solo_seconds(&self, spec: &DeviceSpec) -> f64 {
        IterationProfile {
            h2d_bytes: self.h2d_bytes,
            kernel_seconds: self.kernel_seconds,
            d2h_bytes: self.d2h_bytes,
        }
        .serial_seconds(spec)
    }
}

/// One search walk's slice of a fused evaluation.
pub struct BatchLane<'a, P: IncrementalEval> {
    /// The lane's problem instance (lanes share a *family*, not
    /// necessarily an instance).
    pub problem: &'a P,
    /// Current solution.
    pub s: &'a BitString,
    /// Incremental state of `s`.
    pub state: &'a mut P::State,
    /// Receives the lane's fitness vector, index-aligned with the
    /// explorer's neighborhood enumeration.
    pub out: &'a mut Vec<i64>,
    /// The lane's per-iteration cost shape.
    pub profile: LaneProfile,
    /// How *this lane's* readback is priced. Selection is per lane, not
    /// per group: the fused argmin kernel reduces only the opted-in
    /// lanes' segments of the fitness buffer, so jobs overriding the
    /// fleet default keep their pricing even inside a mixed fused batch.
    pub selection: SelectionMode,
}

/// What one priced span of fused iterations cost (see
/// [`BatchedExplorer::finish_span`]).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SpanPricing {
    /// Stream makespan of the whole span (the seconds the fleet clock
    /// advances by).
    pub makespan_s: f64,
    /// Serialized back-to-back cost of the same operations.
    pub serialized_s: f64,
    /// Launch overhead amortized away relative to re-launching every
    /// iteration (nonzero only under [`LaunchMode::PersistentSpan`]).
    pub overhead_saved_s: f64,
    /// Fused iterations the span covered.
    pub iterations: u64,
    /// Kernel launches actually charged (once per kernel position per
    /// iteration, or once per kernel position per span when resident).
    pub launches: u64,
}

/// In-flight accumulation of one multi-iteration span (between
/// [`BatchedExplorer::begin_span`] and
/// [`BatchedExplorer::finish_span`]).
struct SpanState {
    mode: LaunchMode,
    io: Vec<LaneIo>,
    kernels: Vec<f64>,
    iterations: u64,
    host_s: f64,
}

/// Evaluates the neighborhoods of many co-scheduled walks in one fused
/// simulated launch. See the module docs for semantics.
pub struct BatchedExplorer<N: Neighborhood> {
    hood: N,
    spec: DeviceSpec,
    book: TimeBook,
    fused_launches: u64,
    lanes_evaluated: u64,
    stream_makespan_s: f64,
    stream_serialized_s: f64,
    span: Option<SpanState>,
    wall: Duration,
}

impl<N: Neighborhood> BatchedExplorer<N> {
    /// A fused evaluator for `hood` priced against `spec`. Each lane
    /// declares its own [`SelectionMode`] ([`BatchLane::selection`]).
    pub fn new(hood: N, spec: DeviceSpec) -> Self {
        Self {
            hood,
            spec,
            book: TimeBook::default(),
            fused_launches: 0,
            lanes_evaluated: 0,
            stream_makespan_s: 0.0,
            stream_serialized_s: 0.0,
            span: None,
            wall: Duration::ZERO,
        }
    }

    /// The neighborhood all lanes share.
    pub fn hood(&self) -> &N {
        &self.hood
    }

    /// The device spec the ledger prices against.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Functionally evaluate every lane and return the iteration's cost
    /// shape: per-lane PCIe traffic, the kernel chain, and the summed
    /// host seconds. The fitness vectors are identical to a solo run's
    /// whatever the span length (fusion and spans are pricing-only).
    fn eval_lanes<P: IncrementalEval>(
        &mut self,
        lanes: &mut [BatchLane<'_, P>],
    ) -> (Vec<LaneIo>, Vec<f64>, f64) {
        assert!(!lanes.is_empty(), "cannot fuse an empty batch");
        let t0 = Instant::now();
        let m = self.hood.size();

        let mut kernel_s = 0.0f64;
        let mut host_s = 0.0f64;
        let mut argmin_keys = 0u64;
        let mut io = Vec::with_capacity(lanes.len());
        for lane in lanes.iter_mut() {
            lane.out.resize(m as usize, 0);
            lane.problem.eval_range(lane.state, lane.s, &self.hood, 0, lane.out);
            // A one-key reduction cannot shrink the readback it gates
            // on, so degenerate neighborhoods stay on the host path.
            let device_argmin = lane.selection.is_device() && m > 1;
            let d2h_bytes =
                if device_argmin { ARGMIN_RECORD_BYTES } else { lane.profile.d2h_bytes };
            if device_argmin {
                argmin_keys += m;
            }
            io.push(LaneIo { h2d_bytes: lane.profile.h2d_bytes, d2h_bytes });
            kernel_s += lane.profile.kernel_seconds;
            host_s += lane.profile.host_seconds;
        }

        let mut kernels = vec![kernel_s];
        if argmin_keys > 0 {
            kernels.push(argmin_kernel_seconds(&self.spec, argmin_keys));
        }
        self.lanes_evaluated += lanes.len() as u64;
        self.wall += t0.elapsed();
        (io, kernels, host_s)
    }

    /// Open a multi-iteration span under `mode`. Subsequent
    /// [`explore_span`](Self::explore_span) calls accumulate iterations;
    /// [`finish_span`](Self::finish_span) prices them as **one**
    /// double-buffered stream schedule
    /// ([`price_fused_span`]) instead of one schedule per iteration.
    ///
    /// # Panics
    /// Panics if a span is already open.
    pub fn begin_span(&mut self, mode: LaunchMode) {
        assert!(self.span.is_none(), "a span is already open");
        self.span = Some(SpanState {
            mode,
            io: Vec::new(),
            kernels: Vec::new(),
            iterations: 0,
            host_s: 0.0,
        });
    }

    /// Evaluate one iteration of the open span: every lane's `out`
    /// vector is filled with exactly the values a solo
    /// [`SequentialExplorer`](crate::explore::SequentialExplorer) run
    /// would produce, and pricing is deferred to
    /// [`finish_span`](Self::finish_span). Every iteration of a span
    /// must share one cost shape — group membership is fixed for the
    /// span's duration. The fused kernel chain is the evaluation kernel
    /// (overhead once per launch — the amortization lever), plus the
    /// argmin reduction when any lane selects
    /// [`SelectionMode::DeviceArgmin`] (it reduces exactly those lanes'
    /// segments).
    ///
    /// # Panics
    /// Panics if no span is open, or if the iteration's cost shape
    /// differs from the span's first iteration.
    pub fn explore_span<P: IncrementalEval>(&mut self, lanes: &mut [BatchLane<'_, P>]) {
        let (io, kernels, host_s) = self.eval_lanes(lanes);
        let span = self.span.as_mut().expect("explore_span outside begin_span/finish_span");
        if span.iterations == 0 {
            span.io = io;
            span.kernels = kernels;
        } else {
            assert_eq!(span.io, io, "span iterations must share one I/O shape");
            assert_eq!(span.kernels, kernels, "span iterations must share one kernel chain");
        }
        span.iterations += 1;
        span.host_s += host_s;
    }

    /// Close the open span: lower its iterations into one breadth-first
    /// double-buffered stream schedule, charge the ledger, and return
    /// the pricing. A span that accumulated zero iterations books
    /// nothing and returns a zeroed [`SpanPricing`].
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn finish_span(&mut self) -> SpanPricing {
        let span = self.span.take().expect("finish_span without begin_span");
        if span.iterations == 0 {
            return SpanPricing::default();
        }
        let n = span.iterations;
        let sched = price_fused_span(&self.spec, &span.io, &span.kernels, n as usize, span.mode);
        let (book, overhead_saved_s) =
            TimeBook::fused_span(&self.spec, &span.io, &span.kernels, span.host_s, n, span.mode);
        self.book.add(&book);
        // One fused launch per charged kernel-chain issue: a persistent
        // span issues once for all its iterations.
        self.fused_launches += match span.mode {
            LaunchMode::PerIteration => n,
            LaunchMode::PersistentSpan => 1,
        };
        self.stream_makespan_s += sched.makespan;
        self.stream_serialized_s += sched.serialized;
        SpanPricing {
            makespan_s: sched.makespan,
            serialized_s: sched.serialized,
            overhead_saved_s,
            iterations: n,
            launches: book.launches,
        }
    }

    /// Accumulated fused-launch ledger.
    pub fn book(&self) -> &TimeBook {
        &self.book
    }

    /// Cumulative stream-schedule makespan actually charged (seconds).
    pub fn stream_makespan_s(&self) -> f64 {
        self.stream_makespan_s
    }

    /// Cumulative serialized cost of the same operations back-to-back
    /// (seconds) — the synchronous baseline the makespan is measured
    /// against.
    pub fn stream_serialized_s(&self) -> f64 {
        self.stream_serialized_s
    }

    /// Cumulative overlap win: serialized time over makespan (≥ 1;
    /// exactly 1 on single-engine layouts, where nothing inside a fused
    /// iteration can overlap).
    pub fn overlap_factor(&self) -> f64 {
        if self.stream_makespan_s > 0.0 {
            self.stream_serialized_s / self.stream_makespan_s
        } else {
            1.0
        }
    }

    /// Fused launches issued.
    pub fn fused_launches(&self) -> u64 {
        self.fused_launches
    }

    /// Launches a solo-per-lane schedule would have issued for the same
    /// work (one per lane per fused launch) — the amortization headline.
    pub fn launches_saved(&self) -> u64 {
        self.lanes_evaluated.saturating_sub(self.fused_launches)
    }

    /// Wall-clock spent evaluating (simulation cost, not modeled time).
    pub fn wall(&self) -> Duration {
        self.wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Explorer, SequentialExplorer};
    use crate::problem::testutil::ZeroCount;
    use crate::problem::IncrementalEval;
    use lnls_gpu_sim::transfer_seconds;
    use lnls_neighborhood::KHamming;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile(spec: &DeviceSpec, m: u64) -> LaneProfile {
        LaneProfile::incremental_eval(spec, &HostSpec::xeon_3ghz(), m, 2, 24, 16)
    }

    /// One fused iteration — a span of one — returning its makespan.
    fn explore_once<P: IncrementalEval>(
        batch: &mut BatchedExplorer<KHamming>,
        lanes: &mut [BatchLane<'_, P>],
    ) -> f64 {
        batch.begin_span(LaunchMode::PerIteration);
        batch.explore_span(lanes);
        batch.finish_span().makespan_s
    }

    #[test]
    fn fused_results_match_sequential_per_lane() {
        let spec = DeviceSpec::gtx280();
        let hood = KHamming::new(24, 2);
        let p1 = ZeroCount { n: 24 };
        let p2 = ZeroCount { n: 24 };
        let mut rng = StdRng::seed_from_u64(1);
        let s1 = BitString::random(&mut rng, 24);
        let s2 = BitString::random(&mut rng, 24);
        let mut st1 = p1.init_state(&s1);
        let mut st2 = p2.init_state(&s2);
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        let prof = profile(&spec, hood.size());

        let mut batch = BatchedExplorer::new(hood, spec.clone());
        let mut lanes = [
            BatchLane {
                problem: &p1,
                s: &s1,
                state: &mut st1,
                out: &mut o1,
                profile: prof,
                selection: SelectionMode::HostArgmin,
            },
            BatchLane {
                problem: &p2,
                s: &s2,
                state: &mut st2,
                out: &mut o2,
                profile: prof,
                selection: SelectionMode::HostArgmin,
            },
        ];
        let fused_s = explore_once(&mut batch, &mut lanes);
        assert!(fused_s > 0.0);

        for (s, o) in [(&s1, &o1), (&s2, &o2)] {
            let mut seq = SequentialExplorer::new(hood);
            let mut st = ZeroCount { n: 24 }.init_state(s);
            let mut expect = Vec::new();
            Explorer::<ZeroCount>::explore(&mut seq, &ZeroCount { n: 24 }, s, &mut st, &mut expect);
            assert_eq!(o, &expect);
        }
    }

    #[test]
    fn fusing_beats_solo_launches() {
        let spec = DeviceSpec::gtx280();
        let hood = KHamming::new(24, 2);
        let m = hood.size();
        let prof = profile(&spec, m);
        let p = ZeroCount { n: 24 };
        let mut rng = StdRng::seed_from_u64(2);
        let solutions: Vec<BitString> = (0..8).map(|_| BitString::random(&mut rng, 24)).collect();
        let mut states: Vec<_> = solutions.iter().map(|s| p.init_state(s)).collect();
        let mut outs: Vec<Vec<i64>> = vec![Vec::new(); 8];

        let mut batch = BatchedExplorer::new(hood, spec.clone());
        let mut lanes: Vec<BatchLane<'_, ZeroCount>> = solutions
            .iter()
            .zip(states.iter_mut())
            .zip(outs.iter_mut())
            .map(|((s, state), out)| BatchLane {
                problem: &p,
                s,
                state,
                out,
                profile: prof,
                selection: SelectionMode::HostArgmin,
            })
            .collect();
        let fused = explore_once(&mut batch, &mut lanes);
        let solo_sum = prof.solo_seconds(&spec) * 8.0;
        assert!(fused < solo_sum, "fused launch {fused} must beat {solo_sum} (8 solo launches)");
        assert_eq!(batch.fused_launches(), 1);
        assert_eq!(batch.launches_saved(), 7);
        assert_eq!(batch.book().launches, 1);
        // The kernel work itself is not discounted — only overhead and
        // transfer latency are amortized.
        assert!((batch.book().kernel_s - prof.kernel_seconds * 8.0).abs() < 1e-12);
    }

    fn batch_of(
        n_lanes: usize,
        spec: &DeviceSpec,
        selection: SelectionMode,
    ) -> (TimeBook, f64, f64, Vec<Vec<i64>>) {
        let hood = KHamming::new(24, 2);
        let prof = profile(spec, hood.size());
        let p = ZeroCount { n: 24 };
        let mut rng = StdRng::seed_from_u64(5);
        let solutions: Vec<BitString> =
            (0..n_lanes).map(|_| BitString::random(&mut rng, 24)).collect();
        let mut states: Vec<_> = solutions.iter().map(|s| p.init_state(s)).collect();
        let mut outs: Vec<Vec<i64>> = vec![Vec::new(); n_lanes];
        let mut batch = BatchedExplorer::new(hood, spec.clone());
        let mut lanes: Vec<BatchLane<'_, ZeroCount>> = solutions
            .iter()
            .zip(states.iter_mut())
            .zip(outs.iter_mut())
            .map(|((s, state), out)| BatchLane {
                problem: &p,
                s,
                state,
                out,
                profile: prof,
                selection,
            })
            .collect();
        let makespan = explore_once(&mut batch, &mut lanes);
        drop(lanes);
        (batch.book().clone(), makespan, batch.stream_serialized_s(), outs)
    }

    #[test]
    fn gt200_makespan_is_the_serial_sum_of_the_schedule() {
        // Single DMA queue + serial kernels: nothing inside the
        // dependent fused iteration can overlap, so the charged makespan
        // equals the component-wise ledger total — today's serial-sum
        // economics, now derived from the stream model instead of
        // assumed. Relative to the old coalesced-transfer model the only
        // delta is the per-lane PCIe setup latency (a launch-overhead-
        // scale constant per extra lane).
        let spec = DeviceSpec::gtx280();
        let (book, makespan, serialized, _) = batch_of(4, &spec, SelectionMode::HostArgmin);
        assert!((makespan - serialized).abs() < 1e-15);
        assert!((makespan - book.gpu_total_s()).abs() < 1e-12);
        let prof = profile(&spec, KHamming::new(24, 2).size());
        let coalesced = transfer_seconds(&spec, prof.h2d_bytes * 4)
            + spec.launch_overhead_s
            + prof.kernel_seconds * 4.0
            + transfer_seconds(&spec, prof.d2h_bytes * 4);
        let delta = makespan - coalesced;
        assert!(delta >= 0.0 && delta <= 2.0 * 3.0 * spec.pcie_latency_s + 1e-15, "{delta}");
    }

    #[test]
    fn fermi_layout_overlaps_per_lane_copies() {
        use lnls_gpu_sim::EngineConfig;
        let gt = DeviceSpec::gtx280();
        let fermi = DeviceSpec::gtx280().with_engines(EngineConfig::fermi());
        let (_, gt_makespan, gt_serial, gt_outs) = batch_of(4, &gt, SelectionMode::HostArgmin);
        let (_, f_makespan, f_serial, f_outs) = batch_of(4, &fermi, SelectionMode::HostArgmin);
        assert!((gt_serial - f_serial).abs() < 1e-15, "same ops, same serialized cost");
        assert!(
            f_makespan < gt_makespan - 1e-12,
            "dual copy engines must beat the serial sum: fermi {f_makespan} vs gt200 {gt_makespan}"
        );
        assert_eq!(gt_outs, f_outs, "engine layout is pricing-only");
    }

    #[test]
    fn device_argmin_shrinks_readback_and_prices_the_reduction() {
        let spec = DeviceSpec::gtx280();
        let (host_book, _, _, host_outs) = batch_of(3, &spec, SelectionMode::HostArgmin);
        let (dev_book, _, _, dev_outs) = batch_of(3, &spec, SelectionMode::DeviceArgmin);
        assert_eq!(dev_outs, host_outs, "selection mode is pricing-only");
        assert_eq!(dev_book.bytes_d2h, 3 * ARGMIN_RECORD_BYTES);
        assert!(host_book.bytes_d2h >= 10 * dev_book.bytes_d2h, "m=276 lanes cut D2H ≥ 10×");
        assert_eq!(dev_book.launches, 2, "eval launch + argmin launch");
        assert_eq!(host_book.launches, 1);
        assert!(dev_book.kernel_s > host_book.kernel_s, "the reduction costs kernel time");
        assert_eq!(dev_book.bytes_h2d, host_book.bytes_h2d, "uploads unchanged");
    }

    #[test]
    fn span_results_match_per_iteration_and_amortize_overhead() {
        use lnls_gpu_sim::EngineConfig;
        let spec = DeviceSpec::gtx280().with_engines(EngineConfig::fermi());
        let hood = KHamming::new(24, 2);
        let prof = profile(&spec, hood.size());
        let p = ZeroCount { n: 24 };
        let mut rng = StdRng::seed_from_u64(9);
        let s1 = BitString::random(&mut rng, 24);
        let s2 = BitString::random(&mut rng, 24);
        let n_iters = 4;

        // Reference: n per-iteration fused launches.
        let run_per_iteration = || {
            let mut batch = BatchedExplorer::new(hood, spec.clone());
            let mut st1 = p.init_state(&s1);
            let mut st2 = p.init_state(&s2);
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            let mut total = 0.0;
            for _ in 0..n_iters {
                let mut lanes = [
                    BatchLane {
                        problem: &p,
                        s: &s1,
                        state: &mut st1,
                        out: &mut o1,
                        profile: prof,
                        selection: SelectionMode::HostArgmin,
                    },
                    BatchLane {
                        problem: &p,
                        s: &s2,
                        state: &mut st2,
                        out: &mut o2,
                        profile: prof,
                        selection: SelectionMode::HostArgmin,
                    },
                ];
                total += explore_once(&mut batch, &mut lanes);
            }
            (total, o1, o2, batch.book().clone())
        };
        let run_span = |mode: LaunchMode| {
            let mut batch = BatchedExplorer::new(hood, spec.clone());
            let mut st1 = p.init_state(&s1);
            let mut st2 = p.init_state(&s2);
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            batch.begin_span(mode);
            for _ in 0..n_iters {
                let mut lanes = [
                    BatchLane {
                        problem: &p,
                        s: &s1,
                        state: &mut st1,
                        out: &mut o1,
                        profile: prof,
                        selection: SelectionMode::HostArgmin,
                    },
                    BatchLane {
                        problem: &p,
                        s: &s2,
                        state: &mut st2,
                        out: &mut o2,
                        profile: prof,
                        selection: SelectionMode::HostArgmin,
                    },
                ];
                batch.explore_span(&mut lanes);
            }
            let pricing = batch.finish_span();
            (pricing, o1, o2, batch.book().clone())
        };

        let (per_total, ref_o1, ref_o2, per_book) = run_per_iteration();
        let (span, s_o1, s_o2, span_book) = run_span(LaunchMode::PerIteration);
        let (resident, r_o1, r_o2, resident_book) = run_span(LaunchMode::PersistentSpan);

        // Pricing-only: fitness vectors identical on every path.
        assert_eq!((&s_o1, &s_o2), (&ref_o1, &ref_o2));
        assert_eq!((&r_o1, &r_o2), (&ref_o1, &ref_o2));

        assert_eq!(span.iterations, n_iters as u64);
        assert!(
            span.makespan_s < per_total - 1e-12,
            "pipelined span {} must beat {} per-iteration launches ({per_total})",
            span.makespan_s,
            n_iters
        );
        assert!(resident.makespan_s < span.makespan_s);
        let amortized = (n_iters - 1) as f64 * spec.launch_overhead_s;
        assert!((resident.overhead_saved_s - amortized).abs() < 1e-15);
        assert!((span_book.overhead_s - resident_book.overhead_s - amortized).abs() < 1e-15);
        // The ledger's component totals are unchanged by spanning —
        // bytes and kernel seconds move identically.
        assert_eq!(span_book.bytes_h2d, per_book.bytes_h2d);
        assert_eq!(span_book.bytes_d2h, per_book.bytes_d2h);
        assert!((span_book.kernel_s - per_book.kernel_s).abs() < 1e-15);
        assert_eq!(span_book.launches, per_book.launches);
        assert_eq!(resident_book.launches, 1);
    }

    #[test]
    fn lane_profile_scales_with_neighborhood() {
        let spec = DeviceSpec::gtx280();
        let host = HostSpec::xeon_3ghz();
        let small = LaneProfile::incremental_eval(&spec, &host, 100, 1, 32, 0);
        let large = LaneProfile::incremental_eval(&spec, &host, 10_000, 3, 32, 0);
        assert!(large.kernel_seconds > small.kernel_seconds);
        assert!(large.d2h_bytes > small.d2h_bytes);
        assert!(large.host_seconds / large.kernel_seconds > 1.0, "device must model faster");
    }
}
