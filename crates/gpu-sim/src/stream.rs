//! CUDA streams and events: modeled asynchronous execution.
//!
//! The paper's search loop is synchronous — upload the solution, launch
//! the evaluation kernel, read the fitness array back, pick the best
//! move (§IV.B). Each iteration depends on the previous readback, so a
//! *single* search cannot overlap anything. But the paper's protocol
//! runs 50 independent tries, and its §V perspective partitions work
//! across devices; both expose concurrency that CUDA exposes through
//! **streams**: FIFO queues whose operations may overlap across queues
//! subject to the device's engine layout.
//!
//! This module prices such schedules with a discrete-event model:
//!
//! * every operation (H2D copy, kernel, D2H copy) is enqueued on a
//!   stream; operations within one stream serialize in enqueue order;
//! * the device runs the [`EngineConfig`] its [`DeviceSpec`] carries —
//!   one **copy engine** and one **compute engine** on every preset (the
//!   GT200 layout — concurrent copy + execute, but no concurrent kernels
//!   and a single DMA queue shared by both copy directions);
//!   [`DeviceSpec::with_engines`] relaxes this to model newer parts;
//! * **events** impose cross-stream edges (`record_event` /
//!   `wait_event`), exactly like `cudaStreamWaitEvent`.
//!
//! The output [`Schedule`] reports per-operation start/finish times, the
//! makespan, engine busy times, and the fully-serialized time for
//! comparison — the quantity the pipelining ablation reports.

use crate::report::TimeBook;
use crate::spec::DeviceSpec;
use crate::timing::transfer_seconds;

/// How many hardware queues the device can run concurrently.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Independent DMA engines (GT200: 1; Fermi Tesla parts: 2, one per
    /// direction).
    pub copy_engines: usize,
    /// Kernels that may execute concurrently (GT200: 1; Fermi+: up to
    /// 16 — modeled here as distinct compute slots).
    pub concurrent_kernels: usize,
}

impl EngineConfig {
    /// The GT200 / GTX 280 layout: one copy engine, serial kernels.
    pub fn gt200() -> Self {
        Self { copy_engines: 1, concurrent_kernels: 1 }
    }

    /// A Fermi-class layout: dual copy engines, concurrent kernels.
    ///
    /// Caveat: compute slots are modeled as fully independent, which is
    /// exact for queueing semantics but optimistic for *throughput* —
    /// real concurrent kernels share the SMs. Use this layout to study
    /// scheduling (what overlaps with what), not to predict speedups of
    /// compute-bound kernels.
    pub fn fermi() -> Self {
        Self { copy_engines: 2, concurrent_kernels: 16 }
    }
}

/// How kernel-launch overhead is charged across the iterations of a
/// fused span (see [`price_fused_span`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Every iteration re-launches its kernel chain, so launch overhead
    /// is charged once per kernel per iteration — the paper's
    /// synchronous loop (§IV.B).
    #[default]
    PerIteration,
    /// A persistent kernel stays resident on the device for the whole
    /// span: launch overhead is charged once per kernel position for the
    /// span's *first* iteration only; later iterations are device-side
    /// loop trips that re-synchronize through events, not fresh
    /// launches.
    PersistentSpan,
}

/// An operation enqueued on a stream.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamOp {
    /// Host→device copy of `bytes`.
    H2D {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Device→host copy of `bytes`.
    D2H {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Kernel execution of a known modeled duration (price it first with
    /// [`predict`](crate::timing::predict)).
    Kernel {
        /// Modeled execution seconds (excluding launch overhead, which
        /// the stream model adds itself).
        seconds: f64,
    },
    /// Record an event visible to `wait_event`.
    RecordEvent(
        /// Event id, from [`StreamSim::new_event`].
        EventId,
    ),
    /// Block later operations of this stream until the event fires.
    WaitEvent(
        /// Event id, from [`StreamSim::new_event`].
        EventId,
    ),
}

/// Handle to a recorded event.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct EventId(usize);

/// One scheduled operation in the output timeline.
#[derive(Clone, Debug)]
pub struct ScheduledOp {
    /// Stream the op ran on.
    pub stream: usize,
    /// The operation.
    pub op: StreamOp,
    /// Modeled start time (seconds from schedule origin).
    pub start: f64,
    /// Modeled finish time.
    pub finish: f64,
}

/// The priced schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Every operation with its start/finish times, in enqueue order.
    pub ops: Vec<ScheduledOp>,
    /// Time the last operation finishes.
    pub makespan: f64,
    /// Total busy seconds of the copy engine(s).
    pub copy_busy: f64,
    /// Total busy seconds of the compute engine(s).
    pub compute_busy: f64,
    /// What the same operations would cost executed back-to-back on one
    /// queue (the synchronous baseline).
    pub serialized: f64,
}

impl Schedule {
    /// Overlap efficiency: serialized time over makespan (≥ 1; higher is
    /// better; 1 = no overlap achieved).
    pub fn overlap_factor(&self) -> f64 {
        if self.makespan > 0.0 {
            self.serialized / self.makespan
        } else {
            1.0
        }
    }

    /// A small ASCII Gantt chart (one row per stream) for reports and
    /// examples. `width` is the number of character cells representing
    /// the makespan.
    pub fn gantt_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let streams = self.ops.iter().map(|o| o.stream).max().map_or(0, |m| m + 1);
        let scale = |t: f64| ((t / self.makespan) * width as f64).round() as usize;
        let mut rows = vec![vec![b'.'; width]; streams];
        for op in &self.ops {
            let glyph = match op.op {
                StreamOp::H2D { .. } => b'U',
                StreamOp::D2H { .. } => b'D',
                StreamOp::Kernel { .. } => b'K',
                _ => continue,
            };
            let (a, b) = (scale(op.start), scale(op.finish).max(scale(op.start) + 1));
            for cell in rows[op.stream][a..b.min(width)].iter_mut() {
                *cell = glyph;
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!("s{i} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "    makespan {:.3} ms, serialized {:.3} ms, overlap ×{:.2}\n",
            self.makespan * 1e3,
            self.serialized * 1e3,
            self.overlap_factor()
        ));
        out
    }

    /// Lower the schedule to Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` format `chrome://tracing` and Perfetto
    /// open directly). Each stream becomes a trace thread named
    /// `stream {i}`; every copy and kernel becomes a complete (`ph:"X"`)
    /// span with microsecond timestamps, category `copy` or `compute`,
    /// and the modeled bytes/seconds as args. Zero-duration event
    /// bookkeeping ops (`RecordEvent`/`WaitEvent`) are omitted.
    pub fn chrome_trace_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "0".to_string()
            }
        }
        let us = |seconds: f64| num(seconds * 1e6);
        let streams = self.ops.iter().map(|o| o.stream).max().map_or(0, |m| m + 1);
        let mut events = Vec::new();
        for i in 0..streams {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\
                 \"args\":{{\"name\":\"stream {i}\"}}}}"
            ));
        }
        for op in &self.ops {
            let (name, cat, args) = match op.op {
                StreamOp::H2D { bytes } => ("H2D", "copy", format!("{{\"bytes\":{bytes}}}")),
                StreamOp::D2H { bytes } => ("D2H", "copy", format!("{{\"bytes\":{bytes}}}")),
                StreamOp::Kernel { seconds } => {
                    ("Kernel", "compute", format!("{{\"seconds\":{}}}", num(seconds)))
                }
                StreamOp::RecordEvent(_) | StreamOp::WaitEvent(_) => continue,
            };
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{args}}}",
                op.stream,
                us(op.start),
                us(op.finish - op.start),
            ));
        }
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }
}

/// Builder + simulator for a stream schedule on one device.
pub struct StreamSim<'a> {
    spec: &'a DeviceSpec,
    engines: EngineConfig,
    // (stream, op, overhead-exempt): the flag marks kernels that are
    // device-side loop trips of a persistent span — they occupy a
    // compute slot for their modeled seconds but pay no launch
    // overhead (see `LaunchMode::PersistentSpan`).
    queued: Vec<(usize, StreamOp, bool)>,
    n_events: usize,
}

impl<'a> StreamSim<'a> {
    /// A simulator for `spec` with the engine layout the spec itself
    /// carries ([`DeviceSpec::engines`] — GT200 for every preset).
    pub fn new(spec: &'a DeviceSpec) -> Self {
        Self::with_engines(spec, spec.engines)
    }

    /// Override the engine layout (ablations).
    pub fn with_engines(spec: &'a DeviceSpec, engines: EngineConfig) -> Self {
        assert!(engines.copy_engines >= 1, "need at least one copy engine");
        assert!(engines.concurrent_kernels >= 1, "need at least one compute slot");
        Self { spec, engines, queued: Vec::new(), n_events: 0 }
    }

    /// Allocate an event handle.
    pub fn new_event(&mut self) -> EventId {
        self.n_events += 1;
        EventId(self.n_events - 1)
    }

    /// Enqueue a host→device copy on `stream`.
    pub fn h2d(&mut self, stream: usize, bytes: u64) -> &mut Self {
        self.queued.push((stream, StreamOp::H2D { bytes }, false));
        self
    }

    /// Enqueue a device→host copy on `stream`.
    pub fn d2h(&mut self, stream: usize, bytes: u64) -> &mut Self {
        self.queued.push((stream, StreamOp::D2H { bytes }, false));
        self
    }

    /// Enqueue a kernel of `seconds` modeled duration on `stream`.
    pub fn kernel(&mut self, stream: usize, seconds: f64) -> &mut Self {
        assert!(seconds >= 0.0 && seconds.is_finite(), "kernel duration must be finite");
        self.queued.push((stream, StreamOp::Kernel { seconds }, false));
        self
    }

    /// Enqueue a kernel that pays no launch overhead: a device-side loop
    /// trip of an already-resident persistent kernel. Private — reached
    /// through [`price_fused_span`] with [`LaunchMode::PersistentSpan`].
    fn kernel_resident(&mut self, stream: usize, seconds: f64) -> &mut Self {
        assert!(seconds >= 0.0 && seconds.is_finite(), "kernel duration must be finite");
        self.queued.push((stream, StreamOp::Kernel { seconds }, true));
        self
    }

    /// Record `event` on `stream` (fires when all earlier ops of the
    /// stream finish).
    pub fn record_event(&mut self, stream: usize, event: EventId) -> &mut Self {
        self.queued.push((stream, StreamOp::RecordEvent(event), false));
        self
    }

    /// Make later ops of `stream` wait until `event` fires.
    pub fn wait_event(&mut self, stream: usize, event: EventId) -> &mut Self {
        self.queued.push((stream, StreamOp::WaitEvent(event), false));
        self
    }

    fn duration_of(&self, op: &StreamOp, overhead_exempt: bool) -> f64 {
        match *op {
            StreamOp::H2D { bytes } | StreamOp::D2H { bytes } => transfer_seconds(self.spec, bytes),
            StreamOp::Kernel { seconds } if overhead_exempt => seconds,
            StreamOp::Kernel { seconds } => seconds + self.spec.launch_overhead_s,
            StreamOp::RecordEvent(_) | StreamOp::WaitEvent(_) => 0.0,
        }
    }

    /// Price the queued schedule.
    ///
    /// Engines are granted in global enqueue order (the hardware's FIFO
    /// behaviour): an operation starts at the max of (its stream's ready
    /// time, its engine's ready time, any awaited events).
    ///
    /// # Panics
    /// Panics if a `WaitEvent` precedes the matching `RecordEvent` in
    /// enqueue order (a deadlock on real hardware too).
    pub fn run(&self) -> Schedule {
        let mut stream_ready: Vec<f64> = Vec::new();
        let mut copy_ready = vec![0.0f64; self.engines.copy_engines];
        let mut compute_ready = vec![0.0f64; self.engines.concurrent_kernels];
        let mut event_time: Vec<Option<f64>> = vec![None; self.n_events];
        let mut ops = Vec::with_capacity(self.queued.len());
        let mut makespan = 0.0f64;
        let mut copy_busy = 0.0;
        let mut compute_busy = 0.0;
        let mut serialized = 0.0;

        for &(stream, ref op, overhead_exempt) in &self.queued {
            if stream >= stream_ready.len() {
                stream_ready.resize(stream + 1, 0.0);
            }
            let dur = self.duration_of(op, overhead_exempt);
            serialized += dur;
            let mut start = stream_ready[stream];
            match *op {
                StreamOp::WaitEvent(EventId(e)) => {
                    let t = event_time[e]
                        .unwrap_or_else(|| panic!("wait on unrecorded event {e} (deadlock)"));
                    start = start.max(t);
                    stream_ready[stream] = start;
                    ops.push(ScheduledOp { stream, op: op.clone(), start, finish: start });
                    continue;
                }
                StreamOp::RecordEvent(EventId(e)) => {
                    event_time[e] = Some(start);
                    ops.push(ScheduledOp { stream, op: op.clone(), start, finish: start });
                    continue;
                }
                _ => {}
            }
            // Grab the earliest-free engine of the right kind.
            let pool: &mut Vec<f64> = match op {
                StreamOp::Kernel { .. } => &mut compute_ready,
                _ => &mut copy_ready,
            };
            let (engine_idx, &engine_free) = pool
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
                .expect("non-empty engine pool");
            start = start.max(engine_free);
            let finish = start + dur;
            pool[engine_idx] = finish;
            match op {
                StreamOp::Kernel { .. } => compute_busy += dur,
                _ => copy_busy += dur,
            }
            stream_ready[stream] = finish;
            makespan = makespan.max(finish);
            ops.push(ScheduledOp { stream, op: op.clone(), start, finish });
        }

        Schedule { ops, makespan, copy_busy, compute_busy, serialized }
    }
}

/// Per-lane PCIe traffic of one fused evaluation iteration (see
/// [`price_fused_span`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LaneIo {
    /// Bytes this lane uploads (solution bits + incremental state).
    pub h2d_bytes: u64,
    /// Bytes this lane reads back (its fitness array, or one packed
    /// argmin record under on-device selection).
    pub d2h_bytes: u64,
}

/// Price `n` consecutive fused iterations of the same multi-lane shape
/// as **one** breadth-first stream/event schedule on `spec` (under
/// [`DeviceSpec::engines`]). One iteration is the paper's loop body for
/// every lane at once: each lane uploads its solution, the fused kernel
/// chain evaluates all lanes' neighborhoods, each lane reads its fitness
/// array back. `kernels` is that dependent chain — the fused evaluation
/// kernel, optionally followed by the on-device argmin reduction — each
/// entry in modeled seconds *excluding* launch overhead (the stream model
/// adds it per kernel). A single iteration is a span of one under
/// [`LaunchMode::PerIteration`].
///
/// Layout (`L = lanes.len()`): each lane uploads on its own stream
/// `0..L`; the fused kernel chain runs on the dedicated compute stream
/// `L`, gated on every upload by events; each lane reads back on its own
/// *download* stream `L+1..=2L`, gated on the chain. Downloads ride
/// separate streams from uploads on purpose: per-stream FIFO order would
/// otherwise re-serialize iteration *k+1*'s H2D behind iteration *k*'s
/// D2H, defeating the pipeline.
///
/// Breadth-first issue matters: on a single-copy-engine part (GT200),
/// depth-first enqueueing puts each lane's readback in front of the next
/// lane's upload in the one DMA queue and serializes everything; see
/// [`IssueOrder`](crate::pipeline::IssueOrder). Within one dependent
/// iteration on a GT200 layout nothing can overlap, so a span of one
/// costs its serialized sum; multi-engine layouts overlap the per-lane
/// copies against each other, and [`Schedule::makespan`] prices the win.
///
/// Two cross-iteration effects are modeled:
///
/// * **Double-buffered H2D** — two upload buffers per lane, so
///   iteration *k*'s uploads are event-gated only on *buffer release*:
///   the completion of iteration *k−2*'s kernel chain (the last consumer
///   of the re-used buffer), never on any D2H. Iterations 0 and 1 start
///   uploading immediately.
/// * **[`LaunchMode`]** — under [`LaunchMode::PerIteration`] every
///   iteration's kernels pay [`DeviceSpec::launch_overhead_s`] (the
///   paper's synchronous loop); under [`LaunchMode::PersistentSpan`] the
///   kernel chain stays resident and only iteration 0 pays it, so the
///   span amortizes `(n−1)·kernels.len()` launches. Both the makespan
///   *and* [`Schedule::serialized`] reflect the exemption, keeping
///   [`Schedule::overlap_factor`] an overlap measure rather than an
///   amortization measure.
///
/// Issue order is the breadth-first software pipeline: iteration
/// *k+1*'s uploads are **enqueued before** iteration *k*'s readbacks,
/// so DMA engines (granted in enqueue order) serve the eager uploads
/// first and the pipeline actually fills. Engine contention stays
/// honest: a GT200 layout's single DMA queue still serializes H2D
/// against D2H, but the eager issue order lets it overlap the next
/// iteration's upload against the current kernel — partial pipelining
/// plus launch amortization — while multi-engine layouts overlap
/// uploads, kernels and readbacks of adjacent iterations fully.
///
/// [`TimeBook::fused_span`] charges the same span to a device ledger.
///
/// # Panics
/// Panics when `lanes` or `kernels` is empty, or when `n == 0`.
pub fn price_fused_span(
    spec: &DeviceSpec,
    lanes: &[LaneIo],
    kernels: &[f64],
    n: usize,
    mode: LaunchMode,
) -> Schedule {
    assert!(!lanes.is_empty(), "cannot price an empty fused span");
    assert!(!kernels.is_empty(), "a fused span launches at least one kernel");
    assert!(n >= 1, "a span covers at least one iteration");
    let mut sim = StreamSim::new(spec);
    let kernel_stream = lanes.len();
    let download_base = lanes.len() + 1;
    let mut kernel_done: Vec<EventId> = Vec::with_capacity(n);
    let enqueue_downloads = |sim: &mut StreamSim<'_>, done: EventId| {
        for (i, lane) in lanes.iter().enumerate() {
            sim.wait_event(download_base + i, done);
            sim.d2h(download_base + i, lane.d2h_bytes);
        }
    };
    for iter in 0..n {
        let mut uploaded = Vec::with_capacity(lanes.len());
        for (lane_stream, lane) in lanes.iter().enumerate() {
            if iter >= 2 {
                // Buffer release: this iteration re-uses the upload
                // buffer iteration `iter - 2` consumed.
                sim.wait_event(lane_stream, kernel_done[iter - 2]);
            }
            sim.h2d(lane_stream, lane.h2d_bytes);
            let ev = sim.new_event();
            sim.record_event(lane_stream, ev);
            uploaded.push(ev);
        }
        // Eager issue: the previous iteration's readbacks go in *after*
        // this iteration's uploads so they never hog the DMA queue
        // ahead of them.
        if iter >= 1 {
            enqueue_downloads(&mut sim, kernel_done[iter - 1]);
        }
        for ev in uploaded {
            sim.wait_event(kernel_stream, ev);
        }
        let resident = mode == LaunchMode::PersistentSpan && iter > 0;
        for &seconds in kernels {
            if resident {
                sim.kernel_resident(kernel_stream, seconds);
            } else {
                sim.kernel(kernel_stream, seconds);
            }
        }
        let done = sim.new_event();
        sim.record_event(kernel_stream, done);
        kernel_done.push(done);
    }
    enqueue_downloads(&mut sim, kernel_done[n - 1]);
    sim.run()
}

impl TimeBook {
    /// The device ledger of a fused span: what [`price_fused_span`]
    /// schedules for the same `(lanes, kernels, n, mode)`, booked per
    /// component. Kernel seconds are the chain's sum over `n`
    /// iterations; launches (and their overhead) are one per kernel
    /// position per iteration under [`LaunchMode::PerIteration`], and one
    /// per position for the whole span under
    /// [`LaunchMode::PersistentSpan`]; transfer seconds and bytes are
    /// summed lane by lane, `Σᵢ tᵢ·n`. `host_s` is the caller's own
    /// sequential-host total for the span. Component for component the
    /// ledger's [`gpu_total_s`](Self::gpu_total_s) is the schedule's
    /// [`Schedule::serialized`] sum. A span of zero iterations books no
    /// device work.
    ///
    /// Returns the ledger and the launch overhead `mode` saved relative
    /// to re-launching every iteration (seconds; zero under
    /// [`LaunchMode::PerIteration`]).
    pub fn fused_span(
        spec: &DeviceSpec,
        lanes: &[LaneIo],
        kernels: &[f64],
        host_s: f64,
        n: u64,
        mode: LaunchMode,
    ) -> (TimeBook, f64) {
        let positions = kernels.len() as u64;
        let launches = match mode {
            LaunchMode::PerIteration => positions * n,
            LaunchMode::PersistentSpan => positions * n.min(1),
        };
        let iters = n as f64;
        let mut book = TimeBook {
            kernel_s: kernels.iter().sum::<f64>() * iters,
            overhead_s: spec.launch_overhead_s * launches as f64,
            launches,
            host_s,
            ..TimeBook::default()
        };
        for lane in lanes {
            book.h2d_s += transfer_seconds(spec, lane.h2d_bytes) * iters;
            book.d2h_s += transfer_seconds(spec, lane.d2h_bytes) * iters;
            book.bytes_h2d += lane.h2d_bytes * n;
            book.bytes_d2h += lane.d2h_bytes * n;
        }
        let saved = (positions * n - launches) as f64 * spec.launch_overhead_s;
        (book, saved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    const EPS: f64 = 1e-12;

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx280()
    }

    #[test]
    fn single_stream_serializes_everything() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        sim.h2d(0, 1 << 20).kernel(0, 1e-3).d2h(0, 1 << 16);
        let sched = sim.run();
        assert!((sched.makespan - sched.serialized).abs() < EPS);
        assert!((sched.overlap_factor() - 1.0).abs() < EPS);
        // ops strictly ordered
        for w in sched.ops.windows(2) {
            assert!(w[1].start >= w[0].finish - EPS);
        }
    }

    #[test]
    fn two_streams_overlap_copy_with_compute() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        // Stream 0 computes for a long time; stream 1 uploads meanwhile.
        sim.kernel(0, 5e-3);
        sim.h2d(1, 1 << 20); // ≈ 350 µs ≪ 5 ms
        let sched = sim.run();
        assert!(sched.makespan < sched.serialized - EPS, "no overlap achieved");
        // Both started at 0.
        assert!(sched.ops[0].start.abs() < EPS);
        assert!(sched.ops[1].start.abs() < EPS);
    }

    #[test]
    fn gt200_serializes_two_copies() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        sim.h2d(0, 1 << 20);
        sim.d2h(1, 1 << 20);
        let sched = sim.run();
        // One copy engine: the second copy waits for the first.
        assert!((sched.makespan - sched.serialized).abs() < EPS);
        assert!(sched.ops[1].start >= sched.ops[0].finish - EPS);
    }

    #[test]
    fn fermi_runs_two_copies_concurrently() {
        let s = spec();
        let mut sim = StreamSim::with_engines(&s, EngineConfig::fermi());
        sim.h2d(0, 1 << 20);
        sim.d2h(1, 1 << 20);
        let sched = sim.run();
        assert!(sched.makespan < sched.serialized - EPS);
        assert!(sched.ops[1].start.abs() < EPS, "second copy should start immediately");
    }

    #[test]
    fn gt200_serializes_kernels() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        sim.kernel(0, 1e-3);
        sim.kernel(1, 1e-3);
        let sched = sim.run();
        assert!(sched.ops[1].start >= sched.ops[0].finish - EPS);
    }

    #[test]
    fn events_order_across_streams() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        let ev = sim.new_event();
        sim.h2d(0, 1 << 20);
        sim.record_event(0, ev);
        sim.wait_event(1, ev);
        sim.kernel(1, 1e-3);
        let sched = sim.run();
        let kernel = sched.ops.last().unwrap();
        let copy = &sched.ops[0];
        assert!(kernel.start >= copy.finish - EPS, "kernel must wait for the upload");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn wait_before_record_panics() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        let ev = sim.new_event();
        sim.wait_event(0, ev);
        sim.run();
    }

    #[test]
    fn makespan_bounds() {
        // makespan ≤ serialized; makespan ≥ each engine's busy time.
        let s = spec();
        let mut sim = StreamSim::new(&s);
        for st in 0..4usize {
            sim.h2d(st, 1 << 18);
            sim.kernel(st, 2e-4);
            sim.d2h(st, 1 << 14);
        }
        let sched = sim.run();
        assert!(sched.makespan <= sched.serialized + EPS);
        assert!(sched.makespan >= sched.copy_busy - EPS);
        assert!(sched.makespan >= sched.compute_busy - EPS);
    }

    #[test]
    fn per_stream_ops_never_overlap() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        for st in 0..3usize {
            sim.h2d(st, 1 << 19).kernel(st, 1e-4).d2h(st, 1 << 12);
        }
        let sched = sim.run();
        for stream in 0..3usize {
            let mine: Vec<_> = sched.ops.iter().filter(|o| o.stream == stream).collect();
            for w in mine.windows(2) {
                assert!(w[1].start >= w[0].finish - EPS, "stream {stream} overlapped itself");
            }
        }
    }

    #[test]
    fn gantt_renders_all_streams() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        sim.h2d(0, 1 << 20).kernel(0, 1e-3);
        sim.h2d(1, 1 << 20).kernel(1, 1e-3);
        let g = sim.run().gantt_ascii(40);
        assert!(g.contains("s0 |"));
        assert!(g.contains("s1 |"));
        assert!(g.contains('U') && g.contains('K'));
        assert!(g.contains("overlap"));
    }

    #[test]
    fn chrome_trace_lowers_spans_per_stream() {
        let s = spec();
        let mut sim = StreamSim::with_engines(&s, EngineConfig::fermi());
        let ev = sim.new_event();
        sim.h2d(0, 1 << 20);
        sim.record_event(0, ev);
        sim.wait_event(1, ev);
        sim.kernel(1, 1e-3);
        sim.d2h(1, 1 << 16);
        let json = sim.run().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"stream 0\""));
        assert!(json.contains("\"name\":\"stream 1\""));
        assert!(json.contains("\"name\":\"H2D\"") && json.contains("\"cat\":\"copy\""));
        assert!(json.contains("\"name\":\"Kernel\"") && json.contains("\"cat\":\"compute\""));
        assert!(json.contains("\"name\":\"D2H\""));
        // Event bookkeeping is omitted, and spans carry ph:"X".
        assert!(!json.contains("RecordEvent") && !json.contains("WaitEvent"));
        assert!(json.contains("\"ph\":\"X\""));
        // Deterministic: same schedule, same bytes.
        assert_eq!(json, sim.run().chrome_trace_json());
    }

    #[test]
    fn fused_iteration_gt200_equals_serialized() {
        let s = spec();
        let lanes = [
            LaneIo { h2d_bytes: 64, d2h_bytes: 4096 },
            LaneIo { h2d_bytes: 128, d2h_bytes: 8192 },
            LaneIo { h2d_bytes: 32, d2h_bytes: 2048 },
        ];
        let sched = price_fused_span(&s, &lanes, &[1e-3], 1, LaunchMode::PerIteration);
        // One copy engine + a dependent chain: nothing can overlap.
        assert!((sched.makespan - sched.serialized).abs() < EPS);
        // Serialized = per-lane transfers + the kernel with its overhead.
        let expect: f64 = lanes
            .iter()
            .map(|l| {
                crate::timing::transfer_seconds(&s, l.h2d_bytes)
                    + crate::timing::transfer_seconds(&s, l.d2h_bytes)
            })
            .sum::<f64>()
            + 1e-3
            + s.launch_overhead_s;
        assert!((sched.serialized - expect).abs() < EPS);
    }

    #[test]
    fn fused_iteration_fermi_overlaps_per_lane_copies() {
        let s = spec().with_engines(EngineConfig::fermi());
        let lanes = [
            LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 16 },
            LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 16 },
        ];
        let sched = price_fused_span(&s, &lanes, &[5e-4], 1, LaunchMode::PerIteration);
        assert!(
            sched.makespan < sched.serialized - EPS,
            "dual copy engines must overlap the two lanes' transfers"
        );
        // The kernel still waits for both uploads.
        let kernel = sched.ops.iter().find(|o| matches!(o.op, StreamOp::Kernel { .. })).unwrap();
        let last_upload = sched
            .ops
            .iter()
            .filter(|o| matches!(o.op, StreamOp::H2D { .. }))
            .map(|o| o.finish)
            .fold(0.0, f64::max);
        assert!(kernel.start >= last_upload - EPS);
    }

    #[test]
    fn fused_iteration_kernel_chain_serializes() {
        // Eval kernel then argmin kernel: same stream, strict order, one
        // launch overhead each.
        let s = spec();
        let lanes = [LaneIo { h2d_bytes: 64, d2h_bytes: 8 }];
        let sched = price_fused_span(&s, &lanes, &[1e-3, 1e-5], 1, LaunchMode::PerIteration);
        let kernels: Vec<_> =
            sched.ops.iter().filter(|o| matches!(o.op, StreamOp::Kernel { .. })).collect();
        assert_eq!(kernels.len(), 2);
        assert!(kernels[1].start >= kernels[0].finish - EPS);
        let readback = sched.ops.iter().rfind(|o| matches!(o.op, StreamOp::D2H { .. })).unwrap();
        assert!(readback.start >= kernels[1].finish - EPS, "readback waits for the reduction");
    }

    #[test]
    #[should_panic(expected = "empty fused span")]
    fn fused_iteration_rejects_empty_batches() {
        let _ = price_fused_span(&spec(), &[], &[1e-3], 1, LaunchMode::PerIteration);
    }

    #[test]
    fn kernel_duration_includes_launch_overhead() {
        let s = spec();
        let mut sim = StreamSim::new(&s);
        sim.kernel(0, 1e-3);
        let sched = sim.run();
        assert!((sched.makespan - (1e-3 + s.launch_overhead_s)).abs() < EPS);
    }

    #[test]
    fn persistent_span_charges_launch_overhead_once() {
        // Kernel-dominated shape on GT200: transfers (≈12 µs) hide under
        // the 1 ms kernel chain, so the kernel chain is the critical
        // path and residency saves exactly (n-1)·kernels·overhead.
        let s = spec();
        let lanes = [LaneIo { h2d_bytes: 8, d2h_bytes: 8 }];
        let kernels = [1e-3, 1e-5];
        let n = 5;
        let per = price_fused_span(&s, &lanes, &kernels, n, LaunchMode::PerIteration);
        let single = price_fused_span(&s, &lanes, &kernels, 1, LaunchMode::PerIteration);
        assert!(
            per.makespan < n as f64 * single.makespan - EPS,
            "even GT200 overlaps the next upload against the current kernel"
        );
        let resident = price_fused_span(&s, &lanes, &kernels, n, LaunchMode::PersistentSpan);
        let saved = (n - 1) as f64 * kernels.len() as f64 * s.launch_overhead_s;
        assert!((per.makespan - resident.makespan - saved).abs() < EPS);
        assert!((per.serialized - resident.serialized - saved).abs() < EPS);
    }

    #[test]
    fn fermi_span_pipelines_iterations() {
        let s = spec().with_engines(EngineConfig::fermi());
        let lanes = [LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 16 }; 2];
        let kernels = [5e-4];
        let n = 3;
        let single = price_fused_span(&s, &lanes, &kernels, 1, LaunchMode::PerIteration);
        let span = price_fused_span(&s, &lanes, &kernels, n, LaunchMode::PerIteration);
        assert!(
            span.makespan < n as f64 * single.makespan - EPS,
            "cross-iteration pipelining must beat {} back-to-back iterations: {} vs {}",
            n,
            span.makespan,
            n as f64 * single.makespan
        );
        let resident = price_fused_span(&s, &lanes, &kernels, n, LaunchMode::PersistentSpan);
        assert!(resident.makespan < span.makespan + EPS, "residency never hurts");
    }

    #[test]
    fn double_buffered_uploads_gate_on_buffer_release_not_d2h() {
        let s = spec().with_engines(EngineConfig::fermi());
        let lanes = [LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 18 }];
        let sched = price_fused_span(&s, &lanes, &[5e-4], 3, LaunchMode::PerIteration);
        let uploads: Vec<_> =
            sched.ops.iter().filter(|o| matches!(o.op, StreamOp::H2D { .. })).collect();
        let kernels: Vec<_> =
            sched.ops.iter().filter(|o| matches!(o.op, StreamOp::Kernel { .. })).collect();
        let downloads: Vec<_> =
            sched.ops.iter().filter(|o| matches!(o.op, StreamOp::D2H { .. })).collect();
        assert_eq!((uploads.len(), kernels.len(), downloads.len()), (3, 3, 3));
        // Iteration 1's upload starts before iteration 0's readback
        // finishes — gated on the kernel, not the D2H.
        assert!(uploads[1].start < downloads[0].finish - EPS);
        // Iteration 2's upload waits for buffer release: iteration 0's
        // kernel completion.
        assert!(uploads[2].start >= kernels[0].finish - EPS);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn span_rejects_zero_iterations() {
        let lanes = [LaneIo { h2d_bytes: 64, d2h_bytes: 64 }];
        let _ = price_fused_span(&spec(), &lanes, &[1e-3], 0, LaunchMode::PerIteration);
    }
}
