//! Structured fleet observability: typed lifecycle events behind
//! pluggable sinks, a metrics registry with a Prometheus-text renderer,
//! and Chrome trace-event export.
//!
//! The paper's whole argument is an accounting one — launch overhead,
//! PCIe transfers and kernel occupancy decide whether large
//! neighborhoods pay off — yet end-of-run aggregates cannot show *where*
//! a job's latency went. This module makes the fleet's execution
//! narratable:
//!
//! * **Events**: the scheduler and the [`FleetClient`](crate::FleetClient)
//!   emit a typed [`FleetEvent`] stream ([`Submitted`](FleetEvent::Submitted)
//!   through [`Cancelled`](FleetEvent::Cancelled)), each stamped with
//!   the scheduler tick and the *modeled* fleet clock ([`EventRecord`]).
//!   No wall clock is ever read, so an attached sink observes a byte-
//!   reproducible stream.
//! * **Sinks**: anything implementing [`EventSink`] can be attached via
//!   [`Scheduler::attach_sink`](crate::Scheduler::attach_sink) — the
//!   bundled [`RingSink`] keeps records in memory (optionally bounded),
//!   [`JsonlSink`] streams JSON Lines to disk. Emission is strictly
//!   observational and zero-cost when nothing is attached: results are
//!   bit-identical with and without a sink (the neutrality proptest
//!   holds the whole `FleetReport` Debug rendering to that standard).
//! * **Metrics**: a [`MetricsRegistry`] of counters, gauges and
//!   log2-bucket [`Histogram`]s fed from the same event stream, with a
//!   snapshot API and [`MetricsRegistry::render_prometheus`].
//! * **Traces**: [`chrome_trace`] lowers per-device quantum occupancy
//!   into Chrome trace-event JSON (openable in Perfetto / `chrome://tracing`);
//!   the gpu-sim `Schedule` has the per-engine equivalent.

use crate::job::JobId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Why a submission was refused (the typed payload of
/// [`FleetEvent::Rejected`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The global queue cap bounced the submission outright.
    QueueFull,
    /// The per-tenant queue cap bounced the submission outright.
    TenantQueueFull,
    /// A queued job was shed to make room for a higher-priority arrival.
    Shed,
    /// The concurrency limiter bounced the submission: too many jobs
    /// already in flight (queued + running).
    Overloaded,
}

impl RejectReason {
    /// Stable lower-snake label used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantQueueFull => "tenant_queue_full",
            RejectReason::Shed => "shed",
            RejectReason::Overloaded => "overloaded",
        }
    }
}

/// One typed fleet lifecycle event. All times are modeled fleet seconds;
/// device labels are backend names (`dev0[GTX 280]`, `cpu1`).
#[derive(Clone, Debug, PartialEq)]
pub enum FleetEvent {
    /// A job entered the scheduler queue.
    Submitted {
        /// The job's identity.
        job: JobId,
        /// Submission name.
        name: String,
        /// Tenant attribution from the envelope.
        tenant: String,
        /// Queue priority.
        priority: u8,
    },
    /// Admission control accepted a submission
    /// (emitted by [`FleetClient`](crate::FleetClient)).
    Admitted {
        /// The admitted job.
        job: JobId,
    },
    /// A submission was refused: an outright bounce (`job: None` — it
    /// never got an identity) or a queued job shed to make room.
    Rejected {
        /// The shed job, when one existed.
        job: Option<JobId>,
        /// Tenant the refusal hit.
        tenant: String,
        /// Which admission rule said no.
        reason: RejectReason,
    },
    /// A queued job won placement on a backend.
    Placed {
        /// The placed job.
        job: JobId,
        /// Backend label.
        device: String,
    },
    /// A placement fused multiple same-key jobs into one launch group.
    BatchFused {
        /// Backend label.
        device: String,
        /// Jobs sharing the fused assignment.
        lanes: u64,
    },
    /// A backend began one scheduling quantum.
    QuantumStart {
        /// Backend label.
        device: String,
        /// Jobs in the assignment.
        jobs: Vec<JobId>,
        /// Backend clock when the quantum began.
        start_s: f64,
    },
    /// A backend finished one scheduling quantum.
    QuantumEnd {
        /// Backend label.
        device: String,
        /// Jobs in the assignment.
        jobs: Vec<JobId>,
        /// Job-iterations executed (each fused member counts one per
        /// fused launch — the same accounting as
        /// [`FleetReport::iterations_executed`](crate::FleetReport::iterations_executed)).
        iters: u64,
        /// Modeled seconds the quantum charged to the backend clock.
        makespan_s: f64,
        /// Backend clock when the quantum began.
        start_s: f64,
        /// Backend clock when the quantum ended.
        end_s: f64,
        /// PCIe bytes uploaded during the quantum (0 on CPU workers).
        bytes_h2d: u64,
        /// PCIe bytes read back during the quantum (0 on CPU workers).
        bytes_d2h: u64,
    },
    /// An assignment hit its slice boundary and its survivors returned
    /// to the queue. One event per preempted *assignment* (the same
    /// accounting as [`FleetReport::preemptions`](crate::FleetReport::preemptions)).
    Preempted {
        /// Backend label.
        device: String,
        /// The jobs sent back to the queue.
        jobs: Vec<JobId>,
    },
    /// A job completed normally.
    Completed {
        /// The finished job.
        job: JobId,
        /// Backend it retired from.
        device: String,
        /// Queue wait (modeled seconds).
        wait_s: f64,
        /// Turnaround (modeled seconds).
        turnaround_s: f64,
    },
    /// A job drained through the cancellation path (explicit cancel or
    /// missed deadline).
    Cancelled {
        /// The cancelled job.
        job: JobId,
        /// Queue wait (modeled seconds).
        wait_s: f64,
        /// Turnaround (modeled seconds).
        turnaround_s: f64,
    },
}

impl FleetEvent {
    /// Stable lower-snake label used as the JSON `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            FleetEvent::Submitted { .. } => "submitted",
            FleetEvent::Admitted { .. } => "admitted",
            FleetEvent::Rejected { .. } => "rejected",
            FleetEvent::Placed { .. } => "placed",
            FleetEvent::BatchFused { .. } => "batch_fused",
            FleetEvent::QuantumStart { .. } => "quantum_start",
            FleetEvent::QuantumEnd { .. } => "quantum_end",
            FleetEvent::Preempted { .. } => "preempted",
            FleetEvent::Completed { .. } => "completed",
            FleetEvent::Cancelled { .. } => "cancelled",
        }
    }
}

/// A [`FleetEvent`] stamped with the scheduler tick and the modeled
/// fleet clock at emission.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Scheduler tick counter at emission (monotone; survives
    /// checkpoint/restore).
    pub tick: u64,
    /// Fleet clock at emission (modeled seconds — never wall clock, so
    /// recorded streams are byte-reproducible).
    pub now_s: f64,
    /// The event itself.
    pub event: FleetEvent,
}

/// Render a finite f64 as a JSON number. Rust's `Debug` formatting is
/// the deterministic shortest round-trip rendering, and every string it
/// produces for a finite value (`0.1`, `5.0`, `1e-5`) is a valid JSON
/// number — which is what makes recorded JSONL streams byte-identical
/// across runs.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_jobs(jobs: &[JobId]) -> String {
    let ids: Vec<String> = jobs.iter().map(|j| j.0.to_string()).collect();
    format!("[{}]", ids.join(","))
}

impl EventRecord {
    /// One-line JSON object (the JSONL format [`JsonlSink`] writes).
    /// Hand-rolled — the offline environment has no serde — and
    /// deterministic: two identical replays produce byte-identical
    /// lines.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"tick\":{},\"now_s\":{},\"kind\":\"{}\"",
            self.tick,
            json_f64(self.now_s),
            self.event.kind()
        );
        match &self.event {
            FleetEvent::Submitted { job, name, tenant, priority } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"name\":\"{}\",\"tenant\":\"{}\",\"priority\":{}",
                    job.0,
                    json_escape(name),
                    json_escape(tenant),
                    priority
                );
            }
            FleetEvent::Admitted { job } => {
                let _ = write!(s, ",\"job\":{}", job.0);
            }
            FleetEvent::Rejected { job, tenant, reason } => {
                match job {
                    Some(id) => {
                        let _ = write!(s, ",\"job\":{}", id.0);
                    }
                    None => s.push_str(",\"job\":null"),
                }
                let _ = write!(
                    s,
                    ",\"tenant\":\"{}\",\"reason\":\"{}\"",
                    json_escape(tenant),
                    reason.as_str()
                );
            }
            FleetEvent::Placed { job, device } => {
                let _ = write!(s, ",\"job\":{},\"device\":\"{}\"", job.0, json_escape(device));
            }
            FleetEvent::BatchFused { device, lanes } => {
                let _ = write!(s, ",\"device\":\"{}\",\"lanes\":{lanes}", json_escape(device));
            }
            FleetEvent::QuantumStart { device, jobs, start_s } => {
                let _ = write!(
                    s,
                    ",\"device\":\"{}\",\"jobs\":{},\"start_s\":{}",
                    json_escape(device),
                    json_jobs(jobs),
                    json_f64(*start_s)
                );
            }
            FleetEvent::QuantumEnd {
                device,
                jobs,
                iters,
                makespan_s,
                start_s,
                end_s,
                bytes_h2d,
                bytes_d2h,
            } => {
                let _ = write!(
                    s,
                    ",\"device\":\"{}\",\"jobs\":{},\"iters\":{iters},\"makespan_s\":{},\
                     \"start_s\":{},\"end_s\":{},\"bytes_h2d\":{bytes_h2d},\"bytes_d2h\":{bytes_d2h}",
                    json_escape(device),
                    json_jobs(jobs),
                    json_f64(*makespan_s),
                    json_f64(*start_s),
                    json_f64(*end_s)
                );
            }
            FleetEvent::Preempted { device, jobs } => {
                let _ = write!(
                    s,
                    ",\"device\":\"{}\",\"jobs\":{}",
                    json_escape(device),
                    json_jobs(jobs)
                );
            }
            FleetEvent::Completed { job, device, wait_s, turnaround_s } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"device\":\"{}\",\"wait_s\":{},\"turnaround_s\":{}",
                    job.0,
                    json_escape(device),
                    json_f64(*wait_s),
                    json_f64(*turnaround_s)
                );
            }
            FleetEvent::Cancelled { job, wait_s, turnaround_s } => {
                let _ = write!(
                    s,
                    ",\"job\":{},\"wait_s\":{},\"turnaround_s\":{}",
                    job.0,
                    json_f64(*wait_s),
                    json_f64(*turnaround_s)
                );
            }
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Where emitted [`EventRecord`]s go. Sinks are strictly observational:
/// the scheduler never reads anything back, so attaching one cannot
/// change results (the neutrality proptest pins this down). Sinks are
/// *not* checkpointed — a restored fleet starts unobserved, like
/// telemetry. Sinks are `Send` so a whole scheduler (and therefore a
/// shard) can be handed to a worker thread by the parallel runtime.
pub trait EventSink: Send {
    /// Receive one stamped event.
    fn emit(&mut self, record: &EventRecord);
    /// Flush any buffered output (called on detach; a no-op by default).
    fn flush(&mut self) {}
}

/// Shared handles observe too: `Arc<Mutex<Sink>>` lets a caller keep a
/// read handle while the scheduler owns the attached `Box<dyn EventSink>`.
/// The scheduler never re-enters the sink while a caller holds the lock,
/// and the parallel runtime only ticks a shard from one worker at a time,
/// so the mutex is uncontended in practice.
impl<S: EventSink> EventSink for Arc<Mutex<S>> {
    fn emit(&mut self, record: &EventRecord) {
        self.lock().expect("sink lock").emit(record);
    }
    fn flush(&mut self) {
        self.lock().expect("sink lock").flush();
    }
}

/// An in-memory event sink: unbounded, or a ring keeping the newest
/// `capacity` records.
#[derive(Clone, Debug, Default)]
pub struct RingSink {
    capacity: Option<usize>,
    records: VecDeque<EventRecord>,
}

impl RingSink {
    /// A sink that keeps every record.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A ring keeping only the newest `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity: Some(capacity.max(1)), records: VecDeque::new() }
    }

    /// Wrap into a shared handle: clone one side, attach the other
    /// (boxed) to the scheduler, and read the records afterwards.
    pub fn shared(self) -> Arc<Mutex<RingSink>> {
        Arc::new(Mutex::new(self))
    }

    /// Records captured so far, oldest first.
    pub fn records(&self) -> Vec<EventRecord> {
        self.records.iter().cloned().collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was captured (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain the captured records, oldest first.
    pub fn take(&mut self) -> Vec<EventRecord> {
        std::mem::take(&mut self.records).into_iter().collect()
    }
}

impl EventSink for RingSink {
    fn emit(&mut self, record: &EventRecord) {
        self.records.push_back(record.clone());
        if let Some(cap) = self.capacity {
            while self.records.len() > cap {
                self.records.pop_front();
            }
        }
    }
}

/// A JSON Lines file sink: one [`EventRecord::to_json`] object per line,
/// buffered, flushed on [`flush`](EventSink::flush) and on drop. Because
/// every stamp is modeled time, two identical replays write
/// byte-identical files.
pub struct JsonlSink {
    out: io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self { out: io::BufWriter::new(std::fs::File::create(path)?) })
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, record: &EventRecord) {
        let _ = writeln!(self.out, "{}", record.to_json());
    }
    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Histogram bucket bounds are powers of two from `2^MIN_EXP` to
/// `2^MAX_EXP` — wide enough for microsecond quanta and gigabyte byte
/// counts alike.
const MIN_EXP: i32 = -30;
const MAX_EXP: i32 = 30;
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// A log2-bucket histogram: observation `v` lands in the first bucket
/// whose upper bound `2^k` satisfies `v ≤ 2^k` (non-positive values land
/// in the lowest bucket). Deterministic and allocation-light — the
/// per-bucket counts are a fixed array.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; N_BUCKETS], count: 0, sum: 0.0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        let exp = v.log2().ceil() as i32;
        (exp.clamp(MIN_EXP, MAX_EXP) - MIN_EXP) as usize
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram into this one (the bucket layout is
    /// fixed, so bucket counts add element-wise).
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(upper_bound, cumulative_count)` for every non-empty bucket, in
    /// ascending bound order (the Prometheus exposition shape).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if c > 0 {
                out.push(((2f64).powi(MIN_EXP + i as i32), cum));
            }
        }
        out
    }
}

/// Counters, gauges and log2-bucket histograms fed from the fleet event
/// stream, with a snapshot API and a Prometheus text renderer.
///
/// Attach with [`Scheduler::attach_metrics`](crate::Scheduler::attach_metrics)
/// (or `enable_metrics`); the scheduler routes every emitted event
/// through [`record`](Self::record) before the sink sees it. The
/// registry is observational and never checkpointed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name` (created at zero on first touch).
    pub fn inc_by(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.inc_by(name, 1);
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Fold `other` into this registry: counters and histogram buckets
    /// add (both are monotone totals, so per-shard registries merge
    /// into exact fleet-wide ones); a gauge keeps the larger of the two
    /// readings (gauges are point-in-time samples, and the merged view
    /// reports the worst shard).
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, n) in &other.counters {
            self.inc_by(name, *n);
        }
        for (name, v) in &other.gauges {
            let g = self.gauges.entry(name.clone()).or_insert(f64::NEG_INFINITY);
            *g = g.max(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().absorb(h);
        }
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation created it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Route one event into the standard fleet metric set:
    ///
    /// | metric | type | fed by |
    /// |---|---|---|
    /// | `fleet_jobs_submitted_total` | counter | `Submitted` |
    /// | `fleet_jobs_admitted_total` | counter | `Admitted` |
    /// | `fleet_jobs_rejected_total` | counter | `Rejected` (bounces + sheds) |
    /// | `fleet_jobs_completed_total` | counter | `Completed` |
    /// | `fleet_jobs_cancelled_total` | counter | `Cancelled` |
    /// | `fleet_placements_total` | counter | `Placed` |
    /// | `fleet_batches_fused_total` | counter | `BatchFused` (groups formed) |
    /// | `fleet_preemptions_total` | counter | `Preempted` (assignments) |
    /// | `fleet_quanta_total` | counter | `QuantumEnd` |
    /// | `fleet_iterations_total` | counter | `QuantumEnd` iters |
    /// | `fleet_bytes_h2d_total` / `fleet_bytes_d2h_total` | counter | `QuantumEnd` bytes |
    /// | `fleet_wait_seconds` / `fleet_turnaround_seconds` | histogram | `Completed`/`Cancelled` |
    /// | `fleet_quantum_makespan_seconds` | histogram | `QuantumEnd` |
    /// | `fleet_bytes_per_iteration` | histogram | `QuantumEnd` |
    pub fn record(&mut self, record: &EventRecord) {
        match &record.event {
            FleetEvent::Submitted { .. } => self.inc("fleet_jobs_submitted_total"),
            FleetEvent::Admitted { .. } => self.inc("fleet_jobs_admitted_total"),
            FleetEvent::Rejected { .. } => self.inc("fleet_jobs_rejected_total"),
            FleetEvent::Placed { .. } => self.inc("fleet_placements_total"),
            FleetEvent::BatchFused { .. } => self.inc("fleet_batches_fused_total"),
            FleetEvent::QuantumStart { .. } => {}
            FleetEvent::QuantumEnd { iters, makespan_s, bytes_h2d, bytes_d2h, .. } => {
                self.inc("fleet_quanta_total");
                self.inc_by("fleet_iterations_total", *iters);
                self.inc_by("fleet_bytes_h2d_total", *bytes_h2d);
                self.inc_by("fleet_bytes_d2h_total", *bytes_d2h);
                self.observe("fleet_quantum_makespan_seconds", *makespan_s);
                if *iters > 0 {
                    let bytes = (*bytes_h2d + *bytes_d2h) as f64;
                    self.observe("fleet_bytes_per_iteration", bytes / *iters as f64);
                }
            }
            FleetEvent::Preempted { .. } => self.inc("fleet_preemptions_total"),
            FleetEvent::Completed { wait_s, turnaround_s, .. } => {
                self.inc("fleet_jobs_completed_total");
                self.observe("fleet_wait_seconds", *wait_s);
                self.observe("fleet_turnaround_seconds", *turnaround_s);
            }
            FleetEvent::Cancelled { wait_s, turnaround_s, .. } => {
                self.inc("fleet_jobs_cancelled_total");
                self.observe("fleet_wait_seconds", *wait_s);
                self.observe("fleet_turnaround_seconds", *turnaround_s);
            }
        }
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format: `# TYPE` headers, plain counters/gauges, and cumulative
    /// `_bucket{le="..."}` lines (non-empty buckets plus `+Inf`) with
    /// `_sum`/`_count` per histogram.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", json_f64(*v));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (bound, cum) in h.cumulative_buckets() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", json_f64(bound));
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", json_f64(h.sum()));
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

// ---------------------------------------------------------------------
// Scheduler-side state
// ---------------------------------------------------------------------

/// The scheduler's observability attachment point: an optional sink and
/// an optional metrics registry. Never checkpointed — a restored fleet
/// starts unobserved, exactly like telemetry.
#[derive(Default)]
pub(crate) struct ObserveState {
    pub sink: Option<Box<dyn EventSink>>,
    pub metrics: Option<MetricsRegistry>,
}

impl ObserveState {
    /// True when anything is attached — the zero-cost guard every
    /// emission site checks before building event payloads.
    pub fn enabled(&self) -> bool {
        self.sink.is_some() || self.metrics.is_some()
    }

    /// Feed the metrics registry, then the sink.
    pub fn emit(&mut self, record: EventRecord) {
        if let Some(m) = self.metrics.as_mut() {
            m.record(&record);
        }
        if let Some(s) = self.sink.as_mut() {
            s.emit(&record);
        }
    }
}

// ---------------------------------------------------------------------
// Event analytics
// ---------------------------------------------------------------------

/// Per-tenant lifecycle counts aggregated from an event stream (see
/// [`tenant_summaries`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantSummary {
    /// The tenant (empty string = unattributed submissions).
    pub tenant: String,
    /// `Submitted` events.
    pub submitted: u64,
    /// `Admitted` events.
    pub admitted: u64,
    /// `Rejected` events (bounces and sheds).
    pub rejected: u64,
    /// Preemption *hits*: how many times one of the tenant's jobs was
    /// sent back to the queue at a slice boundary.
    pub preempted: u64,
    /// `Completed` events.
    pub completed: u64,
    /// `Cancelled` events.
    pub cancelled: u64,
}

/// Aggregate an event stream into per-tenant lifecycle counts, in
/// tenant-name order. Job→tenant attribution comes from the `Submitted`
/// events in the same stream, so feed it a stream captured from the
/// beginning of the run.
pub fn tenant_summaries(records: &[EventRecord]) -> Vec<TenantSummary> {
    fn touch<'a>(
        tenants: &'a mut BTreeMap<String, TenantSummary>,
        tenant: &str,
    ) -> &'a mut TenantSummary {
        if !tenants.contains_key(tenant) {
            tenants.insert(
                tenant.to_string(),
                TenantSummary { tenant: tenant.to_string(), ..Default::default() },
            );
        }
        tenants.get_mut(tenant).expect("just inserted")
    }
    let mut tenants: BTreeMap<String, TenantSummary> = BTreeMap::new();
    let mut job_tenant: BTreeMap<JobId, String> = BTreeMap::new();
    for rec in records {
        match &rec.event {
            FleetEvent::Submitted { job, tenant, .. } => {
                job_tenant.insert(*job, tenant.clone());
                touch(&mut tenants, tenant).submitted += 1;
            }
            FleetEvent::Admitted { job } => {
                let tenant = job_tenant.get(job).cloned().unwrap_or_default();
                touch(&mut tenants, &tenant).admitted += 1;
            }
            FleetEvent::Rejected { tenant, .. } => {
                touch(&mut tenants, tenant).rejected += 1;
            }
            FleetEvent::Preempted { jobs, .. } => {
                for job in jobs {
                    let tenant = job_tenant.get(job).cloned().unwrap_or_default();
                    touch(&mut tenants, &tenant).preempted += 1;
                }
            }
            FleetEvent::Completed { job, .. } => {
                let tenant = job_tenant.get(job).cloned().unwrap_or_default();
                touch(&mut tenants, &tenant).completed += 1;
            }
            FleetEvent::Cancelled { job, .. } => {
                let tenant = job_tenant.get(job).cloned().unwrap_or_default();
                touch(&mut tenants, &tenant).cancelled += 1;
            }
            _ => {}
        }
    }
    tenants.into_values().collect()
}

/// Lower a fleet event stream into Chrome trace-event JSON
/// (`{"traceEvents":[...]}` — openable in Perfetto or
/// `chrome://tracing`). Each backend becomes one thread row (named via
/// `thread_name` metadata, in first-seen order); every `QuantumEnd`
/// becomes a complete (`ph:"X"`) span on its backend's row with
/// iteration and byte counts in `args`; preemptions render as instant
/// events. Timestamps are modeled seconds scaled to microseconds (the
/// trace format's unit).
pub fn chrome_trace(records: &[EventRecord]) -> String {
    let mut rows: BTreeMap<String, usize> = BTreeMap::new();
    let mut events: Vec<String> = Vec::new();
    let mut meta: Vec<String> = Vec::new();
    let tid_of = |device: &str, rows: &mut BTreeMap<String, usize>, meta: &mut Vec<String>| {
        if let Some(&tid) = rows.get(device) {
            return tid;
        }
        let tid = rows.len();
        rows.insert(device.to_string(), tid);
        meta.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(device)
        ));
        tid
    };
    for rec in records {
        match &rec.event {
            FleetEvent::QuantumEnd {
                device,
                jobs,
                iters,
                start_s,
                end_s,
                bytes_h2d,
                bytes_d2h,
                ..
            } => {
                let tid = tid_of(device, &mut rows, &mut meta);
                let names: Vec<String> = jobs.iter().map(|j| format!("j{}", j.0)).collect();
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"name\":\"{}\",\"cat\":\"quantum\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"iters\":{iters},\"bytes_h2d\":{bytes_h2d},\
                     \"bytes_d2h\":{bytes_d2h}}}}}",
                    json_escape(&names.join("+")),
                    json_f64(start_s * 1e6),
                    json_f64((end_s - start_s).max(0.0) * 1e6)
                ));
            }
            FleetEvent::Preempted { device, jobs } => {
                let tid = tid_of(device, &mut rows, &mut meta);
                events.push(format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"name\":\"preempt ({} jobs)\",\
                     \"cat\":\"scheduler\",\"ts\":{},\"s\":\"t\"}}",
                    jobs.len(),
                    json_f64(rec.now_s * 1e6)
                ));
            }
            _ => {}
        }
    }
    let mut all = meta;
    all.extend(events);
    format!("{{\"traceEvents\":[{}]}}", all.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(event: FleetEvent) -> EventRecord {
        EventRecord { tick: 3, now_s: 0.001, event }
    }

    #[test]
    fn json_lines_are_deterministic_and_escaped() {
        let rec = record(FleetEvent::Submitted {
            job: JobId(7),
            name: "a\"b".into(),
            tenant: "t\\1".into(),
            priority: 5,
        });
        let line = rec.to_json();
        assert_eq!(line, rec.to_json(), "rendering must be deterministic");
        assert!(line.contains("\\\"b"), "quotes must be escaped: {line}");
        assert!(line.contains("t\\\\1"), "backslashes must be escaped: {line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"submitted\""));
    }

    #[test]
    fn json_f64_renders_valid_numbers() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(5.0), "5.0");
        assert_eq!(json_f64(1e-5), "1e-5");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }

    #[test]
    fn ring_sink_bounds_and_shares() {
        let mut ring = RingSink::with_capacity(2);
        for i in 0..5u64 {
            ring.emit(&EventRecord {
                tick: i,
                now_s: 0.0,
                event: FleetEvent::Admitted { job: JobId(i) },
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.records()[0].tick, 3, "oldest records are evicted first");

        let shared = RingSink::unbounded().shared();
        let mut boxed: Box<dyn EventSink> = Box::new(shared.clone());
        boxed.emit(&record(FleetEvent::Admitted { job: JobId(0) }));
        assert_eq!(
            shared.lock().unwrap().len(),
            1,
            "the shared handle sees the boxed side's emits"
        );
    }

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let mut h = Histogram::new();
        for v in [0.0, 1e-6, 1e-6, 3.0, 1e12] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for w in buckets.windows(2) {
            assert!(w[1].0 > w[0].0 && w[1].1 >= w[0].1, "bounds and counts ascend");
        }
        assert_eq!(buckets.last().unwrap().1, 5, "the top bucket is cumulative over everything");
        // 3.0 lands in the 2^2 bucket (3 ≤ 4), not 2^1.
        assert!(buckets.iter().any(|&(b, _)| (b - 4.0).abs() < 1e-12));
    }

    #[test]
    fn registry_routes_events_and_renders_prometheus() {
        let mut reg = MetricsRegistry::new();
        reg.record(&record(FleetEvent::Completed {
            job: JobId(0),
            device: "dev0".into(),
            wait_s: 1e-4,
            turnaround_s: 2e-4,
        }));
        reg.record(&record(FleetEvent::QuantumEnd {
            device: "dev0".into(),
            jobs: vec![JobId(0)],
            iters: 4,
            makespan_s: 1e-3,
            start_s: 0.0,
            end_s: 1e-3,
            bytes_h2d: 100,
            bytes_d2h: 300,
        }));
        reg.set_gauge("fleet_queue_depth", 2.0);
        assert_eq!(reg.counter("fleet_jobs_completed_total"), 1);
        assert_eq!(reg.counter("fleet_iterations_total"), 4);
        assert_eq!(reg.counter("fleet_bytes_d2h_total"), 300);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE fleet_jobs_completed_total counter"));
        assert!(text.contains("fleet_jobs_completed_total 1"));
        assert!(text.contains("# TYPE fleet_queue_depth gauge"));
        assert!(text.contains("fleet_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("fleet_wait_seconds_count 1"));
    }

    #[test]
    fn tenant_summaries_attribute_through_the_job_map() {
        let records = vec![
            record(FleetEvent::Submitted {
                job: JobId(1),
                name: "a".into(),
                tenant: "alpha".into(),
                priority: 0,
            }),
            record(FleetEvent::Admitted { job: JobId(1) }),
            record(FleetEvent::Preempted { device: "dev0".into(), jobs: vec![JobId(1)] }),
            record(FleetEvent::Completed {
                job: JobId(1),
                device: "dev0".into(),
                wait_s: 0.0,
                turnaround_s: 0.0,
            }),
            record(FleetEvent::Rejected {
                job: None,
                tenant: "beta".into(),
                reason: RejectReason::QueueFull,
            }),
        ];
        let summaries = tenant_summaries(&records);
        assert_eq!(summaries.len(), 2);
        let alpha = &summaries[0];
        assert_eq!(
            (alpha.tenant.as_str(), alpha.admitted, alpha.preempted, alpha.completed),
            ("alpha", 1, 1, 1)
        );
        assert_eq!((summaries[1].tenant.as_str(), summaries[1].rejected), ("beta", 1));
    }

    #[test]
    fn chrome_trace_has_rows_and_spans() {
        let records = vec![
            record(FleetEvent::QuantumEnd {
                device: "dev0[GTX 280]".into(),
                jobs: vec![JobId(1), JobId(2)],
                iters: 2,
                makespan_s: 1e-3,
                start_s: 0.0,
                end_s: 1e-3,
                bytes_h2d: 64,
                bytes_d2h: 4096,
            }),
            record(FleetEvent::Preempted { device: "dev0[GTX 280]".into(), jobs: vec![JobId(1)] }),
        ];
        let json = chrome_trace(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"j1+j2\""));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
