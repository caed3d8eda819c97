//! The fleet scheduler: the generic submission path, queue, fair-share
//! placement, quantum-preemptive fused stepping, cancellation,
//! iteration budgets and deadlines, and checkpointing. Periodic
//! snapshots are the caller's to schedule, through
//! [`DeltaCheckpointer`](crate::DeltaCheckpointer).

use crate::exec::{BatchKey, JobExec};
use crate::job::{JobHandle, JobId, JobReport, JobStatus};
use crate::observe::{EventRecord, EventSink, FleetEvent, MetricsRegistry, ObserveState};
use crate::report::{FleetReport, TenantStat};
use crate::results::{Fate, ResultLog};
use crate::submit::{JobSpec, SearchJob, SubmitCtx};
use crate::telemetry::{Telemetry, TickSample};
use lnls_core::persist::{Persist, PersistError, Reader};
use lnls_gpu_sim::{DeviceSpec, HostSpec, LaunchMode, MultiDevice, SelectionMode, TimeBook};
use std::collections::{BTreeMap, BTreeSet};

/// How queued jobs are placed onto idle backends.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PlacePolicy {
    /// Cycle through backends in fixed order.
    RoundRobin,
    /// Prefer the backend whose clock (busy time so far) is lowest,
    /// breaking ties toward devices, then lower index.
    #[default]
    LeastLoaded,
}

/// Scheduler knobs.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Placement policy.
    pub policy: PlacePolicy,
    /// CPU worker backends in addition to the device fleet.
    pub cpu_workers: usize,
    /// Fuse up to this many same-key jobs per device assignment
    /// (1 disables launch batching).
    pub max_batch: usize,
    /// Host description for CPU-worker pricing.
    pub host: HostSpec,
    /// Preemption quantum, in neighborhood iterations. `None` keeps the
    /// legacy run-to-completion behavior; `Some(q)` makes every
    /// assignment a *time slice*: after its slice a still-running job
    /// returns to the queue and placement re-runs under deficit
    /// round-robin, so no tenant monopolizes a backend. Preemption never
    /// changes a job's result — only who waits how long.
    pub quantum_iters: Option<u64>,
    /// Telemetry cadence: every `n` ticks the scheduler appends one
    /// [`TickSample`](crate::TickSample) (queue depth, running jobs,
    /// cumulative outcome counters, per-device busy time and cumulative
    /// PCIe bytes) to the [`Telemetry`](crate::Telemetry) series
    /// surfaced through [`Scheduler::telemetry`] and
    /// [`FleetReport::telemetry`]. `None` (the default) records nothing.
    /// The series is observational and not checkpointed.
    pub telemetry_every_ticks: Option<u64>,
    /// Telemetry memory bound: cap the sample series at this many
    /// entries; on overflow the series is thinned deterministically
    /// (keep-every-other compaction — see
    /// [`Telemetry::with_cap`](crate::Telemetry::with_cap)), so long
    /// saturation runs hold a coarser history in flat memory. `None`
    /// (the default) keeps every sample. The compaction is a pure
    /// function of the push sequence, so replayed runs stay
    /// bit-identical.
    pub telemetry_max_samples: Option<usize>,
    /// Fleet-wide best-neighbor selection mode: how evaluated batches'
    /// readbacks are priced. [`SelectionMode::HostArgmin`] (the default)
    /// is the paper's loop — the whole fitness array crosses PCIe every
    /// iteration; [`SelectionMode::DeviceArgmin`] prices an on-device
    /// reduction launch and shrinks each lane's readback to one packed
    /// record. Overridable per job with
    /// [`JobSpec::with_selection`](crate::JobSpec::with_selection).
    /// Pricing-only: search results are bit-identical under either mode.
    pub selection: SelectionMode,
    /// Fused-group span length: how many consecutive iterations a fused
    /// device assignment runs (and prices) as **one** breadth-first
    /// stream schedule per tick, double-buffering iteration `k+1`'s
    /// uploads against iteration `k`'s kernel. 1 (the default) is the
    /// legacy one-iteration-per-tick contract. Spans are capped at the
    /// slice remainder (never crossing a quantum, so preemption
    /// semantics are untouched) and at the tightest member iteration
    /// budget (so envelopes retire at exactly the same iteration).
    /// Pricing-only: search results are bit-identical under every span
    /// length.
    pub span_iters: u64,
    /// How fused spans charge kernel-launch overhead:
    /// [`LaunchMode::PerIteration`] (the default) re-launches every
    /// iteration; [`LaunchMode::PersistentSpan`] keeps the kernel
    /// resident and charges the overhead once per span. Pricing-only,
    /// like [`span_iters`](Self::span_iters).
    pub launch_mode: LaunchMode,
    /// First job id / submission sequence number this scheduler hands
    /// out (default 0). A sharded fleet gives each member scheduler a
    /// disjoint base (shard `i` starts at `i << 40`), so jobs keep
    /// globally unique identities when work stealing moves them between
    /// shards — and shard 0 of a 1-shard fleet, based at 0, stays
    /// bit-identical to a bare scheduler.
    pub id_base: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            policy: PlacePolicy::default(),
            cpu_workers: 0,
            max_batch: 8,
            host: HostSpec::xeon_3ghz(),
            quantum_iters: None,
            telemetry_every_ticks: None,
            telemetry_max_samples: None,
            selection: SelectionMode::HostArgmin,
            span_iters: 1,
            launch_mode: LaunchMode::PerIteration,
            id_base: 0,
        }
    }
}

/// A live job plus its deficit-round-robin credit (iterations of
/// backend time it is owed; always 0 when preemption is off): a queued
/// job, or an in-flight one inside an assignment with the credit it
/// carried in.
pub(crate) struct QueueEntry {
    pub job: Box<dyn JobExec>,
    pub deficit: u64,
}

impl Clone for QueueEntry {
    fn clone(&self) -> Self {
        Self { job: self.job.clone_box(), deficit: self.deficit }
    }
}

pub(crate) struct Active {
    pub jobs: Vec<QueueEntry>,
    pub started_s: f64,
    /// Iterations this assignment may run before preemption
    /// (`u64::MAX` when preemption is off).
    pub slice_budget: u64,
    /// Iterations consumed since the slice began.
    pub slice_used: u64,
}

/// Per-job lifecycle timestamps and envelope policy (tenant, budget,
/// deadline, checkpointability) the reports and drain sweeps are built
/// from. Live jobs only: it retires with its job, whose report carries
/// the tenant and the timestamps from then on. Its codec is shared by
/// base and delta checkpoint segments; the id travels with the map
/// entry, not in here.
#[derive(Clone, Debug)]
pub(crate) struct JobMeta {
    pub submitted_s: f64,
    pub first_started_s: Option<f64>,
    pub tenant: String,
    pub iter_budget: Option<u64>,
    pub deadline_s: Option<f64>,
    pub checkpoint: bool,
}

impl Persist for JobMeta {
    fn write(&self, out: &mut Vec<u8>) {
        self.submitted_s.write(out);
        self.first_started_s.write(out);
        self.tenant.write(out);
        self.iter_budget.write(out);
        self.deadline_s.write(out);
        self.checkpoint.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            submitted_s: r.read()?,
            first_started_s: r.read()?,
            tenant: r.read()?,
            iter_budget: r.read()?,
            deadline_s: r.read()?,
            checkpoint: r.read()?,
        })
    }
}

/// The scheduler's cumulative counters: what a run accumulates tick by
/// tick and a checkpoint carries forward. Base and delta segments both
/// write them as this one block.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Counters {
    /// Serial-equivalent seconds of every retired job on device 0.
    pub serialized_s: f64,
    pub fused_launches: u64,
    pub launches_saved: u64,
    pub preemptions: u64,
    pub ticks: u64,
    /// Job-iterations executed across every backend step (fused groups
    /// count one per member) — the denominator of the bytes-moved-per-
    /// iteration report.
    pub iterations_executed: u64,
    /// Cumulative stream-schedule makespan charged by device steps.
    pub stream_makespan_s: f64,
    /// What the same device operations would cost back-to-back — the
    /// stream-overlap baseline.
    pub stream_serialized_s: f64,
    /// Multi-iteration stream spans priced by fused steps.
    pub spans: u64,
    /// Iterations that ran inside those spans (mean span length =
    /// `span_iterations / spans`).
    pub span_iterations: u64,
    /// Launch overhead amortized away by persistent-kernel spans.
    pub launch_overhead_saved_s: f64,
}

impl Persist for Counters {
    fn write(&self, out: &mut Vec<u8>) {
        self.serialized_s.write(out);
        self.fused_launches.write(out);
        self.launches_saved.write(out);
        self.preemptions.write(out);
        self.ticks.write(out);
        self.iterations_executed.write(out);
        self.stream_makespan_s.write(out);
        self.stream_serialized_s.write(out);
        self.spans.write(out);
        self.span_iterations.write(out);
        self.launch_overhead_saved_s.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            serialized_s: r.read()?,
            fused_launches: r.read()?,
            launches_saved: r.read()?,
            preemptions: r.read()?,
            ticks: r.read()?,
            iterations_executed: r.read()?,
            stream_makespan_s: r.read()?,
            stream_serialized_s: r.read()?,
            spans: r.read()?,
            span_iterations: r.read()?,
            launch_overhead_saved_s: r.read()?,
        })
    }
}

/// A queued job in transit between schedulers: the executor (cursor
/// state included), its lifecycle metadata, its fair-share credit and
/// any pending cancel request — everything the donor knew. Produced by
/// [`Scheduler::donate_queued`], consumed by [`Scheduler::adopt`];
/// opaque on purpose, because the only correct thing to do with one is
/// hand it to another scheduler (dropping it loses the job, exactly
/// like dropping a checkpoint).
pub struct StolenJob {
    job: Box<dyn JobExec>,
    meta: JobMeta,
    deficit: u64,
    cancel_requested: bool,
}

impl StolenJob {
    /// The job's fleet-wide identity (preserved across the move).
    pub fn id(&self) -> JobId {
        self.job.id()
    }

    /// The tenant the job was submitted under.
    pub fn tenant(&self) -> &str {
        &self.meta.tenant
    }

    /// The job's queue priority.
    pub fn priority(&self) -> u8 {
        self.job.priority()
    }
}

/// A batched multi-tenant search scheduler over a simulated device fleet.
///
/// Submit any [`SearchJob`] through the one generic entry point
/// ([`submit`](Self::submit), or [`submit_spec`](Self::submit_spec) for
/// an enveloped submission), then drive the simulation with
/// [`tick`](Self::tick) / [`run_until_idle`](Self::run_until_idle) /
/// [`await_report`](Self::await_report). All time is *modeled* time from
/// the gpu-sim cost models; execution is deterministic, so fleet runs
/// return bit-identical search results to solo runs of the same jobs.
///
/// Backends are the devices of the owned [`MultiDevice`] plus
/// `cpu_workers` host workers. Each backend executes one assignment at a
/// time; a device assignment may be a *fused group* of up to `max_batch`
/// jobs sharing a batch key, whose per-iteration evaluations ride in one
/// launch (see [`lnls_core::BatchedExplorer`]).
///
/// With [`SchedulerConfig::quantum_iters`] set, assignments are time
/// slices: a job that exhausts its quantum is preempted back into the
/// queue (cursor intact — every job is a
/// [`SearchCursor`](lnls_core::SearchCursor)), and the queue is served
/// by deficit round-robin weighted by `priority + 1`, so long QAP runs
/// no longer starve short tenants. Results are invariant under any
/// quantum; only waiting times change.
pub struct Scheduler {
    pub(crate) devices: MultiDevice,
    /// Checkpointed state; the snapshot writer reads it in place.
    pub(crate) state: FleetState,
    /// Live jobs carrying an envelope constraint (deadline or iteration
    /// budget) — lets the per-tick policy sweep skip entirely in the
    /// common all-plain-submissions case.
    pub(crate) policed: BTreeSet<JobId>,
    telemetry: Option<Telemetry>,
    /// Attached observability (event sink + metrics registry). Strictly
    /// observational and never checkpointed — a restored fleet starts
    /// unobserved, like telemetry.
    observe: ObserveState,
}

impl Scheduler {
    /// A scheduler owning `devices` with the given knobs.
    pub fn new(devices: MultiDevice, cfg: SchedulerConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.quantum_iters != Some(0), "quantum_iters must be at least 1");
        assert!(cfg.span_iters >= 1, "span_iters must be at least 1");
        let backends = devices.len() + cfg.cpu_workers;
        let telemetry =
            cfg.telemetry_every_ticks.map(|_| Telemetry::with_cap(cfg.telemetry_max_samples));
        Self {
            devices,
            state: FleetState::new(cfg, backends),
            policed: BTreeSet::new(),
            telemetry,
            observe: ObserveState::default(),
        }
    }

    /// Convenience: `count` identical devices of `spec`.
    pub fn with_uniform_fleet(count: usize, spec: DeviceSpec, cfg: SchedulerConfig) -> Self {
        Self::new(MultiDevice::new_uniform(count, spec), cfg)
    }

    /// The owned fleet.
    pub fn devices(&self) -> &MultiDevice {
        &self.devices
    }

    /// Current fleet time: the most advanced backend clock (modeled
    /// seconds — the clock [`JobSpec::with_deadline`] compares against).
    pub fn now_s(&self) -> f64 {
        self.state.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Jobs currently waiting in the queue (what admission-control caps
    /// count).
    pub fn queued_len(&self) -> usize {
        self.state.queue.len()
    }

    /// Jobs currently placed on a backend (members of fused groups each
    /// count once). With `queued_len` this is the cheap idleness probe
    /// the workload driver polls every tick.
    pub fn running_len(&self) -> usize {
        self.state.active.iter().flatten().map(|a| a.jobs.len()).sum()
    }

    /// The telemetry series recorded so far, when
    /// [`SchedulerConfig::telemetry_every_ticks`] is set.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    // -- observability -------------------------------------------------

    /// Attach an event sink: every [`FleetEvent`] from now on is stamped
    /// with the tick and the modeled fleet clock and handed to `sink`.
    /// Strictly observational — results are bit-identical with or
    /// without a sink — and zero-cost while nothing is attached. Sinks
    /// are never checkpointed; a restored fleet starts unobserved.
    /// Replaces (and drops) any previously attached sink.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.observe.sink = Some(sink);
    }

    /// Detach the current event sink (flushed first), if any.
    pub fn detach_sink(&mut self) -> Option<Box<dyn EventSink>> {
        let mut sink = self.observe.sink.take();
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    /// Attach a metrics registry: every emitted event is routed through
    /// [`MetricsRegistry::record`] (before any sink sees it), and the
    /// tick loop keeps the `fleet_queue_depth` / `fleet_jobs_running`
    /// gauges current. Observational and never checkpointed.
    pub fn attach_metrics(&mut self, registry: MetricsRegistry) {
        self.observe.metrics = Some(registry);
    }

    /// Convenience: attach a fresh, empty [`MetricsRegistry`].
    pub fn enable_metrics(&mut self) {
        self.attach_metrics(MetricsRegistry::new());
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.observe.metrics.as_ref()
    }

    /// Detach and return the attached metrics registry, if any.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.observe.metrics.take()
    }

    /// True when a sink or a metrics registry is attached — the
    /// zero-cost guard emission sites check before building payloads.
    pub(crate) fn observing(&self) -> bool {
        self.observe.enabled()
    }

    /// Stamp `event` with the current tick + fleet clock and feed the
    /// attached observers (metrics first, then the sink).
    pub(crate) fn emit_event(&mut self, event: FleetEvent) {
        if !self.observe.enabled() {
            return;
        }
        let record = EventRecord { tick: self.state.counters.ticks, now_s: self.now_s(), event };
        self.observe.emit(record);
    }

    /// Identities of the currently queued jobs (one snapshot for
    /// admission-control planning, instead of per-job status scans).
    pub(crate) fn queued_job_ids(&self) -> BTreeSet<JobId> {
        self.state.queue.iter().map(|e| e.job.id()).collect()
    }

    /// `(id, tenant, priority)` of every *live* job — queued or placed
    /// on a backend. What
    /// [`FleetClient::resume`](crate::FleetClient::resume) rebuilds its
    /// admission bookkeeping from after a restore: running jobs matter
    /// too, because under preemption they return to the queue and must
    /// count against caps and be shed-eligible, exactly as they were in
    /// the pre-crash client.
    pub(crate) fn live_rows(&self) -> Vec<(JobId, String, u8)> {
        self.state
            .live()
            .map(|e| {
                let id = e.job.id();
                let tenant =
                    self.state.meta.get(&id).map_or_else(String::new, |m| m.tenant.clone());
                (id, tenant, e.job.priority())
            })
            .collect()
    }

    /// True once `handle`'s job has a final report (done, cancelled or
    /// rejected) — the client uses this to prune its bookkeeping.
    pub(crate) fn is_terminal(&self, handle: JobHandle) -> bool {
        self.state.results.fate(handle.id).is_some()
    }

    /// Remove a *queued* (not running) job from this scheduler and hand
    /// it over as a [`StolenJob`] — the donor half of shard-level work
    /// stealing. Returns `None` when `id` is not currently queued
    /// (running, finished and unknown jobs are not donatable; stealing
    /// only ever moves jobs that have not started their current slice,
    /// so preemption semantics are untouched). The job's metadata,
    /// fair-share deficit and any pending cancel request travel with
    /// it; the donor forgets the job entirely.
    pub fn donate_queued(&mut self, id: JobId) -> Option<StolenJob> {
        let pos = self.state.queue.iter().position(|e| e.job.id() == id)?;
        let entry = self.state.queue.remove(pos);
        let meta = self.state.meta.remove(&id).expect("every live job carries metadata");
        self.policed.remove(&id);
        let cancel_requested = self.state.cancel_requested.remove(&id);
        Some(StolenJob { job: entry.job, meta, deficit: entry.deficit, cancel_requested })
    }

    /// Adopt a job donated by another scheduler: the taker half of
    /// shard-level work stealing. The job keeps its identity, priority,
    /// submission timestamps, envelope policy, fair-share deficit and
    /// pending cancel request, and joins this scheduler's queue as if
    /// it had always been here.
    ///
    /// # Panics
    /// Panics if the adopted id collides with a job this scheduler
    /// already knows — donors and takers must draw ids from disjoint
    /// [`SchedulerConfig::id_base`] ranges.
    pub fn adopt(&mut self, stolen: StolenJob) -> JobHandle {
        let StolenJob { job, meta, deficit, cancel_requested } = stolen;
        let id = job.id();
        assert!(
            !self.state.meta.contains_key(&id) && self.state.results.fate(id).is_none(),
            "adopted job id {id:?} collides; give shards disjoint `id_base` ranges"
        );
        if meta.iter_budget.is_some() || meta.deadline_s.is_some() {
            self.policed.insert(id);
        }
        if cancel_requested {
            self.state.cancel_requested.insert(id);
        }
        self.state.meta.insert(id, meta);
        self.state.queue.push(QueueEntry { job, deficit });
        JobHandle { id }
    }

    /// The most recently submitted queued job (highest submission
    /// sequence number), if any — the one a steal barrier donates
    /// first: the newest arrival has waited least, so moving it
    /// perturbs fairness least.
    pub fn newest_queued(&self) -> Option<JobId> {
        self.state.queue.iter().max_by_key(|e| e.job.seq()).map(|e| e.job.id())
    }

    fn fresh_ids(&mut self) -> (JobId, u64) {
        let id = JobId(self.state.next_id);
        self.state.next_id += 1;
        let seq = self.state.next_seq;
        self.state.next_seq += 1;
        (id, seq)
    }

    /// Submit any [`SearchJob`] — the one generic entry point for every
    /// workload: binary tabu, QAP robust tabu, simulated annealing, or
    /// an external implementation.
    ///
    /// Equivalent to [`submit_spec`](Self::submit_spec) with a default
    /// envelope. Admission control lives one layer up, in
    /// [`FleetClient`](crate::FleetClient); the raw scheduler accepts
    /// everything.
    pub fn submit<J: SearchJob>(&mut self, job: J) -> JobHandle {
        self.submit_spec(JobSpec::new(job))
    }

    /// Submit an enveloped [`SearchJob`]: the [`JobSpec`] adds tenant
    /// attribution, name/priority overrides, an iteration budget, a
    /// deadline and the checkpoint policy on top of the job itself.
    pub fn submit_spec<J: SearchJob>(&mut self, spec: JobSpec<J>) -> JobHandle {
        let (id, seq) = self.fresh_ids();
        let JobSpec { job, name, priority, tenant, iter_budget, deadline_s, checkpoint, selection } =
            spec;
        let ctx = SubmitCtx {
            id,
            seq,
            host: self.state.cfg.host.clone(),
            selection: selection.unwrap_or(self.state.cfg.selection),
            name_override: name,
            priority_override: priority,
        };
        let exec = Box::new(job).into_exec(ctx);
        debug_assert_eq!(exec.id(), id, "executors must adopt the SubmitCtx identity");
        if iter_budget.is_some() || deadline_s.is_some() {
            self.policed.insert(id);
        }
        let submitted_event = self.observing().then(|| FleetEvent::Submitted {
            job: id,
            name: exec.name().to_string(),
            tenant: tenant.clone(),
            priority: exec.priority(),
        });
        self.state.meta.insert(
            id,
            JobMeta {
                submitted_s: self.now_s(),
                first_started_s: None,
                tenant,
                iter_budget,
                deadline_s,
                checkpoint,
            },
        );
        self.state.queue.push(QueueEntry { job: exec, deficit: 0 });
        if let Some(event) = submitted_event {
            self.emit_event(event);
        }
        JobHandle { id }
    }

    /// Where `handle`'s job currently is.
    pub fn status(&self, handle: JobHandle) -> JobStatus {
        if let Some(fate) = self.state.results.fate(handle.id) {
            return fate.status();
        }
        if self.state.queue.iter().any(|e| e.job.id() == handle.id) {
            return JobStatus::Queued;
        }
        let running = self
            .state
            .active
            .iter()
            .flatten()
            .flat_map(|a| a.jobs.iter())
            .any(|a| a.job.id() == handle.id);
        if running {
            JobStatus::Running
        } else {
            JobStatus::Unknown
        }
    }

    /// Request cancellation of `handle`'s job. The job is drained at the
    /// next quantum boundary (the next [`tick`](Self::tick)): it leaves
    /// the queue or its fused group, and its report — marked
    /// [`cancelled`](JobReport::cancelled), with the best-so-far at the
    /// boundary — lands in [`reports`](Self::reports). Returns `false`
    /// for jobs already finished or unknown to this scheduler.
    pub fn cancel(&mut self, handle: JobHandle) -> bool {
        if self.state.results.fate(handle.id).is_some() {
            return false;
        }
        if self.state.live().any(|e| e.job.id() == handle.id) {
            self.state.cancel_requested.insert(handle.id);
            true
        } else {
            false
        }
    }

    /// Evict a *queued* job on behalf of admission control (the
    /// shed-lowest-priority policy of
    /// [`FleetClient`](crate::FleetClient)). The job leaves the queue
    /// immediately; its report is marked
    /// [`rejected`](JobReport::rejected) and carries whatever had been
    /// computed before the eviction (a previously-preempted job may have
    /// partial progress). Returns `false` when the job is not currently
    /// queued.
    pub fn reject_queued(&mut self, handle: JobHandle) -> bool {
        let Some(i) = self.state.queue.iter().position(|e| e.job.id() == handle.id) else {
            return false;
        };
        let entry = self.state.queue.swap_remove(i);
        self.state.counters.serialized_s += entry.job.serial_equivalent_s(self.devices.spec(0));
        let now = self.now_s();
        self.complete(entry.job, "(rejected by admission control)".into(), now, false, true);
        true
    }

    /// The report of a completed job, if it completed.
    pub fn report(&self, handle: JobHandle) -> Option<&JobReport> {
        self.state.results.report(handle.id)
    }

    /// All completed reports, in job-id order.
    pub fn reports(&self) -> impl Iterator<Item = &JobReport> {
        self.state.results.reports()
    }

    /// Drive the simulation until `handle` completes, then return its
    /// report.
    ///
    /// # Panics
    /// Panics if the job is unknown to this scheduler.
    pub fn await_report(&mut self, handle: JobHandle) -> &JobReport {
        while self.state.results.fate(handle.id).is_none() {
            assert!(
                self.tick(),
                "job {} cannot complete: scheduler went idle without it",
                handle.id
            );
        }
        self.state.results.report(handle.id).expect("a finished job has a report")
    }

    /// Run until every submitted job has completed.
    pub fn run_until_idle(&mut self) {
        while self.tick() {}
    }

    /// Advance the fleet one step: drain pending cancellations, missed
    /// deadlines and exhausted iteration budgets; place queued jobs on
    /// idle backends; then run one quantum (one fused *span* of up to
    /// [`SchedulerConfig::span_iters`] iterations for a batched group,
    /// up to the slice budget for a solo assignment) on every busy
    /// backend, preempting assignments whose slice expired. Returns
    /// `false` once the fleet is idle.
    pub fn tick(&mut self) -> bool {
        self.drain_cancelled();
        self.drain_policy();
        self.place();
        let mut progressed = false;
        for b in 0..self.state.active.len() {
            progressed |= self.step_backend(b);
        }
        self.state.counters.ticks += 1;
        if let Some(every) = self.state.cfg.telemetry_every_ticks {
            if every > 0 && self.state.counters.ticks.is_multiple_of(every) {
                self.sample_telemetry();
            }
        }
        if self.observe.metrics.is_some() {
            let depth = self.state.queue.len() as f64;
            let running = self.running_len() as f64;
            if let Some(m) = self.observe.metrics.as_mut() {
                m.set_gauge("fleet_queue_depth", depth);
                m.set_gauge("fleet_jobs_running", running);
            }
        }
        progressed || !self.state.queue.is_empty()
    }

    /// Append one [`TickSample`] of the current fleet state.
    fn sample_telemetry(&mut self) {
        let books = self.devices.books_sum();
        let sample = TickSample {
            tick: self.state.counters.ticks,
            now_s: self.now_s(),
            queue_depth: self.state.queue.len() as u64,
            running: self.running_len() as u64,
            completed: self.state.results.count(Fate::Done),
            cancelled: self.state.results.count(Fate::Cancelled),
            rejected: self.state.results.count(Fate::Rejected),
            preemptions: self.state.counters.preemptions,
            device_busy_s: self.state.clocks[..self.devices.len()].to_vec(),
            bytes_h2d: books.bytes_h2d,
            bytes_d2h: books.bytes_d2h,
        };
        if let Some(t) = self.telemetry.as_mut() {
            t.push(sample);
        }
    }

    // -- completion ----------------------------------------------------

    /// Retire one job into the result log, stamping lifecycle times
    /// from its metadata, which retires with it. Backend clocks advance
    /// independently, so a job submitted while another backend raced
    /// ahead can be placed on a clock that still reads *earlier* than
    /// its submission instant; the stamps are clamped monotone
    /// (submitted ≤ started ≤ finished) so reports never show a job
    /// starting before it existed. A job that
    /// never reached a backend (cancelled while queued) reports
    /// `started_s == submitted_s`: it has no placement instant, and a
    /// fabricated one would pollute the fairness aggregates preemption
    /// is measured by.
    fn complete(
        &mut self,
        mut job: Box<dyn JobExec>,
        backend: String,
        at_s: f64,
        cancelled: bool,
        rejected: bool,
    ) {
        let id = job.id();
        let meta = self.state.meta.remove(&id);
        let submitted_s = meta.as_ref().map_or(0.0, |m| m.submitted_s);
        let started_s =
            meta.as_ref().and_then(|m| m.first_started_s).unwrap_or(submitted_s).max(submitted_s);
        let backend_label = if self.observing() { backend.clone() } else { String::new() };
        let mut report = job.finish(backend, started_s, at_s.max(started_s));
        report.submitted_s = submitted_s;
        report.cancelled = cancelled;
        report.rejected = rejected;
        report.tenant = meta.map_or_else(String::new, |m| m.tenant);
        self.policed.remove(&id);
        let retire_event = self.observing().then(|| {
            let (wait_s, turnaround_s) = (report.wait_s(), report.turnaround_s());
            if rejected {
                FleetEvent::Rejected {
                    job: Some(id),
                    tenant: report.tenant.clone(),
                    reason: crate::observe::RejectReason::Shed,
                }
            } else if cancelled {
                FleetEvent::Cancelled { job: id, wait_s, turnaround_s }
            } else {
                FleetEvent::Completed { job: id, device: backend_label, wait_s, turnaround_s }
            }
        });
        self.state.results.push(report);
        if let Some(event) = retire_event {
            self.emit_event(event);
        }
    }

    /// Drain every job in `ids` out of the queue and the active slots,
    /// completing each with the given disposition flags.
    fn drain_ids(&mut self, ids: &BTreeSet<JobId>, queued_backend: &str, cancelled: bool) {
        let now = self.now_s();
        let mut i = 0;
        while i < self.state.queue.len() {
            if ids.contains(&self.state.queue[i].job.id()) {
                let entry = self.state.queue.swap_remove(i);
                self.state.counters.serialized_s +=
                    entry.job.serial_equivalent_s(self.devices.spec(0));
                self.complete(entry.job, queued_backend.into(), now, cancelled, false);
            } else {
                i += 1;
            }
        }
        for b in 0..self.state.active.len() {
            let Some(mut active) = self.state.active[b].take() else { continue };
            let mut still = Vec::with_capacity(active.jobs.len());
            for entry in active.jobs {
                if ids.contains(&entry.job.id()) {
                    self.state.counters.serialized_s +=
                        entry.job.serial_equivalent_s(self.devices.spec(0));
                    let name = self.backend_name(b);
                    let at = self.state.clocks[b];
                    self.complete(entry.job, name, at, cancelled, false);
                } else {
                    still.push(entry);
                }
            }
            if !still.is_empty() {
                active.jobs = still;
                self.state.active[b] = Some(active);
            }
        }
    }

    fn drain_cancelled(&mut self) {
        if self.state.cancel_requested.is_empty() {
            return;
        }
        let ids = std::mem::take(&mut self.state.cancel_requested);
        self.drain_ids(&ids, "(cancelled while queued)", true);
    }

    /// Enforce the submission envelopes: jobs past their deadline drain
    /// through the cancellation path (report marked cancelled); jobs
    /// that exhausted their iteration budget complete normally with the
    /// best-so-far.
    fn drain_policy(&mut self) {
        if self.policed.is_empty() {
            return;
        }
        let now = self.now_s();
        let mut over_deadline = BTreeSet::new();
        let mut over_budget = BTreeSet::new();
        for QueueEntry { job, .. } in self.state.live() {
            if !self.policed.contains(&job.id()) {
                continue;
            }
            let Some(meta) = self.state.meta.get(&job.id()) else { continue };
            if meta.deadline_s.is_some_and(|d| now >= d) {
                over_deadline.insert(job.id());
            } else if meta.iter_budget.is_some_and(|b| job.iterations() >= b) {
                over_budget.insert(job.id());
            }
        }
        if !over_deadline.is_empty() {
            self.drain_ids(&over_deadline, "(deadline missed while queued)", true);
        }
        if !over_budget.is_empty() {
            self.drain_ids(&over_budget, "(iteration budget exhausted)", false);
        }
    }

    // -- placement ----------------------------------------------------

    fn idle_backends(&self) -> Vec<usize> {
        (0..self.state.active.len()).filter(|&b| self.state.active[b].is_none()).collect()
    }

    /// Index into `queue` of the next lead job.
    ///
    /// Run-to-completion mode keeps the legacy strict order (priority
    /// desc, submission asc). Preemptive mode is deficit round-robin:
    /// every job carries a credit of backend iterations; when all
    /// credits are spent a new round tops every queued job up by
    /// `quantum · (priority + 1)`, and the richest job runs next. Higher
    /// priority thus buys a proportionally *larger share* of the fleet
    /// instead of absolute precedence, and nobody starves.
    fn next_job_index(&mut self) -> Option<usize> {
        if self.state.queue.is_empty() {
            return None;
        }
        match self.state.cfg.quantum_iters {
            None => (0..self.state.queue.len()).min_by_key(|&i| {
                let j = &self.state.queue[i].job;
                (std::cmp::Reverse(j.priority()), j.seq())
            }),
            Some(q) => {
                if self.state.queue.iter().all(|e| e.deficit == 0) {
                    for e in &mut self.state.queue {
                        e.deficit += q * (e.job.priority() as u64 + 1);
                    }
                }
                (0..self.state.queue.len()).max_by_key(|&i| {
                    let e = &self.state.queue[i];
                    (e.deficit, e.job.priority(), std::cmp::Reverse(e.job.seq()))
                })
            }
        }
    }

    fn place(&mut self) {
        loop {
            let idle = self.idle_backends();
            if idle.is_empty() || self.state.queue.is_empty() {
                return;
            }
            let backend = match self.state.cfg.policy {
                PlacePolicy::RoundRobin => {
                    // Next idle backend at or after the cursor.
                    let b = (0..self.state.active.len())
                        .map(|o| (self.state.rr_next + o) % self.state.active.len())
                        .find(|b| self.state.active[*b].is_none())
                        .expect("idle set is non-empty");
                    self.state.rr_next = (b + 1) % self.state.active.len();
                    b
                }
                PlacePolicy::LeastLoaded => *idle
                    .iter()
                    .min_by(|&&a, &&b| {
                        self.state.clocks[a]
                            .total_cmp(&self.state.clocks[b])
                            .then_with(|| a.cmp(&b))
                    })
                    .expect("idle set is non-empty"),
            };
            let lead_idx = self.next_job_index().expect("queue is non-empty");
            let lead = self.state.queue.swap_remove(lead_idx);
            let slice_budget = match self.state.cfg.quantum_iters {
                None => u64::MAX,
                Some(q) => lead.deficit.max(q),
            };
            let mut jobs = vec![lead];
            // Launch batching: device backends co-schedule same-key jobs.
            // Fusing only amortizes overhead and transfer latency (kernel
            // seconds still add up), so parallel devices beat wider
            // batches: cap the group so the key's jobs spread over every
            // idle device instead of piling onto this one.
            if backend < self.devices.len() && self.state.cfg.max_batch > 1 {
                if let Some(key) = jobs[0].job.batch_key() {
                    let same_key = 1 + self
                        .state
                        .queue
                        .iter()
                        .filter(|e| e.job.batch_key().as_ref() == Some(&key))
                        .count();
                    let idle_devices = (0..self.devices.len())
                        .filter(|&b| self.state.active[b].is_none())
                        .count()
                        .max(1);
                    let cap = self.state.cfg.max_batch.min(same_key.div_ceil(idle_devices)).max(1);
                    self.drain_batch_peers(&key, &mut jobs, cap);
                }
            }
            for entry in &jobs {
                if let Some(m) = self.state.meta.get_mut(&entry.job.id()) {
                    m.first_started_s.get_or_insert(self.state.clocks[backend]);
                }
            }
            if self.observing() {
                let device = self.backend_name(backend);
                for entry in &jobs {
                    self.emit_event(FleetEvent::Placed {
                        job: entry.job.id(),
                        device: device.clone(),
                    });
                }
                if jobs.len() > 1 {
                    self.emit_event(FleetEvent::BatchFused { device, lanes: jobs.len() as u64 });
                }
            }
            self.state.active[backend] = Some(Active {
                jobs,
                started_s: self.state.clocks[backend],
                slice_budget,
                slice_used: 0,
            });
        }
    }

    fn drain_batch_peers(&mut self, key: &BatchKey, jobs: &mut Vec<QueueEntry>, cap: usize) {
        while jobs.len() < cap {
            let peer = (0..self.state.queue.len())
                .filter(|&i| self.state.queue[i].job.batch_key().as_ref() == Some(key))
                .min_by_key(|&i| {
                    let j = &self.state.queue[i].job;
                    (std::cmp::Reverse(j.priority()), j.seq())
                });
            match peer {
                Some(i) => jobs.push(self.state.queue.swap_remove(i)),
                None => return,
            }
        }
    }

    // -- stepping -----------------------------------------------------

    fn step_backend(&mut self, b: usize) -> bool {
        let Some(mut active) = self.state.active[b].take() else {
            return false;
        };
        let is_device = b < self.devices.len();
        let observing = self.observing();
        // Everything the quantum events need, captured before stepping
        // (device label, lane ids, clock, and the PCIe ledger to diff
        // against). Only built while observers are attached.
        let quantum_ctx = observing.then(|| {
            let device = self.backend_name(b);
            let jobs: Vec<JobId> = active.jobs.iter().map(|a| a.job.id()).collect();
            let book = is_device.then(|| self.devices.device(b).book().clone());
            (device, jobs, self.state.clocks[b], book)
        });
        if let Some((device, jobs, start_s, _)) = quantum_ctx.as_ref() {
            self.emit_event(FleetEvent::QuantumStart {
                device: device.clone(),
                jobs: jobs.clone(),
                start_s: *start_s,
            });
        }
        // Preemptive assignments may burn their whole remaining slice in
        // one call; without a quantum the legacy contract holds — one
        // iteration per tick — so solo jobs stay observable (status,
        // mid-run checkpoint, cancellation) between iterations.
        let mut quota = if self.state.cfg.quantum_iters.is_some() {
            active.slice_budget.saturating_sub(active.slice_used).max(1)
        } else {
            1
        };
        // An assignment must not run past any member's envelope
        // iteration budget inside one quantum: solo jobs clamp their
        // quota, fused groups clamp their span, so envelopes retire at
        // exactly the same iteration under every span length.
        if active.jobs.len() == 1 {
            if let Some(budget) =
                self.state.meta.get(&active.jobs[0].job.id()).and_then(|m| m.iter_budget)
            {
                let remaining = budget.saturating_sub(active.jobs[0].job.iterations());
                quota = quota.min(remaining.max(1));
            }
        }
        let run = if active.jobs.len() > 1 {
            // Fused groups run one *span* per tick: up to `span_iters`
            // consecutive iterations priced as one double-buffered
            // stream schedule. The span is capped at the slice
            // remainder (it never crosses a quantum) and at the
            // tightest member budget; members still retire (and
            // re-batch) at iteration granularity because the span ends
            // early when any member finishes.
            let mut span = self.state.cfg.span_iters;
            if self.state.cfg.quantum_iters.is_some() {
                span = span.min(active.slice_budget.saturating_sub(active.slice_used).max(1));
            }
            for entry in &active.jobs {
                if let Some(budget) =
                    self.state.meta.get(&entry.job.id()).and_then(|m| m.iter_budget)
                {
                    span = span.min(budget.saturating_sub(entry.job.iterations()).max(1));
                }
            }
            let mode = self.state.cfg.launch_mode;
            let dev = self.devices.device_mut(b);
            let (lead, peers) = active.jobs.split_at_mut(1);
            let mut peer_refs: Vec<&mut Box<dyn JobExec>> =
                peers.iter_mut().map(|a| &mut a.job).collect();
            let lanes = peer_refs.len() as u64 + 1;
            let run = lead[0].job.step_batch(&mut peer_refs, dev, span, mode);
            // A per-iteration span issues its fused kernel chain once
            // per iteration; a persistent span issues it once for the
            // whole span. Either way a solo schedule would have issued
            // `lanes` launches per iteration.
            let issued = match mode {
                LaunchMode::PerIteration => run.iters,
                LaunchMode::PersistentSpan => 1,
            };
            self.state.counters.fused_launches += issued;
            self.state.counters.launches_saved += lanes * run.iters - issued;
            run
        } else if is_device {
            active.jobs[0].job.step_device(self.devices.device_mut(b), quota)
        } else {
            active.jobs[0].job.step_host(&self.state.cfg.host, quota)
        };
        self.state.clocks[b] += run.seconds;
        active.slice_used += run.iters;
        // Fused groups advance every member one iteration per step.
        let c = &mut self.state.counters;
        c.iterations_executed += run.iters * active.jobs.len() as u64;
        if is_device {
            c.stream_makespan_s += run.seconds;
            c.stream_serialized_s += run.serialized_s;
            if run.spans > 0 {
                c.spans += run.spans;
                c.span_iterations += run.iters;
            }
            c.launch_overhead_saved_s += run.launch_overhead_saved_s;
        }
        if let Some((device, jobs, start_s, book_before)) = quantum_ctx {
            let (bytes_h2d, bytes_d2h) = match book_before {
                Some(before) => {
                    let now = self.devices.device(b).book();
                    (now.bytes_h2d - before.bytes_h2d, now.bytes_d2h - before.bytes_d2h)
                }
                None => (0, 0),
            };
            let iters = run.iters * jobs.len() as u64;
            self.emit_event(FleetEvent::QuantumEnd {
                device,
                jobs,
                iters,
                makespan_s: run.seconds,
                start_s,
                end_s: self.state.clocks[b],
                bytes_h2d,
                bytes_d2h,
            });
        }

        // Retire finished members; survivors keep running as a (smaller)
        // group on this backend, or are preempted at the slice boundary.
        let mut still: Vec<QueueEntry> = Vec::with_capacity(active.jobs.len());
        for entry in active.jobs {
            if entry.job.done() {
                self.state.counters.serialized_s +=
                    entry.job.serial_equivalent_s(self.devices.spec(0));
                let name = self.backend_name(b);
                let at = self.state.clocks[b];
                self.complete(entry.job, name, at, false, false);
            } else {
                still.push(entry);
            }
        }
        if !still.is_empty() {
            let slice_over = active.slice_used >= active.slice_budget;
            if self.state.cfg.quantum_iters.is_some() && slice_over && !self.state.queue.is_empty()
            {
                // Preempt: spend each survivor's credit and send it back
                // through the fair-share queue.
                self.state.counters.preemptions += 1;
                if observing {
                    let device = self.backend_name(b);
                    let ids: Vec<JobId> = still.iter().map(|a| a.job.id()).collect();
                    self.emit_event(FleetEvent::Preempted { device, jobs: ids });
                }
                for mut entry in still {
                    entry.job.unplaced();
                    entry.deficit = entry.deficit.saturating_sub(active.slice_used);
                    self.state.queue.push(entry);
                }
            } else {
                if slice_over {
                    // Nobody is waiting: refresh the slice in place
                    // rather than churning through the queue.
                    active.slice_used = 0;
                    active.slice_budget = self.state.cfg.quantum_iters.unwrap_or(u64::MAX);
                }
                active.jobs = still;
                self.state.active[b] = Some(active);
            }
        }
        true
    }

    fn backend_name(&self, b: usize) -> String {
        if b < self.devices.len() {
            format!("dev{b}[{}]", self.devices.spec(b).name)
        } else {
            format!("cpu{}", b - self.devices.len())
        }
    }

    // -- reporting ----------------------------------------------------

    /// Fleet-level throughput, utilization and fairness summary.
    pub fn fleet_report(&self) -> FleetReport {
        let d = self.devices.len();
        let c = &self.state.counters;
        let tenant_stats: Vec<TenantStat> = self
            .state
            .results
            .reports()
            .map(|r| TenantStat {
                name: r.name.clone(),
                tenant: r.tenant.clone(),
                submitted_s: r.submitted_s,
                started_s: r.started_s,
                finished_s: r.finished_s,
                wait_s: r.wait_s(),
                turnaround_s: r.turnaround_s(),
                cancelled: r.cancelled,
                rejected: r.rejected,
            })
            .collect();
        let mut report = FleetReport {
            jobs_completed: self.state.results.count(Fate::Done),
            jobs_cancelled: self.state.results.count(Fate::Cancelled),
            jobs_rejected: self.state.results.count(Fate::Rejected),
            jobs_queued: self.state.queue.len() as u64,
            jobs_running: self.running_len() as u64,
            makespan_s: self.now_s(),
            serialized_s: c.serialized_s,
            device_busy_s: self.state.clocks[..d].to_vec(),
            cpu_busy_s: self.state.clocks[d..].to_vec(),
            fused_launches: c.fused_launches,
            launches_saved: c.launches_saved,
            preemptions: c.preemptions,
            iterations_executed: c.iterations_executed,
            stream_makespan_s: c.stream_makespan_s,
            stream_serialized_s: c.stream_serialized_s,
            spans: c.spans,
            span_iterations: c.span_iterations,
            launch_overhead_saved_s: c.launch_overhead_saved_s,
            tenant_stats,
            telemetry: self.telemetry.clone(),
            fleet_book: self.devices.books_sum(),
            // Filled in by `derive`.
            speedup_vs_serial: 0.0,
            device_utilization: Vec::new(),
            jobs_per_sim_s: 0.0,
            max_wait_s: 0.0,
            mean_wait_s: 0.0,
            max_turnaround_s: 0.0,
            mean_turnaround_s: 0.0,
            wait_p50_s: 0.0,
            wait_p95_s: 0.0,
            wait_p99_s: 0.0,
            turnaround_p50_s: 0.0,
            turnaround_p95_s: 0.0,
            turnaround_p99_s: 0.0,
        };
        report.derive();
        report
    }

    // -- checkpoint / resume ------------------------------------------

    /// Snapshot the whole fleet: queued jobs (with their fair-share
    /// credits and lifecycle metadata), in-flight cursors (mid search,
    /// mid slice), clocks, ledgers and the completed reports, which are
    /// copied as bytes. Jobs submitted
    /// [`without_checkpoint`](crate::JobSpec::without_checkpoint) are
    /// skipped, metadata included — they are simply absent after a
    /// restore. The snapshot is independent of the live scheduler;
    /// [`Scheduler::restore`] rebuilds an equivalent scheduler that
    /// continues deterministically.
    pub fn checkpoint(&self) -> FleetCheckpoint {
        let s = &self.state;
        let persists = |e: &&QueueEntry| s.persists(e.job.id());
        let active = s.active.iter().map(|slot| {
            slot.as_ref().and_then(|a| {
                let jobs: Vec<QueueEntry> = a.jobs.iter().filter(persists).cloned().collect();
                (!jobs.is_empty()).then_some(Active { jobs, ..*a })
            })
        });
        FleetCheckpoint {
            specs: (0..self.devices.len()).map(|i| self.devices.spec(i).clone()).collect(),
            device_books: (0..self.devices.len())
                .map(|i| self.devices.device(i).book().clone())
                .collect(),
            state: FleetState {
                cfg: s.cfg.clone(),
                queue: s.queue.iter().filter(persists).cloned().collect(),
                active: active.collect(),
                clocks: s.clocks.clone(),
                results: s.results.uncached_copy(),
                meta: s
                    .meta
                    .iter()
                    .filter(|(id, _)| s.persists(**id))
                    .map(|(id, m)| (*id, m.clone()))
                    .collect(),
                cancel_requested: s.cancel_requested.clone(),
                ..*s
            },
        }
    }

    /// Rebuild a scheduler from a [`checkpoint`](Self::checkpoint) and
    /// continue where it left off. The cost follows the live jobs: the
    /// completed reports stay bytes until something reads them.
    pub fn restore(checkpoint: FleetCheckpoint) -> Self {
        let FleetCheckpoint { specs, device_books, state } = checkpoint;
        let mut devices = MultiDevice::new_from_specs(specs);
        for (i, book) in device_books.iter().enumerate() {
            devices.device_mut(i).charge(book);
        }
        // The envelope fast-path set is derivable: every live job whose
        // metadata carries a deadline or budget.
        let policed: BTreeSet<JobId> = state
            .meta
            .iter()
            .filter(|(_, m)| m.deadline_s.is_some() || m.iter_budget.is_some())
            .map(|(id, _)| *id)
            .collect();
        // Telemetry is observational and not checkpointed: a restored
        // fleet records a fresh series from its inherited tick counter.
        let telemetry = state
            .cfg
            .telemetry_every_ticks
            .map(|_| Telemetry::with_cap(state.cfg.telemetry_max_samples));
        Self {
            devices,
            state,
            policed,
            telemetry,
            // Observability is never checkpointed: the restored fleet
            // starts unobserved until a sink/registry is re-attached.
            observe: ObserveState::default(),
        }
    }
}

/// The scheduler state a checkpoint carries: everything but the devices
/// and what is derived from it or never checkpointed. A [`Scheduler`]
/// runs on it and a [`FleetCheckpoint`] holds a copy, and one body codec
/// writes and reads it for base and delta segments alike.
pub(crate) struct FleetState {
    pub cfg: SchedulerConfig,
    pub queue: Vec<QueueEntry>,
    pub active: Vec<Option<Active>>,
    pub clocks: Vec<f64>,
    pub rr_next: usize,
    pub next_id: u64,
    pub next_seq: u64,
    pub results: ResultLog,
    /// Metadata of the live jobs.
    pub meta: BTreeMap<JobId, JobMeta>,
    pub cancel_requested: BTreeSet<JobId>,
    pub counters: Counters,
}

impl FleetState {
    /// A fresh state with `backends` idle backends.
    pub fn new(cfg: SchedulerConfig, backends: usize) -> Self {
        Self {
            queue: Vec::new(),
            active: (0..backends).map(|_| None).collect(),
            clocks: vec![0.0; backends],
            rr_next: 0,
            next_id: cfg.id_base,
            next_seq: cfg.id_base,
            results: ResultLog::default(),
            meta: BTreeMap::new(),
            cancel_requested: BTreeSet::new(),
            counters: Counters::default(),
            cfg,
        }
    }

    /// Every live job: the queue in order, then each backend's
    /// assignment in backend order.
    pub fn live(&self) -> impl Iterator<Item = &QueueEntry> {
        self.queue.iter().chain(self.active.iter().flatten().flat_map(|a| &a.jobs))
    }

    /// Whether `id`'s job rides in checkpoints: every job but those
    /// submitted [`without_checkpoint`](crate::JobSpec::without_checkpoint).
    pub fn persists(&self, id: JobId) -> bool {
        self.meta.get(&id).is_none_or(|m| m.checkpoint)
    }
}

/// A self-contained fleet snapshot (see [`Scheduler::checkpoint`]).
///
/// Held in memory; queued *and in-flight* jobs are deep-copied, including
/// mid-search cursor state, so a restored scheduler continues
/// deterministically and produces the same results the original would
/// have. [`save`](Self::save) / [`load`](Self::load) round-trip the
/// snapshot through a hand-rolled byte format so fleets survive process
/// restarts (see the `persist` module docs for the format).
pub struct FleetCheckpoint {
    pub(crate) specs: Vec<DeviceSpec>,
    pub(crate) device_books: Vec<TimeBook>,
    pub(crate) state: FleetState,
}

impl FleetCheckpoint {
    /// Jobs captured while queued or in flight (not yet completed).
    pub fn pending_jobs(&self) -> usize {
        self.state.queue.len() + self.in_flight_jobs()
    }

    /// The scheduler tick counter at capture time — the phase a
    /// restored fleet resumes from (steal barriers and cadences key off
    /// it).
    pub fn ticks(&self) -> u64 {
        self.state.counters.ticks
    }

    /// Jobs captured mid-run (cursor state preserved).
    pub fn in_flight_jobs(&self) -> usize {
        self.state.active.iter().flatten().map(|a| a.jobs.len()).sum()
    }
}
