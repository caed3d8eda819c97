//! Job descriptions, handles, outcomes and per-job reports.
//!
//! ## Implementing your own `SearchJob`, end to end
//!
//! Everything the scheduler runs goes through three traits: a steppable
//! executor ([`JobExec`] — usually a thin shell over a cursor), the
//! submittable description ([`SearchJob`]), and the checkpoint decoder
//! ([`JobCodec`]). The toy below walks a countdown "search" through the
//! whole lifecycle — submit, tick, checkpoint to bytes, restore, finish
//! — with per-iteration launch pricing on the simulated device:
//!
//! ```
//! use lnls_core::persist::{Persist, PersistError, Reader};
//! use lnls_gpu_sim::{transfer_seconds, Device, DeviceSpec, HostSpec, TimeBook};
//! use lnls_runtime::{
//!     FleetCheckpoint, JobCodec, JobExec, JobId, JobOutcome, JobRegistry, JobReport, Scheduler,
//!     SchedulerConfig, SearchJob, StepRun, SubmitCtx,
//! };
//! use std::any::Any;
//!
//! // 1. The executor: the walk's loop-carried state (here just two
//! //    counters — a real workload would wrap a `SearchCursor`), plus
//! //    the identity the scheduler assigned and the pricing of one
//! //    iteration's launch.
//! struct CountdownExec {
//!     id: JobId,
//!     name: String,
//!     seq: u64,
//!     left: u64,
//!     executed: u64,
//! }
//!
//! impl CountdownExec {
//!     /// One iteration = one tiny launch: fixed overhead plus an
//!     /// 8-byte upload (toy numbers; real executors derive this from
//!     /// the neighborhood size, e.g. via `lnls_core::LaneProfile`).
//!     fn iter_book(spec: &lnls_gpu_sim::DeviceSpec, iters: u64) -> TimeBook {
//!         TimeBook {
//!             overhead_s: spec.launch_overhead_s * iters as f64,
//!             h2d_s: transfer_seconds(spec, 8) * iters as f64,
//!             bytes_h2d: 8 * iters,
//!             launches: iters,
//!             ..TimeBook::default()
//!         }
//!     }
//! }
//!
//! impl JobExec for CountdownExec {
//!     fn id(&self) -> JobId { self.id }
//!     fn priority(&self) -> u8 { 0 }
//!     fn seq(&self) -> u64 { self.seq }
//!     fn done(&self) -> bool { self.left == 0 }
//!     fn iterations(&self) -> u64 { self.executed }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//!     // `batch_key` defaults to `None` (never fuses), and `step_batch`
//!     // to `step_device`, so a solo workload writes neither.
//!
//!     fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
//!         let iters = quota.min(self.left);
//!         self.left -= iters;
//!         self.executed += iters;
//!         let book = Self::iter_book(dev.spec(), iters);
//!         let seconds = book.gpu_total_s();
//!         dev.charge(&book); // the fleet ledger sees every launch
//!         StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
//!     }
//!
//!     fn step_host(&mut self, _host: &HostSpec, quota: u64) -> StepRun {
//!         let iters = quota.min(self.left);
//!         self.left -= iters;
//!         self.executed += iters;
//!         let seconds = 1e-6 * iters as f64;
//!         StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
//!     }
//!
//!     fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
//!         Self::iter_book(spec, self.executed).gpu_total_s()
//!     }
//!
//!     fn finish(&mut self, backend: String, started_s: f64, finished_s: f64) -> JobReport {
//!         JobReport {
//!             id: self.id,
//!             name: self.name.clone(),
//!             tenant: String::new(), // the scheduler stamps attribution
//!             backend,
//!             submitted_s: 0.0,
//!             started_s,
//!             finished_s,
//!             fused_iterations: 0,
//!             cancelled: false,
//!             rejected: false,
//!             outcome: JobOutcome::new(-(self.left as i64), self.executed, self.left == 0),
//!         }
//!     }
//!
//!     fn clone_box(&self) -> Box<dyn JobExec> {
//!         Box::new(CountdownExec {
//!             id: self.id,
//!             name: self.name.clone(),
//!             seq: self.seq,
//!             left: self.left,
//!             executed: self.executed,
//!         })
//!     }
//!
//!     fn persist_tag(&self) -> String { "example/countdown".into() }
//!
//!     fn persist(&self, out: &mut Vec<u8>) {
//!         self.id.write(out);
//!         self.name.write(out);
//!         self.seq.write(out);
//!         self.left.write(out);
//!         self.executed.write(out);
//!     }
//! }
//!
//! // 2. The submittable description: what users hand to `submit`.
//! struct CountdownJob { name: String, steps: u64 }
//!
//! impl SearchJob for CountdownJob {
//!     fn name(&self) -> &str { &self.name }
//!     fn persist_tag(&self) -> String { "example/countdown".into() }
//!     fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
//!         Box::new(CountdownExec {
//!             id: ctx.id(), // executors must adopt the assigned identity
//!             name: ctx.name(self.name),
//!             seq: ctx.seq(),
//!             left: self.steps,
//!             executed: 0,
//!         })
//!     }
//! }
//!
//! // 3. The checkpoint decoder: inverse of `CountdownExec::persist`.
//! impl JobCodec for CountdownJob {
//!     fn registry_tag() -> String { "example/countdown".into() }
//!     fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
//!         Ok(Box::new(CountdownExec {
//!             id: r.read()?,
//!             name: r.read()?,
//!             seq: r.read()?,
//!             left: r.read()?,
//!             executed: r.read()?,
//!         }))
//!     }
//! }
//!
//! // Submit, run one tick, checkpoint through bytes (a "crash"),
//! // restore, finish — scheduling, preemption and persistence all come
//! // from the traits above.
//! let mut fleet =
//!     Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
//! let handle = fleet.submit(CountdownJob { name: "count-3".into(), steps: 3 });
//! fleet.tick(); // one iteration ran; two remain in the live cursor
//!
//! let mut registry = JobRegistry::new();
//! registry.register::<CountdownJob>(); // one registration per job type
//! let bytes = fleet.checkpoint().to_bytes();
//! drop(fleet); // the crash
//!
//! let revived = FleetCheckpoint::from_bytes(&bytes, &registry).expect("decodes");
//! let mut fleet = Scheduler::restore(revived);
//! fleet.run_until_idle();
//! let report = fleet.report(handle).expect("finished");
//! assert!(report.outcome.success());
//! assert_eq!(report.outcome.iterations(), 3); // 1 before the crash + 2 after
//! assert!(fleet.fleet_report().fleet_book.launches >= 3);
//! ```

use crate::exec::{AnnealWalk, Exec, JobExec, QapWalk, TabuWalk, Walk};
use crate::submit::{JobCodec, SearchJob, SubmitCtx};
use lnls_core::persist::{Persist, PersistError, PersistTag, Reader};
use lnls_core::{BitString, IncrementalEval, SearchResult, SimulatedAnnealing, TabuSearch};
use lnls_neighborhood::Neighborhood;
use lnls_qap::{Permutation, QapInstance, RtsConfig, RtsResult};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Opaque identity of a submitted job.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub(crate) u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Ids persist as their raw `u64`, so external [`JobCodec`]
/// implementations can round-trip the identity their executors adopted
/// at submission (see the module-level example).
impl Persist for JobId {
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(JobId(r.read()?))
    }
}

/// Typed handle returned by submission; poll it with
/// [`Scheduler::status`](crate::Scheduler::status) or block with
/// [`Scheduler::await_report`](crate::Scheduler::await_report). Handles
/// are `Copy` — every handle-taking method accepts them by value.
#[derive(Copy, Clone, Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
}

impl JobHandle {
    /// The job's identity.
    pub fn id(&self) -> JobId {
        self.id
    }
}

/// Where a job currently is in its lifecycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the scheduler queue.
    Queued,
    /// Assigned to a backend (possibly inside a fused batch).
    Running,
    /// Finished; a [`JobReport`] is available.
    Done,
    /// Cancelled via [`Scheduler::cancel`](crate::Scheduler::cancel) (or
    /// drained past its deadline); a [`JobReport`] with the partial
    /// best-so-far is available.
    Cancelled,
    /// Evicted by admission control (shed to make room for a
    /// higher-priority submission); a [`JobReport`] marked
    /// [`rejected`](JobReport::rejected) is available.
    Rejected,
    /// Unknown to this scheduler.
    Unknown,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Rejected => "rejected",
            JobStatus::Unknown => "unknown",
        })
    }
}

/// What a finished job produced: the generic record every search
/// reports — best fitness, iterations, success — plus a typed detail
/// any workload may attach and callers may downcast.
///
/// The bundled executors attach their native result types
/// ([`SearchResult`] for tabu *and* annealing walks over bit-strings,
/// [`RtsResult`] for QAP), so the long-standing
/// [`as_binary`](Self::as_binary) / [`as_qap`](Self::as_qap) accessors
/// keep working; new workloads attach whatever they like via
/// [`with_detail`](Self::with_detail) and read it back with
/// [`detail`](Self::detail).
#[derive(Clone)]
pub struct JobOutcome {
    best_fitness: i64,
    iterations: u64,
    success: bool,
    detail: Arc<dyn Any + Send + Sync>,
}

impl fmt::Debug for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobOutcome")
            .field("best_fitness", &self.best_fitness)
            .field("iterations", &self.iterations)
            .field("success", &self.success)
            .finish_non_exhaustive()
    }
}

impl JobOutcome {
    /// A bare record with no typed detail.
    pub fn new(best_fitness: i64, iterations: u64, success: bool) -> Self {
        Self::with_detail(best_fitness, iterations, success, ())
    }

    /// A record carrying a typed detail for downcast access.
    pub fn with_detail<T: Any + Send + Sync>(
        best_fitness: i64,
        iterations: u64,
        success: bool,
        detail: T,
    ) -> Self {
        Self { best_fitness, iterations, success, detail: Arc::new(detail) }
    }

    /// Wrap a bit-string search result (tabu or annealing walks).
    pub fn binary(result: SearchResult) -> Self {
        Self::with_detail(result.best_fitness, result.iterations, result.success, result)
    }

    /// Wrap a QAP robust-tabu result.
    pub fn qap(result: RtsResult) -> Self {
        Self::with_detail(result.best_cost, result.iterations, result.success, result)
    }

    /// Best fitness/cost reached.
    pub fn best_fitness(&self) -> i64 {
        self.best_fitness
    }

    /// Iterations executed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// True if the job hit its target.
    pub fn success(&self) -> bool {
        self.success
    }

    /// The typed detail, if it is a `T`.
    pub fn detail<T: Any>(&self) -> Option<&T> {
        self.detail.downcast_ref()
    }

    /// The full bit-string search result, if this job was one (binary
    /// tabu jobs and annealing jobs both report through
    /// [`SearchResult`]).
    pub fn as_binary(&self) -> Option<&SearchResult> {
        self.detail()
    }

    /// The QAP result, if this was a QAP job.
    pub fn as_qap(&self) -> Option<&RtsResult> {
        self.detail()
    }
}

/// Everything known about one completed (or cancelled/rejected) job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job identity.
    pub id: JobId,
    /// Submission name.
    pub name: String,
    /// Tenant attribution from the submission envelope.
    pub tenant: String,
    /// Backend that completed the job (e.g. `dev0[GTX 280 …]`, `cpu1`).
    pub backend: String,
    /// Simulated fleet time at which the job was submitted.
    pub submitted_s: f64,
    /// Simulated fleet time at which the job *first* left the queue
    /// (under preemption a job may leave and re-enter it many times).
    pub started_s: f64,
    /// Simulated fleet time at which the job completed.
    pub finished_s: f64,
    /// Iterations that ran inside a fused batch with other tenants.
    pub fused_iterations: u64,
    /// True when the job was drained by
    /// [`Scheduler::cancel`](crate::Scheduler::cancel) or a missed
    /// deadline; the outcome then holds the best-so-far at the drain
    /// boundary.
    pub cancelled: bool,
    /// True when the job was evicted by admission control; the outcome
    /// holds whatever had been computed before the eviction.
    pub rejected: bool,
    /// The search outcome.
    pub outcome: JobOutcome,
}

impl JobReport {
    /// Queue wait: submission → first placement (seconds, modeled).
    pub fn wait_s(&self) -> f64 {
        (self.started_s - self.submitted_s).max(0.0)
    }

    /// Turnaround: submission → completion (seconds, modeled).
    pub fn turnaround_s(&self) -> f64 {
        (self.finished_s - self.submitted_s).max(0.0)
    }
}

// ---------------------------------------------------------------------
// Bundled job types
// ---------------------------------------------------------------------

/// A bit-string search job: problem + neighborhood + driver + initial
/// solution, submitted via the generic
/// [`Scheduler::submit`](crate::Scheduler::submit).
///
/// Jobs whose `(problem family, neighborhood)` coincide are eligible for
/// launch batching — their per-iteration evaluations fuse into one
/// simulated launch. The family key is
/// [`BinaryProblem::name`](lnls_core::BinaryProblem::name), so instances
/// of the same shape batch automatically.
pub struct BinaryJob<P, N> {
    /// Submission name (reports only).
    pub name: String,
    /// The problem instance (moved into the scheduler).
    pub problem: P,
    /// Neighborhood to search.
    pub hood: N,
    /// Driver configuration (budget, seed, strategy, target).
    pub search: TabuSearch,
    /// Initial solution — explicit so fleet runs are bit-comparable to
    /// solo runs.
    pub init: BitString,
    /// Larger runs first when the queue is contended (0 = bulk).
    pub priority: u8,
    /// Per-iteration incremental-state upload, bytes (pricing input).
    /// Defaults to `4·dim` — the order of the auxiliary vectors every
    /// bundled problem re-uploads per iteration.
    pub state_h2d_bytes: Option<u64>,
}

impl<P, N: Neighborhood> BinaryJob<P, N> {
    /// A job with default priority and pricing hints.
    pub fn new(
        name: impl Into<String>,
        problem: P,
        hood: N,
        search: TabuSearch,
        init: BitString,
    ) -> Self {
        Self { name: name.into(), problem, hood, search, init, priority: 0, state_h2d_bytes: None }
    }

    /// Set the queue priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Override the per-iteration state-upload pricing hint.
    pub fn with_state_bytes(mut self, bytes: u64) -> Self {
        self.state_h2d_bytes = Some(bytes);
        self
    }
}

impl<P, N> SearchJob for BinaryJob<P, N>
where
    P: IncrementalEval + Persist + PersistTag + 'static,
    N: Neighborhood + Clone + Send + Sync + Persist + PersistTag + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> u8 {
        self.priority
    }

    fn persist_tag(&self) -> String {
        TabuWalk::<P, N>::tag()
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        Box::new(TabuWalk::exec(&ctx, *self))
    }
}

impl<P, N> JobCodec for BinaryJob<P, N>
where
    P: IncrementalEval + Persist + PersistTag + 'static,
    N: Neighborhood + Clone + Send + Sync + Persist + PersistTag + 'static,
{
    fn registry_tag() -> String {
        TabuWalk::<P, N>::tag()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        Exec::<TabuWalk<P, N>>::decode(r)
    }
}

/// A QAP robust-tabu job, submitted via the generic
/// [`Scheduler::submit`](crate::Scheduler::submit).
///
/// QAP runs are driven through a steppable
/// [`RtsCursor`](lnls_qap::RtsCursor), so they batch into quanta,
/// checkpoint mid-run, and preempt like every other tenant. They never
/// fuse (the swap neighborhood shares no batch key with binary jobs).
pub struct QapJobSpec {
    /// Submission name (reports only).
    pub name: String,
    /// The instance (moved into the scheduler).
    pub instance: QapInstance,
    /// Driver configuration.
    pub config: RtsConfig,
    /// Initial assignment.
    pub init: Permutation,
    /// Larger runs first when the queue is contended (0 = bulk).
    pub priority: u8,
}

impl QapJobSpec {
    /// A job with default priority.
    pub fn new(
        name: impl Into<String>,
        instance: QapInstance,
        config: RtsConfig,
        init: Permutation,
    ) -> Self {
        Self { name: name.into(), instance, config, init, priority: 0 }
    }

    /// Set the queue priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

impl SearchJob for QapJobSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> u8 {
        self.priority
    }

    fn persist_tag(&self) -> String {
        QapWalk::tag()
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        Box::new(QapWalk::exec(&ctx, *self))
    }
}

impl JobCodec for QapJobSpec {
    fn registry_tag() -> String {
        QapWalk::tag()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        Exec::<QapWalk>::decode(r)
    }
}

/// A simulated-annealing job: problem + sampler + initial solution,
/// submitted via the generic
/// [`Scheduler::submit`](crate::Scheduler::submit) — the sampling-style
/// counterpart of [`BinaryJob`].
///
/// The walk is an [`AnnealCursor`](lnls_core::AnnealCursor) driven
/// through the object-safe
/// [`ProblemCursor`](lnls_core::ProblemCursor) adapter; each iteration
/// evaluates **one** sampled neighbor, so launches are priced as
/// single-neighbor kernels (overhead-dominated — the paper's argument
/// for large launches, seen from the other side). Chains sharing a
/// problem family, dimension and sampling neighborhood fuse into one
/// multi-lane sampled launch per iteration (pricing-only: each chain
/// still draws its own moves). Annealing jobs report through
/// [`SearchResult`], so [`JobOutcome::as_binary`] works on them.
pub struct AnnealJob<P, N: Neighborhood> {
    /// Submission name (reports only).
    pub name: String,
    /// The problem instance (moved into the scheduler).
    pub problem: P,
    /// The annealing driver (schedule, neighborhood sampler, seed).
    pub sa: SimulatedAnnealing<N>,
    /// Initial solution — explicit so fleet runs are bit-comparable to
    /// solo runs.
    pub init: BitString,
    /// Larger runs first when the queue is contended (0 = bulk).
    pub priority: u8,
    /// Per-iteration incremental-state upload, bytes (pricing input);
    /// defaults to `4·dim` like [`BinaryJob`].
    pub state_h2d_bytes: Option<u64>,
}

impl<P, N: Neighborhood> AnnealJob<P, N> {
    /// A job with default priority and pricing hints.
    pub fn new(
        name: impl Into<String>,
        problem: P,
        sa: SimulatedAnnealing<N>,
        init: BitString,
    ) -> Self {
        Self { name: name.into(), problem, sa, init, priority: 0, state_h2d_bytes: None }
    }

    /// Set the queue priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Override the per-iteration state-upload pricing hint.
    pub fn with_state_bytes(mut self, bytes: u64) -> Self {
        self.state_h2d_bytes = Some(bytes);
        self
    }
}

impl<P, N> SearchJob for AnnealJob<P, N>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
    N: Neighborhood + Clone + Persist + PersistTag + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> u8 {
        self.priority
    }

    fn persist_tag(&self) -> String {
        AnnealWalk::<P, N>::tag()
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        Box::new(AnnealWalk::exec(&ctx, *self))
    }
}

impl<P, N> JobCodec for AnnealJob<P, N>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
    N: Neighborhood + Clone + Persist + PersistTag + 'static,
{
    fn registry_tag() -> String {
        AnnealWalk::<P, N>::tag()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        Exec::<AnnealWalk<P, N>>::decode(r)
    }
}
