//! The problem-agnostic submission surface: [`SearchJob`], the build
//! context handed to it, the [`JobSpec`] envelope, and the [`JobCodec`]
//! persistence companion.
//!
//! PR 2 unified *execution* behind
//! [`SearchCursor`](lnls_core::SearchCursor); this module unifies
//! *submission*. Anything that can
//!
//! 1. build a boxed steppable executor — a
//!    [`DynCursor`](lnls_core::DynCursor)-style object-safe shell over a
//!    cursor, expressed here as [`JobExec`];
//! 2. price its per-iteration launch on a
//!    [`DeviceSpec`](lnls_gpu_sim::DeviceSpec) (the executor's
//!    `step_device` / `serial_equivalent_s` contract); and
//! 3. name a persistence tag for the checkpoint registry
//!
//! is submittable through the single generic
//! [`Scheduler::submit`](crate::Scheduler::submit). The workspace ships
//! five implementations — [`BinaryJob`](crate::BinaryJob) (full
//! neighborhood tabu, fusable), [`QapJobSpec`](crate::QapJobSpec)
//! (robust tabu over swap moves), [`AnnealJob`](crate::AnnealJob)
//! (simulated annealing, sampling-style pricing, fusable),
//! [`LnsJob`](crate::LnsJob) (destroy-and-repair rounds, one fused
//! repair span each) and [`PortfolioJob`](crate::PortfolioJob) (a
//! tabu/annealing/descent race) — all five built into one executor
//! shell, and new workloads plug in without touching this crate.

use crate::exec::JobExec;
use crate::job::JobId;
use lnls_core::persist::{PersistError, Reader};
use lnls_gpu_sim::{HostSpec, SelectionMode};

/// Everything the scheduler grants a job at submission time: identity,
/// submission order, the host model for CPU-worker pricing, the
/// effective [`SelectionMode`] (the scheduler-wide default, or the
/// envelope's override), and the envelope's name/priority overrides.
///
/// Constructed only by the scheduler; [`SearchJob::into_exec`] receives
/// it and threads the pieces into the concrete executor.
pub struct SubmitCtx {
    pub(crate) id: JobId,
    pub(crate) seq: u64,
    pub(crate) host: HostSpec,
    pub(crate) selection: SelectionMode,
    pub(crate) name_override: Option<String>,
    pub(crate) priority_override: Option<u8>,
}

impl SubmitCtx {
    /// The identity assigned to this submission.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Monotone submission sequence number (FIFO tie-breaker).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Host description for CPU-worker pricing.
    pub fn host(&self) -> &HostSpec {
        &self.host
    }

    /// The effective selection mode this job's launches are priced
    /// under: the [`JobSpec`] override when one was given, else the
    /// scheduler-wide [`SchedulerConfig::selection`](crate::SchedulerConfig::selection).
    /// Executors whose readback is already a single record per iteration
    /// (e.g. sampling-style annealing) may ignore it.
    pub fn selection(&self) -> SelectionMode {
        self.selection
    }

    /// The effective submission name: the [`JobSpec`] override when one
    /// was given, else `default`.
    pub fn name(&self, default: impl Into<String>) -> String {
        self.name_override.clone().unwrap_or_else(|| default.into())
    }

    /// The effective priority: the [`JobSpec`] override when one was
    /// given, else `default`.
    pub fn priority(&self, default: u8) -> u8 {
        self.priority_override.unwrap_or(default)
    }
}

/// One submittable search workload — the open trait behind the single
/// generic [`Scheduler::submit`](crate::Scheduler::submit) entry point.
///
/// See the module docs above for the three capabilities an
/// implementor provides (all of them through the executor it builds).
pub trait SearchJob: 'static {
    /// Submission name (reports only).
    fn name(&self) -> &str;

    /// Queue priority: higher buys a larger fair share under preemption,
    /// absolute precedence without it.
    fn priority(&self) -> u8 {
        0
    }

    /// Registry tag the built executor persists under (see
    /// [`JobRegistry`](crate::JobRegistry)).
    fn persist_tag(&self) -> String;

    /// Build the type-erased executor the scheduler steps, prices,
    /// preempts and checkpoints.
    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec>;
}

/// Persistence companion of [`SearchJob`]: how executors of this job
/// type come back from checkpoint bytes.
///
/// Registering a job type with
/// [`JobRegistry::register`](crate::JobRegistry::register) flows through
/// this trait, so every workload — built-in or external — round-trips
/// through [`FleetCheckpoint::save`](crate::FleetCheckpoint::save) /
/// [`load`](crate::FleetCheckpoint::load) the same way.
pub trait JobCodec: SearchJob {
    /// Stable registry tag; must equal
    /// [`SearchJob::persist_tag`] of every executor this type builds.
    fn registry_tag() -> String;

    /// Decode one executor payload written under
    /// [`registry_tag`](Self::registry_tag).
    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError>;
}

/// The fleet-level envelope around a [`SearchJob`]: everything the
/// *scheduler* should know about a submission that the job type itself
/// does not — tenant identity, overrides, an iteration budget, a
/// deadline, and the checkpoint policy.
///
/// Built fluently and submitted through
/// [`Scheduler::submit_spec`](crate::Scheduler::submit_spec) or
/// [`FleetClient::submit_spec`](crate::FleetClient::submit_spec);
/// bare-job `submit` calls wrap into a default envelope.
pub struct JobSpec<J> {
    pub(crate) job: J,
    pub(crate) name: Option<String>,
    pub(crate) priority: Option<u8>,
    pub(crate) tenant: String,
    pub(crate) iter_budget: Option<u64>,
    pub(crate) deadline_s: Option<f64>,
    pub(crate) checkpoint: bool,
    pub(crate) selection: Option<SelectionMode>,
}

impl<J: SearchJob> JobSpec<J> {
    /// A default envelope: the job's own name and priority, tenant
    /// `"default"`, no budget, no deadline, checkpointable, the
    /// scheduler-wide selection mode.
    pub fn new(job: J) -> Self {
        Self {
            job,
            name: None,
            priority: None,
            tenant: "default".into(),
            iter_budget: None,
            deadline_s: None,
            checkpoint: true,
            selection: None,
        }
    }

    /// Override the submission name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Override the queue priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Attribute the submission to a tenant (admission control counts
    /// queue occupancy per tenant; reports carry the attribution).
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Cap the fleet iterations this job may consume. A job hitting its
    /// budget is drained at the next tick and reports *done* with its
    /// best-so-far — a spend limit, not a cancellation.
    pub fn with_iter_budget(mut self, iters: u64) -> Self {
        self.iter_budget = Some(iters);
        self
    }

    /// Drain the job once the fleet clock passes `deadline_s` (modeled
    /// seconds). A job that misses its deadline is drained through the
    /// cancellation path: its report is marked
    /// [`cancelled`](crate::JobReport::cancelled) and carries the
    /// best-so-far.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Override the scheduler-wide
    /// [`SelectionMode`] for this job alone: how its per-iteration
    /// readback is priced (host-side scan of the whole fitness array vs.
    /// on-device argmin reduction to one record per lane). Pricing-only —
    /// the job's search trajectory and result are bit-identical either
    /// way.
    pub fn with_selection(mut self, selection: SelectionMode) -> Self {
        self.selection = Some(selection);
        self
    }

    /// Exclude this job from fleet checkpoints: it is simply absent
    /// after a [`Scheduler::restore`](crate::Scheduler::restore) (useful
    /// for cheap speculative work not worth snapshot bytes).
    pub fn without_checkpoint(mut self) -> Self {
        self.checkpoint = false;
        self
    }

    /// The effective priority of the envelope (override or the job's
    /// own) — what admission control compares when shedding.
    pub fn effective_priority(&self) -> u8 {
        self.priority.unwrap_or_else(|| self.job.priority())
    }

    /// The tenant attribution.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}
