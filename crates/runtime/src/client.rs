//! The fleet front-end: admission-controlled submission over a
//! [`Scheduler`].
//!
//! A raw [`Scheduler`] accepts every submission — fine for a library,
//! wrong for a service: a fleet serving many tenants must be able to
//! say *no* before a queue grows without bound. [`FleetClient`] wraps a
//! scheduler with an [`AdmissionPolicy`] (global and per-tenant queue
//! caps, reject vs. shed-lowest-priority) and turns submission into
//! `Result<JobHandle, SubmitError>`. Everything else — status, reports,
//! ticking, checkpoints — passes through to the scheduler, which is
//! also reachable directly for anything not wrapped here.
//!
//! Admission never changes what accepted jobs compute: the admission
//! proptest asserts accepted jobs' results are bit-identical with the
//! policy on and off.

use crate::job::{JobHandle, JobId, JobReport, JobStatus};
use crate::observe::{EventSink, FleetEvent, MetricsRegistry, RejectReason};
use crate::report::FleetReport;
use crate::scheduler::{FleetCheckpoint, Scheduler, StolenJob};
use crate::submit::{JobSpec, SearchJob};
use lnls_core::persist::{Persist, PersistError, Reader};
use std::collections::BTreeMap;
use std::fmt;

/// Queue caps and the overload response of a [`FleetClient`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum jobs waiting in the queue across all tenants (`None` =
    /// unbounded).
    pub max_queued: Option<usize>,
    /// Maximum queued jobs per tenant (`None` = unbounded).
    pub max_queued_per_tenant: Option<usize>,
    /// When a cap is hit: `false` rejects the incoming submission;
    /// `true` sheds the lowest-priority queued job instead — newest
    /// first among equals, and only when it ranks strictly below the
    /// incoming priority (otherwise the submission is still rejected).
    pub shed_lowest_priority: bool,
}

impl AdmissionPolicy {
    /// No caps: every submission is admitted.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A global queue cap that rejects on overflow.
    pub fn queue_cap(max_queued: usize) -> Self {
        Self { max_queued: Some(max_queued), ..Self::default() }
    }

    /// Cap each tenant's queue occupancy.
    pub fn with_tenant_cap(mut self, max_queued: usize) -> Self {
        self.max_queued_per_tenant = Some(max_queued);
        self
    }

    /// Shed the lowest-priority queued job instead of rejecting a
    /// higher-priority submission.
    pub fn with_shedding(mut self) -> Self {
        self.shed_lowest_priority = true;
        self
    }
}

/// Policies ride along in workload traces, so a recorded run replays
/// under the very admission rules it was captured with.
impl Persist for AdmissionPolicy {
    fn write(&self, out: &mut Vec<u8>) {
        self.max_queued.write(out);
        self.max_queued_per_tenant.write(out);
        self.shed_lowest_priority.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            max_queued: r.read()?,
            max_queued_per_tenant: r.read()?,
            shed_lowest_priority: r.read()?,
        })
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The global queue cap is reached and nothing shed-eligible ranks
    /// below the submission.
    QueueFull {
        /// Jobs currently queued.
        queued: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The tenant's queue cap is reached and nothing of the tenant's
    /// ranks below the submission.
    TenantQueueFull {
        /// The tenant whose cap was hit.
        tenant: String,
        /// The tenant's queued jobs.
        queued: usize,
        /// The configured per-tenant cap.
        limit: usize,
    },
    /// The concurrency limiter bounced the submission: the client
    /// already has `limit` or more jobs in flight (queued + running).
    /// Unlike the queue caps this is load shedding, not admission
    /// policy — a closed-loop caller should back off and retry.
    Overloaded {
        /// Jobs in flight (queued + running) at the bounce.
        inflight: usize,
        /// The configured in-flight limit.
        limit: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { queued, limit } => {
                write!(f, "queue full: {queued} jobs queued, cap {limit}")
            }
            SubmitError::TenantQueueFull { tenant, queued, limit } => {
                write!(f, "tenant '{tenant}' queue full: {queued} jobs queued, cap {limit}")
            }
            SubmitError::Overloaded { inflight, limit } => {
                write!(f, "overloaded: {inflight} jobs in flight, limit {limit}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A hard bound on jobs in flight (queued **and** running) fronting a
/// [`FleetClient`] — the service-runtime backstop the queue caps alone
/// cannot provide. Admission caps bound *waiting* work per policy;
/// the limiter bounds *total* resident work so an overloaded shard
/// sheds submissions immediately ([`SubmitError::Overloaded`]) instead
/// of queueing without bound. Deterministic by construction: the
/// decision reads only scheduler state, never wall-clock load, so a
/// recorded trace replays its bounces bit-identically at any worker
/// count.
///
/// The limiter is host-side front-door state, like event sinks: it is
/// not checkpointed. Re-install it after a restore (the workload driver
/// does) — its shed count restarts at zero, while the client-level
/// [`rejected_submissions`](FleetClient::rejected_submissions) total is
/// carried across the crash by [`FleetClient::resume`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcurrencyLimiter {
    max_inflight: usize,
    sheds: u64,
}

impl ConcurrencyLimiter {
    /// A limiter admitting at most `max_inflight` jobs in flight
    /// (clamped to a floor of 1 — a limit of 0 would shed everything).
    pub fn new(max_inflight: usize) -> Self {
        Self { max_inflight: max_inflight.max(1), sheds: 0 }
    }

    /// The configured in-flight bound.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Submissions this limiter has shed since it was installed.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Admit or shed a submission given the current in-flight count.
    fn admit(&mut self, inflight: usize) -> Result<(), SubmitError> {
        if inflight >= self.max_inflight {
            self.sheds += 1;
            Err(SubmitError::Overloaded { inflight, limit: self.max_inflight })
        } else {
            Ok(())
        }
    }
}

/// What the client remembers about an admitted job (for per-tenant
/// counting and shed candidate ranking).
#[derive(Clone, Debug)]
struct Admitted {
    tenant: String,
    priority: u8,
}

/// One queued job in an admission-planning snapshot.
struct QueuedRow {
    id: JobId,
    tenant: String,
    priority: u8,
}

/// Admission-controlled front-end over a [`Scheduler`].
///
/// ```
/// use lnls_runtime::{AdmissionPolicy, BinaryJob, FleetClient, Scheduler, SchedulerConfig};
/// use lnls_core::{BitString, SearchConfig, TabuSearch};
/// use lnls_gpu_sim::DeviceSpec;
/// use lnls_neighborhood::{KHamming, Neighborhood};
/// use lnls_problems::OneMax;
///
/// let fleet = Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
/// let mut client = FleetClient::new(fleet, AdmissionPolicy::queue_cap(2));
/// let hood = KHamming::new(16, 2);
/// let job = |i: u64| {
///     let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i);
///     let init = BitString::random(&mut rng, 16);
///     let search = TabuSearch::paper(SearchConfig::budget(10).with_seed(i), hood.size());
///     BinaryJob::new(format!("onemax-{i}"), OneMax::new(16), hood, search, init)
/// };
/// let a = client.submit(job(0)).expect("under the cap");
/// let b = client.submit(job(1)).expect("under the cap");
/// assert!(client.submit(job(2)).is_err(), "third submission overflows the cap");
/// client.run_until_idle();
/// assert!(client.report(a).is_some() && client.report(b).is_some());
/// assert_eq!(client.fleet_report().jobs_rejected, 1);
/// ```
pub struct FleetClient {
    fleet: Scheduler,
    policy: AdmissionPolicy,
    admitted: BTreeMap<JobId, Admitted>,
    /// Submissions rejected outright (they never got a handle, so the
    /// scheduler cannot count them).
    rejected_submissions: u64,
    /// Optional in-flight bound checked before the admission policy.
    limiter: Option<ConcurrencyLimiter>,
}

impl FleetClient {
    /// Wrap `fleet` with `policy`.
    pub fn new(fleet: Scheduler, policy: AdmissionPolicy) -> Self {
        Self { fleet, policy, admitted: BTreeMap::new(), rejected_submissions: 0, limiter: None }
    }

    /// Wrap a *restored* scheduler (see
    /// [`Scheduler::restore`](crate::Scheduler::restore)), rebuilding
    /// the admission bookkeeping from its live jobs — queued *and*
    /// running, since preemption returns running jobs to the queue
    /// where caps and shed planning must see them — so admission keeps
    /// working across a crash/restore boundary.
    ///
    /// `rejected_submissions` carries forward the count of submissions
    /// the pre-crash client bounced outright — they never reached the
    /// scheduler, so the checkpoint cannot know about them; pass 0 to
    /// forget them.
    pub fn resume(fleet: Scheduler, policy: AdmissionPolicy, rejected_submissions: u64) -> Self {
        let admitted = fleet
            .live_rows()
            .into_iter()
            .map(|(id, tenant, priority)| (id, Admitted { tenant, priority }))
            .collect();
        Self { fleet, policy, admitted, rejected_submissions, limiter: None }
    }

    /// Submit any [`SearchJob`] under the admission policy.
    pub fn submit<J: SearchJob>(&mut self, job: J) -> Result<JobHandle, SubmitError> {
        self.submit_spec(JobSpec::new(job))
    }

    /// Submit an enveloped [`SearchJob`] under the admission policy.
    ///
    /// Caps count *queued* jobs (running jobs have already won
    /// placement). With shedding enabled, a full queue evicts its
    /// lowest-priority waiting jobs — newest first among equals — but
    /// only jobs ranking strictly below the submission; shed jobs'
    /// reports are marked [`rejected`](JobReport::rejected) and their
    /// handles report [`JobStatus::Rejected`]. Admission is
    /// all-or-nothing: victims are *planned* against every cap first
    /// and evicted only once the submission is certain to be admitted,
    /// so a rejected submission never sheds anyone.
    pub fn submit_spec<J: SearchJob>(
        &mut self,
        spec: JobSpec<J>,
    ) -> Result<JobHandle, SubmitError> {
        let tenant = spec.tenant().to_string();
        let priority = spec.effective_priority();
        // The concurrency limiter fronts everything: an overloaded
        // client sheds before admission planning even looks at the
        // queue (no victims are ever planned for a shed submission).
        if let Some(limiter) = self.limiter.as_mut() {
            let inflight = self.fleet.queued_len() + self.fleet.running_len();
            if let Err(err) = limiter.admit(inflight) {
                self.rejected_submissions += 1;
                if self.fleet.observing() {
                    self.fleet.emit_event(FleetEvent::Rejected {
                        job: None,
                        tenant,
                        reason: RejectReason::Overloaded,
                    });
                }
                return Err(err);
            }
        }
        // One snapshot of the queue, pruning finished bookkeeping on
        // the way (the admitted map stays bounded by *live* jobs).
        let mut queued = self.queued_snapshot();

        // Phase 1: plan. Pop victims from the snapshot until both caps
        // admit the submission; any infeasible cap rejects with nothing
        // evicted yet.
        let mut victims: Vec<JobId> = Vec::new();
        if let Some(limit) = self.policy.max_queued_per_tenant {
            while queued.iter().filter(|q| q.tenant == tenant).count() >= limit {
                match self.plan_shed(&mut queued, priority, Some(&tenant)) {
                    Some(id) => victims.push(id),
                    None => {
                        self.rejected_submissions += 1;
                        if self.fleet.observing() {
                            self.fleet.emit_event(FleetEvent::Rejected {
                                job: None,
                                tenant: tenant.clone(),
                                reason: RejectReason::TenantQueueFull,
                            });
                        }
                        return Err(SubmitError::TenantQueueFull {
                            queued: queued.iter().filter(|q| q.tenant == tenant).count(),
                            tenant,
                            limit,
                        });
                    }
                }
            }
        }
        if let Some(limit) = self.policy.max_queued {
            while queued.len() >= limit {
                match self.plan_shed(&mut queued, priority, None) {
                    Some(id) => victims.push(id),
                    None => {
                        self.rejected_submissions += 1;
                        if self.fleet.observing() {
                            self.fleet.emit_event(FleetEvent::Rejected {
                                job: None,
                                tenant: tenant.clone(),
                                reason: RejectReason::QueueFull,
                            });
                        }
                        return Err(SubmitError::QueueFull { queued: queued.len(), limit });
                    }
                }
            }
        }

        // Phase 2: commit — evict the planned victims, then submit.
        for id in victims {
            self.fleet.reject_queued(JobHandle { id });
            self.admitted.remove(&id);
        }
        let handle = self.fleet.submit_spec(spec);
        if self.fleet.observing() {
            self.fleet.emit_event(FleetEvent::Admitted { job: handle.id() });
        }
        self.admitted.insert(handle.id(), Admitted { tenant, priority });
        Ok(handle)
    }

    /// One pass over the fleet's queue: prune terminal jobs from the
    /// admitted map and return the live queued rows this client admitted.
    fn queued_snapshot(&mut self) -> Vec<QueuedRow> {
        let queued_ids = self.fleet.queued_job_ids();
        let fleet = &self.fleet;
        self.admitted.retain(|id, _| !fleet.is_terminal(JobHandle { id: *id }));
        self.admitted
            .iter()
            .filter(|(id, _)| queued_ids.contains(id))
            .map(|(id, a)| QueuedRow { id: *id, tenant: a.tenant.clone(), priority: a.priority })
            .collect()
    }

    /// Pick the next shed victim from the snapshot: lowest priority
    /// strictly below `incoming`, newest first among equals, restricted
    /// to `tenant` when given. Removes it from the snapshot and returns
    /// its id; `None` when shedding is off or nothing qualifies.
    fn plan_shed(
        &self,
        queued: &mut Vec<QueuedRow>,
        incoming: u8,
        tenant: Option<&str>,
    ) -> Option<JobId> {
        if !self.policy.shed_lowest_priority {
            return None;
        }
        let (idx, _) = queued
            .iter()
            .enumerate()
            .filter(|(_, q)| tenant.is_none_or(|t| q.tenant == t) && q.priority < incoming)
            .min_by_key(|(_, q)| (q.priority, std::cmp::Reverse(q.id)))?;
        Some(queued.swap_remove(idx).id)
    }

    // -- pass-throughs ------------------------------------------------

    /// Advance the fleet one step (see [`Scheduler::tick`]).
    pub fn tick(&mut self) -> bool {
        self.fleet.tick()
    }

    /// Run until every admitted job has completed.
    pub fn run_until_idle(&mut self) {
        self.fleet.run_until_idle()
    }

    /// Where `handle`'s job currently is (see [`Scheduler::status`]).
    pub fn status(&self, handle: JobHandle) -> JobStatus {
        self.fleet.status(handle)
    }

    /// Request cancellation (see [`Scheduler::cancel`]).
    pub fn cancel(&mut self, handle: JobHandle) -> bool {
        self.fleet.cancel(handle)
    }

    /// The report of a completed job, if it completed.
    pub fn report(&self, handle: JobHandle) -> Option<&JobReport> {
        self.fleet.report(handle)
    }

    /// Drive the fleet until `handle` completes, then return its report
    /// (see [`Scheduler::await_report`]).
    pub fn await_report(&mut self, handle: JobHandle) -> &JobReport {
        self.fleet.await_report(handle)
    }

    /// All completed reports, in job-id order.
    pub fn reports(&self) -> impl Iterator<Item = &JobReport> {
        self.fleet.reports()
    }

    /// Snapshot the underlying fleet (see [`Scheduler::checkpoint`]).
    pub fn checkpoint(&self) -> FleetCheckpoint {
        self.fleet.checkpoint()
    }

    /// Fleet summary; [`jobs_rejected`](FleetReport::jobs_rejected)
    /// includes submissions this client rejected outright on top of the
    /// jobs the scheduler shed.
    pub fn fleet_report(&self) -> FleetReport {
        let mut report = self.fleet.fleet_report();
        report.jobs_rejected += self.rejected_submissions;
        report
    }

    /// Attach an event sink (see [`Scheduler::attach_sink`]). Sinks
    /// attached through the client also see the client-side admission
    /// events (`Admitted`, outright-bounce `Rejected`).
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.fleet.attach_sink(sink);
    }

    /// Detach the current event sink, flushed (see
    /// [`Scheduler::detach_sink`]).
    pub fn detach_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.fleet.detach_sink()
    }

    /// Attach a metrics registry (see [`Scheduler::attach_metrics`]).
    pub fn attach_metrics(&mut self, registry: MetricsRegistry) {
        self.fleet.attach_metrics(registry);
    }

    /// Attach a fresh, empty metrics registry (see
    /// [`Scheduler::enable_metrics`]).
    pub fn enable_metrics(&mut self) {
        self.fleet.enable_metrics();
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.fleet.metrics()
    }

    /// Detach and return the attached metrics registry, if any.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.fleet.take_metrics()
    }

    /// Submissions this client refused (admission policy or limiter,
    /// not the scheduler). Carried across a crash via
    /// [`resume`](Self::resume)'s `rejected_submissions` argument.
    pub fn rejected_submissions(&self) -> u64 {
        self.rejected_submissions
    }

    /// Install (`Some`) or remove (`None`) a [`ConcurrencyLimiter`]
    /// bounding jobs in flight. Not checkpointed — re-install after a
    /// restore.
    pub fn set_inflight_limit(&mut self, max_inflight: Option<usize>) {
        self.limiter = max_inflight.map(ConcurrencyLimiter::new);
    }

    /// The limiter fronting this client, if one is installed.
    pub fn limiter(&self) -> Option<&ConcurrencyLimiter> {
        self.limiter.as_ref()
    }

    /// Extract a *queued* job for a shard-level steal, forgetting it
    /// from this client's admission ledger. Running jobs are never
    /// donated. `None` when the id is not queued here.
    pub fn donate_queued(&mut self, id: JobId) -> Option<StolenJob> {
        let stolen = self.fleet.donate_queued(id)?;
        self.admitted.remove(&id);
        Some(stolen)
    }

    /// Adopt a job stolen from another shard, adding it to this
    /// client's admission ledger (a steal bypasses admission policy:
    /// the job was already admitted fleet-wide by its donor).
    pub fn adopt(&mut self, stolen: StolenJob) -> JobHandle {
        let tenant = stolen.tenant().to_string();
        let priority = stolen.priority();
        let handle = self.fleet.adopt(stolen);
        self.admitted.insert(handle.id(), Admitted { tenant, priority });
        handle
    }

    /// The wrapped scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.fleet
    }

    /// Mutable access to the wrapped scheduler (placement, devices,
    /// anything not wrapped here). Submitting through the scheduler
    /// directly bypasses admission control, by design.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.fleet
    }

    /// Unwrap into the scheduler.
    pub fn into_scheduler(self) -> Scheduler {
        self.fleet
    }
}
