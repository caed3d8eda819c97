//! Type-erased job executors.
//!
//! The scheduler sees jobs as `Box<dyn JobExec>`: steppable in iteration
//! quanta, priceable, cloneable (for checkpoints), byte-persistable (for
//! disk snapshots), and — when two erased jobs report the same
//! [`BatchKey`] — fusable. The key embeds the concrete Rust type
//! (`TypeId`), so a leader may downcast its batch peers to its own type
//! and drive them through one fused pass.
//!
//! The five bundled job families share one executor, [`Exec`]: a shell
//! that owns the job's identity ([`JobHead`]) and implements [`JobExec`]
//! once — the accessors, the peer downcast, the report, clones and the
//! payload header — around the family's [`Walk`]. A walk is a
//! [`SearchCursor`] plus what pricing it needs (`TabuCursor` for binary
//! jobs, `RtsCursor` for QAP jobs, an [`AnnealCursor`], `LnsCursor` or
//! `PortfolioCursor` behind the object-safe [`ProblemCursor`] adapter):
//! the cursor owns the walk, the family owns the pricing. That is what
//! makes preemption free of semantic consequence — a job stepped in
//! quanta makes exactly the moves a run-to-completion job makes.
//!
//! [`JobExec`] is public so external workloads can implement
//! [`SearchJob`](crate::SearchJob) end to end; the shell and the walks
//! stay private behind their spec types.

use crate::job::{JobId, JobOutcome, JobReport};
use crate::submit::SubmitCtx;
use lnls_core::persist::{Persist, PersistError, PersistTag, Reader};
use lnls_core::{
    AnnealCursor, BatchLane, BatchedExplorer, DynCursor, Explorer, IncrementalEval, LaneProfile,
    ProblemCursor, SearchCursor, SequentialExplorer, TabuCursor,
};
use lnls_gpu_sim::{
    argmin_kernel_seconds, price_fused_span, transfer_seconds, Device, DeviceSpec, HostSpec,
    LaneIo, LaunchMode, SelectionMode, TimeBook, ARGMIN_RECORD_BYTES,
};
use lnls_neighborhood::Neighborhood;
use lnls_qap::{GpuSwapEvaluator, QapInstance, RtsCursor, SwapEvaluator, TableEvaluator};
use std::any::{Any, TypeId};
use std::sync::Arc;

/// Launch-batching compatibility key: jobs fuse when the concrete
/// executor type, problem family, dimensionality and neighborhood all
/// agree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BatchKey {
    type_id: TypeId,
    family: String,
    dim: usize,
    hood_size: u64,
    k: usize,
}

/// What one scheduler step actually did: iterations executed and the
/// modeled seconds they cost on the backend that ran them.
#[derive(Copy, Clone, Debug, Default)]
pub struct StepRun {
    /// Iterations executed by the step.
    pub iters: u64,
    /// Modeled seconds charged to the backend — for device launches
    /// priced through the stream model, the schedule **makespan**.
    pub seconds: f64,
    /// What the same operations would cost executed back-to-back on one
    /// queue. Equals [`seconds`](Self::seconds) when nothing overlapped
    /// (single-engine layouts, host steps); the gap is the stream-level
    /// overlap win the fleet report aggregates.
    pub serialized_s: f64,
    /// Multi-iteration stream spans the step priced (0 for solo and
    /// host steps, 1 per fused [`JobExec::step_batch`] call).
    pub spans: u64,
    /// Launch overhead amortized away by persistent-kernel residency
    /// relative to re-launching every iteration (nonzero only under
    /// [`LaunchMode::PersistentSpan`]).
    pub launch_overhead_saved_s: f64,
}

/// The type-erased executor contract behind
/// [`SearchJob::into_exec`](crate::SearchJob::into_exec): a steppable,
/// priceable, persistable shell around one search walk.
///
/// Implementations wrap a [`SearchCursor`] (directly, or behind
/// [`DynCursor`]) and price its iterations onto the backend they are
/// stepped on; the scheduler never sees anything else. The five bundled
/// job families — binary tabu, QAP robust tabu, simulated annealing,
/// destroy-and-repair LNS and portfolio races — share one implementation
/// built by their spec types; external workloads implement this trait
/// plus [`SearchJob`](crate::SearchJob) to plug in.
pub trait JobExec: Send {
    /// The identity assigned at submission.
    fn id(&self) -> JobId;
    /// Submission name, as the report will carry it — surfaced in the
    /// observability event stream (`Submitted` events). The default
    /// covers external executors predating the accessor.
    fn name(&self) -> &str {
        ""
    }
    /// Queue priority (higher = larger fair share).
    fn priority(&self) -> u8;
    /// Submission sequence number (FIFO tie-breaker).
    fn seq(&self) -> u64;
    /// True when the walk has nothing left to do.
    fn done(&self) -> bool;
    /// Iterations the walk has executed so far (drives iteration
    /// budgets and the serialized baseline).
    fn iterations(&self) -> u64;
    /// Launch-batching key; `None` (the default) for unbatchable
    /// workloads.
    fn batch_key(&self) -> Option<BatchKey> {
        None
    }
    /// Downcast hook for batch leaders driving same-key peers.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Run up to `quota` iterations on a fleet device, charging the
    /// device ledger. A short count means the job finished.
    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun;

    /// Run up to `quota` iterations on a CPU worker.
    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun;

    /// Run up to `span_iters` consecutive fused iterations covering
    /// `self` and `peers` (all sharing this job's [`BatchKey`]), priced
    /// as **one** breadth-first stream span: iteration `k+1`'s uploads
    /// are double-buffered against iteration `k`'s kernel, and launch
    /// overhead is charged per `mode`. Members already finished must not
    /// be passed, and the span ends early as soon as any member
    /// finishes — group membership never changes mid-span. `iters`
    /// reports the iterations *each member* executed (identical across
    /// the group).
    ///
    /// The default serves unbatchable executors: a `None`
    /// [`batch_key`](Self::batch_key) never forms a group, so `peers` is
    /// always empty and the span is a plain [`step_device`](Self::step_device)
    /// call.
    fn step_batch(
        &mut self,
        peers: &mut [&mut Box<dyn JobExec>],
        dev: &mut Device,
        span_iters: u64,
        _mode: LaunchMode,
    ) -> StepRun {
        assert!(peers.is_empty(), "batch_key() is None, so no peers ever arrive");
        self.step_device(dev, span_iters.max(1))
    }

    /// Modeled cost of the work this job has *executed so far* if it had
    /// run solo, launch-per-iteration, on `spec` — the serialized-fleet
    /// baseline contribution.
    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64;

    /// Produce the final report. Valid even when the job is not
    /// [`done`](Self::done) — a cancelled job reports its best-so-far.
    fn finish(&mut self, backend: String, started_s: f64, finished_s: f64) -> JobReport;

    /// Notification that the job left its backend (preemption back into
    /// the queue). Executors drop backend-resident caches here so a
    /// later placement re-pays residency costs honestly.
    fn unplaced(&mut self) {}

    /// Deep copy for checkpoints.
    fn clone_box(&self) -> Box<dyn JobExec>;

    /// Registry key for disk persistence (see
    /// [`JobRegistry`](crate::JobRegistry)).
    fn persist_tag(&self) -> String;

    /// Byte-level snapshot of the job (walk state included).
    fn persist(&self, out: &mut Vec<u8>);
}

impl StepRun {
    /// Fold `span`, which advanced this step by `iters` iterations, into
    /// the step.
    pub(crate) fn absorb(&mut self, iters: u64, span: StepRun) {
        self.iters += iters;
        self.seconds += span.seconds;
        self.serialized_s += span.serialized_s;
        self.spans += span.spans;
        self.launch_overhead_saved_s += span.launch_overhead_saved_s;
    }
}

/// Price one fused stream span — `iters` iterations of `lanes` sharing
/// the per-iteration kernel chain `kernels` — through the span pricer,
/// book it on `dev` with `host_s` of host work, and report it as one
/// span of `iters` iterations.
pub(crate) fn charge_span(
    dev: &mut Device,
    lanes: &[LaneIo],
    kernels: &[f64],
    host_s: f64,
    iters: u64,
    mode: LaunchMode,
) -> StepRun {
    let sched = price_fused_span(dev.spec(), lanes, kernels, iters as usize, mode);
    let (book, saved) = TimeBook::fused_span(dev.spec(), lanes, kernels, host_s, iters, mode);
    dev.charge(&book);
    StepRun {
        iters,
        seconds: sched.makespan,
        serialized_s: sched.serialized,
        spans: 1,
        launch_overhead_saved_s: saved,
    }
}

// ---------------------------------------------------------------------
// The shell
// ---------------------------------------------------------------------

/// The identity the scheduler assigned a bundled job: the first four
/// fields of every bundled payload.
#[derive(Clone)]
pub(crate) struct JobHead {
    id: JobId,
    name: String,
    priority: u8,
    seq: u64,
}

impl Persist for JobHead {
    fn write(&self, out: &mut Vec<u8>) {
        self.id.write(out);
        self.name.write(out);
        self.priority.write(out);
        self.seq.write(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self { id: r.read()?, name: r.read()?, priority: r.read()?, seq: r.read()? })
    }
}

/// What one bundled job family supplies to [`Exec`]: its walk, the
/// pricing of its steps, its outcome and its payload body. The methods
/// mirror [`JobExec`]'s; the shell supplies everything else.
pub(crate) trait Walk: Send + Sized + 'static {
    /// Registry tag the family's payloads persist under.
    fn tag() -> String;

    /// See [`JobExec::done`].
    fn done(&self) -> bool;

    /// See [`JobExec::iterations`].
    fn iterations(&self) -> u64;

    /// See [`JobExec::batch_key`]; `None` (the default) never fuses.
    fn batch_key(&self) -> Option<BatchKey> {
        None
    }

    /// See [`JobExec::step_device`].
    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun;

    /// See [`JobExec::step_host`].
    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun;

    /// See [`JobExec::step_batch`]; the shell has downcast the peers
    /// already. The default serves families that never fuse.
    fn step_batch(
        &mut self,
        peers: &mut [&mut Self],
        dev: &mut Device,
        span_iters: u64,
        _mode: LaunchMode,
    ) -> StepRun {
        assert!(peers.is_empty(), "batch_key() is None, so no peers ever arrive");
        self.step_device(dev, span_iters.max(1))
    }

    /// See [`JobExec::serial_equivalent_s`].
    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64;

    /// The outcome a report from `backend` carries (the best-so-far when
    /// the walk is not done).
    fn outcome(&self, backend: &str) -> JobOutcome;

    /// Iterations that ran inside fused groups.
    fn fused_iterations(&self) -> u64 {
        0
    }

    /// See [`JobExec::unplaced`].
    fn unplaced(&mut self) {}

    /// Deep copy for checkpoints. Backend-resident caches and scratch
    /// stay behind: a revived job rebuilds them, as a real restart would.
    fn fork(&self) -> Self;

    /// The payload after the [`JobHead`].
    fn write_body(&self, out: &mut Vec<u8>);

    /// Inverse of [`write_body`](Self::write_body).
    fn read_body(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// The one [`JobExec`] implementation behind the bundled job families:
/// a [`JobHead`] and the family's [`Walk`].
pub(crate) struct Exec<W> {
    head: JobHead,
    walk: W,
}

impl<W: Walk> Exec<W> {
    /// The executor of a fresh submission under `ctx`: the envelope's
    /// name and priority overrides win over the spec's own.
    pub fn new(ctx: &SubmitCtx, name: String, priority: u8, walk: W) -> Self {
        let (name, priority) = (ctx.name(name), ctx.priority(priority));
        Self { head: JobHead { id: ctx.id, name, priority, seq: ctx.seq }, walk }
    }

    /// Decode one payload written by [`JobExec::persist`]: the
    /// [`JobHead`], then the walk's body.
    pub fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        let head = r.read()?;
        Ok(Box::new(Self { head, walk: W::read_body(r)? }))
    }
}

impl<W: Walk> JobExec for Exec<W> {
    fn id(&self) -> JobId {
        self.head.id
    }

    fn name(&self) -> &str {
        &self.head.name
    }

    fn priority(&self) -> u8 {
        self.head.priority
    }

    fn seq(&self) -> u64 {
        self.head.seq
    }

    fn done(&self) -> bool {
        self.walk.done()
    }

    fn iterations(&self) -> u64 {
        self.walk.iterations()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        self.walk.batch_key()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        self.walk.step_device(dev, quota)
    }

    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun {
        self.walk.step_host(host, quota)
    }

    fn step_batch(
        &mut self,
        peers: &mut [&mut Box<dyn JobExec>],
        dev: &mut Device,
        span_iters: u64,
        mode: LaunchMode,
    ) -> StepRun {
        let mut peers: Vec<&mut W> = peers
            .iter_mut()
            .map(|p| {
                let peer = p.as_any_mut().downcast_mut::<Self>();
                &mut peer.expect("batch key embeds TypeId; peers must share the leader's type").walk
            })
            .collect();
        self.walk.step_batch(&mut peers, dev, span_iters, mode)
    }

    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
        self.walk.serial_equivalent_s(spec)
    }

    fn finish(&mut self, backend: String, started_s: f64, finished_s: f64) -> JobReport {
        JobReport {
            id: self.head.id,
            name: self.head.name.clone(),
            tenant: String::new(),
            outcome: self.walk.outcome(&backend),
            backend,
            submitted_s: 0.0,
            started_s,
            finished_s,
            fused_iterations: self.walk.fused_iterations(),
            cancelled: false,
            rejected: false,
        }
    }

    fn unplaced(&mut self) {
        self.walk.unplaced()
    }

    fn clone_box(&self) -> Box<dyn JobExec> {
        Box::new(Self { head: self.head.clone(), walk: self.walk.fork() })
    }

    fn persist_tag(&self) -> String {
        W::tag()
    }

    fn persist(&self, out: &mut Vec<u8>) {
        self.head.write(out);
        self.walk.write_body(out);
    }
}

// ---------------------------------------------------------------------
// Binary tabu jobs
// ---------------------------------------------------------------------

/// Walk of a [`BinaryJob`](crate::BinaryJob): a [`TabuCursor`] stepped
/// in quanta, batchable with same-key tenants.
pub(crate) struct TabuWalk<P: IncrementalEval, N> {
    problem: Arc<P>,
    hood: N,
    cursor: TabuCursor<P>,
    /// Fitness scratch of the latest evaluation: never persisted, and
    /// left behind by [`fork`](Walk::fork).
    out: Vec<i64>,
    state_h2d_bytes: u64,
    host: HostSpec,
    selection: SelectionMode,
    fused_iters: u64,
}

impl<P, N> TabuWalk<P, N>
where
    P: IncrementalEval + Persist + PersistTag + 'static,
    N: Neighborhood + Clone + Send + Sync + Persist + PersistTag + 'static,
{
    pub fn exec(ctx: &SubmitCtx, spec: crate::job::BinaryJob<P, N>) -> Exec<Self> {
        let cursor = spec.search.cursor(&spec.problem, spec.init);
        let state_h2d_bytes = spec.state_h2d_bytes.unwrap_or(4 * spec.problem.dim() as u64);
        let walk = Self {
            problem: Arc::new(spec.problem),
            hood: spec.hood,
            cursor,
            out: Vec::new(),
            state_h2d_bytes,
            host: ctx.host.clone(),
            selection: ctx.selection,
            fused_iters: 0,
        };
        Exec::new(ctx, spec.name, spec.priority, walk)
    }

    fn profile(&self, spec: &DeviceSpec) -> LaneProfile {
        LaneProfile::incremental_eval(
            spec,
            &self.host,
            self.hood.size(),
            self.hood.k(),
            self.problem.dim(),
            self.state_h2d_bytes,
        )
    }

    /// This walk's lane of a fused evaluation, priced by `profile`
    /// under the job's own selection mode.
    fn lane(&mut self, profile: LaneProfile) -> BatchLane<'_, P> {
        let (s, state) = self.cursor.explore_parts();
        let selection = self.selection;
        BatchLane { problem: &*self.problem, s, state, out: &mut self.out, profile, selection }
    }
}

impl<P, N> Walk for TabuWalk<P, N>
where
    P: IncrementalEval + Persist + PersistTag + 'static,
    N: Neighborhood + Clone + Send + Sync + Persist + PersistTag + 'static,
{
    fn tag() -> String {
        format!("tabu/{}/{}", P::TAG, N::TAG)
    }

    fn done(&self) -> bool {
        self.cursor.is_done()
    }

    fn iterations(&self) -> u64 {
        self.cursor.iterations()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        Some(BatchKey {
            type_id: TypeId::of::<Self>(),
            family: self.problem.name(),
            dim: self.problem.dim(),
            hood_size: self.hood.size(),
            k: self.hood.k(),
        })
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        // Each iteration is one single-lane fused launch, priced as a
        // span of one: same stream pricing the multi-tenant path
        // charges, minus the amortization.
        let spec = dev.spec().clone();
        let prof = self.profile(&spec);
        let mut bex = BatchedExplorer::new(self.hood.clone(), spec);
        let mut iters = 0;
        while iters < quota && !self.cursor.is_done() {
            bex.begin_span(LaunchMode::PerIteration);
            bex.explore_span(&mut [self.lane(prof)]);
            bex.finish_span();
            self.cursor.select_and_commit(&*self.problem, &self.hood, &self.out);
            iters += 1;
        }
        let seconds = bex.stream_makespan_s();
        let serialized_s = bex.stream_serialized_s();
        dev.charge(bex.book());
        StepRun { iters, seconds, serialized_s, ..StepRun::default() }
    }

    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun {
        // Functional evaluation identical to the device path, driven
        // through the SearchCursor contract; priced as sequential-host
        // neighborhood scans.
        let prof = LaneProfile::incremental_eval(
            &DeviceSpec::gtx280(),
            host,
            self.hood.size(),
            self.hood.k(),
            self.problem.dim(),
            self.state_h2d_bytes,
        );
        let mut ex = SequentialExplorer::new(self.hood.clone());
        let iters =
            self.cursor.step_batch((&*self.problem, &mut ex as &mut dyn Explorer<P>), quota);
        let seconds = prof.host_seconds * iters as f64;
        StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
    }

    fn step_batch(
        &mut self,
        peers: &mut [&mut Self],
        dev: &mut Device,
        span_iters: u64,
        mode: LaunchMode,
    ) -> StepRun {
        let spec = dev.spec().clone();
        let prof = self.profile(&spec);
        let peer_profiles: Vec<LaneProfile> = peers.iter().map(|t| t.profile(&spec)).collect();

        // Selection is per lane: each member's effective mode — the
        // fleet default or its own JobSpec override — prices its slice
        // of the fused readback. The span accumulates up to `span_iters`
        // such iterations and prices them as one double-buffered stream
        // schedule; the commits in between are pure host work on
        // already-downloaded fitness, so deferring the pricing changes
        // nothing the walks can observe.
        let mut bex = BatchedExplorer::new(self.hood.clone(), spec);
        bex.begin_span(mode);
        let fused = !peers.is_empty();
        let budget = span_iters.max(1);
        let mut iters = 0;
        loop {
            {
                let mut lanes: Vec<BatchLane<'_, P>> = Vec::with_capacity(1 + peers.len());
                lanes.push(self.lane(prof));
                for (t, p) in peers.iter_mut().zip(&peer_profiles) {
                    lanes.push(t.lane(*p));
                }
                bex.explore_span(&mut lanes);
            }
            self.cursor.select_and_commit(&*self.problem, &self.hood, &self.out);
            if fused {
                self.fused_iters += 1;
            }
            for t in peers.iter_mut() {
                t.cursor.select_and_commit(&*t.problem, &t.hood, &t.out);
                t.fused_iters += 1;
            }
            iters += 1;
            if iters >= budget || self.cursor.is_done() || peers.iter().any(|t| t.cursor.is_done())
            {
                break;
            }
        }
        let pricing = bex.finish_span();
        dev.charge(bex.book());
        StepRun {
            iters,
            seconds: pricing.makespan_s,
            serialized_s: pricing.serialized_s,
            spans: 1,
            launch_overhead_saved_s: pricing.overhead_saved_s,
        }
    }

    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
        self.profile(spec).solo_seconds(spec) * self.cursor.iterations() as f64
    }

    fn outcome(&self, backend: &str) -> JobOutcome {
        let wall = std::time::Duration::ZERO;
        JobOutcome::binary(self.cursor.clone().into_result(wall, None, backend.to_string()))
    }

    fn fused_iterations(&self) -> u64 {
        self.fused_iters
    }

    fn fork(&self) -> Self {
        Self {
            problem: Arc::clone(&self.problem),
            hood: self.hood.clone(),
            cursor: self.cursor.clone(),
            out: Vec::new(),
            state_h2d_bytes: self.state_h2d_bytes,
            host: self.host.clone(),
            selection: self.selection,
            fused_iters: self.fused_iters,
        }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        self.state_h2d_bytes.write(out);
        self.host.write(out);
        self.selection.write(out);
        self.fused_iters.write(out);
        self.problem.write(out);
        self.hood.write(out);
        self.cursor.persist(out);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let state_h2d_bytes = r.read()?;
        let host = r.read()?;
        let selection = r.read()?;
        let fused_iters = r.read()?;
        let problem: P = r.read()?;
        let hood: N = r.read()?;
        if hood.dim() != problem.dim() {
            return Err(PersistError::new("neighborhood/problem dimension mismatch"));
        }
        let cursor = TabuCursor::read_persisted(r, &problem)?;
        let problem = Arc::new(problem);
        Ok(Self {
            problem,
            hood,
            cursor,
            out: Vec::new(),
            state_h2d_bytes,
            host,
            selection,
            fused_iters,
        })
    }
}

// ---------------------------------------------------------------------
// QAP jobs
// ---------------------------------------------------------------------

/// Walk of a [`QapJobSpec`](crate::QapJobSpec): an [`RtsCursor`]
/// stepped in quanta. Unbatchable; the device path prices through the
/// real simulated swap kernel (instance matrices uploaded once per
/// device residency, assignment re-uploaded per iteration), the host
/// path through the delta table.
pub(crate) struct QapWalk {
    instance: Arc<QapInstance>,
    cursor: RtsCursor,
    /// The fitness-selection mode the fleet (or a per-job override)
    /// asked for. The QAP swap path still *evaluates* through the
    /// functional simulated kernel — the full `C(n,2)` delta array is
    /// downloaded so robust tabu's functional walk (tabu inspection,
    /// aspiration) is bit-identical under either mode. What changes
    /// under [`SelectionMode::DeviceArgmin`] is the *pricing*, exactly
    /// like the tabu path: the modeled kernel folds tabu admissibility
    /// and aspiration into packed `(key, swap)` records, an on-device
    /// reduction launch ([`argmin_kernel_seconds`] over `C(n,2)` keys)
    /// selects the winner, and one packed record
    /// ([`ARGMIN_RECORD_BYTES`]) crosses PCIe per iteration instead of
    /// the whole delta array.
    selection: SelectionMode,
    /// Device seconds charged so far (serialized-baseline contribution
    /// of the device-resident part of the walk).
    charged_s: f64,
    /// Accumulated device ledger across every device quantum — surfaced
    /// in the job report (`RtsResult::book`), like a solo device run's.
    book: TimeBook,
    /// Iterations executed on CPU workers (priced onto the reference
    /// device for the serialized baseline).
    host_iters: u64,
    /// Device-resident evaluator, kept across quanta while the job stays
    /// on a device. Left behind by [`fork`](Walk::fork) — a revived job
    /// pays the instance re-upload again, exactly as a real restart
    /// would.
    gpu: Option<GpuSwapEvaluator>,
    /// Host-side delta table, kept across host quanta and left behind by
    /// [`fork`](Walk::fork). Invalidated when the walk advances on a
    /// device (the table's incremental state only tracks commits it
    /// saw).
    table: Option<TableEvaluator>,
}

impl QapWalk {
    pub fn exec(ctx: &SubmitCtx, spec: crate::job::QapJobSpec) -> Exec<Self> {
        let cursor = lnls_qap::RobustTabu::new(spec.config).cursor(&spec.instance, spec.init);
        let walk = Self {
            instance: Arc::new(spec.instance),
            cursor,
            selection: ctx.selection,
            charged_s: 0.0,
            book: TimeBook::default(),
            host_iters: 0,
            gpu: None,
            table: None,
        };
        Exec::new(ctx, spec.name, spec.priority, walk)
    }

    /// Modeled per-iteration seconds of the O(n)-per-swap kernel over
    /// `C(n,2)` swaps on `spec` — the reference-device price used for
    /// the serialized baseline when iterations executed on a CPU worker.
    fn iter_estimate_s(&self, spec: &DeviceSpec) -> f64 {
        let n = self.instance.size() as f64;
        let m = n * (n - 1.0) / 2.0;
        let ops = m * 8.0 * n;
        let peak = spec.sm_count as f64 * spec.warp_size as f64 / spec.issue_cycles * spec.clock_hz;
        spec.launch_overhead_s + ops / (peak * 0.25)
    }
}

impl Walk for QapWalk {
    fn tag() -> String {
        "qap/rts".to_string()
    }

    fn done(&self) -> bool {
        self.cursor.is_done()
    }

    fn iterations(&self) -> u64 {
        self.cursor.iterations()
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        let spec = dev.spec().clone();
        // (Re)build the device-resident evaluator when the job lands on
        // a new device residency (`unplaced` drops the cache whenever
        // the job leaves a backend) — instance matrices upload once per
        // residency, the paper's texture-resident F/D.
        if self.gpu.as_ref().is_none_or(|g| g.device().spec() != &spec) {
            self.gpu = Some(GpuSwapEvaluator::new(&self.instance, spec.clone()));
        }
        let eval = self.gpu.as_mut().expect("just ensured");
        let prev = eval.device().book().clone();
        let iters =
            self.cursor.step_batch((&*self.instance, eval as &mut dyn SwapEvaluator), quota);
        let mut delta = eval.device().book().delta_since(&prev);
        // Under DeviceArgmin the functional evaluation above is
        // unchanged (the walk still saw every delta), but the *pricing*
        // swaps the full `C(n,2)` readback for a packed-key reduction:
        // one argmin launch per iteration over the swap keys, one
        // packed record back per iteration (see the `selection` field
        // docs). The transformation mirrors what the tabu batch path
        // charges per lane.
        if self.selection.is_device() && iters > 0 {
            let n = self.instance.size() as u64;
            let m = n * (n - 1) / 2;
            if m > 1 {
                let full_bytes = m * std::mem::size_of::<i64>() as u64;
                let k = iters as f64;
                delta.d2h_s += (transfer_seconds(&spec, ARGMIN_RECORD_BYTES)
                    - transfer_seconds(&spec, full_bytes))
                    * k;
                delta.bytes_d2h =
                    delta.bytes_d2h + ARGMIN_RECORD_BYTES * iters - full_bytes * iters;
                delta.kernel_s += argmin_kernel_seconds(&spec, m) * k;
                delta.overhead_s += spec.launch_overhead_s * k;
                delta.launches += iters;
            }
        }
        let seconds = delta.gpu_total_s();
        dev.charge(&delta);
        self.book.add(&delta);
        self.charged_s += seconds;
        // The walk advanced past anything the idle delta table saw.
        if iters > 0 {
            self.table = None;
        }
        // QAP launches run through the real simulated kernel, a single
        // dependent chain per iteration — nothing overlaps, so the
        // serialized baseline equals the charged makespan.
        StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
    }

    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun {
        let table = self.table.get_or_insert_with(TableEvaluator::new);
        let iters =
            self.cursor.step_batch((&*self.instance, table as &mut dyn SwapEvaluator), quota);
        // Table scans are O(1) per swap: m lookups per iteration.
        let n = self.instance.size() as f64;
        let m = n * (n - 1.0) / 2.0;
        let ops = iters as f64 * m * 10.0;
        let seconds = ops * host.cpi_alu / host.clock_hz;
        self.host_iters += iters;
        StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
    }

    fn unplaced(&mut self) {
        // Preemption evicts the device residency: the next device
        // placement — even on an identical spec — re-uploads F/D, like
        // a real scheduler moving a tenant off a GPU. The host-side
        // delta table is kept: `step_device` drops it whenever the walk
        // advances on a device, so a surviving table is always
        // consistent with the current permutation.
        self.gpu = None;
    }

    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
        // Device-resident iterations: the real charged seconds. Host
        // iterations: priced onto the reference device so the baseline
        // stays device-denominated.
        self.charged_s + self.iter_estimate_s(spec) * self.host_iters as f64
    }

    fn outcome(&self, backend: &str) -> JobOutcome {
        // Device-resident iterations priced their launches into the
        // job's ledger; host-only runs report no book, matching a solo
        // TableEvaluator run.
        let book = (self.book.launches > 0).then(|| self.book.clone());
        JobOutcome::qap(self.cursor.clone().into_result(book, backend.to_string()))
    }

    fn fork(&self) -> Self {
        Self {
            instance: Arc::clone(&self.instance),
            cursor: self.cursor.clone(),
            selection: self.selection,
            charged_s: self.charged_s,
            book: self.book.clone(),
            host_iters: self.host_iters,
            gpu: None,
            table: None,
        }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        self.selection.write(out);
        self.charged_s.write(out);
        self.book.write(out);
        self.host_iters.write(out);
        (*self.instance).write(out);
        self.cursor.persist(out);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let selection = r.read()?;
        let charged_s = r.read()?;
        let book = r.read()?;
        let host_iters = r.read()?;
        let instance: QapInstance = r.read()?;
        let cursor = RtsCursor::read_persisted(r, &instance)?;
        let instance = Arc::new(instance);
        Ok(Self {
            instance,
            cursor,
            selection,
            charged_s,
            book,
            host_iters,
            gpu: None,
            table: None,
        })
    }
}

// ---------------------------------------------------------------------
// Simulated-annealing jobs
// ---------------------------------------------------------------------

/// Walk of an [`AnnealJob`](crate::AnnealJob): an [`AnnealCursor`]
/// driven through the object-safe [`ProblemCursor`] adapter (SA samples
/// its own neighbors, so the problem is the only external a step
/// needs).
///
/// Pricing is *sampling-style*: each iteration is one single-neighbor
/// launch — upload the incremental state, evaluate one sampled move,
/// read one fitness back. On the cost model that is overhead-dominated
/// (the paper's launch-size argument seen from the other side), which
/// is exactly what a per-sample GPU annealer costs; CPU workers price
/// the same evaluation through host CPIs.
///
/// Same-shape chains **fuse**: annealing jobs sharing a problem family,
/// dimension and sampling neighborhood report a common [`BatchKey`], so
/// a group of `L` chains pays one `L`-lane sampled launch per iteration
/// (one launch overhead for the group) instead of `L` single-lane
/// launches — the overhead-dominated regime is exactly where that
/// matters. Sampling stays per chain (each walk draws its own move from
/// its own RNG), so fusion is pricing-only, like everywhere else.
pub(crate) struct AnnealWalk<P: IncrementalEval, N: Neighborhood> {
    walk: ProblemCursor<P, AnnealCursor<P, N>>,
    state_h2d_bytes: u64,
    host: HostSpec,
    /// Iterations executed inside fused (≥ 2 member) launches.
    fused_iters: u64,
}

impl<P, N> AnnealWalk<P, N>
where
    P: IncrementalEval + Persist + PersistTag + 'static,
    N: Neighborhood + Clone + Persist + PersistTag + 'static,
{
    pub fn exec(ctx: &SubmitCtx, spec: crate::job::AnnealJob<P, N>) -> Exec<Self> {
        let cursor = spec.sa.cursor(&spec.problem, spec.init);
        let state_h2d_bytes = spec.state_h2d_bytes.unwrap_or(4 * spec.problem.dim() as u64);
        let walk = Self {
            walk: ProblemCursor::new(Arc::new(spec.problem), cursor),
            state_h2d_bytes,
            host: ctx.host.clone(),
            fused_iters: 0,
        };
        Exec::new(ctx, spec.name, spec.priority, walk)
    }

    /// One sampled-neighbor evaluation: `m = 1`.
    fn profile(&self, spec: &DeviceSpec) -> LaneProfile {
        LaneProfile::incremental_eval(
            spec,
            &self.host,
            1,
            self.walk.cursor().hood().k(),
            self.walk.problem().dim(),
            self.state_h2d_bytes,
        )
    }
}

impl<P, N> Walk for AnnealWalk<P, N>
where
    P: IncrementalEval + Persist + PersistTag + 'static,
    N: Neighborhood + Clone + Persist + PersistTag + 'static,
{
    fn tag() -> String {
        format!("anneal/{}/{}", P::TAG, N::TAG)
    }

    fn done(&self) -> bool {
        self.walk.is_done()
    }

    fn iterations(&self) -> u64 {
        self.walk.iterations()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        // Chains fuse when they sample the same neighborhood family over
        // the same problem shape; `hood_size` is 1 — every member
        // evaluates one sampled move per iteration regardless of how
        // large the neighborhood it samples from is.
        Some(BatchKey {
            type_id: TypeId::of::<Self>(),
            family: self.walk.problem().name(),
            dim: self.walk.problem().dim(),
            hood_size: 1,
            k: self.walk.cursor().hood().k(),
        })
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        let spec = dev.spec().clone();
        let prof = self.profile(&spec);
        let iters = self.walk.step(quota);
        // Charge the ledger exactly like `iters` single-lane launches:
        // per-sample upload, launch overhead, one-neighbor kernel,
        // one-fitness readback — the same accounting a fused batch uses,
        // at width one.
        let lane = LaneIo { h2d_bytes: prof.h2d_bytes, d2h_bytes: prof.d2h_bytes };
        let host_s = prof.host_seconds * iters as f64;
        let (book, _) = TimeBook::fused_span(
            &spec,
            &[lane],
            &[prof.kernel_seconds],
            host_s,
            iters,
            LaunchMode::PerIteration,
        );
        let seconds = book.gpu_total_s();
        dev.charge(&book);
        // Single-neighbor launches are one dependent chain each; the
        // readback is already one record, so [`SelectionMode`] is a
        // no-op here and nothing overlaps.
        StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
    }

    fn step_host(&mut self, _host: &HostSpec, quota: u64) -> StepRun {
        // `profile` already folds the executor's host model in; only
        // its host column is used here (reference device irrelevant).
        let prof = self.profile(&DeviceSpec::gtx280());
        let iters = self.walk.step(quota);
        let seconds = prof.host_seconds * iters as f64;
        StepRun { iters, seconds, serialized_s: seconds, ..StepRun::default() }
    }

    fn step_batch(
        &mut self,
        peers: &mut [&mut Self],
        dev: &mut Device,
        span_iters: u64,
        mode: LaunchMode,
    ) -> StepRun {
        // Fused annealing: the group's chains each sample one move per
        // iteration, evaluated as one multi-lane launch — `L` lanes
        // share a single kernel (work is additive: the fused grid covers
        // all sampled moves) and a single launch overhead, instead of
        // paying one launch per chain. Spans then double-buffer the
        // per-chain state uploads across iterations exactly like the
        // tabu path.
        let spec = dev.spec().clone();
        let profiles: Vec<LaneProfile> = std::iter::once(self.profile(&spec))
            .chain(peers.iter().map(|t| t.profile(&spec)))
            .collect();
        let lanes: Vec<LaneIo> = profiles
            .iter()
            .map(|p| LaneIo { h2d_bytes: p.h2d_bytes, d2h_bytes: p.d2h_bytes })
            .collect();
        let kernel_s: f64 = profiles.iter().map(|p| p.kernel_seconds).sum();
        let host_per_iter: f64 = profiles.iter().map(|p| p.host_seconds).sum();
        let fused = !peers.is_empty();
        let budget = span_iters.max(1);
        let mut iters = 0u64;
        loop {
            self.walk.step(1);
            for t in peers.iter_mut() {
                t.walk.step(1);
            }
            iters += 1;
            if fused {
                self.fused_iters += 1;
                for t in peers.iter_mut() {
                    t.fused_iters += 1;
                }
            }
            if iters >= budget || self.walk.is_done() || peers.iter().any(|t| t.walk.is_done()) {
                break;
            }
        }
        charge_span(dev, &lanes, &[kernel_s], host_per_iter * iters as f64, iters, mode)
    }

    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
        self.profile(spec).solo_seconds(spec) * self.walk.iterations() as f64
    }

    fn outcome(&self, _backend: &str) -> JobOutcome {
        let hood_name = self.walk.cursor().hood().name();
        let wall = std::time::Duration::ZERO;
        JobOutcome::binary(self.walk.cursor().clone().into_result(wall, hood_name))
    }

    fn fused_iterations(&self) -> u64 {
        self.fused_iters
    }

    fn fork(&self) -> Self {
        Self {
            walk: self.walk.clone(),
            state_h2d_bytes: self.state_h2d_bytes,
            host: self.host.clone(),
            fused_iters: self.fused_iters,
        }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        self.state_h2d_bytes.write(out);
        self.host.write(out);
        self.fused_iters.write(out);
        self.walk.problem().write(out);
        self.walk.cursor().persist(out);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let state_h2d_bytes = r.read()?;
        let host = r.read()?;
        let fused_iters = r.read()?;
        let problem: P = r.read()?;
        let cursor = AnnealCursor::read_persisted(r, &problem)?;
        let walk = ProblemCursor::new(Arc::new(problem), cursor);
        Ok(Self { walk, state_h2d_bytes, host, fused_iters })
    }
}
