//! [`ParallelFleet`]: N schedulers behind one facade, advanced in
//! barrier-to-barrier phases by the caller's thread and `workers − 1`
//! helper threads, bit-identical at any worker count.
//!
//! # Why this can be bit-identical at all
//! Shards only interact at steal barriers: between two barriers every
//! shard's evolution is a pure function of its own state (admission,
//! placement, batching, preemption all read one scheduler). So the
//! fleet advances in *phases* — the stretch of global ticks up to the
//! next barrier boundary — ticking each shard on a fixed worker, then
//! joining every shard back on the caller's thread before the barrier
//! runs. However the OS schedules the helpers, each shard executes
//! exactly the tick sequence a one-worker fleet would give it, and the
//! barrier (the only cross-shard step) runs on the caller over the very
//! same state. Running jobs never cross a barrier: the steal policy
//! donates queued jobs only, so no job state is ever in flight between
//! threads mid-quantum.
//!
//! # The phase protocol
//! Worker 0 is the caller's thread; workers `1..workers` are helper
//! threads. Shard `i` belongs to worker `i % workers`.
//! 1. The caller moves each helper-owned shard's [`FleetClient`] into a
//!    [`WorkerCmd`] on its helper's **bounded** queue (capacity = the
//!    helper's shard count, so dispatch never blocks).
//! 2. Meanwhile the caller ticks its own shards through the same phase
//!    body the helpers run: tick up to the phase length, stopping early
//!    at the first idle tick (idleness is monotone within a phase — no
//!    new work can arrive mid-phase). Helpers send each client home over
//!    the shared done queue with the tick count it actually ran.
//! 3. The caller joins the helpers' shards, *catches up* early-stopped
//!    shards with the idle ticks the one-worker fleet would have issued
//!    (idle ticks still advance the tick counter and the telemetry
//!    cadence, so tick counts must match exactly), then runs the steal
//!    barrier.
//!
//! At `workers = 1` no thread is spawned and a phase is the inline loop
//! over every shard.
//!
//! # Virtual-time merge order
//! Reports, telemetry and steals merge in ascending shard order on the
//! caller's thread; no wall-clock ordering ever reaches the results.

use crate::config::ShardConfig;
use crate::fleet::{restore_clients, run_steal_barrier, shard_dir, SHARD_ID_SHIFT};
use crate::ring::HashRing;
use lnls_runtime::{
    AdmissionPolicy, CheckpointError, DeltaCheckpointer, FleetClient, FleetReport, JobHandle,
    JobRegistry, JobReport, JobSpec, JobStatus, Scheduler, SchedulerConfig, SearchJob,
    SnapshotStats, SubmitError,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A shard sent to a helper: tick `client` up to `max_ticks` times,
/// then send it home on the done queue. The client travels *by value*:
/// while a shard is out on a helper, the caller's slot for it is empty,
/// so exactly one thread can ever touch a scheduler.
struct WorkerCmd {
    shard: usize,
    client: Box<FleetClient>,
    max_ticks: u64,
}

/// A shard coming home from a helper at the end of a phase.
struct WorkerDone {
    shard: usize,
    client: Box<FleetClient>,
    phase: ShardPhase,
}

/// What one shard did in a phase.
#[derive(Clone, Copy)]
struct ShardPhase {
    /// Ticks actually executed (≤ the phase's `max_ticks`).
    ticks_run: u64,
    /// Whether the last executed tick returned `false` (shard fully
    /// idle: empty queue, nothing running).
    went_idle: bool,
}

/// The phase body, shared by the caller and the helpers: tick `client`
/// up to `max_ticks` times, stopping at the first idle tick.
fn run_phase(client: &mut FleetClient, max_ticks: u64) -> ShardPhase {
    let mut ticks_run = 0;
    while ticks_run < max_ticks {
        ticks_run += 1;
        if !client.tick() {
            return ShardPhase { ticks_run, went_idle: true };
        }
    }
    ShardPhase { ticks_run, went_idle: false }
}

/// A helper thread's loop; it exits when its command queue closes.
fn helper_loop(rx: Receiver<WorkerCmd>, done: SyncSender<WorkerDone>) {
    while let Ok(WorkerCmd { shard, mut client, max_ticks }) = rx.recv() {
        let phase = run_phase(&mut client, max_ticks);
        if done.send(WorkerDone { shard, client, phase }).is_err() {
            return; // the fleet is gone; nothing left to do
        }
    }
}

struct Helper {
    tx: SyncSender<WorkerCmd>,
    join: Option<JoinHandle<()>>,
}

/// A horizontal fleet of [`FleetClient`]s (one scheduler + device
/// group per shard) behind a single submit/tick/report facade, ticked
/// by `workers` threads of which the caller's is worker 0. See the
/// module docs for the phase protocol and why results are independent
/// of the worker count and of OS scheduling.
///
/// A 1-shard fleet is byte-for-byte a bare [`FleetClient`]: shard 0
/// mints ids from 0, no steal barrier fires, and
/// [`fleet_report`](Self::fleet_report) returns the shard's report
/// verbatim.
///
/// # Placement
/// Tenants are placed by consistent hashing over a virtual-node ring
/// (see [`HashRing`]); every job of a tenant lands on the tenant's
/// shard, so per-tenant admission caps and fairness stay local to one
/// scheduler.
///
/// # The steal barrier
/// Shards drift out of balance (bursty tenants, uneven job sizes), so
/// every [`ShardConfig::steal_every_ticks`] global ticks the fleet
/// runs a *steal barrier*. The policy is deliberately boring and fully
/// deterministic, in this order:
///
/// 1. **Takers** are shards with an empty queue, visited in ascending
///    shard index.
/// 2. **Donors** are shards with at least two queued jobs (a donation
///    never empties a donor). The donor for each taker is the one with
///    the deepest queue; ties break by the FNV-1a hash of
///    `(steal_seed, global tick, shard index)` — a seeded rotation so
///    one shard is not structurally favoured — and any remaining tie
///    by smaller index.
/// 3. The donor gives its **newest** queued job (highest submission
///    sequence): it has waited least, so moving it perturbs the
///    donor's fairness order least.
/// 4. At most [`ShardConfig::steal_max_per_barrier`] jobs move per
///    barrier, fleet-wide.
///
/// Running jobs are never stolen. Replays are bit-identical because
/// every input to the policy (queue depths, tick count, seed, shard
/// order) is itself deterministic.
///
/// # Checkpoints
/// [`with_checkpoint_dir`](Self::with_checkpoint_dir) arms one
/// [`DeltaCheckpointer`] per shard (subdirectories `shard-000`,
/// `shard-001`, …); [`snapshot`](Self::snapshot) then writes rotating
/// base + delta segments whose size tracks per-tick churn, not fleet
/// size. [`restore`](Self::restore) rebuilds the fleet from the latest
/// chain in each subdirectory.
pub struct ParallelFleet {
    cfg: ShardConfig,
    ring: HashRing,
    /// `Some` at every public-method boundary; `None` only while the
    /// shard is out on a helper mid-phase.
    slots: Vec<Option<FleetClient>>,
    /// Workers `1..workers`; worker 0 is the caller's thread.
    helpers: Vec<Helper>,
    done_rx: Receiver<WorkerDone>,
    ticks: u64,
    steals: u64,
    checkpointers: Option<Vec<DeltaCheckpointer>>,
    checkpoint_dir: Option<PathBuf>,
}

impl ParallelFleet {
    /// Build a fleet of `shards` schedulers ticked by `workers` threads,
    /// the caller's included (clamped to `1..=shards`; shard `i` is
    /// pinned to worker `i % workers` for the fleet's lifetime).
    /// `template` supplies every scheduler knob except
    /// [`id_base`](SchedulerConfig::id_base), which the fleet overrides
    /// per shard (`i << `[`SHARD_ID_SHIFT`]) to keep job ids globally
    /// unique across steals. `build_devices` supplies each shard's
    /// device group.
    pub fn new(
        cfg: ShardConfig,
        policy: AdmissionPolicy,
        shards: usize,
        workers: usize,
        template: SchedulerConfig,
        mut build_devices: impl FnMut(usize) -> lnls_gpu_sim::MultiDevice,
    ) -> Self {
        let clients = (0..shards)
            .map(|i| {
                let mut shard_cfg = template.clone();
                shard_cfg.id_base = (i as u64) << SHARD_ID_SHIFT;
                FleetClient::new(Scheduler::new(build_devices(i), shard_cfg), policy.clone())
            })
            .collect();
        Self::from_clients(cfg, clients, workers, 0)
    }

    /// Reassemble a fleet from already-built (typically restored) shard
    /// clients — the driver's crash path restores each shard from
    /// checkpoint bytes and hands them back here. `ticks` realigns the
    /// steal barrier phase to the tick count at snapshot time. The steal
    /// counter restarts at zero (it is informational and never feeds
    /// back into scheduling).
    pub fn from_clients(
        cfg: ShardConfig,
        clients: Vec<FleetClient>,
        workers: usize,
        ticks: u64,
    ) -> Self {
        let shards = clients.len();
        assert!(shards > 0, "a fleet needs at least one shard");
        let workers = workers.clamp(1, shards);
        let (done_tx, done_rx) = mpsc::sync_channel(shards);
        let helpers = (1..workers)
            .map(|w| {
                let owned = (0..shards).filter(|s| s % workers == w).count();
                let (tx, rx) = mpsc::sync_channel(owned);
                let done = done_tx.clone();
                let join = std::thread::Builder::new()
                    .name(format!("lnls-par-worker-{w}"))
                    .spawn(move || helper_loop(rx, done))
                    .expect("spawn shard helper");
                Helper { tx, join: Some(join) }
            })
            .collect();
        Self {
            ring: HashRing::new(shards, cfg.ring_replicas),
            cfg,
            slots: clients.into_iter().map(Some).collect(),
            helpers,
            done_rx,
            ticks,
            steals: 0,
            checkpointers: None,
            checkpoint_dir: None,
        }
    }

    /// Rebuild a fleet from the latest base + delta chain in each
    /// `shard-NNN` subdirectory of `dir`. `ticks` realigns the steal
    /// barrier phase (pass the tick count at snapshot time);
    /// `rejected` restores each shard client's admission-rejection
    /// counter (missing entries default to 0). Restoration happens
    /// entirely on the caller's thread *before* any helper exists, so a
    /// broken chain surfaces as a typed [`CheckpointError`] naming the
    /// exact segment. Checkpointing comes back disarmed — call
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir) to resume
    /// snapshotting.
    pub fn restore(
        cfg: ShardConfig,
        policy: AdmissionPolicy,
        dir: impl AsRef<Path>,
        registry: &JobRegistry,
        ticks: u64,
        rejected: &[u64],
        workers: usize,
    ) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref();
        let clients = restore_clients(dir, &policy, registry, rejected)?;
        let mut fleet = Self::from_clients(cfg, clients, workers, ticks);
        fleet.checkpoint_dir = Some(dir.to_path_buf());
        Ok(fleet)
    }

    /// The frozen config this fleet runs under.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The placement ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of threads ticking the shards, the caller's included.
    pub fn worker_count(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Global ticks elapsed (each advances every shard once).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Jobs moved by steal barriers so far.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// The checkpoint directory, when one was ever attached (set by
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir) and
    /// remembered across [`restore`](Self::restore)).
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Borrow shard `i`'s client.
    pub fn shard(&self, i: usize) -> &FleetClient {
        self.slots[i].as_ref().expect("clients are home between phases")
    }

    /// Mutably borrow shard `i`'s client.
    pub fn shard_mut(&mut self, i: usize) -> &mut FleetClient {
        self.slots[i].as_mut().expect("clients are home between phases")
    }

    fn clients(&self) -> impl Iterator<Item = &FleetClient> {
        self.slots.iter().map(|s| s.as_ref().expect("clients are home between phases"))
    }

    /// Queued jobs across all shards.
    pub fn queued_len(&self) -> usize {
        self.clients().map(|c| c.scheduler().queued_len()).sum()
    }

    /// Running jobs across all shards.
    pub fn running_len(&self) -> usize {
        self.clients().map(|c| c.scheduler().running_len()).sum()
    }

    /// The shard that owns `tenant` under the current ring.
    pub fn shard_for(&self, tenant: &str) -> usize {
        self.ring.shard_for(tenant)
    }

    /// Route a spec to its tenant's shard and submit it there. Returns
    /// the shard index with the handle; admission failures are the
    /// target shard's. Submissions happen between phases, which is what
    /// keeps admission — and the concurrency limiter's sheds —
    /// deterministic at any worker count.
    pub fn submit_spec<J: SearchJob>(
        &mut self,
        spec: JobSpec<J>,
    ) -> Result<(usize, JobHandle), SubmitError> {
        let shard = self.ring.shard_for(spec.tenant());
        let handle = self.shard_mut(shard).submit_spec(spec)?;
        Ok((shard, handle))
    }

    /// Submit a bare job under the default envelope (tenant
    /// `"default"`).
    pub fn submit<J: SearchJob>(&mut self, job: J) -> Result<(usize, JobHandle), SubmitError> {
        self.submit_spec(JobSpec::new(job))
    }

    /// Run one phase of up to `max_ticks` ticks: hand the helpers their
    /// shards, tick the caller's own shards inline, then join the
    /// helpers' shards back. Returns per-shard outcomes.
    fn phase(&mut self, max_ticks: u64) -> Vec<ShardPhase> {
        debug_assert!(max_ticks > 0, "a phase must run at least one tick");
        let workers = self.worker_count();
        let mut outcomes = vec![ShardPhase { ticks_run: 0, went_idle: false }; self.slots.len()];
        let mut away = 0;
        for (shard, slot) in self.slots.iter_mut().enumerate() {
            let w = shard % workers;
            if w > 0 {
                let client = Box::new(slot.take().expect("clients are home between phases"));
                self.helpers[w - 1]
                    .tx
                    .send(WorkerCmd { shard, client, max_ticks })
                    .expect("helper command queue alive");
                away += 1;
            }
        }
        for (shard, slot) in self.slots.iter_mut().enumerate().step_by(workers) {
            outcomes[shard] =
                run_phase(slot.as_mut().expect("the caller's shards stay home"), max_ticks);
        }
        for _ in 0..away {
            let done = self.join_one();
            outcomes[done.shard] = done.phase;
            self.slots[done.shard] = Some(*done.client);
        }
        outcomes
    }

    /// Receive one shard from the done queue, converting a dead helper
    /// into a loud panic on the caller, naming the worker, instead of a
    /// silent barrier hang.
    fn join_one(&mut self) -> WorkerDone {
        loop {
            let err = match self.done_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(done) => return done,
                Err(err) => err,
            };
            // Helpers only exit when their queue closes (never
            // mid-phase), so a finished helper here panicked. Once every
            // helper has dropped its end of the done queue, wait for
            // whichever is still unwinding.
            let wait = err == RecvTimeoutError::Disconnected;
            for (i, helper) in self.helpers.iter_mut().enumerate() {
                if helper.join.as_ref().is_some_and(|j| wait || j.is_finished()) {
                    let payload = helper.join.take().expect("handle present").join().err();
                    let message = payload.as_ref().and_then(|p| {
                        p.downcast_ref::<&str>()
                            .copied()
                            .or_else(|| p.downcast_ref::<String>().map(String::as_str))
                    });
                    panic!(
                        "shard worker {} died mid-phase: {}",
                        i + 1,
                        message.unwrap_or("panic payload lost")
                    );
                }
            }
        }
    }

    /// Run the steal barrier when the tick count sits on the cadence.
    fn maybe_barrier(&mut self) {
        if self.slots.len() > 1
            && self.cfg.steal_every_ticks > 0
            && self.ticks.is_multiple_of(self.cfg.steal_every_ticks)
        {
            let mut clients: Vec<FleetClient> = self
                .slots
                .iter_mut()
                .map(|s| s.take().expect("clients are home between phases"))
                .collect();
            self.steals += run_steal_barrier(&self.cfg, &mut clients, self.ticks);
            for (slot, client) in self.slots.iter_mut().zip(clients) {
                *slot = Some(client);
            }
        }
    }

    /// Issue the idle ticks a one-worker fleet would have run on shards
    /// that went idle before the phase's target tick (idle ticks still
    /// advance the tick counter and the telemetry cadence, so they
    /// cannot be skipped).
    fn catch_up(&mut self, outcomes: &[ShardPhase], target: u64) {
        for (i, o) in outcomes.iter().enumerate() {
            let client = self.shard_mut(i);
            for _ in o.ticks_run..target {
                client.tick();
            }
        }
    }

    /// Advance every shard one tick (ascending shard order within each
    /// worker), then run the steal barrier when the global tick count
    /// hits the cadence. Returns whether any shard did work.
    ///
    /// # Panics
    /// When a shard's tick panics, on the caller's thread or on a
    /// helper (the panic then names the worker).
    pub fn tick(&mut self) -> bool {
        let outcomes = self.phase(1);
        self.ticks += 1;
        self.maybe_barrier();
        outcomes.iter().any(|o| !o.went_idle)
    }

    /// Tick until every shard is drained, in barrier-to-barrier phases
    /// (the fast path: helpers run whole stretches of virtual time
    /// without a round-trip per tick). Lands on exactly the tick a
    /// [`tick`](Self::tick) loop would stop at.
    pub fn run_until_idle(&mut self) {
        loop {
            let cadence = self.cfg.steal_every_ticks;
            let k = if self.slots.len() > 1 && cadence > 0 {
                cadence - (self.ticks % cadence)
            } else {
                // No barriers to respect: any chunk works, results are
                // phase-length-independent. 64 amortizes the handoff.
                64
            };
            let outcomes = self.phase(k);
            if outcomes.iter().all(|o| o.went_idle) {
                // Every shard went idle inside the phase: a tick loop
                // stops at the first globally idle tick, which is the
                // deepest first-idle tick across shards.
                let stop = outcomes.iter().map(|o| o.ticks_run).max().unwrap_or(0);
                self.catch_up(&outcomes, stop);
                self.ticks += stop;
                self.maybe_barrier();
                if self.queued_len() == 0 && self.running_len() == 0 {
                    return;
                }
            } else {
                self.catch_up(&outcomes, k);
                self.ticks += k;
                self.maybe_barrier();
            }
        }
    }

    /// Where `handle`'s job currently is, searching every shard
    /// (stealing may have moved it off the shard that minted the id).
    pub fn status(&self, handle: JobHandle) -> JobStatus {
        self.clients()
            .map(|c| c.status(handle))
            .find(|s| !matches!(s, JobStatus::Unknown))
            .unwrap_or(JobStatus::Unknown)
    }

    /// The finished report for `handle`, if any shard completed it.
    pub fn report(&self, handle: JobHandle) -> Option<&JobReport> {
        self.clients().find_map(|c| c.report(handle))
    }

    /// Request cancellation wherever the job lives.
    pub fn cancel(&mut self, handle: JobHandle) -> bool {
        (0..self.slots.len()).any(|i| self.shard_mut(i).cancel(handle))
    }

    /// Tick until `handle`'s job reaches a terminal state, then return
    /// its report.
    ///
    /// # Panics
    /// When no shard knows the job.
    pub fn await_report(&mut self, handle: JobHandle) -> &JobReport {
        while matches!(self.status(handle), JobStatus::Queued | JobStatus::Running) {
            self.tick();
        }
        self.report(handle).expect("await_report on a job no shard knows")
    }

    /// Every finished report across the fleet, shard-major.
    pub fn reports(&self) -> impl Iterator<Item = &JobReport> {
        self.clients().flat_map(FleetClient::reports)
    }

    /// The fleet-wide summary. One shard returns its report verbatim
    /// (a 1-shard fleet is byte-for-byte a bare scheduler run); more
    /// shards combine through [`FleetReport::merge`] in ascending shard
    /// order. Shards tick in lockstep, so their telemetry series align
    /// index for index; per-shard series live on the shard reports.
    pub fn fleet_report(&self) -> FleetReport {
        if self.slots.len() == 1 {
            return self.shard(0).fleet_report();
        }
        let reports: Vec<FleetReport> = self.clients().map(FleetClient::fleet_report).collect();
        FleetReport::merge(&reports)
    }

    /// Arm per-shard delta checkpointing under `dir` (subdirectories
    /// `shard-000`, `shard-001`, …), rotating to a fresh base every
    /// `deltas_per_base` deltas. Re-arming after a
    /// [`restore`](Self::restore) starts a new epoch on the first
    /// [`snapshot`](Self::snapshot).
    pub fn with_checkpoint_dir(
        mut self,
        dir: impl Into<PathBuf>,
        deltas_per_base: u64,
    ) -> io::Result<Self> {
        let dir = dir.into();
        let checkpointers = (0..self.slots.len())
            .map(|i| DeltaCheckpointer::open(shard_dir(&dir, i), deltas_per_base))
            .collect::<io::Result<Vec<_>>>()?;
        self.checkpointers = Some(checkpointers);
        self.checkpoint_dir = Some(dir);
        Ok(self)
    }

    /// Snapshot every shard (a base or a delta each, on the rotation
    /// cadence) between phases, so no helper holds a client while it
    /// is serialized. Returns per-shard segment stats in shard order.
    ///
    /// # Panics
    /// When checkpointing was not armed via
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir).
    pub fn snapshot(&mut self) -> Result<Vec<SnapshotStats>, CheckpointError> {
        let checkpointers =
            self.checkpointers.as_mut().expect("snapshot() requires with_checkpoint_dir()");
        self.slots
            .iter()
            .zip(checkpointers)
            .map(|(slot, ckpt)| {
                ckpt.snapshot(slot.as_ref().expect("clients are home between phases").scheduler())
            })
            .collect()
    }
}

impl Drop for ParallelFleet {
    /// Close every helper's queue and join it. A helper still holding
    /// shards (the caller's tick panicked mid-phase) finishes them
    /// first; the done queue has room for every shard, so it never
    /// blocks on the way out.
    fn drop(&mut self) {
        for Helper { tx, join } in self.helpers.drain(..) {
            drop(tx);
            if let Some(join) = join {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_core::{BitString, SearchConfig, TabuSearch};
    use lnls_gpu_sim::{DeviceSpec, MultiDevice};
    use lnls_neighborhood::{KHamming, Neighborhood};
    use lnls_problems::OneMax;
    use lnls_runtime::BinaryJob;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn onemax_job(i: u64, iters: u64) -> BinaryJob<OneMax, KHamming> {
        let n = 24;
        let hood = KHamming::new(n, 2);
        let mut rng = StdRng::seed_from_u64(i);
        let init = BitString::random(&mut rng, n);
        let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(i), hood.size());
        BinaryJob::new(format!("onemax-{i}"), OneMax::new(n), hood, search, init)
    }

    fn fleet_with(shards: usize, workers: usize, template: SchedulerConfig) -> ParallelFleet {
        ParallelFleet::new(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            shards,
            workers,
            template,
            |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        )
    }

    fn fleet(shards: usize) -> ParallelFleet {
        fleet_with(shards, 1, SchedulerConfig::default())
    }

    /// Preemption on (so jobs outlive several ticks), telemetry on.
    fn sampled(shards: usize, workers: usize) -> ParallelFleet {
        fleet_with(
            shards,
            workers,
            SchedulerConfig {
                quantum_iters: Some(8),
                max_batch: 4,
                telemetry_every_ticks: Some(1),
                ..Default::default()
            },
        )
    }

    /// A tenant name the current ring places on `shard`.
    fn tenant_on(f: &ParallelFleet, shard: usize) -> String {
        (0..).map(|i| format!("tenant-{i}")).find(|t| f.shard_for(t) == shard).unwrap()
    }

    /// Pile jobs on a couple of tenants so steal barriers genuinely
    /// fire.
    fn submit_load(f: &mut ParallelFleet) {
        for i in 0..14 {
            let spec = JobSpec::new(onemax_job(i, 80)).for_tenant(format!("tenant-{}", i % 3));
            f.submit_spec(spec).unwrap();
        }
    }

    #[test]
    fn one_shard_fleet_matches_bare_client_bit_for_bit() {
        let mut sharded = fleet(1);
        let mut bare = FleetClient::new(
            Scheduler::new(
                MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
                SchedulerConfig::default(),
            ),
            AdmissionPolicy::unbounded(),
        );
        for i in 0..6 {
            let spec = JobSpec::new(onemax_job(i, 40)).for_tenant(format!("t{}", i % 3));
            let (shard, _) = sharded.submit_spec(spec).unwrap();
            assert_eq!(shard, 0);
            let spec = JobSpec::new(onemax_job(i, 40)).for_tenant(format!("t{}", i % 3));
            bare.submit_spec(spec).unwrap();
        }
        sharded.run_until_idle();
        bare.run_until_idle();
        assert_eq!(
            format!("{:?}", sharded.fleet_report()),
            format!("{:?}", bare.fleet_report()),
            "a 1-shard fleet must be byte-for-byte a bare scheduler run"
        );
        assert_eq!(sharded.steals(), 0);
    }

    #[test]
    fn steal_barrier_moves_queued_work_to_idle_shards() {
        let mut f = fleet(2);
        // Pile every job on one shard's tenant; the other starts idle.
        let loaded = tenant_on(&f, 0);
        for i in 0..10 {
            let spec = JobSpec::new(onemax_job(i, 60)).for_tenant(loaded.clone());
            let (shard, _) = f.submit_spec(spec).unwrap();
            assert_eq!(shard, 0, "all jobs routed to the loaded shard");
        }
        f.run_until_idle();
        assert!(f.steals() > 0, "idle shard never stole from the overloaded one");
        let report = f.fleet_report();
        assert_eq!(report.jobs_completed, 10);
        // Stolen jobs really ran on the taker: its device clock moved.
        assert!(
            report.device_busy_s.iter().all(|&b| b > 0.0),
            "every shard's device should have run something: {:?}",
            report.device_busy_s
        );
    }

    /// A merged fleet report's telemetry is the sample-aligned merge of
    /// *every* shard's series, not shard 0's alone.
    #[test]
    fn merged_telemetry_spans_every_shard() {
        let mut f = sampled(2, 1);
        for shard in 0..2 {
            let tenant = tenant_on(&f, shard);
            for i in 0..4 {
                let spec =
                    JobSpec::new(onemax_job(shard as u64 * 10 + i, 60)).for_tenant(tenant.clone());
                f.submit_spec(spec).unwrap();
            }
        }
        f.run_until_idle();
        let merged = f.fleet_report().telemetry.expect("telemetry was on");
        let s0 = f.shard(0).fleet_report().telemetry.expect("shard 0 sampled");
        let s1 = f.shard(1).fleet_report().telemetry.expect("shard 1 sampled");
        assert_eq!(s0.samples().len(), s1.samples().len(), "lockstep shards sample in lockstep");
        assert_eq!(merged.samples().len(), s0.samples().len());
        for (i, m) in merged.samples().iter().enumerate() {
            let (a, b) = (&s0.samples()[i], &s1.samples()[i]);
            assert_eq!(m.queue_depth, a.queue_depth + b.queue_depth, "sample {i}");
            assert_eq!(m.completed, a.completed + b.completed, "sample {i}");
            assert_eq!(m.now_s, a.now_s.max(b.now_s), "sample {i}");
            assert_eq!(m.device_busy_s.len(), 2, "one column per device fleet-wide");
        }
        // Both shards genuinely contributed load (the gap this pins).
        assert!(
            s1.samples().iter().any(|s| s.queue_depth > 0 || s.running > 0),
            "shard 1 must carry observable load for this pin to mean anything"
        );
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let run = || {
            let mut f = fleet(3);
            for i in 0..12 {
                let spec = JobSpec::new(onemax_job(i, 50)).for_tenant(format!("tenant-{}", i % 5));
                f.submit_spec(spec).unwrap();
            }
            f.run_until_idle();
            format!("{:?}", f.fleet_report())
        };
        assert_eq!(run(), run(), "same submissions, same config, same report bits");
    }

    /// The serial reference is a 1-worker `tick()` loop: no helper
    /// thread and no multi-tick phase, so `run_until_idle` at every
    /// worker count is checked against the simplest schedule the fleet
    /// has.
    #[test]
    fn parallel_run_matches_serial_bits_at_every_worker_count() {
        let mut want = sampled(4, 1);
        submit_load(&mut want);
        while want.tick() || want.queued_len() > 0 || want.running_len() > 0 {}
        let want_report = format!("{:?}", want.fleet_report());
        assert!(want.steals() > 0, "the load must be lopsided enough to steal");

        for workers in [1, 2, 3, 4, 8] {
            let mut par = sampled(4, workers);
            assert_eq!(par.worker_count(), workers.min(4), "workers clamp to the shard count");
            submit_load(&mut par);
            par.run_until_idle();
            assert_eq!(
                format!("{:?}", par.fleet_report()),
                want_report,
                "{workers} workers must reproduce the tick loop's bits"
            );
            assert_eq!(par.steals(), want.steals(), "{workers} workers: same steals");
            assert_eq!(par.ticks(), want.ticks(), "{workers} workers: same tick count");
        }
    }

    #[test]
    fn single_tick_interleaving_matches_serial() {
        let mut want = sampled(2, 1);
        let mut par = sampled(2, 2);
        submit_load(&mut want);
        submit_load(&mut par);
        loop {
            let a = want.tick();
            let b = par.tick();
            assert_eq!(a, b, "tick {} must report the same progress", want.ticks());
            if !a && want.queued_len() == 0 && want.running_len() == 0 {
                break;
            }
        }
        assert_eq!(format!("{:?}", par.fleet_report()), format!("{:?}", want.fleet_report()));
    }

    /// Two shards, all load on one shard's tenant (a steal is certain at
    /// the first barrier), snapshotted every tick and crashed after tick
    /// 6, past the tick-4 barrier. Restored and run to idle, the fleet
    /// must land on the uninterrupted run's bits at 1 and 2 workers.
    /// Telemetry is off: series are not checkpointed (a restored fleet
    /// starts a fresh one), so only a sampling-free fleet can match.
    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let plain = |workers| {
            fleet_with(
                2,
                workers,
                SchedulerConfig { quantum_iters: Some(8), max_batch: 4, ..Default::default() },
            )
        };
        let submit_all = |f: &mut ParallelFleet| {
            let loaded = tenant_on(f, 0);
            for i in 0..10 {
                let spec = JobSpec::new(onemax_job(i, 80)).for_tenant(loaded.clone());
                f.submit_spec(spec).unwrap();
            }
        };
        let mut reference = plain(1);
        submit_all(&mut reference);
        reference.run_until_idle();
        let want = format!("{:?}", reference.fleet_report());

        for workers in [1, 2] {
            let dir = std::env::temp_dir()
                .join(format!("lnls-shard-restore-{workers}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut crashing = plain(workers).with_checkpoint_dir(&dir, 8).unwrap();
            submit_all(&mut crashing);
            for _ in 0..6 {
                crashing.tick();
                crashing.snapshot().unwrap();
            }
            let ticks = crashing.ticks();
            assert!(crashing.steals() > 0, "crash point must be past a steal");
            drop(crashing); // every helper thread joins here — a full crash

            let registry = JobRegistry::with_builtin();
            let mut revived = ParallelFleet::restore(
                ShardConfig::current(),
                AdmissionPolicy::unbounded(),
                &dir,
                &registry,
                ticks,
                &[],
                workers,
            )
            .unwrap();
            revived.run_until_idle();
            assert_eq!(
                format!("{:?}", revived.fleet_report()),
                want,
                "{workers} workers: resume from base+deltas mid-steal must land on the \
                 reference bits"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn restore_of_empty_dir_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("lnls-shard-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = JobRegistry::with_builtin();
        let err = match ParallelFleet::restore(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            &dir,
            &registry,
            0,
            &[],
            1,
        ) {
            Ok(_) => panic!("restore of an empty store must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, CheckpointError::Empty { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
