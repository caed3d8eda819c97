//! The exec-step split, measured from outside the runtime.
//!
//! Traced replays submit every recipe's job wrapped in [`Timed`], whose
//! executor ([`TimedExec`]) times each `step_device` / `step_host` /
//! `step_batch` call and delegates everything else — `batch_key` and
//! `as_any_mut` included, so launch fusion and the leader's peer
//! downcasts see the wrapped executor's concrete type and behave
//! exactly as unwrapped. Steps run on `ParallelFleet` worker threads, so
//! the counters are atomics, one slot per thread.
//!
//! Wrapped jobs persist under a `timed/` tag prefix with the inner
//! payload unchanged; [`traced_registry`] decodes them back into wrapped
//! executors, so jobs stay timed across a crash/restore.

use crate::spans;
use lnls_core::persist::{PersistError, Reader};
use lnls_core::{BitString, SearchConfig, SimulatedAnnealing, TabuSearch};
use lnls_gpu_sim::{Device, DeviceSpec, HostSpec, LaunchMode};
use lnls_lns::{LnsSearch, PortfolioSearch};
use lnls_neighborhood::{KHamming, Neighborhood};
use lnls_ppp::{Ppp, PppInstance};
use lnls_problems::{Knapsack, MaxCut, MaxSat, OneMax, Qubo};
use lnls_qap::{Permutation, QapInstance, RtsConfig};
use lnls_runtime::{
    AnnealJob, BatchKey, BinaryJob, FleetClient, JobCodec, JobExec, JobHandle, JobId, JobRegistry,
    JobReport, JobSpec, LnsJob, PortfolioJob, QapJobSpec, SearchJob, StepRun, SubmitCtx,
    SubmitError,
};
use lnls_workload::{Arrival, JobRecipe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-thread accumulator slots: 0 is the coordinator (every serial
/// step), `1 + w` is `ParallelFleet` worker `w`.
pub const SLOTS: usize = 9;

static EXEC_NS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static EXEC_STEPS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SLOT: usize = thread_slot();
}

/// The accumulator slot of the calling thread, from the worker-thread
/// names `ParallelFleet` gives its threads.
fn thread_slot() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("lnls-par-worker-"))
        .and_then(|w| w.parse::<usize>().ok())
        .map_or(0, |w| (1 + w).min(SLOTS - 1))
}

/// Exec-step nanoseconds so far, per thread slot.
pub fn exec_ns() -> [u64; SLOTS] {
    std::array::from_fn(|i| EXEC_NS[i].load(Ordering::Relaxed))
}

/// Exec-step calls so far.
pub fn exec_steps() -> u64 {
    EXEC_STEPS.load(Ordering::Relaxed)
}

fn timed_step(name: &'static str, step: impl FnOnce() -> StepRun) -> StepRun {
    let start = Instant::now();
    let run = step();
    let end = Instant::now();
    let slot = SLOT.with(|s| *s);
    EXEC_NS[slot].fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
    EXEC_STEPS.fetch_add(1, Ordering::Relaxed);
    spans::record_worker(name, slot, start, end);
    run
}

/// A [`SearchJob`] whose executor times its steps (see the module docs).
pub struct Timed<J>(pub J);

impl<J: SearchJob> SearchJob for Timed<J> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn priority(&self) -> u8 {
        self.0.priority()
    }

    fn persist_tag(&self) -> String {
        format!("timed/{}", self.0.persist_tag())
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        Box::new(TimedExec(Box::new(self.0).into_exec(ctx)))
    }
}

impl<J: JobCodec> JobCodec for Timed<J> {
    fn registry_tag() -> String {
        format!("timed/{}", J::registry_tag())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        Ok(Box::new(TimedExec(J::decode(r)?)))
    }
}

/// The delegating executor behind [`Timed`].
pub struct TimedExec(Box<dyn JobExec>);

impl JobExec for TimedExec {
    fn id(&self) -> JobId {
        self.0.id()
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn priority(&self) -> u8 {
        self.0.priority()
    }

    fn seq(&self) -> u64 {
        self.0.seq()
    }

    fn done(&self) -> bool {
        self.0.done()
    }

    fn iterations(&self) -> u64 {
        self.0.iterations()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        self.0.batch_key()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        timed_step("exec.step_device", || self.0.step_device(dev, quota))
    }

    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun {
        timed_step("exec.step_host", || self.0.step_host(host, quota))
    }

    fn step_batch(
        &mut self,
        peers: &mut [&mut Box<dyn JobExec>],
        dev: &mut Device,
        span_iters: u64,
        mode: LaunchMode,
    ) -> StepRun {
        timed_step("exec.step_batch", || self.0.step_batch(peers, dev, span_iters, mode))
    }

    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
        self.0.serial_equivalent_s(spec)
    }

    fn finish(&mut self, backend: String, started_s: f64, finished_s: f64) -> JobReport {
        self.0.finish(backend, started_s, finished_s)
    }

    fn unplaced(&mut self) {
        self.0.unplaced()
    }

    fn clone_box(&self) -> Box<dyn JobExec> {
        Box::new(TimedExec(self.0.clone_box()))
    }

    fn persist_tag(&self) -> String {
        format!("timed/{}", self.0.persist_tag())
    }

    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out)
    }
}

/// The builtin registry plus a wrapped decoder for every job type the
/// workload recipes build.
pub fn traced_registry() -> JobRegistry {
    let mut reg = JobRegistry::with_builtin();
    reg.register::<Timed<BinaryJob<OneMax, KHamming>>>();
    reg.register::<Timed<BinaryJob<Ppp, KHamming>>>();
    reg.register::<Timed<BinaryJob<MaxCut, KHamming>>>();
    reg.register::<Timed<AnnealJob<OneMax, KHamming>>>();
    reg.register::<Timed<QapJobSpec>>();
    reg.register::<Timed<LnsJob<Knapsack>>>();
    reg.register::<Timed<LnsJob<MaxSat>>>();
    reg.register::<Timed<LnsJob<Qubo>>>();
    reg.register::<Timed<PortfolioJob<Knapsack>>>();
    reg.register::<Timed<PortfolioJob<MaxSat>>>();
    reg.register::<Timed<PortfolioJob<Qubo>>>();
    reg
}

/// [`Arrival::submit`] with the job wrapped in [`Timed`]: the same
/// recipe → job construction and the same envelope, split into a
/// `workload.recipe` span (building the job) and a `runtime.admit` span
/// (`FleetClient::submit_spec`). Returns the result and the recipe
/// seconds.
pub fn submit_timed(
    a: &Arrival,
    client: &mut FleetClient,
) -> (Result<JobHandle, SubmitError>, f64) {
    let start = Instant::now();
    match a.recipe {
        JobRecipe::TabuOneMax { dim, iters, seed } => {
            let hood = KHamming::new(dim, 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, dim);
            let search =
                TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
            enveloped(a, client, BinaryJob::new("", OneMax::new(dim), hood, search, init), start)
        }
        JobRecipe::TabuPpp { dim, iters, seed } => {
            let problem = Ppp::new(PppInstance::generate(dim, dim, seed));
            let hood = KHamming::new(dim, 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, dim);
            let search =
                TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
            enveloped(a, client, BinaryJob::new("", problem, hood, search, init), start)
        }
        JobRecipe::TabuMaxCut { dim, iters, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let problem = MaxCut::random(&mut rng, dim, 0.35, 5);
            let hood = KHamming::new(dim, 2);
            let init = BitString::random(&mut rng, dim);
            let search =
                TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
            enveloped(a, client, BinaryJob::new("", problem, hood, search, init), start)
        }
        JobRecipe::AnnealOneMax { dim, iters, seed } => {
            let hood = KHamming::new(dim, 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, dim);
            let sa =
                SimulatedAnnealing::new(SearchConfig::budget(iters).with_seed(seed), hood, 1.5);
            enveloped(a, client, AnnealJob::new("", OneMax::new(dim), sa, init), start)
        }
        JobRecipe::Qap { n, iters, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = QapInstance::random_uniform(&mut rng, n);
            let init = Permutation::random(&mut rng, n);
            let spec = QapJobSpec::new("", inst, RtsConfig::budget(iters).with_seed(seed), init);
            enveloped(a, client, spec, start)
        }
        JobRecipe::LnsRepair { dim, iters, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = SearchConfig::budget(iters).with_seed(seed).with_target(None);
            let search = LnsSearch::paper(cfg);
            match seed % 3 {
                0 => {
                    let problem = Knapsack::random(&mut rng, dim, 10, 6);
                    let init = BitString::random(&mut rng, dim);
                    enveloped(a, client, LnsJob::new("", problem, search, init), start)
                }
                1 => {
                    let problem = MaxSat::random(&mut rng, dim, 4 * dim);
                    let init = BitString::random(&mut rng, dim);
                    enveloped(a, client, LnsJob::new("", problem, search, init), start)
                }
                _ => {
                    let problem = Qubo::random(&mut rng, dim, 7, 0.5);
                    let init = BitString::random(&mut rng, dim);
                    enveloped(a, client, LnsJob::new("", problem, search, init), start)
                }
            }
        }
        JobRecipe::PortfolioRace { dim, iters, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = SearchConfig::budget(iters).with_seed(seed).with_target(None);
            let search = PortfolioSearch::paper(cfg);
            match seed % 3 {
                0 => {
                    let problem = Knapsack::random(&mut rng, dim, 10, 6);
                    let init = BitString::random(&mut rng, dim);
                    enveloped(a, client, PortfolioJob::new("", problem, search, init), start)
                }
                1 => {
                    let problem = MaxSat::random(&mut rng, dim, 4 * dim);
                    let init = BitString::random(&mut rng, dim);
                    enveloped(a, client, PortfolioJob::new("", problem, search, init), start)
                }
                _ => {
                    let problem = Qubo::random(&mut rng, dim, 7, 0.5);
                    let init = BitString::random(&mut rng, dim);
                    enveloped(a, client, PortfolioJob::new("", problem, search, init), start)
                }
            }
        }
    }
}

/// The envelope `Arrival::submit` puts around every job, with the job
/// wrapped; closes the recipe span that started at `start`.
fn enveloped<J: SearchJob>(
    a: &Arrival,
    client: &mut FleetClient,
    job: J,
    start: Instant,
) -> (Result<JobHandle, SubmitError>, f64) {
    let built = Instant::now();
    spans::record("workload.recipe", start, built);
    let mut spec = JobSpec::new(Timed(job))
        .named(a.name.clone())
        .with_priority(a.priority)
        .for_tenant(a.tenant.clone());
    if let Some(budget) = a.iter_budget {
        spec = spec.with_iter_budget(budget);
    }
    if let Some(deadline) = a.deadline_s {
        spec = spec.with_deadline(deadline);
    }
    if !a.checkpoint {
        spec = spec.without_checkpoint();
    }
    let result = client.submit_spec(spec);
    spans::record("runtime.admit", built, Instant::now());
    (result, (built - start).as_secs_f64())
}
