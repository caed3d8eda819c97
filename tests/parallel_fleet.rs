//! The fleet runtime's threading contracts, held through the facade.
//! One worker — the caller's thread, ticking every shard inline — is
//! the reference side of every comparison:
//!
//! * **Bit-identity** — every catalog scenario, recorded at every
//!   worker count in `LNLS_WORKERS` (default `1,2,4,8`), produces a
//!   Debug-bit-identical merged `FleetReport` *and* byte-identical
//!   trace bytes versus the one-worker recording. Helper threads are an
//!   execution detail; nothing observable may depend on them.
//! * **Closed-loop shed storms** — completion-gated recording under a
//!   per-shard in-flight bound sheds deterministically: reject counts,
//!   the tick-stamped retry schedule and the final report are the same
//!   at any worker count.
//! * **Crash + delta restore** — killing every worker mid-run (the
//!   fleet drops, all helper threads join) and restoring from the
//!   per-shard delta chains lands on the uninterrupted run's bits,
//!   limiter sheds included.
//! * **Typed restore errors under concurrency** — a truncated newest
//!   delta in one shard's chain surfaces as
//!   [`CheckpointError::CorruptSegment`] naming the exact file, on the
//!   caller's thread, before any helper exists. Never a panic, never a
//!   hung barrier.
//! * **Who ticks what** — worker 0 is the caller's thread: at one
//!   worker every step runs on it, and above one, shard `i` steps on
//!   the caller when `i % workers == 0` and on helper
//!   `lnls-par-worker-{i % workers}` otherwise. A panicking step
//!   surfaces out of `tick()` wherever it ran (naming the helper when
//!   it ran on one), and dropping the fleet afterwards joins every
//!   helper without hanging.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::gpu::{Device, HostSpec, LaunchMode};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::prelude::{
    AdmissionPolicy, BinaryJob, CheckpointError, DeviceSpec, Driver, JobHandle, JobRegistry,
    JobReport, JobSpec, JobStatus, MultiDevice, OneMax, ParallelFleet, Scenario, SchedulerConfig,
    SearchJob, ShardConfig,
};
use lnls::runtime::{BatchKey, JobExec, JobId, StepRun, SubmitCtx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::VecDeque;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Worker counts under test: the `LNLS_WORKERS` env var as a comma
/// list (the CI matrix sets `2`, `4`, `8`), defaulting to `1,2,4,8`.
fn worker_counts() -> Vec<usize> {
    std::env::var("LNLS_WORKERS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&w: &usize| w >= 1)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any seed, every catalog scenario recorded at every worker
    /// count produces the one-worker `FleetReport` bit for bit, the
    /// one-worker tick/admission counters, and byte-identical trace
    /// bytes. Covers the sharded scenarios (real barriers), the crash
    /// stressor (`checkpoint-churn` restores mid-run) and the 1-shard
    /// degenerate case.
    #[test]
    fn every_worker_count_matches_the_serial_bits(seed in 0u64..500) {
        for scenario in Scenario::catalog() {
            let (trace, serial) = Driver::record(&scenario, seed);
            let serial_report = format!("{:?}", serial.fleet);
            for &workers in &worker_counts() {
                let par_scenario = scenario.clone().with_workers(workers);
                let (par_trace, par) = Driver::record(&par_scenario, seed);
                prop_assert_eq!(
                    par_trace.to_bytes(),
                    trace.to_bytes(),
                    "scenario '{}' seed {seed}: {workers} workers must record identical \
                     trace bytes",
                    &scenario.name
                );
                prop_assert_eq!(
                    format!("{:?}", par.fleet),
                    serial_report.clone(),
                    "scenario '{}' seed {seed}: {workers} workers must reproduce the serial \
                     report bits",
                    &scenario.name
                );
                prop_assert_eq!(
                    (par.ticks, par.admitted, par.bounced, par.crashes),
                    (serial.ticks, serial.admitted, serial.bounced, serial.crashes),
                    "scenario '{}' seed {seed}: {workers} workers must keep the driver \
                     counters",
                    &scenario.name
                );
            }
        }
    }
}

/// Closed-loop recording runs *on* the fleet at the scenario's worker
/// count, so recording the same scenario at different counts exercises
/// the limiter under real concurrency. Shed counts, the stamped retry
/// schedule (trace bytes) and the report must not move.
#[test]
fn closed_loop_shed_storm_is_worker_independent() {
    let base = Scenario::closed_loop_saturation();
    let (trace_1, serial) = Driver::record(&base.clone().with_workers(1), 21);
    assert!(serial.bounced > 0, "the storm must shed at the in-flight bound: {serial}");
    for &workers in &worker_counts() {
        let (trace_w, par) = Driver::record(&base.clone().with_workers(workers), 21);
        assert_eq!(
            trace_w.to_bytes(),
            trace_1.to_bytes(),
            "{workers} workers: the attempt schedule (sheds included) must be identical"
        );
        assert_eq!(par.bounced, serial.bounced, "{workers} workers: same reject count");
        assert_eq!(
            format!("{:?}", par.fleet),
            format!("{:?}", serial.fleet),
            "{workers} workers: same report bits"
        );
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lnls-parfleet-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn onemax_job(name: String, i: u64) -> BinaryJob<OneMax, KHamming> {
    let n = 24;
    let hood = KHamming::new(n, 2);
    let mut rng = StdRng::seed_from_u64(i);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(60).with_seed(i).with_target(None), hood.size());
    BinaryJob::new(name, OneMax::new(n), hood, search, init)
}

fn onemax_spec(i: u64) -> JobSpec<BinaryJob<OneMax, KHamming>> {
    JobSpec::new(onemax_job(format!("loop-{i}"), i)).for_tenant(format!("tenant-{}", i % 5))
}

/// A fleet with telemetry off (series are not checkpointed,
/// so only a sampling-free fleet can land on an uninterrupted run's
/// bits after a crash) and a tight per-shard in-flight bound.
fn plain_fleet(shards: usize, workers: usize) -> ParallelFleet {
    let mut fleet = ParallelFleet::new(
        ShardConfig::current(),
        AdmissionPolicy::unbounded(),
        shards,
        workers,
        SchedulerConfig { quantum_iters: Some(8), max_batch: 4, ..Default::default() },
        |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
    );
    for i in 0..fleet.shard_count() {
        fleet.shard_mut(i).set_inflight_limit(Some(1));
    }
    fleet
}

/// Drive `fleet` closed-loop: five logical clients, one job in flight
/// each, shed submissions retried two ticks later. With `crash_at`
/// set, the fleet snapshots every tick into its per-shard delta
/// chains; at that tick it is dropped — every helper thread joins and
/// dies — and restored from the chains with the pre-crash shed counts
/// carried over. Returns the surviving fleet and the driver tick
/// count.
fn closed_loop_drive(mut fleet: ParallelFleet, crash_at: Option<u64>) -> (ParallelFleet, u64) {
    const JOBS: u64 = 12;
    const CLIENTS: usize = 5;
    let registry = JobRegistry::with_builtin();
    let mut fresh: VecDeque<u64> = (0..JOBS).collect();
    let mut retries: VecDeque<(u64, u64)> = VecDeque::new();
    let mut inflight: Vec<JobHandle> = Vec::new();
    let mut ticks = 0u64;
    let mut armed = crash_at.is_some();
    loop {
        let backing_off = retries.iter().filter(|(due, _)| *due > ticks).count();
        let mut free = CLIENTS.saturating_sub(inflight.len() + backing_off);
        while free > 0 {
            let i = if retries.front().is_some_and(|(due, _)| *due <= ticks) {
                retries.pop_front().expect("front checked").1
            } else if let Some(i) = fresh.pop_front() {
                i
            } else {
                break;
            };
            free -= 1;
            match fleet.submit_spec(onemax_spec(i)) {
                Ok((_, handle)) => inflight.push(handle),
                Err(_) => retries.push_back((ticks + 2, i)),
            }
        }
        let progressed = fleet.tick();
        ticks += 1;
        if armed {
            fleet.snapshot().expect("snapshots under load succeed");
        }
        if crash_at == Some(ticks) {
            armed = false;
            let sheds: Vec<u64> =
                (0..fleet.shard_count()).map(|i| fleet.shard(i).rejected_submissions()).collect();
            let workers = fleet.worker_count();
            let shards = fleet.shard_count();
            let dir = fleet.checkpoint_dir().expect("crashing runs are armed").to_path_buf();
            // The crash: dropping the fleet joins (kills) every helper.
            drop(fleet);
            fleet = ParallelFleet::restore(
                ShardConfig::current(),
                AdmissionPolicy::unbounded(),
                &dir,
                &registry,
                ticks,
                &sheds,
                workers,
            )
            .expect("intact chains restore");
            for i in 0..shards {
                fleet.shard_mut(i).set_inflight_limit(Some(1));
            }
        }
        inflight.retain(|&h| matches!(fleet.status(h), JobStatus::Queued | JobStatus::Running));
        if !progressed && fresh.is_empty() && retries.is_empty() && inflight.is_empty() {
            break;
        }
    }
    (fleet, ticks)
}

/// Crash every worker mid-run under closed-loop saturation and restore
/// from the per-shard delta chains: the run must finish on the
/// uninterrupted run's bits — shed counts (carried across the crash)
/// included.
#[test]
fn crashing_every_worker_restores_onto_the_uninterrupted_bits() {
    let (want, want_ticks) = closed_loop_drive(plain_fleet(3, 3), None);
    let want_sheds: u64 = (0..3).map(|i| want.shard(i).rejected_submissions()).sum();
    assert!(want_sheds > 0, "five clients over in-flight-1 shards must shed");

    let dir = tmp_dir("crash");
    let armed = plain_fleet(3, 3).with_checkpoint_dir(&dir, 4).expect("chains arm");
    let (got, got_ticks) = closed_loop_drive(armed, Some(6));
    assert_eq!(
        format!("{:?}", got.fleet_report()),
        format!("{:?}", want.fleet_report()),
        "a crashed-and-restored run must land on the uninterrupted bits"
    );
    assert_eq!(got_ticks, want_ticks, "the crash must not change the tick count");
    let _ = fs::remove_dir_all(&dir);
}

/// A truncated newest delta in one shard's chain must fail
/// [`ParallelFleet::restore`] with a typed error naming the exact
/// frame of the shard's epoch file — diagnosed on the caller's thread
/// before any helper exists, so it can neither panic a helper nor hang
/// a barrier.
#[test]
fn a_truncated_shard_delta_fails_restore_naming_the_file() {
    let dir = tmp_dir("corrupt");
    let mut fleet = plain_fleet(2, 2).with_checkpoint_dir(&dir, 8).expect("chains arm");
    for i in 0..10 {
        let _ = fleet.submit_spec(onemax_spec(i));
    }
    fleet.snapshot().expect("base snapshot");
    for _ in 0..3 {
        fleet.tick();
        fleet.snapshot().expect("delta snapshot");
    }
    let ticks = fleet.ticks();
    drop(fleet);

    // Truncate the *newest* delta of shard 001's chain: the last frame
    // of its epoch file (past the 16-byte header, each frame is a `u64`
    // length, the segment and a `u64` checksum).
    let shard1 = dir.join("shard-001");
    let path = shard1.join("epoch-00000001.ckpt");
    let bytes = fs::read(&path).expect("read the epoch file");
    let mut frames = Vec::new();
    let mut at = 16;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("a length word"));
        frames.push(at);
        at += 8 + usize::try_from(len).expect("a frame length") + 8;
    }
    assert_eq!(frames.len(), 4, "a base and three deltas");
    let newest = format!("epoch-00000001.ckpt#{}", frames.len() - 1);
    let last = frames[frames.len() - 1];
    fs::write(&path, &bytes[..last + (bytes.len() - last) / 2]).expect("truncate the delta");

    let registry = JobRegistry::with_builtin();
    let err = match ParallelFleet::restore(
        ShardConfig::current(),
        AdmissionPolicy::unbounded(),
        &dir,
        &registry,
        ticks,
        &[0, 0],
        2,
    ) {
        Ok(_) => panic!("a truncated chain must not restore"),
        Err(e) => e,
    };
    match err {
        CheckpointError::CorruptSegment { segment, .. } => {
            assert!(
                segment.contains("shard-001") && segment.ends_with(newest.as_str()),
                "the error must name shard-001's '{newest}', got '{segment}'"
            );
        }
        other => panic!("expected CorruptSegment, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every step of a [`Traced`] job: the job's name and the name of the
/// thread that ran the step.
type StepLog = Arc<Mutex<Vec<(String, Option<String>)>>>;

/// A test-only delegating job: its executor logs the thread of every
/// step and, when `panics` is set, panics on its first step. Everything
/// else delegates, so the wrapped job schedules exactly as unwrapped.
struct Traced<J> {
    inner: J,
    log: StepLog,
    panics: bool,
}

impl<J: SearchJob> SearchJob for Traced<J> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn priority(&self) -> u8 {
        self.inner.priority()
    }

    fn persist_tag(&self) -> String {
        self.inner.persist_tag()
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        let Traced { inner, log, panics } = *self;
        Box::new(TracedExec { inner: Box::new(inner).into_exec(ctx), log, panics })
    }
}

/// The delegating executor behind [`Traced`].
struct TracedExec {
    inner: Box<dyn JobExec>,
    log: StepLog,
    panics: bool,
}

impl TracedExec {
    fn step(&mut self, step: impl FnOnce(&mut dyn JobExec) -> StepRun) -> StepRun {
        let thread = std::thread::current().name().map(str::to_owned);
        self.log.lock().expect("step log").push((self.inner.name().to_owned(), thread));
        if self.panics {
            panic!("injected step panic in {}", self.inner.name());
        }
        step(self.inner.as_mut())
    }
}

impl JobExec for TracedExec {
    fn id(&self) -> JobId {
        self.inner.id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn priority(&self) -> u8 {
        self.inner.priority()
    }

    fn seq(&self) -> u64 {
        self.inner.seq()
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn iterations(&self) -> u64 {
        self.inner.iterations()
    }

    fn batch_key(&self) -> Option<BatchKey> {
        self.inner.batch_key()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        self.step(|inner| inner.step_device(dev, quota))
    }

    fn step_host(&mut self, host: &HostSpec, quota: u64) -> StepRun {
        self.step(|inner| inner.step_host(host, quota))
    }

    fn step_batch(
        &mut self,
        peers: &mut [&mut Box<dyn JobExec>],
        dev: &mut Device,
        span_iters: u64,
        mode: LaunchMode,
    ) -> StepRun {
        self.step(|inner| inner.step_batch(peers, dev, span_iters, mode))
    }

    fn serial_equivalent_s(&self, spec: &DeviceSpec) -> f64 {
        self.inner.serial_equivalent_s(spec)
    }

    fn finish(&mut self, backend: String, started_s: f64, finished_s: f64) -> JobReport {
        self.inner.finish(backend, started_s, finished_s)
    }

    fn unplaced(&mut self) {
        self.inner.unplaced()
    }

    fn clone_box(&self) -> Box<dyn JobExec> {
        Box::new(TracedExec { inner: self.inner.clone_box(), log: self.log.clone(), panics: false })
    }

    fn persist_tag(&self) -> String {
        self.inner.persist_tag()
    }

    fn persist(&self, out: &mut Vec<u8>) {
        self.inner.persist(out)
    }
}

/// A `shards`-wide fleet holding one [`Traced`] job per shard, submitted
/// straight to the shard (one queued job per shard never steals, so
/// every step stays on its shard); `panicking` names the shard whose
/// job panics on its first step.
fn traced_fleet(
    shards: usize,
    workers: usize,
    panicking: Option<usize>,
) -> (ParallelFleet, StepLog) {
    let log = StepLog::default();
    let mut fleet = plain_fleet(shards, workers);
    for shard in 0..shards {
        let job = Traced {
            inner: onemax_job(format!("shard-{shard}"), shard as u64),
            log: log.clone(),
            panics: panicking == Some(shard),
        };
        fleet.shard_mut(shard).submit_spec(JobSpec::new(job)).expect("an empty shard admits");
    }
    (fleet, log)
}

/// Every logged step as `(shard, thread name)`.
fn steps(log: &StepLog) -> Vec<(usize, Option<String>)> {
    log.lock()
        .expect("step log")
        .iter()
        .map(|(job, thread)| {
            let shard = job.strip_prefix("shard-").and_then(|s| s.parse().ok());
            (shard.expect("traced jobs are named after their shard"), thread.clone())
        })
        .collect()
}

/// Drop `fleet` on another thread and fail unless that returns in time:
/// every helper thread must join, whatever state a panic left.
fn drop_without_hanging(fleet: ParallelFleet) {
    let (tx, rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(fleet);
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30)).expect("dropping the fleet must join every helper");
    dropper.join().expect("dropping the fleet must not panic");
}

/// The message a caught panic carried.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn one_worker_steps_every_shard_on_the_calling_thread() {
    let caller = std::thread::current().name().map(str::to_owned);
    let (mut fleet, log) = traced_fleet(4, 1, None);
    assert_eq!(fleet.worker_count(), 1);
    fleet.tick();
    fleet.run_until_idle();
    let steps = steps(&log);
    for shard in 0..4 {
        assert!(steps.iter().any(|(s, _)| *s == shard), "shard {shard} never stepped");
    }
    for (shard, thread) in &steps {
        assert_eq!(thread, &caller, "shard {shard} stepped off the calling thread");
    }
}

#[test]
fn two_workers_split_shards_between_caller_and_helper() {
    let caller = std::thread::current().name().map(str::to_owned);
    let helper = Some("lnls-par-worker-1".to_owned());
    let (mut fleet, log) = traced_fleet(4, 2, None);
    assert_eq!(fleet.worker_count(), 2);
    fleet.tick();
    fleet.run_until_idle();
    let steps = steps(&log);
    for shard in 0..4 {
        assert!(steps.iter().any(|(s, _)| *s == shard), "shard {shard} never stepped");
    }
    for (shard, thread) in &steps {
        let want = if shard % 2 == 0 { &caller } else { &helper };
        assert_eq!(thread, want, "shard {shard} stepped on the wrong thread");
    }
}

/// Three workers on four shards: shard 2 is helper 2's only shard, and
/// helper 1 outlives the panic, so the drop must still close its queue
/// and join it.
#[test]
fn a_panic_on_a_helper_shard_names_the_worker_and_the_fleet_still_drops() {
    let (mut fleet, _log) = traced_fleet(4, 3, Some(2));
    let payload = catch_unwind(AssertUnwindSafe(|| fleet.tick()))
        .expect_err("a helper's panicking step must fail the tick");
    let message = panic_message(payload.as_ref());
    assert!(message.contains("worker 2"), "the panic must name the helper: {message}");
    assert!(message.contains("injected step panic in shard-2"), "{message}");
    drop_without_hanging(fleet);
}

#[test]
fn a_panic_on_a_caller_shard_propagates_and_the_fleet_still_drops() {
    let (mut fleet, _log) = traced_fleet(4, 2, Some(2));
    let payload = catch_unwind(AssertUnwindSafe(|| fleet.tick()))
        .expect_err("the caller's panicking step must fail the tick");
    let message = panic_message(payload.as_ref());
    assert!(message.contains("injected step panic in shard-2"), "{message}");
    drop_without_hanging(fleet);
}
