//! The generic `SearchJob` path end to end: annealing jobs scheduled
//! through the same `submit` as tabu and QAP tenants — preemption
//! invariance against the solo `SimulatedAnnealing::run`, a mixed
//! anneal/tabu/QAP fleet surviving a disk checkpoint round-trip, the
//! periodic delta-checkpoint crash/restore path, and the `JobSpec`
//! envelope knobs (iteration budget, deadline, checkpoint opt-out).

use lnls::core::{BitString, SearchConfig, SimulatedAnnealing, TabuSearch};
use lnls::gpu::{DeviceSpec, MultiDevice};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::prelude::{
    AnnealJob, BinaryJob, DeltaCheckpointer, FleetCheckpoint, JobRegistry, JobSpec, JobStatus,
    OneMax, QapInstance, QapJobSpec, RobustTabu, RtsConfig, Scheduler, SchedulerConfig,
    SnapshotKind, TableEvaluator,
};
use lnls::qap::Permutation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SA_N: usize = 26;

fn sa_parts(seed: u64, iters: u64) -> (OneMax, SimulatedAnnealing<KHamming>, BitString) {
    let hood = KHamming::new(SA_N, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, SA_N);
    let sa = SimulatedAnnealing::new(SearchConfig::budget(iters).with_seed(seed), hood, 1.5);
    (OneMax::new(SA_N), sa, init)
}

fn anneal_job(seed: u64, iters: u64) -> AnnealJob<OneMax, KHamming> {
    let (problem, sa, init) = sa_parts(seed, iters);
    AnnealJob::new(format!("sa-{seed}"), problem, sa, init)
}

fn tabu_job(seed: u64, iters: u64) -> BinaryJob<OneMax, KHamming> {
    let hood = KHamming::new(SA_N, 2);
    let mut rng = StdRng::seed_from_u64(100 + seed);
    let init = BitString::random(&mut rng, SA_N);
    // No fitness target: the walk runs its full budget unless the
    // scheduler's envelope stops it first.
    let search = TabuSearch::paper(
        SearchConfig::budget(iters).with_seed(seed).with_target(None),
        hood.size(),
    );
    BinaryJob::new(format!("tabu-{seed}"), OneMax::new(SA_N), hood, search, init)
}

fn qap_job(seed: u64, n: usize, iters: u64) -> QapJobSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = QapInstance::random_uniform(&mut rng, n);
    let init = Permutation::random(&mut rng, n);
    QapJobSpec::new(format!("qap-{seed}"), inst, RtsConfig::budget(iters).with_seed(seed), init)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Preemption invariance for scheduled annealing: any quantum, any
    /// small fleet shape, alongside competing tabu tenants — the
    /// scheduled walk must land exactly on `SimulatedAnnealing::run`.
    #[test]
    fn scheduled_anneal_matches_solo_run_under_any_quantum(
        quantum in 1u64..40,
        devices in 1usize..3,
        cpu_workers in 0usize..2,
    ) {
        let iters = 120;
        let mut fleet = Scheduler::new(
            MultiDevice::new_uniform(devices, DeviceSpec::gtx280()),
            SchedulerConfig {
                cpu_workers,
                quantum_iters: Some(quantum),
                ..Default::default()
            },
        );
        let sa_handles: Vec<_> =
            (0..2u64).map(|s| fleet.submit(anneal_job(s, iters))).collect();
        for s in 0..2u64 {
            fleet.submit(tabu_job(s, 20));
        }
        fleet.run_until_idle();
        for (s, h) in sa_handles.iter().enumerate() {
            let (problem, sa, init) = sa_parts(s as u64, iters);
            let want = sa.run(&problem, init);
            let got = fleet.report(*h).expect("done").outcome.clone();
            let got = got.as_binary().expect("annealing reports a SearchResult");
            prop_assert_eq!(&got.best, &want.best, "sa-{}", s);
            prop_assert_eq!(got.best_fitness, want.best_fitness, "sa-{}", s);
            prop_assert_eq!(got.iterations, want.iterations, "sa-{}", s);
            prop_assert_eq!(got.evals, want.evals, "sa-{}", s);
        }
    }
}

/// A mixed anneal/tabu/QAP fleet checkpointed mid-run to disk, revived
/// through the registry, finishes with outcomes bit-identical to the
/// uninterrupted fleet — the acceptance scenario of the `SearchJob`
/// redesign.
#[test]
fn mixed_fleet_disk_roundtrip_with_anneal_jobs() {
    let build = || {
        let mut fleet = Scheduler::new(
            MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
            SchedulerConfig {
                cpu_workers: 1,
                max_batch: 2,
                quantum_iters: Some(5),
                ..Default::default()
            },
        );
        for s in 0..2u64 {
            fleet.submit(anneal_job(s, 90));
        }
        for s in 0..2u64 {
            fleet.submit(tabu_job(s, 25));
        }
        fleet.submit(qap_job(7, 10, 60));
        fleet
    };
    let mut straight = build();
    straight.run_until_idle();

    let mut fleet = build();
    for _ in 0..4 {
        fleet.tick();
    }
    let checkpoint = fleet.checkpoint();
    assert!(checkpoint.pending_jobs() > 0, "captured mid-run");
    let path = std::env::temp_dir().join(format!("lnls-fleet-jobs-{}.ckpt", std::process::id()));
    checkpoint.save(&path).expect("save");
    drop(fleet);
    drop(checkpoint);

    let registry = JobRegistry::with_builtin();
    let revived = FleetCheckpoint::load(&path, &registry).expect("load");
    std::fs::remove_file(&path).ok();
    let mut resumed = Scheduler::restore(revived);
    resumed.run_until_idle();

    for (ra, rb) in straight.reports().zip(resumed.reports()) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.outcome.best_fitness(), rb.outcome.best_fitness(), "{}", ra.name);
        assert_eq!(ra.outcome.iterations(), rb.outcome.iterations(), "{}", ra.name);
    }
    // The annealing outcomes specifically must still be the solo walks.
    for s in 0..2u64 {
        let (problem, sa, init) = sa_parts(s, 90);
        let want = sa.run(&problem, init);
        let got = resumed.reports().nth(s as usize).unwrap();
        assert_eq!(got.outcome.as_binary().unwrap().best, want.best, "sa-{s}");
    }
}

/// Periodic checkpointing: snapshot through a `DeltaCheckpointer` on a
/// tick cadence, "crash" the process (drop the scheduler), revive from
/// the newest chain in the store, and finish with exactly the results
/// of an uninterrupted fleet.
#[test]
fn autosave_crash_restore_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("lnls-autosave-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let submit_all = |fleet: &mut Scheduler| {
        for s in 0..2u64 {
            fleet.submit(anneal_job(s, 70));
        }
        for s in 0..3u64 {
            fleet.submit(tabu_job(s, 20));
        }
    };
    let cfg = SchedulerConfig { quantum_iters: Some(4), ..Default::default() };
    let mut straight = Scheduler::with_uniform_fleet(2, DeviceSpec::gtx280(), cfg.clone());
    submit_all(&mut straight);
    straight.run_until_idle();

    let mut fleet = Scheduler::with_uniform_fleet(2, DeviceSpec::gtx280(), cfg);
    submit_all(&mut fleet);
    let mut checkpointer = DeltaCheckpointer::open(&dir, 4).expect("open checkpoint dir");
    let mut kinds = Vec::new();
    for tick in 1..=7u64 {
        fleet.tick();
        if tick % 3 == 0 {
            kinds.push(checkpointer.snapshot(&fleet).expect("snapshot").kind);
        }
    }
    assert_eq!(kinds, [SnapshotKind::Base, SnapshotKind::Delta], "two cadence points passed");
    drop(fleet); // the crash

    let registry = JobRegistry::with_builtin();
    let revived = checkpointer.store().load_latest(&registry).expect("load the newest chain");
    assert_eq!(revived.ticks(), 6, "the chain ends at the last cadence point");
    let mut resumed = Scheduler::restore(revived);
    resumed.run_until_idle();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(straight.fleet_report().jobs_completed, resumed.fleet_report().jobs_completed);
    for (ra, rb) in straight.reports().zip(resumed.reports()) {
        let (ra, rb) = (ra.outcome.as_binary().unwrap(), rb.outcome.as_binary().unwrap());
        assert_eq!(ra.best, rb.best);
        assert_eq!(ra.best_fitness, rb.best_fitness);
        assert_eq!(ra.iterations, rb.iterations);
    }
}

/// The `JobSpec` envelope: iteration budgets stop a job early (reported
/// done with partial progress), deadlines drain through the
/// cancellation path, checkpoint opt-out drops the job from snapshots,
/// and name/priority overrides land in the report.
#[test]
fn job_spec_envelope_controls_the_scheduler() {
    // Iteration budget: the job stops at the cap, not its own budget.
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { quantum_iters: Some(4), ..Default::default() },
    );
    let capped = fleet.submit_spec(
        JobSpec::new(tabu_job(0, 50)).with_iter_budget(12).named("capped").for_tenant("budgeted"),
    );
    fleet.run_until_idle();
    let report = fleet.report(capped).expect("budgeted jobs report");
    assert_eq!(report.outcome.iterations(), 12, "stopped exactly at the budget");
    assert!(!report.cancelled, "a budget stop is a completion, not a cancellation");
    assert_eq!(report.name, "capped");
    assert_eq!(report.tenant, "budgeted");
    assert_eq!(fleet.status(capped), JobStatus::Done);

    // Deadline: a job whose deadline has passed drains as cancelled.
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { quantum_iters: Some(2), ..Default::default() },
    );
    let long = fleet.submit(tabu_job(1, 400));
    let doomed = fleet.submit_spec(JobSpec::new(tabu_job(2, 400)).with_deadline(1e-9));
    fleet.run_until_idle();
    assert_eq!(fleet.status(long), JobStatus::Done);
    assert_eq!(fleet.status(doomed), JobStatus::Cancelled);
    let report = fleet.report(doomed).unwrap();
    assert!(report.cancelled);
    assert!(report.outcome.iterations() < 400, "drained before its own budget");

    // Checkpoint opt-out: the job is absent from snapshots.
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { quantum_iters: Some(3), ..Default::default() },
    );
    let durable = fleet.submit(tabu_job(3, 30));
    let ephemeral = fleet.submit_spec(JobSpec::new(tabu_job(4, 30)).without_checkpoint());
    fleet.tick();
    let checkpoint = fleet.checkpoint();
    assert_eq!(checkpoint.pending_jobs(), 1, "opted-out job is not captured");
    let mut resumed = Scheduler::restore(checkpoint);
    resumed.run_until_idle();
    assert_eq!(resumed.status(durable), JobStatus::Done);
    assert_eq!(resumed.status(ephemeral), JobStatus::Unknown);
}

/// QAP robust tabu through the generic path still matches its solo
/// driver (the old `submit_qap` acceptance check, re-pinned on
/// `submit`).
#[test]
fn qap_through_generic_submit_matches_solo() {
    let mut fleet =
        Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
    let h = fleet.submit(qap_job(42, 9, 50));
    fleet.run_until_idle();
    let mut rng = StdRng::seed_from_u64(42);
    let inst = QapInstance::random_uniform(&mut rng, 9);
    let init = Permutation::random(&mut rng, 9);
    let want = RobustTabu::new(RtsConfig::budget(50).with_seed(42)).run(
        &inst,
        &mut TableEvaluator::new(),
        init,
    );
    let got = fleet.report(h).unwrap().outcome.clone();
    let got = got.as_qap().expect("qap outcome");
    assert_eq!(got.best.as_slice(), want.best.as_slice());
    assert_eq!(got.best_cost, want.best_cost);
    assert_eq!(got.iterations, want.iterations);
}
