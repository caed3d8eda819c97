//! Integration test of the runtime subsystem through the facade: a mixed
//! batch of PPP, OneMax and QAP jobs scheduled across two simulated
//! devices must all complete, return bit-identical results to solo runs,
//! and finish in less simulated time than the serialized sum.

use lnls::core::{BitString, SearchConfig, SequentialExplorer, TabuSearch};
use lnls::gpu::{DeviceSpec, MultiDevice};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::ppp::{Ppp, PppInstance};
use lnls::prelude::{
    BinaryJob, JobStatus, OneMax, QapInstance, QapJobSpec, RobustTabu, RtsConfig, Scheduler,
    SchedulerConfig, TableEvaluator,
};
use lnls::qap::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PPP_M: usize = 25;
const PPP_N: usize = 25;
const ONEMAX_N: usize = 24;
const QAP_N: usize = 8;
const ITERS: u64 = 25;

fn ppp_job(seed: u64) -> BinaryJob<Ppp, KHamming> {
    let problem = Ppp::new(PppInstance::generate(PPP_M, PPP_N, seed));
    let hood = KHamming::new(PPP_N, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, PPP_N);
    let search = TabuSearch::paper(SearchConfig::budget(ITERS).with_seed(seed), hood.size());
    BinaryJob::new(format!("ppp-{seed}"), problem, hood, search, init)
}

fn onemax_job(seed: u64) -> BinaryJob<OneMax, KHamming> {
    let hood = KHamming::new(ONEMAX_N, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, ONEMAX_N);
    let search = TabuSearch::paper(SearchConfig::budget(ITERS).with_seed(seed), hood.size());
    BinaryJob::new(format!("onemax-{seed}"), OneMax::new(ONEMAX_N), hood, search, init)
}

fn qap_parts(seed: u64) -> (QapInstance, RtsConfig, Permutation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = QapInstance::random_uniform(&mut rng, QAP_N);
    let init = Permutation::random(&mut rng, QAP_N);
    (inst, RtsConfig::budget(ITERS).with_seed(seed), init)
}

#[test]
fn mixed_fleet_completes_and_matches_solo_runs() {
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
        SchedulerConfig::default(),
    );

    let ppp_handles: Vec<_> = (0..3).map(|i| fleet.submit(ppp_job(10 + i))).collect();
    let onemax_handles: Vec<_> = (0..3).map(|i| fleet.submit(onemax_job(20 + i))).collect();
    let qap_handles: Vec<_> = (0..2)
        .map(|i| {
            let (inst, cfg, init) = qap_parts(30 + i);
            fleet.submit(QapJobSpec::new(format!("qap-{i}"), inst, cfg, init))
        })
        .collect();

    fleet.run_until_idle();
    let report = fleet.fleet_report();

    // Everything completed.
    assert_eq!(report.jobs_completed, 8);
    for h in ppp_handles.iter().chain(&onemax_handles).chain(&qap_handles) {
        assert_eq!(fleet.status(*h), JobStatus::Done);
    }

    // Fleet results are bit-identical to solo runs of the same jobs.
    for (i, h) in ppp_handles.iter().enumerate() {
        let seed = 10 + i as u64;
        let job = ppp_job(seed);
        let mut ex = SequentialExplorer::new(job.hood);
        let want = job.search.run(&job.problem, &mut ex, job.init);
        let got = fleet.report(*h).unwrap().outcome.as_binary().unwrap();
        assert_eq!(got.best, want.best, "ppp job {i}");
        assert_eq!(got.best_fitness, want.best_fitness, "ppp job {i}");
        assert_eq!(got.iterations, want.iterations, "ppp job {i}");
    }
    for (i, h) in onemax_handles.iter().enumerate() {
        let seed = 20 + i as u64;
        let job = onemax_job(seed);
        let mut ex = SequentialExplorer::new(job.hood);
        let want = job.search.run(&job.problem, &mut ex, job.init);
        let got = fleet.report(*h).unwrap().outcome.as_binary().unwrap();
        assert_eq!(got.best, want.best, "onemax job {i}");
        assert_eq!(got.best_fitness, want.best_fitness, "onemax job {i}");
        assert_eq!(got.iterations, want.iterations, "onemax job {i}");
    }
    for (i, h) in qap_handles.iter().enumerate() {
        let (inst, cfg, init) = qap_parts(30 + i as u64);
        let mut eval = TableEvaluator::new();
        let want = RobustTabu::new(cfg).run(&inst, &mut eval, init);
        let got = fleet.report(*h).unwrap().outcome.as_qap().unwrap();
        assert_eq!(got.best.as_slice(), want.best.as_slice(), "qap job {i}");
        assert_eq!(got.best_cost, want.best_cost, "qap job {i}");
        assert_eq!(got.iterations, want.iterations, "qap job {i}");
    }

    // Both devices worked, and the fleet beat the serialized baseline.
    assert!(report.device_busy_s.iter().all(|&b| b > 0.0), "{:?}", report.device_busy_s);
    assert!(
        report.makespan_s < report.serialized_s,
        "fleet makespan {} must beat serialized sum {}",
        report.makespan_s,
        report.serialized_s
    );
    assert!(report.speedup_vs_serial > 1.0);

    // Same-family jobs fused at least once.
    assert!(report.fused_launches > 0, "PPP/OneMax triplets share batch keys");
}

/// A QAP job is now a steppable cursor: it can be captured *mid-run*
/// (not just while queued), revived, and still land on exactly the solo
/// result — the ROADMAP's "steppable QAP driver" item, end to end.
#[test]
fn qap_jobs_checkpoint_mid_run_and_resume_exactly() {
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        SchedulerConfig { quantum_iters: Some(6), ..Default::default() },
    );
    let (inst, cfg, init) = qap_parts(42);
    let long_cfg = RtsConfig::budget(200).with_seed(cfg.seed);
    let h = fleet.submit(QapJobSpec::new("qap-long", inst.clone(), long_cfg.clone(), init.clone()));

    // Step a few slices: the job must be in flight, partway through.
    for _ in 0..3 {
        fleet.tick();
    }
    assert_eq!(fleet.status(h), JobStatus::Running);
    let checkpoint = fleet.checkpoint();
    assert_eq!(checkpoint.in_flight_jobs(), 1, "QAP cursor captured mid-run");
    drop(fleet);

    let mut resumed = Scheduler::restore(checkpoint);
    let report = resumed.await_report(h).outcome.clone();
    let want = RobustTabu::new(long_cfg).run(&inst, &mut TableEvaluator::new(), init);
    let got = report.as_qap().expect("qap outcome");
    assert_eq!(got.best.as_slice(), want.best.as_slice());
    assert_eq!(got.best_cost, want.best_cost);
    assert_eq!(got.iterations, want.iterations);
}

#[test]
fn fleet_report_prints() {
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
        SchedulerConfig::default(),
    );
    for i in 0..2 {
        fleet.submit(onemax_job(i));
    }
    fleet.run_until_idle();
    let text = fleet.fleet_report().to_string();
    assert!(text.contains("makespan"), "{text}");
    assert!(text.contains("dev0"), "{text}");
    assert!(text.contains("dev1"), "{text}");
}
