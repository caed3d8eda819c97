//! Admission control through `FleetClient`: global and per-tenant
//! queue caps, reject vs. shed-lowest-priority, and the invariant that
//! matters most — admission decides *which* jobs run, never *what* an
//! accepted job computes (a proptest pins accepted results to the
//! uncapped scheduler bit for bit).

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::gpu::DeviceSpec;
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::prelude::{
    AdmissionPolicy, BinaryJob, FleetClient, JobSpec, JobStatus, OneMax, Scheduler,
    SchedulerConfig, SubmitError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 22;

fn onemax_job(seed: u64, iters: u64) -> BinaryJob<OneMax, KHamming> {
    let hood = KHamming::new(N, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, N);
    let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
    BinaryJob::new(format!("onemax-{seed}"), OneMax::new(N), hood, search, init)
}

fn one_device_client(policy: AdmissionPolicy) -> FleetClient {
    let fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 1, ..Default::default() },
    );
    FleetClient::new(fleet, policy)
}

#[test]
fn queue_cap_rejects_overflow_with_typed_error() {
    let mut client = one_device_client(AdmissionPolicy::queue_cap(3));
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for seed in 0..6u64 {
        match client.submit(onemax_job(seed, 12)) {
            Ok(h) => accepted.push(h),
            Err(e) => {
                assert!(matches!(e, SubmitError::QueueFull { limit: 3, .. }), "{e}");
                assert!(e.to_string().contains("queue full"), "{e}");
                rejected += 1;
            }
        }
    }
    assert_eq!(accepted.len(), 3);
    assert_eq!(rejected, 3);
    client.run_until_idle();
    let report = client.fleet_report();
    assert_eq!(report.jobs_completed, 3);
    assert_eq!(report.jobs_rejected, 3, "outright rejections must be observable");
    for h in accepted {
        assert_eq!(client.status(h), JobStatus::Done);
    }
}

#[test]
fn per_tenant_cap_isolates_tenants() {
    let mut client = one_device_client(AdmissionPolicy::unbounded().with_tenant_cap(2));
    // Tenant "a" fills its cap; tenant "b" is unaffected.
    for seed in 0..2u64 {
        client
            .submit_spec(JobSpec::new(onemax_job(seed, 10)).for_tenant("a"))
            .expect("under tenant cap");
    }
    let err = client
        .submit_spec(JobSpec::new(onemax_job(9, 10)).for_tenant("a"))
        .expect_err("tenant a is full");
    match err {
        SubmitError::TenantQueueFull { tenant, limit, .. } => {
            assert_eq!(tenant, "a");
            assert_eq!(limit, 2);
        }
        other => panic!("wrong error: {other}"),
    }
    client
        .submit_spec(JobSpec::new(onemax_job(3, 10)).for_tenant("b"))
        .expect("tenant b has its own cap");
    client.run_until_idle();
    assert_eq!(client.fleet_report().jobs_completed, 3);
    assert_eq!(client.fleet_report().jobs_rejected, 1);
}

#[test]
fn shedding_evicts_lowest_priority_newest_first() {
    let mut client = one_device_client(AdmissionPolicy::queue_cap(2).with_shedding());
    let low_old =
        client.submit_spec(JobSpec::new(onemax_job(0, 10)).with_priority(1)).expect("admitted");
    let low_new =
        client.submit_spec(JobSpec::new(onemax_job(1, 10)).with_priority(1)).expect("admitted");
    // Equal priority cannot shed: the submission bounces instead.
    assert!(matches!(
        client.submit_spec(JobSpec::new(onemax_job(2, 10)).with_priority(1)),
        Err(SubmitError::QueueFull { .. })
    ));
    // Higher priority sheds the *newest* of the lowest-priority jobs.
    let high = client
        .submit_spec(JobSpec::new(onemax_job(3, 10)).with_priority(5))
        .expect("shedding makes room");
    assert_eq!(client.status(low_new), JobStatus::Rejected, "newest low job is shed");
    assert_eq!(format!("{}", client.status(low_new)), "rejected");
    assert_eq!(client.status(low_old), JobStatus::Queued, "older low job survives");
    let shed_report = client.report(low_new).expect("shed jobs still report");
    assert!(shed_report.rejected);
    assert!(!shed_report.cancelled);
    assert_eq!(shed_report.outcome.iterations(), 0, "never left the queue");

    client.run_until_idle();
    assert_eq!(client.status(high), JobStatus::Done);
    assert_eq!(client.status(low_old), JobStatus::Done);
    let report = client.fleet_report();
    assert_eq!(report.jobs_completed, 2);
    // 1 shed + 1 bounced.
    assert_eq!(report.jobs_rejected, 2);
    // Rejected rows are flagged in the tenant stats and excluded from
    // the fairness aggregates.
    assert_eq!(report.tenant_stats.iter().filter(|t| t.rejected).count(), 1);
}

#[test]
fn shedding_respects_tenant_scope() {
    let mut client =
        one_device_client(AdmissionPolicy::unbounded().with_tenant_cap(1).with_shedding());
    let a_low = client
        .submit_spec(JobSpec::new(onemax_job(0, 10)).for_tenant("a").with_priority(0))
        .expect("admitted");
    let b_low = client
        .submit_spec(JobSpec::new(onemax_job(1, 10)).for_tenant("b").with_priority(0))
        .expect("admitted");
    // A high-priority submission for tenant "a" may only shed tenant
    // "a" work, not tenant "b"'s.
    client
        .submit_spec(JobSpec::new(onemax_job(2, 10)).for_tenant("a").with_priority(7))
        .expect("sheds within the tenant");
    assert_eq!(client.status(a_low), JobStatus::Rejected);
    assert_eq!(client.status(b_low), JobStatus::Queued);
    client.run_until_idle();
    assert_eq!(client.fleet_report().jobs_completed, 2);
}

#[test]
fn rejected_submissions_never_shed_anyone() {
    // Global cap would allow shedding, but the tenant cap cannot be
    // satisfied: the submission must bounce with the queue untouched —
    // admission is all-or-nothing, so an ultimately-rejected submission
    // must not evict another tenant's work on the way.
    let policy = AdmissionPolicy {
        max_queued: Some(2),
        max_queued_per_tenant: Some(1),
        shed_lowest_priority: true,
    };
    let mut client = one_device_client(policy);
    let a = client
        .submit_spec(JobSpec::new(onemax_job(0, 10)).for_tenant("x").with_priority(0))
        .expect("admitted");
    let b = client
        .submit_spec(JobSpec::new(onemax_job(1, 10)).for_tenant("y").with_priority(5))
        .expect("admitted");
    // Tenant y is at its cap and its queued job outranks the incoming
    // priority-3 submission; the global-cap shed of A must NOT happen.
    let err = client
        .submit_spec(JobSpec::new(onemax_job(2, 10)).for_tenant("y").with_priority(3))
        .expect_err("tenant cap is infeasible");
    assert!(matches!(err, SubmitError::TenantQueueFull { .. }), "{err}");
    assert_eq!(client.status(a), JobStatus::Queued, "tenant x must be untouched");
    assert_eq!(client.status(b), JobStatus::Queued);
    client.run_until_idle();
    assert_eq!(client.fleet_report().jobs_completed, 2);
    assert_eq!(client.fleet_report().jobs_rejected, 1, "only the bounced submission");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Admission on/off never changes what an accepted job computes:
    /// submit a burst through a capped client, then run exactly the
    /// accepted set through an uncapped scheduler — every (fitness,
    /// iterations, solution) triple must match bit for bit.
    #[test]
    fn accepted_jobs_are_bit_identical_with_admission_on_and_off(
        cap in 1usize..6,
        burst in 2u64..9,
        iters in 5u64..25,
    ) {
        let mut client = one_device_client(AdmissionPolicy::queue_cap(cap));
        let mut accepted_seeds = Vec::new();
        let mut accepted_handles = Vec::new();
        for seed in 0..burst {
            if let Ok(h) = client.submit(onemax_job(seed, iters)) {
                accepted_seeds.push(seed);
                accepted_handles.push(h);
            }
        }
        client.run_until_idle();

        let mut uncapped = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 1, ..Default::default() },
        );
        let plain_handles: Vec<_> =
            accepted_seeds.iter().map(|&s| uncapped.submit(onemax_job(s, iters))).collect();
        uncapped.run_until_idle();

        for (ch, ph) in accepted_handles.iter().zip(&plain_handles) {
            let got = client.report(*ch).expect("accepted jobs complete");
            let want = uncapped.report(*ph).expect("uncapped jobs complete");
            let (g, w) = (
                got.outcome.as_binary().expect("binary job"),
                want.outcome.as_binary().expect("binary job"),
            );
            prop_assert_eq!(&g.best, &w.best);
            prop_assert_eq!(g.best_fitness, w.best_fitness);
            prop_assert_eq!(g.iterations, w.iterations);
            prop_assert_eq!(g.evals, w.evals);
        }
        let report = client.fleet_report();
        prop_assert_eq!(report.jobs_completed as usize, accepted_seeds.len());
        prop_assert_eq!(
            report.jobs_rejected as usize,
            burst as usize - accepted_seeds.len()
        );
    }
}
