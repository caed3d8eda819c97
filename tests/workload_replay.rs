//! Replay determinism of the workload subsystem, held to the strongest
//! standard available: for any catalog scenario and any seed, recording
//! a run and replaying its disk-round-tripped trace must produce
//! **bit-identical** `FleetReport`s — every f64 (makespans, waits,
//! percentiles, busy clocks, telemetry samples) compared through its
//! exact `Debug` rendering, which round-trips floats losslessly.
//!
//! Plus the envelope-policy edge case the drain sweep must order
//! deterministically: an iteration budget and a deadline expiring in
//! the *same* quantum.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::prelude::{BinaryJob, DeviceSpec, EngineConfig, LaunchMode, SelectionMode};
use lnls::prelude::{
    Driver, JobSpec, OneMax, Scenario, Scheduler, SchedulerConfig, Trace, TrafficGen,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (scenario, seed) under any combination of the fleet pricing
    /// knobs — engine layout (GT200 vs. Fermi stream overlap), selection
    /// mode (host vs. on-device argmin), fused-span length and
    /// launch-overhead mode: record, save the trace to bytes, reload,
    /// replay — the fleet reports must match bit for bit, and so must
    /// the driver-side counters.
    #[test]
    fn any_recorded_trace_replays_bit_identically(
        scenario_idx in 0usize..9,
        seed in 0u64..1000,
        fermi in proptest::prelude::any::<bool>(),
        device_argmin in proptest::prelude::any::<bool>(),
        span in 1u64..=8,
        persistent in proptest::prelude::any::<bool>(),
    ) {
        let engines = if fermi { EngineConfig::fermi() } else { EngineConfig::gt200() };
        let selection =
            if device_argmin { SelectionMode::DeviceArgmin } else { SelectionMode::HostArgmin };
        let mode =
            if persistent { LaunchMode::PersistentSpan } else { LaunchMode::PerIteration };
        let scenario = Scenario::catalog()[scenario_idx]
            .clone()
            .with_fleet_knobs(engines, selection)
            .with_span_knobs(span, mode);
        let (trace, recorded) = Driver::record(&scenario, seed);

        let bytes = trace.to_bytes();
        let reloaded = Trace::from_bytes(&bytes).expect("traces decode");
        prop_assert_eq!(&reloaded, &trace, "byte round-trip must be lossless");

        let replayed = Driver::replay(&reloaded);
        prop_assert_eq!(
            format!("{:?}", replayed.fleet),
            format!("{:?}", recorded.fleet),
            "scenario '{}' seed {} must replay bit-identically",
            scenario.name,
            seed
        );
        prop_assert_eq!(replayed.submitted, recorded.submitted);
        prop_assert_eq!(replayed.admitted, recorded.admitted);
        prop_assert_eq!(replayed.bounced, recorded.bounced);
        prop_assert_eq!(replayed.crashes, recorded.crashes);
        prop_assert_eq!(replayed.ticks, recorded.ticks);
    }

    /// The lowering itself is a pure function of (scenario, seed).
    #[test]
    fn lowering_is_reproducible(scenario_idx in 0usize..9, seed in 0u64..1000) {
        let scenario = &Scenario::catalog()[scenario_idx];
        let a = TrafficGen::lower(scenario, seed);
        let b = TrafficGen::lower(scenario, seed);
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
    }
}

/// A job that trips its iteration budget *and* its deadline inside one
/// quantum: the drain sweep checks deadlines first, so the job must
/// drain through the cancellation path (reported cancelled at the
/// boundary, with exactly the budgeted iterations executed) — not
/// complete as a budget-exhausted success. Pinning the precedence keeps
/// replay determinism honest for deadline-heavy scenarios.
#[test]
fn iter_budget_and_deadline_expiring_in_the_same_quantum_cancels() {
    let n = 24;
    let hood = KHamming::new(n, 2);
    let mut rng = StdRng::seed_from_u64(1);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(50).with_seed(1).with_target(None), hood.size());
    let job = BinaryJob::new("both-expire", OneMax::new(n), hood, search, init);

    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 1, quantum_iters: Some(10), ..Default::default() },
    );
    // Budget of 3 iterations caps the first slice at exactly 3; any
    // positive fleet time passes the epsilon deadline in that same
    // quantum — both envelope conditions trip before the next drain.
    let handle = fleet
        .submit_spec(JobSpec::new(job).with_iter_budget(3).with_deadline(1e-12).for_tenant("edge"));
    fleet.run_until_idle();

    let report = fleet.report(handle).expect("drained jobs report");
    assert!(
        report.cancelled,
        "deadline precedence: the job must drain cancelled, not complete on budget"
    );
    assert!(!report.rejected);
    assert_eq!(report.outcome.iterations(), 3, "the budget capped the quantum");
    let fr = fleet.fleet_report();
    assert_eq!(fr.jobs_cancelled, 1);
    assert_eq!(fr.jobs_completed, 0);

    // Control: without the deadline, the same budgeted job completes.
    let hood = KHamming::new(n, 2);
    let mut rng = StdRng::seed_from_u64(1);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(50).with_seed(1).with_target(None), hood.size());
    let job = BinaryJob::new("budget-only", OneMax::new(n), hood, search, init);
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 1, quantum_iters: Some(10), ..Default::default() },
    );
    let handle = fleet.submit_spec(JobSpec::new(job).with_iter_budget(3));
    fleet.run_until_idle();
    let report = fleet.report(handle).unwrap();
    assert!(!report.cancelled, "budget exhaustion alone completes the job");
    assert_eq!(report.outcome.iterations(), 3);
}

/// Span length and launch mode are pricing-only at the workload level
/// too: on the deadline-free steady scenario every span setting admits,
/// completes and iterates exactly the same work — only the modeled
/// prices move. (Deadline-heavy scenarios are excluded on purpose:
/// coarser span ticks may legitimately cancel a late job at a different
/// iteration, which is a timing effect, not a search-result change.)
#[test]
fn span_knobs_preserve_steady_outcomes() {
    let (_, base) = Driver::record(&Scenario::steady(), 42);
    for span in [2u64, 5, 8] {
        for mode in [LaunchMode::PerIteration, LaunchMode::PersistentSpan] {
            let scenario = Scenario::steady().with_span_knobs(span, mode);
            let (_, report) = Driver::record(&scenario, 42);
            let fleet = &report.fleet;
            assert_eq!(fleet.jobs_completed, base.fleet.jobs_completed, "span {span} {mode:?}");
            assert_eq!(fleet.jobs_cancelled, base.fleet.jobs_cancelled, "span {span} {mode:?}");
            assert_eq!(
                fleet.iterations_executed, base.fleet.iterations_executed,
                "span {span} {mode:?}: every admitted search must run its exact budget"
            );
            assert_eq!(report.admitted, base.admitted, "span {span} {mode:?}");
        }
    }
}

/// The checkpoint-churn scenario loses exactly its checkpoint opt-outs
/// at the crash — and still replays bit-identically (both runs crash at
/// the same tick and lose the same jobs).
#[test]
fn checkpoint_churn_replays_through_the_crash() {
    let scenario = Scenario::by_name("checkpoint-churn").expect("catalog scenario");
    let (trace, recorded) = Driver::record(&scenario, 123);
    assert_eq!(recorded.crashes, 1);
    let replayed = Driver::replay(&Trace::from_bytes(&trace.to_bytes()).unwrap());
    assert_eq!(replayed.crashes, 1);
    assert_eq!(format!("{:?}", replayed.fleet), format!("{:?}", recorded.fleet));
}

/// The new LNS families crash and restore exactly like the rest of the
/// catalog: force a mid-run crash into the `lns-repair` and
/// `portfolio-race` scenarios and hold the crashed run to the same
/// bit-identical replay standard as `checkpoint-churn`.
#[test]
fn lns_scenarios_replay_through_a_forced_crash() {
    for mut scenario in
        [Scenario::by_name("lns-repair").unwrap(), Scenario::by_name("portfolio-race").unwrap()]
    {
        scenario.crash_at_tick = Some(9);
        let (trace, recorded) = Driver::record(&scenario, 77);
        assert_eq!(recorded.crashes, 1, "{}", scenario.name);
        let replayed = Driver::replay(&Trace::from_bytes(&trace.to_bytes()).unwrap());
        assert_eq!(replayed.crashes, 1, "{}", scenario.name);
        assert_eq!(
            format!("{:?}", replayed.fleet),
            format!("{:?}", recorded.fleet),
            "{} must replay bit-identically through the crash",
            scenario.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Preemption, fused-span length and launch mode are invisible to
    /// LNS and portfolio search results: for any quantum × span × mode,
    /// a scheduled destroy-and-repair job and a scheduled portfolio
    /// race both finish with exactly the best/iteration/eval trail of
    /// the unpreempted solo cursor.
    #[test]
    fn lns_results_are_invariant_under_quantum_span_and_mode(
        quantum in 1u64..=9,
        span in 1u64..=6,
        persistent in proptest::prelude::any::<bool>(),
        seed in 0u64..500,
    ) {
        use lnls::lns::{LnsSearch, PortfolioSearch};
        use lnls::prelude::{Knapsack, LnsJob, PortfolioJob, Qubo};
        use lnls::core::SearchCursor;

        let mode =
            if persistent { LaunchMode::PersistentSpan } else { LaunchMode::PerIteration };
        let mut fleet = Scheduler::with_uniform_fleet(
            2,
            DeviceSpec::gtx280(),
            SchedulerConfig {
                quantum_iters: Some(quantum),
                span_iters: span,
                launch_mode: mode,
                ..Default::default()
            },
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let knap = Knapsack::random(&mut rng, 24, 10, 6);
        let knap_init = BitString::random(&mut rng, 24);
        let qubo = Qubo::random(&mut rng, 20, 7, 0.5);
        let qubo_init = BitString::random(&mut rng, 20);
        let lns_cfg = SearchConfig::budget(20).with_seed(seed).with_target(None);
        let race_cfg = SearchConfig::budget(24).with_seed(seed).with_target(None);

        let lns_handle = fleet.submit(
            LnsJob::new("lns", knap.clone(), LnsSearch::paper(lns_cfg.clone()), knap_init.clone())
                .with_launch_mode(mode),
        );
        let race_handle = fleet.submit(
            PortfolioJob::new(
                "race",
                qubo.clone(),
                PortfolioSearch::paper(race_cfg.clone()),
                qubo_init.clone(),
            )
            .with_launch_mode(mode),
        );
        fleet.run_until_idle();

        let solo_lns = LnsSearch::paper(lns_cfg).run(&knap, knap_init);
        let got = fleet.report(lns_handle).expect("done");
        let got = got.outcome.as_binary().expect("lns reports a SearchResult");
        prop_assert_eq!(&got.best, &solo_lns.best);
        prop_assert_eq!(got.best_fitness, solo_lns.best_fitness);
        prop_assert_eq!(got.iterations, solo_lns.iterations);
        prop_assert_eq!(got.evals, solo_lns.evals);

        let mut solo_race = PortfolioSearch::paper(race_cfg).cursor(&qubo, qubo_init);
        solo_race.step_batch(&qubo, u64::MAX);
        let report = fleet.report(race_handle).expect("done");
        let detail: &lnls::lns::PortfolioOutcome =
            report.outcome.detail().expect("portfolio attaches its race outcome");
        prop_assert_eq!(detail, &solo_race.outcome());
        prop_assert_eq!(report.outcome.best_fitness(), solo_race.best());
    }
}
