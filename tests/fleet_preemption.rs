//! Property test of the preemptive runtime: for *any* quantum, a mixed
//! PPP / QAP / OneMax / simulated-annealing fleet must report
//! bit-identical best fitness and iteration counts to the
//! run-to-completion scheduler — preemption is a pure scheduling
//! concern, invisible to search semantics. The fair side of the bargain
//! is asserted too: slicing never worsens the worst tenant wait.

use lnls::core::{BitString, SearchConfig, SimulatedAnnealing, TabuSearch};
use lnls::gpu::{DeviceSpec, MultiDevice};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::ppp::{Ppp, PppInstance};
use lnls::prelude::{
    AnnealJob, BinaryJob, FleetReport, OneMax, QapInstance, QapJobSpec, RobustTabu, RtsConfig,
    Scheduler, SchedulerConfig, TableEvaluator,
};
use lnls::qap::Permutation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PPP_N: usize = 20;
const ONEMAX_N: usize = 22;
const QAP_N: usize = 9;

fn submit_mixed(fleet: &mut Scheduler, iters: u64) {
    for seed in 0..2u64 {
        let problem = Ppp::new(PppInstance::generate(PPP_N, PPP_N, seed));
        let hood = KHamming::new(PPP_N, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = BitString::random(&mut rng, PPP_N);
        let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
        fleet.submit(BinaryJob::new(format!("ppp-{seed}"), problem, hood, search, init));
    }
    for seed in 0..2u64 {
        let hood = KHamming::new(ONEMAX_N, 2);
        let mut rng = StdRng::seed_from_u64(10 + seed);
        let init = BitString::random(&mut rng, ONEMAX_N);
        let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
        fleet.submit(
            BinaryJob::new(format!("onemax-{seed}"), OneMax::new(ONEMAX_N), hood, search, init)
                .with_priority((seed % 2) as u8 * 2),
        );
    }
    let mut rng = StdRng::seed_from_u64(77);
    let inst = QapInstance::random_uniform(&mut rng, QAP_N);
    let init = Permutation::random(&mut rng, QAP_N);
    fleet.submit(QapJobSpec::new("qap-0", inst, RtsConfig::budget(iters * 3).with_seed(5), init));
}

/// A sampling-style tenant: annealing flows through the same generic
/// submit path and must be exactly as quantum-invariant. (Kept out of
/// [`submit_mixed`] — the wait-fairness property below is a claim about
/// that specific tenant mix.)
fn submit_sa(fleet: &mut Scheduler, iters: u64) {
    let hood = KHamming::new(ONEMAX_N, 2);
    let mut rng = StdRng::seed_from_u64(33);
    let init = BitString::random(&mut rng, ONEMAX_N);
    let sa = SimulatedAnnealing::new(SearchConfig::budget(iters).with_seed(3), hood, 1.4);
    fleet.submit(AnnealJob::new("sa-0", OneMax::new(ONEMAX_N), sa, init));
}

/// Run the mixed batch and collect `(best fitness, iterations)` per job
/// in id order, plus the fleet report.
fn run_mixed(
    devices: usize,
    cpu_workers: usize,
    max_batch: usize,
    quantum: Option<u64>,
    iters: u64,
) -> (Vec<(i64, u64)>, FleetReport) {
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(devices, DeviceSpec::gtx280()),
        SchedulerConfig { cpu_workers, max_batch, quantum_iters: quantum, ..Default::default() },
    );
    submit_mixed(&mut fleet, iters);
    fleet.run_until_idle();
    let outcomes =
        fleet.reports().map(|r| (r.outcome.best_fitness(), r.outcome.iterations())).collect();
    (outcomes, fleet.fleet_report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any quantum, any small fleet shape: identical search results to
    /// the run-to-completion scheduler, and no worse max tenant wait.
    #[test]
    fn any_quantum_is_invisible_to_results(
        quantum in 1u64..40,
        devices in 1usize..3,
        cpu_workers in 0usize..2,
        max_batch in 1usize..5,
    ) {
        let iters = 18;
        let (plain, plain_report) = run_mixed(devices, cpu_workers, max_batch, None, iters);
        let (sliced, sliced_report) =
            run_mixed(devices, cpu_workers, max_batch, Some(quantum), iters);
        prop_assert_eq!(plain, sliced);
        prop_assert!(
            sliced_report.max_wait_s <= plain_report.max_wait_s + 1e-12,
            "slicing must not worsen the worst wait: {} vs {}",
            sliced_report.max_wait_s,
            plain_report.max_wait_s
        );
    }
}

/// The quantum-invariance claim, spelled out against solo runs rather
/// than the non-preemptive scheduler (one fixed case, deeper check:
/// solutions themselves, not just fitness).
#[test]
fn preempted_fleet_matches_solo_runs_exactly() {
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
        SchedulerConfig { cpu_workers: 1, quantum_iters: Some(4), ..Default::default() },
    );
    submit_mixed(&mut fleet, 20);
    submit_sa(&mut fleet, 80);
    fleet.run_until_idle();

    // PPP jobs (ids 0, 1).
    for seed in 0..2u64 {
        let problem = Ppp::new(PppInstance::generate(PPP_N, PPP_N, seed));
        let hood = KHamming::new(PPP_N, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = BitString::random(&mut rng, PPP_N);
        let search = TabuSearch::paper(SearchConfig::budget(20).with_seed(seed), hood.size());
        let mut ex = lnls::core::SequentialExplorer::new(hood);
        let want = search.run(&problem, &mut ex, init);
        let got = fleet.reports().nth(seed as usize).unwrap().outcome.as_binary().unwrap();
        assert_eq!(got.best, want.best, "ppp-{seed}");
        assert_eq!(got.iterations, want.iterations, "ppp-{seed}");
    }
    // QAP job (id 4).
    let mut rng = StdRng::seed_from_u64(77);
    let inst = QapInstance::random_uniform(&mut rng, QAP_N);
    let init = Permutation::random(&mut rng, QAP_N);
    let want = RobustTabu::new(RtsConfig::budget(60).with_seed(5)).run(
        &inst,
        &mut TableEvaluator::new(),
        init,
    );
    let got = fleet.reports().nth(4).unwrap().outcome.as_qap().unwrap();
    assert_eq!(got.best.as_slice(), want.best.as_slice());
    assert_eq!(got.best_cost, want.best_cost);
    assert_eq!(got.iterations, want.iterations);
    // Annealing job (id 5).
    let hood = KHamming::new(ONEMAX_N, 2);
    let mut rng = StdRng::seed_from_u64(33);
    let init = BitString::random(&mut rng, ONEMAX_N);
    let sa = SimulatedAnnealing::new(SearchConfig::budget(80).with_seed(3), hood, 1.4);
    let want = sa.run(&OneMax::new(ONEMAX_N), init);
    let got = fleet.reports().nth(5).unwrap().outcome.as_binary().unwrap();
    assert_eq!(got.best, want.best, "sa-0");
    assert_eq!(got.iterations, want.iterations, "sa-0");

    let report = fleet.fleet_report();
    assert!(report.preemptions > 0, "the QAP job must have been sliced");
}
