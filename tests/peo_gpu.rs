//! The ParadisEO-style layer driving the simulated-GPU backend: the
//! white-box loop must take exactly the same walk on the device as on
//! the host, and its observers must see the device's time ledger.

use lnls::core::peo::{Acceptance, FitnessTrace, MaxIterations, PeoSearch, TimeBudget};
use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

#[test]
fn peo_walk_identical_on_gpu_and_cpu_backends() {
    let (m, n) = (25, 25);
    let instance = PppInstance::generate(m, n, 42);
    let problem = Ppp::new(instance);
    let mut rng = StdRng::seed_from_u64(42);
    let init = BitString::random(&mut rng, n);

    let mut cpu_trace = FitnessTrace::default();
    let mut cpu_ex = SequentialExplorer::new(KHamming::new(n, 2));
    let r_cpu = PeoSearch::new(Acceptance::Always)
        .stop_when(MaxIterations(25))
        .observe(&mut cpu_trace)
        .run(&problem, &mut cpu_ex, init.clone());

    let mut gpu_trace = FitnessTrace::default();
    let mut gpu_ex = PppGpuExplorer::new(&problem, 2, GpuExplorerConfig::default());
    let r_gpu = PeoSearch::new(Acceptance::Always)
        .stop_when(MaxIterations(25))
        .observe(&mut gpu_trace)
        .run(&problem, &mut gpu_ex, init);

    assert_eq!(r_cpu.best, r_gpu.best);
    assert_eq!(r_cpu.best_fitness, r_gpu.best_fitness);
    assert_eq!(cpu_trace.current, gpu_trace.current, "step-for-step identical walks");
    // Only the GPU run carries a priced ledger.
    assert!(r_cpu.book.is_none());
    let book = r_gpu.book.expect("gpu ledger");
    assert_eq!(book.launches, 25);
}

#[test]
fn time_budget_continuator_stops_gpu_runs() {
    let (m, n) = (41, 41);
    let problem = Ppp::new(PppInstance::generate(m, n, 7));
    let mut rng = StdRng::seed_from_u64(7);
    let init = BitString::random(&mut rng, n);
    let mut ex = PppGpuExplorer::new(&problem, 2, GpuExplorerConfig::default());
    let r = PeoSearch::new(Acceptance::Always)
        .stop_when(TimeBudget(Duration::from_millis(200)))
        .stop_when(MaxIterations(1_000_000))
        .run(&problem, &mut ex, init);
    assert!(r.wall < Duration::from_secs(30), "budget must bound the run");
    assert!(r.iterations > 0, "must have made progress before stopping");
}
