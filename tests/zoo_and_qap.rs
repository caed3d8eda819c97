//! Cross-crate integration: the problem zoo, the QAP substrate and the
//! stream/pipeline models working together through the facade crate.

use lnls::core::peo::{Acceptance, EvalBudget, FitnessTrace, MaxIterations, PeoSearch};
use lnls::core::problem::IncrementalEval;
use lnls::core::GeneralVns;
use lnls::gpu::pipeline::{price_multiwalk_ordered, IssueOrder};
use lnls::gpu::{DeviceSpec, EngineConfig, IterationProfile};
use lnls::prelude::*;
use lnls::problems::QuboGpuExplorer;
use lnls::qap::{GpuSwapEvaluator, Permutation, RobustTabu, RtsConfig, SwapEvaluator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every zoo problem, searched with the same driver over the same
/// neighborhood, ends at a state whose stored fitness matches a full
/// re-evaluation — the cross-problem contract of `IncrementalEval`.
#[test]
fn zoo_problems_agree_with_full_reevaluation_after_search() {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 30;

    fn run_and_check<P: IncrementalEval>(p: &P, n: usize, seed: u64) {
        let hood = KHamming::new(n, 2);
        let mut ex = SequentialExplorer::new(hood);
        let search = TabuSearch::paper(
            SearchConfig::budget(80).with_seed(seed).with_target(None),
            Neighborhood::size(&hood),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let init = BitString::random(&mut rng, n);
        let r = search.run(p, &mut ex, init);
        assert_eq!(r.best_fitness, p.evaluate(&r.best), "{}", p.name());
    }

    run_and_check(&OneMax::new(n), n, 1);
    run_and_check(&Qubo::random(&mut rng, n, 9, 0.5), n, 2);
    run_and_check(&MaxCut::random(&mut rng, n, 0.3, 7), n, 3);
    run_and_check(&Knapsack::random(&mut rng, n, 15, 8), n, 4);
    run_and_check(&IsingLattice::random_pm(&mut rng, 5, 1), 25, 5);
    run_and_check(&MaxSat::random(&mut rng, n, 90), n, 6);
    run_and_check(&NkLandscape::random(&mut rng, n, 3, 100), n, 7);
}

/// The paper's headline claim on the zoo: with a matched *evaluation*
/// budget, the larger neighborhood never loses (and typically wins) on
/// the spin glass.
#[test]
fn larger_neighborhoods_do_not_lose_under_matched_eval_budget() {
    let mut rng = StdRng::seed_from_u64(11);
    let ising = IsingLattice::random_pm(&mut rng, 6, 0); // 36 spins
    let budget_evals = 200_000u64;

    let mut best = Vec::new();
    for k in 1..=3usize {
        let hood = KHamming::new(36, k);
        let mut ex = SequentialExplorer::new(hood);
        let mut rng = StdRng::seed_from_u64(99);
        let init = BitString::random(&mut rng, 36);
        let r = PeoSearch::new(Acceptance::Always)
            .stop_when(EvalBudget(budget_evals))
            .run(&ising, &mut ex, init);
        best.push(r.best_fitness);
    }
    assert!(
        best[2] <= best[0],
        "3-Hamming ({}) must not lose to 1-Hamming ({}) at equal evals",
        best[2],
        best[0]
    );
}

/// GVNS on a deceptive knapsack seed reaches the DP optimum that the
/// single-neighborhood tabu misses (the plateau documented in the
/// knapsack module).
#[test]
fn gvns_solves_the_knapsack_plateau() {
    let mut rng = StdRng::seed_from_u64(5);
    let k = Knapsack::random(&mut rng, 16, 10, 8);
    let opt = k.optimum_value();
    let mut ladder: Vec<Box<dyn Explorer<Knapsack>>> = vec![
        Box::new(SequentialExplorer::new(KHamming::new(16, 1))),
        Box::new(SequentialExplorer::new(KHamming::new(16, 2))),
        Box::new(SequentialExplorer::new(KHamming::new(16, 3))),
    ];
    let gvns = GeneralVns::new(SearchConfig::budget(200).with_seed(1).with_target(Some(-opt)));
    let r = gvns.run(&k, &mut ladder, BitString::zeros(16));
    assert_eq!(r.best_fitness, -opt);
    assert!(k.feasible(&r.best));
}

/// A full QUBO tabu run through the simulated GPU takes exactly the
/// same walk as the sequential CPU explorer (facade-level replay of the
/// unit test, with the time ledger checked).
#[test]
fn qubo_gpu_walk_matches_cpu_walk_through_facade() {
    let mut rng = StdRng::seed_from_u64(21);
    let q = Qubo::random(&mut rng, 18, 6, 0.5);
    let init = BitString::random(&mut rng, 18);
    let hood = KHamming::new(18, 2);
    let search =
        TabuSearch::paper(SearchConfig::budget(40).with_target(None), Neighborhood::size(&hood));

    let mut cpu = SequentialExplorer::new(hood);
    let r_cpu = search.run(&q, &mut cpu, init.clone());
    let mut gpu = QuboGpuExplorer::new(&q, 2, DeviceSpec::gtx280());
    let r_gpu = search.run(&q, &mut gpu, init);

    assert_eq!(r_cpu.best, r_gpu.best);
    assert_eq!(r_cpu.best_fitness, r_gpu.best_fitness);
    let book = r_gpu.book.expect("gpu ledger");
    assert_eq!(book.launches, 40);
    assert!(book.speedup().is_some());
}

/// QAP: the robust tabu walk is backend-independent and the modeled
/// speedup grows with n (Fig. 8's shape on the swap neighborhood).
#[test]
fn qap_rts_backend_equivalence_and_scaling() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut speedups = Vec::new();
    for n in [12usize, 36] {
        let inst = lnls::qap::QapInstance::random_symmetric(&mut rng, n);
        let init = Permutation::random(&mut rng, n);
        let rts = RobustTabu::new(RtsConfig::budget(50).with_seed(2));
        let cpu = rts.run(&inst, &mut lnls::qap::TableEvaluator::new(), init.clone());
        let mut gpu_eval = GpuSwapEvaluator::new(&inst, DeviceSpec::gtx280());
        let gpu = rts.run(&inst, &mut gpu_eval, init);
        assert_eq!(cpu.best_cost, gpu.best_cost, "n={n}");
        assert_eq!(cpu.best, gpu.best, "n={n}");
        let book = SwapEvaluator::book(&gpu_eval).unwrap();
        speedups.push(book.speedup().unwrap());
    }
    assert!(speedups[1] > speedups[0], "modeled speedup must grow with n: {speedups:?}");
}

/// Pipelining independent walks never beats the engine bound and never
/// loses to the serial schedule; breadth-first issue dominates
/// depth-first on the GT200 layout.
#[test]
fn pipeline_bounds_hold_for_ppp_shaped_iterations() {
    let spec = DeviceSpec::gtx280();
    let profile =
        IterationProfile { h2d_bytes: 16 << 10, kernel_seconds: 300e-6, d2h_bytes: 128 << 10 };
    for walks in [1usize, 2, 4, 8] {
        let bf = price_multiwalk_ordered(
            &spec,
            EngineConfig::gt200(),
            profile,
            walks,
            200,
            walks.min(4),
            IssueOrder::BreadthFirst,
        );
        let df = price_multiwalk_ordered(
            &spec,
            EngineConfig::gt200(),
            profile,
            walks,
            200,
            walks.min(4),
            IssueOrder::DepthFirst,
        );
        assert!(bf.pipelined_s <= bf.serial_s * 1.0001, "walks={walks}");
        assert!(bf.speedup >= df.speedup - 1e-9, "issue order, walks={walks}");
        // compute engine is a hard floor
        let compute_floor =
            (profile.kernel_seconds + spec.launch_overhead_s) * walks as f64 * 200.0;
        assert!(bf.pipelined_s >= compute_floor * 0.999, "walks={walks}");
    }
}

/// Observers see exactly what the search did (facade-level check).
#[test]
fn peo_trace_is_consistent_with_result() {
    let mut rng = StdRng::seed_from_u64(77);
    let cut = MaxCut::random(&mut rng, 24, 0.4, 5);
    let mut trace = FitnessTrace::default();
    let mut ex = SequentialExplorer::new(KHamming::new(24, 2));
    let r = PeoSearch::new(Acceptance::Always)
        .stop_when(MaxIterations(30))
        .observe(&mut trace)
        .run(&cut, &mut ex, BitString::zeros(24));
    assert_eq!(trace.best.len(), r.iterations as usize);
    assert_eq!(trace.best.last().copied(), Some(r.best_fitness));
    // best-so-far is monotone non-increasing
    assert!(trace.best.windows(2).all(|w| w[1] <= w[0]));
    // and equals the running min of the current-fitness trace
    let mut running = i64::MAX;
    for (cur, best) in trace.current.iter().zip(&trace.best) {
        running = running.min(*cur);
        assert_eq!(running, *best);
    }
}
