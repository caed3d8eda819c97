//! End-to-end scenarios across the whole stack: solving instances,
//! persistence, the identification protocol, and the multi-GPU path.

use lnls::gpu::{DeviceSpec, ExecMode, LaunchConfig, MemSpace, MultiDevice};
use lnls::neighborhood::{binomial, partition_ranges};
use lnls::ppp::{crypto, PppEvalKernel};
use lnls::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn small_instance_gets_solved_by_escalating_neighborhoods() {
    // Mirrors the ppp_crack example but as a deterministic test: some
    // k ∈ {1,2,3} must crack a 23×23 instance within the budget.
    let inst = PppInstance::generate(23, 23, 31);
    let p = Ppp::new(inst);
    let mut rng = StdRng::seed_from_u64(31);
    let init = BitString::random(&mut rng, 23);
    let mut solved = false;
    for k in 1..=3usize {
        let hood = KHamming::new(23, k);
        let mut ex = SequentialExplorer::new(hood);
        let search = TabuSearch::paper(
            SearchConfig::budget(2_000).with_seed(k as u64),
            Neighborhood::size(&hood),
        );
        let r = search.run(&p, &mut ex, init.clone());
        if r.success {
            assert!(p.inst.is_solution(&r.best));
            solved = true;
            break;
        }
    }
    assert!(solved, "no neighborhood cracked the 23×23 instance");
}

#[test]
fn recovered_key_passes_identification() {
    let (pk, _sk) = crypto::keygen(21, 21, 77);
    let p = Ppp::new(pk.inst.clone());
    let mut rng = StdRng::seed_from_u64(7);
    let init = BitString::random(&mut rng, 21);
    let hood = KHamming::new(21, 3);
    let mut ex = SequentialExplorer::new(hood);
    let search =
        TabuSearch::paper(SearchConfig::budget(3_000).with_seed(3), Neighborhood::size(&hood));
    let r = search.run(&p, &mut ex, init);
    assert!(r.success, "3-Hamming tabu should crack 21×21 (fitness {})", r.best_fitness);
    let forged = crypto::SecretKey { v: r.best };
    assert_eq!(crypto::identification_session(&pk, &forged, 12, 1), 12);
}

#[test]
fn instance_roundtrips_through_disk_format() {
    let inst = PppInstance::generate(33, 29, 123);
    let text = inst.save_to_string();
    let back = PppInstance::parse(&text).unwrap();
    assert_eq!(inst.a, back.a);
    // A solution of the original solves the round-tripped instance.
    let secret = inst.secret.unwrap();
    assert!(back.is_solution(&secret));
}

#[test]
fn multi_gpu_partition_matches_single_device() {
    let (m, n, k) = (19, 17, 3);
    let inst = PppInstance::generate(m, n, 55);
    let p = Ppp::new(inst);
    let mut rng = StdRng::seed_from_u64(2);
    let s = BitString::random(&mut rng, n);
    let state = lnls::core::IncrementalEval::init_state(&p, &s);
    let msize = binomial(n as u64, k as u64);

    // Reference: single-device explorer.
    let mut gpu = PppGpuExplorer::new(&p, k, GpuExplorerConfig::default());
    let mut reference = Vec::new();
    {
        let mut st = lnls::core::IncrementalEval::init_state(&p, &s);
        gpu.explore(&p, &s, &mut st, &mut reference);
    }

    // Partitioned across 3 simulated devices.
    let mut multi = MultiDevice::new_uniform(3, DeviceSpec::gtx280());
    let parts = partition_ranges(msize, 3);
    let vbits: Vec<u32> = s.words().iter().flat_map(|&w| [w as u32, (w >> 32) as u32]).collect();
    let wpc32 = (p.inst.a.words_per_col() * 2) as u32;
    let mut combined = vec![0i64; msize as usize];
    multi.parallel_step(|i, dev| {
        let part = parts[i];
        if part.is_empty() {
            return;
        }
        let a_cols = dev.upload_new(&p.inst.a.cols_as_u32(), MemSpace::Texture, "a");
        let hist_t = dev.upload_new(&p.inst.target_hist, MemSpace::Texture, "h");
        let vb = dev.upload_new(&vbits, MemSpace::Global, "v");
        let y = dev.upload_new(&state.y, MemSpace::Global, "y");
        let hc = dev.upload_new(&state.hist, MemSpace::Global, "hc");
        let out = dev.alloc_zeroed::<i32>(part.len() as usize, MemSpace::Global, "o");
        let kernel = PppEvalKernel {
            k: k as u8,
            n: n as u32,
            m: m as u32,
            msize: part.len(),
            base_index: part.lo,
            wpc32,
            a_cols,
            vbits: vb,
            y,
            hist_target: hist_t,
            hist_cur: hc,
            out: out.clone(),
            neg_base: state.neg_cost,
            hist_base: state.hist_cost,
        };
        dev.launch(&kernel, LaunchConfig::cover_1d(part.len(), 64), ExecMode::Auto);
        for (off, v) in dev.download(&out).into_iter().enumerate() {
            combined[(part.lo + off as u64) as usize] = v as i64;
        }
    });
    assert_eq!(combined, reference);
    assert!(multi.elapsed_parallel_s() > 0.0);
}

#[test]
fn all_drivers_run_on_ppp() {
    use lnls::core::{IteratedLocalSearch, SimulatedAnnealing, VariableNeighborhoodSearch};
    let inst = PppInstance::generate(19, 19, 8);
    let p = Ppp::new(inst);
    let mut rng = StdRng::seed_from_u64(4);
    let init = BitString::random(&mut rng, 19);

    let mut hc_ex = SequentialExplorer::new(KHamming::new(19, 2));
    let hc = HillClimbing::best(SearchConfig::budget(200));
    let r = hc.run(&p, &mut hc_ex, init.clone());
    assert!(r.best_fitness >= 0);

    let sa = SimulatedAnnealing::new(
        SearchConfig::budget(5_000).with_seed(1),
        KHamming::new(19, 2),
        10.0,
    );
    assert!(sa.run(&p, init.clone()).best_fitness >= 0);

    let ils = IteratedLocalSearch::new(SearchConfig::budget(20).with_seed(2));
    assert!(ils.run(&p, init.clone()).best_fitness >= 0);

    let mut ladder: Vec<Box<dyn Explorer<Ppp>>> = vec![
        Box::new(SequentialExplorer::new(KHamming::new(19, 1))),
        Box::new(SequentialExplorer::new(KHamming::new(19, 2))),
        Box::new(SequentialExplorer::new(KHamming::new(19, 3))),
    ];
    let vns = VariableNeighborhoodSearch::new(SearchConfig::budget(100));
    assert!(vns.run(&p, &mut ladder, init).best_fitness >= 0);
}
