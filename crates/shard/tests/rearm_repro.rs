//! Scratch repro: re-arming a DeltaCheckpointer over a directory that
//! already holds segments from a previous incarnation.

use lnls_core::{BitString, SearchConfig, TabuSearch};
use lnls_gpu_sim::{DeviceSpec, MultiDevice};
use lnls_neighborhood::{KHamming, Neighborhood};
use lnls_problems::OneMax;
use lnls_runtime::{
    BinaryJob, CheckpointStore, DeltaCheckpointer, JobRegistry, Scheduler, SchedulerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn job(i: u64, iters: u64) -> BinaryJob<OneMax, KHamming> {
    let n = 24;
    let hood = KHamming::new(n, 2);
    let mut rng = StdRng::seed_from_u64(i);
    let init = BitString::random(&mut rng, n);
    let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(i), hood.size());
    BinaryJob::new(format!("j-{i}"), OneMax::new(n), hood, search, init)
}

#[test]
fn rearm_over_existing_store() {
    let dir = std::env::temp_dir().join(format!("lnls-rearm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sched_cfg = SchedulerConfig { quantum_iters: Some(4), ..Default::default() };
    let mut sched =
        Scheduler::new(MultiDevice::new_uniform(1, DeviceSpec::gtx280()), sched_cfg.clone());
    for i in 0..6 {
        sched.submit(job(i, 200));
    }
    // First incarnation: base + several deltas.
    let mut a = DeltaCheckpointer::open(&dir, 8).unwrap();
    for _ in 0..5 {
        sched.tick();
        a.snapshot(&sched).unwrap();
    }
    drop(a);
    let files_before: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    println!("after first incarnation: {files_before:?}");

    // Crash + restore (full checkpoint equivalent), then re-arm over
    // the SAME dir, as the docs describe, and write fewer segments
    // than the first incarnation did.
    let registry = JobRegistry::with_builtin();
    let restored_ckpt = CheckpointStore::open(&dir).unwrap().load_latest(&registry).unwrap();
    let mut sched2 = Scheduler::restore(restored_ckpt);
    let mut b = DeltaCheckpointer::open(&dir, 8).unwrap();
    sched2.tick();
    b.snapshot(&sched2).unwrap(); // a base opening epoch 2, past the old file
    sched2.tick();
    b.snapshot(&sched2).unwrap(); // delta 1, appended to epoch 2
    drop(b);
    let files_after: Vec<_> = {
        let mut v: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    };
    println!("after re-arm: {files_after:?}");

    // What does a subsequent restore see?
    let result = CheckpointStore::open(&dir).unwrap().load_latest(&registry);
    let want = format!("{:?}", sched2.checkpoint().to_bytes().len());
    match result {
        Ok(ckpt) => {
            let got = format!("{:?}", ckpt.to_bytes().len());
            println!("restored ticks={} want ticks={}", ckpt.ticks(), sched2.checkpoint().ticks());
            assert_eq!(
                ckpt.ticks(),
                sched2.checkpoint().ticks(),
                "restored state is stale (bytes {got} vs {want})"
            );
        }
        Err(e) => panic!("load_latest failed after re-arm: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
