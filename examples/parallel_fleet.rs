//! The true-parallel service runtime end to end: one worker thread per
//! shard group, fork/join tick barriers, and bit-identical results at
//! every worker count.
//!
//! Three acts:
//! 1. **Worker sweep** — the same sharded saturation traffic recorded
//!    at 1 → 8 worker threads: wall-clock per run drops while the
//!    merged `FleetReport` stays bit-identical to the serial path.
//! 2. **Closed-loop shed storm** — completion-gated clients over a
//!    per-shard in-flight bound: the limiter sheds, the shed/retry
//!    schedule is tick-stamped into the trace, and none of it moves
//!    with the worker count.
//! 3. **Crash every worker** — a fleet snapshotting per-shard delta
//!    chains is dropped mid-run (all threads join and die) and
//!    restored; run to idle it matches the uninterrupted run bit for
//!    bit.
//!
//! ```text
//! cargo run --release --example parallel_fleet
//! LNLS_SEED=7 LNLS_SCALE=2 cargo run --release --example parallel_fleet
//! ```

use lnls::prelude::*;
use lnls::workload::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn onemax_job(name: &str, seed: u64) -> BinaryJob<OneMax, TwoHamming> {
    let n = 24;
    let hood = TwoHamming::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(80).with_seed(seed).with_target(None), hood.size());
    BinaryJob::new(name, OneMax::new(n), hood, search, init)
}

fn fresh_fleet(shards: usize, workers: usize) -> ParallelFleet {
    ParallelFleet::new(
        ShardConfig::current(),
        AdmissionPolicy::unbounded(),
        shards,
        workers,
        SchedulerConfig { max_batch: 4, quantum_iters: Some(8), ..Default::default() },
        |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
    )
}

fn main() {
    let seed: u64 = std::env::var("LNLS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let scale: f64 = std::env::var("LNLS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);

    println!("=== lnls parallel fleet: worker threads, shed storms, crash-all-workers ===\n");

    // ---- Act 1: the worker sweep. Same traffic, same bits.
    // Heavy per-shard compute (dim-96 neighborhoods, 64-iteration
    // quanta). The wall speedup is bounded by min(workers, cores) on
    // the host and by shard balance: most ticks have one busy shard.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let heavy = {
        let mut s = Scenario::saturation_sharded_sized(32, 8, (48.0 * scale) as u64);
        for t in &mut s.tenants {
            t.dims = vec![96];
            t.iters = (192, 256);
        }
        s.fleet.quantum_iters = Some(64);
        s
    };
    let (heavy_trace, _) = Driver::record(&heavy, seed);
    println!(
        "--- workers: '{}' replayed at 1 -> 8 threads over 8 shards ({cores} core(s)) ---",
        heavy.name
    );
    println!("{:>8} | {:>9} {:>9} {:>12}", "workers", "wall(ms)", "speedup", "report bits");
    let mut serial_bits = String::new();
    let mut serial_ms = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let timer = Instant::now();
        let report = Driver::replay_with_workers(&heavy_trace, workers);
        let wall_ms = timer.elapsed().as_secs_f64() * 1e3;
        let bits = format!("{:?}", report.fleet);
        if workers == 1 {
            serial_bits = bits.clone();
            serial_ms = wall_ms;
        }
        println!(
            "{:>8} | {:>9.1} {:>8.2}x {:>12}",
            workers,
            wall_ms,
            serial_ms / wall_ms,
            if bits == serial_bits { "identical" } else { "DRIFTED" },
        );
        assert_eq!(bits, serial_bits, "worker threads must not change the report");
    }

    // ---- Act 2: closed-loop clients shedding at the in-flight bound.
    let storm = Scenario::closed_loop_saturation();
    println!(
        "\n--- closed loop: '{}' ({} clients, retry after {} ticks) ---",
        storm.name,
        match storm.arrivals {
            lnls::workload::ArrivalProcess::ClosedLoop { clients, .. } => clients,
            _ => unreachable!("closed_loop_saturation is closed-loop"),
        },
        2,
    );
    println!("{:>8} | {:>6} {:>9} {:>7} {:>12}", "workers", "sheds", "attempts", "ticks", "trace");
    let mut serial_trace: Vec<u8> = Vec::new();
    for workers in [1usize, 2, 4] {
        let (trace, report) = Driver::record(&storm.clone().with_workers(workers), seed);
        let bytes = trace.to_bytes();
        if workers == 1 {
            serial_trace = bytes.clone();
        }
        println!(
            "{:>8} | {:>6} {:>9} {:>7} {:>12}",
            workers,
            report.bounced,
            trace.arrivals.len(),
            report.ticks,
            if bytes == serial_trace { "identical" } else { "DRIFTED" },
        );
        assert_eq!(bytes, serial_trace, "the attempt schedule must not move with workers");
    }

    // ---- Act 3: crash every worker thread, restore from the chains.
    let jobs = (18.0 * scale) as u64;
    let dir = std::env::temp_dir().join(format!("lnls-parallel-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let submit_all = |fleet: &mut ParallelFleet| {
        for i in 0..jobs {
            fleet
                .submit_spec(JobSpec::new(onemax_job(&format!("job-{i}"), i)))
                .expect("unbounded admission");
        }
    };

    // Reference: the same fleet run to completion without interruption.
    let mut reference = fresh_fleet(3, 3);
    submit_all(&mut reference);
    reference.run_until_idle();
    let reference_report = reference.fleet_report();

    let mut fleet = fresh_fleet(3, 3).with_checkpoint_dir(&dir, 8).expect("checkpoint dir opens");
    submit_all(&mut fleet);
    println!("\n--- crash: {jobs} jobs on 3 shards / 3 workers, killed at tick 5 ---");
    for _ in 0..5 {
        fleet.tick();
        fleet.snapshot().expect("snapshots write");
    }
    let ticks_at_crash = fleet.ticks();
    let workers_at_crash = fleet.worker_count();
    drop(fleet); // the crash: every worker thread joins and dies

    let registry = JobRegistry::with_builtin();
    let mut restored = ParallelFleet::restore(
        ShardConfig::current(),
        AdmissionPolicy::unbounded(),
        &dir,
        &registry,
        ticks_at_crash,
        &[0, 0, 0],
        workers_at_crash,
    )
    .expect("the chains restore");
    restored.run_until_idle();
    let restored_report = restored.fleet_report();

    let identical = format!("{reference_report:?}") == format!("{restored_report:?}");
    println!(
        "killed {workers_at_crash} worker threads at tick {ticks_at_crash}, restored from \
         per-shard base+delta chains, ran to idle:"
    );
    println!(
        "restored report vs. uninterrupted run: {}",
        if identical { "BIT-IDENTICAL" } else { "MISMATCH" }
    );
    println!("{restored_report}");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(identical, "a crash-all-workers restore must land on the uninterrupted run's bits");
}
