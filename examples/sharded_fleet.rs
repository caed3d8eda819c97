//! Sharded fleets end to end: consistent-hash placement over a virtual
//! node ring, deterministic work stealing at tick barriers, worker
//! threads that never move a bit, and incremental (base + delta)
//! checkpoints with a crash/restore that lands on bit-identical results.
//!
//! Five acts:
//! 1. **Scaling table** — the same saturation-style traffic routed onto
//!    1 → 16 single-device shards, with throughput and scaling
//!    efficiency per row.
//! 2. **Ring placement** — where the scenario's tenants land, and how
//!    little moves when a shard joins.
//! 3. **Worker sweep** — heavy sharded traffic replayed at 1 → 8 worker
//!    threads (the caller's thread is worker 0): wall-clock per run
//!    moves while the merged `FleetReport` stays bit-identical.
//! 4. **Closed-loop shed storm** — completion-gated clients over a
//!    per-shard in-flight bound: the limiter sheds, the shed/retry
//!    schedule is tick-stamped into the trace, and none of it moves
//!    with the worker count.
//! 5. **Delta checkpoints** — a 2-shard, 2-worker fleet snapshotted
//!    every tick (one base, then dirty-job deltas), killed mid-run past
//!    a steal barrier (its helper thread joins and dies), and restored
//!    from the chain: the finished report matches an uninterrupted run
//!    bit for bit.
//!
//! ```text
//! cargo run --release --example sharded_fleet
//! LNLS_SEED=7 LNLS_SCALE=2 cargo run --release --example sharded_fleet
//! ```

use lnls::prelude::*;
use lnls::workload::ArrivalProcess;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

fn onemax_job(name: &str, seed: u64) -> BinaryJob<OneMax, KHamming> {
    let n = 24;
    let hood = KHamming::new(n, 2);
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

    println!(
        "=== lnls sharded fleet: ring placement, work stealing, worker threads, delta \
         checkpoints ===\n"
    );

    // ---- Act 1: shard-scaling table over the catalog's sharded scenario.
    println!("--- scaling: saturation traffic over 1 -> 16 single-device shards ---");
    println!(
        "{:>7} | {:>12} {:>10} {:>9} {:>7} {:>7}",
        "shards", "makespan(s)", "jobs/sim-s", "speedup", "effic", "shed"
    );
    let mut base_jps = 0.0f64;
    for shards in [1usize, 2, 4, 8, 16] {
        let scenario = Scenario::saturation_sharded_sized(48, shards, (160.0 * scale) as u64);
        let (_, report) = Driver::record(&scenario, seed);
        let f = &report.fleet;
        if shards == 1 {
            base_jps = f.jobs_per_sim_s;
        }
        let speedup = f.jobs_per_sim_s / base_jps;
        println!(
            "{:>7} | {:>12.6} {:>10.1} {:>8.2}x {:>6.0}% {:>7}",
            shards,
            f.makespan_s,
            f.jobs_per_sim_s,
            speedup,
            speedup / shards as f64 * 100.0,
            f.jobs_rejected,
        );
    }

    // ---- Act 2: where the ring places tenants, and rebalance cost.
    let fleet = fresh_fleet(4, 1);
    let tenants: Vec<String> = (0..48).map(|i| format!("org-{i:03}")).collect();
    let mut per_shard: BTreeMap<usize, usize> = BTreeMap::new();
    for t in &tenants {
        *per_shard.entry(fleet.shard_for(t)).or_default() += 1;
    }
    println!(
        "\n--- ring: 48 tenants over 4 shards ({} virtual nodes) ---",
        fleet.ring().len() * fleet.ring().replicas() as usize
    );
    for (shard, count) in &per_shard {
        println!("shard {shard}: {count:>2} tenants  [{}]", "#".repeat(*count));
    }
    let grown = fresh_fleet(5, 1);
    let moved = tenants
        .iter()
        .filter(|t| {
            let (from, to) = (fleet.shard_for(t), grown.shard_for(t));
            from != to && to != 4
        })
        .count();
    let to_new = tenants.iter().filter(|t| grown.shard_for(t) == 4).count();
    println!(
        "adding shard 4: {to_new} tenants move to it, {moved} shuffle between old shards \
         (consistent hashing moves only what the new shard claims)"
    );

    // ---- Act 3: the worker sweep. Same traffic, same bits.
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
        "\n--- workers: '{}' replayed at 1 -> 8 threads over 8 shards ({cores} core(s)) ---",
        heavy.name
    );
    println!("{:>8} | {:>9} {:>9} {:>12}", "workers", "wall(ms)", "speedup", "report bits");
    let mut one_worker_bits = String::new();
    let mut one_worker_ms = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let timer = Instant::now();
        let report = Driver::replay_with_workers(&heavy_trace, workers);
        let wall_ms = timer.elapsed().as_secs_f64() * 1e3;
        let bits = format!("{:?}", report.fleet);
        if workers == 1 {
            one_worker_bits = bits.clone();
            one_worker_ms = wall_ms;
        }
        println!(
            "{:>8} | {:>9.1} {:>8.2}x {:>12}",
            workers,
            wall_ms,
            one_worker_ms / wall_ms,
            if bits == one_worker_bits { "identical" } else { "DRIFTED" },
        );
        assert_eq!(bits, one_worker_bits, "worker threads must not change the report");
    }

    // ---- Act 4: closed-loop clients shedding at the in-flight bound.
    let storm = Scenario::closed_loop_saturation();
    let ArrivalProcess::ClosedLoop { clients, retry_after_ticks } = storm.arrivals else {
        unreachable!("closed_loop_saturation is closed-loop")
    };
    println!(
        "\n--- closed loop: '{}' ({clients} clients, retry after {retry_after_ticks} ticks) ---",
        storm.name,
    );
    println!("{:>8} | {:>6} {:>9} {:>7} {:>12}", "workers", "sheds", "attempts", "ticks", "trace");
    let mut one_worker_trace: Vec<u8> = Vec::new();
    for workers in [1usize, 2, 4] {
        let (trace, report) = Driver::record(&storm.clone().with_workers(workers), seed);
        let bytes = trace.to_bytes();
        if workers == 1 {
            one_worker_trace = bytes.clone();
        }
        println!(
            "{:>8} | {:>6} {:>9} {:>7} {:>12}",
            workers,
            report.bounced,
            trace.arrivals.len(),
            report.ticks,
            if bytes == one_worker_trace { "identical" } else { "DRIFTED" },
        );
        assert_eq!(bytes, one_worker_trace, "the attempt schedule must not move with workers");
    }

    // ---- Act 5: delta checkpoints + crash/restore past a steal barrier.
    let jobs = (24.0 * scale) as u64;
    let dir = std::env::temp_dir().join(format!("lnls-sharded-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // All jobs land on one tenant's shard, so the other shard starts
    // idle and the tick-barrier steal has something to do.
    let submit_all = |fleet: &mut ParallelFleet| {
        let tenant =
            (0..).map(|i| format!("hot-{i}")).find(|t| fleet.shard_for(t) == 0).expect("a name");
        for i in 0..jobs {
            fleet
                .submit_spec(JobSpec::new(onemax_job(&format!("job-{i}"), i)).for_tenant(&tenant))
                .expect("unbounded admission");
        }
    };

    // Reference: the same fleet run to completion without interruption.
    let mut reference = fresh_fleet(2, 2);
    submit_all(&mut reference);
    reference.run_until_idle();
    let reference_report = reference.fleet_report();

    // A run with a snapshot every tick, crashed after 6 ticks.
    let mut fleet = fresh_fleet(2, 2).with_checkpoint_dir(&dir, 8).expect("checkpoint dir opens");
    submit_all(&mut fleet);
    println!(
        "\n--- delta checkpoints: {jobs} jobs on 2 shards / 2 workers, snapshot per tick, \
         crash at tick 6 ---"
    );
    println!(
        "{:>5} {:>6} | {:>6} {:>9} {:>10} {:>7}",
        "tick", "kind", "bytes", "dirty", "queued", "stolen"
    );
    for tick in 1..=6u64 {
        fleet.tick();
        let stats = fleet.snapshot().expect("snapshots write");
        let s = &stats[0];
        println!(
            "{:>5} {:>6} | {:>6} {:>9} {:>10} {:>7}",
            tick,
            match s.kind {
                SnapshotKind::Base => "base",
                SnapshotKind::Delta => "delta",
            },
            s.bytes,
            s.dirty_jobs,
            fleet.queued_len(),
            fleet.steals(),
        );
    }
    let ticks_at_crash = fleet.ticks();
    let steals_before = fleet.steals();
    let workers_at_crash = fleet.worker_count();
    assert!(steals_before > 0, "the crash must come after a steal");
    drop(fleet); // the crash: every scheduler is gone and the helper thread joins

    let registry = JobRegistry::with_builtin();
    let mut restored = ParallelFleet::restore(
        ShardConfig::current(),
        AdmissionPolicy::unbounded(),
        &dir,
        &registry,
        ticks_at_crash,
        &[0, 0],
        workers_at_crash,
    )
    .expect("the chain restores");
    restored.run_until_idle();
    let restored_report = restored.fleet_report();

    let identical = format!("{reference_report:?}") == format!("{restored_report:?}");
    println!(
        "\ncrashed at tick {ticks_at_crash} ({steals_before} steal(s) already executed), \
         restored from base+deltas onto {workers_at_crash} workers, ran to idle:"
    );
    println!(
        "restored report vs. uninterrupted run: {}",
        if identical { "BIT-IDENTICAL" } else { "MISMATCH" }
    );
    println!("{restored_report}");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(identical, "delta-chain restore must land on the uninterrupted run's bits");
}
