//! Workload-scenario bench: every catalog scenario driven end to end
//! through the record/replay driver, reporting modeled throughput, tail
//! latency and backpressure — the regression surface of the scheduling
//! claims.
//!
//! ```text
//! cargo bench -p lnls-bench --bench workload
//! LNLS_WORKLOAD_SCALE=4 cargo bench -p lnls-bench --bench workload   # heavier traffic
//! ```
//!
//! Every row also lands in `BENCH_fleet.json` (path overridable with
//! `LNLS_BENCH_JSON_PATH`), merged with the fleet bench's rows, so the
//! perf trajectory is machine-trackable across PRs.

use lnls_core::{BitString, SearchConfig, TabuSearch};
use lnls_gpu_sim::{DeviceSpec, EngineConfig, SelectionMode};
use lnls_neighborhood::{KHamming, Neighborhood};
use lnls_ppp::{Ppp, PppInstance};
use lnls_runtime::{BinaryJob, RingSink, Scheduler, SchedulerConfig};
use lnls_workload::{Driver, Scenario, TrafficGen};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let scale: f64 =
        std::env::var("LNLS_WORKLOAD_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
    let seed: u64 = std::env::var("LNLS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let mut json = criterion::summary::Sink::new("BENCH_fleet.json", "workload");

    println!("workload catalog sweep: scale ×{scale}, seed {seed}\n");
    println!(
        "{:>20} {:>5} | {:>12} {:>10} {:>12} {:>12} {:>9} {:>7} | {:>9}",
        "scenario",
        "jobs",
        "makespan(s)",
        "jobs/sim-s",
        "p95-wait(s)",
        "p99-turn(s)",
        "busy-frac",
        "reject",
        "sim-wall"
    );
    for scenario in Scenario::catalog() {
        let scenario = scenario.scaled(scale);
        let t0 = Instant::now();
        let (_, report) = Driver::record(&scenario, seed);
        let wall = t0.elapsed();
        let f = &report.fleet;
        let telemetry = f.telemetry.as_ref().expect("scenarios record telemetry");
        println!(
            "{:>20} {:>5} | {:>12.6} {:>10.1} {:>12.6} {:>12.6} {:>8.0}% {:>7} | {:>7.0}ms",
            report.scenario,
            report.submitted,
            f.makespan_s,
            f.jobs_per_sim_s,
            f.wait_p95_s,
            f.turnaround_p99_s,
            f.mean_device_utilization() * 100.0,
            f.jobs_rejected,
            wall.as_secs_f64() * 1e3,
        );
        json.record(&[
            ("scenario", report.scenario.as_str().into()),
            ("seed", seed.into()),
            ("jobs", report.submitted.into()),
            ("makespan_s", f.makespan_s.into()),
            ("throughput_jobs_per_sim_s", f.jobs_per_sim_s.into()),
            ("p50_wait_s", f.wait_p50_s.into()),
            ("p95_wait_s", f.wait_p95_s.into()),
            ("p99_wait_s", f.wait_p99_s.into()),
            ("p99_turnaround_s", f.turnaround_p99_s.into()),
            ("device_busy_fraction", f.mean_device_utilization().into()),
            ("max_queue_depth", telemetry.max_queue_depth().into()),
            ("jobs_rejected", f.jobs_rejected.into()),
            ("jobs_cancelled", f.jobs_cancelled.into()),
            ("crashes", report.crashes.into()),
        ]);
    }

    // Fleet-knob sweep: every catalog scenario re-run under the four
    // (engine layout × selection mode) combinations — the overlap +
    // argmin pricing trajectory. Traffic and search results are
    // identical across a row's four runs (the knobs are pricing-only);
    // what moves is the stream makespan and the PCIe bytes per
    // iteration.
    println!(
        "\n{:>20} {:>7} {:>7} | {:>12} {:>12} {:>9} | {:>12}",
        "scenario", "engines", "argmin", "makespan(s)", "serial(s)", "overlap", "d2h B/iter"
    );
    for scenario in Scenario::catalog() {
        for (engines, ename) in [(EngineConfig::gt200(), "gt200"), (EngineConfig::fermi(), "fermi")]
        {
            for (selection, sname) in
                [(SelectionMode::HostArgmin, "host"), (SelectionMode::DeviceArgmin, "device")]
            {
                let scenario = scenario.clone().scaled(scale).with_fleet_knobs(engines, selection);
                let (_, report) = Driver::record(&scenario, seed);
                let f = &report.fleet;
                println!(
                    "{:>20} {:>7} {:>7} | {:>12.6} {:>12.6} {:>8.3}x | {:>12.0}",
                    report.scenario,
                    ename,
                    sname,
                    f.stream_makespan_s,
                    f.stream_serialized_s,
                    f.stream_overlap_factor(),
                    f.d2h_bytes_per_iteration(),
                );
                json.record(&[
                    ("scenario", format!("{}/{ename}/{sname}", report.scenario).into()),
                    ("seed", seed.into()),
                    ("jobs", report.submitted.into()),
                    ("makespan_s", f.makespan_s.into()),
                    ("fused_stream_makespan_s", f.stream_makespan_s.into()),
                    ("fused_serial_sum_s", f.stream_serialized_s.into()),
                    ("stream_overlap_factor", f.stream_overlap_factor().into()),
                    ("h2d_bytes_per_iter", f.h2d_bytes_per_iteration().into()),
                    ("d2h_bytes_per_iter", f.d2h_bytes_per_iteration().into()),
                ]);
            }
        }
    }

    // Span-pipelining sweep: every catalog scenario re-run on a Fermi
    // layout with multi-iteration fused spans — per-iteration launches
    // first (pure double-buffered pipelining), then a persistent span
    // (pipelining plus launch-overhead amortization). Pricing-only
    // again: the per-iteration column of span 1 is exactly the fermi
    // row of the knob sweep above.
    println!(
        "\n{:>20} {:>18} | {:>12} {:>12} {:>10} {:>12}",
        "scenario", "span", "makespan(s)", "serial(s)", "iters/span", "ovh-saved(s)"
    );
    let span_settings = [
        (1u64, lnls_gpu_sim::LaunchMode::PerIteration, "span1/per-iter"),
        (8, lnls_gpu_sim::LaunchMode::PerIteration, "span8/per-iter"),
        (8, lnls_gpu_sim::LaunchMode::PersistentSpan, "span8/persistent"),
    ];
    for scenario in Scenario::catalog() {
        for (span, mode, label) in span_settings {
            let scenario = scenario
                .clone()
                .scaled(scale)
                .with_fleet_knobs(EngineConfig::fermi(), SelectionMode::HostArgmin)
                .with_span_knobs(span, mode);
            let (_, report) = Driver::record(&scenario, seed);
            let f = &report.fleet;
            println!(
                "{:>20} {:>18} | {:>12.6} {:>12.6} {:>10.2} {:>12.9}",
                report.scenario,
                label,
                f.stream_makespan_s,
                f.stream_serialized_s,
                f.mean_span_iterations(),
                f.launch_overhead_saved_s,
            );
            json.record(&[
                ("scenario", format!("{}/fermi/{label}", report.scenario).into()),
                ("seed", seed.into()),
                ("jobs", report.submitted.into()),
                ("makespan_s", f.makespan_s.into()),
                ("fused_stream_makespan_s", f.stream_makespan_s.into()),
                ("fused_serial_sum_s", f.stream_serialized_s.into()),
                ("stream_overlap_factor", f.stream_overlap_factor().into()),
                ("spans", f.spans.into()),
                ("mean_span_iterations", f.mean_span_iterations().into()),
                ("launch_overhead_saved_s", f.launch_overhead_saved_s.into()),
            ]);
        }
    }

    // Shard-scaling sweep: the same saturation-style traffic (96
    // generated tenants, fixed submission count) routed by consistent
    // hashing onto 1 → 64 single-device shards. Modeled throughput is
    // the merged fleet's jobs per simulated second; efficiency is
    // throughput over the 1-shard baseline divided by the shard count
    // (1.0 = perfect linear scaling — the tail flattens as the fixed
    // traffic stops saturating the fleet, which is the honest shape of
    // strong scaling).
    println!(
        "\n{:>20} {:>7} | {:>12} {:>10} {:>10} {:>7} | {:>9}",
        "scenario", "shards", "makespan(s)", "jobs/sim-s", "speedup", "effic", "sim-wall"
    );
    let mut base_jps = 0.0f64;
    for shards in [1usize, 2, 4, 8, 16, 32, 64] {
        let scenario = Scenario::saturation_sharded_sized(96, shards, (384.0 * scale) as u64);
        let t0 = Instant::now();
        let (_, report) = Driver::record(&scenario, seed);
        let wall = t0.elapsed();
        let f = &report.fleet;
        if shards == 1 {
            base_jps = f.jobs_per_sim_s;
        }
        let speedup = f.jobs_per_sim_s / base_jps;
        let efficiency = speedup / shards as f64;
        println!(
            "{:>20} {:>7} | {:>12.6} {:>10.1} {:>9.2}x {:>6.0}% | {:>7.0}ms",
            report.scenario,
            shards,
            f.makespan_s,
            f.jobs_per_sim_s,
            speedup,
            efficiency * 100.0,
            wall.as_secs_f64() * 1e3,
        );
        json.record(&[
            ("scenario", format!("saturation-sharded/shards-{shards}").into()),
            ("seed", seed.into()),
            ("shards", (shards as u64).into()),
            ("jobs", report.submitted.into()),
            ("makespan_s", f.makespan_s.into()),
            ("throughput_jobs_per_sim_s", f.jobs_per_sim_s.into()),
            ("scaling_speedup", speedup.into()),
            ("scaling_efficiency", efficiency.into()),
            ("jobs_rejected", f.jobs_rejected.into()),
            ("device_busy_fraction", f.mean_device_utilization().into()),
        ]);
    }

    // Worker-scaling sweep: one heavy trace (big neighborhoods, long
    // quanta — per-shard compute dominates the per-tick handoff)
    // recorded once, then replayed on the true-parallel runtime at
    // 1 → 8 worker threads. Modeled results are bit-identical at every
    // count — the parallel runtime is an execution detail — so the
    // tracked number is *wall clock*: real seconds to replay the same
    // trace, and real speedup over the 1-worker (serial-path) replay.
    // Wall speedup is bounded by min(workers, cores) and, on this
    // trace, by shard balance: most ticks have one busy shard, so extra
    // workers mostly add fork/join cost. Each row records the host's
    // core count.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;
    println!(
        "\n{:>20} {:>8} | {:>10} {:>9} {:>7} | {:>12}   ({cores} core(s) available)",
        "scenario", "workers", "wall(ms)", "speedup", "effic", "report"
    );
    let heavy = {
        let mut s = Scenario::saturation_sharded_sized(32, 8, (48.0 * scale) as u64);
        s.name = "heavy-parallel".into();
        s.summary = "compute-heavy sharded traffic for the worker-thread sweep".into();
        for t in &mut s.tenants {
            t.dims = vec![96];
            t.iters = (192, 256);
        }
        s.fleet.quantum_iters = Some(64);
        s
    };
    let (heavy_trace, _) = Driver::record(&heavy, seed);
    let mut serial_wall = 0.0f64;
    let mut serial_bits = String::new();
    for workers in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let report = Driver::replay_with_workers(&heavy_trace, workers);
        let wall = t0.elapsed().as_secs_f64();
        let bits = format!("{:?}", report.fleet);
        if workers == 1 {
            serial_wall = wall;
            serial_bits = bits.clone();
        }
        let speedup = serial_wall / wall;
        assert_eq!(bits, serial_bits, "worker threads must not change the replayed bits");
        println!(
            "{:>20} {:>8} | {:>10.0} {:>8.2}x {:>6.0}% | {:>12}",
            heavy.name,
            workers,
            wall * 1e3,
            speedup,
            speedup / workers as f64 * 100.0,
            "identical",
        );
        json.record(&[
            ("scenario", format!("heavy-parallel/workers-{workers}").into()),
            ("seed", seed.into()),
            ("workers", (workers as u64).into()),
            ("cores", cores.into()),
            ("shards", (heavy.fleet.shards as u64).into()),
            ("jobs", (heavy_trace.arrivals.len() as u64).into()),
            ("replay_wall_s", wall.into()),
            ("wall_speedup", speedup.into()),
            ("wall_efficiency", (speedup / workers as f64).into()),
        ]);
    }

    // Delta-checkpoint size curve: fleets of growing live-job counts
    // snapshotted with the rotating base + dirty-delta checkpointer.
    // The drain cadence (max_batch) is held fixed, so per-tick churn is
    // constant while fleet state grows — base bytes must grow with the
    // fleet, delta bytes must track the (constant) churn. That gap is
    // the whole point of incremental checkpoints.
    println!(
        "\n{:>12} | {:>12} {:>12} {:>12} {:>10}",
        "live jobs", "base(B)", "mean-dlt(B)", "dlt/base", "dirty/dlt"
    );
    for live_jobs in [64usize, 128, 256, 512] {
        let dir = std::env::temp_dir()
            .join(format!("lnls-bench-delta-{live_jobs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = lnls_runtime::Scheduler::with_uniform_fleet(
            1,
            lnls_gpu_sim::DeviceSpec::gtx280(),
            lnls_runtime::SchedulerConfig {
                max_batch: 4,
                quantum_iters: Some(8),
                ..Default::default()
            },
        );
        for i in 0..live_jobs {
            let n = 24;
            let hood = lnls_neighborhood::KHamming::new(n, 2);
            let size = lnls_neighborhood::Neighborhood::size(&hood);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i as u64);
            let init = lnls_core::BitString::random(&mut rng, n);
            let search = lnls_core::TabuSearch::paper(
                lnls_core::SearchConfig::budget(64).with_seed(i as u64).with_target(None),
                size,
            );
            fleet.submit(lnls_runtime::BinaryJob::new(
                format!("curve-{i}"),
                lnls_problems::OneMax::new(n),
                hood,
                search,
                init,
            ));
        }
        let mut ckpt =
            lnls_runtime::DeltaCheckpointer::open(&dir, 64).expect("bench checkpoint dir opens");
        let base = ckpt.snapshot(&fleet).expect("base snapshot");
        let mut delta_bytes = 0u64;
        let mut dirty = 0usize;
        let ticks = 6u64;
        for _ in 0..ticks {
            fleet.tick();
            let stats = ckpt.snapshot(&fleet).expect("delta snapshot");
            delta_bytes += stats.bytes;
            dirty += stats.dirty_jobs;
        }
        let mean_delta = delta_bytes as f64 / ticks as f64;
        let mean_dirty = dirty as f64 / ticks as f64;
        println!(
            "{:>12} | {:>12} {:>12.0} {:>11.1}% {:>10.1}",
            live_jobs,
            base.bytes,
            mean_delta,
            mean_delta / base.bytes as f64 * 100.0,
            mean_dirty,
        );
        json.record(&[
            ("scenario", format!("delta-checkpoint/jobs-{live_jobs}").into()),
            ("seed", seed.into()),
            ("live_jobs", (live_jobs as u64).into()),
            ("base_bytes", base.bytes.into()),
            ("mean_delta_bytes", mean_delta.into()),
            ("delta_to_base_ratio", (mean_delta / base.bytes as f64).into()),
            ("mean_dirty_jobs_per_delta", mean_dirty.into()),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Observability overhead: the same trace replayed bare, with a
    // structured event sink, and with a live metrics registry. Reports
    // are bit-identical by construction (the neutrality proptest pins
    // that); what this row tracks is the *wall-time* cost of observing.
    let trace = TrafficGen::lower(&Scenario::saturation().scaled(scale), seed);
    let wall_of = |label: &str, f: &dyn Fn() -> u64| {
        let t0 = Instant::now();
        let events = f();
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        println!("{label:>20}: {wall:>7.1}ms ({events} events)");
        wall
    };
    println!("\nobservability overhead (saturation, wall-clock):");
    let bare_ms = wall_of("bare replay", &|| {
        Driver::replay(&trace);
        0
    });
    let observed_ms = wall_of("ring-sink replay", &|| {
        let ring = RingSink::unbounded().shared();
        Driver::replay_observed(&trace, Box::new(ring.clone()));
        let events = ring.lock().unwrap().len() as u64;
        events
    });
    let metered_ms = wall_of("metered replay", &|| {
        let (_, metrics) = Driver::replay_metered(&trace);
        metrics.counter("fleet_quanta_total")
    });
    json.record(&[
        ("scenario", "saturation/observability".into()),
        ("seed", seed.into()),
        ("bare_replay_ms", bare_ms.into()),
        ("observed_replay_ms", observed_ms.into()),
        ("metered_replay_ms", metered_ms.into()),
    ]);

    // The paper's own regime: 3-Hamming tabu on its 73×73 and 101×117
    // PPP instances (62,196 and 260,130 moves per iteration), a few jobs
    // of a few iterations each on one device. Nearly all of the wall time
    // is the PPP's `eval_range` kernel, so the row tracks its wall cost
    // per move as well as the replay's wall time.
    println!(
        "\n{:>20} {:>5} {:>6} {:>9} | {:>10} {:>10}",
        "scenario", "jobs", "iters", "moves/it", "wall(ms)", "ns/move"
    );
    for (m, n, jobs, iters) in [(73usize, 73usize, 3u64, 3u64), (101, 117, 2, 2)] {
        let hood = KHamming::new(n, 3);
        let mut fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        for job in 0..jobs {
            let job_seed = seed.wrapping_add(job);
            let problem = Ppp::new(PppInstance::generate(m, n, job_seed));
            let init = BitString::random(&mut StdRng::seed_from_u64(job_seed), n);
            let config = SearchConfig::budget(iters).with_seed(job_seed).with_target(None);
            let search = TabuSearch::paper(config, hood.size());
            fleet.submit(BinaryJob::new(format!("ppp-paper-{job}"), problem, hood, search, init));
        }
        let t0 = Instant::now();
        fleet.run_until_idle();
        let wall = t0.elapsed().as_secs_f64();
        let iterations = fleet.fleet_report().iterations_executed;
        let ns_per_move = wall * 1e9 / (iterations * hood.size()) as f64;
        let scenario = format!("ppp-paper/{m}x{n}-k3");
        println!(
            "{:>20} {:>5} {:>6} {:>9} | {:>10.1} {:>10.1}",
            scenario,
            jobs,
            iterations,
            hood.size(),
            wall * 1e3,
            ns_per_move
        );
        json.record(&[
            ("scenario", scenario.into()),
            ("seed", seed.into()),
            ("jobs", jobs.into()),
            ("iterations", iterations.into()),
            ("moves_per_iteration", hood.size().into()),
            ("replay_wall_s", wall.into()),
            ("ns_per_move", ns_per_move.into()),
        ]);
    }

    match json.finish() {
        Ok(path) => println!("\nmachine-readable summary: {}", path.display()),
        Err(e) => eprintln!("\ncould not write bench summary: {e}"),
    }
    println!("the nine scenarios cover: steady-state, burst storms vs. caps, priority inversion,");
    println!("deadline pressure, crash/restore churn, mixed-family saturation, destroy-and-repair");
    println!("LNS, portfolio races and sharded saturation — each one a deterministic");
    println!("(scenario, seed) pair any regression can replay bit-identically.");
}
