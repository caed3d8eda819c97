//! The runtime subsystem as a service: a multi-tenant job mix — PPP
//! cryptanalysis tries, OneMax bulk jobs, simulated-annealing chains,
//! QAP assignments — submitted through the **one generic
//! `SearchJob` path** to a `FleetClient` fronting a simulated
//! multi-GPU fleet plus CPU workers. Shows admission control (queue
//! caps, shed-lowest-priority), placement policies, launch batching,
//! quantum-preemptive fair-share scheduling, cancellation,
//! checkpoint/resume (periodic delta checkpoints written by a
//! `DeltaCheckpointer`, revived after a crash from the newest chain),
//! and the fleet throughput report.
//!
//! ```text
//! cargo run --release --example fleet_service
//! LNLS_QUANTUM=8 cargo run --release --example fleet_service         # pick the slice
//! LNLS_QUEUE_CAP=6 cargo run --release --example fleet_service       # admission cap
//! LNLS_SELECTION=device cargo run --release --example fleet_service  # on-device argmin
//! LNLS_TRACE_OUT=/tmp cargo run --release --example fleet_service    # export observability artifacts
//! ```
//!
//! With `LNLS_TRACE_OUT=<dir>` set, one additional observed run writes
//! three artifacts into the directory: `fleet_events.jsonl` (the
//! structured event log), `fleet_trace.json` (Chrome trace-event JSON —
//! open in Perfetto or `chrome://tracing`), and `fleet_metrics.prom`
//! (Prometheus text exposition).

use lnls::core::{BitString, SearchConfig, SimulatedAnnealing, TabuSearch};
use lnls::gpu::{DeviceSpec, MultiDevice};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::ppp::{Ppp, PppInstance};
use lnls::prelude::*;
use lnls::qap::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn submit_tenants(fleet: &mut Scheduler) -> Vec<JobHandle> {
    let mut handles = Vec::new();

    // Tenant A: a PPP configuration run as several independent tries
    // (the paper's 50-try protocol, shrunk for example runtime). Same
    // instance shape → the tries fuse into batched launches.
    for t in 0..6u64 {
        let problem = Ppp::new(PppInstance::generate(49, 49, 7));
        let hood = KHamming::new(49, 2);
        let mut rng = StdRng::seed_from_u64(t);
        let init = BitString::random(&mut rng, 49);
        let search = TabuSearch::paper(SearchConfig::budget(120).with_seed(t), hood.size());
        handles.push(
            fleet.submit(
                BinaryJob::new(format!("ppp-49x49-try{t}"), problem, hood, search, init)
                    .with_priority(5),
            ),
        );
    }

    // Tenant B: bulk OneMax jobs (low priority).
    for t in 0..8u64 {
        let hood = KHamming::new(64, 2);
        let mut rng = StdRng::seed_from_u64(100 + t);
        let init = BitString::random(&mut rng, 64);
        let search = TabuSearch::paper(SearchConfig::budget(80).with_seed(t), hood.size());
        handles.push(fleet.submit(BinaryJob::new(
            format!("onemax-64-{t}"),
            OneMax::new(64),
            hood,
            search,
            init,
        )));
    }

    // Tenant C: QAP assignments — long robust-tabu runs, steppable
    // cursors that preempt and checkpoint mid-run like everyone else.
    for t in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(200 + t);
        let inst = QapInstance::random_uniform(&mut rng, 12);
        let init = Permutation::random(&mut rng, 12);
        handles.push(fleet.submit(QapJobSpec::new(
            format!("qap-12-{t}"),
            inst,
            RtsConfig::budget(150).with_seed(t),
            init,
        )));
    }

    // Tenant D: simulated-annealing chains — the sampling-style
    // workload, scheduled through the very same generic entry point.
    for t in 0..2u64 {
        let hood = KHamming::new(48, 2);
        let mut rng = StdRng::seed_from_u64(300 + t);
        let init = BitString::random(&mut rng, 48);
        let sa = SimulatedAnnealing::new(SearchConfig::budget(160).with_seed(t), hood, 1.5);
        handles.push(fleet.submit(AnnealJob::new(format!("sa-48-{t}"), OneMax::new(48), sa, init)));
    }
    handles
}

fn main() {
    let quantum: u64 = std::env::var("LNLS_QUANTUM").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let queue_cap: Option<usize> =
        std::env::var("LNLS_QUEUE_CAP").ok().and_then(|v| v.parse().ok());
    // LNLS_SELECTION=device prices the on-device argmin reduction: one
    // extra launch per fused iteration, one packed record per lane read
    // back instead of the whole fitness array. Results are identical.
    let selection = match std::env::var("LNLS_SELECTION").as_deref() {
        Ok("device") => SelectionMode::DeviceArgmin,
        _ => SelectionMode::HostArgmin,
    };
    println!("=== lnls fleet service: 18 jobs, 2×GTX 280 + 2 CPU workers ({selection:?}) ===\n");

    for (label, policy, max_batch, quantum_iters) in [
        ("round-robin, batching off          ", PlacePolicy::RoundRobin, 1, None),
        ("round-robin, batching on           ", PlacePolicy::RoundRobin, 4, None),
        ("least-loaded, batching on          ", PlacePolicy::LeastLoaded, 4, None),
        ("least-loaded, batching + preemption", PlacePolicy::LeastLoaded, 4, Some(quantum)),
    ] {
        let mut fleet = Scheduler::new(
            MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
            SchedulerConfig {
                policy,
                max_batch,
                cpu_workers: 2,
                quantum_iters,
                selection,
                ..Default::default()
            },
        );
        submit_tenants(&mut fleet);
        fleet.run_until_idle();
        let r = fleet.fleet_report();
        println!(
            "{label}: makespan {:>9.4}s  speedup ×{:>5.2}  fused {:>3}  max-wait {:>9.6}s  preempt {:>3}  d2h {:>7.0} B/iter",
            r.makespan_s, r.speedup_vs_serial, r.fused_launches, r.max_wait_s, r.preemptions,
            r.d2h_bytes_per_iteration()
        );
    }

    // Admission control: bulk submissions pushed through a FleetClient
    // with a queue cap (LNLS_QUEUE_CAP, default 6) and
    // shed-lowest-priority: high-priority arrivals evict queued bulk
    // work; same-priority arrivals bounce with a typed SubmitError.
    let cap = queue_cap.unwrap_or(6);
    println!("--- admission control (queue cap {cap}, shed-lowest-priority) ---");
    let fleet = Scheduler::new(
        MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        SchedulerConfig { quantum_iters: Some(quantum), selection, ..Default::default() },
    );
    let mut client = FleetClient::new(fleet, AdmissionPolicy::queue_cap(cap).with_shedding());
    let mut admitted = 0u64;
    let mut rejections: Vec<SubmitError> = Vec::new();
    for t in 0..12u64 {
        let hood = KHamming::new(40, 2);
        let mut rng = StdRng::seed_from_u64(400 + t);
        let init = BitString::random(&mut rng, 40);
        let search = TabuSearch::paper(SearchConfig::budget(60).with_seed(t), hood.size());
        let job = BinaryJob::new(format!("bulk-{t}"), OneMax::new(40), hood, search, init);
        let spec =
            JobSpec::new(job).with_priority(if t % 2 == 1 { 4 } else { 0 }).for_tenant("bulk");
        match client.submit_spec(spec) {
            Ok(_) => admitted += 1,
            Err(e) => rejections.push(e),
        }
    }
    client.run_until_idle();
    let r = client.fleet_report();
    println!(
        "admitted {admitted}, rejected {} total ({} shed, {} bounced); first bounce: {}\n",
        r.jobs_rejected,
        r.tenant_stats.iter().filter(|t| t.rejected).count(),
        rejections.len(),
        rejections.first().map_or("none".to_string(), |e| e.to_string()),
    );

    // Fairness: the same tenants, one device, with and without slicing.
    // The long QAP runs monopolize the device unless preempted; results
    // are bit-identical either way.
    println!("--- fair-share time slicing (1 device, quantum = {quantum} iterations) ---");
    let run_one_device = |quantum_iters| {
        let mut fleet = Scheduler::new(
            MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
            SchedulerConfig { quantum_iters, selection, ..Default::default() },
        );
        submit_tenants(&mut fleet);
        fleet.run_until_idle();
        fleet.fleet_report()
    };
    let plain = run_one_device(None);
    let sliced = run_one_device(Some(quantum));
    println!(
        "run-to-completion: max wait {:>9.6}s  mean wait {:>9.6}s",
        plain.max_wait_s, plain.mean_wait_s
    );
    println!(
        "preemptive       : max wait {:>9.6}s  mean wait {:>9.6}s  ({} preemptions)",
        sliced.max_wait_s, sliced.mean_wait_s, sliced.preemptions
    );

    // Cancellation: drain a tenant at the next quantum boundary.
    println!("\n--- cancellation ---");
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
        SchedulerConfig {
            cpu_workers: 2,
            quantum_iters: Some(quantum),
            selection,
            ..Default::default()
        },
    );
    let handles = submit_tenants(&mut fleet);
    for _ in 0..5 {
        fleet.tick();
    }
    let victim = handles[14]; // qap-12-0, mid-run by now
    let accepted = fleet.cancel(victim);
    fleet.run_until_idle();
    let report = fleet.report(victim).expect("cancelled jobs still report");
    println!(
        "cancel accepted: {accepted}; {} drained after {} iterations (best so far {})",
        report.name,
        report.outcome.iterations(),
        report.outcome.best_fitness(),
    );

    // Checkpoint/resume: snapshot every 4 ticks through a delta
    // checkpointer (a base, then dirty-job deltas against it), "crash"
    // mid-flight, and revive the newest chain in a fresh
    // process-equivalent scheduler.
    println!("\n--- crash/restore through periodic delta checkpoints ---");
    let ckpt_dir = std::env::temp_dir().join(format!("lnls-fleet-service-{}", std::process::id()));
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let mut checkpointer = DeltaCheckpointer::open(&ckpt_dir, 8).expect("open checkpoint dir");
    let mut fleet = Scheduler::new(
        MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
        SchedulerConfig {
            cpu_workers: 2,
            quantum_iters: Some(quantum),
            selection,
            ..Default::default()
        },
    );
    let handles = submit_tenants(&mut fleet);
    let mut snapshots = 0;
    for tick in 1..=10u64 {
        fleet.tick();
        if tick % 4 == 0 {
            checkpointer.snapshot(&fleet).expect("write checkpoint segment");
            snapshots += 1;
        }
    }
    drop(fleet); // the "crash": in-memory state is gone

    let registry = JobRegistry::with_builtin();
    let revived = checkpointer.store().load_latest(&registry).expect("replay the newest chain");
    let resumed_at = revived.ticks();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let mut fleet = Scheduler::restore(revived);
    fleet.run_until_idle();
    println!(
        "crashed after {snapshots} snapshots; revived at tick {resumed_at}, the fleet finished all {} jobs ({} cancelled)",
        fleet.fleet_report().jobs_completed + fleet.fleet_report().jobs_cancelled,
        fleet.fleet_report().jobs_cancelled,
    );

    // Poll one tenant's handles like a client would.
    println!("\n--- per-job reports (tenant A) ---");
    for h in handles.iter().take(6).copied() {
        let report = fleet.report(h).expect("fleet is idle");
        println!(
            "{:<18} {:>9} iters  best {:>3}  fused {:>4} iters  wait {:.4}s  {} @ [{:.4}s .. {:.4}s]",
            report.name,
            report.outcome.iterations(),
            report.outcome.best_fitness(),
            report.fused_iterations,
            report.wait_s(),
            report.backend,
            report.started_s,
            report.finished_s,
        );
    }

    // Observability export: one more run of the same tenant mix with a
    // shared event ring and a live metrics registry attached, lowered
    // into the three artifact files. Attaching observers is passive —
    // this run prices identically to the unobserved ones above.
    if let Ok(dir) = std::env::var("LNLS_TRACE_OUT") {
        println!("\n--- observability export ---");
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create trace output directory");
        let mut fleet = Scheduler::new(
            MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
            SchedulerConfig {
                cpu_workers: 2,
                quantum_iters: Some(quantum),
                selection,
                ..Default::default()
            },
        );
        let ring = RingSink::unbounded().shared();
        fleet.attach_sink(Box::new(ring.clone()));
        fleet.enable_metrics();
        submit_tenants(&mut fleet);
        fleet.run_until_idle();

        let records = ring.lock().unwrap().records();
        let events_path = dir.join("fleet_events.jsonl");
        let mut jsonl = String::new();
        for record in &records {
            jsonl.push_str(&record.to_json());
            jsonl.push('\n');
        }
        std::fs::write(&events_path, jsonl).expect("write event log");

        let trace_path = dir.join("fleet_trace.json");
        std::fs::write(&trace_path, chrome_trace(&records)).expect("write chrome trace");

        let metrics = fleet.take_metrics().expect("metrics were enabled");
        let prom_path = dir.join("fleet_metrics.prom");
        std::fs::write(&prom_path, metrics.render_prometheus()).expect("write metrics");

        println!(
            "wrote {} events to {}, chrome trace to {}, metrics to {}",
            records.len(),
            events_path.display(),
            trace_path.display(),
            prom_path.display()
        );
    }

    println!("\n--- final fleet report ---\n{}", fleet.fleet_report());
}
