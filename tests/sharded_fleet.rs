//! The sharding layer's external contracts, held through the facade:
//!
//! * **Degeneracy** — the driver runs every trace on a `ParallelFleet`;
//!   on one shard, over any catalog scenario's trace, its report is
//!   Debug-bit-identical to a hand-written loop over a bare
//!   [`FleetClient`]. Sharding must be a pure superset, not a parallel
//!   implementation that drifts.
//! * **Config versioning** — a trace recorded under config v1 replays
//!   deterministically under v1 ring/steal semantics, and those
//!   semantics observably differ from v2's.
//! * **Typed chain errors** — a delta chain missing its base, missing a
//!   middle delta, or holding a truncated segment is refused with a
//!   [`CheckpointError`] naming the exact segment, never a panic or a
//!   silently wrong restore.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::neighborhood::{Neighborhood, TwoHamming};
use lnls::prelude::{
    BinaryJob, CheckpointError, CheckpointStore, DeltaCheckpointer, DeviceSpec, Driver,
    FleetClient, FleetReport, HashRing, JobRegistry, MultiDevice, OneMax, Scenario, Scheduler,
    SchedulerConfig, ShardConfig, SnapshotKind, Trace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};

/// Run a lowered trace through a **bare** [`FleetClient`] — no shard
/// layer at all — with the delivery rule the driver documents, returning
/// the fleet report. The driver itself always builds a sharded fleet,
/// so this hand loop is the independent reference it is pitted against.
fn run_on_bare_client(trace: &Trace) -> FleetReport {
    let spec = DeviceSpec::gtx280().with_engines(trace.fleet.engines);
    let config = SchedulerConfig {
        cpu_workers: trace.fleet.cpu_workers,
        max_batch: trace.fleet.max_batch,
        quantum_iters: trace.fleet.quantum_iters,
        telemetry_every_ticks: Some(trace.fleet.telemetry_every_ticks),
        telemetry_max_samples: trace.fleet.telemetry_max_samples,
        selection: trace.fleet.selection,
        span_iters: trace.fleet.span_iters,
        launch_mode: trace.fleet.launch_mode,
        ..Default::default()
    };
    let scheduler = Scheduler::new(MultiDevice::new_uniform(trace.fleet.devices, spec), config);
    let mut client = FleetClient::new(scheduler, trace.admission.clone());
    client.set_inflight_limit(trace.fleet.max_inflight);
    let mut next = 0usize;
    let mut ticks = 0u64;
    loop {
        while let Some(arrival) = trace.arrivals.get(next) {
            let scheduler = client.scheduler();
            let due = match arrival.at_tick {
                Some(t) => ticks >= t,
                None => {
                    arrival.at_s <= scheduler.now_s()
                        || (scheduler.queued_len() == 0 && scheduler.running_len() == 0)
                }
            };
            if !due {
                break;
            }
            let _ = arrival.submit(&mut client);
            next += 1;
        }
        let progressed = client.tick();
        ticks += 1;
        if !progressed && next >= trace.arrivals.len() {
            break;
        }
    }
    client.fleet_report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every catalog scenario and any seed, the driver's 1-shard
    /// fleet produces the same `FleetReport` — bit for bit, every f64
    /// through its exact Debug rendering — as a bare scheduler loop.
    #[test]
    fn one_shard_fleet_is_bit_identical_to_the_bare_path(
        scenario_idx in 0usize..9,
        seed in 0u64..500,
    ) {
        let mut scenario = Scenario::catalog()[scenario_idx].clone();
        scenario.fleet.shards = 1;
        scenario.crash_at_tick = None; // the hand loop has no crash machinery
        let (trace, sharded) = Driver::record(&scenario, seed);
        let bare = run_on_bare_client(&trace);
        prop_assert_eq!(
            format!("{:?}", sharded.fleet),
            format!("{:?}", bare),
            "scenario '{}' seed {}: one shard must be a bare scheduler, bit for bit",
            scenario.name,
            seed
        );
    }
}

/// A trace recorded under config v1 keeps v1 semantics on replay —
/// bit-identically — and those semantics are observably different from
/// v2's (the ring places at least one of the scenario's tenants on a
/// different shard).
#[test]
fn traces_recorded_under_v1_replay_with_v1_semantics() {
    let mut scenario = Scenario::saturation_sharded();
    scenario.fleet.config_version = 1;
    let (trace, recorded) = Driver::record(&scenario, 17);

    let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("v1 traces round-trip");
    assert_eq!(reloaded.fleet.config_version, 1, "the trace must carry its recorded version");
    let replayed = Driver::replay(&reloaded);
    assert_eq!(
        format!("{:?}", recorded.fleet),
        format!("{:?}", replayed.fleet),
        "a v1 trace must replay bit-identically under v1 semantics"
    );

    // The versions genuinely differ: v1's sparser ring routes at least
    // one of this scenario's tenants to a different shard than v2's.
    let v1 = ShardConfig::for_version(1).unwrap();
    let v2 = ShardConfig::for_version(2).unwrap();
    let ring_v1 = HashRing::new(scenario.fleet.shards, v1.ring_replicas);
    let ring_v2 = HashRing::new(scenario.fleet.shards, v2.ring_replicas);
    let moved =
        trace.arrivals.iter().any(|a| ring_v1.shard_for(&a.tenant) != ring_v2.shard_for(&a.tenant));
    assert!(moved, "v1 and v2 rings must place this tenant set differently");
}

fn onemax_job(name: &str, seed: u64) -> BinaryJob<OneMax, TwoHamming> {
    let n = 24;
    let hood = TwoHamming::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(60).with_seed(seed).with_target(None), hood.size());
    BinaryJob::new(name, OneMax::new(n), hood, search, init)
}

/// Write a base + several deltas into `dir` (jobs still in flight, so
/// every delta is non-trivial) and return the segment file names.
fn build_chain(dir: &Path) -> Vec<String> {
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..6 {
        fleet.submit(onemax_job(&format!("chain-{i}"), i));
    }
    let mut ckpt = DeltaCheckpointer::open(dir, 8).expect("store opens");
    let first = ckpt.snapshot(&fleet).expect("base writes");
    assert_eq!(first.kind, SnapshotKind::Base);
    for _ in 0..3 {
        fleet.tick();
        let stats = ckpt.snapshot(&fleet).expect("delta writes");
        assert_eq!(stats.kind, SnapshotKind::Delta);
        assert!(stats.dirty_jobs > 0, "in-flight jobs must dirty every delta");
    }
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("chain dir lists")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8 name"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 4, "one base and three deltas: {names:?}");
    names
}

/// `FleetCheckpoint` carries live job state and has no `Debug`, so
/// `expect_err` cannot unwrap the chain-load result directly.
fn load_err(dir: &Path, registry: &JobRegistry) -> CheckpointError {
    match CheckpointStore::open(dir).expect("store opens").load_latest(registry) {
        Ok(_) => panic!("a broken chain must not load"),
        Err(e) => e,
    }
}

fn chain_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lnls-chain-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_chain_missing_its_base_is_refused_by_name() {
    let dir = chain_dir("missing-base");
    let names = build_chain(&dir);
    let base = names.iter().find(|n| n.starts_with("base-")).expect("a base segment");
    fs::remove_file(dir.join(base)).expect("delete the base");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::MissingBase { segment } => {
            assert!(segment.ends_with(base), "the error must name '{base}', got '{segment}'");
        }
        other => panic!("expected MissingBase, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_chain_with_a_hole_names_the_missing_delta() {
    let dir = chain_dir("missing-delta");
    let names = build_chain(&dir);
    // Delete the *middle* delta; the later one keeps the chain "longer
    // than" the hole, which is what makes it a hole and not a tail.
    let middle = names.iter().filter(|n| n.starts_with("delta-")).nth(1).expect("a middle delta");
    fs::remove_file(dir.join(middle)).expect("delete the middle delta");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::MissingDelta { segment, epoch, index } => {
            assert!(segment.ends_with(middle), "must name '{middle}', got '{segment}'");
            assert_eq!((epoch, index), (1, 2), "the first chain epoch, second delta");
        }
        other => panic!("expected MissingDelta, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_delta_is_reported_corrupt_with_its_name() {
    let dir = chain_dir("truncated");
    let names = build_chain(&dir);
    let last = names.iter().rfind(|n| n.starts_with("delta-")).expect("a delta");
    let path = dir.join(last);
    let bytes = fs::read(&path).expect("read the delta");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate the delta");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::CorruptSegment { segment, .. } => {
            assert!(segment.ends_with(last.as_str()), "must name '{last}', got '{segment}'");
        }
        other => panic!("expected CorruptSegment, got: {other}"),
    }
    // An intact chain in the same store layout still loads fine.
    fs::write(&path, &bytes).expect("restore the delta");
    assert!(
        CheckpointStore::open(&dir).expect("store opens").load_latest(&registry).is_ok(),
        "the repaired chain loads"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A chain whose *newest* segment is a base — a crash right after an
/// epoch rotation, before any delta followed it — must reproduce the
/// running jobs from the base's own active slots. (The chain replay
/// once materialized active state only from delta segments, silently
/// dropping every in-flight job of a base-terminated chain.)
#[test]
fn a_base_terminated_chain_keeps_running_jobs() {
    let dir = chain_dir("base-tail");
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..4 {
        fleet.submit(onemax_job(&format!("chain-{i}"), i));
    }
    fleet.tick();
    assert!(fleet.running_len() > 0, "the base must capture jobs mid-flight");

    let mut ckpt = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);

    let registry = JobRegistry::with_builtin();
    let loaded = CheckpointStore::open(&dir)
        .expect("store opens")
        .load_latest(&registry)
        .expect("base-terminated chains load");
    let mut restored = Scheduler::restore(loaded);
    assert_eq!(
        (restored.running_len(), restored.queued_len()),
        (fleet.running_len(), fleet.queued_len()),
        "running and queued jobs must survive a base-terminated chain"
    );
    while fleet.tick() {}
    while restored.tick() {}
    assert_eq!(
        format!("{:?}", restored.fleet_report()),
        format!("{:?}", fleet.fleet_report()),
        "the restored run must finish on the original run's bits"
    );
    let _ = fs::remove_dir_all(&dir);
}
