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
//!   middle delta, holding a delta out of place or a truncated segment
//!   is refused with a [`CheckpointError`] naming the exact frame of the
//!   epoch file, never a panic or a silently wrong restore. Every
//!   flipped bit and every cut inside the file is refused by name; a
//!   cut at a frame boundary loads the shorter chain. A failed snapshot
//!   is retried as a fresh base, and rotation leaves one epoch file.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::prelude::{
    BinaryJob, CheckpointError, CheckpointStore, DeltaCheckpointer, DeviceSpec, Driver,
    FleetClient, FleetReport, HashRing, JobRegistry, MultiDevice, OneMax, Scenario, Scheduler,
    SchedulerConfig, ShardConfig, SnapshotKind, Trace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The file a chain's first epoch lives in.
const EPOCH_FILE: &str = "epoch-00000001.ckpt";

/// Bytes of an epoch file's header: its magic and its epoch.
const HEADER: usize = 16;

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

fn onemax_job(name: &str, seed: u64) -> BinaryJob<OneMax, KHamming> {
    let n = 24;
    let hood = KHamming::new(n, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(60).with_seed(seed).with_target(None), hood.size());
    BinaryJob::new(name, OneMax::new(n), hood, search, init)
}

/// Write a base + several deltas into `dir` (jobs still in flight, so
/// every delta is non-trivial) and return the epoch file's path.
fn build_chain(dir: &Path) -> PathBuf {
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
    assert_eq!(names, [EPOCH_FILE], "one base and three deltas in one epoch file");
    let file = dir.join(EPOCH_FILE);
    let frames = frames(&fs::read(&file).expect("read the epoch file"));
    assert_eq!(frames.len(), 4, "one base and three deltas: {frames:?}");
    file
}

/// The byte range of each frame of an epoch file: past the header, a
/// `u64` length, that many segment bytes and a `u64` checksum.
fn frames(file: &[u8]) -> Vec<Range<usize>> {
    let mut frames = Vec::new();
    let mut at = HEADER;
    while at < file.len() {
        let len = u64::from_le_bytes(file[at..at + 8].try_into().expect("a length word"));
        let end = at + 8 + usize::try_from(len).expect("a frame length") + 8;
        frames.push(at..end);
        at = end;
    }
    frames
}

/// `file`'s header, then its frames numbered in `order`, each intact.
fn reframe(file: &[u8], order: &[usize]) -> Vec<u8> {
    let frames = frames(file);
    let mut out = file[..HEADER].to_vec();
    for &i in order {
        out.extend_from_slice(&file[frames[i].clone()]);
    }
    out
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
    let file = build_chain(&dir);
    // Drop the base's frame: the deltas stay, and frame 0 holds delta 1.
    let bytes = fs::read(&file).expect("read the epoch file");
    fs::write(&file, reframe(&bytes, &[1, 2, 3])).expect("delete the base");
    let base = format!("{EPOCH_FILE}#0");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::MissingBase { segment } => {
            assert!(segment.ends_with(&base), "the error must name '{base}', got '{segment}'");
        }
        other => panic!("expected MissingBase, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_chain_with_a_hole_names_the_missing_delta() {
    let dir = chain_dir("missing-delta");
    let file = build_chain(&dir);
    // Delete the *middle* delta; the later one keeps the chain "longer
    // than" the hole, which is what makes it a hole and not a tail.
    let bytes = fs::read(&file).expect("read the epoch file");
    fs::write(&file, reframe(&bytes, &[0, 1, 3])).expect("delete the middle delta");
    let middle = format!("{EPOCH_FILE}#2");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::MissingDelta { segment, epoch, index } => {
            assert!(segment.ends_with(&middle), "must name '{middle}', got '{segment}'");
            assert_eq!((epoch, index), (1, 2), "the first chain epoch, second delta");
        }
        other => panic!("expected MissingDelta, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Delta 1's frame, checksum intact, where delta 2 belongs: the frame's
/// own header places it, so the load fails naming frame 2. (When each
/// delta was a file of its own, a copy of delta 1 under delta 2's name
/// loaded without error into the state of the first delta.)
#[test]
fn a_delta_out_of_place_is_refused_by_name() {
    let dir = chain_dir("misplaced-delta");
    let file = build_chain(&dir);
    let bytes = fs::read(&file).expect("read the epoch file");
    fs::write(&file, reframe(&bytes, &[0, 1, 1, 3])).expect("put delta 1 where delta 2 belongs");
    let misplaced = format!("{EPOCH_FILE}#2");

    let registry = JobRegistry::with_builtin();
    match load_err(&dir, &registry) {
        CheckpointError::CorruptSegment { segment, source } => {
            assert!(segment.ends_with(&misplaced), "must name '{misplaced}', got '{segment}'");
            assert!(source.to_string().contains("delta 1 of epoch 1"), "{source}");
        }
        other => panic!("expected CorruptSegment, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_delta_is_reported_corrupt_with_its_name() {
    let dir = chain_dir("truncated");
    let path = build_chain(&dir);
    let bytes = fs::read(&path).expect("read the epoch file");
    let frames = frames(&bytes);
    let delta = frames.last().expect("a delta");
    let last = format!("{EPOCH_FILE}#{}", frames.len() - 1);
    fs::write(&path, &bytes[..delta.start + delta.len() / 2]).expect("truncate the delta");

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

/// Every single-bit flip (the low bit of each byte) and every
/// truncation of an epoch file holding a base and one delta is refused
/// as a typed error naming the frame it falls in, or the file for its
/// header; a cut exactly at a frame boundary loads the chain of the
/// frames before it. The fleet shape (one device, no fusing, quantum 2)
/// re-queues preempted jobs behind the queue's reordering, so the delta
/// carries a full queue layout: a corrupted id in it used to pass the
/// chain replay and panic when the checkpoint was materialized.
#[test]
fn a_mutated_delta_never_panics_the_chain_replay() {
    let dir = chain_dir("mutated");
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 1, quantum_iters: Some(2), ..Default::default() },
    );
    for i in 0..4 {
        fleet.submit(onemax_job(&format!("mutant-{i}"), i));
    }
    let mut ckpt = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    fleet.tick();
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);
    let at_base = fleet.checkpoint().to_bytes();
    for _ in 0..3 {
        fleet.tick();
    }
    assert_eq!(ckpt.snapshot(&fleet).expect("delta writes").kind, SnapshotKind::Delta);
    let path = dir.join(EPOCH_FILE);
    let intact = fs::read(&path).expect("read the epoch file");
    let frames = frames(&intact);
    assert_eq!(frames.len(), 2, "one base and one delta frame");
    // A change at byte `at` is named by the frame holding it, or by the
    // file for a change to its header.
    let name_of = |at: usize| match frames.iter().position(|f| f.contains(&at)) {
        Some(i) => format!("{EPOCH_FILE}#{i}"),
        None => EPOCH_FILE.to_string(),
    };

    let registry = JobRegistry::with_builtin();
    let store = CheckpointStore::open(&dir).expect("store opens");
    let load = |bytes: &[u8]| {
        fs::write(&path, bytes).expect("write the mutant");
        store.load_latest(&registry)
    };
    for at in 0..intact.len() {
        let mut bytes = intact.clone();
        bytes[at] ^= 1;
        let want = name_of(at);
        match load(&bytes) {
            Err(CheckpointError::CorruptSegment { segment, .. }) => assert!(
                segment.ends_with(&want),
                "low-bit flip of byte {at}: must name '{want}', got '{segment}'"
            ),
            Err(other) => {
                panic!("low-bit flip of byte {at}: expected CorruptSegment, got: {other}")
            }
            Ok(_) => panic!("low-bit flip of byte {at} loaded"),
        }
    }
    for n in 0..intact.len() {
        let boundary = frames.iter().position(|f| f.start == n);
        match (boundary, load(&intact[..n])) {
            (Some(0), Err(CheckpointError::MissingBase { segment })) => {
                assert!(segment.ends_with("#0"), "truncation to {n} bytes: named '{segment}'");
            }
            (Some(1), Ok(chain)) => assert!(
                chain.to_bytes() == at_base,
                "truncation to {n} bytes: the base frame alone must load to the base's checkpoint"
            ),
            (None, Err(CheckpointError::CorruptSegment { segment, .. })) => {
                let want = name_of(n);
                assert!(
                    segment.ends_with(&want),
                    "truncation to {n} bytes: must name '{want}', got '{segment}'"
                );
            }
            (_, Err(other)) => panic!("truncation to {n} bytes failed as: {other}"),
            (_, Ok(_)) => panic!("truncation to {n} bytes loaded"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An epoch file is checked against its name before any frame is read:
/// a wrong magic, or an epoch field that disagrees with the file name,
/// is a `CorruptSegment` naming the file.
#[test]
fn an_epoch_file_is_checked_against_its_magic_and_name() {
    let dir = chain_dir("epoch-header");
    let file = build_chain(&dir);
    let intact = fs::read(&file).expect("read the epoch file");
    let registry = JobRegistry::with_builtin();
    let refused_naming = |name: &str, why: &str| match load_err(&dir, &registry) {
        CheckpointError::CorruptSegment { segment, source } => {
            assert!(segment.ends_with(name), "must name '{name}', got '{segment}'");
            assert!(source.to_string().contains(why), "{source}");
        }
        other => panic!("expected CorruptSegment, got: {other}"),
    };

    let mut wrong_magic = intact.clone();
    wrong_magic[..8].copy_from_slice(b"LNLSCHN\x02");
    fs::write(&file, &wrong_magic).expect("write the wrong magic");
    refused_naming(EPOCH_FILE, "bad magic");

    // Epoch 1's file under epoch 2's name is the newest, and lies.
    fs::write(&file, &intact).expect("restore the magic");
    let renamed = "epoch-00000002.ckpt";
    fs::copy(&file, dir.join(renamed)).expect("copy the epoch file");
    refused_naming(renamed, "holds epoch 1");
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot that fails mid-write (here: a directory stands in for the
/// epoch file the delta appends to) must not leave the checkpointer
/// believing the segment landed. The retry writes a fresh base, and the
/// chain on disk loads to exactly the live fleet's checkpoint. (The
/// retry used to write a delta with the failed segment's dirty jobs
/// left out, so the restored fleet re-ran their progress.)
#[test]
fn a_failed_delta_write_is_retried_as_a_base() {
    let dir = chain_dir("failed-write");
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..6 {
        fleet.submit(onemax_job(&format!("retry-{i}"), i));
    }
    let mut ckpt = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);
    fleet.tick();
    let squatter = dir.join(EPOCH_FILE);
    fs::remove_file(&squatter).expect("remove the epoch file");
    fs::create_dir(&squatter).expect("stand a directory in for the epoch file");
    match ckpt.snapshot(&fleet) {
        Err(CheckpointError::Io { .. }) => {}
        Err(other) => panic!("expected an i/o error, got: {other}"),
        Ok(stats) => panic!("the blocked write must fail, wrote {stats:?}"),
    }
    fs::remove_dir(&squatter).expect("clear the epoch file's path");

    let retry = ckpt.snapshot(&fleet).expect("the retry writes");
    assert_eq!(retry.kind, SnapshotKind::Base, "a failed snapshot must be retried as a base");
    let registry = JobRegistry::with_builtin();
    let loaded = CheckpointStore::open(&dir)
        .expect("store opens")
        .load_latest(&registry)
        .expect("the chain loads");
    assert!(
        loaded.to_bytes() == fleet.checkpoint().to_bytes(),
        "the chain on disk must load to the live fleet's checkpoint"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Rotation deletes the older epoch's file and any temp file a base
/// write of an older epoch left behind, so the store holds the current
/// epoch file alone. (Compaction once matched only `.ckpt` names, so a
/// leftover temp file survived every rotation.)
#[test]
fn rotation_leaves_only_the_current_epoch_file() {
    let dir = chain_dir("rotation");
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..4 {
        fleet.submit(onemax_job(&format!("rotate-{i}"), i));
    }
    let mut ckpt = DeltaCheckpointer::open(&dir, 1).expect("store opens");
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);
    fleet.tick();
    assert_eq!(ckpt.snapshot(&fleet).expect("delta writes").kind, SnapshotKind::Delta);
    fs::write(dir.join("epoch-00000001.tmp"), b"an interrupted base").expect("plant a temp file");

    fleet.tick();
    assert_eq!(ckpt.snapshot(&fleet).expect("rotation writes").kind, SnapshotKind::Base);
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("chain dir lists")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8 name"))
        .collect();
    assert_eq!(names, ["epoch-00000002.ckpt"], "the current epoch file alone");
    let _ = fs::remove_dir_all(&dir);
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("chain dir lists")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8 name"))
        .collect();
    names.sort();
    names
}

/// A four-job fleet and a checkpointer over `dir` writing a base after
/// every delta.
fn rotating(dir: &Path) -> (Scheduler, DeltaCheckpointer) {
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..4 {
        fleet.submit(onemax_job(&format!("rotate-{i}"), i));
    }
    (fleet, DeltaCheckpointer::open(dir, 1).expect("store opens"))
}

/// What the directory held when the checkpointer opened — an older
/// epoch file, the temp file of a base that never landed, even one of
/// an epoch past the newest file — is gone once the first base lands;
/// a file the store does not name is left alone.
#[test]
fn a_leftover_planted_before_open_is_gone_after_the_first_rotation() {
    let dir = chain_dir("leftovers");
    fs::create_dir_all(&dir).expect("chain dir");
    for (name, bytes) in [
        ("epoch-00000003.ckpt", &b"a previous incarnation"[..]),
        ("epoch-00000002.tmp", b"an interrupted base"),
        ("epoch-00000009.tmp", b"an interrupted base of a later epoch"),
        ("notes.txt", b"not a checkpoint"),
    ] {
        fs::write(dir.join(name), bytes).expect("plant a file");
    }
    let (fleet, mut ckpt) = rotating(&dir);
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);
    assert_eq!(listing(&dir), ["epoch-00000004.ckpt", "notes.txt"]);
    let _ = fs::remove_dir_all(&dir);
}

/// A base whose rename fails leaves its temp file behind; the next base
/// that lands deletes it with the older epoch's file.
#[test]
fn a_failed_base_leaves_no_temp_file_after_the_next_rotation() {
    let dir = chain_dir("failed-base");
    let (mut fleet, mut ckpt) = rotating(&dir);
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);
    fleet.tick();
    assert_eq!(ckpt.snapshot(&fleet).expect("delta writes").kind, SnapshotKind::Delta);
    let squatter = dir.join("epoch-00000002.ckpt");
    fs::create_dir(&squatter).expect("stand a directory in for the next epoch file");
    fleet.tick();
    match ckpt.snapshot(&fleet) {
        Err(CheckpointError::Io { .. }) => {}
        Err(other) => panic!("expected an i/o error, got: {other}"),
        Ok(stats) => panic!("the blocked base must fail, wrote {stats:?}"),
    }
    assert!(dir.join("epoch-00000002.tmp").exists(), "the failed base leaves its temp file");
    fs::remove_dir(&squatter).expect("clear the epoch file's path");

    assert_eq!(ckpt.snapshot(&fleet).expect("the retry writes").kind, SnapshotKind::Base);
    assert_eq!(listing(&dir), ["epoch-00000003.ckpt"]);
    let _ = fs::remove_dir_all(&dir);
}

/// Each rotation deletes what the one before it left, so any number of
/// them leave one file.
#[test]
fn five_rotations_leave_one_epoch_file() {
    let dir = chain_dir("five-rotations");
    let (mut fleet, mut ckpt) = rotating(&dir);
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);
    for _ in 0..5 {
        fleet.tick();
        assert_eq!(ckpt.snapshot(&fleet).expect("delta writes").kind, SnapshotKind::Delta);
        fleet.tick();
        assert_eq!(ckpt.snapshot(&fleet).expect("rotation writes").kind, SnapshotKind::Base);
    }
    assert_eq!(listing(&dir), ["epoch-00000006.ckpt"]);
    let _ = fs::remove_dir_all(&dir);
}
