//! The persistence layout, pinned byte for byte.
//!
//! Each case lowers a catalog scenario's trace and runs it on one bare
//! [`FleetClient`], snapshotting through a [`DeltaCheckpointer`] after
//! every tick (a base every fourth segment). Every segment's bytes, as
//! written, and then the final full checkpoint are hashed into one
//! length + FNV-1a digest per case. The digests are recorded constants:
//! a refactor of the codecs must reproduce them exactly, and an intended
//! layout change bumps the segment magic and these constants in the same
//! commit.
//!
//! Each case also checks the contract the delta module promises: the
//! chain [`CheckpointStore::load_latest`] replays re-encodes to exactly
//! the bytes of a full [`Scheduler::checkpoint`] at the same instant.
//!
//! Both segment kinds end with the result-log section: the record
//! count, one 17-byte `(id, fate, length)` header per record, the byte
//! count and the record bytes, then a 64-bit checksum. A corrupted
//! section is a typed error, never a silent decode.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::neighborhood::{Neighborhood, TwoHamming};
use lnls::prelude::{
    AdmissionPolicy, BinaryJob, CheckpointError, CheckpointStore, DeltaCheckpointer, DeviceSpec,
    FleetCheckpoint, FleetClient, JobRegistry, JobSpec, JobStatus, MultiDevice, OneMax, Scenario,
    Scheduler, SchedulerConfig, SnapshotKind, Trace, TrafficGen,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::Path;

/// `(scenario, seed, bytes hashed, FNV-1a digest)`.
const PINNED: [(&str, u64, usize, u64); 6] = [
    ("checkpoint-churn", 1, 136_173, 0xe49a_b34c_9f02_aa75),
    ("checkpoint-churn", 42, 155_074, 0x8f81_301d_c6ac_9b85),
    ("saturation", 1, 156_487, 0x8399_c0cc_a2f6_fd4f),
    ("saturation", 42, 219_478, 0x8435_a8a8_2d64_7ab9),
    ("steady", 1, 127_098, 0xa0e6_97bb_fc7b_e2bb),
    ("steady", 42, 284_325, 0x28e5_9141_b000_8b90),
];

/// Deltas between two bases.
const DELTAS_PER_BASE: u64 = 3;

/// 64-bit FNV-1a, folded over the stream as it grows.
struct Fnv1a {
    hash: u64,
    len: usize,
}

impl Fnv1a {
    fn new() -> Self {
        Self { hash: 0xcbf2_9ce4_8422_2325, len: 0 }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.len += bytes.len();
    }
}

/// The trace's fleet as one bare client (every shard folded into one
/// scheduler: the layout under test is one scheduler's).
fn client_for(trace: &Trace) -> FleetClient {
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
    client
}

/// Replay `(scenario, seed)` with a snapshot after every tick and hash
/// every segment plus the final checkpoint.
fn run_case(scenario: &str, seed: u64, dir: &Path) -> Fnv1a {
    let trace = TrafficGen::lower(&Scenario::by_name(scenario).expect("catalog scenario"), seed);
    let mut client = client_for(&trace);
    let mut ckpt = DeltaCheckpointer::open(dir, DELTAS_PER_BASE).expect("store opens");
    let (mut epoch, mut index) = (0u64, 0u64);
    let mut digest = Fnv1a::new();
    let mut next = 0usize;
    loop {
        while let Some(arrival) = trace.arrivals.get(next) {
            let scheduler = client.scheduler();
            let idle = scheduler.queued_len() == 0 && scheduler.running_len() == 0;
            if !(arrival.at_s <= scheduler.now_s() || idle) {
                break;
            }
            let _ = arrival.submit(&mut client);
            next += 1;
        }
        let progressed = client.tick();
        let segment = match ckpt.snapshot(client.scheduler()).expect("snapshot writes").kind {
            SnapshotKind::Base => {
                (epoch, index) = (epoch + 1, 0);
                format!("base-{epoch:08}.ckpt")
            }
            SnapshotKind::Delta => {
                index += 1;
                format!("delta-{epoch:08}-{index:08}.ckpt")
            }
        };
        digest.update(&fs::read(dir.join(&segment)).expect("the segment just written"));
        if !progressed && next >= trace.arrivals.len() {
            break;
        }
    }
    let full = client.scheduler().checkpoint().to_bytes();
    let registry = JobRegistry::with_builtin();
    let loaded = CheckpointStore::open(dir).expect("store opens").load_latest(&registry);
    let loaded = loaded.expect("the chain loads").to_bytes();
    assert!(loaded == full, "{scenario}/{seed}: the replayed chain must equal the full checkpoint");
    digest.update(&full);
    digest
}

#[test]
fn segment_bytes_match_the_pinned_layout() {
    let mut mismatches = Vec::new();
    for (scenario, seed, len, hash) in PINNED {
        let dir = std::env::temp_dir()
            .join(format!("lnls-layout-{scenario}-{seed}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let got = run_case(scenario, seed, &dir);
        let _ = fs::remove_dir_all(&dir);
        if (got.len, got.hash) != (len, hash) {
            mismatches.push(format!(
                "(\"{scenario}\", {seed}, {}, 0x{:016x}) (pinned: {len}, 0x{hash:016x})",
                got.len, got.hash
            ));
        }
    }
    assert!(mismatches.is_empty(), "persisted bytes moved:\n{}", mismatches.join("\n"));
}

fn onemax_job(seed: u64, iters: u64) -> BinaryJob<OneMax, TwoHamming> {
    let hood = TwoHamming::new(16);
    let init = BitString::random(&mut StdRng::seed_from_u64(seed), 16);
    let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(seed), hood.size());
    BinaryJob::new(format!("onemax-{seed}"), OneMax::new(16), hood, search, init)
}

/// Where the result-log section of `records` records starts in
/// `segment`, which it ends.
fn log_section_start(segment: &[u8], records: usize) -> usize {
    let word = |at: usize| {
        let bytes = segment.get(at..at + 8)?;
        usize::try_from(u64::from_le_bytes(bytes.try_into().ok()?)).ok()
    };
    let ends_here = |at: usize| {
        let body_at = at + 8 + 17 * records;
        word(at) == Some(records)
            && word(body_at).is_some_and(|body| body_at + 8 + body + 8 == segment.len())
    };
    let starts: Vec<usize> = (0..segment.len()).filter(|&at| ends_here(at)).collect();
    assert_eq!(starts.len(), 1, "one result-log section of {records} records ends the segment");
    starts[0]
}

/// Every mutant of `segment` whose change falls in `from..`: the low
/// bit of each byte flipped, and the segment cut at each byte.
fn mutants(segment: &[u8], from: usize) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    let flips = (from..segment.len()).map(move |at| {
        let mut bytes = segment.to_vec();
        bytes[at] ^= 1;
        (at, bytes)
    });
    flips.chain((from..segment.len()).map(move |at| (at, segment[..at].to_vec())))
}

/// A fleet holding a shed, a cancelled and a done job, snapshotted as a
/// base (the shed job's record) and one delta (the other two). Every
/// flipped bit and every cut inside either log section is a typed
/// error: `from_bytes` refuses the checkpoint, and `load_latest` names
/// the delta.
#[test]
fn a_corrupt_result_log_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("lnls-log-corruption-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let policy = AdmissionPolicy::queue_cap(2).with_shedding();
    let fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 1, ..Default::default() },
    );
    let mut client = FleetClient::new(fleet, policy);
    let spec = |seed: u64, iters: u64, priority: u8| {
        JobSpec::new(onemax_job(seed, iters)).with_priority(priority)
    };
    let done = client.submit_spec(spec(0, 4, 1)).expect("an empty queue admits");
    client.tick();
    let shed = client.submit_spec(spec(1, 4, 0)).expect("under the cap");
    let cancelled = client.submit_spec(spec(2, 4, 1)).expect("under the cap");
    client.submit_spec(spec(3, 40, 2)).expect("sheds the lowest priority");
    assert!(client.cancel(cancelled));
    let mut ckpt = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    assert_eq!(ckpt.snapshot(client.scheduler()).expect("base writes").kind, SnapshotKind::Base);
    let logged = client.reports().count();
    while client.status(done) != JobStatus::Done {
        assert!(client.tick());
    }
    assert_eq!(client.status(shed), JobStatus::Rejected);
    assert_eq!(client.status(cancelled), JobStatus::Cancelled);
    assert_eq!(ckpt.snapshot(client.scheduler()).expect("delta writes").kind, SnapshotKind::Delta);

    let registry = JobRegistry::with_builtin();
    let full = client.checkpoint().to_bytes();
    let from = log_section_start(&full, 3);
    for (at, bytes) in mutants(&full, from) {
        let decoded = FleetCheckpoint::from_bytes(&bytes, &registry);
        assert!(decoded.is_err(), "a checkpoint mutated at byte {at} of {} decoded", full.len());
    }

    let store = CheckpointStore::open(&dir).expect("store opens");
    let name = "delta-00000001-00000001.ckpt";
    let delta = fs::read(dir.join(name)).expect("the delta was written");
    let from = log_section_start(&delta, client.reports().count() - logged);
    for (at, bytes) in mutants(&delta, from) {
        fs::write(dir.join(name), &bytes).expect("mutant writes");
        match store.load_latest(&registry) {
            Err(CheckpointError::CorruptSegment { segment, .. }) if segment.ends_with(name) => {}
            Err(e) => panic!("the delta mutated at byte {at} failed as {e}"),
            Ok(_) => panic!("the delta mutated at byte {at} of {} loaded", delta.len()),
        }
    }
    fs::write(dir.join(name), &delta).expect("the intact delta writes back");
    let loaded = store.load_latest(&registry).expect("the intact chain loads");
    assert!(loaded.to_bytes() == full, "the intact chain equals the full checkpoint");
    let _ = fs::remove_dir_all(&dir);
}
