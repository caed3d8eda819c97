//! The persistence layout, pinned byte for byte.
//!
//! Each case lowers a catalog scenario's trace and runs it on one bare
//! [`FleetClient`], snapshotting through a [`DeltaCheckpointer`] after
//! every tick (a base every fourth segment). Each case keeps two
//! length + FNV-1a digests: one over its delta segments, and one over
//! its base segments plus the final full checkpoint. The digests are
//! recorded constants: a refactor of the codecs must reproduce them
//! exactly, and an intended layout change bumps the magic of the
//! segment kind it moves and that kind's column in the same commit.
//!
//! Each case also checks the contract the delta module promises: the
//! chain [`CheckpointStore::load_latest`] replays re-encodes to exactly
//! the bytes of a full [`Scheduler::checkpoint`] at the same instant.
//!
//! Both segment kinds end with the result-log section: the record
//! count, one 17-byte `(id, fate, length)` header per record, the byte
//! count and the record bytes, then a 64-bit checksum. A corrupted
//! section is a typed error, never a silent decode.
//!
//! On disk each segment is one frame of its epoch's file (a 16-byte
//! header, then per segment a `u64` length, the segment and a `u64`
//! checksum); the digests cover the segment bytes inside the frames.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::neighborhood::{KHamming, Neighborhood};
use lnls::prelude::{
    AdmissionPolicy, BinaryJob, CheckpointError, CheckpointStore, DeltaCheckpointer, DeviceSpec,
    FleetCheckpoint, FleetClient, JobRegistry, JobSpec, JobStatus, MultiDevice, OneMax, Ppp,
    PppInstance, Scenario, Scheduler, SchedulerConfig, SnapshotKind, Trace, TrafficGen,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// `(scenario, seed, delta segments, base segments + final checkpoint)`,
/// each column `(bytes hashed, FNV-1a digest)`.
type Pinned = (&'static str, u64, (usize, u64), (usize, u64));

const PINNED: [Pinned; 10] = [
    ("checkpoint-churn", 1, (78_568, 0x1ddc_b25c_bca9_c51e), (58_036, 0xa1c2_1220_50ca_e4a8)),
    ("checkpoint-churn", 42, (97_215, 0x1a1d_ea69_b5af_3bad), (58_239, 0x4a55_40d4_c4e1_e475)),
    ("lns-repair", 1, (86_069, 0x9760_d29d_7b70_16e3), (98_212, 0x9771_2ceb_74dd_8d52)),
    ("lns-repair", 42, (182_745, 0x5bbe_ae46_7192_423e), (199_061, 0xe2bc_3dde_5e08_fbd9)),
    ("portfolio-race", 1, (77_035, 0x6eab_bba2_c3ff_82f1), (78_585, 0x6775_d553_d3e1_b469)),
    ("portfolio-race", 42, (135_671, 0xe58e_d2fc_0ede_e9fb), (141_572, 0x1b7b_981d_24c6_64c4)),
    ("saturation", 1, (82_554, 0x33ae_cd09_0be5_cc8b), (74_558, 0x9cd8_3aed_767b_a91a)),
    ("saturation", 42, (110_547, 0xfc6e_75f2_2d76_48af), (109_762, 0xbda2_e34a_83eb_450c)),
    ("steady", 1, (72_274, 0x6021_4e02_6424_d050), (55_400, 0x6246_aa0e_53c7_af02)),
    ("steady", 42, (162_382, 0xfbfa_0e1d_e125_4e6c), (123_388, 0xc2bf_d892_8fff_5db6)),
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

    fn pin(&self) -> (usize, u64) {
        (self.len, self.hash)
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

/// The byte range of each frame of an epoch file: past the 16-byte
/// header, a `u64` length, that many segment bytes and a `u64` checksum.
fn frames(file: &[u8]) -> Vec<Range<usize>> {
    let mut frames = Vec::new();
    let mut at = 16;
    while at < file.len() {
        let len = u64::from_le_bytes(file[at..at + 8].try_into().expect("a length word"));
        let end = at + 8 + usize::try_from(len).expect("a frame length") + 8;
        frames.push(at..end);
        at = end;
    }
    frames
}

/// The segment bytes inside `frame`.
fn segment(frame: Range<usize>) -> Range<usize> {
    frame.start + 8..frame.end - 8
}

/// Replay `(scenario, seed)` with a snapshot after every tick and hash
/// the delta segments, and apart from them the base segments plus the
/// final checkpoint.
fn run_case(scenario: &str, seed: u64, dir: &Path) -> (Fnv1a, Fnv1a) {
    let trace = TrafficGen::lower(&Scenario::by_name(scenario).expect("catalog scenario"), seed);
    let mut client = client_for(&trace);
    let mut ckpt = DeltaCheckpointer::open(dir, DELTAS_PER_BASE).expect("store opens");
    let mut epoch = 0u64;
    let (mut deltas, mut bases) = (Fnv1a::new(), Fnv1a::new());
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
        let stats = ckpt.snapshot(client.scheduler()).expect("snapshot writes");
        let digest = match stats.kind {
            SnapshotKind::Base => {
                epoch += 1;
                &mut bases
            }
            SnapshotKind::Delta => &mut deltas,
        };
        let file = fs::read(dir.join(format!("epoch-{epoch:08}.ckpt"))).expect("the epoch file");
        let last = segment(frames(&file).pop().expect("the frame just written"));
        assert_eq!(stats.bytes, last.len() as u64, "the stats count the segment's bytes");
        digest.update(&file[last]);
        if !progressed && next >= trace.arrivals.len() {
            break;
        }
    }
    let full = client.scheduler().checkpoint().to_bytes();
    let registry = JobRegistry::with_builtin();
    let loaded = CheckpointStore::open(dir).expect("store opens").load_latest(&registry);
    let loaded = loaded.expect("the chain loads").to_bytes();
    assert!(loaded == full, "{scenario}/{seed}: the replayed chain must equal the full checkpoint");
    bases.update(&full);
    (deltas, bases)
}

#[test]
fn segment_bytes_match_the_pinned_layout() {
    let mut mismatches = Vec::new();
    for (scenario, seed, delta, base) in PINNED {
        let dir = std::env::temp_dir()
            .join(format!("lnls-layout-{scenario}-{seed}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (deltas, bases) = run_case(scenario, seed, &dir);
        let _ = fs::remove_dir_all(&dir);
        let ((dl, dh), (bl, bh)) = (deltas.pin(), bases.pin());
        if ((dl, dh), (bl, bh)) != (delta, base) {
            mismatches.push(format!(
                "(\"{scenario}\", {seed}, ({dl}, 0x{dh:016x}), ({bl}, 0x{bh:016x})) \
                 [delta moved: {}, base moved: {}]",
                (dl, dh) != delta,
                (bl, bh) != base
            ));
        }
    }
    assert!(mismatches.is_empty(), "persisted bytes moved:\n{}", mismatches.join("\n"));
}

fn onemax_job(seed: u64, iters: u64) -> BinaryJob<OneMax, KHamming> {
    let hood = KHamming::new(16, 2);
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
    let (file, name) = (dir.join("epoch-00000001.ckpt"), "epoch-00000001.ckpt#1");
    let intact = fs::read(&file).expect("the epoch file was written");
    let delta = segment(frames(&intact)[1].clone());
    let from = delta.start + log_section_start(&intact[delta], client.reports().count() - logged);
    for (at, bytes) in mutants(&intact, from) {
        fs::write(&file, &bytes).expect("mutant writes");
        match store.load_latest(&registry) {
            Err(CheckpointError::CorruptSegment { segment, .. }) if segment.ends_with(name) => {}
            Err(e) => panic!("the delta mutated at byte {at} failed as {e}"),
            Ok(_) => panic!("the delta mutated at byte {at} of {} loaded", intact.len()),
        }
    }
    fs::write(&file, &intact).expect("the intact delta writes back");
    let loaded = store.load_latest(&registry).expect("the intact chain loads");
    assert!(loaded.to_bytes() == full, "the intact chain equals the full checkpoint");
    let _ = fs::remove_dir_all(&dir);
}

/// Six jobs on one device after one tick, the last one's id flipped
/// wherever its id could sit: every `5u64` in the checkpoint loses its
/// low bit in turn. Each mutant is refused, or it restores into a fleet
/// that runs to the end. The job payload's flipped id once decoded into
/// two live copies of job #4, and the second to retire panicked.
#[test]
fn a_flipped_job_id_is_refused_or_runs_to_the_end() {
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 1, ..Default::default() },
    );
    for seed in 0..6 {
        fleet.submit(onemax_job(seed, 20));
    }
    fleet.tick();
    let bytes = fleet.checkpoint().to_bytes();
    let registry = JobRegistry::with_builtin();
    let five = 5u64.to_le_bytes();
    let offsets: Vec<usize> =
        bytes.windows(8).enumerate().filter(|(_, w)| *w == five).map(|(at, _)| at).collect();
    assert!(offsets.len() >= 3, "job #5 sits in the layout, the metadata and the payload");
    for at in offsets {
        let mut mutant = bytes.clone();
        mutant[at] ^= 1;
        let Ok(checkpoint) = FleetCheckpoint::from_bytes(&mutant, &registry) else { continue };
        let ran =
            catch_unwind(AssertUnwindSafe(|| Scheduler::restore(checkpoint).run_until_idle()));
        assert!(ran.is_ok(), "the checkpoint with byte {at} flipped decoded, then panicked");
    }
}

/// A delta copied in from a fleet of another backend shape, as the frame
/// the chain expects next, is a `CorruptSegment` naming it. It
/// once loaded into a checkpoint whose first tick indexed past the one
/// device.
#[test]
fn a_delta_from_another_backend_shape_is_a_corrupt_segment() {
    let root = std::env::temp_dir().join(format!("lnls-spliced-delta-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (small_dir, large_dir) = (root.join("small"), root.join("large"));
    let fleet = |devices: usize, cpu_workers: usize| {
        let config = SchedulerConfig { cpu_workers, ..Default::default() };
        Scheduler::with_uniform_fleet(devices, DeviceSpec::gtx280(), config)
    };
    let (mut small, mut large) = (fleet(1, 0), fleet(2, 1));
    for seed in 0..4 {
        small.submit(onemax_job(seed, 20));
        large.submit(onemax_job(seed, 20));
    }
    let mut ckpt = DeltaCheckpointer::open(&small_dir, 8).expect("store opens");
    assert_eq!(ckpt.snapshot(&small).expect("base writes").kind, SnapshotKind::Base);
    let mut ckpt = DeltaCheckpointer::open(&large_dir, 8).expect("store opens");
    assert_eq!(ckpt.snapshot(&large).expect("base writes").kind, SnapshotKind::Base);
    for seed in 4..6 {
        large.submit(onemax_job(seed, 20));
    }
    large.tick();
    assert_eq!(ckpt.snapshot(&large).expect("delta writes").kind, SnapshotKind::Delta);

    let (file, name) = ("epoch-00000001.ckpt", "epoch-00000001.ckpt#1");
    let large_file = fs::read(large_dir.join(file)).expect("read the large epoch file");
    let mut small_file = fs::read(small_dir.join(file)).expect("read the small epoch file");
    small_file.extend_from_slice(&large_file[frames(&large_file)[1].clone()]);
    fs::write(small_dir.join(file), small_file).expect("the delta's frame copies");
    let store = CheckpointStore::open(&small_dir).expect("store opens");
    match store.load_latest(&JobRegistry::with_builtin()) {
        Err(CheckpointError::CorruptSegment { segment, .. }) if segment.ends_with(name) => {}
        Err(e) => panic!("the spliced delta failed as {e}"),
        Ok(c) => panic!("the spliced delta loaded, with {} pending jobs", c.pending_jobs()),
    }
    let _ = fs::remove_dir_all(&root);
}

/// Two 20×20 PPP tabu jobs on one device after one tick, with one
/// digit of the first instance's `ppp 20 20` header turned into
/// `ppp 30 20`: the instance text keeps its length, so the checkpoint
/// decodes up to `PppInstance::parse`, which must refuse 30 rows of
/// matrix words given for 20. It once panicked there instead.
#[test]
fn a_ppp_instance_with_a_wrong_row_count_is_refused() {
    let mut fleet = Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), Default::default());
    for seed in 0..2 {
        let hood = KHamming::new(20, 2);
        let init = BitString::random(&mut StdRng::seed_from_u64(seed), 20);
        let search = TabuSearch::paper(SearchConfig::budget(20).with_seed(seed), hood.size());
        let problem = Ppp::new(PppInstance::generate(20, 20, seed));
        fleet.submit(BinaryJob::new(format!("ppp-{seed}"), problem, hood, search, init));
    }
    fleet.tick();
    let mut bytes = fleet.checkpoint().to_bytes();
    let header = b"ppp 20 20";
    let at = bytes.windows(header.len()).position(|w| w == header).expect("a PPP instance");
    bytes[at + 4] = b'3';
    let registry = JobRegistry::with_builtin();
    let decoded = catch_unwind(AssertUnwindSafe(|| FleetCheckpoint::from_bytes(&bytes, &registry)));
    assert!(decoded.is_ok(), "decoding the checkpoint panicked");
    assert!(decoded.unwrap().is_err(), "a 30-row header over 20 rows of words decoded");
}
