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

use lnls::prelude::{
    CheckpointStore, DeltaCheckpointer, DeviceSpec, FleetClient, JobRegistry, MultiDevice,
    Scenario, Scheduler, SchedulerConfig, SnapshotKind, Trace, TrafficGen,
};
use std::fs;
use std::path::Path;

/// `(scenario, seed, bytes hashed, FNV-1a digest)`.
const PINNED: [(&str, u64, usize, u64); 6] = [
    ("checkpoint-churn", 1, 138_539, 0x4917_391e_c93f_6f9e),
    ("checkpoint-churn", 42, 156_769, 0x5c00_002e_aadb_c38c),
    ("saturation", 1, 158_907, 0x26b6_ef13_b4ad_6725),
    ("saturation", 42, 224_022, 0x7ab9_5393_b5af_e64a),
    ("steady", 1, 128_342, 0x69f9_09c3_4a19_6342),
    ("steady", 42, 288_691, 0x0393_db02_bf11_7853),
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
