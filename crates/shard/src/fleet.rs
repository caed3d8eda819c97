//! The cross-shard steps of [`ParallelFleet`](crate::ParallelFleet):
//! the steal barrier and the per-shard restore walk.

use crate::config::ShardConfig;
use crate::ring::fnv1a;
use lnls_runtime::{AdmissionPolicy, CheckpointError, FleetClient, JobRegistry, Scheduler};
use std::path::{Path, PathBuf};

/// Bit position of the shard index inside a [`JobId`]: shard `i` mints
/// ids from `i << SHARD_ID_SHIFT`, so ids stay globally unique however
/// many times stealing moves a job — and shard 0, based at 0, mints
/// exactly the ids a bare scheduler would.
///
/// [`JobId`]: lnls_runtime::JobId
pub const SHARD_ID_SHIFT: u32 = 40;

pub(crate) fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:03}"))
}

/// One steal barrier over `shards` at global tick `ticks` (see the
/// [`ParallelFleet`](crate::ParallelFleet) type docs for the policy).
/// Returns how many jobs moved. The barrier is pure shard-state →
/// shard-state, so it steals bit-identically at any worker count.
pub(crate) fn run_steal_barrier(cfg: &ShardConfig, shards: &mut [FleetClient], ticks: u64) -> u64 {
    let mut budget = cfg.steal_max_per_barrier;
    let mut steals = 0;
    if budget == 0 {
        return steals;
    }
    let takers: Vec<usize> =
        (0..shards.len()).filter(|&i| shards[i].scheduler().queued_len() == 0).collect();
    for taker in takers {
        if budget == 0 {
            break;
        }
        // Deepest queue wins; ties rotate by seeded hash, then
        // fall to the smaller index. `(depth, !hash, !idx)` max =
        // (max depth, min hash, min idx).
        let donor = (0..shards.len())
            .filter(|&i| i != taker && shards[i].scheduler().queued_len() >= 2)
            .max_by_key(|&i| {
                let depth = shards[i].scheduler().queued_len();
                let mut key = [0u8; 24];
                key[..8].copy_from_slice(&cfg.steal_seed.to_le_bytes());
                key[8..16].copy_from_slice(&ticks.to_le_bytes());
                key[16..].copy_from_slice(&(i as u64).to_le_bytes());
                (depth, !fnv1a(&key), !(i as u64))
            });
        let Some(donor) = donor else { break };
        let id =
            shards[donor].scheduler().newest_queued().expect("donor has at least two queued jobs");
        let stolen = shards[donor].donate_queued(id).expect("newest_queued returned a queued id");
        shards[taker].adopt(stolen);
        steals += 1;
        budget -= 1;
    }
    steals
}

/// Rebuild shard clients from the latest base + delta chain in each
/// `shard-NNN` subdirectory of `dir` — the restore walk behind
/// [`ParallelFleet::restore`](crate::ParallelFleet::restore).
pub(crate) fn restore_clients(
    dir: &Path,
    policy: &AdmissionPolicy,
    registry: &JobRegistry,
    rejected: &[u64],
) -> Result<Vec<FleetClient>, CheckpointError> {
    let mut shards = Vec::new();
    loop {
        let sub = shard_dir(dir, shards.len());
        if !sub.is_dir() {
            break;
        }
        let store = lnls_runtime::CheckpointStore::open(&sub)
            .map_err(|source| CheckpointError::Io { segment: sub.display().to_string(), source })?;
        let checkpoint = store.load_latest(registry)?;
        let scheduler = Scheduler::restore(checkpoint);
        let rejected_count = rejected.get(shards.len()).copied().unwrap_or(0);
        shards.push(FleetClient::resume(scheduler, policy.clone(), rejected_count));
    }
    if shards.is_empty() {
        return Err(CheckpointError::Empty { dir: dir.display().to_string() });
    }
    Ok(shards)
}
