//! The cross-shard steps of [`ParallelFleet`](crate::ParallelFleet):
//! the steal barrier, the per-shard restore walk and the report merge.

use crate::config::ShardConfig;
use crate::ring::fnv1a;
use lnls_runtime::{
    percentile_sorted, AdmissionPolicy, CheckpointError, FleetClient, FleetReport, JobRegistry,
    Scheduler, Telemetry, TenantStat,
};
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

/// Merge per-shard reports into one fleet-wide report (see
/// [`ParallelFleet::fleet_report`](crate::ParallelFleet::fleet_report)
/// for the field-by-field semantics).
pub(crate) fn merge_reports(reports: &[FleetReport]) -> FleetReport {
    let mut merged = reports[0].clone();
    for r in &reports[1..] {
        merged.jobs_completed += r.jobs_completed;
        merged.jobs_cancelled += r.jobs_cancelled;
        merged.jobs_rejected += r.jobs_rejected;
        merged.jobs_queued += r.jobs_queued;
        merged.jobs_running += r.jobs_running;
        merged.makespan_s = merged.makespan_s.max(r.makespan_s);
        merged.serialized_s += r.serialized_s;
        merged.device_busy_s.extend_from_slice(&r.device_busy_s);
        merged.cpu_busy_s.extend_from_slice(&r.cpu_busy_s);
        merged.fused_launches += r.fused_launches;
        merged.launches_saved += r.launches_saved;
        merged.preemptions += r.preemptions;
        merged.iterations_executed += r.iterations_executed;
        merged.stream_makespan_s = merged.stream_makespan_s.max(r.stream_makespan_s);
        merged.stream_serialized_s += r.stream_serialized_s;
        merged.spans += r.spans;
        merged.span_iterations += r.span_iterations;
        merged.launch_overhead_saved_s += r.launch_overhead_saved_s;
        merged.tenant_stats.extend(r.tenant_stats.iter().cloned());
        merged.fleet_book.add(&r.fleet_book);
    }
    // Telemetry: the fleet ticks every shard in lockstep, so series
    // recorded at the same cadence align index for index and merge
    // sample-by-sample (counts sum, devices concatenate shard-major,
    // the clock maxes — see [`Telemetry::merge`]). If any shard ran
    // unsampled there is no aligned fleet-wide series; shard 0's (the
    // observed shard, by the same convention drivers use for event
    // sinks) then stands in, which `merged` already carries.
    if let Some(series) =
        reports.iter().map(|r| r.telemetry.as_ref()).collect::<Option<Vec<&Telemetry>>>()
    {
        merged.telemetry = Some(Telemetry::merge(&series));
    }
    merged.speedup_vs_serial =
        if merged.makespan_s > 0.0 { merged.serialized_s / merged.makespan_s } else { 1.0 };
    merged.jobs_per_sim_s = if merged.makespan_s > 0.0 {
        merged.jobs_completed as f64 / merged.makespan_s
    } else {
        0.0
    };
    // Utilization is against the *fleet* makespan: a shard that
    // finished early idles (from the fleet's point of view) until the
    // slowest shard drains.
    merged.device_utilization = merged
        .device_busy_s
        .iter()
        .map(|&busy| if merged.makespan_s > 0.0 { busy / merged.makespan_s } else { 0.0 })
        .collect();
    // Fairness aggregates recomputed over the union of per-job rows,
    // mirroring `Scheduler::fleet_report` (rejected rows excluded).
    let served: Vec<&TenantStat> = merged.tenant_stats.iter().filter(|t| !t.rejected).collect();
    merged.max_wait_s = served.iter().map(|t| t.wait_s).fold(0.0, f64::max);
    merged.max_turnaround_s = served.iter().map(|t| t.turnaround_s).fold(0.0, f64::max);
    let count = served.len().max(1) as f64;
    merged.mean_wait_s = served.iter().map(|t| t.wait_s).sum::<f64>() / count;
    merged.mean_turnaround_s = served.iter().map(|t| t.turnaround_s).sum::<f64>() / count;
    let mut waits: Vec<f64> = served.iter().map(|t| t.wait_s).collect();
    waits.sort_by(f64::total_cmp);
    let mut turnarounds: Vec<f64> = served.iter().map(|t| t.turnaround_s).collect();
    turnarounds.sort_by(f64::total_cmp);
    merged.wait_p50_s = percentile_sorted(&waits, 0.50);
    merged.wait_p95_s = percentile_sorted(&waits, 0.95);
    merged.wait_p99_s = percentile_sorted(&waits, 0.99);
    merged.turnaround_p50_s = percentile_sorted(&turnarounds, 0.50);
    merged.turnaround_p95_s = percentile_sorted(&turnarounds, 0.95);
    merged.turnaround_p99_s = percentile_sorted(&turnarounds, 0.99);
    merged
}
