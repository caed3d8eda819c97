//! Set-up and the timed replay loop.
//!
//! The loop makes the decisions `Driver::replay` makes — arrivals are
//! due when their shard's modeled clock reaches them or the fleet is
//! idle, and a crash serializes every shard, drops the fleet and resumes
//! from the decoded bytes — but calls the public functions itself, so
//! each call can be timed and, in a traced replay, spanned.

use crate::spans;
use crate::timed;
use crate::workloads::{self, Workload};
use lnls_gpu_sim::{DeviceSpec, MultiDevice};
use lnls_runtime::{
    DeltaCheckpointer, FleetCheckpoint, FleetClient, FleetReport, JobRegistry, JobReport,
    Scheduler, SchedulerConfig, SnapshotKind,
};
use lnls_shard::{ParallelFleet, ShardConfig};
use lnls_workload::{Scenario, Trace};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Deltas written between two base snapshots on `ckpt-churn`.
const DELTAS_PER_BASE: u64 = 32;

/// The fleet a replay drives: one bare client, or shards on worker
/// threads.
#[allow(clippy::large_enum_variant)] // one per replay; its size is irrelevant
pub enum Fleet {
    Serial(FleetClient),
    Parallel(ParallelFleet),
}

impl Fleet {
    /// The fleet `Driver` builds for `trace`, except that every sharded
    /// trace runs on `ParallelFleet` (at 1 worker it is bit-identical to
    /// the serial sharded path).
    fn build(trace: &Trace) -> Fleet {
        let spec = DeviceSpec::gtx280().with_engines(trace.fleet.engines);
        let cfg = SchedulerConfig {
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
        let devices = trace.fleet.devices;
        let mut fleet = if trace.fleet.shards > 1 {
            let shard_cfg = ShardConfig::for_version(trace.fleet.config_version)
                .unwrap_or_else(|e| panic!("trace '{}' is unreplayable: {e}", trace.scenario));
            Fleet::Parallel(ParallelFleet::new(
                shard_cfg,
                trace.admission.clone(),
                trace.fleet.shards,
                trace.fleet.workers,
                cfg,
                move |_| MultiDevice::new_uniform(devices, spec.clone()),
            ))
        } else {
            let scheduler = Scheduler::new(MultiDevice::new_uniform(devices, spec), cfg);
            Fleet::Serial(FleetClient::new(scheduler, trace.admission.clone()))
        };
        for i in 0..fleet.shard_count() {
            fleet.shard_mut(i).set_inflight_limit(trace.fleet.max_inflight);
        }
        fleet
    }

    pub fn shard_count(&self) -> usize {
        match self {
            Fleet::Serial(_) => 1,
            Fleet::Parallel(f) => f.shard_count(),
        }
    }

    pub fn workers(&self) -> usize {
        match self {
            Fleet::Serial(_) => 1,
            Fleet::Parallel(f) => f.worker_count(),
        }
    }

    fn shard(&self, i: usize) -> &FleetClient {
        match self {
            Fleet::Serial(c) => c,
            Fleet::Parallel(f) => f.shard(i),
        }
    }

    fn shard_mut(&mut self, i: usize) -> &mut FleetClient {
        match self {
            Fleet::Serial(c) => c,
            Fleet::Parallel(f) => f.shard_mut(i),
        }
    }

    fn shard_for(&self, tenant: &str) -> usize {
        match self {
            Fleet::Serial(_) => 0,
            Fleet::Parallel(f) => f.shard_for(tenant),
        }
    }

    /// Queued plus running jobs on shard `i`.
    fn load(&self, i: usize) -> usize {
        let s = self.shard(i).scheduler();
        s.queued_len() + s.running_len()
    }

    fn idle(&self) -> bool {
        (0..self.shard_count()).all(|i| self.load(i) == 0)
    }

    fn tick(&mut self) -> bool {
        match self {
            Fleet::Serial(c) => c.tick(),
            Fleet::Parallel(f) => f.tick(),
        }
    }

    fn steals(&self) -> u64 {
        match self {
            Fleet::Serial(_) => 0,
            Fleet::Parallel(f) => f.steals(),
        }
    }

    fn fleet_report(&self) -> FleetReport {
        match self {
            Fleet::Serial(c) => c.fleet_report(),
            Fleet::Parallel(f) => f.fleet_report(),
        }
    }

    /// Every finished job's name, tenant, fate and search outcome (best
    /// fitness, iterations, success), sorted: what a crash/restore must
    /// leave unchanged, unlike the modeled timings it re-prices.
    fn job_outcomes(&self) -> Vec<String> {
        let reports: Vec<&JobReport> = match self {
            Fleet::Serial(c) => c.reports().collect(),
            Fleet::Parallel(f) => f.reports().collect(),
        };
        let mut outcomes: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "{} {} cancelled={} rejected={} {:?}",
                    r.name, r.tenant, r.cancelled, r.rejected, r.outcome
                )
            })
            .collect();
        outcomes.sort_unstable();
        outcomes
    }
}

/// What building a [`Setup`] cost.
#[derive(Copy, Clone)]
pub struct SetupTimes {
    pub lower_s: f64,
    pub codec_s: f64,
    pub trace_bytes: usize,
    pub total_s: f64,
}

/// Everything a replay starts from.
pub struct Setup {
    trace: Trace,
    registry: JobRegistry,
    fleet: Fleet,
    pub times: SetupTimes,
}

/// Lower the scenario, round-trip the trace through bytes, build the
/// registry and the fleet, and spawn the workers.
pub fn setup(workload: Workload, scenario: &Scenario, seed: u64, traced: bool) -> Setup {
    let start = Instant::now();
    let lowered = workload.lower(scenario, seed);
    let lowered_at = Instant::now();
    let bytes = lowered.to_bytes();
    let mut trace = Trace::from_bytes(&bytes).expect("a trace just encoded must decode");
    let decoded_at = Instant::now();
    // The worker count is an execution knob that traces do not persist.
    trace.fleet.workers = workload.workers();
    let registry = if traced { timed::traced_registry() } else { JobRegistry::with_builtin() };
    let fleet = Fleet::build(&trace);
    let end = Instant::now();
    Setup {
        trace,
        registry,
        fleet,
        times: SetupTimes {
            lower_s: (lowered_at - start).as_secs_f64(),
            codec_s: (decoded_at - lowered_at).as_secs_f64(),
            trace_bytes: bytes.len(),
            total_s: (end - start).as_secs_f64(),
        },
    }
}

/// What a replay does besides ticking.
pub struct Options {
    /// Wrap jobs, record spans and read the shard-balance counters.
    pub traced: bool,
    /// Crash and restore every this many ticks.
    pub recover_every: Option<u64>,
    /// Take a delta snapshot of every shard every
    /// [`workloads::CHURN_SNAPSHOT_EVERY`] ticks, into `shard-NNN`
    /// directories under this one.
    pub delta_dir: Option<PathBuf>,
}

/// Sums over one replay. Persistence and recovery figures are kept on
/// every replay; the rest only on traced ones.
#[derive(Default)]
pub struct Layers {
    pub submit_s: f64,
    pub recipe_s: f64,
    pub tick_s: f64,
    pub bookkeeping_s: f64,
    pub exec_s: f64,
    pub exec_steps: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub restore_s: f64,
    pub ckpt_bytes: u64,
    pub ckpts: u64,
    pub recoveries: u64,
    pub delta_s: f64,
    pub delta_bytes: u64,
    pub delta_segments: u64,
    pub delta_dirty: u64,
    pub delta_live: u64,
    pub base_snapshots: u64,
    pub report_s: f64,
    pub balance_ticks: u64,
    pub single_busy_ticks: u64,
    pub imbalance_sum: f64,
    pub steals: u64,
    pub cpu_s: f64,
    pub workers: usize,
}

/// One replay's outcome.
pub struct Replay {
    pub wall_s: f64,
    pub submitted: u64,
    pub admitted: u64,
    pub bounced: u64,
    pub ticks: u64,
    pub report: FleetReport,
    pub jobs: Vec<String>,
    pub tick_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    pub layers: Layers,
    pub spans: Vec<spans::Span>,
    pub root_span: u32,
}

/// Drive `setup`'s trace through its fleet until every arrival is
/// delivered and the fleet is drained.
pub fn replay(setup: Setup, opts: &Options) -> Replay {
    let Setup { trace, registry, mut fleet, .. } = setup;
    let traced = opts.traced;
    let shards = fleet.shard_count();
    let mut layers = Layers { workers: fleet.workers(), ..Layers::default() };
    let mut checkpointers: Option<Vec<DeltaCheckpointer>> = opts.delta_dir.as_ref().map(|dir| {
        (0..shards)
            .map(|i| {
                DeltaCheckpointer::open(dir.join(format!("shard-{i:03}")), DELTAS_PER_BASE)
                    .expect("open delta checkpoint directory")
            })
            .collect()
    });
    let mut bounced = vec![0u64; shards];
    let (mut next, mut admitted, mut ticks) = (0usize, 0u64, 0u64);
    let mut tick_ns = Vec::new();
    let mut recover_ns = Vec::new();
    spans::enable(traced);
    let exec_before = timed::exec_ns();
    let steps_before = timed::exec_steps();
    let cpu_before = crate::stats::process_cpu_s();
    let root = spans::open("replay");
    let root_span = root.as_ref().map_or(0, spans::Open::id);
    let start = Instant::now();
    loop {
        while let Some(arrival) = trace.arrivals.get(next) {
            let target = fleet.shard_for(&arrival.tenant);
            let due = match arrival.at_tick {
                Some(t) => ticks >= t,
                None => arrival.at_s <= fleet.shard(target).scheduler().now_s() || fleet.idle(),
            };
            if !due {
                break;
            }
            let result = if traced {
                let span = spans::open("runtime.submit");
                let t = Instant::now();
                let (result, recipe_s) = timed::submit_timed(arrival, fleet.shard_mut(target));
                layers.submit_s += t.elapsed().as_secs_f64();
                layers.recipe_s += recipe_s;
                spans::close(span);
                result
            } else {
                arrival.submit(fleet.shard_mut(target))
            };
            match result {
                Ok(_) => admitted += 1,
                Err(_) => bounced[target] += 1,
            }
            next += 1;
        }
        if traced {
            let t = Instant::now();
            balance(&fleet, &mut layers);
            spans::record("bench.balance", t, Instant::now());
        }
        let progressed = if traced {
            let span = spans::open(if shards > 1 { "shard.tick" } else { "runtime.tick" });
            spans::set_worker_parent(&span);
            let before = timed::exec_ns();
            let t = Instant::now();
            let progressed = fleet.tick();
            let dt = t.elapsed();
            let after = timed::exec_ns();
            spans::close(span);
            // The longest single-thread exec stretch inside the tick is
            // on its critical path; the rest of the tick is self time.
            let critical = (0..timed::SLOTS).map(|i| after[i] - before[i]).max().unwrap_or(0);
            tick_ns.push(dt.as_nanos() as u64);
            layers.tick_s += dt.as_secs_f64();
            layers.bookkeeping_s += dt.saturating_sub(Duration::from_nanos(critical)).as_secs_f64();
            progressed
        } else {
            let t = Instant::now();
            let progressed = fleet.tick();
            tick_ns.push(t.elapsed().as_nanos() as u64);
            progressed
        };
        ticks += 1;
        let snapshot_due = ticks.is_multiple_of(workloads::CHURN_SNAPSHOT_EVERY);
        if let Some(checkpointers) = checkpointers.as_mut().filter(|_| snapshot_due) {
            let span = spans::open("runtime.delta_snapshot");
            let t = Instant::now();
            for (i, cp) in checkpointers.iter_mut().enumerate() {
                let stats = cp.snapshot(fleet.shard(i).scheduler()).expect("delta snapshot");
                layers.delta_bytes += stats.bytes;
                layers.delta_segments += 1;
                layers.delta_dirty += stats.dirty_jobs as u64;
                layers.delta_live += stats.live_jobs as u64;
                layers.base_snapshots += u64::from(stats.kind == SnapshotKind::Base);
            }
            layers.delta_s += t.elapsed().as_secs_f64();
            spans::close(span);
        }
        if opts.recover_every.is_some_and(|k| ticks.is_multiple_of(k)) {
            let t = Instant::now();
            fleet = recover(fleet, &trace, &registry, &bounced, &mut layers);
            recover_ns.push(t.elapsed().as_nanos() as u64);
        }
        if !progressed && next >= trace.arrivals.len() {
            break;
        }
    }
    let t = Instant::now();
    let report = fleet.fleet_report();
    let end = Instant::now();
    spans::record("runtime.report", t, end);
    spans::close(root);
    layers.report_s = (end - t).as_secs_f64();
    layers.steals = fleet.steals();
    layers.cpu_s = crate::stats::process_cpu_s() - cpu_before;
    let exec_after = timed::exec_ns();
    layers.exec_s =
        (0..timed::SLOTS).map(|i| exec_after[i] - exec_before[i]).sum::<u64>() as f64 / 1e9;
    layers.exec_steps = timed::exec_steps() - steps_before;
    spans::enable(false);
    let jobs = fleet.job_outcomes();
    drop(fleet);
    if let Some(dir) = &opts.delta_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Replay {
        wall_s: (end - start).as_secs_f64(),
        submitted: trace.arrivals.len() as u64,
        admitted,
        bounced: bounced.iter().sum(),
        ticks,
        report,
        jobs,
        tick_ns,
        recover_ns,
        layers,
        spans: spans::take(),
        root_span,
    }
}

/// Shard-balance counters, read on the coordinator before a tick: how
/// many shards have work, and the max over mean of their loads.
fn balance(fleet: &Fleet, layers: &mut Layers) {
    let loads: Vec<usize> = (0..fleet.shard_count()).map(|i| fleet.load(i)).collect();
    let total: usize = loads.iter().sum();
    if total == 0 {
        return;
    }
    layers.balance_ticks += 1;
    layers.single_busy_ticks += u64::from(loads.iter().filter(|&&l| l > 0).count() == 1);
    let mean = total as f64 / loads.len() as f64;
    layers.imbalance_sum += *loads.iter().max().expect("a fleet has shards") as f64 / mean;
}

/// The crash: encode every shard's checkpoint, drop the fleet, decode
/// the bytes and resume a fleet of the same shape.
fn recover(
    fleet: Fleet,
    trace: &Trace,
    registry: &JobRegistry,
    bounced: &[u64],
    layers: &mut Layers,
) -> Fleet {
    let span = spans::open("runtime.recover");
    let t = Instant::now();
    let bytes: Vec<Vec<u8>> =
        (0..fleet.shard_count()).map(|i| fleet.shard(i).checkpoint().to_bytes()).collect();
    let encoded = Instant::now();
    spans::record("runtime.ckpt_encode", t, encoded);
    layers.ckpt_bytes += bytes.iter().map(|b| b.len() as u64).sum::<u64>();
    layers.ckpts += bytes.len() as u64;
    let parallel = match &fleet {
        Fleet::Serial(_) => None,
        Fleet::Parallel(f) => Some((*f.config(), f.worker_count(), f.ticks())),
    };
    drop(fleet);
    let dropped = Instant::now();
    // Dropping a parallel fleet joins its worker threads.
    let drop_span = if parallel.is_some() { "shard.join" } else { "runtime.drop" };
    spans::record(drop_span, encoded, dropped);
    let checkpoints: Vec<FleetCheckpoint> = bytes
        .iter()
        .map(|b| {
            FleetCheckpoint::from_bytes(b, registry)
                .expect("a checkpoint the fleet just wrote must decode")
        })
        .collect();
    let decoded = Instant::now();
    spans::record("runtime.ckpt_decode", dropped, decoded);
    let mut clients: Vec<FleetClient> = checkpoints
        .into_iter()
        .zip(bounced)
        .map(|(cp, &shard_bounced)| {
            let mut client =
                FleetClient::resume(Scheduler::restore(cp), trace.admission.clone(), shard_bounced);
            client.set_inflight_limit(trace.fleet.max_inflight);
            client
        })
        .collect();
    let fleet = match parallel {
        None => Fleet::Serial(clients.pop().expect("one shard")),
        Some((cfg, workers, ticks)) => {
            Fleet::Parallel(ParallelFleet::from_clients(cfg, clients, workers, ticks))
        }
    };
    let end = Instant::now();
    spans::record("runtime.restore", decoded, end);
    spans::close(span);
    layers.encode_s += (encoded - t).as_secs_f64();
    layers.decode_s += (decoded - dropped).as_secs_f64();
    layers.restore_s += (end - decoded).as_secs_f64() + (dropped - encoded).as_secs_f64();
    layers.recoveries += 1;
    fleet
}
