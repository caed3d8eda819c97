//! The replay driver: interleaving a timed submission stream with
//! scheduler ticks, under admission control, with optional mid-run
//! crash/restore.
//!
//! [`Driver::record`] lowers a scenario and runs it; [`Driver::replay`]
//! runs an existing [`Trace`]. Both execute the *same* code path over
//! the same lowered stream, so a recorded run and the replay of its
//! saved trace produce bit-identical [`FleetReport`]s — the property
//! the workload proptest pins down.

use crate::scenario::{ArrivalProcess, Scenario};
use crate::trace::Trace;
use crate::traffic::Arrival;
use lnls_gpu_sim::{DeviceSpec, MultiDevice};
use lnls_runtime::{
    EventSink, FleetCheckpoint, FleetClient, FleetReport, JobHandle, JobRegistry, JobStatus,
    MetricsRegistry, Scheduler, SchedulerConfig,
};
use lnls_shard::{ParallelFleet, ShardConfig};
use std::collections::VecDeque;
use std::fmt;

/// Closed-loop recordings abandon a submission after this many shed
/// attempts — a termination backstop for admission policies that can
/// never admit it, far above anything a drainable fleet produces.
const MAX_CLOSED_LOOP_ATTEMPTS: u32 = 64;

/// What one driven run produced: the fleet's own report plus the
/// driver-side counters (submissions that bounced at admission never
/// reach the scheduler, so only the driver can count them).
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Scenario name the run was lowered from.
    pub scenario: String,
    /// The lowering seed.
    pub seed: u64,
    /// Submissions attempted (the trace's arrival count).
    pub submitted: u64,
    /// Submissions admitted by the fleet client.
    pub admitted: u64,
    /// Submissions bounced outright with a
    /// [`SubmitError`](lnls_runtime::SubmitError).
    pub bounced: u64,
    /// Crash/restore cycles the driver performed.
    pub crashes: u64,
    /// Driver ticks executed.
    pub ticks: u64,
    /// The fleet's throughput/fairness/telemetry report.
    pub fleet: FleetReport,
}

impl fmt::Display for WorkloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workload '{}' (seed {}): {} submitted, {} admitted, {} bounced, {} crash(es), {} ticks",
            self.scenario, self.seed, self.submitted, self.admitted, self.bounced, self.crashes,
            self.ticks
        )?;
        write!(f, "{}", self.fleet)
    }
}

/// Drives traces through a [`ParallelFleet`]: [`record`](Self::record)
/// lowers and runs a scenario, [`replay`](Self::replay) re-runs a
/// trace bit-identically. Every entry point shares one replay loop and
/// one fleet builder, at any shard and worker count.
pub struct Driver;

impl Driver {
    /// Lower `(scenario, seed)` and run it, returning the trace (ready
    /// to [`save`](Trace::save)) alongside the report.
    ///
    /// Scenarios with [`ArrivalProcess::ClosedLoop`] arrivals take the
    /// completion-gated recording loop instead: the returned trace
    /// carries the delivery tick of every attempt, so replaying it is
    /// open-loop and bit-identical to the recording.
    pub fn record(scenario: &Scenario, seed: u64) -> (Trace, WorkloadReport) {
        if let ArrivalProcess::ClosedLoop { clients, retry_after_ticks } = scenario.arrivals {
            return Self::record_closed_loop(scenario, seed, clients, retry_after_ticks);
        }
        let trace = crate::TrafficGen::lower(scenario, seed);
        let report = Self::replay(&trace);
        (trace, report)
    }

    /// Run a lowered trace to completion.
    ///
    /// Arrivals are delivered when the fleet clock reaches their
    /// timestamp; when the fleet is fully idle the next arrival is
    /// delivered immediately (modeled time cannot advance through an
    /// empty fleet). With [`Trace::crash_at_tick`] set, the driver
    /// serializes the whole fleet to checkpoint bytes at that tick,
    /// drops it, and resumes from the decoded bytes — jobs submitted
    /// [`without_checkpoint`](lnls_runtime::JobSpec::without_checkpoint)
    /// are lost there, exactly as a real crash would lose them.
    pub fn replay(trace: &Trace) -> WorkloadReport {
        Self::run(trace, None, false).0
    }

    /// [`replay`](Self::replay) with an explicit worker-thread count,
    /// the caller's thread included. Bit-identical to a plain replay of
    /// the same trace at any count — the `parallel_fleet` harness pins
    /// that across the catalog — just faster once per-shard work
    /// dominates the per-tick handoff.
    pub fn replay_with_workers(trace: &Trace, workers: usize) -> WorkloadReport {
        let mut trace = trace.clone();
        trace.fleet.workers = workers.max(1);
        Self::replay(&trace)
    }

    /// [`replay`](Self::replay) with a structured event sink attached:
    /// every fleet lifecycle event (submissions, rejections, placements,
    /// quanta, preemptions, completions) flows into `sink`, stamped with
    /// tick and modeled seconds. Observation is strictly passive — the
    /// returned report is bit-identical to a bare [`replay`](Self::replay)
    /// of the same trace. Across a simulated crash the driver detaches
    /// the sink before dropping the fleet and reattaches it to the
    /// restored one, so the event stream spans the crash (checkpoints
    /// never persist observers).
    pub fn replay_observed(trace: &Trace, sink: Box<dyn EventSink>) -> WorkloadReport {
        Self::run(trace, Some(sink), false).0
    }

    /// [`replay`](Self::replay) with a live [`MetricsRegistry`]
    /// attached, returned alongside the report. Counters in the
    /// registry match the report's outcome fields (completed, cancelled,
    /// rejected, preemptions); histograms carry wait/turnaround/quantum
    /// distributions. Carried across simulated crashes like the event
    /// sink in [`replay_observed`](Self::replay_observed).
    pub fn replay_metered(trace: &Trace) -> (WorkloadReport, MetricsRegistry) {
        let (report, metrics) = Self::run(trace, None, true);
        (report, metrics.unwrap_or_default())
    }

    /// The one replay loop every public entry point shares. `sink` and
    /// `metered` attach observers; both are detached before the
    /// crash-tick `drop` and reattached after restore, so observation
    /// never leaks into checkpoint bytes (which would break replay
    /// bit-identity) and never loses events across the crash.
    ///
    /// Every trace runs on a [`ParallelFleet`] (see [`build`](Self::build));
    /// a 1-shard fleet is byte-for-byte a bare [`FleetClient`], so
    /// pre-sharding traces replay byte-for-byte. Decisions, all
    /// deterministic and all on the caller's thread between ticks:
    ///
    /// * An arrival is due when its *target shard's* clock reaches its
    ///   timestamp (tenants route by consistent hashing), or when the
    ///   whole fleet is idle — which reduces to a bare client's rule on
    ///   one shard.
    /// * Event sinks attach to shard 0 only: event streams are
    ///   per-scheduler time series, and samples from shards with
    ///   unsynchronized clocks do not interleave meaningfully. Metrics
    ///   registries attach to *every* shard — counters and histograms
    ///   are additive, so the per-shard registries merge into exact
    ///   fleet-wide totals at the end.
    /// * The simulated crash serializes every shard's checkpoint bytes,
    ///   drops the fleet (joining its helper threads), and reassembles
    ///   it from the decoded shards with the steal-barrier phase
    ///   realigned to the crash tick.
    fn run(
        trace: &Trace,
        sink: Option<Box<dyn EventSink>>,
        metered: bool,
    ) -> (WorkloadReport, Option<MetricsRegistry>) {
        let registry = JobRegistry::with_builtin();
        let mut fleet = Self::build(trace);
        if let Some(sink) = sink {
            fleet.shard_mut(0).attach_sink(sink);
        }
        if metered {
            for i in 0..fleet.shard_count() {
                fleet.shard_mut(i).enable_metrics();
            }
        }
        let mut next = 0usize;
        let (mut admitted, mut crashes, mut ticks) = (0u64, 0u64, 0u64);
        let mut bounced = vec![0u64; fleet.shard_count()];
        loop {
            // Deliver every arrival that is due; when the fleet is
            // drained, jump to the next arrival instead of spinning.
            while let Some(arrival) = trace.arrivals.get(next) {
                let target = fleet.shard_for(&arrival.tenant);
                let due = match arrival.at_tick {
                    Some(t) => ticks >= t,
                    None => {
                        arrival.at_s <= fleet.shard(target).scheduler().now_s()
                            || (fleet.queued_len() == 0 && fleet.running_len() == 0)
                    }
                };
                if !due {
                    break;
                }
                match arrival.submit(fleet.shard_mut(target)) {
                    Ok(_) => admitted += 1,
                    Err(_) => bounced[target] += 1,
                }
                next += 1;
            }
            let progressed = fleet.tick();
            ticks += 1;
            if trace.crash_at_tick == Some(ticks) {
                let shard_bytes: Vec<Vec<u8>> = (0..fleet.shard_count())
                    .map(|i| fleet.shard(i).checkpoint().to_bytes())
                    .collect();
                // Observers survive the crash on the driver side — the
                // checkpoint never carries them (they are process
                // artifacts, not fleet state).
                let saved_sink = fleet.shard_mut(0).detach_sink();
                let saved_metrics: Vec<Option<MetricsRegistry>> =
                    (0..fleet.shard_count()).map(|i| fleet.shard_mut(i).take_metrics()).collect();
                let (shard_cfg, workers) = (*fleet.config(), fleet.worker_count());
                drop(fleet); // the crash: all in-memory state is gone
                let shards = shard_bytes
                    .iter()
                    .zip(&bounced)
                    .map(|(bytes, &shard_bounced)| {
                        let revived = FleetCheckpoint::from_bytes(bytes, &registry)
                            .expect("a checkpoint the fleet just wrote must decode");
                        let mut client = FleetClient::resume(
                            Scheduler::restore(revived),
                            trace.admission.clone(),
                            shard_bounced,
                        );
                        // Limiters are process state, never checkpoint
                        // bytes — reinstall after every restore.
                        client.set_inflight_limit(trace.fleet.max_inflight);
                        client
                    })
                    .collect();
                fleet = ParallelFleet::from_clients(shard_cfg, shards, workers, ticks);
                if let Some(sink) = saved_sink {
                    fleet.shard_mut(0).attach_sink(sink);
                }
                for (i, metrics) in saved_metrics.into_iter().enumerate() {
                    if let Some(metrics) = metrics {
                        fleet.shard_mut(i).attach_metrics(metrics);
                    }
                }
                crashes += 1;
            }
            if !progressed && next >= trace.arrivals.len() {
                break;
            }
        }
        // Flush the sink before the fleet goes away so file-backed
        // sinks are complete the moment the report is in hand.
        if let Some(mut sink) = fleet.shard_mut(0).detach_sink() {
            sink.flush();
        }
        let mut metrics: Option<MetricsRegistry> = None;
        for i in 0..fleet.shard_count() {
            if let Some(shard_metrics) = fleet.shard_mut(i).take_metrics() {
                match metrics.as_mut() {
                    Some(merged) => merged.absorb(&shard_metrics),
                    None => metrics = Some(shard_metrics),
                }
            }
        }
        (
            WorkloadReport {
                scenario: trace.scenario.clone(),
                seed: trace.seed,
                submitted: trace.arrivals.len() as u64,
                admitted,
                bounced: bounced.iter().sum(),
                crashes,
                ticks,
                fleet: fleet.fleet_report(),
            },
            metrics,
        )
    }

    /// The completion-gated recording loop behind
    /// [`record`](Self::record) for [`ArrivalProcess::ClosedLoop`]
    /// scenarios. `clients` logical submitters each keep at most one
    /// job in flight; a slot frees the tick its job turns terminal, and
    /// a shed submission backs its client off for `retry_after_ticks`
    /// before retrying. Every attempt — admitted or shed — is stamped
    /// with its delivery tick and recorded into the returned trace, so
    /// replaying it is open-loop, needs no completion feedback, and
    /// reproduces the recording bit-for-bit (sheds included, since the
    /// per-shard limiter state evolves identically).
    ///
    /// Runs on the replay loop's fleet at the scenario's worker count;
    /// every gating decision reads fleet state on the caller's thread
    /// between ticks, so the recording itself is worker-independent.
    fn record_closed_loop(
        scenario: &Scenario,
        seed: u64,
        clients: usize,
        retry_after_ticks: u64,
    ) -> (Trace, WorkloadReport) {
        let clients = clients.max(1);
        let retry_after_ticks = retry_after_ticks.max(1);
        let mut trace = crate::TrafficGen::lower(scenario, seed);
        assert!(
            trace.crash_at_tick.is_none(),
            "closed-loop recording does not support the crash stressor; crash a replay of the \
             recorded trace instead"
        );
        let mut fleet = Self::build(&trace);
        let mut pending: VecDeque<Arrival> = trace.arrivals.drain(..).collect();
        // Shed attempts waiting out their backoff: (due tick, attempts
        // so far, the arrival), in shed order.
        let mut retries: VecDeque<(u64, u32, Arrival)> = VecDeque::new();
        let mut inflight: Vec<JobHandle> = Vec::new();
        let mut recorded: Vec<Arrival> = Vec::new();
        let (mut admitted, mut bounced, mut ticks) = (0u64, 0u64, 0u64);
        loop {
            // A logical client is running a job, backing off a shed, or
            // free; only free clients submit this tick — due retries
            // first (in shed order), then fresh arrivals.
            let backing_off = retries.iter().filter(|(due, _, _)| *due > ticks).count();
            let mut free = clients.saturating_sub(inflight.len() + backing_off);
            while free > 0 {
                let (attempts, mut arrival) =
                    if retries.front().is_some_and(|(due, _, _)| *due <= ticks) {
                        let (_, attempts, arrival) = retries.pop_front().expect("front checked");
                        (attempts, arrival)
                    } else if let Some(arrival) = pending.pop_front() {
                        (0u32, arrival)
                    } else {
                        break;
                    };
                free -= 1;
                let target = fleet.shard_for(&arrival.tenant);
                arrival.at_tick = Some(ticks);
                arrival.at_s = fleet.shard(target).scheduler().now_s();
                match arrival.submit(fleet.shard_mut(target)) {
                    Ok(handle) => {
                        admitted += 1;
                        inflight.push(handle);
                    }
                    Err(_) => {
                        bounced += 1;
                        if attempts + 1 < MAX_CLOSED_LOOP_ATTEMPTS {
                            retries.push_back((
                                ticks + retry_after_ticks,
                                attempts + 1,
                                arrival.clone(),
                            ));
                        }
                    }
                }
                recorded.push(arrival);
            }
            let progressed = fleet.tick();
            ticks += 1;
            inflight.retain(|&h| matches!(fleet.status(h), JobStatus::Queued | JobStatus::Running));
            if !progressed && pending.is_empty() && retries.is_empty() && inflight.is_empty() {
                break;
            }
        }
        let report = WorkloadReport {
            scenario: trace.scenario.clone(),
            seed,
            submitted: recorded.len() as u64,
            admitted,
            bounced,
            crashes: 0,
            ticks,
            fleet: fleet.fleet_report(),
        };
        trace.arrivals = recorded;
        (trace, report)
    }

    /// The fleet `trace` runs on: `shards` schedulers under the trace's
    /// recorded [`config_version`](crate::FleetProfile::config_version)
    /// (a trace captured under v1 replays under v1 ring/steal semantics
    /// even after the current version moves on), ticked by `workers`
    /// threads, each shard fronted by the recorded in-flight bound. The
    /// fleet knobs ride in the trace, so a replayed run prices on the
    /// very engine layout and selection mode it was recorded with.
    ///
    /// # Panics
    /// When the trace names a config version this build does not know
    /// or zero shards; [`Trace::from_bytes`] refuses both.
    fn build(trace: &Trace) -> ParallelFleet {
        let profile = &trace.fleet;
        let shard_cfg = ShardConfig::for_version(profile.config_version)
            .unwrap_or_else(|e| panic!("trace '{}' is unreplayable: {e}", trace.scenario));
        let spec = DeviceSpec::gtx280().with_engines(profile.engines);
        let template = SchedulerConfig {
            cpu_workers: profile.cpu_workers,
            max_batch: profile.max_batch,
            quantum_iters: profile.quantum_iters,
            telemetry_every_ticks: Some(profile.telemetry_every_ticks),
            telemetry_max_samples: profile.telemetry_max_samples,
            selection: profile.selection,
            span_iters: profile.span_iters,
            launch_mode: profile.launch_mode,
            ..Default::default()
        };
        let mut fleet = ParallelFleet::new(
            shard_cfg,
            trace.admission.clone(),
            profile.shards,
            profile.workers,
            template,
            |_| MultiDevice::new_uniform(profile.devices, spec.clone()),
        );
        for i in 0..fleet.shard_count() {
            fleet.shard_mut(i).set_inflight_limit(profile.max_inflight);
        }
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::TrafficGen;

    /// Accounting invariant of a completed run without crashes: every
    /// submission is admitted or bounced, and every admitted job ends
    /// completed, cancelled or shed.
    #[test]
    fn counters_add_up_across_the_catalog() {
        for scenario in Scenario::catalog() {
            if scenario.crash_at_tick.is_some() {
                continue; // opt-out jobs are lost at the crash, by design
            }
            let (_, report) = Driver::record(&scenario, 4);
            let name = &scenario.name;
            assert_eq!(report.submitted, scenario.jobs, "{name}");
            assert_eq!(report.admitted + report.bounced, report.submitted, "{name}");
            let fleet = &report.fleet;
            assert_eq!(fleet.jobs_queued + fleet.jobs_running, 0, "{name}: fleet drained");
            let sheds = fleet.jobs_rejected - report.bounced;
            assert_eq!(
                fleet.jobs_completed + fleet.jobs_cancelled + sheds,
                report.admitted,
                "{name}: every admitted job must account for itself"
            );
            let telemetry = fleet.telemetry.as_ref().expect("scenarios record telemetry");
            assert!(!telemetry.is_empty(), "{name}");
        }
    }

    #[test]
    fn burst_storms_trip_the_queue_cap() {
        let (_, report) = Driver::record(&Scenario::burst(), 1);
        assert!(report.bounced > 0, "storms against a hard cap must bounce submissions");
        assert!(report.fleet.jobs_completed > 0, "the fleet still serves what it admitted");
    }

    #[test]
    fn priority_inversion_sheds_bulk_not_urgent() {
        let (trace, report) = Driver::record(&Scenario::priority_inversion(), 2);
        assert!(
            trace.arrivals.iter().any(|a| a.tenant == "urgent"),
            "the mix must contain urgent arrivals (tune weights otherwise)"
        );
        let shed_by_tenant = report.fleet.rejections_by_tenant();
        assert_eq!(
            shed_by_tenant.get("urgent"),
            None,
            "urgent tenants must never be shed: {shed_by_tenant:?}"
        );
    }

    #[test]
    fn deadline_heavy_cancels_late_jobs() {
        let (trace, report) = Driver::record(&Scenario::deadline_heavy(), 3);
        assert!(trace.arrivals.iter().any(|a| a.deadline_s.is_some()));
        assert!(
            report.fleet.jobs_cancelled > 0,
            "tight deadlines must produce misses: {}",
            report.fleet
        );
    }

    #[test]
    fn checkpoint_churn_crashes_and_finishes() {
        let scenario = Scenario::checkpoint_churn();
        let (trace, report) = Driver::record(&scenario, 5);
        assert_eq!(report.crashes, 1, "the scenario crashes once");
        assert!(report.fleet.jobs_completed > 0);
        // Jobs that opted out of checkpoints may be lost at the crash;
        // nobody else may be.
        let opted_out = trace.arrivals.iter().filter(|a| !a.checkpoint).count() as u64;
        let fleet = &report.fleet;
        let accounted =
            fleet.jobs_completed + fleet.jobs_cancelled + fleet.jobs_rejected - report.bounced;
        assert!(
            report.admitted - accounted <= opted_out,
            "only checkpoint opt-outs may vanish: admitted {}, accounted {accounted}, \
             opted out {opted_out}",
            report.admitted
        );
    }

    #[test]
    fn record_equals_inline_replay() {
        let scenario = Scenario::steady();
        let (trace, recorded) = Driver::record(&scenario, 9);
        let replayed = Driver::replay(&trace);
        assert_eq!(
            format!("{:?}", recorded.fleet),
            format!("{:?}", replayed.fleet),
            "replaying the in-memory trace must be bit-identical"
        );
    }

    #[test]
    fn sharded_saturation_round_trips_bit_identically() {
        let scenario = Scenario::saturation_sharded();
        assert!(scenario.fleet.shards > 1, "the scenario must exercise the sharded loop");
        let (trace, recorded) = Driver::record(&scenario, 11);
        let reloaded =
            crate::Trace::from_bytes(&trace.to_bytes()).expect("sharded traces round-trip");
        assert_eq!(reloaded.fleet.shards, scenario.fleet.shards);
        assert_eq!(reloaded.fleet.config_version, lnls_shard::CONFIG_VERSION);
        let replayed = Driver::replay(&reloaded);
        assert_eq!(
            format!("{:?}", recorded.fleet),
            format!("{:?}", replayed.fleet),
            "a sharded trace reloaded from bytes must replay bit-identically"
        );
        assert!(recorded.fleet.jobs_completed > 0);
    }

    #[test]
    fn sharded_crash_restores_every_shard() {
        let mut scenario = Scenario::saturation_sharded();
        scenario.crash_at_tick = Some(12);
        let (trace, report) = Driver::record(&scenario, 3);
        assert_eq!(report.crashes, 1, "the driver must crash the sharded fleet once");
        assert!(report.fleet.jobs_completed > 0, "the restored fleet must finish the work");
        let replayed = Driver::replay(&trace);
        assert_eq!(
            format!("{:?}", report.fleet),
            format!("{:?}", replayed.fleet),
            "crash/restore across shards must stay deterministic"
        );
    }

    #[test]
    fn closed_loop_records_sheds_and_replays_bit_identically() {
        let scenario = Scenario::closed_loop_saturation();
        let (trace, recorded) = Driver::record(&scenario, 7);
        assert!(recorded.bounced > 0, "the in-flight bound must shed attempts: {recorded}");
        assert_eq!(recorded.admitted, scenario.jobs, "every logical job eventually admits");
        assert_eq!(recorded.admitted + recorded.bounced, recorded.submitted);
        assert!(
            trace.arrivals.iter().all(|a| a.at_tick.is_some()),
            "closed-loop recordings stamp the delivery tick of every attempt"
        );
        // Through bytes the worker count resets to one (it is not
        // persisted), so this replays the recording on one worker.
        let reloaded = crate::Trace::from_bytes(&trace.to_bytes()).expect("round-trip");
        assert_eq!(reloaded.fleet.workers, 1);
        let replayed = Driver::replay(&reloaded);
        assert_eq!(recorded.ticks, replayed.ticks, "the delivery schedule must replay verbatim");
        assert_eq!(recorded.admitted, replayed.admitted);
        assert_eq!(recorded.bounced, replayed.bounced, "sheds must reproduce identically");
        assert_eq!(
            format!("{:?}", recorded.fleet),
            format!("{:?}", replayed.fleet),
            "a closed-loop recording must replay bit-identically on one worker"
        );
    }

    #[test]
    fn saturation_exercises_every_backend() {
        let (trace, report) = Driver::record(&Scenario::saturation(), 6);
        assert!(report.fleet.fused_launches > 0, "same-key tabu lanes must fuse");
        assert!(
            report.fleet.device_busy_s.iter().all(|&b| b > 0.0),
            "every device must see work: {:?}",
            report.fleet.device_busy_s
        );
        let qaps =
            trace.arrivals.iter().filter(|a| a.recipe.family() == crate::Family::Qap).count();
        assert!(qaps > 0, "saturation must include QAP tenants");
    }

    #[test]
    fn report_display_names_the_scenario() {
        let trace = TrafficGen::lower(&Scenario::steady().scaled(0.3), 1);
        let report = Driver::replay(&trace);
        let text = report.to_string();
        assert!(text.contains("workload 'steady'"), "{text}");
        assert!(text.contains("wait p50/p95/p99"), "{text}");
    }
}
