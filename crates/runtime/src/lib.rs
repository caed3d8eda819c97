//! # lnls-runtime — a batched multi-tenant search scheduler
//!
//! The paper's protocol never runs *one* search: every configuration is
//! 50 independent tries, and its §V perspective spreads work across
//! devices. This crate turns the workspace's single-search machinery
//! into a service-shaped subsystem:
//!
//! * **One problem-agnostic submission API**: anything implementing
//!   [`SearchJob`] — build a steppable executor, price its launches,
//!   name a persistence tag — goes through the single generic
//!   [`Scheduler::submit`]. Five workloads ship: [`BinaryJob`]
//!   (full-neighborhood tabu, fusable), [`QapJobSpec`] (robust tabu
//!   over swap moves), [`AnnealJob`] (simulated annealing with
//!   sampling-style pricing), [`LnsJob`] (destroy-and-repair large
//!   neighborhood search whose per-round repair lanes price as one
//!   fused multi-lane stream span) and [`PortfolioJob`] (a
//!   tabu/annealing/descent race over one instance that reallocates
//!   iteration budget to the leading lane at quantum boundaries, and
//!   attaches a [`PortfolioOutcome`](lnls_lns::PortfolioOutcome)
//!   detail saying where the budget went). Submission returns a
//!   `Copy`-able
//!   [`JobHandle`] for polling ([`Scheduler::status`]) or awaiting
//!   ([`Scheduler::await_report`]).
//! * **Admission control**: [`FleetClient`] fronts a scheduler with an
//!   [`AdmissionPolicy`] — global and per-tenant queue caps, reject vs.
//!   shed-lowest-priority — turning submission into
//!   `Result<JobHandle, SubmitError>`; shed jobs report
//!   [`JobStatus::Rejected`]. [`JobSpec`] envelopes add tenant
//!   attribution, name/priority overrides, iteration budgets, deadlines
//!   and a per-job checkpoint policy. A [`ConcurrencyLimiter`]
//!   optionally fronts the client with a hard in-flight bound
//!   (queued + running), shedding overload submissions with
//!   [`SubmitError::Overloaded`] instead of queueing without bound —
//!   the backstop the parallel service runtime's closed-loop clients
//!   retry against.
//! * The [`Scheduler`] owns a [`MultiDevice`](lnls_gpu_sim::MultiDevice)
//!   fleet plus CPU worker backends and places queued jobs under a
//!   [`PlacePolicy`] (round-robin or least-loaded), charging modeled
//!   wall-clock through the gpu-sim cost models so fleet makespan and
//!   per-device utilization come out of one consistent ledger.
//! * **Launch batching with stream-overlapped pricing**: queued jobs
//!   sharing a problem family and neighborhood fuse their per-iteration
//!   evaluations into one larger simulated launch (driven by
//!   [`BatchedExplorer`](lnls_core::BatchedExplorer)), amortizing launch
//!   overhead — the paper's large-neighborhood effect applied across
//!   tenants instead of within one search. Each fused iteration is
//!   priced as a breadth-first stream schedule under the device's engine
//!   layout ([`DeviceSpec::engines`](lnls_gpu_sim::DeviceSpec)): on the
//!   paper's GT200 the makespan equals the serial sum, while multi-engine
//!   layouts overlap per-lane copies and the fleet clock charges the
//!   (smaller) makespan. [`FleetReport::stream_overlap_factor`] reports
//!   the win.
//! * **On-device argmin selection**: [`SchedulerConfig::selection`]
//!   (overridable per job via [`JobSpec::with_selection`]) prices the
//!   readback either as the paper's full `m·8`-byte fitness download
//!   ([`SelectionMode::HostArgmin`]) or as one extra tree-reduction
//!   launch plus a single packed `(fitness, index)` record per lane
//!   ([`SelectionMode::DeviceArgmin`]) — pricing-only, results
//!   bit-identical; [`FleetReport::d2h_bytes_per_iteration`] shows the
//!   traffic collapse.
//! * **Preemption & fair share**: every job — binary tabu and QAP robust
//!   tabu alike — is a resumable [`SearchCursor`](lnls_core::SearchCursor),
//!   so with [`SchedulerConfig::quantum_iters`] set, assignments become
//!   time slices served by deficit round-robin weighted by `priority + 1`.
//!   A long QAP run no longer starves short tenants, and results are
//!   provably invariant under any quantum (the preemption proptest
//!   sweeps it).
//! * **Cancellation**: [`Scheduler::cancel`] drains a queued or running
//!   job at the next quantum boundary; its report is marked
//!   [`cancelled`](JobReport::cancelled) and carries the best-so-far.
//! * **Checkpoint/resume** ([`Scheduler::checkpoint`],
//!   [`Scheduler::restore`]) snapshots queued *and in-flight* jobs
//!   (mid-search cursor state included); a restored fleet continues
//!   deterministically. [`FleetCheckpoint::save`] /
//!   [`FleetCheckpoint::load`] round-trip the snapshot through a
//!   hand-rolled byte format (no serde offline) so fleets survive
//!   process restarts; [`JobRegistry`] maps persisted job tags back to
//!   concrete types through the same [`JobCodec`] trait family
//!   submission uses. Periodic snapshots come from a
//!   [`DeltaCheckpointer`] (a rotating base plus dirty-job deltas), and
//!   [`CheckpointStore::load_latest`] revives a crashed fleet from its
//!   last one.
//! * [`FleetReport`] summarizes throughput *and fairness*: makespan,
//!   busy fractions, jobs per simulated second, speedup versus the
//!   serialized one-device baseline, preemption counts, per-tenant
//!   wait/turnaround stats ([`TenantStat`]) and p50/p95/p99 wait and
//!   turnaround percentiles.
//! * **Telemetry over time**: with
//!   [`SchedulerConfig::telemetry_every_ticks`] set, the tick loop
//!   records a [`TickSample`] series — queue depth, running jobs,
//!   cumulative completions/cancellations/rejections, per-device busy
//!   time — surfaced through [`Scheduler::telemetry`] and
//!   [`FleetReport::telemetry`]; this is the backpressure history the
//!   `lnls-workload` scenario driver plots and regresses on.
//! * **Structured observability** ([`observe`](crate::EventSink)): a
//!   typed [`FleetEvent`] stream (submission through completion, quantum
//!   by quantum) emitted behind a pluggable [`EventSink`]
//!   ([`RingSink`] in memory, [`JsonlSink`] to disk), a
//!   [`MetricsRegistry`] of counters/gauges/log2 histograms with a
//!   Prometheus-text renderer, per-tenant event analytics
//!   ([`tenant_summaries`]) and Chrome trace-event export
//!   ([`chrome_trace`]). Strictly observational: zero-cost when nothing
//!   is attached, never checkpointed, results bit-identical either way.
//!
//! Determinism is a design invariant: evaluation is functional and the
//! event loop is single-threaded over *modeled* time, so a job's result
//! is bit-for-bit the result of running the same search solo.
//!
//! ## Example
//!
//! One generic `submit` serves every workload — tabu, annealing and QAP
//! jobs below all flow through the same entry point:
//!
//! ```
//! use lnls_runtime::{AnnealJob, BinaryJob, Scheduler, SchedulerConfig};
//! use lnls_core::{BitString, SearchConfig, SimulatedAnnealing, TabuSearch};
//! use lnls_gpu_sim::DeviceSpec;
//! use lnls_neighborhood::{KHamming, Neighborhood};
//! use lnls_problems::OneMax;
//!
//! let mut fleet = Scheduler::with_uniform_fleet(
//!     2,
//!     DeviceSpec::gtx280(),
//!     SchedulerConfig::default(),
//! );
//! let hood = KHamming::new(32, 2);
//! let mut handles = Vec::new();
//! for i in 0..4u64 {
//!     let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(i);
//!     let init = BitString::random(&mut rng, 32);
//!     let search = TabuSearch::paper(SearchConfig::budget(40).with_seed(i), hood.size());
//!     handles.push(fleet.submit(BinaryJob::new(
//!         format!("tabu-{i}"),
//!         OneMax::new(32),
//!         hood,
//!         search,
//!         init,
//!     )));
//! }
//! let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
//! let init = BitString::random(&mut rng, 32);
//! let sa = SimulatedAnnealing::new(SearchConfig::budget(200).with_seed(7), hood, 1.5);
//! handles.push(fleet.submit(AnnealJob::new("sa-0", OneMax::new(32), sa, init)));
//! fleet.run_until_idle();
//! let report = fleet.fleet_report();
//! assert_eq!(report.jobs_completed, 5);
//! assert!(report.speedup_vs_serial > 1.0);
//! for h in handles {
//!     assert!(fleet.report(h).expect("completed").outcome.iterations() > 0);
//! }
//! ```
//!
//! ## Migrating from `submit_binary` / `submit_qap`
//!
//! Earlier revisions exposed one submission method per workload. Both
//! are replaced by the generic path — the job types are unchanged:
//!
//! ```text
//! fleet.submit_binary(BinaryJob::new(..))  →  fleet.submit(BinaryJob::new(..))
//! fleet.submit_qap(QapJobSpec::new(..))    →  fleet.submit(QapJobSpec::new(..))
//! ```
//!
//! Handle-taking methods now take handles by value (they are `Copy`):
//! `fleet.status(h)`, `fleet.report(h)`, `fleet.cancel(h)`,
//! `fleet.await_report(h)`. Registry registration is generic too:
//! `registry.register_tabu::<P, N>()` became
//! `registry.register::<BinaryJob<P, N>>()`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod delta;
mod exec;
mod job;
mod lns;
mod observe;
mod persist;
mod report;
mod results;
mod scheduler;
mod submit;
mod telemetry;

pub use client::{AdmissionPolicy, ConcurrencyLimiter, FleetClient, SubmitError};
pub use delta::{CheckpointError, CheckpointStore, DeltaCheckpointer, SnapshotKind, SnapshotStats};
pub use exec::{BatchKey, JobExec, StepRun};
pub use job::{
    AnnealJob, BinaryJob, JobHandle, JobId, JobOutcome, JobReport, JobStatus, QapJobSpec,
};
pub use lnls_gpu_sim::{LaunchMode, SelectionMode};
pub use lns::{LnsJob, PortfolioJob};
pub use observe::{
    chrome_trace, tenant_summaries, EventRecord, EventSink, FleetEvent, Histogram, JsonlSink,
    MetricsRegistry, RejectReason, RingSink, TenantSummary,
};
pub use persist::JobRegistry;
pub use report::{FleetReport, TenantStat};
pub use scheduler::{FleetCheckpoint, PlacePolicy, Scheduler, SchedulerConfig, StolenJob};
pub use submit::{JobCodec, JobSpec, SearchJob, SubmitCtx};
pub use telemetry::{percentile, percentile_sorted, Telemetry, TickSample};

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_core::{BitString, SearchConfig, SequentialExplorer, TabuSearch};
    use lnls_gpu_sim::{DeviceSpec, MultiDevice};
    use lnls_neighborhood::{KHamming, Neighborhood};
    use lnls_problems::OneMax;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn onemax_job(i: u64, n: usize, iters: u64) -> BinaryJob<OneMax, KHamming> {
        let hood = KHamming::new(n, 2);
        let mut rng = StdRng::seed_from_u64(i);
        let init = BitString::random(&mut rng, n);
        let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(i), hood.size());
        BinaryJob::new(format!("onemax-{i}"), OneMax::new(n), hood, search, init)
    }

    fn solo_result(i: u64, n: usize, iters: u64) -> lnls_core::SearchResult {
        let hood = KHamming::new(n, 2);
        let mut rng = StdRng::seed_from_u64(i);
        let init = BitString::random(&mut rng, n);
        let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(i), hood.size());
        let mut ex = SequentialExplorer::new(hood);
        search.run(&OneMax::new(n), &mut ex, init)
    }

    #[test]
    fn fleet_results_are_bit_identical_to_solo_runs() {
        let mut fleet =
            Scheduler::with_uniform_fleet(2, DeviceSpec::gtx280(), SchedulerConfig::default());
        let handles: Vec<_> = (0..5).map(|i| fleet.submit(onemax_job(i, 24, 30))).collect();
        fleet.run_until_idle();
        for (i, h) in handles.iter().enumerate() {
            let got = fleet.report(*h).expect("done");
            let want = solo_result(i as u64, 24, 30);
            let got = got.outcome.as_binary().expect("binary job");
            assert_eq!(got.best, want.best, "job {i}");
            assert_eq!(got.best_fitness, want.best_fitness, "job {i}");
            assert_eq!(got.iterations, want.iterations, "job {i}");
            assert_eq!(got.evals, want.evals, "job {i}");
        }
    }

    /// The parallel shard runtime hands whole schedulers (and the
    /// clients wrapping them) to worker threads — compile-time pin.
    #[test]
    fn schedulers_and_clients_are_send() {
        fn is_send<T: Send>() {}
        is_send::<Scheduler>();
        is_send::<FleetClient>();
        is_send::<Box<dyn EventSink>>();
    }

    #[test]
    fn concurrency_limiter_sheds_above_the_inflight_bound() {
        let fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        let mut client = FleetClient::new(fleet, AdmissionPolicy::unbounded());
        client.set_inflight_limit(Some(2));
        let a = client.submit(onemax_job(0, 16, 10)).expect("under the limit");
        let _b = client.submit(onemax_job(1, 16, 10)).expect("under the limit");
        match client.submit(onemax_job(2, 16, 10)) {
            Err(SubmitError::Overloaded { inflight, limit }) => {
                assert_eq!((inflight, limit), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(client.limiter().expect("installed").sheds(), 1);
        assert_eq!(client.rejected_submissions(), 1);

        // Draining the fleet frees capacity: the limiter admits again.
        client.run_until_idle();
        assert!(client.report(a).is_some());
        client.submit(onemax_job(3, 16, 10)).expect("capacity is back");
        client.run_until_idle();
        assert_eq!(client.fleet_report().jobs_rejected, 1, "the shed rides into the report");

        // Clearing the limit removes the bound entirely.
        client.set_inflight_limit(None);
        for i in 10..20 {
            client.submit(onemax_job(i, 16, 10)).expect("unbounded again");
        }
    }

    #[test]
    fn batching_fuses_same_family_jobs() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 4, ..Default::default() },
        );
        for i in 0..4 {
            fleet.submit(onemax_job(i, 24, 10));
        }
        fleet.run_until_idle();
        let report = fleet.fleet_report();
        assert!(report.fused_launches > 0, "same-key jobs must fuse");
        assert!(report.launches_saved > 0);
        // 4 fused lanes on one device still beat 4 serialized solo runs.
        assert!(report.speedup_vs_serial > 1.0, "×{}", report.speedup_vs_serial);
    }

    #[test]
    fn batching_disabled_runs_solo() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 1, ..Default::default() },
        );
        for i in 0..3 {
            fleet.submit(onemax_job(i, 16, 8));
        }
        fleet.run_until_idle();
        let report = fleet.fleet_report();
        assert_eq!(report.fused_launches, 0);
        assert_eq!(report.jobs_completed, 3);
    }

    #[test]
    fn two_devices_beat_one_on_makespan() {
        let run = |devs: usize| {
            let mut fleet = Scheduler::with_uniform_fleet(
                devs,
                DeviceSpec::gtx280(),
                SchedulerConfig { max_batch: 1, ..Default::default() },
            );
            for i in 0..6 {
                fleet.submit(onemax_job(i, 24, 20));
            }
            fleet.run_until_idle();
            fleet.fleet_report().makespan_s
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one, "2 devices ({two}) must beat 1 ({one})");
    }

    #[test]
    fn priorities_run_first() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 1, ..Default::default() },
        );
        let low = fleet.submit(onemax_job(0, 16, 5));
        let high = fleet.submit(onemax_job(1, 16, 5).with_priority(9));
        fleet.run_until_idle();
        let r_low = fleet.report(low).unwrap();
        let r_high = fleet.report(high).unwrap();
        assert!(
            r_high.finished_s <= r_low.started_s + 1e-12,
            "high priority must be scheduled first"
        );
    }

    #[test]
    fn status_lifecycle_and_await() {
        let mut fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        let h = fleet.submit(onemax_job(3, 16, 5));
        assert_eq!(fleet.status(h), JobStatus::Queued);
        assert!(fleet.tick());
        assert_ne!(fleet.status(h), JobStatus::Queued, "placed after first tick");
        // 2-Hamming moves preserve ones-count parity, so the target may
        // be unreachable; completion, not success, is what's under test.
        let report = fleet.await_report(h).outcome.clone();
        assert!(report.iterations() > 0);
        assert_eq!(fleet.status(h), JobStatus::Done);
    }

    #[test]
    fn checkpoint_resume_is_deterministic() {
        let build = || {
            let mut fleet = Scheduler::with_uniform_fleet(
                2,
                DeviceSpec::gtx280(),
                SchedulerConfig { max_batch: 2, ..Default::default() },
            );
            for i in 0..4 {
                fleet.submit(onemax_job(i, 24, 25));
            }
            fleet
        };

        // Reference: run to completion in one go.
        let mut straight = build();
        straight.run_until_idle();

        // Checkpoint mid-flight, drop the original, restore, continue.
        let mut fleet = build();
        fleet.tick();
        fleet.tick();
        let checkpoint = fleet.checkpoint();
        assert!(checkpoint.in_flight_jobs() > 0, "jobs must be captured mid-run");
        drop(fleet);
        let mut resumed = Scheduler::restore(checkpoint);
        resumed.run_until_idle();

        let a = straight.fleet_report();
        let b = resumed.fleet_report();
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert!((a.makespan_s - b.makespan_s).abs() < 1e-12);
        for (ra, rb) in straight.reports().zip(resumed.reports()) {
            let (ra, rb) = (ra.outcome.as_binary().unwrap(), rb.outcome.as_binary().unwrap());
            assert_eq!(ra.best, rb.best);
            assert_eq!(ra.best_fitness, rb.best_fitness);
            assert_eq!(ra.iterations, rb.iterations);
        }
    }

    #[test]
    fn cpu_workers_complete_jobs_identically() {
        let mut fleet = Scheduler::new(
            MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
            SchedulerConfig { cpu_workers: 2, max_batch: 1, ..Default::default() },
        );
        let handles: Vec<_> = (0..6).map(|i| fleet.submit(onemax_job(i, 20, 12))).collect();
        fleet.run_until_idle();
        let report = fleet.fleet_report();
        assert_eq!(report.jobs_completed, 6);
        assert!(
            report.cpu_busy_s.iter().any(|&b| b > 0.0),
            "CPU workers must have taken jobs: {:?}",
            report.cpu_busy_s
        );
        for (i, h) in handles.iter().enumerate() {
            let got = fleet.report(*h).unwrap().outcome.as_binary().unwrap().best.clone();
            assert_eq!(got, solo_result(i as u64, 20, 12).best, "job {i}");
        }
    }

    #[test]
    fn batching_does_not_starve_idle_devices() {
        // Six same-key jobs, two devices, wide max_batch: the drain cap
        // must split the key 3/3 across devices instead of fusing all
        // six onto one while the other idles (fusion amortizes overhead,
        // not kernel seconds, so parallel devices win).
        let mut fleet = Scheduler::with_uniform_fleet(
            2,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 8, ..Default::default() },
        );
        for i in 0..6 {
            fleet.submit(onemax_job(i, 24, 15));
        }
        fleet.run_until_idle();
        let report = fleet.fleet_report();
        assert!(
            report.device_busy_s.iter().all(|&b| b > 0.0),
            "both devices must share the key: {:?}",
            report.device_busy_s
        );
        assert!(report.fused_launches > 0, "groups of three must still fuse");
    }

    #[test]
    fn round_robin_spreads_jobs() {
        let mut fleet = Scheduler::with_uniform_fleet(
            3,
            DeviceSpec::gtx280(),
            SchedulerConfig { policy: PlacePolicy::RoundRobin, max_batch: 1, ..Default::default() },
        );
        for i in 0..3 {
            fleet.submit(onemax_job(i, 20, 10));
        }
        fleet.run_until_idle();
        let report = fleet.fleet_report();
        let used = report.device_busy_s.iter().filter(|&&b| b > 0.0).count();
        assert_eq!(used, 3, "round-robin must touch every device: {:?}", report.device_busy_s);
    }

    #[test]
    fn telemetry_records_backpressure_series() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig {
                max_batch: 1,
                quantum_iters: Some(4),
                telemetry_every_ticks: Some(1),
                ..Default::default()
            },
        );
        for i in 0..5 {
            fleet.submit(onemax_job(i, 24, 20));
        }
        fleet.run_until_idle();
        let series = fleet.telemetry().expect("telemetry enabled");
        assert!(!series.is_empty());
        assert!(series.max_queue_depth() >= 3, "4 jobs must have queued behind the first");
        let last = series.samples().last().unwrap();
        assert_eq!(last.completed, 5);
        assert_eq!(last.queue_depth, 0);
        assert_eq!(last.device_busy_s.len(), 1);

        let report = fleet.fleet_report();
        let embedded = report.telemetry.as_ref().expect("report embeds the series");
        assert_eq!(embedded.samples().len(), series.samples().len());
        assert!(report.wait_p50_s <= report.wait_p95_s);
        assert!(report.wait_p95_s <= report.wait_p99_s);
        assert!(report.wait_p99_s <= report.max_wait_s + 1e-12);
        assert!(report.turnaround_p50_s <= report.turnaround_p99_s);
        assert!(report.turnaround_p99_s <= report.max_turnaround_s + 1e-12);
        // The Display summary mentions the backpressure line.
        assert!(report.to_string().contains("backpressure: queue depth max"));
    }

    #[test]
    fn resumed_client_counts_restored_in_flight_jobs_against_caps() {
        // Capture jobs *in flight* (a fused group stays active across
        // ticks), restore, and verify the resumed client's admission
        // bookkeeping sees them once preemption returns them to the
        // queue — not just the jobs that were queued at the snapshot.
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 2, quantum_iters: Some(4), ..Default::default() },
        );
        fleet.submit_spec(JobSpec::new(onemax_job(0, 24, 40)).for_tenant("t"));
        fleet.submit_spec(JobSpec::new(onemax_job(1, 24, 40)).for_tenant("t"));
        fleet.tick();
        let checkpoint = fleet.checkpoint();
        assert_eq!(checkpoint.in_flight_jobs(), 2, "the fused pair must be captured mid-run");
        drop(fleet);

        let mut client =
            FleetClient::resume(Scheduler::restore(checkpoint), AdmissionPolicy::queue_cap(3), 0);
        client
            .submit_spec(JobSpec::new(onemax_job(2, 16, 10)).for_tenant("t"))
            .expect("under the cap");
        // Tick until the restored group is preempted back into the queue
        // behind the new submission.
        while client.scheduler().queued_len() < 3 {
            assert!(client.tick(), "fleet must keep progressing toward the preemption");
        }
        let overflow = client.submit_spec(JobSpec::new(onemax_job(3, 16, 10)).for_tenant("t"));
        assert!(
            overflow.is_err(),
            "restored in-flight jobs must count against the queue cap once requeued"
        );
        client.run_until_idle();
        assert_eq!(client.fleet_report().jobs_completed, 3);
    }

    #[test]
    fn telemetry_off_by_default() {
        let mut fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        fleet.submit(onemax_job(0, 16, 5));
        fleet.run_until_idle();
        assert!(fleet.telemetry().is_none());
        assert!(fleet.fleet_report().telemetry.is_none());
    }

    #[test]
    fn unknown_handle_reports_unknown() {
        let fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        let ghost = JobHandle { id: JobId(999) };
        assert_eq!(fleet.status(ghost), JobStatus::Unknown);
    }

    // -- preemption / fair share --------------------------------------

    fn qap_spec(seed: u64, n: usize, iters: u64) -> QapJobSpec {
        use lnls_qap::{Permutation, QapInstance, RtsConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = QapInstance::random_uniform(&mut rng, n);
        let init = Permutation::random(&mut rng, n);
        QapJobSpec::new(format!("qap-{seed}"), inst, RtsConfig::budget(iters).with_seed(seed), init)
    }

    /// The acceptance scenario of the preemption work: a long QAP job
    /// ahead of short OneMax tenants on one device. Results must be
    /// bit-identical with and without a quantum; the quantum must cut
    /// the worst tenant wait.
    #[test]
    fn preemption_preserves_results_and_cuts_waits() {
        let run = |quantum: Option<u64>| {
            let mut fleet = Scheduler::with_uniform_fleet(
                1,
                DeviceSpec::gtx280(),
                SchedulerConfig { max_batch: 1, quantum_iters: quantum, ..Default::default() },
            );
            let qap = fleet.submit(qap_spec(1, 12, 300));
            let onemax: Vec<_> = (0..4).map(|i| fleet.submit(onemax_job(i, 24, 25))).collect();
            fleet.run_until_idle();
            let outcomes: Vec<(i64, u64)> = std::iter::once(&qap)
                .chain(&onemax)
                .map(|h| {
                    let o = &fleet.report(*h).unwrap().outcome;
                    (o.best_fitness(), o.iterations())
                })
                .collect();
            (outcomes, fleet.fleet_report())
        };

        let (plain_outcomes, plain) = run(None);
        let (sliced_outcomes, sliced) = run(Some(8));
        assert_eq!(plain_outcomes, sliced_outcomes, "preemption must not change results");
        assert_eq!(plain.preemptions, 0);
        assert!(sliced.preemptions > 0, "the long QAP job must have been sliced");
        assert!(
            sliced.max_wait_s < plain.max_wait_s,
            "fair-share must cut the worst wait: sliced {} vs plain {}",
            sliced.max_wait_s,
            plain.max_wait_s
        );
    }

    #[test]
    fn preemptive_groups_still_fuse_and_match_solo() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 4, quantum_iters: Some(3), ..Default::default() },
        );
        let handles: Vec<_> = (0..4).map(|i| fleet.submit(onemax_job(i, 24, 12))).collect();
        let qap = fleet.submit(qap_spec(2, 10, 40));
        fleet.run_until_idle();
        let report = fleet.fleet_report();
        assert!(report.fused_launches > 0, "same-key tenants must fuse across slices");
        assert!(report.preemptions > 0);
        for (i, h) in handles.iter().enumerate() {
            let got = fleet.report(*h).unwrap().outcome.as_binary().unwrap();
            let want = solo_result(i as u64, 24, 12);
            assert_eq!(got.best, want.best, "job {i}");
            assert_eq!(got.iterations, want.iterations, "job {i}");
        }
        assert!(fleet.report(qap).unwrap().outcome.as_qap().is_some());
    }

    #[test]
    fn priority_buys_a_larger_share() {
        // Two equally long tenants on one device under DRR: weight
        // (priority + 1) must let the high-priority job finish first.
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 1, quantum_iters: Some(4), ..Default::default() },
        );
        let low = fleet.submit(onemax_job(0, 24, 60));
        let high = fleet.submit(onemax_job(1, 24, 60).with_priority(3));
        fleet.run_until_idle();
        let (r_low, r_high) = (fleet.report(low).unwrap(), fleet.report(high).unwrap());
        assert!(
            r_high.finished_s < r_low.finished_s,
            "high priority ({}) must finish before low ({})",
            r_high.finished_s,
            r_low.finished_s
        );
    }

    // -- cancellation -------------------------------------------------

    #[test]
    fn cancel_queued_job_drains_without_running() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 1, ..Default::default() },
        );
        let running = fleet.submit(onemax_job(0, 16, 40));
        let queued = fleet.submit(onemax_job(1, 16, 40));
        assert!(fleet.tick());
        assert_eq!(fleet.status(queued), JobStatus::Queued);
        assert!(fleet.cancel(queued), "queued job must be cancellable");
        assert!(!fleet.cancel(queued) || fleet.status(queued) != JobStatus::Cancelled);
        fleet.run_until_idle();
        let report = fleet.report(queued).expect("cancelled job still reports");
        assert!(report.cancelled);
        assert_eq!(report.outcome.iterations(), 0, "never left the queue");
        assert_eq!(fleet.status(queued), JobStatus::Cancelled);
        assert_eq!(fleet.status(running), JobStatus::Done);
        let fr = fleet.fleet_report();
        assert_eq!(fr.jobs_cancelled, 1);
        assert_eq!(fr.jobs_completed, 1);
        // A finished job cannot be cancelled.
        assert!(!fleet.cancel(running));
    }

    #[test]
    fn cancel_running_job_drains_at_quantum_boundary() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 4, quantum_iters: Some(5), ..Default::default() },
        );
        // Two fused lanes; cancelling one mid-flight must not disturb
        // the other.
        let victim = fleet.submit(onemax_job(0, 24, 50));
        let survivor = fleet.submit(onemax_job(1, 24, 50));
        for _ in 0..3 {
            fleet.tick();
        }
        assert_eq!(fleet.status(victim), JobStatus::Running);
        assert!(fleet.cancel(victim));
        fleet.run_until_idle();
        let vr = fleet.report(victim).unwrap();
        assert!(vr.cancelled);
        let iters = vr.outcome.iterations();
        assert!(iters > 0 && iters < 50, "drained mid-run, got {iters} iterations");
        let sr = fleet.report(survivor).unwrap();
        assert!(!sr.cancelled);
        assert_eq!(sr.outcome.as_binary().unwrap().best, solo_result(1, 24, 50).best);
    }

    // -- persistence --------------------------------------------------

    #[test]
    fn checkpoint_resume_is_deterministic_with_preemption() {
        let build = || {
            let mut fleet = Scheduler::with_uniform_fleet(
                2,
                DeviceSpec::gtx280(),
                SchedulerConfig { max_batch: 2, quantum_iters: Some(4), ..Default::default() },
            );
            for i in 0..5 {
                fleet.submit(onemax_job(i, 24, 25));
            }
            fleet
        };
        let mut straight = build();
        straight.run_until_idle();

        let mut fleet = build();
        for _ in 0..3 {
            fleet.tick();
        }
        let checkpoint = fleet.checkpoint();
        assert!(checkpoint.in_flight_jobs() > 0, "jobs must be captured mid-slice");
        drop(fleet);
        let mut resumed = Scheduler::restore(checkpoint);
        resumed.run_until_idle();

        let a = straight.fleet_report();
        let b = resumed.fleet_report();
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.preemptions, b.preemptions);
        assert!((a.makespan_s - b.makespan_s).abs() < 1e-12);
        for (ra, rb) in straight.reports().zip(resumed.reports()) {
            let (ra, rb) = (ra.outcome.as_binary().unwrap(), rb.outcome.as_binary().unwrap());
            assert_eq!(ra.best, rb.best);
            assert_eq!(ra.iterations, rb.iterations);
        }
    }

    #[test]
    fn checkpoint_survives_disk_roundtrip() {
        let build = || {
            let mut fleet = Scheduler::new(
                MultiDevice::new_uniform(2, DeviceSpec::gtx280()),
                SchedulerConfig {
                    cpu_workers: 1,
                    max_batch: 2,
                    quantum_iters: Some(5),
                    ..Default::default()
                },
            );
            for i in 0..4 {
                fleet.submit(onemax_job(i, 24, 30));
            }
            fleet.submit(qap_spec(7, 10, 60));
            fleet
        };
        let mut straight = build();
        straight.run_until_idle();

        let mut fleet = build();
        for _ in 0..4 {
            fleet.tick();
        }
        let checkpoint = fleet.checkpoint();
        assert!(checkpoint.pending_jobs() > 0);
        let path =
            std::env::temp_dir().join(format!("lnls-fleet-roundtrip-{}.ckpt", std::process::id()));
        checkpoint.save(&path).expect("save");
        drop(fleet);
        drop(checkpoint);

        let registry = JobRegistry::with_builtin();
        let revived = FleetCheckpoint::load(&path, &registry).expect("load");
        std::fs::remove_file(&path).ok();
        let mut resumed = Scheduler::restore(revived);
        resumed.run_until_idle();

        // Search outcomes are bit-identical to the uninterrupted fleet.
        // (Makespan may differ slightly: a revived QAP job re-uploads
        // its instance matrices, exactly as a real restart would.)
        for (ra, rb) in straight.reports().zip(resumed.reports()) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.outcome.best_fitness(), rb.outcome.best_fitness(), "{}", ra.name);
            assert_eq!(ra.outcome.iterations(), rb.outcome.iterations(), "{}", ra.name);
        }
    }

    /// Every fate a job can end in, restored from bytes: the restored
    /// fleet answers exactly as the live one did, re-encodes to the
    /// same bytes, and decodes no report before one is read.
    #[test]
    fn restored_results_equal_live_ones_for_every_fate() {
        let policy = AdmissionPolicy::queue_cap(2).with_shedding();
        let fleet = Scheduler::with_uniform_fleet(
            1,
            DeviceSpec::gtx280(),
            SchedulerConfig { max_batch: 1, ..Default::default() },
        );
        let mut client = FleetClient::new(fleet, policy.clone());
        let spec = |i: u64, iters: u64, priority: u8| {
            JobSpec::new(onemax_job(i, 16, iters)).with_priority(priority).for_tenant("t")
        };
        let done = client.submit_spec(spec(0, 4, 1)).expect("an empty queue admits");
        client.tick();
        let shed = client.submit_spec(spec(1, 4, 0)).expect("under the cap");
        let cancelled = client.submit_spec(spec(2, 4, 1)).expect("under the cap");
        let live = client.submit_spec(spec(3, 40, 2)).expect("sheds the lowest priority");
        assert!(client.cancel(cancelled));
        while client.status(done) != JobStatus::Done {
            assert!(client.tick());
        }
        let handles = [done, shed, cancelled, live];
        let statuses = handles.map(|h| client.status(h));
        assert_eq!(
            statuses,
            [JobStatus::Done, JobStatus::Rejected, JobStatus::Cancelled, JobStatus::Queued]
        );

        let bytes = client.checkpoint().to_bytes();
        let revived = FleetCheckpoint::from_bytes(&bytes, &JobRegistry::with_builtin())
            .expect("a checkpoint just written decodes");
        let restored =
            FleetClient::resume(Scheduler::restore(revived), policy, client.rejected_submissions());
        let log = &restored.scheduler().state.results;
        assert_eq!(handles.map(|h| restored.status(h)), statuses);
        assert_eq!(restored.checkpoint().to_bytes(), bytes, "a restore re-encodes unchanged");
        assert_eq!(log.decoded_count(), 0, "restoring, statuses and re-encoding decode nothing");
        let reports = |c: &FleetClient| format!("{:?}", c.reports().collect::<Vec<_>>());
        assert_eq!(reports(&restored), reports(&client));
        assert_eq!(log.decoded_count(), 3);
        assert_eq!(
            format!("{:?}", restored.fleet_report()),
            format!("{:?}", client.fleet_report())
        );
    }

    /// Jobs submitted without checkpointing leave no metadata in a
    /// checkpoint: a restored fleet neither keeps nor polices them.
    #[test]
    fn opt_out_jobs_leave_no_metadata_behind_a_restore() {
        let mut fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        fleet.submit(onemax_job(0, 16, 20));
        fleet.submit_spec(
            JobSpec::new(onemax_job(1, 16, 20)).without_checkpoint().with_deadline(1e9),
        );
        fleet.tick();
        let mut restored = Scheduler::restore(fleet.checkpoint());
        assert_eq!(restored.state.meta.len(), 1, "only the checkpointed job's metadata survives");
        assert!(restored.policed.is_empty(), "the opt-out job's deadline is not policed");
        restored.run_until_idle();
        assert!(restored.state.meta.is_empty(), "metadata retires with its job");
    }

    #[test]
    fn checkpoint_load_rejects_unregistered_tags() {
        let mut fleet =
            Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
        fleet.submit(onemax_job(0, 16, 10));
        let bytes = fleet.checkpoint().to_bytes();
        let empty = JobRegistry::new(); // knows QAP only
        let err = match FleetCheckpoint::from_bytes(&bytes, &empty) {
            Err(e) => e,
            Ok(_) => panic!("decode must fail without the tabu tag registered"),
        };
        assert!(err.to_string().contains("unregistered"), "{err}");
        // And corrupt magic is refused outright.
        assert!(FleetCheckpoint::from_bytes(b"garbage!", &empty).is_err());
    }
}
