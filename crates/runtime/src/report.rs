//! Fleet-level reporting.

use crate::telemetry::{percentile_sorted, Telemetry};
use lnls_gpu_sim::TimeBook;
use std::collections::BTreeMap;
use std::fmt;

/// One tenant's lifecycle inside a scheduler run (a completed or
/// cancelled job). All times are modeled fleet seconds.
#[derive(Clone, Debug)]
pub struct TenantStat {
    /// Submission name.
    pub name: String,
    /// Tenant attribution from the submission envelope.
    pub tenant: String,
    /// When the job entered the queue.
    pub submitted_s: f64,
    /// When the job first left the queue (its first slice under
    /// preemption).
    pub started_s: f64,
    /// When the job finished (or was drained by cancellation).
    pub finished_s: f64,
    /// Queue wait: `started_s − submitted_s`.
    pub wait_s: f64,
    /// Turnaround: `finished_s − submitted_s`.
    pub turnaround_s: f64,
    /// True when the job was cancelled rather than completed.
    pub cancelled: bool,
    /// True when the job was evicted by admission control; rejected
    /// rows are excluded from the wait/turnaround aggregates.
    pub rejected: bool,
}

/// Throughput, utilization and fairness summary of one scheduler run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Jobs completed so far (cancelled jobs not included).
    pub jobs_completed: u64,
    /// Jobs drained by cancellation.
    pub jobs_cancelled: u64,
    /// Jobs evicted by admission control (shed from the queue, plus —
    /// through [`FleetClient`](crate::FleetClient) — submissions
    /// rejected outright).
    pub jobs_rejected: u64,
    /// Jobs still queued.
    pub jobs_queued: u64,
    /// Jobs currently placed on a backend.
    pub jobs_running: u64,
    /// Simulated fleet makespan: the latest backend clock (seconds).
    pub makespan_s: f64,
    /// What the completed work would cost run back-to-back, unfused, on
    /// the reference device (device 0) — the sequential baseline.
    pub serialized_s: f64,
    /// `serialized_s / makespan_s` (1.0 when nothing ran).
    pub speedup_vs_serial: f64,
    /// Busy seconds per device backend.
    pub device_busy_s: Vec<f64>,
    /// `device_busy_s / makespan_s` per device.
    pub device_utilization: Vec<f64>,
    /// Busy seconds per CPU worker backend.
    pub cpu_busy_s: Vec<f64>,
    /// Completed jobs per simulated second of makespan.
    pub jobs_per_sim_s: f64,
    /// Fused launches the batcher issued.
    pub fused_launches: u64,
    /// Launches saved versus one-launch-per-lane (the amortization win).
    pub launches_saved: u64,
    /// Assignments preempted at a quantum boundary (0 when
    /// `quantum_iters` is off).
    pub preemptions: u64,
    /// Job-iterations executed across every backend step (each member of
    /// a fused group counts one per fused launch) — the denominator of
    /// the bytes-moved-per-iteration headline.
    pub iterations_executed: u64,
    /// Cumulative stream-schedule makespan actually charged by device
    /// steps (seconds): per-iteration launches priced breadth-first
    /// under each device's engine layout.
    pub stream_makespan_s: f64,
    /// What the same device operations would cost executed back-to-back
    /// on one queue — the synchronous baseline the stream makespan is
    /// measured against. Equal to [`stream_makespan_s`](Self::stream_makespan_s)
    /// on single-engine (GT200) layouts.
    pub stream_serialized_s: f64,
    /// Multi-iteration stream spans priced by fused device steps (see
    /// [`SchedulerConfig::span_iters`](crate::SchedulerConfig::span_iters)).
    /// One per fused assignment step; 0 when nothing fused.
    pub spans: u64,
    /// Iterations executed inside those spans (per group, not per
    /// member) — `span_iterations / spans` is the mean span length the
    /// fleet actually achieved after quantum, budget and retirement
    /// caps.
    pub span_iterations: u64,
    /// Kernel-launch overhead amortized away by persistent-kernel spans
    /// (seconds; nonzero only under
    /// [`LaunchMode::PersistentSpan`](lnls_gpu_sim::LaunchMode)).
    pub launch_overhead_saved_s: f64,
    /// Worst queue wait over finished tenants — the headline fairness
    /// number preemption exists to lower.
    pub max_wait_s: f64,
    /// Mean queue wait over finished tenants.
    pub mean_wait_s: f64,
    /// Worst turnaround over finished tenants.
    pub max_turnaround_s: f64,
    /// Mean turnaround over finished tenants.
    pub mean_turnaround_s: f64,
    /// Median queue wait over finished tenants (nearest rank).
    pub wait_p50_s: f64,
    /// 95th-percentile queue wait — the tail-latency headline the
    /// workload scenarios regress on.
    pub wait_p95_s: f64,
    /// 99th-percentile queue wait.
    pub wait_p99_s: f64,
    /// Median turnaround over finished tenants.
    pub turnaround_p50_s: f64,
    /// 95th-percentile turnaround.
    pub turnaround_p95_s: f64,
    /// 99th-percentile turnaround.
    pub turnaround_p99_s: f64,
    /// Per-tenant lifecycle stats, in job-id order.
    pub tenant_stats: Vec<TenantStat>,
    /// Tick-by-tick fleet time series (queue depth, running jobs,
    /// cumulative outcomes, device busy time), present when
    /// [`SchedulerConfig::telemetry_every_ticks`](crate::SchedulerConfig::telemetry_every_ticks)
    /// was set.
    pub telemetry: Option<Telemetry>,
    /// Sum of the device ledgers (kernels, overhead, transfers, and the
    /// counterfactual sequential-host column). CPU-worker execution time
    /// is reported separately in [`cpu_busy_s`](Self::cpu_busy_s) — it is
    /// real busy time, not a baseline, so it never mixes into this book.
    pub fleet_book: TimeBook,
}

impl FleetReport {
    /// Merge per-shard reports into one fleet-wide report, in slice
    /// order: job counts, serialized seconds and the launch, span and
    /// iteration counters sum; makespans max (the stream makespan too,
    /// since shards run concurrently); per-device and per-CPU busy
    /// vectors and the per-job rows concatenate; the device ledgers add.
    /// Speedup, throughput, utilization (against the *fleet* makespan,
    /// so a shard that finished early idles until the slowest drains)
    /// and the wait/turnaround aggregates are then recomputed over the
    /// union, exactly as one scheduler holding every job would report
    /// them. Telemetry merges sample by sample (see
    /// [`Telemetry::merge`]) when every report carries a series;
    /// otherwise the first report's series stands in.
    ///
    /// # Panics
    /// When `reports` is empty.
    pub fn merge(reports: &[FleetReport]) -> FleetReport {
        let (first, rest) = reports.split_first().expect("merge needs at least one report");
        let mut merged = first.clone();
        for r in rest {
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
        if let Some(series) =
            reports.iter().map(|r| r.telemetry.as_ref()).collect::<Option<Vec<&Telemetry>>>()
        {
            merged.telemetry = Some(Telemetry::merge(&series));
        }
        merged.derive();
        merged
    }

    /// Fill the fields that follow from the others: speedup, throughput
    /// and per-device utilization from the makespan, and the
    /// wait/turnaround aggregates from the per-job rows.
    pub(crate) fn derive(&mut self) {
        let makespan_s = self.makespan_s;
        self.speedup_vs_serial =
            if makespan_s > 0.0 { self.serialized_s / makespan_s } else { 1.0 };
        self.jobs_per_sim_s =
            if makespan_s > 0.0 { self.jobs_completed as f64 / makespan_s } else { 0.0 };
        self.device_utilization = self
            .device_busy_s
            .iter()
            .map(|&busy| if makespan_s > 0.0 { busy / makespan_s } else { 0.0 })
            .collect();
        // Rejected jobs never competed for backend time; their zeroed
        // lifecycle would skew the fairness aggregates, so they are
        // excluded from the wait/turnaround statistics (the stats rows
        // themselves keep them, flagged).
        let served: Vec<&TenantStat> = self.tenant_stats.iter().filter(|t| !t.rejected).collect();
        self.max_wait_s = served.iter().map(|t| t.wait_s).fold(0.0, f64::max);
        self.max_turnaround_s = served.iter().map(|t| t.turnaround_s).fold(0.0, f64::max);
        let count = served.len().max(1) as f64;
        self.mean_wait_s = served.iter().map(|t| t.wait_s).sum::<f64>() / count;
        self.mean_turnaround_s = served.iter().map(|t| t.turnaround_s).sum::<f64>() / count;
        // Sort once, read three quantiles each — `percentile` would
        // clone + sort per call (six sorts per report).
        let mut waits: Vec<f64> = served.iter().map(|t| t.wait_s).collect();
        waits.sort_by(f64::total_cmp);
        let mut turnarounds: Vec<f64> = served.iter().map(|t| t.turnaround_s).collect();
        turnarounds.sort_by(f64::total_cmp);
        self.wait_p50_s = percentile_sorted(&waits, 0.50);
        self.wait_p95_s = percentile_sorted(&waits, 0.95);
        self.wait_p99_s = percentile_sorted(&waits, 0.99);
        self.turnaround_p50_s = percentile_sorted(&turnarounds, 0.50);
        self.turnaround_p95_s = percentile_sorted(&turnarounds, 0.95);
        self.turnaround_p99_s = percentile_sorted(&turnarounds, 0.99);
    }

    /// Rejections/sheds per tenant — who admission control said *no* to
    /// (outright bounces never got a report row, so they are not here;
    /// [`jobs_rejected`](Self::jobs_rejected) counts both).
    pub fn rejections_by_tenant(&self) -> BTreeMap<String, u64> {
        let mut by_tenant = BTreeMap::new();
        for t in self.tenant_stats.iter().filter(|t| t.rejected) {
            *by_tenant.entry(t.tenant.clone()).or_insert(0) += 1;
        }
        by_tenant
    }

    /// Stream-level overlap win of the device launches: serialized cost
    /// over charged makespan (≥ 1; exactly 1 when nothing overlapped —
    /// single-engine layouts, or nothing ran on a device).
    pub fn stream_overlap_factor(&self) -> f64 {
        if self.stream_makespan_s > 0.0 {
            self.stream_serialized_s / self.stream_makespan_s
        } else {
            1.0
        }
    }

    /// Mean bytes uploaded per executed job-iteration (0 when nothing
    /// ran on a device).
    pub fn h2d_bytes_per_iteration(&self) -> f64 {
        if self.iterations_executed > 0 {
            self.fleet_book.bytes_h2d as f64 / self.iterations_executed as f64
        } else {
            0.0
        }
    }

    /// Mean bytes read back per executed job-iteration — the PCIe
    /// headline [`SelectionMode::DeviceArgmin`](lnls_gpu_sim::SelectionMode)
    /// exists to shrink (0 when nothing ran on a device).
    pub fn d2h_bytes_per_iteration(&self) -> f64 {
        if self.iterations_executed > 0 {
            self.fleet_book.bytes_d2h as f64 / self.iterations_executed as f64
        } else {
            0.0
        }
    }

    /// A [`MetricsRegistry`](crate::MetricsRegistry) derived from the
    /// finished report itself: outcome counters from the `jobs_*`
    /// fields plus preemptions, and wait/turnaround histograms rebuilt
    /// from the non-rejected [`tenant_stats`](Self::tenant_stats) rows.
    /// Useful for exporting Prometheus text from a run that did not
    /// attach a live registry; live registries additionally carry
    /// placement, batching, byte, and quantum series the report does
    /// not retain.
    pub fn metrics(&self) -> crate::MetricsRegistry {
        let mut m = crate::MetricsRegistry::new();
        m.inc_by("fleet_jobs_completed_total", self.jobs_completed);
        m.inc_by("fleet_jobs_cancelled_total", self.jobs_cancelled);
        m.inc_by("fleet_jobs_rejected_total", self.jobs_rejected);
        m.inc_by("fleet_preemptions_total", self.preemptions);
        m.inc_by("fleet_iterations_total", self.iterations_executed);
        m.set_gauge("fleet_queue_depth", self.jobs_queued as f64);
        m.set_gauge("fleet_jobs_running", self.jobs_running as f64);
        for t in self.tenant_stats.iter().filter(|t| !t.rejected) {
            m.observe("fleet_wait_seconds", t.wait_s);
            m.observe("fleet_turnaround_seconds", t.turnaround_s);
        }
        m
    }

    /// Mean iterations per fused stream span (1.0 is the legacy
    /// one-iteration-per-tick contract; 0.0 when nothing fused).
    pub fn mean_span_iterations(&self) -> f64 {
        if self.spans > 0 {
            self.span_iterations as f64 / self.spans as f64
        } else {
            0.0
        }
    }

    /// Fraction of the makespan the average device was busy (0.0 with
    /// no devices or no makespan) — the utilization headline the bench
    /// summaries track.
    pub fn mean_device_utilization(&self) -> f64 {
        if self.device_utilization.is_empty() {
            return 0.0;
        }
        self.device_utilization.iter().sum::<f64>() / self.device_utilization.len() as f64
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} done / {} cancelled / {} rejected / {} running / {} queued",
            self.jobs_completed,
            self.jobs_cancelled,
            self.jobs_rejected,
            self.jobs_running,
            self.jobs_queued
        )?;
        writeln!(
            f,
            "makespan {:.6}s | serialized {:.6}s | speedup ×{:.2} | {:.1} jobs/s",
            self.makespan_s, self.serialized_s, self.speedup_vs_serial, self.jobs_per_sim_s
        )?;
        writeln!(
            f,
            "wait max {:.6}s mean {:.6}s | turnaround max {:.6}s mean {:.6}s | {} preemptions",
            self.max_wait_s,
            self.mean_wait_s,
            self.max_turnaround_s,
            self.mean_turnaround_s,
            self.preemptions
        )?;
        writeln!(
            f,
            "wait p50/p95/p99 {:.6}/{:.6}/{:.6}s | turnaround p50/p95/p99 {:.6}/{:.6}/{:.6}s",
            self.wait_p50_s,
            self.wait_p95_s,
            self.wait_p99_s,
            self.turnaround_p50_s,
            self.turnaround_p95_s,
            self.turnaround_p99_s
        )?;
        let rejections = self.rejections_by_tenant();
        if !rejections.is_empty() {
            let rows: Vec<String> = rejections
                .iter()
                .map(|(tenant, n)| {
                    let name = if tenant.is_empty() { "(unattributed)" } else { tenant };
                    format!("{name}: {n}")
                })
                .collect();
            writeln!(f, "rejected by tenant: {}", rows.join(", "))?;
        }
        if let Some(t) = self.telemetry.as_ref().filter(|t| !t.is_empty()) {
            writeln!(f, "backpressure: {t}")?;
        }
        for (i, (busy, util)) in self.device_busy_s.iter().zip(&self.device_utilization).enumerate()
        {
            writeln!(f, "  dev{i}: busy {busy:.6}s ({:.0}%)", util * 100.0)?;
        }
        for (i, busy) in self.cpu_busy_s.iter().enumerate() {
            writeln!(f, "  cpu{i}: busy {busy:.6}s")?;
        }
        writeln!(
            f,
            "  batching: {} fused launches, {} launches saved",
            self.fused_launches, self.launches_saved
        )?;
        if self.spans > 0 {
            writeln!(
                f,
                "  spans: {} spans, {:.2} iterations/span, {:.9}s launch overhead amortized",
                self.spans,
                self.mean_span_iterations(),
                self.launch_overhead_saved_s
            )?;
        }
        write!(
            f,
            "  pcie: {:.0} B up / {:.0} B down per iteration ({} iterations) | stream overlap ×{:.3}",
            self.h2d_bytes_per_iteration(),
            self.d2h_bytes_per_iteration(),
            self.iterations_executed,
            self.stream_overlap_factor()
        )
    }
}
