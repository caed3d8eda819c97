//! Observability invariants of the fleet: attaching event sinks and
//! metrics registries must never perturb a run (reports stay
//! bit-identical to a bare replay), event logs must be byte-identical
//! across replays of the same trace, Prometheus counters must agree
//! with the fleet report's own outcome fields, Chrome traces must be
//! structurally sound, and the telemetry memory cap must thin
//! deterministically.

use lnls::gpu::{price_fused_span, DeviceSpec, EngineConfig, LaneIo, LaunchMode, StreamOp};
use lnls::prelude::{
    chrome_trace, tenant_summaries, Driver, JsonlSink, RingSink, Scenario, SelectionMode, Trace,
    TrafficGen, WhatIf,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Observation is strictly passive: for any catalog scenario and
    /// seed, a bare replay, a replay with a ring sink attached, and a
    /// metered replay must produce bit-identical fleet reports — every
    /// f64 compared through its exact `Debug` rendering.
    #[test]
    fn observers_never_perturb_a_replay(
        scenario_idx in 0usize..6,
        seed in 0u64..500,
    ) {
        let scenario = Scenario::catalog()[scenario_idx].clone();
        let trace = TrafficGen::lower(&scenario, seed);
        let bare = Driver::replay(&trace);

        let ring = RingSink::unbounded().shared();
        let observed = Driver::replay_observed(&trace, Box::new(ring.clone()));
        prop_assert_eq!(
            format!("{:?}", bare.fleet),
            format!("{:?}", observed.fleet),
            "scenario '{}' seed {}: event sink must be invisible",
            scenario.name,
            seed
        );
        prop_assert!(!ring.lock().unwrap().is_empty(), "a replay must emit events");

        let (metered, metrics) = Driver::replay_metered(&trace);
        prop_assert_eq!(
            format!("{:?}", bare.fleet),
            format!("{:?}", metered.fleet),
            "scenario '{}' seed {}: metrics registry must be invisible",
            scenario.name,
            seed
        );
        prop_assert_eq!(metrics.counter("fleet_jobs_completed_total"), bare.fleet.jobs_completed);
    }
}

/// Two replays of the same recorded trace through JSONL file sinks must
/// write byte-identical event logs — the structured log is as
/// deterministic as the simulation itself.
#[test]
fn jsonl_event_logs_are_byte_identical_across_replays() {
    let trace = TrafficGen::lower(&Scenario::saturation(), 13);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut logs = Vec::new();
    for run in 0..2 {
        let path = dir.join(format!("lnls-observe-{pid}-{run}.jsonl"));
        let sink = JsonlSink::create(&path).expect("create jsonl sink");
        let _ = Driver::replay_observed(&trace, Box::new(sink));
        let bytes = std::fs::read(&path).expect("read event log");
        std::fs::remove_file(&path).ok();
        logs.push(bytes);
    }
    assert!(!logs[0].is_empty(), "the event log must not be empty");
    assert_eq!(logs[0], logs[1], "event logs must be byte-identical across replays");
    // Every line is a JSON object with the envelope fields.
    let text = String::from_utf8(logs[0].clone()).expect("utf-8");
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        assert!(line.contains("\"tick\":") && line.contains("\"now_s\":"), "{line}");
        assert!(line.contains("\"kind\":\""), "{line}");
    }
}

/// The live metrics registry's Prometheus counters must equal the fleet
/// report's own outcome fields on every catalog scenario — including
/// the crash/restore scenario, where the driver carries the registry
/// across the simulated crash.
#[test]
fn prometheus_counters_match_the_report_on_every_scenario() {
    for scenario in Scenario::catalog() {
        let trace = TrafficGen::lower(&scenario, 21);
        let (report, metrics) = Driver::replay_metered(&trace);
        let fleet = &report.fleet;
        let name = &scenario.name;
        assert_eq!(
            metrics.counter("fleet_jobs_completed_total"),
            fleet.jobs_completed,
            "{name}: completed"
        );
        assert_eq!(
            metrics.counter("fleet_jobs_cancelled_total"),
            fleet.jobs_cancelled,
            "{name}: cancelled"
        );
        assert_eq!(
            metrics.counter("fleet_jobs_rejected_total"),
            fleet.jobs_rejected,
            "{name}: rejections (sheds + bounces)"
        );
        assert_eq!(
            metrics.counter("fleet_preemptions_total"),
            fleet.preemptions,
            "{name}: preemptions"
        );
        assert_eq!(
            metrics.counter("fleet_iterations_total"),
            fleet.iterations_executed,
            "{name}: iterations"
        );
        let rendered = metrics.render_prometheus();
        assert!(
            rendered.contains(&format!("fleet_jobs_completed_total {}", fleet.jobs_completed)),
            "{name}: {rendered}"
        );
        assert!(rendered.contains("# TYPE fleet_wait_seconds histogram"), "{name}");
    }
}

/// Per-tenant event summaries must reconcile with the driver's own
/// admission accounting.
#[test]
fn tenant_summaries_reconcile_with_admission_counts() {
    let trace = TrafficGen::lower(&Scenario::burst(), 3);
    let ring = RingSink::unbounded().shared();
    let report = Driver::replay_observed(&trace, Box::new(ring.clone()));
    let summaries = tenant_summaries(&ring.lock().unwrap().records());
    assert!(!summaries.is_empty());
    let submitted: u64 = summaries.iter().map(|t| t.submitted).sum();
    let rejected: u64 = summaries.iter().map(|t| t.rejected).sum();
    let completed: u64 = summaries.iter().map(|t| t.completed).sum();
    assert_eq!(submitted, report.admitted, "Submitted events are per admitted job");
    assert_eq!(rejected, report.fleet.jobs_rejected, "bounces + sheds");
    assert_eq!(completed, report.fleet.jobs_completed);
}

/// The what-if comparator must replay one recorded trace across ≥3
/// variants and produce a comparative table, with the baseline row
/// bit-identical to a plain replay and the on-device-argmin variant
/// moving fewer bytes down the bus.
#[test]
fn what_if_compares_variants_of_one_recorded_trace() {
    let (trace, recorded) = Driver::record(&Scenario::steady(), 17);
    let grid = WhatIf::knob_grid(&trace);
    assert!(grid.len() >= 3, "the standard grid spans at least three variants");
    let report = WhatIf::compare(&trace, &grid);
    assert_eq!(report.rows.len(), grid.len() + 1);
    assert_eq!(report.baseline().variant, "as-recorded");
    assert_eq!(
        report.baseline().wait_p95_s.to_bits(),
        recorded.fleet.wait_p95_s.to_bits(),
        "baseline row must be the recorded run itself"
    );
    let host = report.rows.iter().find(|r| r.variant == "gt200/host-argmin").unwrap();
    let device = report.rows.iter().find(|r| r.variant == "gt200/device-argmin").unwrap();
    assert!(
        device.bytes_d2h < host.bytes_d2h,
        "on-device argmin must shrink readback: {} vs {}",
        device.bytes_d2h,
        host.bytes_d2h
    );
    let table = report.to_string();
    for v in &grid {
        assert!(table.contains(&v.name), "table must list {}", v.name);
    }
}

/// A fleet-level Chrome trace lowered from the event stream must be
/// structurally valid and carry quantum spans per device row.
#[test]
fn fleet_chrome_trace_has_device_rows_and_quantum_spans() {
    let trace = TrafficGen::lower(&Scenario::steady(), 5);
    let ring = RingSink::unbounded().shared();
    let _ = Driver::replay_observed(&trace, Box::new(ring.clone()));
    let json = chrome_trace(&ring.lock().unwrap().records());
    assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
    assert!(json.contains("\"ph\":\"M\""), "thread metadata rows");
    assert!(json.contains("\"ph\":\"X\""), "quantum spans");
    assert!(json.contains("\"cat\":\"quantum\""), "{json}");
}

/// A fermi-layout stream schedule must lower to Chrome trace JSON whose
/// H2D/Kernel/D2H spans actually overlap across streams.
#[test]
fn stream_chrome_trace_shows_fermi_overlap() {
    let spec = DeviceSpec::gtx280().with_engines(EngineConfig::fermi());
    let lanes = [
        LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 18 },
        LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 18 },
        LaneIo { h2d_bytes: 1 << 16, d2h_bytes: 1 << 18 },
    ];
    let sched = price_fused_span(&spec, &lanes, &[4e-4], 1, LaunchMode::PerIteration);
    assert!(sched.makespan < sched.serialized, "fermi must overlap the lanes");
    let json = sched.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
    for name in ["\"H2D\"", "\"Kernel\"", "\"D2H\"", "\"stream 0\"", "\"stream 1\""] {
        assert!(json.contains(name), "missing {name}: {json}");
    }
    // Spot-check overlap in the modeled schedule itself: two D2H spans
    // on different streams share wall time.
    let d2h: Vec<_> = sched.ops.iter().filter(|o| matches!(o.op, StreamOp::D2H { .. })).collect();
    assert!(d2h.len() >= 2);
    assert!(
        d2h[1].start < d2h[0].finish,
        "dual copy engines must overlap readbacks: {:?}",
        (&d2h[0], &d2h[1])
    );
    // And the single-engine layout serializes the same work.
    let gt200 =
        price_fused_span(&DeviceSpec::gtx280(), &lanes, &[4e-4], 1, LaunchMode::PerIteration);
    assert!((gt200.makespan - gt200.serialized).abs() < 1e-12);
}

/// The telemetry memory cap must bound every series and thin
/// deterministically — a capped replay stays bit-identical across runs
/// and across trace byte round-trips.
#[test]
fn telemetry_cap_bounds_series_and_replays_bit_identically() {
    let mut scenario = Scenario::saturation();
    scenario.fleet.telemetry_max_samples = Some(16);
    let (trace, recorded) = Driver::record(&scenario, 29);
    let telemetry = recorded.fleet.telemetry.as_ref().expect("scenarios record telemetry");
    assert!(!telemetry.is_empty());
    let capped_len = telemetry.samples().len();
    assert!(capped_len <= 16, "cap must bound the series: {capped_len}");

    let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("capped traces round-trip");
    assert_eq!(reloaded.fleet.telemetry_max_samples, Some(16));
    let replayed = Driver::replay(&reloaded);
    assert_eq!(
        format!("{:?}", recorded.fleet),
        format!("{:?}", replayed.fleet),
        "capped telemetry must replay bit-identically"
    );

    // An uncapped run of the same traffic sees strictly more samples.
    let uncapped = Driver::replay(&TrafficGen::lower(&Scenario::saturation(), 29));
    let full_len = uncapped.fleet.telemetry.expect("telemetry").samples().len();
    assert!(full_len > capped_len, "{full_len} vs {capped_len}");
}

/// Selection-mode knob sanity for the observed byte columns the what-if
/// table reports: flipping to device argmin on the same trace cannot
/// increase H2D traffic.
#[test]
fn device_argmin_variant_never_uploads_more() {
    let trace = TrafficGen::lower(
        &Scenario::steady().with_fleet_knobs(EngineConfig::gt200(), SelectionMode::HostArgmin),
        11,
    );
    let report = WhatIf::compare(
        &trace,
        &[lnls::prelude::Variant::knobs(
            "device",
            &trace,
            EngineConfig::gt200(),
            SelectionMode::DeviceArgmin,
        )],
    );
    assert!(report.rows[1].bytes_h2d <= report.rows[0].bytes_h2d);
}
