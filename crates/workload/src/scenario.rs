//! The scenario description language and the named catalog.
//!
//! A [`Scenario`] is everything a load run needs, declaratively: how
//! jobs arrive over modeled time ([`ArrivalProcess`]), who submits them
//! and what they submit ([`TenantProfile`] — family mixes over the
//! workspace's job types, size/priority/deadline/budget distributions),
//! and what fleet they land on ([`FleetProfile`] plus an
//! [`AdmissionPolicy`]). Scenarios are *descriptions*; lowering one
//! into a concrete timed submission stream is the
//! [`TrafficGen`](crate::TrafficGen)'s job and is deterministic per
//! `(scenario, seed)`.

use lnls_gpu_sim::EngineConfig;
use lnls_runtime::{AdmissionPolicy, LaunchMode, SelectionMode};

/// How arrivals are spaced over modeled fleet seconds.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the
    /// given mean rate.
    Poisson {
        /// Mean arrivals per modeled second.
        rate_per_s: f64,
    },
    /// Storms: groups of `burst` simultaneous arrivals separated by
    /// quiet gaps — the worst case for admission queues.
    Bursty {
        /// Arrivals per storm (all at the same instant).
        burst: u64,
        /// Quiet seconds between storms.
        gap_s: f64,
    },
    /// Piecewise-Poisson phases cycled in order — a compressed
    /// day/night load curve.
    Diurnal {
        /// `(phase duration seconds, arrivals per second)` entries,
        /// cycled until the job budget is spent.
        phases: Vec<(f64, f64)>,
    },
    /// Closed-loop clients: `clients` logical submitters each keep at
    /// most one job in flight, submitting their next the tick the
    /// previous one finishes (or retrying a fixed number of ticks after
    /// an overload shed). Arrivals are gated on completions rather than
    /// on a modeled clock, so the lowering stamps no arrival times —
    /// the recording driver stamps the delivery *tick* of every attempt
    /// into the trace, and replay follows those ticks open-loop.
    ClosedLoop {
        /// Concurrent logical clients (the in-flight upper bound).
        clients: usize,
        /// Ticks a client waits before retrying a shed submission.
        retry_after_ticks: u64,
    },
}

/// The job families a tenant can draw from. Every family flows through
/// the same generic [`SearchJob`](lnls_runtime::SearchJob) submission
/// path; the mix is what makes a scenario exercise batching (same-key
/// tabu lanes fuse), sampling-style pricing (annealing), unbatchable
/// long runs (QAP) and the problems zoo (Max-Cut).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Full-neighborhood tabu over OneMax (fusable bulk work).
    TabuOneMax,
    /// Full-neighborhood tabu over the paper's PPP cryptanalysis.
    TabuPpp,
    /// Full-neighborhood tabu over random Max-Cut instances (zoo).
    TabuMaxCut,
    /// Simulated annealing over OneMax (sampling-style launches).
    Anneal,
    /// QAP robust tabu (long, unbatchable, preemption-sensitive).
    Qap,
    /// Destroy-and-repair LNS over Knapsack/Max-3-Sat/QUBO (per-round
    /// fused multi-lane repair spans, adaptive destroy radius).
    LnsRepair,
    /// Tabu/SA/descent portfolio races over Knapsack/Max-3-Sat/QUBO
    /// (heterogeneous-lane spans, budget reallocation to the leader).
    PortfolioRace,
}

impl Family {
    /// Short label used in generated job names.
    pub fn label(self) -> &'static str {
        match self {
            Family::TabuOneMax => "onemax",
            Family::TabuPpp => "ppp",
            Family::TabuMaxCut => "maxcut",
            Family::Anneal => "sa",
            Family::Qap => "qap",
            Family::LnsRepair => "lns",
            Family::PortfolioRace => "portfolio",
        }
    }
}

/// One tenant's traffic profile: its share of arrivals and the
/// distributions its submissions are drawn from.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantProfile {
    /// Tenant name (admission caps count per tenant; reports attribute).
    pub name: String,
    /// Relative share of total arrivals (weights need not sum to 1).
    pub weight: f64,
    /// Weighted family mix this tenant draws jobs from.
    pub families: Vec<(Family, f64)>,
    /// Problem sizes, chosen uniformly (QAP jobs clamp to `6..=12`).
    pub dims: Vec<usize>,
    /// Inclusive iteration-budget range of the *search itself*.
    pub iters: (u64, u64),
    /// Queue priorities, chosen uniformly.
    pub priorities: Vec<u8>,
    /// Probability a submission carries a deadline.
    pub deadline_p: f64,
    /// Inclusive relative deadline range (seconds after arrival).
    pub deadline_s: (f64, f64),
    /// Probability a submission carries an envelope iteration budget
    /// (drawn uniformly from half to the full search budget).
    pub budget_p: f64,
    /// Probability a submission opts out of checkpoints.
    pub no_checkpoint_p: f64,
}

impl TenantProfile {
    /// A plain tenant: equal-weight families, no deadlines, no envelope
    /// budgets, checkpointable, priority 0.
    pub fn new(name: impl Into<String>, families: Vec<(Family, f64)>) -> Self {
        Self {
            name: name.into(),
            weight: 1.0,
            families,
            dims: vec![24, 32],
            iters: (20, 40),
            priorities: vec![0],
            deadline_p: 0.0,
            deadline_s: (0.0, 0.0),
            budget_p: 0.0,
            no_checkpoint_p: 0.0,
        }
    }
}

/// The fleet shape a scenario runs on (uniform GTX 280 devices, as
/// everywhere else in the workspace).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FleetProfile {
    /// Simulated devices.
    pub devices: usize,
    /// CPU worker backends.
    pub cpu_workers: usize,
    /// Launch-batching width (1 disables fusing).
    pub max_batch: usize,
    /// Preemption quantum in iterations (`None` = run to completion).
    pub quantum_iters: Option<u64>,
    /// Telemetry cadence in ticks (scenarios always record).
    pub telemetry_every_ticks: u64,
    /// Telemetry memory bound: keep at most this many samples per
    /// series, thinning deterministically (`None` = unbounded); see
    /// [`SchedulerConfig::telemetry_max_samples`](lnls_runtime::SchedulerConfig::telemetry_max_samples).
    pub telemetry_max_samples: Option<usize>,
    /// Engine layout of every device: GT200 (the paper's part, nothing
    /// overlaps inside a fused iteration) or a multi-engine layout whose
    /// stream schedules overlap per-lane copies.
    pub engines: EngineConfig,
    /// Fleet-wide best-neighbor selection mode (host scan vs. on-device
    /// argmin) — pricing-only; see
    /// [`SchedulerConfig::selection`](lnls_runtime::SchedulerConfig::selection).
    pub selection: SelectionMode,
    /// Fused-span length: up to this many consecutive fused iterations
    /// are priced as one breadth-first stream schedule per tick (capped
    /// at the preemption quantum) — pricing-only; see
    /// [`SchedulerConfig::span_iters`](lnls_runtime::SchedulerConfig::span_iters).
    pub span_iters: u64,
    /// How kernel-launch overhead is charged across a fused span —
    /// pricing-only; see
    /// [`SchedulerConfig::launch_mode`](lnls_runtime::SchedulerConfig::launch_mode).
    pub launch_mode: LaunchMode,
    /// Shards in the fleet (1 = an unsharded scheduler, byte-for-byte
    /// the pre-sharding behavior). [`devices`](Self::devices) counts
    /// devices *per shard*.
    pub shards: usize,
    /// Shard-config version the scenario was authored (and any trace
    /// recorded) under — replay mints
    /// [`ShardConfig::for_version`](lnls_shard::ShardConfig::for_version)
    /// with this, so old traces keep old steal/ring semantics as
    /// defaults move.
    pub config_version: u32,
    /// Threads ticking the shards of the driver's
    /// [`ParallelFleet`](lnls_shard::ParallelFleet), the caller's
    /// included (clamped to `1..=shards`): at one, the caller ticks every
    /// shard inline and no thread is spawned. Execution knob, **not**
    /// persisted in traces: results are bit-identical at every worker
    /// count, so the recorded bytes must not depend on who recorded them.
    pub workers: usize,
    /// Per-shard in-flight bound fronting each shard's client through a
    /// [`ConcurrencyLimiter`](lnls_runtime::ConcurrencyLimiter)
    /// (`None` = unbounded). Persisted: overload sheds change admission
    /// outcomes, so replay must reinstall the same limit.
    pub max_inflight: Option<usize>,
}

impl Default for FleetProfile {
    fn default() -> Self {
        Self {
            devices: 2,
            cpu_workers: 1,
            max_batch: 4,
            quantum_iters: Some(8),
            telemetry_every_ticks: 1,
            telemetry_max_samples: None,
            engines: EngineConfig::gt200(),
            selection: SelectionMode::HostArgmin,
            span_iters: 1,
            launch_mode: LaunchMode::PerIteration,
            shards: 1,
            config_version: lnls_shard::CONFIG_VERSION,
            workers: 1,
            max_inflight: None,
        }
    }
}

/// A complete, nameable load scenario: arrivals, tenants, fleet shape
/// and admission rules, lowered deterministically by
/// [`TrafficGen`](crate::TrafficGen).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Catalog key (`Scenario::by_name` looks it up case-insensitively).
    pub name: String,
    /// One-line description for tables and reports.
    pub summary: String,
    /// Total submissions to generate.
    pub jobs: u64,
    /// Arrival spacing over modeled time.
    pub arrivals: ArrivalProcess,
    /// Who submits, and what.
    pub tenants: Vec<TenantProfile>,
    /// The fleet the traffic lands on.
    pub fleet: FleetProfile,
    /// Admission rules fronting the fleet.
    pub admission: AdmissionPolicy,
    /// Crash the fleet at this driver tick and restore it from a byte
    /// round-tripped checkpoint — the checkpoint-churn stressor.
    pub crash_at_tick: Option<u64>,
}

impl Scenario {
    /// Scale the submission count by `factor` (at least one job) — how
    /// the benches and examples grow a catalog scenario without
    /// redefining it.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        self.jobs = ((self.jobs as f64 * factor).round() as u64).max(1);
        self
    }

    /// The same traffic on a fleet with a different engine layout and
    /// selection mode — how the benches sweep the overlap/argmin knobs
    /// across the catalog without redefining scenarios. Pricing-only:
    /// arrivals and search results are unchanged.
    #[must_use]
    pub fn with_fleet_knobs(mut self, engines: EngineConfig, selection: SelectionMode) -> Self {
        self.fleet.engines = engines;
        self.fleet.selection = selection;
        self
    }

    /// The same traffic with a different fused-span length and
    /// launch-overhead mode — how the benches sweep the multi-iteration
    /// pipelining knobs. Pricing-only: arrivals and search results are
    /// unchanged (`span_iters` clamps to at least one iteration).
    #[must_use]
    pub fn with_span_knobs(mut self, span_iters: u64, launch_mode: LaunchMode) -> Self {
        self.fleet.span_iters = span_iters.max(1);
        self.fleet.launch_mode = launch_mode;
        self
    }

    /// The same traffic driven by a different worker-thread count —
    /// execution-only: results are bit-identical at every worker count,
    /// so reports and trace bytes must not change.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.fleet.workers = workers.max(1);
        self
    }

    /// The named catalog: every scenario the workload subsystem ships.
    ///
    /// | name | stress |
    /// |---|---|
    /// | `steady` | steady multi-tenant mix, the regression baseline |
    /// | `burst` | arrival storms against a hard queue cap |
    /// | `priority-inversion` | bulk flood vs. rare urgent tenants, shed-lowest-priority |
    /// | `deadline-heavy` | tight deadlines, cancellations expected |
    /// | `checkpoint-churn` | mid-replay crash/restore through checkpoint bytes |
    /// | `saturation` | every family at once over an undersized fleet |
    /// | `lns-repair` | destroy-and-repair LNS over the Knapsack/Max-3-Sat/QUBO zoo |
    /// | `portfolio-race` | tabu/SA/descent portfolio races, budget follows the leader |
    /// | `saturation-sharded` | saturation pressure spread over many tenants on a 4-shard fleet |
    pub fn catalog() -> Vec<Scenario> {
        vec![
            Self::steady(),
            Self::burst(),
            Self::priority_inversion(),
            Self::deadline_heavy(),
            Self::checkpoint_churn(),
            Self::saturation(),
            Self::lns_repair(),
            Self::portfolio_race(),
            Self::saturation_sharded(),
        ]
    }

    /// Look a catalog scenario up by name (case-insensitive); an
    /// unknown name comes back as an [`UnknownScenario`] listing every
    /// valid name, so misspellings are self-diagnosing.
    pub fn by_name(name: &str) -> Result<Scenario, UnknownScenario> {
        Self::catalog().into_iter().find(|s| s.name.eq_ignore_ascii_case(name)).ok_or_else(|| {
            UnknownScenario {
                requested: name.to_string(),
                known: Self::catalog().into_iter().map(|s| s.name).collect(),
            }
        })
    }

    /// Steady multi-tenant mix: tabu bulk, PPP tries and an annealing
    /// chain arriving at a sustainable Poisson rate — the baseline the
    /// other scenarios deviate from.
    pub fn steady() -> Scenario {
        Scenario {
            name: "steady".into(),
            summary: "steady multi-tenant tabu/PPP/SA mix at a sustainable rate".into(),
            jobs: 18,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 9000.0 },
            tenants: vec![
                TenantProfile {
                    weight: 2.0,
                    ..TenantProfile::new("bulk", vec![(Family::TabuOneMax, 1.0)])
                },
                TenantProfile {
                    dims: vec![20, 24],
                    ..TenantProfile::new("research", vec![(Family::TabuPpp, 1.0)])
                },
                TenantProfile {
                    iters: (40, 80),
                    ..TenantProfile::new("sampler", vec![(Family::Anneal, 1.0)])
                },
            ],
            fleet: FleetProfile::default(),
            admission: AdmissionPolicy::unbounded(),
            crash_at_tick: None,
        }
    }

    /// Burst storm: waves of simultaneous arrivals against a hard
    /// global queue cap with no shedding — rejections are the point.
    pub fn burst() -> Scenario {
        Scenario {
            name: "burst".into(),
            summary: "arrival storms against a hard queue cap (rejections expected)".into(),
            jobs: 24,
            arrivals: ArrivalProcess::Bursty { burst: 8, gap_s: 0.004 },
            tenants: vec![
                TenantProfile {
                    weight: 3.0,
                    ..TenantProfile::new("storm", vec![(Family::TabuOneMax, 1.0)])
                },
                TenantProfile {
                    dims: vec![20],
                    iters: (15, 30),
                    ..TenantProfile::new("background", vec![(Family::TabuPpp, 1.0)])
                },
            ],
            fleet: FleetProfile { devices: 1, cpu_workers: 0, ..FleetProfile::default() },
            admission: AdmissionPolicy::queue_cap(6),
            crash_at_tick: None,
        }
    }

    /// Priority-inversion stress: a low-priority bulk flood ahead of
    /// rare urgent submissions, with shed-lowest-priority admission —
    /// urgency must displace bulk, not queue behind it.
    pub fn priority_inversion() -> Scenario {
        Scenario {
            name: "priority-inversion".into(),
            summary: "bulk flood vs. rare urgent tenants under shed-lowest-priority".into(),
            jobs: 20,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 4000.0 },
            tenants: vec![
                TenantProfile {
                    weight: 4.0,
                    ..TenantProfile::new("bulk", vec![(Family::TabuOneMax, 1.0)])
                },
                TenantProfile {
                    priorities: vec![6, 7],
                    iters: (15, 25),
                    ..TenantProfile::new("urgent", vec![(Family::TabuOneMax, 1.0)])
                },
            ],
            fleet: FleetProfile { devices: 1, cpu_workers: 0, ..FleetProfile::default() },
            admission: AdmissionPolicy::queue_cap(5).with_shedding(),
            crash_at_tick: None,
        }
    }

    /// Deadline-heavy: most submissions carry tight deadlines; the
    /// drain sweep must cancel the late ones and the report must show
    /// the misses.
    pub fn deadline_heavy() -> Scenario {
        Scenario {
            name: "deadline-heavy".into(),
            summary: "tight deadlines on most submissions (misses cancel)".into(),
            jobs: 16,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 6000.0 },
            tenants: vec![
                TenantProfile {
                    weight: 3.0,
                    deadline_p: 0.85,
                    // Jobs price at a few hundred microseconds of fleet
                    // time; sub-millisecond deadlines guarantee misses
                    // once the queue backs up.
                    deadline_s: (0.0001, 0.0008),
                    ..TenantProfile::new("latency-bound", vec![(Family::TabuOneMax, 1.0)])
                },
                TenantProfile {
                    iters: (30, 60),
                    budget_p: 0.5,
                    ..TenantProfile::new("best-effort", vec![(Family::Anneal, 1.0)])
                },
            ],
            fleet: FleetProfile {
                devices: 1,
                cpu_workers: 1,
                quantum_iters: Some(4),
                ..FleetProfile::default()
            },
            admission: AdmissionPolicy::unbounded(),
            crash_at_tick: None,
        }
    }

    /// Checkpoint-churn: a mixed fleet crashed mid-replay and restored
    /// from byte-round-tripped checkpoints; some submissions opt out of
    /// checkpoints and are deliberately lost.
    pub fn checkpoint_churn() -> Scenario {
        Scenario {
            name: "checkpoint-churn".into(),
            summary: "mid-run crash/restore through checkpoint bytes (opt-outs lost)".into(),
            jobs: 14,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 1500.0 },
            tenants: vec![
                TenantProfile {
                    weight: 2.0,
                    no_checkpoint_p: 0.3,
                    ..TenantProfile::new(
                        "durable",
                        vec![(Family::TabuOneMax, 1.0), (Family::TabuMaxCut, 1.0)],
                    )
                },
                TenantProfile {
                    dims: vec![10, 12],
                    iters: (40, 80),
                    ..TenantProfile::new("assignments", vec![(Family::Qap, 1.0)])
                },
            ],
            fleet: FleetProfile { devices: 2, cpu_workers: 1, ..FleetProfile::default() },
            admission: AdmissionPolicy::unbounded(),
            crash_at_tick: Some(25),
        }
    }

    /// Mixed-family saturation: every job family at once, arriving
    /// faster than an undersized fleet drains, behind per-tenant caps
    /// with shedding — the kitchen-sink stressor.
    pub fn saturation() -> Scenario {
        Scenario {
            name: "saturation".into(),
            summary: "every family at once over an undersized fleet, per-tenant caps".into(),
            jobs: 26,
            arrivals: ArrivalProcess::Diurnal {
                phases: vec![(0.002, 8000.0), (0.002, 2000.0), (0.002, 12000.0)],
            },
            tenants: vec![
                TenantProfile {
                    weight: 2.0,
                    ..TenantProfile::new(
                        "zoo",
                        vec![(Family::TabuOneMax, 1.0), (Family::TabuMaxCut, 1.0)],
                    )
                },
                TenantProfile {
                    dims: vec![20],
                    ..TenantProfile::new("crypto", vec![(Family::TabuPpp, 1.0)])
                },
                TenantProfile {
                    iters: (40, 70),
                    ..TenantProfile::new("sampler", vec![(Family::Anneal, 1.0)])
                },
                TenantProfile {
                    dims: vec![9, 11],
                    iters: (50, 90),
                    priorities: vec![2],
                    ..TenantProfile::new("assignments", vec![(Family::Qap, 1.0)])
                },
            ],
            fleet: FleetProfile {
                devices: 2,
                cpu_workers: 2,
                max_batch: 8,
                ..FleetProfile::default()
            },
            admission: AdmissionPolicy::unbounded().with_tenant_cap(4).with_shedding(),
            crash_at_tick: None,
        }
    }

    /// Destroy-and-repair LNS over the binary-problems zoo: every round
    /// prices its repair lanes as one fused multi-lane stream span, so
    /// this scenario exercises the stream pricer *within* single
    /// tenants, alongside an annealing chain for contrast.
    pub fn lns_repair() -> Scenario {
        Scenario {
            name: "lns-repair".into(),
            summary: "destroy-and-repair LNS over Knapsack/Max-3-Sat/QUBO (fused repair spans)"
                .into(),
            jobs: 16,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 5000.0 },
            tenants: vec![
                TenantProfile {
                    weight: 3.0,
                    dims: vec![24, 32],
                    iters: (15, 30),
                    ..TenantProfile::new("repair", vec![(Family::LnsRepair, 1.0)])
                },
                TenantProfile {
                    iters: (30, 60),
                    ..TenantProfile::new("sampler", vec![(Family::Anneal, 1.0)])
                },
            ],
            fleet: FleetProfile { devices: 2, cpu_workers: 1, ..FleetProfile::default() },
            admission: AdmissionPolicy::unbounded(),
            crash_at_tick: None,
        }
    }

    /// Portfolio races: tabu, annealing and shaken descent compete on
    /// one instance inside one fused heterogeneous batch, and iteration
    /// budget follows the leading lane at reallocation boundaries.
    pub fn portfolio_race() -> Scenario {
        Scenario {
            name: "portfolio-race".into(),
            summary: "tabu/SA/descent races per instance, budget follows the leading lane".into(),
            jobs: 12,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 4000.0 },
            tenants: vec![
                TenantProfile {
                    weight: 2.0,
                    dims: vec![20, 24],
                    iters: (16, 40),
                    ..TenantProfile::new("racers", vec![(Family::PortfolioRace, 1.0)])
                },
                TenantProfile {
                    dims: vec![24],
                    iters: (15, 25),
                    ..TenantProfile::new("bulk", vec![(Family::TabuOneMax, 1.0)])
                },
            ],
            fleet: FleetProfile {
                devices: 2,
                cpu_workers: 0,
                quantum_iters: Some(6),
                ..FleetProfile::default()
            },
            admission: AdmissionPolicy::unbounded(),
            crash_at_tick: None,
        }
    }

    /// Sharded saturation: `saturation`-style pressure spread over many
    /// generated tenants and a sharded fleet — the catalog face of the
    /// shard-scaling bench sweep (which calls
    /// [`saturation_sharded_sized`](Self::saturation_sharded_sized)
    /// directly to sweep 1 → 64 shards).
    pub fn saturation_sharded() -> Scenario {
        Self::saturation_sharded_sized(16, 4, 40)
    }

    /// The sharded-saturation generator at an arbitrary size: `tenants`
    /// organizations drawing from light tabu/anneal families, routed by
    /// consistent hashing onto `shards` shards of one device each,
    /// `jobs` submissions total. Tenant names are generated
    /// (`org-000`, `org-001`, …) so the tenant population scales with
    /// the fleet instead of pinning four names to sixty-four shards.
    pub fn saturation_sharded_sized(tenants: usize, shards: usize, jobs: u64) -> Scenario {
        let families = [
            vec![(Family::TabuOneMax, 1.0)],
            vec![(Family::Anneal, 1.0)],
            vec![(Family::TabuMaxCut, 1.0)],
            vec![(Family::TabuOneMax, 1.0), (Family::Anneal, 1.0)],
        ];
        let tenants = (0..tenants.max(1))
            .map(|i| TenantProfile {
                iters: (16, 32),
                dims: vec![20, 24],
                ..TenantProfile::new(format!("org-{i:03}"), families[i % families.len()].clone())
            })
            .collect();
        Scenario {
            name: "saturation-sharded".into(),
            summary: "saturation pressure spread over generated tenants on a sharded fleet".into(),
            jobs,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 9000.0 },
            tenants,
            fleet: FleetProfile {
                devices: 1,
                cpu_workers: 0,
                max_batch: 8,
                shards: shards.max(1),
                ..FleetProfile::default()
            },
            admission: AdmissionPolicy::unbounded().with_tenant_cap(4),
            crash_at_tick: None,
        }
    }

    /// Closed-loop saturation (not in the catalog: its submission count
    /// is attempt-driven, so the open-loop accounting invariants do not
    /// apply verbatim). Six logical clients keep one job each in flight
    /// against a two-shard fleet whose per-shard
    /// [`max_inflight`](FleetProfile::max_inflight) bound is tighter
    /// than the offered load — overload sheds and tick-stamped retries
    /// are the point. Drive it with [`Driver::record`](crate::Driver):
    /// the recorded trace replays open-loop at any worker count.
    pub fn closed_loop_saturation() -> Scenario {
        let families = [
            vec![(Family::TabuOneMax, 1.0)],
            vec![(Family::Anneal, 1.0)],
            vec![(Family::TabuMaxCut, 1.0)],
        ];
        let tenants = (0..6)
            .map(|i| TenantProfile {
                iters: (16, 32),
                dims: vec![20, 24],
                ..TenantProfile::new(format!("loop-{i:02}"), families[i % families.len()].clone())
            })
            .collect();
        Scenario {
            name: "closed-loop-saturation".into(),
            summary: "completion-gated clients against a per-shard in-flight bound".into(),
            jobs: 20,
            arrivals: ArrivalProcess::ClosedLoop { clients: 6, retry_after_ticks: 2 },
            tenants,
            fleet: FleetProfile {
                devices: 1,
                cpu_workers: 0,
                max_batch: 4,
                shards: 2,
                workers: 2,
                max_inflight: Some(2),
                ..FleetProfile::default()
            },
            admission: AdmissionPolicy::unbounded(),
            crash_at_tick: None,
        }
    }
}

/// The typed "no such scenario" error [`Scenario::by_name`] returns:
/// carries the requested name and the full list of valid names, and
/// renders both, so a typo in e.g. `LNLS_SCENARIO` tells the user what
/// the catalog actually contains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownScenario {
    /// The name that failed to resolve.
    pub requested: String,
    /// Every valid catalog name, in catalog order.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scenario '{}'; valid scenarios: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownScenario {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_findable() {
        let catalog = Scenario::catalog();
        assert!(catalog.len() >= 9, "the catalog promises at least nine scenarios");
        let mut names: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "names must be unique");
        for s in &catalog {
            assert_eq!(Scenario::by_name(&s.name).as_ref().map(|f| &f.name), Ok(&s.name));
            assert!(s.jobs > 0 && !s.tenants.is_empty());
            assert!(s.tenants.iter().all(|t| t.weight > 0.0 && !t.families.is_empty()));
        }
        assert_eq!(Scenario::by_name("BURST").map(|s| s.name), Ok("burst".into()));
    }

    #[test]
    fn unknown_scenarios_error_with_the_full_catalog() {
        let err = Scenario::by_name("no-such-scenario").expect_err("must not resolve");
        assert_eq!(err.requested, "no-such-scenario");
        assert_eq!(err.known.len(), Scenario::catalog().len());
        let rendered = err.to_string();
        for s in Scenario::catalog() {
            assert!(rendered.contains(&s.name), "the error must list '{}': {rendered}", s.name);
        }
    }

    #[test]
    fn scaling_changes_only_the_job_count() {
        let s = Scenario::steady().scaled(2.0);
        assert_eq!(s.jobs, 36);
        assert_eq!(s.scaled(0.0).jobs, 1, "scale clamps to at least one job");
    }
}
