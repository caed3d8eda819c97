//! # lnls — Large Neighborhood Local Search on (simulated) GPUs
//!
//! A production-grade Rust reproduction of **Luong, Melab & Talbi,
//! "Large Neighborhood Local Search Optimization on Graphics Processing
//! Units"** (Workshop on Large-Scale Parallel Processing @ IPDPS 2010).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`neighborhood`] | 1/2/3/k-Hamming neighborhoods and the thread-id ↔ move mappings (paper §II–III, appendices A–D) |
//! | [`gpu`] | cycle-approximate functional GPU simulator with a GTX 280 timing model (the hardware substitution) |
//! | [`core`] | the local-search framework: tabu search, hill climbing, SA, ILS, VNS over pluggable exploration backends |
//! | [`ppp`] | the Permuted Perceptron Problem: instances, objective, incremental evaluation, GPU kernels (paper §IV) |
//! | [`problems`] | OneMax, QUBO, MAX-3SAT, NK landscapes, Max-Cut, knapsack, Ising — the "binary problems" generality claim, with GPU kernels |
//! | [`qap`] | the quadratic assignment problem under Taillard's robust tabu search (the paper's reference \[11\]), swap moves flat-indexed by the paper's 2D mapping |
//! | [`lns`] | large neighborhood search: destroy-and-repair cursors with an adaptive destroy radius, plus a tabu/SA/descent portfolio race — the "large neighborhood" idea applied to the *search* as well as its exploration |
//! | [`runtime`] | the fleet scheduler: batched multi-tenant search jobs over simulated multi-GPU devices, with checkpoint/resume, time-series telemetry, structured event tracing, a metrics registry and throughput reporting (§V perspective, scaled out) |
//! | [`shard`] | horizontal sharding: consistent-hash tenant placement, deterministic shard-level work stealing, per-shard delta checkpoints, versioned shard config, and one fleet type whose shards the caller's thread and optional helper threads tick, bit-identically at any worker count |
//! | [`workload`] | the scenario catalog, deterministic traffic generator, record/replay driver and what-if trace analytics that stress-test the runtime |
//!
//! ## Quickstart
//!
//! ```
//! use lnls::prelude::*;
//!
//! // A small PPP instance (the paper's application) …
//! let instance = PppInstance::generate(25, 25, 7);
//! let problem = Ppp::new(instance);
//!
//! // … a 2-Hamming neighborhood explored on the simulated GTX 280 …
//! let mut explorer = PppGpuExplorer::new(&problem, 2, GpuExplorerConfig::default());
//!
//! // … driven by the paper's tabu search.
//! let hood_size = Neighborhood::size(&TwoHamming::new(25));
//! let search = TabuSearch::paper(SearchConfig::budget(150).with_seed(1), hood_size);
//! let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
//! let init = BitString::random(&mut rng, 25);
//! let result = search.run(&problem, &mut explorer, init);
//!
//! println!("best fitness {} after {} iterations", result.best_fitness, result.iterations);
//! let book = result.book.expect("GPU runs are priced");
//! println!("modeled speedup: x{:.1}", book.speedup().unwrap_or(0.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use lnls_core as core;
pub use lnls_gpu_sim as gpu;
pub use lnls_lns as lns;
pub use lnls_neighborhood as neighborhood;
pub use lnls_ppp as ppp;
pub use lnls_problems as problems;
pub use lnls_qap as qap;
pub use lnls_runtime as runtime;
pub use lnls_shard as shard;
pub use lnls_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use lnls_core::prelude::*;
    pub use lnls_core::{
        fmt_seconds, GeneralVns, HillClimbing, IteratedLocalSearch, SimulatedAnnealing,
        VariableNeighborhoodSearch,
    };
    pub use lnls_gpu_sim::{
        Device, DeviceSpec, EngineConfig, ExecMode, HostSpec, LaunchConfig, LaunchMode,
        MultiDevice, SelectionMode,
    };
    pub use lnls_lns::{AdaptiveRadius, DestroyOp, LnsSearch, PortfolioOutcome, PortfolioSearch};
    pub use lnls_neighborhood::{
        FlipMove, KHamming, Neighborhood, OneHamming, ThreeHamming, TwoHamming, UnionHamming,
    };
    pub use lnls_ppp::{GpuExplorerConfig, Ppp, PppGpuExplorer, PppInstance};
    pub use lnls_problems::{IsingLattice, Knapsack, MaxCut, MaxSat, NkLandscape, OneMax, Qubo};
    pub use lnls_qap::{QapInstance, RobustTabu, RtsConfig, TableEvaluator};
    pub use lnls_runtime::ConcurrencyLimiter;
    pub use lnls_runtime::{
        chrome_trace, tenant_summaries, AdmissionPolicy, AnnealJob, BinaryJob, EventRecord,
        EventSink, FleetCheckpoint, FleetClient, FleetEvent, FleetReport, Histogram, JobHandle,
        JobOutcome, JobRegistry, JobReport, JobSpec, JobStatus, JsonlSink, LnsJob, MetricsRegistry,
        PlacePolicy, PortfolioJob, QapJobSpec, RejectReason, RingSink, Scheduler, SchedulerConfig,
        SearchJob, SubmitError, Telemetry, TenantStat, TenantSummary, TickSample,
    };
    pub use lnls_runtime::{
        CheckpointError, CheckpointStore, DeltaCheckpointer, SnapshotKind, SnapshotStats, StolenJob,
    };
    pub use lnls_shard::{
        HashRing, ParallelFleet, ShardConfig, UnknownConfigVersion, CONFIG_VERSION,
    };
    pub use lnls_workload::{
        Driver, Scenario, Trace, TrafficGen, UnknownScenario, Variant, VariantOutcome, WhatIf,
        WhatIfReport, WorkloadReport,
    };
}
