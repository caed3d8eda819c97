//! # lnls-workload — scenario catalog, traffic generation, replay
//!
//! The runtime (`lnls-runtime`) can schedule, batch, preempt, admit and
//! checkpoint arbitrary [`SearchJob`](lnls_runtime::SearchJob)s — but a
//! scheduler is only as credible as the traffic it has survived. This
//! crate is the traffic:
//!
//! * **[`Scenario`]** — a declarative description of a load pattern:
//!   seeded arrival processes (Poisson, bursty storms, diurnal phases),
//!   tenant mixes with per-tenant family/size/priority/deadline/budget
//!   distributions over every bundled job family (binary tabu, PPP
//!   cryptanalysis, Max-Cut from the problems zoo, simulated annealing,
//!   QAP robust tabu, destroy-and-repair LNS and portfolio races over
//!   Knapsack/Max-3-Sat/QUBO), a fleet shape and an admission policy.
//!   A named [catalog](Scenario::catalog) ships nine scenarios from
//!   steady-state to crash-churn to sharded saturation.
//! * **[`TrafficGen`]** — the deterministic lowering: `(scenario, seed)`
//!   becomes a [`Trace`] of timed [`Arrival`]s, bit-reproducibly.
//! * **[`Trace`]** — the record/replay format on
//!   [`lnls_core::persist`]: save any lowered run, reload it, and
//!   replay it **bit-identically** (f64s round-trip as raw bits).
//! * **[`Driver`]** — interleaves arrivals with scheduler ticks through
//!   one replay loop over a
//!   [`ParallelFleet`](lnls_shard::ParallelFleet) of any shard and
//!   worker count, collects the fleet's time-series telemetry, and (for
//!   the checkpoint-churn scenario) crashes the fleet mid-run and
//!   restores it from checkpoint bytes.
//!   [`Driver::replay_observed`] and [`Driver::replay_metered`] attach
//!   structured event sinks and a live metrics registry without
//!   perturbing the replay (reports stay bit-identical).
//! * **[`WhatIf`]** — trace-diff analytics: replay one recorded trace
//!   across fleet variants (engine layout × selection mode × device
//!   count) and tabulate tail wait, rejections, bytes moved and busy
//!   fraction per variant.
//!
//! ## Quickstart
//!
//! ```
//! use lnls_workload::{Driver, Scenario, Trace};
//!
//! let scenario = Scenario::by_name("steady").expect("catalog scenario");
//! let (trace, report) = Driver::record(&scenario, 42);
//! assert_eq!(report.submitted, scenario.jobs);
//!
//! // Traces round-trip through bytes and replay bit-identically.
//! let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("decode");
//! let replayed = Driver::replay(&reloaded);
//! assert_eq!(format!("{:?}", replayed.fleet), format!("{:?}", report.fleet));
//!
//! // The report carries queue-depth backpressure over time.
//! let telemetry = report.fleet.telemetry.expect("scenarios record telemetry");
//! assert!(!telemetry.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod driver;
mod scenario;
mod trace;
mod traffic;
mod whatif;

pub use driver::{Driver, WorkloadReport};
pub use scenario::{
    ArrivalProcess, Family, FleetProfile, Scenario, TenantProfile, UnknownScenario,
};
pub use trace::Trace;
pub use traffic::{Arrival, JobRecipe, TrafficGen};
pub use whatif::{Variant, VariantOutcome, WhatIf, WhatIfReport};
