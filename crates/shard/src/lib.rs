//! Horizontal sharding for the fleet runtime: many schedulers behind
//! one facade.
//!
//! The per-device stack ([`lnls_runtime`]) prices one scheduler
//! driving one device group. This crate adds the horizontal layer the
//! service fleet needs:
//!
//! * [`HashRing`] — consistent-hash tenant → shard placement over
//!   virtual nodes, so adding or removing a shard rebalances `≈ 1/N`
//!   of tenants instead of reshuffling everyone.
//! * [`ParallelFleet`] — N shards, each its own
//!   [`Scheduler`](lnls_runtime::Scheduler) +
//!   [`FleetClient`](lnls_runtime::FleetClient) admission path, with a
//!   deterministic *steal barrier*: on a fixed tick cadence,
//!   overloaded shards donate queued (never running) jobs to idle
//!   shards under a seeded, documented tie-break order, so replays
//!   stay bit-identical. The shards advance in barrier-to-barrier
//!   phases on `workers` threads, and the caller's thread is worker 0:
//!   at one worker no thread is spawned, and above one, helper threads
//!   tick their shards while the caller ticks its own. Ticks, steals
//!   and report merging are **bit-identical** at any worker count (the
//!   `parallel_fleet` proptest harness pins it across the whole
//!   scenario catalog).
//! * Delta checkpoints — each shard snapshots through a
//!   [`DeltaCheckpointer`](lnls_runtime::DeltaCheckpointer) (rotating
//!   base + dirty-job deltas), so snapshot cost tracks per-tick churn,
//!   not fleet size.
//! * [`ShardConfig`] — a *versioned* knob set: traces record the
//!   [`CONFIG_VERSION`] they were captured under, and replay mints the
//!   recorded version's frozen semantics even after defaults move.
//!
//! A 1-shard fleet degenerates exactly to a bare scheduler: shard 0
//! mints ids from base 0, the steal barrier never fires (no peers),
//! and [`ParallelFleet::fleet_report`] returns the shard's report
//! verbatim — the equivalence the replay proptests pin bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod fleet;
mod par;
mod ring;

pub use config::{ShardConfig, UnknownConfigVersion, CONFIG_VERSION};
pub use fleet::SHARD_ID_SHIFT;
pub use par::ParallelFleet;
pub use ring::{fnv1a, HashRing};
