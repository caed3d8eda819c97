//! The three benchmark workloads, built from public `Scenario` fields.
//!
//! All three are open-loop in *modeled* time: an arrival is delivered
//! when its shard's modeled clock reaches its timestamp, or when the
//! fleet is idle. Offered load therefore does not depend on how fast the
//! program runs. The seed is an argument; the scenario catalog is never
//! edited, only copied and resized here.

use lnls_runtime::AdmissionPolicy;
use lnls_workload::{Family, JobRecipe, Scenario, Trace, TrafficGen};

/// Crash/restore cadence of `ckpt-churn` (ticks between recoveries).
const CHURN_RECOVER_EVERY: u64 = 8;

/// Delta-snapshot cadence of `ckpt-churn` (ticks between snapshots).
/// Every segment is a file created and renamed, and the time those file
/// operations take follows the host's disk, not the program: with a
/// snapshot after every tick they were 43% of a replay, and the only
/// part of it that host-speed calibration could not steady.
pub const CHURN_SNAPSHOT_EVERY: u64 = 4;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `saturation` ×100 on one shard: many small jobs, scheduler
    /// bookkeeping and admission dominate.
    MixedSerial,
    /// 8 one-device shards of dim-96 2-Hamming tabu jobs on
    /// `ParallelFleet` with 2 workers: neighborhood evaluation dominates.
    HotSharded,
    /// `checkpoint-churn` ×100 with a delta snapshot every 4 ticks and a
    /// full crash/restore every 8 ticks: persistence dominates.
    CkptChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::MixedSerial, Workload::HotSharded, Workload::CkptChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedSerial => "mixed-serial",
            Workload::HotSharded => "hot-sharded",
            Workload::CkptChurn => "ckpt-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scenario(self) -> Scenario {
        match self {
            Workload::MixedSerial => Scenario::saturation().scaled(100.0),
            Workload::HotSharded => {
                // The bench's `heavy-parallel` fleet (32 tenants, 8
                // one-device shards, dim-96 2-Hamming, quantum 64) fed only
                // full-neighborhood tabu jobs whose budgets end before
                // they can reach the optimum, so every job runs its whole
                // budget. Caps are off so that nothing bounces.
                let mut s = Scenario::saturation_sharded_sized(32, 8, 384);
                s.name = "hot-sharded".into();
                for t in &mut s.tenants {
                    t.families = vec![(Family::TabuOneMax, 1.0)];
                    t.dims = vec![96];
                    t.iters = (16, 21);
                }
                s.fleet.quantum_iters = Some(64);
                s.admission = AdmissionPolicy::unbounded();
                s
            }
            Workload::CkptChurn => {
                // Opt-outs and the single scheduled crash removed: the
                // benchmark crashes on its own cadence, and every job
                // must survive it so the report can be checked.
                let mut s = Scenario::checkpoint_churn().scaled(100.0);
                for t in &mut s.tenants {
                    t.no_checkpoint_p = 0.0;
                }
                s.crash_at_tick = None;
                s
            }
        }
    }

    /// Lower `scenario` for a run with `seed`: keep the traffic shape of
    /// [`SHAPE_SEED`] (arrival times, tenants, families, sizes, budgets)
    /// and re-seed every job's instance, initial solution and search from
    /// `seed`. A free shape lets the seed alone set the amount of work:
    /// on `mixed-serial` it moved a replay between 8,881 and 10,694
    /// ticks, and on `hot-sharded` (whose wall time follows which shards
    /// the arrivals land on) by 1.6x.
    pub fn lower(self, scenario: &Scenario, seed: u64) -> Trace {
        let mut trace = TrafficGen::lower(scenario, SHAPE_SEED);
        trace.seed = seed;
        if seed != SHAPE_SEED {
            for arrival in &mut trace.arrivals {
                reseed(&mut arrival.recipe, seed);
            }
        }
        trace
    }

    /// Worker threads driving the shards: 2 on `hot-sharded` (never more
    /// than the host's cores), 1 elsewhere.
    pub fn workers(self) -> usize {
        match self {
            Workload::HotSharded => 2.min(nproc()),
            _ => 1,
        }
    }

    /// Whether the replay takes a delta snapshot every
    /// [`CHURN_SNAPSHOT_EVERY`] ticks and crashes every
    /// [`CHURN_RECOVER_EVERY`] ticks as part of the timed work.
    pub fn churns(self) -> bool {
        self == Workload::CkptChurn
    }

    /// Crash/restore cadence of the timed replays, in ticks.
    pub fn recover_every(self) -> Option<u64> {
        self.churns().then_some(CHURN_RECOVER_EVERY)
    }
}

/// The lowering seed of every workload's traffic shape.
const SHAPE_SEED: u64 = 42;

/// Derive `recipe`'s job seed from `seed`. LNS and portfolio recipes
/// pick their problem kind by `seed % 3`, which is kept.
fn reseed(recipe: &mut JobRecipe, seed: u64) {
    match recipe {
        JobRecipe::LnsRepair { seed: s, .. } | JobRecipe::PortfolioRace { seed: s, .. } => {
            *s = (splitmix64(*s ^ splitmix64(seed)) >> 2) * 3 + *s % 3
        }
        JobRecipe::TabuOneMax { seed: s, .. }
        | JobRecipe::TabuPpp { seed: s, .. }
        | JobRecipe::TabuMaxCut { seed: s, .. }
        | JobRecipe::AnnealOneMax { seed: s, .. }
        | JobRecipe::Qap { seed: s, .. } => *s = splitmix64(*s ^ splitmix64(seed)),
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
