//! The trace record/replay format.
//!
//! A [`Trace`] is a fully lowered run: the fleet/admission shape plus
//! every timed [`Arrival`], encoded through the workspace's
//! [`lnls_core::persist`] codec (f64 fields round-trip as raw bits, so
//! a loaded trace replays **bit-identically** — the replay proptest
//! holds the whole [`FleetReport`](lnls_runtime::FleetReport) to that
//! standard). Traces are small by construction: recipes store sizes,
//! budgets and seeds, never instance payloads.

use crate::scenario::FleetProfile;
use crate::traffic::{Arrival, JobRecipe};
use lnls_core::persist::{write_atomic, Persist, PersistError, Reader};
use lnls_runtime::AdmissionPolicy;
use lnls_shard::ShardConfig;
use std::io;
use std::path::Path;

/// Magic prefix of a trace file (`LNLSTRC` + format version).
const MAGIC: &[u8; 8] = b"LNLSTRC\x06";

/// A recorded (or freshly lowered) run: everything
/// [`Driver::replay`](crate::Driver::replay) needs, self-contained.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Name of the scenario this trace was lowered from (display only —
    /// the trace itself carries every runtime parameter).
    pub scenario: String,
    /// The lowering seed.
    pub seed: u64,
    /// The fleet shape the traffic ran on.
    pub fleet: FleetProfile,
    /// The admission policy fronting the fleet.
    pub admission: AdmissionPolicy,
    /// Crash/restore tick, if the run crashes mid-replay.
    pub crash_at_tick: Option<u64>,
    /// The timed submission stream, in arrival order.
    pub arrivals: Vec<Arrival>,
}

impl Trace {
    /// Encode into bytes: the magic prefix, then the trace through the
    /// [`lnls_core::persist`] codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        self.write(&mut out);
        out
    }

    /// Decode a trace written by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        r.expect_magic(MAGIC, "workload trace")?;
        let trace = Self::read(&mut r)?;
        if r.remaining() != 0 {
            return Err(PersistError::new(format!("trace has {} trailing bytes", r.remaining())));
        }
        Ok(trace)
    }

    /// Write the trace to `path` (temp file + rename, like fleet
    /// checkpoints).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Read a trace written by [`save`](Self::save).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Persist for Trace {
    fn write(&self, out: &mut Vec<u8>) {
        self.scenario.write(out);
        self.seed.write(out);
        self.fleet.write(out);
        self.admission.write(out);
        self.crash_at_tick.write(out);
        self.arrivals.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            scenario: r.read()?,
            seed: r.read()?,
            fleet: r.read()?,
            admission: r.read()?,
            crash_at_tick: r.read()?,
            arrivals: r.read()?,
        })
    }
}

/// [`workers`](FleetProfile::workers) is deliberately *not* written:
/// the worker-thread count is an execution knob with no observable
/// effect (results are bit-identical at every worker count), so traces
/// recorded at different worker counts must stay byte-identical. Loaded
/// profiles come back with `workers = 1`.
///
/// Decoding refuses a profile the driver could not replay as recorded:
/// zero shards, or a shard-config version this build does not know.
impl Persist for FleetProfile {
    fn write(&self, out: &mut Vec<u8>) {
        self.devices.write(out);
        self.cpu_workers.write(out);
        self.max_batch.write(out);
        self.quantum_iters.write(out);
        self.telemetry_every_ticks.write(out);
        self.telemetry_max_samples.write(out);
        self.engines.write(out);
        self.selection.write(out);
        self.span_iters.write(out);
        self.launch_mode.write(out);
        self.shards.write(out);
        self.config_version.write(out);
        self.max_inflight.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let profile = Self {
            devices: r.read()?,
            cpu_workers: r.read()?,
            max_batch: r.read()?,
            quantum_iters: r.read()?,
            telemetry_every_ticks: r.read()?,
            telemetry_max_samples: r.read()?,
            engines: r.read()?,
            selection: r.read()?,
            span_iters: r.read()?,
            launch_mode: r.read()?,
            shards: r.read()?,
            config_version: r.read()?,
            workers: 1,
            max_inflight: r.read()?,
        };
        if profile.shards == 0 {
            return Err(PersistError::new(
                "trace fleet has shards = 0 (a fleet needs at least one)",
            ));
        }
        ShardConfig::for_version(profile.config_version)
            .map_err(|e| PersistError::new(format!("trace fleet: {e}")))?;
        Ok(profile)
    }
}

impl Persist for Arrival {
    fn write(&self, out: &mut Vec<u8>) {
        self.at_s.write(out);
        self.at_tick.write(out);
        self.name.write(out);
        self.tenant.write(out);
        self.priority.write(out);
        self.iter_budget.write(out);
        self.deadline_s.write(out);
        self.checkpoint.write(out);
        self.recipe.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            at_s: r.read()?,
            at_tick: r.read()?,
            name: r.read()?,
            tenant: r.read()?,
            priority: r.read()?,
            iter_budget: r.read()?,
            deadline_s: r.read()?,
            checkpoint: r.read()?,
            recipe: r.read()?,
        })
    }
}

impl Persist for JobRecipe {
    fn write(&self, out: &mut Vec<u8>) {
        match *self {
            JobRecipe::TabuOneMax { dim, iters, seed } => {
                out.push(0);
                (dim, iters, seed).write(out);
            }
            JobRecipe::TabuPpp { dim, iters, seed } => {
                out.push(1);
                (dim, iters, seed).write(out);
            }
            JobRecipe::TabuMaxCut { dim, iters, seed } => {
                out.push(2);
                (dim, iters, seed).write(out);
            }
            JobRecipe::AnnealOneMax { dim, iters, seed } => {
                out.push(3);
                (dim, iters, seed).write(out);
            }
            JobRecipe::Qap { n, iters, seed } => {
                out.push(4);
                (n, iters, seed).write(out);
            }
            JobRecipe::LnsRepair { dim, iters, seed } => {
                out.push(5);
                (dim, iters, seed).write(out);
            }
            JobRecipe::PortfolioRace { dim, iters, seed } => {
                out.push(6);
                (dim, iters, seed).write(out);
            }
        }
    }
    /// Decoding refuses a size below 2, which no recipe can build a job
    /// of (a 2-flip neighborhood, a QAP, a Max-Cut graph all need two
    /// elements): replay would panic building it.
    fn read(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tag = u8::read(r)?;
        let (dim, iters, seed): (usize, u64, u64) = r.read()?;
        let recipe = match tag {
            0 => JobRecipe::TabuOneMax { dim, iters, seed },
            1 => JobRecipe::TabuPpp { dim, iters, seed },
            2 => JobRecipe::TabuMaxCut { dim, iters, seed },
            3 => JobRecipe::AnnealOneMax { dim, iters, seed },
            4 => JobRecipe::Qap { n: dim, iters, seed },
            5 => JobRecipe::LnsRepair { dim, iters, seed },
            6 => JobRecipe::PortfolioRace { dim, iters, seed },
            b => return Err(PersistError::new(format!("bad job-recipe tag {b}"))),
        };
        if dim < 2 {
            return Err(PersistError::new(format!("job recipe {recipe:?} has size {dim} < 2")));
        }
        Ok(recipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::traffic::TrafficGen;

    #[test]
    fn traces_roundtrip_bit_exactly() {
        for scenario in Scenario::catalog() {
            let trace = TrafficGen::lower(&scenario, 11);
            let bytes = trace.to_bytes();
            let back = Trace::from_bytes(&bytes).expect("decode");
            assert_eq!(back, trace, "{}", scenario.name);
            assert_eq!(back.to_bytes(), bytes, "{}: re-encoding must be stable", scenario.name);
        }
    }

    #[test]
    fn worker_count_never_reaches_the_bytes() {
        let mut a = TrafficGen::lower(&Scenario::steady(), 2);
        a.fleet.max_inflight = Some(3);
        let mut b = a.clone();
        a.fleet.workers = 1;
        b.fleet.workers = 8;
        assert_eq!(a.to_bytes(), b.to_bytes(), "worker counts must not change trace bytes");
        let back = Trace::from_bytes(&a.to_bytes()).expect("decode");
        assert_eq!(back.fleet.workers, 1, "loaded traces default to one worker");
        assert_eq!(back.fleet.max_inflight, Some(3), "the in-flight bound is replay state");
    }

    /// Re-encode `trace` with its fleet profile overridden, bypassing
    /// the decoder's checks.
    fn bytes_with(trace: &Trace, edit: impl FnOnce(&mut FleetProfile)) -> Vec<u8> {
        let mut edited = trace.clone();
        edit(&mut edited.fleet);
        edited.to_bytes()
    }

    /// A 1-shard trace and a sharded one: decoding refuses an unknown
    /// config version and a zero shard count, naming the value, instead
    /// of handing the driver a trace it cannot replay as recorded.
    #[test]
    fn unreplayable_fleet_profiles_are_refused_at_decode() {
        for scenario in [Scenario::steady(), Scenario::saturation_sharded()] {
            let name = &scenario.name;
            let trace = TrafficGen::lower(&scenario, 3);
            let err = Trace::from_bytes(&bytes_with(&trace, |f| f.config_version = 99))
                .expect_err("v99 must be refused");
            assert!(err.to_string().contains("version 99"), "{name}: {err}");
            let err = Trace::from_bytes(&bytes_with(&trace, |f| f.shards = 0))
                .expect_err("zero shards must be refused");
            assert!(err.to_string().contains("shards = 0"), "{name}: {err}");
            for version in [1, 2] {
                let bytes = bytes_with(&trace, |f| f.config_version = version);
                let back = Trace::from_bytes(&bytes).expect("known versions decode");
                assert_eq!(back.fleet.config_version, version, "{name}");
                assert_eq!(back.to_bytes(), bytes, "{name}: v{version} must round-trip");
            }
        }
    }

    /// A recipe of size 0 or 1 is refused at decode, naming the recipe,
    /// for every recipe kind the catalog lowers; replay used to panic
    /// building its job.
    #[test]
    fn a_recipe_below_size_two_is_refused_at_decode() {
        let mut kinds = std::collections::BTreeSet::new();
        for scenario in Scenario::catalog() {
            let trace = TrafficGen::lower(&scenario, 5);
            for (at, arrival) in trace.arrivals.iter().enumerate() {
                if !kinds.insert(arrival.recipe.family().label()) {
                    continue;
                }
                for size in [0, 1] {
                    let mut edited = trace.clone();
                    match &mut edited.arrivals[at].recipe {
                        JobRecipe::TabuOneMax { dim, .. }
                        | JobRecipe::TabuPpp { dim, .. }
                        | JobRecipe::TabuMaxCut { dim, .. }
                        | JobRecipe::AnnealOneMax { dim, .. }
                        | JobRecipe::Qap { n: dim, .. }
                        | JobRecipe::LnsRepair { dim, .. }
                        | JobRecipe::PortfolioRace { dim, .. } => *dim = size,
                    }
                    let err = Trace::from_bytes(&edited.to_bytes())
                        .expect_err("a recipe below size 2 must be refused");
                    let want = format!("{:?}", edited.arrivals[at].recipe);
                    assert!(err.to_string().contains(&want), "{}: {err}", scenario.name);
                    assert!(err.to_string().contains(&format!("size {size} < 2")), "{err}");
                }
            }
        }
        assert_eq!(kinds.len(), 7, "every recipe kind is lowered by some scenario: {kinds:?}");
    }

    #[test]
    fn disk_roundtrip_and_corruption_errors() {
        let trace = TrafficGen::lower(&Scenario::steady(), 2);
        let path =
            std::env::temp_dir().join(format!("lnls-workload-trace-{}.trc", std::process::id()));
        trace.save(&path).expect("save");
        let back = Trace::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace);

        assert!(Trace::from_bytes(b"garbage!").is_err(), "bad magic must be refused");
        let mut truncated = trace.to_bytes();
        truncated.truncate(truncated.len() - 3);
        assert!(Trace::from_bytes(&truncated).is_err(), "truncation must be refused");
        let mut trailing = trace.to_bytes();
        trailing.push(0);
        assert!(Trace::from_bytes(&trailing).is_err(), "trailing bytes must be refused");
    }
}
