//! Disk persistence for [`FleetCheckpoint`]: a hand-rolled byte format
//! (no serde in the offline environment) so fleets survive process
//! restarts.
//!
//! ## Format
//!
//! An 8-byte magic (`LNLSFLT` + version), the scheduler config and the
//! device specs, then the **body** a delta segment writes (see
//! [`delta`](crate::delta)), written against an empty chain: the
//! scheduler scalars and device ledgers, the queue and active layouts
//! as job ids, every live job's payload, every live job's metadata and
//! the whole result log. A base snapshot is exactly these bytes, and
//! [`FleetCheckpoint::from_bytes`] replays them as a chain of one
//! segment, so a checkpoint passes the checks every chain segment
//! passes. Values go through the [`lnls_core::persist`] codec. Jobs are
//! type-erased in memory, so each one is written as a **tag** (its
//! [`PersistTag`]-derived registry key) plus a length-prefixed payload;
//! loading looks the tag up in a [`JobRegistry`] to find the concrete
//! decoder. The registry is explicit because Rust cannot conjure a
//! monomorphized `Exec<TabuWalk<P, N>>` from bytes alone — the host
//! process must say which `(problem, neighborhood)` pairs it was built
//! with, exactly like it had to in order to submit them.
//!
//! The completed reports come last, as one checksummed **result-log
//! section**: the record count, one `(id, fate, length)` header per
//! record, the byte count and the record bytes, then a 64-bit checksum
//! over all of those. Each record is one report, encoded once when its
//! job retired. [`FleetCheckpoint::from_bytes`] verifies the checksum
//! and the headers and indexes the records without decoding a report;
//! a report decodes when something first reads it. A delta segment's
//! section holds only the records since the previous segment.
//!
//! [`JobRegistry::with_builtin`] pre-registers every combination the
//! workspace ships (QAP robust tabu; tabu *and* annealing jobs for
//! OneMax, PPP and Max-Cut over `KHamming`; LNS
//! destroy-and-repair and portfolio races over Knapsack, Max-3-Sat and
//! QUBO); custom workloads add
//! themselves with [`JobRegistry::register`], keyed by their
//! [`JobCodec`] implementation — the same trait family submission
//! flows through.

use crate::delta::{write_body, ChainState, CheckpointError, Written};
use crate::exec::JobExec;
use crate::job::{AnnealJob, BinaryJob, JobId, JobOutcome, JobReport, QapJobSpec};
use crate::lns::{LnsJob, PortfolioJob};
use crate::scheduler::FleetCheckpoint;
use crate::submit::JobCodec;
use crate::{PlacePolicy, SchedulerConfig};
use lnls_core::persist::{write_atomic, Persist, PersistError, Reader};
use lnls_gpu_sim::DeviceSpec;
use lnls_neighborhood::KHamming;
use lnls_ppp::Ppp;
use lnls_problems::{Knapsack, MaxCut, MaxSat, OneMax, Qubo};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Magic prefix of a base segment and a saved checkpoint (`LNLSFLT` +
/// format version).
pub(crate) const MAGIC: &[u8; 8] = b"LNLSFLT\x0a";

type Loader = fn(&mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError>;

/// Maps persisted job tags back to concrete decoders (see the
/// module docs above).
pub struct JobRegistry {
    loaders: BTreeMap<String, Loader>,
}

impl JobRegistry {
    /// An empty registry that can only decode QAP jobs (they are fully
    /// concrete; no type parameters to resolve).
    pub fn new() -> Self {
        let mut reg = Self { loaders: BTreeMap::new() };
        reg.register::<QapJobSpec>();
        reg
    }

    /// A registry pre-loaded with every job type the workspace bundles.
    pub fn with_builtin() -> Self {
        let mut reg = Self::new();
        reg.register::<BinaryJob<OneMax, KHamming>>();
        reg.register::<BinaryJob<Ppp, KHamming>>();
        reg.register::<BinaryJob<MaxCut, KHamming>>();
        reg.register::<AnnealJob<OneMax, KHamming>>();
        reg.register::<AnnealJob<Ppp, KHamming>>();
        reg.register::<AnnealJob<MaxCut, KHamming>>();
        reg.register::<LnsJob<Knapsack>>();
        reg.register::<LnsJob<MaxSat>>();
        reg.register::<LnsJob<Qubo>>();
        reg.register::<PortfolioJob<Knapsack>>();
        reg.register::<PortfolioJob<MaxSat>>();
        reg.register::<PortfolioJob<Qubo>>();
        reg
    }

    /// Register a job type by its [`JobCodec`]. Submission and
    /// persistence flow through the same trait family, so one
    /// registration covers a workload end to end — `BinaryJob`,
    /// `QapJobSpec`, `AnnealJob`, or anything external.
    ///
    /// # Panics
    /// Panics if the tag is already registered: two decoders under one
    /// tag means the later one would silently shadow the earlier, and
    /// which jobs decode correctly would depend on registration order.
    /// Tags must be globally unique (e.g. `"lns/knapsack"`).
    pub fn register<J: JobCodec>(&mut self) {
        let tag = J::registry_tag();
        assert!(
            self.loaders.insert(tag.clone(), J::decode as Loader).is_none(),
            "job tag '{tag}' is already registered; a second decoder would \
             silently shadow the first"
        );
    }

    pub(crate) fn decode_job(&self, r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        let tag: String = r.read()?;
        let payload: Vec<u8> = r.read()?;
        let loader = self
            .loaders
            .get(&tag)
            .ok_or_else(|| PersistError::new(format!("unregistered job tag '{tag}'")))?;
        let mut pr = Reader::new(&payload);
        let job = loader(&mut pr)?;
        if pr.remaining() != 0 {
            return Err(PersistError::new(format!(
                "job '{tag}' payload has {} trailing bytes",
                pr.remaining()
            )));
        }
        Ok(job)
    }
}

impl Default for JobRegistry {
    fn default() -> Self {
        Self::with_builtin()
    }
}

pub(crate) fn encode_job(job: &dyn JobExec, out: &mut Vec<u8>) {
    job.persist_tag().write(out);
    let mut payload = Vec::new();
    job.persist(&mut payload);
    payload.write(out);
}

/// Lay `items` out as the `Vec` holding them would be, without
/// collecting one.
pub(crate) fn write_seq<'a, T: Persist + 'a>(
    items: impl ExactSizeIterator<Item = &'a T>,
    out: &mut Vec<u8>,
) {
    items.len().write(out);
    for item in items {
        item.write(out);
    }
}

/// The checksum of a result-log section and of an epoch file's frame
/// (see [`delta`](crate::delta)). Each part is read as little-endian
/// words, the last one zero-padded, dealt in turn to four independent
/// lanes so the multiplies pipeline; each part's length, then the four
/// lanes, fold into the sum. Every step is a bijection of its state for a fixed
/// word, so corruption confined to one word always changes the sum.
pub(crate) fn checksum(parts: &[&[u8]]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(31);
    let mut lanes = [K, !K, K.rotate_left(32), !K.rotate_left(32)];
    let mut h = K;
    for part in parts {
        let mut blocks = part.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = step(*lane, u64::from_le_bytes(w.try_into().expect("an 8-byte word")));
            }
        }
        for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
            let mut padded = [0u8; 8];
            padded[..w.len()].copy_from_slice(w);
            *lane = step(*lane, u64::from_le_bytes(padded));
        }
        h = step(h, part.len() as u64);
    }
    for lane in lanes {
        h = step(h, lane);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// A base segment's header: the magic, the config and the device specs.
/// The body follows it.
pub(crate) fn write_header<'a>(
    cfg: &SchedulerConfig,
    specs: impl ExactSizeIterator<Item = &'a DeviceSpec>,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(MAGIC);
    write_cfg(cfg, out);
    write_seq(specs, out);
}

/// Decode what [`write_header`] wrote.
pub(crate) fn read_header(
    r: &mut Reader<'_>,
) -> Result<(SchedulerConfig, Vec<DeviceSpec>), PersistError> {
    r.expect_magic(MAGIC, "fleet checkpoint")?;
    Ok((read_cfg(r)?, r.read()?))
}

fn write_cfg(cfg: &SchedulerConfig, out: &mut Vec<u8>) {
    let policy: u8 = match cfg.policy {
        PlacePolicy::RoundRobin => 0,
        PlacePolicy::LeastLoaded => 1,
    };
    policy.write(out);
    cfg.cpu_workers.write(out);
    cfg.max_batch.write(out);
    cfg.host.write(out);
    cfg.quantum_iters.write(out);
    cfg.telemetry_every_ticks.write(out);
    cfg.telemetry_max_samples.write(out);
    cfg.selection.write(out);
    cfg.span_iters.write(out);
    cfg.launch_mode.write(out);
    cfg.id_base.write(out);
}

/// Decode a [`SchedulerConfig`], refusing the knob values
/// [`Scheduler::new`](crate::Scheduler::new) asserts against, so a
/// corrupted config is a typed error naming the field rather than a
/// panic at restore.
fn read_cfg(r: &mut Reader<'_>) -> Result<SchedulerConfig, PersistError> {
    let policy = match u8::read(r)? {
        0 => PlacePolicy::RoundRobin,
        1 => PlacePolicy::LeastLoaded,
        b => return Err(PersistError::new(format!("bad placement policy {b}"))),
    };
    let cfg = SchedulerConfig {
        policy,
        cpu_workers: r.read()?,
        max_batch: r.read()?,
        host: r.read()?,
        quantum_iters: r.read()?,
        telemetry_every_ticks: r.read()?,
        telemetry_max_samples: r.read()?,
        selection: r.read()?,
        span_iters: r.read()?,
        launch_mode: r.read()?,
        id_base: r.read()?,
    };
    let bad = if cfg.max_batch == 0 {
        Some("max_batch = 0")
    } else if cfg.quantum_iters == Some(0) {
        Some("quantum_iters = Some(0)")
    } else if cfg.span_iters == 0 {
        Some("span_iters = 0")
    } else {
        None
    };
    match bad {
        Some(field) => Err(PersistError::new(format!("bad scheduler config: {field}"))),
        None => Ok(cfg),
    }
}

/// Outcomes persist as the generic record plus a tagged detail: the
/// bundled detail types round-trip losslessly; an unknown (external)
/// detail degrades to the record alone — the fitness/iteration numbers
/// survive, the typed payload does not.
fn write_outcome(outcome: &JobOutcome, out: &mut Vec<u8>) {
    if let Some(res) = outcome.as_binary() {
        0u8.write(out);
        res.write(out);
    } else if let Some(res) = outcome.as_qap() {
        1u8.write(out);
        res.write(out);
    } else if let Some(race) = outcome.detail::<lnls_lns::PortfolioOutcome>() {
        3u8.write(out);
        outcome.best_fitness().write(out);
        outcome.iterations().write(out);
        outcome.success().write(out);
        race.write(out);
    } else {
        2u8.write(out);
        outcome.best_fitness().write(out);
        outcome.iterations().write(out);
        outcome.success().write(out);
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Result<JobOutcome, PersistError> {
    Ok(match u8::read(r)? {
        0 => JobOutcome::binary(r.read()?),
        1 => JobOutcome::qap(r.read()?),
        2 => {
            let best_fitness: i64 = r.read()?;
            let iterations: u64 = r.read()?;
            let success: bool = r.read()?;
            JobOutcome::new(best_fitness, iterations, success)
        }
        3 => {
            let best_fitness: i64 = r.read()?;
            let iterations: u64 = r.read()?;
            let success: bool = r.read()?;
            let race: lnls_lns::PortfolioOutcome = r.read()?;
            JobOutcome::with_detail(best_fitness, iterations, success, race)
        }
        b => return Err(PersistError::new(format!("bad outcome tag {b}"))),
    })
}

pub(crate) fn write_report(report: &JobReport, out: &mut Vec<u8>) {
    report.id.0.write(out);
    report.name.write(out);
    report.tenant.write(out);
    report.backend.write(out);
    report.submitted_s.write(out);
    report.started_s.write(out);
    report.finished_s.write(out);
    report.fused_iterations.write(out);
    report.cancelled.write(out);
    report.rejected.write(out);
    write_outcome(&report.outcome, out);
}

pub(crate) fn read_report(r: &mut Reader<'_>) -> Result<JobReport, PersistError> {
    Ok(JobReport {
        id: JobId(r.read::<u64>()?),
        name: r.read()?,
        tenant: r.read()?,
        backend: r.read()?,
        submitted_s: r.read()?,
        started_s: r.read()?,
        finished_s: r.read()?,
        fused_iterations: r.read()?,
        cancelled: r.read()?,
        rejected: r.read()?,
        outcome: read_outcome(r)?,
    })
}

impl FleetCheckpoint {
    /// Encode the whole snapshot into bytes (see the module docs
    /// for the format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&self.state.cfg, self.specs.iter(), &mut out);
        write_body(&self.state, self.device_books.iter(), &mut Written::default(), &mut out);
        out
    }

    /// Decode a snapshot produced by [`to_bytes`](Self::to_bytes),
    /// resolving job tags through `registry`.
    pub fn from_bytes(bytes: &[u8], registry: &JobRegistry) -> Result<Self, PersistError> {
        ChainState::base(bytes, registry).map(ChainState::into_checkpoint)
    }

    /// Write the snapshot to `path` (atomically enough for a checkpoint:
    /// temp file + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Read a snapshot written by [`save`](Self::save), resolving job
    /// tags through `registry`.
    ///
    /// Failures come back as a typed [`CheckpointError`] naming the
    /// offending segment: a vanished file is
    /// [`MissingBase`](CheckpointError::MissingBase), a truncated or
    /// garbled one is
    /// [`CorruptSegment`](CheckpointError::CorruptSegment) carrying the
    /// file name and the decoder's diagnosis — so a broken delta chain
    /// (see [`CheckpointStore`](crate::CheckpointStore)) tells the
    /// operator *which* segment to restore from backup instead of a
    /// generic decode failure.
    pub fn load(path: impl AsRef<Path>, registry: &JobRegistry) -> Result<Self, CheckpointError> {
        ChainState::load_base(path.as_ref(), registry).map(ChainState::into_checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use lnls_core::{BinaryProblem, BitString, SearchConfig, SimulatedAnnealing, TabuSearch};
    use lnls_gpu_sim::MultiDevice;
    use lnls_lns::{LnsSearch, PortfolioSearch};
    use lnls_neighborhood::Neighborhood;
    use lnls_ppp::PppInstance;
    use lnls_qap::{Permutation, QapInstance, RtsConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// One small job of every tag [`JobRegistry::with_builtin`] decodes
    /// on a one-device, one-CPU-worker fleet: checkpointed after 1, 3
    /// and 7 ticks, decoded with the builtin registry, restored and run
    /// to idle, each lands on the uninterrupted run's report.
    #[test]
    fn every_builtin_tag_resumes_onto_the_uninterrupted_run() {
        fn put<J: JobCodec>(fleet: &mut Scheduler, tags: &mut BTreeSet<String>, job: J) {
            assert_eq!(job.persist_tag(), J::registry_tag());
            tags.insert(J::registry_tag());
            fleet.submit(job);
        }
        fn tabu<P>(fleet: &mut Scheduler, tags: &mut BTreeSet<String>, seed: u64, p: P)
        where
            BinaryJob<P, KHamming>: JobCodec,
            P: BinaryProblem,
        {
            let n = p.dim();
            let hood = KHamming::new(n, 2);
            let cfg = SearchConfig::budget(30).with_seed(seed).with_target(None);
            let init = BitString::random(&mut StdRng::seed_from_u64(seed), n);
            let search = TabuSearch::paper(cfg, hood.size());
            put(fleet, tags, BinaryJob::new(format!("tabu-{seed}"), p, hood, search, init));
        }
        fn anneal<P>(fleet: &mut Scheduler, tags: &mut BTreeSet<String>, seed: u64, p: P)
        where
            AnnealJob<P, KHamming>: JobCodec,
            P: BinaryProblem,
        {
            let n = p.dim();
            let cfg = SearchConfig::budget(60).with_seed(seed).with_target(None);
            let sa = SimulatedAnnealing::new(cfg, KHamming::new(n, 2), 1.5);
            let init = BitString::random(&mut StdRng::seed_from_u64(seed), n);
            put(fleet, tags, AnnealJob::new(format!("sa-{seed}"), p, sa, init));
        }
        let build = |tags: &mut BTreeSet<String>| {
            let mut fleet = Scheduler::new(
                MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
                SchedulerConfig { cpu_workers: 1, quantum_iters: Some(4), ..Default::default() },
            );
            let rng = &mut StdRng::seed_from_u64(11);
            let n = 12;
            tabu(&mut fleet, tags, 1, OneMax::new(n));
            tabu(&mut fleet, tags, 2, Ppp::new(PppInstance::generate(n, n, 2)));
            tabu(&mut fleet, tags, 3, MaxCut::random(rng, n, 0.35, 5));
            anneal(&mut fleet, tags, 4, OneMax::new(n));
            anneal(&mut fleet, tags, 5, Ppp::new(PppInstance::generate(n, n, 5)));
            anneal(&mut fleet, tags, 6, MaxCut::random(rng, n, 0.35, 5));
            let cfg = |seed| SearchConfig::budget(6).with_seed(seed).with_target(None);
            let init = BitString::random(rng, n);
            let knapsack = Knapsack::random(rng, n, 10, 6);
            let maxsat = MaxSat::random(rng, n, 4 * n);
            let qubo = Qubo::random(rng, n, 7, 0.5);
            let lns = |seed| LnsSearch::paper(cfg(seed));
            put(&mut fleet, tags, LnsJob::new("lns-7", knapsack.clone(), lns(7), init.clone()));
            put(&mut fleet, tags, LnsJob::new("lns-8", maxsat.clone(), lns(8), init.clone()));
            put(&mut fleet, tags, LnsJob::new("lns-9", qubo.clone(), lns(9), init.clone()));
            let race = |seed| PortfolioSearch::paper(cfg(seed));
            put(&mut fleet, tags, PortfolioJob::new("race-10", knapsack, race(10), init.clone()));
            put(&mut fleet, tags, PortfolioJob::new("race-11", maxsat, race(11), init.clone()));
            put(&mut fleet, tags, PortfolioJob::new("race-12", qubo, race(12), init));
            let (inst, perm) = (QapInstance::random_uniform(rng, 8), Permutation::random(rng, 8));
            let rts = RtsConfig::budget(40).with_seed(13);
            put(&mut fleet, tags, QapJobSpec::new("qap-13", inst, rts, perm));
            fleet
        };
        let mut tags = BTreeSet::new();
        let mut straight = build(&mut tags);
        let registry = JobRegistry::with_builtin();
        assert_eq!(tags, registry.loaders.keys().cloned().collect(), "one job per builtin tag");
        straight.run_until_idle();
        let want = format!("{:?}", straight.fleet_report());
        for ticks in [1, 3, 7] {
            let mut fleet = build(&mut BTreeSet::new());
            for _ in 0..ticks {
                fleet.tick();
            }
            let checkpoint = fleet.checkpoint();
            assert!(checkpoint.pending_jobs() > 0, "captured mid-run at tick {ticks}");
            let revived = FleetCheckpoint::from_bytes(&checkpoint.to_bytes(), &registry)
                .unwrap_or_else(|e| panic!("tick {ticks}: {e}"));
            let mut resumed = Scheduler::restore(revived);
            resumed.run_until_idle();
            assert_eq!(format!("{:?}", resumed.fleet_report()), want, "restored at tick {ticks}");
        }
    }

    /// Corrupted configs and backend shapes decode to a typed error
    /// naming the bad value, never to a panic (`cpu_workers` near the
    /// top of `usize` used to overflow the backend count, and a fleet
    /// without a device used to panic in `Scheduler::restore`) or to a
    /// config `Scheduler::new` refuses.
    #[test]
    fn corrupted_configs_are_typed_errors() {
        type Corrupt = fn(&mut FleetCheckpoint);
        let cases: [(Corrupt, &str); 5] = [
            (|c| c.state.cfg.cpu_workers = usize::MAX, "backend counts"),
            (|c| c.state.cfg.max_batch = 0, "max_batch"),
            (|c| c.state.cfg.quantum_iters = Some(0), "quantum_iters"),
            (|c| c.state.cfg.span_iters = 0, "span_iters"),
            (
                |c| {
                    c.specs.clear();
                    c.device_books.clear();
                    c.state.active.clear();
                    c.state.clocks.clear();
                },
                "no device",
            ),
        ];
        for (corrupt, names) in cases {
            let fleet =
                Scheduler::with_uniform_fleet(1, DeviceSpec::gtx280(), SchedulerConfig::default());
            let mut checkpoint = fleet.checkpoint();
            corrupt(&mut checkpoint);
            match FleetCheckpoint::from_bytes(&checkpoint.to_bytes(), &JobRegistry::new()) {
                Err(e) => assert!(e.to_string().contains(names), "{e}"),
                Ok(_) => panic!("a corrupted checkpoint ({names}) must not decode"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_tag_registration_is_rejected() {
        let mut reg = JobRegistry::new();
        // QapJobSpec is already in `new()`; a second registration would
        // silently shadow the first decoder.
        reg.register::<QapJobSpec>();
    }

    #[test]
    fn builtin_registry_rejects_unknown_tags_with_the_tag_name() {
        let reg = JobRegistry::with_builtin();
        let mut bytes = Vec::new();
        "no/such-job".to_string().write(&mut bytes);
        Vec::<u8>::new().write(&mut bytes);
        let err = match reg.decode_job(&mut Reader::new(&bytes)) {
            Err(e) => e,
            Ok(_) => panic!("unknown tag must not decode"),
        };
        assert!(err.to_string().contains("no/such-job"), "{err}");
    }
}
