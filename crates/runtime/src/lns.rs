//! Walks for the `lnls-lns` cursor families: destroy-and-repair jobs
//! ([`LnsJob`]) and portfolio races ([`PortfolioJob`]). Both run in the
//! shared executor shell ([`Exec`]), so this module holds only their
//! walks, pricing, outcomes and payload bodies.
//!
//! Neither family fuses with *other* tenants (both keep the default
//! `None` batch key): each job is its own fused batch, and rounds of
//! different jobs have unrelated freed sets, so there is nothing
//! coherent to fuse across tenants. A destroy-and-repair round repairs
//! `L` lanes of the freed sub-problem in lockstep, so the walk prices
//! every round as one multi-lane stream span of `inner_iters` fused
//! repair launches through [`charge_span`] — the paper's
//! launch-amortization argument applied *inside* a single tenant. A
//! portfolio round advances three heterogeneous lanes (tabu, annealing,
//! shaken descent) whose per-iteration shapes differ wildly; the walk
//! prices one span per leader window (the leader is constant between
//! reallocation boundaries) with a kernel chain entry per lane
//! sub-step, which is exactly the stress test the heterogeneous-lane
//! batcher needed.

use crate::exec::{charge_span, Exec, JobExec, StepRun, Walk};
use crate::job::JobOutcome;
use crate::submit::{JobCodec, SearchJob, SubmitCtx};
use lnls_core::persist::{Persist, PersistError, PersistTag, Reader};
use lnls_core::{BitString, DynCursor, IncrementalEval, LaneProfile, ProblemCursor};
use lnls_gpu_sim::{Device, DeviceSpec, HostSpec, LaneIo, LaunchMode};
use lnls_lns::{LnsCursor, LnsSearch, PortfolioCursor, PortfolioSearch};
use lnls_neighborhood::Neighborhood;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Destroy-and-repair jobs
// ---------------------------------------------------------------------

/// A destroy-and-repair large-neighborhood-search job, submitted via the
/// generic [`Scheduler::submit`](crate::Scheduler::submit).
///
/// One scheduler iteration is one LNS round (destroy → multi-lane
/// repair → accept/reject); the repair lanes are priced as one fused
/// multi-lane stream span per round, sized by the adaptive destroy
/// radius. Reports through [`SearchResult`](lnls_core::SearchResult),
/// so [`JobOutcome::as_binary`] works.
pub struct LnsJob<P> {
    /// Submission name (reports only).
    pub name: String,
    /// The problem instance (moved into the scheduler).
    pub problem: P,
    /// Driver configuration (budget, seed, lanes, destroy op, radius).
    pub search: LnsSearch,
    /// Initial solution — explicit so fleet runs are bit-comparable to
    /// solo runs.
    pub init: BitString,
    /// Larger runs first when the queue is contended (0 = bulk).
    pub priority: u8,
    /// Per-repair-pass incremental-state upload, bytes (pricing input);
    /// defaults to `4·dim` like [`BinaryJob`](crate::BinaryJob).
    pub state_h2d_bytes: Option<u64>,
    /// How the per-round repair span charges launch overhead
    /// (pricing-only; results identical either way).
    pub launch_mode: LaunchMode,
}

impl<P> LnsJob<P> {
    /// A job with default priority, pricing hints and per-iteration
    /// launches.
    pub fn new(name: impl Into<String>, problem: P, search: LnsSearch, init: BitString) -> Self {
        Self {
            name: name.into(),
            problem,
            search,
            init,
            priority: 0,
            state_h2d_bytes: None,
            launch_mode: LaunchMode::PerIteration,
        }
    }

    /// Set the queue priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Override the per-pass state-upload pricing hint.
    pub fn with_state_bytes(mut self, bytes: u64) -> Self {
        self.state_h2d_bytes = Some(bytes);
        self
    }

    /// Price repair spans under `mode` (e.g. persistent-kernel
    /// residency).
    pub fn with_launch_mode(mut self, mode: LaunchMode) -> Self {
        self.launch_mode = mode;
        self
    }
}

impl<P> SearchJob for LnsJob<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> u8 {
        self.priority
    }

    fn persist_tag(&self) -> String {
        LnsWalk::<P>::tag()
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        Box::new(LnsWalk::exec(&ctx, *self))
    }
}

impl<P> JobCodec for LnsJob<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn registry_tag() -> String {
        LnsWalk::<P>::tag()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        Exec::<LnsWalk<P>>::decode(r)
    }
}

/// Walk of an [`LnsJob`]: an [`LnsCursor`] stepped round by round, each
/// round priced as one fused multi-lane repair span.
pub(crate) struct LnsWalk<P: IncrementalEval> {
    state_h2d_bytes: u64,
    host: HostSpec,
    launch_mode: LaunchMode,
    /// Accumulated launch-per-pass solo cost of the rounds executed so
    /// far — the serialized-fleet baseline contribution (the freed-set
    /// size varies round to round, so this cannot be reconstructed from
    /// the final state).
    serial_s: f64,
    walk: ProblemCursor<P, LnsCursor<P>>,
}

impl<P> LnsWalk<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn exec(ctx: &SubmitCtx, spec: LnsJob<P>) -> Exec<Self> {
        let cursor = spec.search.cursor(&spec.problem, spec.init);
        let walk = Self {
            state_h2d_bytes: spec.state_h2d_bytes.unwrap_or(4 * spec.problem.dim() as u64),
            host: ctx.host.clone(),
            launch_mode: spec.launch_mode,
            serial_s: 0.0,
            walk: ProblemCursor::new(Arc::new(spec.problem), cursor),
        };
        Exec::new(ctx, spec.name, spec.priority, walk)
    }

    /// One repair lane's per-pass shape for the *next* round: `m` freed
    /// single-flip candidates, re-evaluated incrementally.
    fn profile(&self, spec: &DeviceSpec) -> LaneProfile {
        LaneProfile::incremental_eval(
            spec,
            &self.host,
            self.walk.cursor().planned_free_count() as u64,
            1,
            self.walk.problem().dim(),
            self.state_h2d_bytes,
        )
    }
}

impl<P> Walk for LnsWalk<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn tag() -> String {
        format!("lns/{}", P::TAG)
    }

    fn done(&self) -> bool {
        self.walk.is_done()
    }

    fn iterations(&self) -> u64 {
        self.walk.iterations()
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        // Step up to `quota` rounds, pricing each round as one fused
        // multi-lane span of `inner_iters` repair launches.
        let spec = dev.spec().clone();
        let lanes_n = self.walk.cursor().lanes();
        let inner = self.walk.cursor().inner_iters();
        let mut run = StepRun::default();
        while run.iters < quota && !self.walk.is_done() {
            // The radius (and therefore the freed-set size) is only
            // known round by round — capture the shape before stepping.
            let prof = self.profile(&spec);
            if self.walk.step(1) == 0 {
                break;
            }
            let lanes =
                vec![LaneIo { h2d_bytes: prof.h2d_bytes, d2h_bytes: prof.d2h_bytes }; lanes_n];
            // One fused kernel per repair pass covers all lanes (work is
            // additive across the fused grid).
            let kernel_s = prof.kernel_seconds * lanes_n as f64;
            let host_s = prof.host_seconds * lanes_n as f64 * inner as f64;
            let span = charge_span(dev, &lanes, &[kernel_s], host_s, inner, self.launch_mode);
            self.serial_s += prof.solo_seconds(&spec) * (lanes_n as u64 * inner) as f64;
            run.absorb(1, span);
        }
        run
    }

    fn step_host(&mut self, _host: &HostSpec, quota: u64) -> StepRun {
        // Host repairs run the same passes serially; `profile` folds the
        // executor's host model in (reference device irrelevant).
        let ref_spec = DeviceSpec::gtx280();
        let lanes_n = self.walk.cursor().lanes();
        let inner = self.walk.cursor().inner_iters();
        let mut run = StepRun::default();
        while run.iters < quota && !self.walk.is_done() {
            let prof = self.profile(&ref_spec);
            if self.walk.step(1) == 0 {
                break;
            }
            let seconds = prof.host_seconds * (lanes_n as u64 * inner) as f64;
            self.serial_s += seconds;
            run.iters += 1;
            run.seconds += seconds;
            run.serialized_s += seconds;
        }
        run
    }

    fn serial_equivalent_s(&self, _spec: &DeviceSpec) -> f64 {
        self.serial_s
    }

    fn outcome(&self, _backend: &str) -> JobOutcome {
        JobOutcome::binary(self.walk.cursor().clone().into_result(std::time::Duration::ZERO))
    }

    fn fork(&self) -> Self {
        Self {
            state_h2d_bytes: self.state_h2d_bytes,
            host: self.host.clone(),
            launch_mode: self.launch_mode,
            serial_s: self.serial_s,
            walk: self.walk.clone(),
        }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        self.state_h2d_bytes.write(out);
        self.host.write(out);
        self.launch_mode.write(out);
        self.serial_s.write(out);
        self.walk.problem().write(out);
        self.walk.cursor().persist(out);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let state_h2d_bytes = r.read()?;
        let host = r.read()?;
        let launch_mode = r.read()?;
        let serial_s = r.read()?;
        let problem: P = r.read()?;
        let cursor = LnsCursor::read_persisted(r, &problem)?;
        let walk = ProblemCursor::new(Arc::new(problem), cursor);
        Ok(Self { state_h2d_bytes, host, launch_mode, serial_s, walk })
    }
}

// ---------------------------------------------------------------------
// Portfolio-race jobs
// ---------------------------------------------------------------------

/// A portfolio-race job — tabu vs. simulated annealing vs. shaken
/// descent on one instance — submitted via the generic
/// [`Scheduler::submit`](crate::Scheduler::submit).
///
/// One scheduler iteration is one race round. The three heterogeneous
/// lanes are priced as one fused stream span per leader window, and the
/// finished job attaches a
/// [`PortfolioOutcome`](lnls_lns::PortfolioOutcome) detail
/// ([`JobOutcome::detail`]) reporting where the iteration budget went.
pub struct PortfolioJob<P> {
    /// Submission name (reports only).
    pub name: String,
    /// The problem instance (moved into the scheduler).
    pub problem: P,
    /// Driver configuration (budget, seed, reallocation quantum, boost).
    pub search: PortfolioSearch,
    /// Initial solution — explicit so fleet runs are bit-comparable to
    /// solo runs.
    pub init: BitString,
    /// Larger runs first when the queue is contended (0 = bulk).
    pub priority: u8,
    /// Per-sub-step incremental-state upload, bytes (pricing input);
    /// defaults to `4·dim` like [`BinaryJob`](crate::BinaryJob).
    pub state_h2d_bytes: Option<u64>,
    /// How leader-window spans charge launch overhead (pricing-only).
    pub launch_mode: LaunchMode,
}

impl<P> PortfolioJob<P> {
    /// A job with default priority, pricing hints and per-iteration
    /// launches.
    pub fn new(
        name: impl Into<String>,
        problem: P,
        search: PortfolioSearch,
        init: BitString,
    ) -> Self {
        Self {
            name: name.into(),
            problem,
            search,
            init,
            priority: 0,
            state_h2d_bytes: None,
            launch_mode: LaunchMode::PerIteration,
        }
    }

    /// Set the queue priority (higher runs first).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Override the per-sub-step state-upload pricing hint.
    pub fn with_state_bytes(mut self, bytes: u64) -> Self {
        self.state_h2d_bytes = Some(bytes);
        self
    }

    /// Price leader-window spans under `mode`.
    pub fn with_launch_mode(mut self, mode: LaunchMode) -> Self {
        self.launch_mode = mode;
        self
    }
}

impl<P> SearchJob for PortfolioJob<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> u8 {
        self.priority
    }

    fn persist_tag(&self) -> String {
        PortfolioWalk::<P>::tag()
    }

    fn into_exec(self: Box<Self>, ctx: SubmitCtx) -> Box<dyn JobExec> {
        Box::new(PortfolioWalk::exec(&ctx, *self))
    }
}

impl<P> JobCodec for PortfolioJob<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn registry_tag() -> String {
        PortfolioWalk::<P>::tag()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Box<dyn JobExec>, PersistError> {
        Exec::<PortfolioWalk<P>>::decode(r)
    }
}

/// Walk of a [`PortfolioJob`]: a [`PortfolioCursor`] stepped round by
/// round, priced one heterogeneous-lane span per leader window.
pub(crate) struct PortfolioWalk<P: IncrementalEval> {
    state_h2d_bytes: u64,
    host: HostSpec,
    launch_mode: LaunchMode,
    /// Accumulated solo cost of the sub-steps executed so far (the
    /// leader schedule varies, so this cannot be reconstructed from the
    /// final state).
    serial_s: f64,
    walk: ProblemCursor<P, PortfolioCursor<P>>,
}

impl<P> PortfolioWalk<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn exec(ctx: &SubmitCtx, spec: PortfolioJob<P>) -> Exec<Self> {
        let cursor = spec.search.cursor(&spec.problem, spec.init);
        let walk = Self {
            state_h2d_bytes: spec.state_h2d_bytes.unwrap_or(4 * spec.problem.dim() as u64),
            host: ctx.host.clone(),
            launch_mode: spec.launch_mode,
            serial_s: 0.0,
            walk: ProblemCursor::new(Arc::new(spec.problem), cursor),
        };
        Exec::new(ctx, spec.name, spec.priority, walk)
    }

    /// The three lanes' per-sub-step shapes: full-neighborhood tabu
    /// scan, one sampled annealing move, whole-string greedy descent.
    fn profiles(&self, spec: &DeviceSpec) -> [LaneProfile; 3] {
        let cursor = self.walk.cursor();
        let dim = self.walk.problem().dim();
        let hood = cursor.hood();
        [
            LaneProfile::incremental_eval(
                spec,
                &self.host,
                hood.size(),
                hood.k(),
                dim,
                self.state_h2d_bytes,
            ),
            LaneProfile::incremental_eval(spec, &self.host, 1, hood.k(), dim, self.state_h2d_bytes),
            LaneProfile::incremental_eval(
                spec,
                &self.host,
                dim as u64,
                1,
                dim,
                self.state_h2d_bytes,
            ),
        ]
    }

    /// Sub-steps lane `lane` runs per round under `leader`.
    fn substeps(&self, lane: usize, leader: usize) -> u64 {
        if lane == leader {
            self.walk.cursor().boost()
        } else {
            1
        }
    }
}

impl<P> Walk for PortfolioWalk<P>
where
    P: IncrementalEval + Persist + PersistTag + Send + Sync + 'static,
{
    fn tag() -> String {
        format!("portfolio/{}", P::TAG)
    }

    fn done(&self) -> bool {
        self.walk.is_done()
    }

    fn iterations(&self) -> u64 {
        self.walk.iterations()
    }

    fn step_device(&mut self, dev: &mut Device, quota: u64) -> StepRun {
        // Step up to `quota` rounds; each leader window (the leader is
        // constant between reallocation boundaries) is priced as one fused
        // heterogeneous-lane span with one kernel-chain entry per lane
        // sub-step.
        let spec = dev.spec().clone();
        let mut run = StepRun::default();
        while run.iters < quota && !self.walk.is_done() {
            let leader = self.walk.cursor().leader();
            let realloc = self.walk.cursor().realloc_every();
            let window = realloc - self.walk.iterations() % realloc;
            let profs = self.profiles(&spec);
            let lanes: Vec<LaneIo> = profs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let s = self.substeps(i, leader);
                    LaneIo { h2d_bytes: p.h2d_bytes * s, d2h_bytes: p.d2h_bytes * s }
                })
                .collect();
            let kernels: Vec<f64> = profs
                .iter()
                .enumerate()
                .flat_map(|(i, p)| {
                    std::iter::repeat_n(p.kernel_seconds, self.substeps(i, leader) as usize)
                })
                .collect();
            let ran = self.walk.step(window.min(quota - run.iters));
            if ran == 0 {
                break;
            }
            let n = ran as f64;
            let host_one: f64 = profs
                .iter()
                .enumerate()
                .map(|(i, p)| p.host_seconds * self.substeps(i, leader) as f64)
                .sum();
            let span = charge_span(dev, &lanes, &kernels, host_one * n, ran, self.launch_mode);
            self.serial_s += profs
                .iter()
                .enumerate()
                .map(|(i, p)| p.solo_seconds(&spec) * self.substeps(i, leader) as f64)
                .sum::<f64>()
                * n;
            run.absorb(ran, span);
        }
        run
    }

    fn step_host(&mut self, _host: &HostSpec, quota: u64) -> StepRun {
        let ref_spec = DeviceSpec::gtx280();
        let mut run = StepRun::default();
        while run.iters < quota && !self.walk.is_done() {
            let leader = self.walk.cursor().leader();
            let profs = self.profiles(&ref_spec);
            if self.walk.step(1) == 0 {
                break;
            }
            let seconds: f64 = profs
                .iter()
                .enumerate()
                .map(|(i, p)| p.host_seconds * self.substeps(i, leader) as f64)
                .sum();
            self.serial_s += seconds;
            run.iters += 1;
            run.seconds += seconds;
            run.serialized_s += seconds;
        }
        run
    }

    fn serial_equivalent_s(&self, _spec: &DeviceSpec) -> f64 {
        self.serial_s
    }

    fn outcome(&self, _backend: &str) -> JobOutcome {
        let outcome = self.walk.cursor().outcome();
        let result = self.walk.cursor().clone().into_result(std::time::Duration::ZERO);
        JobOutcome::with_detail(result.best_fitness, result.iterations, result.success, outcome)
    }

    fn fork(&self) -> Self {
        Self {
            state_h2d_bytes: self.state_h2d_bytes,
            host: self.host.clone(),
            launch_mode: self.launch_mode,
            serial_s: self.serial_s,
            walk: self.walk.clone(),
        }
    }

    fn write_body(&self, out: &mut Vec<u8>) {
        self.state_h2d_bytes.write(out);
        self.host.write(out);
        self.launch_mode.write(out);
        self.serial_s.write(out);
        self.walk.problem().write(out);
        self.walk.cursor().persist(out);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let state_h2d_bytes = r.read()?;
        let host = r.read()?;
        let launch_mode = r.read()?;
        let serial_s = r.read()?;
        let problem: P = r.read()?;
        let cursor = PortfolioCursor::read_persisted(r, &problem)?;
        let walk = ProblemCursor::new(Arc::new(problem), cursor);
        Ok(Self { state_h2d_bytes, host, launch_mode, serial_s, walk })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetCheckpoint, JobRegistry, Scheduler, SchedulerConfig};
    use lnls_core::{SearchConfig, SearchCursor};
    use lnls_problems::{Knapsack, MaxSat, Qubo};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lns_search(rounds: u64, seed: u64) -> LnsSearch {
        LnsSearch::paper(SearchConfig::budget(rounds).with_seed(seed).with_target(None))
    }

    fn portfolio_search(rounds: u64, seed: u64) -> PortfolioSearch {
        PortfolioSearch::paper(SearchConfig::budget(rounds).with_seed(seed).with_target(None))
    }

    fn knap_lns(i: u64, rounds: u64) -> LnsJob<Knapsack> {
        let mut rng = StdRng::seed_from_u64(i);
        let problem = Knapsack::random(&mut rng, 24, 9, 5);
        let init = BitString::random(&mut rng, 24);
        LnsJob::new(format!("lns-{i}"), problem, lns_search(rounds, i), init)
    }

    fn qubo_portfolio(i: u64, rounds: u64) -> PortfolioJob<Qubo> {
        let mut rng = StdRng::seed_from_u64(i);
        let problem = Qubo::random(&mut rng, 20, 7, 0.5);
        let init = BitString::random(&mut rng, 20);
        PortfolioJob::new(format!("race-{i}"), problem, portfolio_search(rounds, i), init)
    }

    #[test]
    fn fleet_lns_results_match_solo_runs() {
        let mut fleet = Scheduler::with_uniform_fleet(
            2,
            lnls_gpu_sim::DeviceSpec::gtx280(),
            SchedulerConfig { quantum_iters: Some(3), ..Default::default() },
        );
        let handles: Vec<_> = (0..4).map(|i| fleet.submit(knap_lns(i, 25))).collect();
        fleet.run_until_idle();
        for (i, h) in handles.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let problem = Knapsack::random(&mut rng, 24, 9, 5);
            let init = BitString::random(&mut rng, 24);
            let want = lns_search(25, i as u64).run(&problem, init);
            let got = fleet.report(*h).expect("done");
            let got = got.outcome.as_binary().expect("lns reports SearchResult");
            assert_eq!(got.best, want.best, "job {i}");
            assert_eq!(got.best_fitness, want.best_fitness, "job {i}");
            assert_eq!(got.iterations, want.iterations, "job {i}");
            assert_eq!(got.evals, want.evals, "job {i}");
        }
        let report = fleet.fleet_report();
        assert!(report.spans > 0, "every round prices one fused span");
    }

    #[test]
    fn fleet_portfolio_matches_solo_and_reports_reallocation() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            lnls_gpu_sim::DeviceSpec::gtx280(),
            SchedulerConfig { quantum_iters: Some(5), ..Default::default() },
        );
        let h = fleet.submit(qubo_portfolio(3, 48));
        fleet.run_until_idle();
        let mut rng = StdRng::seed_from_u64(3);
        let problem = Qubo::random(&mut rng, 20, 7, 0.5);
        let init = BitString::random(&mut rng, 20);
        let mut solo = portfolio_search(48, 3).cursor(&problem, init);
        solo.step_batch(&problem, u64::MAX);
        let report = fleet.report(h).expect("done");
        let detail: &lnls_lns::PortfolioOutcome =
            report.outcome.detail().expect("portfolio attaches its race outcome");
        assert_eq!(*detail, solo.outcome(), "fleet race must equal the solo race");
        assert_eq!(report.outcome.best_fitness(), solo.best());
        let total: u64 = detail.lane_iterations.iter().sum();
        let max_lane = *detail.lane_iterations.iter().max().expect("lanes");
        assert!(
            max_lane > total / 3,
            "the boost must concentrate budget on the leading lane: {:?}",
            detail.lane_iterations
        );
    }

    #[test]
    fn lns_and_portfolio_survive_checkpoint_bytes_mid_run() {
        let build = || {
            let mut fleet = Scheduler::with_uniform_fleet(
                1,
                lnls_gpu_sim::DeviceSpec::gtx280(),
                SchedulerConfig { quantum_iters: Some(4), ..Default::default() },
            );
            fleet.submit(knap_lns(7, 30));
            fleet.submit(qubo_portfolio(8, 40));
            fleet
        };
        let mut straight = build();
        straight.run_until_idle();

        let mut fleet = build();
        for _ in 0..3 {
            fleet.tick();
        }
        let bytes = fleet.checkpoint().to_bytes();
        drop(fleet);
        let registry = JobRegistry::with_builtin();
        let revived = FleetCheckpoint::from_bytes(&bytes, &registry).expect("both tags registered");
        let mut resumed = Scheduler::restore(revived);
        resumed.run_until_idle();

        for (ra, rb) in straight.reports().zip(resumed.reports()) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.outcome.best_fitness(), rb.outcome.best_fitness(), "{}", ra.name);
            assert_eq!(ra.outcome.iterations(), rb.outcome.iterations(), "{}", ra.name);
        }
        let a = straight.fleet_report();
        let b = resumed.fleet_report();
        assert!((a.makespan_s - b.makespan_s).abs() < 1e-9, "{} vs {}", a.makespan_s, b.makespan_s);
    }

    #[test]
    fn builtin_registry_knows_all_six_new_tags() {
        let mut fleet = Scheduler::with_uniform_fleet(
            1,
            lnls_gpu_sim::DeviceSpec::gtx280(),
            SchedulerConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let sat = MaxSat::random(&mut rng, 12, 40);
        let qubo = Qubo::random(&mut rng, 12, 5, 0.5);
        let knap = Knapsack::random(&mut rng, 12, 8, 4);
        let init = BitString::random(&mut rng, 12);
        fleet.submit(LnsJob::new("a", sat.clone(), lns_search(6, 1), init.clone()));
        fleet.submit(LnsJob::new("b", qubo.clone(), lns_search(6, 2), init.clone()));
        fleet.submit(LnsJob::new("c", knap.clone(), lns_search(6, 3), init.clone()));
        fleet.submit(PortfolioJob::new("d", sat, portfolio_search(6, 4), init.clone()));
        fleet.submit(PortfolioJob::new("e", qubo, portfolio_search(6, 5), init.clone()));
        fleet.submit(PortfolioJob::new("f", knap, portfolio_search(6, 6), init));
        fleet.tick();
        let bytes = fleet.checkpoint().to_bytes();
        let registry = JobRegistry::with_builtin();
        let revived =
            FleetCheckpoint::from_bytes(&bytes, &registry).expect("all six tags registered");
        let mut resumed = Scheduler::restore(revived);
        resumed.run_until_idle();
        assert_eq!(resumed.fleet_report().jobs_completed, 6);
    }
}
