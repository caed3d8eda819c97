//! White-box local-search composition in the style of ParadisEO's
//! "evolving objects" — the framework the paper's §V announces as the
//! integration target for its GPU concepts.
//!
//! ParadisEO separates a metaheuristic into small replaceable objects:
//! *continuators* (stopping criteria that can be combined), *observers*
//! (checkpoint hooks watching the run), and the move-acceptance policy.
//! This module provides those objects for the paper's Fig. 1 loop:
//! generate the full neighborhood, evaluate it (on any [`Explorer`]
//! backend, including the simulated GPU), select the best candidate,
//! accept or stop.
//!
//! ```
//! use lnls_core::peo::*;
//! use lnls_core::prelude::*;
//! use lnls_neighborhood::{KHamming, Neighborhood};
//! # use lnls_core::problem::{BinaryProblem, IncrementalEval};
//! # use lnls_neighborhood::FlipMove;
//! # struct ZeroCount(usize);
//! # impl BinaryProblem for ZeroCount {
//! #     fn dim(&self) -> usize { self.0 }
//! #     fn evaluate(&self, s: &BitString) -> i64 { self.0 as i64 - s.count_ones() as i64 }
//! #     fn target_fitness(&self) -> Option<i64> { Some(0) }
//! # }
//! # impl IncrementalEval for ZeroCount {
//! #     type State = i64;
//! #     fn init_state(&self, s: &BitString) -> i64 { self.evaluate(s) }
//! #     fn state_fitness(&self, st: &i64) -> i64 { *st }
//! #     fn neighbor_fitness(&self, st: &mut i64, s: &BitString, mv: &FlipMove) -> i64 {
//! #         mv.bits().iter().fold(*st, |f, &b| f + if s.get(b as usize) { 1 } else { -1 })
//! #     }
//! #     fn apply_move(&self, st: &mut i64, s: &BitString, mv: &FlipMove) {
//! #         *st = self.neighbor_fitness(&mut st.clone(), s, mv);
//! #     }
//! # }
//! let problem = ZeroCount(16);
//! let mut explorer = SequentialExplorer::new(KHamming::new(16, 2));
//! let mut trace = FitnessTrace::default();
//! let result = PeoSearch::new(Acceptance::Strict)
//!     .stop_when(MaxIterations(100))
//!     .stop_when(TargetFitness(0))
//!     .observe(&mut trace)
//!     .run(&problem, &mut explorer, BitString::zeros(16));
//! assert_eq!(result.best_fitness, 0);
//! assert_eq!(trace.best.len(), result.iterations as usize);
//! ```

use crate::bitstring::BitString;
use crate::explore::Explorer;
use crate::problem::IncrementalEval;
use crate::search::SearchResult;
use std::time::{Duration, Instant};

/// A snapshot of the run handed to continuators and observers after
/// every iteration.
#[derive(Clone, Debug)]
pub struct IterationStatus {
    /// Iterations completed so far (1-based by the time hooks see it).
    pub iteration: u64,
    /// Fitness of the *current* solution (may move uphill under
    /// [`Acceptance::Always`]).
    pub current_fitness: i64,
    /// Best fitness seen so far.
    pub best_fitness: i64,
    /// Neighbor evaluations so far.
    pub evals: u64,
    /// Wall-clock since the run started.
    pub elapsed: Duration,
}

/// A stopping criterion: `proceed` returns `true` while the run may
/// continue. Criteria compose — the driver stops as soon as *any*
/// registered continuator votes stop (ParadisEO's combined-continue
/// convention).
pub trait Continuator {
    /// Reset internal state at the start of a run.
    fn init(&mut self) {}
    /// `true` to continue, `false` to stop.
    fn proceed(&mut self, status: &IterationStatus) -> bool;
    /// Name for the stop-reason report.
    fn name(&self) -> String;
}

/// Stop after a fixed number of iterations.
pub struct MaxIterations(pub u64);

impl Continuator for MaxIterations {
    fn proceed(&mut self, status: &IterationStatus) -> bool {
        status.iteration < self.0
    }
    fn name(&self) -> String {
        format!("max-iterations({})", self.0)
    }
}

/// Stop once the best fitness reaches a target (≤).
pub struct TargetFitness(pub i64);

impl Continuator for TargetFitness {
    fn proceed(&mut self, status: &IterationStatus) -> bool {
        status.best_fitness > self.0
    }
    fn name(&self) -> String {
        format!("target-fitness({})", self.0)
    }
}

/// Stop after a wall-clock budget.
pub struct TimeBudget(pub Duration);

impl Continuator for TimeBudget {
    fn proceed(&mut self, status: &IterationStatus) -> bool {
        status.elapsed < self.0
    }
    fn name(&self) -> String {
        format!("time-budget({:?})", self.0)
    }
}

/// Stop after a total neighbor-evaluation budget (the honest way to
/// compare neighborhoods of different sizes, since one 3-Hamming
/// iteration costs ~n²/3 times a 1-Hamming one).
pub struct EvalBudget(pub u64);

impl Continuator for EvalBudget {
    fn proceed(&mut self, status: &IterationStatus) -> bool {
        status.evals < self.0
    }
    fn name(&self) -> String {
        format!("eval-budget({})", self.0)
    }
}

/// Stop when the best fitness has not improved for `window` consecutive
/// iterations (ParadisEO's steady-fitness continuator).
pub struct SteadyFitness {
    /// Width of the no-improvement window.
    pub window: u64,
    best_seen: i64,
    since: u64,
}

impl SteadyFitness {
    /// Stop after `window` iterations without improvement.
    pub fn new(window: u64) -> Self {
        Self { window, best_seen: i64::MAX, since: 0 }
    }
}

impl Continuator for SteadyFitness {
    fn init(&mut self) {
        self.best_seen = i64::MAX;
        self.since = 0;
    }
    fn proceed(&mut self, status: &IterationStatus) -> bool {
        if status.best_fitness < self.best_seen {
            self.best_seen = status.best_fitness;
            self.since = 0;
        } else {
            self.since += 1;
        }
        self.since < self.window
    }
    fn name(&self) -> String {
        format!("steady-fitness({})", self.window)
    }
}

/// A checkpoint hook observing the run (ParadisEO's `eoCheckPoint`
/// attachments). All methods default to no-ops so observers implement
/// only what they need.
pub trait Observer {
    /// Called once before the first iteration.
    fn on_start(&mut self, _initial_fitness: i64) {}
    /// Called after every completed iteration.
    fn on_iteration(&mut self, _status: &IterationStatus) {}
    /// Called once when the run stops, with the final result and the
    /// name of the continuator that fired (`None` = converged).
    fn on_finish(&mut self, _result: &SearchResult, _stopped_by: Option<&str>) {}
}

/// Records the best-so-far and current fitness after every iteration.
#[derive(Default, Debug)]
pub struct FitnessTrace {
    /// Best-so-far fitness per iteration.
    pub best: Vec<i64>,
    /// Current-solution fitness per iteration.
    pub current: Vec<i64>,
    /// Fitness of the initial solution.
    pub initial: Option<i64>,
}

impl Observer for FitnessTrace {
    fn on_start(&mut self, initial_fitness: i64) {
        self.initial = Some(initial_fitness);
        self.best.clear();
        self.current.clear();
    }
    fn on_iteration(&mut self, status: &IterationStatus) {
        self.best.push(status.best_fitness);
        self.current.push(status.current_fitness);
    }
}

/// Serializes per-iteration rows as CSV into an owned string buffer
/// (`iteration,current,best,evals,elapsed_s`).
#[derive(Default, Debug)]
pub struct CsvLogger {
    /// The accumulated CSV text, header included.
    pub buffer: String,
}

impl Observer for CsvLogger {
    fn on_start(&mut self, _initial_fitness: i64) {
        self.buffer = String::from("iteration,current,best,evals,elapsed_s\n");
    }
    fn on_iteration(&mut self, s: &IterationStatus) {
        use std::fmt::Write;
        let _ = writeln!(
            self.buffer,
            "{},{},{},{},{:.6}",
            s.iteration,
            s.current_fitness,
            s.best_fitness,
            s.evals,
            s.elapsed.as_secs_f64()
        );
    }
}

/// Counts callback invocations; useful for asserting hook wiring (and as
/// the smallest possible observer example).
#[derive(Default, Debug)]
pub struct HookCounter {
    /// `on_start` invocations.
    pub starts: usize,
    /// `on_iteration` invocations.
    pub iterations: usize,
    /// `on_finish` invocations.
    pub finishes: usize,
    /// Name of the continuator that stopped the last run.
    pub stopped_by: Option<String>,
}

impl Observer for HookCounter {
    fn on_start(&mut self, _: i64) {
        self.starts += 1;
    }
    fn on_iteration(&mut self, _: &IterationStatus) {
        self.iterations += 1;
    }
    fn on_finish(&mut self, _: &SearchResult, stopped_by: Option<&str>) {
        self.finishes += 1;
        self.stopped_by = stopped_by.map(str::to_owned);
    }
}

/// Move-acceptance policy for the Fig. 1 loop.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Acceptance {
    /// Accept only strictly improving best neighbors; stop (converged)
    /// at a local optimum — plain best-improvement hill climbing.
    Strict,
    /// Always move to the best neighbor, even uphill — the memory-less
    /// skeleton of the paper's tabu search.
    Always,
}

/// The composable Fig. 1 driver: explore-all / select-best / accept,
/// with pluggable continuators and observers.
///
/// Continuators are owned by the search (builder:
/// [`stop_when`](Self::stop_when)); observers are borrowed mutably for the duration
/// of [`run`](Self::run) so callers keep them afterwards.
pub struct PeoSearch<'obs> {
    acceptance: Acceptance,
    continuators: Vec<Box<dyn Continuator>>,
    observers: Vec<&'obs mut dyn Observer>,
}

impl<'obs> PeoSearch<'obs> {
    /// A driver with the given acceptance policy and no stopping
    /// criteria (add at least one with [`stop_when`](Self::stop_when)
    /// unless `Strict` acceptance is used, which stops on convergence).
    pub fn new(acceptance: Acceptance) -> Self {
        Self { acceptance, continuators: Vec::new(), observers: Vec::new() }
    }

    /// Register a stopping criterion (any criterion stopping stops the
    /// run).
    pub fn stop_when<C: Continuator + 'static>(mut self, c: C) -> Self {
        self.continuators.push(Box::new(c));
        self
    }

    /// Attach an observer for the next run.
    pub fn observe(mut self, obs: &'obs mut dyn Observer) -> Self {
        self.observers.push(obs);
        self
    }

    /// Run the loop from `init` on `explorer`.
    pub fn run<P: IncrementalEval>(
        mut self,
        problem: &P,
        explorer: &mut dyn Explorer<P>,
        init: BitString,
    ) -> SearchResult {
        let wall0 = Instant::now();
        let mut s = init;
        let mut state = problem.init_state(&s);
        let mut cur = problem.state_fitness(&state);
        let mut best = s.clone();
        let mut best_f = cur;
        let mut out = Vec::new();
        let mut iteration = 0u64;
        let mut evals = 0u64;
        let mut stopped_by: Option<String> = None;

        for c in &mut self.continuators {
            c.init();
        }
        for o in &mut self.observers {
            o.on_start(cur);
        }

        loop {
            // Ask every continuator *before* the next iteration.
            let status = IterationStatus {
                iteration,
                current_fitness: cur,
                best_fitness: best_f,
                evals,
                elapsed: wall0.elapsed(),
            };
            let mut fired: Option<String> = None;
            for c in self.continuators.iter_mut() {
                if !c.proceed(&status) {
                    fired = Some(c.name());
                    break;
                }
            }
            if let Some(name) = fired {
                stopped_by = Some(name);
                break;
            }

            explorer.explore(problem, &s, &mut state, &mut out);
            evals += out.len() as u64;
            let (best_idx, &best_neighbor) = out
                .iter()
                .enumerate()
                .min_by_key(|&(i, f)| (*f, i))
                .expect("non-empty neighborhood");

            if self.acceptance == Acceptance::Strict && best_neighbor >= cur {
                break; // converged: local optimum
            }

            let mv = explorer.unrank(best_idx as u64);
            problem.apply_move(&mut state, &s, &mv);
            s.apply(&mv);
            explorer.committed(problem, &s, &state, &mv);
            cur = best_neighbor;
            iteration += 1;
            if cur < best_f {
                best_f = cur;
                best = s.clone();
            }

            let status = IterationStatus {
                iteration,
                current_fitness: cur,
                best_fitness: best_f,
                evals,
                elapsed: wall0.elapsed(),
            };
            for o in &mut self.observers {
                o.on_iteration(&status);
            }
        }

        let result = SearchResult {
            best,
            best_fitness: best_f,
            iterations: iteration,
            success: problem.target_fitness().is_some_and(|t| best_f <= t),
            evals,
            wall: wall0.elapsed(),
            book: explorer.book(),
            backend: format!("peo/{}", explorer.backend()),
            history: None,
            trajectory: None,
        };
        for o in &mut self.observers {
            o.on_finish(&result, stopped_by.as_deref());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::SequentialExplorer;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::KHamming;

    fn problem_and_explorer(n: usize) -> (ZeroCount, SequentialExplorer<KHamming>) {
        (ZeroCount { n }, SequentialExplorer::new(KHamming::new(n, 1)))
    }

    #[test]
    fn strict_acceptance_descends_to_optimum() {
        let (p, mut ex) = problem_and_explorer(12);
        let r = PeoSearch::new(Acceptance::Strict).stop_when(MaxIterations(100)).run(
            &p,
            &mut ex,
            BitString::zeros(12),
        );
        assert_eq!(r.best_fitness, 0);
        assert_eq!(r.iterations, 12, "one bit fixed per iteration");
    }

    #[test]
    fn strict_stops_at_local_optimum_without_continuators() {
        let (p, mut ex) = problem_and_explorer(6);
        // Start at the optimum: must converge with zero iterations even
        // though no continuator was registered.
        let mut all_ones = BitString::zeros(6);
        for i in 0..6 {
            all_ones.flip(i);
        }
        let r = PeoSearch::new(Acceptance::Strict).run(&p, &mut ex, all_ones);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.best_fitness, 0);
    }

    #[test]
    fn max_iterations_fires_exactly() {
        let (p, mut ex) = problem_and_explorer(30);
        let mut hooks = HookCounter::default();
        let r = PeoSearch::new(Acceptance::Always)
            .stop_when(MaxIterations(5))
            .observe(&mut hooks)
            .run(&p, &mut ex, BitString::zeros(30));
        assert_eq!(r.iterations, 5);
        assert_eq!(hooks.iterations, 5);
        assert_eq!(hooks.starts, 1);
        assert_eq!(hooks.finishes, 1);
        assert_eq!(hooks.stopped_by.as_deref(), Some("max-iterations(5)"));
    }

    #[test]
    fn target_fitness_stops_early() {
        let (p, mut ex) = problem_and_explorer(20);
        let r = PeoSearch::new(Acceptance::Always)
            .stop_when(MaxIterations(1000))
            .stop_when(TargetFitness(10))
            .run(&p, &mut ex, BitString::zeros(20));
        assert_eq!(r.best_fitness, 10);
        assert_eq!(r.iterations, 10);
    }

    #[test]
    fn eval_budget_counts_neighborhood_size() {
        let n = 10; // 1-Hamming: 10 evals per iteration
        let p = ZeroCount { n };
        let mut ex = SequentialExplorer::new(KHamming::new(n, 1));
        let r = PeoSearch::new(Acceptance::Always).stop_when(EvalBudget(35)).run(
            &p,
            &mut ex,
            BitString::zeros(n),
        );
        // Iterations 1..4 hit 10,20,30,40 evals; the check happens
        // before each iteration, so the run stops entering iteration 4.
        assert_eq!(r.iterations, 4);
        assert_eq!(r.evals, 40);
    }

    #[test]
    fn steady_fitness_detects_stagnation() {
        // Always-accept on ZeroCount oscillates at the optimum: best
        // stops improving, so SteadyFitness(3) must fire.
        let (p, mut ex) = problem_and_explorer(8);
        let mut hooks = HookCounter::default();
        let r = PeoSearch::new(Acceptance::Always)
            .stop_when(SteadyFitness::new(3))
            .stop_when(MaxIterations(1000))
            .observe(&mut hooks)
            .run(&p, &mut ex, BitString::zeros(8));
        assert!(r.iterations < 1000);
        assert_eq!(hooks.stopped_by.as_deref(), Some("steady-fitness(3)"));
        assert_eq!(r.best_fitness, 0);
    }

    #[test]
    fn fitness_trace_records_every_iteration() {
        let (p, mut ex) = problem_and_explorer(10);
        let mut trace = FitnessTrace::default();
        let r = PeoSearch::new(Acceptance::Strict)
            .stop_when(MaxIterations(100))
            .observe(&mut trace)
            .run(&p, &mut ex, BitString::zeros(10));
        assert_eq!(trace.initial, Some(10));
        assert_eq!(trace.best.len(), r.iterations as usize);
        // Strict descent: strictly decreasing best fitness.
        assert!(trace.best.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn csv_logger_produces_parseable_rows() {
        let (p, mut ex) = problem_and_explorer(6);
        let mut csv = CsvLogger::default();
        let r = PeoSearch::new(Acceptance::Strict)
            .stop_when(MaxIterations(100))
            .observe(&mut csv)
            .run(&p, &mut ex, BitString::zeros(6));
        let lines: Vec<&str> = csv.buffer.lines().collect();
        assert_eq!(lines[0], "iteration,current,best,evals,elapsed_s");
        assert_eq!(lines.len() as u64, r.iterations + 1);
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), 5, "row {row:?}");
        }
    }

    #[test]
    fn multiple_observers_all_notified() {
        let (p, mut ex) = problem_and_explorer(9);
        let mut a = HookCounter::default();
        let mut b = HookCounter::default();
        let _ = PeoSearch::new(Acceptance::Strict)
            .stop_when(MaxIterations(100))
            .observe(&mut a)
            .observe(&mut b)
            .run(&p, &mut ex, BitString::zeros(9));
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.finishes, 1);
        assert_eq!(b.finishes, 1);
    }

    #[test]
    fn peo_matches_hillclimb_best_improvement() {
        // The Strict PeoSearch must land on the same local optimum as
        // the dedicated hill climber with best-improvement pivoting.
        use crate::hillclimb::HillClimbing;
        use crate::search::SearchConfig;
        let n = 16;
        let p = ZeroCount { n };
        let init = BitString::zeros(n);

        let mut ex1 = SequentialExplorer::new(KHamming::new(n, 2));
        let peo = PeoSearch::new(Acceptance::Strict).stop_when(MaxIterations(10_000)).run(
            &p,
            &mut ex1,
            init.clone(),
        );

        let mut ex2 = SequentialExplorer::new(KHamming::new(n, 2));
        let hc = HillClimbing::best(SearchConfig::budget(10_000));
        let r = hc.run(&p, &mut ex2, init);

        assert_eq!(peo.best_fitness, r.best_fitness);
        assert_eq!(peo.iterations, r.iterations);
    }
}
