//! # lnls-core — the local-search framework
//!
//! The "general model for local search algorithms" of Luong, Melab &
//! Talbi (LSPP @ IPDPS 2010, Fig. 1): at each iteration the full
//! neighborhood of the current solution is generated and evaluated, the
//! best candidate replaces it, and the process repeats until a stopping
//! criterion fires.
//!
//! The crate separates three concerns:
//!
//! * **Problems** ([`BinaryProblem`], [`IncrementalEval`]): pseudo-Boolean
//!   minimization with cheap neighbor deltas;
//! * **Exploration backends** ([`Explorer`]): where the neighborhood gets
//!   evaluated — one CPU thread, all CPU cores, or the simulated GPU
//!   (`lnls-ppp::PppGpuExplorer`);
//! * **Drivers**: [`TabuSearch`] (the paper's algorithm), plus the other
//!   classics its introduction lists — [`HillClimbing`],
//!   [`SimulatedAnnealing`], [`IteratedLocalSearch`],
//!   [`VariableNeighborhoodSearch`] — the shake-based [`GeneralVns`],
//!   and the ParadisEO-style white-box layer in [`peo`] (continuators,
//!   observers, pluggable acceptance), per the paper's §V integration
//!   plan.
//!
//! ```
//! use lnls_core::prelude::*;
//! use lnls_neighborhood::{KHamming, Neighborhood};
//!
//! // A toy problem: minimize the number of zero bits.
//! # use lnls_core::problem::{BinaryProblem, IncrementalEval};
//! # use lnls_neighborhood::FlipMove;
//! struct ZeroCount(usize);
//! impl BinaryProblem for ZeroCount {
//!     fn dim(&self) -> usize { self.0 }
//!     fn evaluate(&self, s: &BitString) -> i64 { self.0 as i64 - s.count_ones() as i64 }
//!     fn target_fitness(&self) -> Option<i64> { Some(0) }
//! }
//! impl IncrementalEval for ZeroCount {
//!     type State = i64;
//!     fn init_state(&self, s: &BitString) -> i64 { self.evaluate(s) }
//!     fn state_fitness(&self, st: &i64) -> i64 { *st }
//!     fn neighbor_fitness(&self, st: &mut i64, s: &BitString, mv: &FlipMove) -> i64 {
//!         mv.bits().iter().fold(*st, |f, &b| f + if s.get(b as usize) { 1 } else { -1 })
//!     }
//!     fn apply_move(&self, st: &mut i64, s: &BitString, mv: &FlipMove) {
//!         // `neighbor_fitness` is logically const, so the state can be
//!         // advanced by evaluating the committed move in place.
//!         *st = self.neighbor_fitness(st, s, mv);
//!     }
//! }
//!
//! let problem = ZeroCount(24);
//! let hood = KHamming::new(24, 2);
//! let mut explorer = SequentialExplorer::new(hood);
//! let search = TabuSearch::paper(SearchConfig::budget(500), hood.size());
//! let result = search.run(&problem, &mut explorer, BitString::zeros(24));
//! assert_eq!(result.best_fitness, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anneal;
pub mod batch;
pub mod bitstring;
pub mod cursor;
pub mod explore;
pub mod gvns;
pub mod hillclimb;
pub mod ils;
pub mod multistart;
pub mod peo;
pub mod persist;
pub mod problem;
pub mod report;
pub mod search;
pub mod tabu;
pub mod vns;

pub use anneal::{AnnealCursor, SimulatedAnnealing};
pub use batch::{BatchLane, BatchedExplorer, LaneProfile, SpanPricing};
pub use bitstring::{zobrist_table, BitString};
pub use cursor::{DynCursor, ProblemCursor, SearchCursor};
pub use explore::{unrank_device, Explorer, ParallelCpuExplorer, SequentialExplorer};
pub use gvns::GeneralVns;
pub use hillclimb::{descend_in_place, HillClimbing, Pivot};
pub use ils::IteratedLocalSearch;
pub use multistart::MultiStart;
pub use persist::{Persist, PersistError, PersistTag, Reader};
pub use problem::{eval_each_move, BinaryProblem, IncrementalEval};
pub use report::{fmt_seconds, TableRow};
pub use search::{SearchConfig, SearchResult, StopReason};
pub use tabu::{TabuCursor, TabuSearch, TabuStrategy};
pub use vns::VariableNeighborhoodSearch;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use crate::bitstring::BitString;
    pub use crate::explore::{Explorer, ParallelCpuExplorer, SequentialExplorer};
    pub use crate::hillclimb::HillClimbing;
    pub use crate::problem::{BinaryProblem, IncrementalEval};
    pub use crate::report::TableRow;
    pub use crate::search::{SearchConfig, SearchResult};
    pub use crate::tabu::{TabuSearch, TabuStrategy};
}
