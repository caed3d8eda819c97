//! # lnls-ppp — the Permuted Perceptron Problem
//!
//! The application of Luong, Melab & Talbi (LSPP @ IPDPS 2010, §IV): an
//! NP-complete problem underlying Pointcheval's identification scheme.
//! Given an ε-matrix `A` (entries ±1, shape m×n) and a multiset `S` of
//! non-negative integers, find an ε-vector `V` with `{{(AV)_j}} = S`.
//!
//! This crate supplies everything the paper's experiments need:
//!
//! * [`PppInstance`] — Pointcheval-construction instances (the paper's
//!   73×73 … 101×117 plus the Fig. 8 ladder), text persistence;
//! * [`Ppp`] — the problem wrapped for `lnls-core` with the
//!   Knudsen–Meier objective ([`objective`]) and `O(m·k + n)` incremental
//!   evaluation ([`PppState`]);
//! * [`PppEvalKernel`] — the `MoveIncrEvalKernel` of Figs. 7/9/10 for the
//!   simulated GPU, with texture- or global-memory ε-matrix;
//! * [`PppGpuExplorer`] — the device-side exploration backend pluggable
//!   into [`lnls_core::TabuSearch`];
//! * [`crypto`] — a schematic identification protocol for the attack
//!   example.
//!
//! ```
//! use lnls_core::prelude::*;
//! use lnls_neighborhood::{KHamming, Neighborhood};
//! use lnls_ppp::{Ppp, PppInstance};
//!
//! let inst = PppInstance::generate(25, 25, 42);
//! let problem = Ppp::new(inst);
//! let hood = KHamming::new(25, 2);
//! let mut explorer = SequentialExplorer::new(hood);
//! let search = TabuSearch::paper(SearchConfig::budget(200).with_seed(1), hood.size());
//! let init = BitString::zeros(25);
//! let result = search.run(&problem, &mut explorer, init);
//! assert!(result.best_fitness >= 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod crypto;
pub mod gpu;
pub mod instance;
pub mod kernels;
pub mod kernels_shared;
pub mod matrix;
pub mod objective;
pub mod state;

pub use attack::{AttackOutcome, ConsensusAttack};
pub use gpu::{GpuExplorerConfig, PppGpuExplorer};
pub use instance::PppInstance;
pub use kernels::PppEvalKernel;
pub use kernels_shared::PppEvalKernelShared;
pub use matrix::EpsilonMatrix;
pub use state::{Ppp, PppState};
