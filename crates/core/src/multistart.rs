//! Multi-start execution: the paper's experimental protocol ("a tabu
//! search was executed 50 times") as a first-class driver. Runs `tries`
//! independent searches from seeded random initial solutions and
//! aggregates them into a [`TableRow`].

use crate::bitstring::BitString;
use crate::explore::Explorer;
use crate::problem::IncrementalEval;
use crate::report::TableRow;
use crate::search::{SearchConfig, SearchResult};
use crate::tabu::TabuSearch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Repeated independent tabu runs with derived per-try seeds.
pub struct MultiStart {
    /// Template configuration; each try derives its own seed from
    /// `config.seed` and the try index.
    pub config: SearchConfig,
    /// Number of independent tries (the paper: 50).
    pub tries: usize,
}

impl MultiStart {
    /// `tries` runs derived from `config`.
    pub fn new(config: SearchConfig, tries: usize) -> Self {
        assert!(tries > 0, "need at least one try");
        Self { config, tries }
    }

    /// Per-try seed derivation (SplitMix-style, stable across releases).
    pub fn try_seed(&self, t: usize) -> u64 {
        let mut z = self.config.seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Run a paper-configured tabu search `tries` times through
    /// `make_explorer` (a fresh explorer per try keeps ledgers per-run).
    pub fn run_tabu<P, E, F>(&self, problem: &P, mut make_explorer: F) -> Vec<SearchResult>
    where
        P: IncrementalEval,
        E: Explorer<P>,
        F: FnMut() -> E,
    {
        let mut results = Vec::with_capacity(self.tries);
        for t in 0..self.tries {
            let seed = self.try_seed(t);
            let mut explorer = make_explorer();
            let search =
                TabuSearch::paper(SearchConfig { seed, ..self.config.clone() }, explorer.size());
            let mut rng = StdRng::seed_from_u64(seed);
            let init = BitString::random(&mut rng, problem.dim());
            results.push(search.run(problem, &mut explorer, init));
        }
        results
    }

    /// Run and aggregate in one step.
    pub fn run_tabu_aggregated<P, E, F>(
        &self,
        label: impl Into<String>,
        problem: &P,
        make_explorer: F,
    ) -> TableRow
    where
        P: IncrementalEval,
        E: Explorer<P>,
        F: FnMut() -> E,
    {
        TableRow::aggregate(label, &self.run_tabu(problem, make_explorer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::SequentialExplorer;
    use crate::problem::testutil::ZeroCount;
    use lnls_neighborhood::KHamming;

    #[test]
    fn runs_and_aggregates() {
        let p = ZeroCount { n: 24 };
        let ms = MultiStart::new(SearchConfig::budget(50).with_seed(3), 5);
        let row = ms
            .run_tabu_aggregated("zerocount", &p, || SequentialExplorer::new(KHamming::new(24, 1)));
        assert_eq!(row.tries, 5);
        assert_eq!(row.solutions, 5, "1-flip tabu solves zerocount every time");
        assert_eq!(row.mean_fitness, 0.0);
    }

    #[test]
    fn tries_use_distinct_seeds_and_are_deterministic() {
        let ms = MultiStart::new(SearchConfig::budget(10).with_seed(7), 4);
        let seeds: Vec<u64> = (0..4).map(|t| ms.try_seed(t)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "seeds collide: {seeds:?}");

        let p = ZeroCount { n: 16 };
        let run = || {
            let ms = MultiStart::new(SearchConfig::budget(8).with_seed(7), 3);
            ms.run_tabu(&p, || SequentialExplorer::new(KHamming::new(16, 1)))
                .iter()
                .map(|r| r.best_fitness)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one try")]
    fn zero_tries_rejected() {
        let _ = MultiStart::new(SearchConfig::budget(1), 0);
    }
}
