//! The refinement fan-out: a [`RoundExplorer`] that runs each round's
//! evaluations on shard worker processes.
//!
//! Scheduling stays in `memstream_refine`; this explorer only changes
//! *where* cells are evaluated. Each round it ships the round's **new
//! rates only** (round 1: the full axis) as a [`GridRecipe`] rate-axis
//! override, fans the resulting sub-grid out with
//! [`explore_sharded`], and then assembles the round's results locally
//! from the merged cache — a pure-hit pass, so the refined output is
//! byte-identical to the single-process path.

use memstream_grid::{GridExecutor, ResultCache, ScenarioGrid};
use memstream_refine::{RoundExploration, RoundExplorer};
use memstream_units::BitRate;

use crate::coordinator::{explore_sharded, ShardError, ShardOptions, ShardRun};
use crate::recipe::GridRecipe;

/// A round explorer fanning each refinement round out to shard workers.
///
/// The reported per-round `hits`/`misses` are the shard deltas: cells of
/// the round's fan-out sub-grid the coordinator already held versus
/// cells shipped to workers. A fully warm round therefore reports `0
/// misses` — and spawns no processes at all.
#[derive(Debug)]
pub struct ShardedRoundExplorer {
    recipe: GridRecipe,
    opts: ShardOptions,
    executor: GridExecutor,
    rounds: Vec<ShardRun>,
}

impl ShardedRoundExplorer {
    /// An explorer fanning rounds of `recipe`'s grid out under `opts`,
    /// assembling each round's results locally on `executor`.
    #[must_use]
    pub fn new(recipe: GridRecipe, opts: ShardOptions, executor: GridExecutor) -> Self {
        ShardedRoundExplorer {
            recipe,
            opts,
            executor,
            rounds: Vec::new(),
        }
    }

    /// The per-round fan-out records accumulated so far (one per explored
    /// round, including a failed final round).
    #[must_use]
    pub fn rounds(&self) -> &[ShardRun] {
        &self.rounds
    }
}

impl RoundExplorer for ShardedRoundExplorer {
    type Error = ShardError;

    fn explore_round(
        &mut self,
        grid: &ScenarioGrid,
        appended: &[BitRate],
        cache: &mut ResultCache,
    ) -> Result<RoundExploration, ShardError> {
        // Round 1 ships the whole (canonicalized) axis; later rounds ship
        // only the rates new to the round — everything else is already in
        // the cache by construction of the refinement loop.
        let axis = if appended.is_empty() {
            grid.rates().to_vec()
        } else {
            appended.to_vec()
        };
        let recipe = self.recipe.clone().with_rate_axis(axis);
        let run = explore_sharded(&recipe, cache, &self.opts);
        let (hits, misses) = (run.cached, run.fanned_out);
        let complete = run.is_complete();
        let failures = run.failures.clone();
        self.rounds.push(run);
        if !complete {
            return Err(ShardError::Workers(failures));
        }
        // Local assembly over the round's full grid: pure cache hits.
        let results = self.executor.explore_cached(grid, cache)?;
        Ok(RoundExploration {
            results,
            hits,
            misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memstream_refine::{RefineConfig, RefinementEngine};

    /// An in-process stand-in for the worker fan-out: rounds delegate to
    /// the sharded explorer's *accounting* path while a sibling explorer
    /// — plain `explore_cached` — produces the reference trajectory.
    /// (True process fan-out is covered by the harness CLI tests, which
    /// own a spawnable binary.)
    #[test]
    fn sharded_accounting_matches_the_schedule_shape() {
        // Run the reference refinement; then re-run against the warm
        // cache through a ShardedRoundExplorer with an unspawnable
        // program: every round must be fully warm (0 misses, no spawn),
        // and the outcome byte-comparable to the reference.
        let grid = memstream_grid::ScenarioGrid::paper_classic(6);
        let engine = RefinementEngine::new(
            GridExecutor::serial(),
            RefineConfig::default()
                .with_width_bound(0.1)
                .with_max_rounds(3),
        );
        let mut cache = ResultCache::new();
        let reference = engine.refine(&grid, Some(&mut cache)).expect("reference");

        let mut sharded = ShardedRoundExplorer::new(
            GridRecipe::classic(6),
            ShardOptions::new(std::path::PathBuf::from("/nonexistent/worker"), 3),
            GridExecutor::serial(),
        );
        let outcome = engine
            .refine_with(&grid, Some(&mut cache), &mut sharded)
            .expect("warm sharded refinement");

        assert_eq!(outcome.report.knees, reference.report.knees);
        assert_eq!(outcome.report.total_misses(), 0);
        assert_eq!(outcome.report.rounds.len(), reference.report.rounds.len());
        assert_eq!(sharded.rounds().len(), outcome.report.rounds.len());
        for run in sharded.rounds() {
            assert_eq!(run.workers_spawned, 0, "warm rounds must not spawn");
        }
        assert_eq!(
            memstream_refine::report::refine_stdout(&outcome),
            memstream_refine::report::refine_stdout(&reference),
            "sharded warm stdout must equal the single-process bytes"
        );
    }

    #[cfg(unix)]
    #[test]
    fn failed_round_surfaces_the_ledger() {
        let grid = memstream_grid::ScenarioGrid::paper_classic(4);
        let engine = RefinementEngine::new(GridExecutor::serial(), RefineConfig::default());
        let mut sharded = ShardedRoundExplorer::new(
            GridRecipe::classic(4),
            ShardOptions {
                shards: 2,
                worker_threads: 1,
                program: std::path::PathBuf::from("/bin/sh"),
                leading_args: vec!["-c".to_owned(), "exit 3".to_owned(), "w".to_owned()],
                metrics: memstream_grid::Metrics::disabled(),
                trace: false,
                lease_cells: 0,
                lease_deadline: std::time::Duration::from_secs(30),
                fault_plans: Vec::new(),
            },
            GridExecutor::serial(),
        );
        let err = engine
            .refine_with(&grid, None, &mut sharded)
            .expect_err("dead workers must fail the round");
        match err {
            ShardError::Workers(ledger) => assert_eq!(ledger.len(), 2),
            other => panic!("expected worker ledger, got {other}"),
        }
    }
}
