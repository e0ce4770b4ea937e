//! The refinement control loop: explore → scan → bisect → re-explore.

use std::collections::BTreeSet;

use memstream_grid::{GridError, GridExecutor, GridResults, ResultCache, ScenarioGrid};
use memstream_units::BitRate;

use crate::config::RefineConfig;
use crate::scan::{scan_transitions, Transition};

/// The relative width of a bracketing interval: `hi / lo - 1`.
fn relative_width(lo: BitRate, hi: BitRate) -> f64 {
    hi.bits_per_second() / lo.bits_per_second() - 1.0
}

/// Sorts a rate axis ascending (total order, so even pathological floats
/// sort deterministically) and drops exact duplicates.
fn canonicalize_rates(rates: &mut Vec<BitRate>) {
    rates.sort_by(|a, b| a.bits_per_second().total_cmp(&b.bits_per_second()));
    rates.dedup();
}

/// The log-space midpoint of `(lo, hi)`, or `None` when `f64` resolution
/// cannot strictly separate it from both endpoints (the interval is
/// already as tight as the rate axis can express).
fn log_midpoint(lo: BitRate, hi: BitRate) -> Option<BitRate> {
    let mid = (lo.bits_per_second() * hi.bits_per_second()).sqrt();
    (mid > lo.bits_per_second() && mid < hi.bits_per_second())
        .then(|| BitRate::from_bits_per_second(mid))
}

/// One exploration round of a refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number; round 1 is the initial coarse exploration.
    pub round: usize,
    /// Length of the rate axis explored this round.
    pub rates: usize,
    /// The rates appended entering this round (empty for round 1), sorted
    /// ascending.
    pub appended: Vec<BitRate>,
    /// Region-label transitions found in this round's results.
    pub transitions: usize,
    /// Cells of the round's grid, each a distinct scenario.
    pub cells: usize,
    /// Cells of this round resolved without evaluation: cache hits (0
    /// without a cache), or for a sharded round, cells the coordinator
    /// already held — see [`RoundExploration`].
    pub hits: usize,
    /// Cells of this round freshly evaluated, wherever the explorer ran
    /// them (in-process or fanned out to shard workers).
    pub misses: usize,
}

/// One localised design-region transition: within its (device, workload,
/// goal) series the region label flips from [`Knee::from`] to
/// [`Knee::to`] somewhere inside `(lower, upper)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// Index into the refined grid's device axis.
    pub device: usize,
    /// Index into the refined grid's workload axis.
    pub workload: usize,
    /// Index into the refined grid's goal axis.
    pub goal: usize,
    /// Display name of the device entry.
    pub device_name: String,
    /// Display name of the workload profile.
    pub workload_name: String,
    /// Display form of the design goal.
    pub goal_label: String,
    /// Lower bracketing rate.
    pub lower: BitRate,
    /// Upper bracketing rate.
    pub upper: BitRate,
    /// Region label at (and below, within the bracket) the lower rate.
    pub from: &'static str,
    /// Region label at the upper rate.
    pub to: &'static str,
}

impl Knee {
    /// The bracket's relative width `upper / lower - 1`.
    #[must_use]
    pub fn relative_width(&self) -> f64 {
        relative_width(self.lower, self.upper)
    }

    /// Whether the knee counts as localised under `bound`: the bracket is
    /// within the bound, or it is already unsplittable at `f64` log-rate
    /// resolution.
    #[must_use]
    pub fn is_localized(&self, bound: f64) -> bool {
        self.relative_width() <= bound || log_midpoint(self.lower, self.upper).is_none()
    }
}

/// The full record of a refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementReport {
    /// The relative-width bound the run refined towards.
    pub width_bound: f64,
    /// Rate-axis length of the input grid (after sorting/deduplication).
    pub initial_rates: usize,
    /// Rate-axis length of the refined grid.
    pub final_rates: usize,
    /// Every exploration round, in order.
    pub rounds: Vec<RoundRecord>,
    /// Every transition of the refined grid, canonically ordered (device,
    /// workload, goal, rate).
    pub knees: Vec<Knee>,
}

impl RefinementReport {
    /// Whether every knee is localised to the width bound (or pinned at
    /// float resolution). `false` means a round or cell budget ran out
    /// first.
    #[must_use]
    pub fn fully_localized(&self) -> bool {
        self.knees.iter().all(|k| k.is_localized(self.width_bound))
    }

    /// The knees still wider than the bound (and still splittable).
    pub fn unresolved(&self) -> impl Iterator<Item = &Knee> {
        self.knees
            .iter()
            .filter(|k| !k.is_localized(self.width_bound))
    }

    /// Total cache misses (fresh evaluations) across all rounds.
    #[must_use]
    pub fn total_misses(&self) -> usize {
        self.rounds.iter().map(|r| r.misses).sum()
    }
}

/// What a refinement run returns: the refined grid's results plus the
/// run's report.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementOutcome {
    /// Results over the final, refined grid.
    pub results: GridResults,
    /// The refinement trajectory and the localised knees.
    pub report: RefinementReport,
}

/// What one round's exploration produced: the results over the round's
/// full grid plus the round's cache accounting, as observed by whoever
/// actually ran the evaluations.
///
/// [`RefinementEngine::refine`] fills it in process: without a cache
/// every cell is a miss, and with one `hits`/`misses` are the round's
/// deltas on the cache's counters. The shard fan-out (a
/// [`RoundExplorer`]) reports the same quantities from the coordinator's
/// perspective — cells it already held versus cells it fanned out to
/// workers — so "0 misses" means "nothing was evaluated anywhere" in
/// both worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundExploration {
    /// Results over the round's (full, extended) grid.
    pub results: GridResults,
    /// Cells of the round resolved without evaluation.
    pub hits: usize,
    /// Cells of the round freshly evaluated (anywhere).
    pub misses: usize,
}

/// The round fan-out seam of [`RefinementEngine::refine_with`]: how one
/// refinement round turns a grid and a cache into results. It serves the
/// multi-process shard fan-out (`memstream_shard::ShardedRoundExplorer`);
/// in-process rounds go through [`RefinementEngine::refine`].
///
/// The engine owns *scheduling* — which rates to append, when to stop —
/// and stays single-process; an explorer owns *evaluation* and may run it
/// anywhere (spawned shard workers, remote hosts), as long as every
/// resolved cell lands in `cache` so the next round starts warm.
/// `appended` carries the rates new to this round (empty for round 1): a
/// distributed explorer fans only those out, because every other cell is
/// already in the cache by construction.
pub trait RoundExplorer {
    /// The explorer's error type; engine-side grid errors pass through it.
    type Error: From<GridError>;

    /// Explores `grid` for one round, resolving every cell into `cache`.
    ///
    /// # Errors
    ///
    /// Explorer-specific; must at least cover [`GridError`].
    fn explore_round(
        &mut self,
        grid: &ScenarioGrid,
        appended: &[BitRate],
        cache: &mut ResultCache,
    ) -> Result<RoundExploration, Self::Error>;
}

/// The refinement engine: a [`GridExecutor`] plus a [`RefineConfig`],
/// both thread-count- and cache-state-independent in everything they
/// report (cache hit/miss *counts* excepted, which is their point).
#[derive(Debug, Clone)]
pub struct RefinementEngine {
    executor: GridExecutor,
    config: RefineConfig,
}

impl RefinementEngine {
    /// An engine running explorations on `executor` under `config`.
    #[must_use]
    pub fn new(executor: GridExecutor, config: RefineConfig) -> Self {
        RefinementEngine { executor, config }
    }

    /// Runs the refinement loop on `grid`.
    ///
    /// The grid's rate axis is sorted and deduplicated first (the scan
    /// needs adjacency to mean rate order); every other axis is taken as
    /// given. When `cache` is supplied, all rounds read and feed it, so
    /// rounds after the first evaluate only the appended rates, and
    /// re-running against the same cache file evaluates nothing and
    /// reproduces the same outcome byte-for-byte. Without one, each round
    /// evaluates its whole grid ([`GridExecutor::explore`]) and counts
    /// every cell as a miss: that measured cheaper than keying, looking
    /// up and encoding the old cells in a scratch cache.
    ///
    /// # Errors
    ///
    /// [`GridError::EmptyAxis`] if any axis of `grid` is empty.
    pub fn refine(
        &self,
        grid: &ScenarioGrid,
        cache: Option<&mut ResultCache>,
    ) -> Result<RefinementOutcome, GridError> {
        match cache {
            None => self.run_rounds(grid, |round, _| {
                let results = self.executor.explore(round)?;
                let misses = results.total_cells();
                Ok(RoundExploration {
                    results,
                    hits: 0,
                    misses,
                })
            }),
            Some(cache) => self.run_rounds(grid, |round, _| {
                let (hits, misses) = (cache.hits(), cache.misses());
                let results = self.executor.explore_cached(round, cache)?;
                Ok(RoundExploration {
                    results,
                    hits: cache.hits() - hits,
                    misses: cache.misses() - misses,
                })
            }),
        }
    }

    /// Runs the refinement loop on `grid`, delegating each round's
    /// evaluation to `explorer` — the seam the shard fan-out plugs into
    /// (see [`RoundExplorer`]). Scheduling, bisection and budgets stay
    /// here, so the trajectory is [`RefinementEngine::refine`]'s; only
    /// *where* cells get evaluated differs. An explorer resolves every
    /// cell into a cache, so without `cache` the rounds share a scratch
    /// in-memory one.
    ///
    /// # Errors
    ///
    /// Whatever `explorer` raises, which at least covers
    /// [`GridError::EmptyAxis`] for a grid with an empty axis.
    pub fn refine_with<X: RoundExplorer>(
        &self,
        grid: &ScenarioGrid,
        cache: Option<&mut ResultCache>,
        explorer: &mut X,
    ) -> Result<RefinementOutcome, X::Error> {
        let mut scratch = ResultCache::new();
        let cache = cache.unwrap_or(&mut scratch);
        self.run_rounds(grid, |round, appended| {
            explorer.explore_round(round, appended, cache)
        })
    }

    /// The one round loop: `explore(grid, appended)` explores a round's
    /// grid, then the loop scans it, bisects every flipped interval still
    /// wider than the bound and explores again, until nothing is left to
    /// bisect or a round/cell budget runs out.
    fn run_rounds<E>(
        &self,
        grid: &ScenarioGrid,
        mut explore: impl FnMut(&ScenarioGrid, &[BitRate]) -> Result<RoundExploration, E>,
    ) -> Result<RefinementOutcome, E> {
        // Refinement accounting is explorer-agnostic: it is driven off the
        // round records (which every exploration fills the same way), not
        // off a cache, so `refine.hits`/`refine.misses` mean the same
        // thing for uncached, cached and fanned-out rounds.
        let metrics = self.executor.metrics();
        let round_span = metrics.span("refine.round");
        let scan_span = metrics.span("refine.scan");
        let rounds_counter = metrics.counter("refine.rounds");
        let appended_counter = metrics.counter("refine.rates_appended");
        let bisections_counter = metrics.counter("refine.bisections");
        let hits_counter = metrics.counter("refine.hits");
        let misses_counter = metrics.counter("refine.misses");

        let mut rates: Vec<BitRate> = grid.rates().to_vec();
        canonicalize_rates(&mut rates);
        let initial_rates = rates.len();
        let cells_per_rate = grid.devices().len() * grid.workloads().len() * grid.goals().len();

        let mut working = grid.with_rate_axis(rates.iter().copied());
        let mut appended = Vec::new();
        let mut rounds: Vec<RoundRecord> = Vec::new();
        loop {
            let round_timer = round_span.start();
            let RoundExploration {
                results,
                hits,
                misses,
            } = explore(&working, &appended)?;
            let scan_timer = scan_span.start();
            let transitions = scan_transitions(&results);
            drop(scan_timer);
            drop(round_timer);
            rounds_counter.incr();
            appended_counter.add(appended.len() as u64);
            hits_counter.add(hits as u64);
            misses_counter.add(misses as u64);
            rounds.push(RoundRecord {
                round: rounds.len() + 1,
                rates: rates.len(),
                appended,
                transitions: transitions.len(),
                cells: results.total_cells(),
                hits,
                misses,
            });

            appended = if rounds.len() < self.config.max_rounds() {
                self.bisection_rates(&working, &transitions)
            } else {
                Vec::new()
            };
            if appended.is_empty()
                || (rates.len() + appended.len()) * cells_per_rate > self.config.max_cells()
            {
                let knees = assemble_knees(&working, &transitions);
                return Ok(RefinementOutcome {
                    results,
                    report: RefinementReport {
                        width_bound: self.config.width_bound(),
                        initial_rates,
                        final_rates: rates.len(),
                        rounds,
                        knees,
                    },
                });
            }
            bisections_counter.add(appended.len() as u64);
            rates.extend(appended.iter().copied());
            canonicalize_rates(&mut rates);
            working = working.with_rate_axis(rates.iter().copied());
        }
    }

    /// The log-midpoints of every flipped interval still wider than the
    /// bound. Intervals flipped by several series are bisected once (the
    /// rate axis is shared), and intervals `f64` cannot split any further
    /// are left alone.
    fn bisection_rates(&self, grid: &ScenarioGrid, transitions: &[Transition]) -> Vec<BitRate> {
        let rates = grid.rates();
        let mut intervals: BTreeSet<usize> = BTreeSet::new();
        for t in transitions {
            let (lo, hi) = (rates[t.lower_rate], rates[t.lower_rate + 1]);
            if relative_width(lo, hi) > self.config.width_bound() {
                intervals.insert(t.lower_rate);
            }
        }
        intervals
            .into_iter()
            .filter_map(|i| log_midpoint(rates[i], rates[i + 1]))
            .collect()
    }
}

/// Turns the final scan into named, rate-valued knees.
fn assemble_knees(grid: &ScenarioGrid, transitions: &[Transition]) -> Vec<Knee> {
    transitions
        .iter()
        .map(|t| Knee {
            device: t.device,
            workload: t.workload,
            goal: t.goal,
            device_name: grid.devices()[t.device].name().to_owned(),
            workload_name: grid.workloads()[t.workload].name().to_owned(),
            goal_label: grid.goals()[t.goal].to_string(),
            lower: grid.rates()[t.lower_rate],
            upper: grid.rates()[t.lower_rate + 1],
            from: t.from,
            to: t.to,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_midpoint_is_the_geometric_mean() {
        let mid =
            log_midpoint(BitRate::from_kbps(100.0), BitRate::from_kbps(400.0)).expect("splittable");
        assert!((mid.kilobits_per_second() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_intervals_are_unsplittable() {
        let r = BitRate::from_kbps(1024.0);
        assert_eq!(log_midpoint(r, r), None);
        // Adjacent f64 rates cannot be separated either.
        let up = BitRate::from_bits_per_second(r.bits_per_second().next_up());
        assert_eq!(log_midpoint(r, up), None);
    }

    #[test]
    fn relative_width_is_ratio_minus_one() {
        let w = relative_width(BitRate::from_kbps(100.0), BitRate::from_kbps(125.0));
        assert!((w - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_axes_error_out() {
        let engine = RefinementEngine::new(GridExecutor::serial(), RefineConfig::default());
        let err = engine.refine(&ScenarioGrid::new(), None).unwrap_err();
        assert_eq!(err, GridError::EmptyAxis { axis: "devices" });
    }
}
