//! A wire-encodable description of a reference grid.
//!
//! Worker processes cannot be handed a [`ScenarioGrid`] object — only
//! command-line arguments — so the coordinator and its workers agree on a
//! *recipe*: which reference registry (baseline or classic), how many
//! log-spaced rates, and optionally a replacement rate axis carried as
//! exact `f64` samples. Both sides build their grid from the same recipe
//! with the same constructors, so their canonical cell ranges (and
//! therefore the shard slices) are guaranteed to agree.

use memstream_grid::ScenarioGrid;
use memstream_units::BitRate;

/// The reference-grid recipe shared by the coordinator and its workers.
///
/// The recipe deliberately spans only the workspace's reference grids
/// (the same ones `harness grid` / `harness refine` explore): a wire
/// format can only carry what both ends can reconstruct. Library callers
/// sharding an arbitrary [`ScenarioGrid`] in-process can partition it
/// directly with [`crate::lease_chunks`] over
/// [`ScenarioGrid::unique_cells`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridRecipe {
    classic: bool,
    rates: usize,
    rate_axis: Option<Vec<BitRate>>,
}

impl GridRecipe {
    /// The flash-inclusive default grid
    /// ([`ScenarioGrid::paper_baseline`]) with `rates` log-spaced rates.
    ///
    /// # Panics
    ///
    /// Panics if `rates < 2`.
    #[must_use]
    pub fn baseline(rates: usize) -> Self {
        GridRecipe::reference(false, rates)
    }

    /// The paper-era four-device grid ([`ScenarioGrid::paper_classic`]).
    ///
    /// # Panics
    ///
    /// Panics if `rates < 2`.
    #[must_use]
    pub fn classic(rates: usize) -> Self {
        GridRecipe::reference(true, rates)
    }

    /// Either reference grid, selected by `classic`.
    ///
    /// # Panics
    ///
    /// Panics if `rates < 2`.
    #[must_use]
    pub fn reference(classic: bool, rates: usize) -> Self {
        assert!(rates >= 2, "reference grids need at least 2 rates");
        GridRecipe {
            classic,
            rates,
            rate_axis: None,
        }
    }

    /// The same recipe with the rate axis replaced by explicit samples
    /// (the refinement fan-out path: each round ships only the rates new
    /// to that round). Samples travel as exact `f64`s, so the rebuilt
    /// grid's dedup keys are byte-identical to the coordinator's.
    #[must_use]
    pub fn with_rate_axis(mut self, rates: impl IntoIterator<Item = BitRate>) -> Self {
        self.rate_axis = Some(rates.into_iter().collect());
        self
    }

    /// Whether the classic (paper-era) registry is selected.
    #[must_use]
    pub fn is_classic(&self) -> bool {
        self.classic
    }

    /// The log-spaced rate count of the base grid.
    #[must_use]
    pub fn rates(&self) -> usize {
        self.rates
    }

    /// The explicit replacement rate axis, if any.
    #[must_use]
    pub fn rate_axis(&self) -> Option<&[BitRate]> {
        self.rate_axis.as_deref()
    }

    /// Builds the described grid. Every process holding an equal recipe
    /// builds a grid with the same axes, cell order and dedup keys.
    #[must_use]
    pub fn build(&self) -> ScenarioGrid {
        let base = if self.classic {
            ScenarioGrid::paper_classic(self.rates)
        } else {
            ScenarioGrid::paper_baseline(self.rates)
        };
        match &self.rate_axis {
            Some(axis) => base.with_rate_axis(axis.iter().copied()),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_rebuild_identical_grids() {
        let a = GridRecipe::baseline(6).build();
        let b = GridRecipe::baseline(6).build();
        assert_eq!(a, b);
        let unique_a = a.unique_cells();
        for (ca, cb) in unique_a.iter().zip(b.unique_cells()) {
            assert_eq!(a.dedup_key(ca), b.dedup_key(&cb));
        }
    }

    #[test]
    fn rate_axis_override_travels_exactly() {
        let axis = [BitRate::from_kbps(100.0), BitRate::from_kbps(333.333)];
        let recipe = GridRecipe::classic(4).with_rate_axis(axis);
        let grid = recipe.build();
        assert_eq!(grid.rates(), &axis);
        assert_eq!(grid.devices().len(), 4, "classic registry");
    }

    #[test]
    #[should_panic(expected = "at least 2 rates")]
    fn degenerate_rate_counts_are_rejected() {
        let _ = GridRecipe::baseline(1);
    }
}
