//! Refinement budgets and termination bounds.

/// How far a refinement loop may go, and when a knee counts as localised.
///
/// The defaults localise every knee of the reference grids to better than
/// 1 % in rate within a handful of rounds; both budgets exist so a hostile
/// grid (or a bound tighter than `f64` log-rate resolution) degrades into
/// a truncated-but-reported refinement instead of an unbounded loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    width_bound: f64,
    max_rounds: usize,
    max_cells: usize,
}

impl Default for RefineConfig {
    /// 1 % relative width, at most 12 exploration rounds, at most 200 000
    /// grid cells.
    fn default() -> Self {
        RefineConfig {
            width_bound: 0.01,
            max_rounds: 12,
            max_cells: 200_000,
        }
    }
}

impl RefineConfig {
    /// Sets the relative-width bound: a transition bracketed by rates
    /// `(lo, hi)` is localised once `hi / lo - 1 <= bound`.
    ///
    /// # Panics
    ///
    /// Panics unless `bound` is finite and strictly positive.
    #[must_use]
    pub fn with_width_bound(mut self, bound: f64) -> Self {
        assert!(
            bound.is_finite() && bound > 0.0,
            "width bound must be finite and positive, got {bound}"
        );
        self.width_bound = bound;
        self
    }

    /// Sets the exploration-round budget (the initial coarse exploration
    /// counts as round 1).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds >= 1, "at least one exploration round is required");
        self.max_rounds = rounds;
        self
    }

    /// Sets the grid-size budget: a round that would grow the grid past
    /// `cells` total cells is not started.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[must_use]
    pub fn with_max_cells(mut self, cells: usize) -> Self {
        assert!(cells >= 1, "cell budget must be positive");
        self.max_cells = cells;
        self
    }

    /// The relative-width bound.
    #[must_use]
    pub fn width_bound(&self) -> f64 {
        self.width_bound
    }

    /// The exploration-round budget.
    #[must_use]
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The grid-size budget in cells.
    #[must_use]
    pub fn max_cells(&self) -> usize {
        self.max_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_documented_ones() {
        let c = RefineConfig::default();
        assert_eq!(c.width_bound(), 0.01);
        assert_eq!(c.max_rounds(), 12);
        assert_eq!(c.max_cells(), 200_000);
    }

    #[test]
    fn setters_replace_one_knob_each() {
        let c = RefineConfig::default()
            .with_width_bound(0.5)
            .with_max_rounds(3)
            .with_max_cells(99);
        assert_eq!(c.width_bound(), 0.5);
        assert_eq!(c.max_rounds(), 3);
        assert_eq!(c.max_cells(), 99);
    }

    #[test]
    #[should_panic(expected = "width bound")]
    fn zero_width_bound_is_rejected() {
        let _ = RefineConfig::default().with_width_bound(0.0);
    }

    #[test]
    #[should_panic(expected = "exploration round")]
    fn zero_rounds_are_rejected() {
        let _ = RefineConfig::default().with_max_rounds(0);
    }
}
