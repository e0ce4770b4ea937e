//! Cell identity: the key grammar, and the interned key fragments the
//! cell hot path builds keys from.
//!
//! A cell's key is five `|`-separated fragments
//! (`docs/CACHE_FORMAT.md` § "Key grammar"):
//!
//! ```text
//! <device> | <workload> | <rate> | <goal> | <settings>
//! ```
//!
//! The fragment functions below are the grammar's only definition:
//! [`ScenarioGrid::dedup_key`] and [`KeyInterner`] both compose keys from
//! them through one joiner, so the two cannot drift apart. Every value is
//! written from the parameters the models read, as shortest round-trip
//! decimals (bit-exact); no fragment is a type's `Debug` output.
//!
//! [`ScenarioGrid::dedup_key`] formats every fragment of a cell's key
//! anew. On every `resolve_cells`/`explore` that cost multiplies by the
//! full cell count, so the [`KeyInterner`] formats each fragment **once
//! per axis entry** and joins a cell's key from them
//! ([`KeyInterner::resolve_into`]), byte-identical to
//! [`ScenarioGrid::dedup_key`] for every cell (the equivalence suite in
//! `crates/grid/tests/key_equivalence.rs` pins this). Only a cached
//! exploration builds one: nothing else looks a key up. Every exploration
//! rejects an axis whose entries repeat a fragment
//! ([`GridError::DuplicateAxisEntry`]) before it runs, and so does
//! [`KeyInterner::new`], so every cell of an explorable grid is a
//! distinct scenario under a distinct key.

use std::fmt::Write as _;

use memstream_core::{BestEffortPolicy, DesignGoal};
use memstream_units::BitRate;

use crate::spec::{DeviceEntry, GridCell, GridError, ScenarioGrid, WorkloadProfile};

/// Appends `values` comma-separated, each as its shortest round-trip
/// decimal (`f64`'s `Display`: bit-exact, never in exponent form), an
/// absent value as `-`.
fn push_values(out: &mut String, values: &[Option<f64>]) {
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            Some(value) => {
                let _ = write!(out, "{value}");
            }
            None => out.push('-'),
        }
    }
}

fn values(values: &[Option<f64>]) -> String {
    let mut out = String::new();
    push_values(&mut out, values);
    out
}

/// The device fragment: the device's own
/// [`dedup_token`](memstream_device::StorageDevice::dedup_token). The
/// registry entry's display name is not part of it.
pub(crate) fn device_fragment(entry: &DeviceEntry) -> String {
    entry.device().dedup_token()
}

/// The workload fragment: write fraction, hours per day, days per year,
/// best-effort fraction. The profile's rate is excluded: the rate axis
/// overrides it cell by cell.
pub(crate) fn workload_fragment(profile: &WorkloadProfile) -> String {
    let workload = profile.workload();
    let calendar = workload.calendar();
    values(&[
        Some(workload.write_fraction().fraction()),
        Some(calendar.hours_per_day()),
        Some(calendar.days_per_year()),
        Some(workload.best_effort_fraction().fraction()),
    ])
}

/// The rate fragment: the stream rate in bit/s.
pub(crate) fn rate_fragment(rate: BitRate) -> String {
    values(&[Some(rate.bits_per_second())])
}

/// The goal fragment: energy-saving target, capacity-utilisation target
/// (fractions) and lifetime target (years), `-` where the goal sets none.
pub(crate) fn goal_fragment(goal: &DesignGoal) -> String {
    values(&[
        goal.energy_saving_target().map(|r| r.fraction()),
        goal.capacity_target().map(|r| r.fraction()),
        goal.lifetime_target().map(|y| y.get()),
    ])
}

/// The grid-wide settings fragment shared by every key of a grid:
/// `dram` or `nodram`, then the best-effort policy (`rw`, `idle` or
/// `excluded`).
pub(crate) fn settings_fragment(dram: bool, policy: BestEffortPolicy) -> String {
    let dram = if dram { "dram" } else { "nodram" };
    let policy = match policy {
        BestEffortPolicy::AtReadWrite => "rw",
        BestEffortPolicy::AtIdle => "idle",
        BestEffortPolicy::Excluded => "excluded",
    };
    format!("{dram},{policy}")
}

/// Replaces `out` with the key made of `fragments` (device, workload,
/// rate, goal, settings), reusing its allocation.
pub(crate) fn join_into(out: &mut String, fragments: [&str; 5]) {
    out.clear();
    out.reserve(fragments.iter().map(|f| f.len() + 1).sum());
    for (i, fragment) in fragments.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        out.push_str(fragment);
    }
}

/// Pre-computed key fragments for one [`ScenarioGrid`], one per axis
/// entry.
///
/// Build once per exploration; [`KeyInterner::resolve_into`] is then pure
/// concatenation.
#[derive(Debug, Clone)]
pub struct KeyInterner {
    device_fragments: Vec<String>,
    workload_fragments: Vec<String>,
    rate_fragments: Vec<String>,
    goal_fragments: Vec<String>,
    /// The grid-wide settings fragment shared by every key.
    settings: String,
}

/// The order of the keys inside one `(device, workload)` block. The
/// block's keys share their device, workload and settings fragments, and
/// no fragment holds a `|`, so they sort by rate fragment, then by goal
/// fragment, each compared together with the `|` that ends it in a key.
/// A series puts its records in key order by walking this order instead
/// of comparing keys.
#[derive(Debug, Clone)]
pub(crate) struct BlockKeyOrder {
    /// Rate-axis indices, in the order of their cells' keys.
    pub(crate) rates: Vec<usize>,
    /// Goal-axis indices, in the order of their cells' keys.
    pub(crate) goals: Vec<usize>,
}

impl KeyInterner {
    /// Builds the interner for `grid`: formats every axis fragment once.
    ///
    /// # Errors
    ///
    /// [`GridError::DuplicateAxisEntry`] if two entries of one axis
    /// format the same fragment, naming the first such pair in axis
    /// order (devices, workloads, rates, goals).
    pub fn new(grid: &ScenarioGrid) -> Result<Self, GridError> {
        grid.check_distinct()?;
        Ok(KeyInterner::of(grid))
    }

    /// The interner of `grid`, whose axes were already checked
    /// ([`ScenarioGrid::check_distinct`]).
    pub(crate) fn of(grid: &ScenarioGrid) -> Self {
        KeyInterner {
            device_fragments: grid.devices().iter().map(device_fragment).collect(),
            workload_fragments: grid.workloads().iter().map(workload_fragment).collect(),
            rate_fragments: grid.rates().iter().map(|&r| rate_fragment(r)).collect(),
            goal_fragments: grid.goals().iter().map(goal_fragment).collect(),
            settings: settings_fragment(grid.dram_enabled(), grid.best_effort_policy()),
        }
    }

    /// The key string of `cell`, byte-identical to
    /// [`ScenarioGrid::dedup_key`].
    ///
    /// # Panics
    ///
    /// Panics if `cell`'s axis indices are out of range for the grid the
    /// interner was built from.
    #[must_use]
    pub fn resolve(&self, cell: &GridCell) -> String {
        let mut out = String::new();
        self.resolve_into(cell, &mut out);
        out
    }

    /// Writes the key string of `cell` into `out` (cleared first),
    /// reusing its allocation — the cache-lookup loop's zero-garbage
    /// variant.
    ///
    /// # Panics
    ///
    /// As [`KeyInterner::resolve`].
    pub fn resolve_into(&self, cell: &GridCell, out: &mut String) {
        join_into(
            out,
            [
                &self.device_fragments[cell.device],
                &self.workload_fragments[cell.workload],
                &self.rate_fragments[cell.rate],
                &self.goal_fragments[cell.goal],
                &self.settings,
            ],
        );
    }

    /// The order of the keys inside any one `(device, workload)` block.
    pub(crate) fn block_order(&self) -> BlockKeyOrder {
        // Each fragment is compared with the `|` that ends it in a key.
        let order = |fragments: &[String]| {
            let mut order: Vec<usize> = (0..fragments.len()).collect();
            order.sort_unstable_by(|&a, &b| {
                let ended = |i: usize| fragments[i].bytes().chain(*b"|");
                ended(a).cmp(ended(b))
            });
            order
        };
        BlockKeyOrder {
            rates: order(&self.rate_fragments),
            goals: order(&self.goal_fragments),
        }
    }

    /// Total interned fragments across all axes (plus the shared
    /// settings fragment) — the `grid.interner.keys` telemetry payload.
    #[must_use]
    pub fn interned_strings(&self) -> usize {
        self.device_fragments.len()
            + self.workload_fragments.len()
            + self.rate_fragments.len()
            + self.goal_fragments.len()
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeviceEntry, ScenarioGrid};
    use memstream_core::DesignGoal;
    use memstream_device::MemsDevice;

    #[test]
    fn interned_keys_resolve_to_legacy_bytes() {
        for grid in [
            ScenarioGrid::paper_baseline(7),
            ScenarioGrid::paper_classic(5),
            ScenarioGrid::paper_baseline(4).without_dram(),
        ] {
            let interner = KeyInterner::new(&grid).expect("distinct axis entries");
            for cell in grid.cells() {
                assert_eq!(interner.resolve(&cell), grid.dedup_key(&cell));
            }
        }
    }

    #[test]
    fn content_identical_devices_are_rejected() {
        let grid = |second: MemsDevice| {
            ScenarioGrid::new()
                .device(DeviceEntry::new("a", MemsDevice::table1()))
                .device(DeviceEntry::new("b", second))
                .workload(crate::spec::WorkloadProfile::paper())
                .rate_span(32.0, 4096.0, 3)
                .goal(DesignGoal::fig3b())
        };
        assert_eq!(
            KeyInterner::new(&grid(MemsDevice::table1())).unwrap_err(),
            GridError::DuplicateAxisEntry {
                axis: "devices",
                first: 0,
                second: 1,
            }
        );
        // A sibling that differs in one parameter is another scenario.
        let tweaked = grid(MemsDevice::table1().with_probe_write_cycles(200.0));
        assert_eq!(KeyInterner::new(&tweaked).unwrap().interned_strings(), 8);
    }

    #[test]
    fn every_axis_parameter_moves_the_key() {
        use memstream_core::BestEffortPolicy;
        use memstream_units::{BitRate, Ratio, Years};
        use memstream_workload::{PlaybackCalendar, StreamSpec, Workload};

        let workload = |write: f64, calendar: PlaybackCalendar, best_effort: f64| {
            let stream = StreamSpec::new(BitRate::from_kbps(1024.0), Ratio::from_fraction(write))
                .expect("positive rate");
            WorkloadProfile::new(
                "w",
                Workload::new(stream, calendar, Ratio::from_fraction(best_effort))
                    .expect("valid workload"),
            )
        };
        let paper = PlaybackCalendar::paper_default();
        let workloads = [
            workload(0.4, paper, 0.05),
            workload(0.5, paper, 0.05),
            workload(0.4, PlaybackCalendar::new(10.0, 365.0).unwrap(), 0.05),
            workload(0.4, PlaybackCalendar::new(8.0, 300.0).unwrap(), 0.05),
            workload(0.4, paper, 0.1),
        ];
        let goals = [
            DesignGoal::fig3b(),
            DesignGoal::new(),
            DesignGoal::fig3b().energy_saving(Ratio::from_percent(60.0)),
            DesignGoal::fig3b().capacity_utilization(Ratio::from_percent(85.0)),
            DesignGoal::fig3b().lifetime(Years::new(5.0)),
        ];
        let base = ScenarioGrid::new()
            .device(DeviceEntry::new("mems", MemsDevice::table1()))
            .with_rates([BitRate::from_kbps(512.0), BitRate::from_kbps(513.0)]);
        let mut keys = std::collections::HashSet::new();
        for grid in [
            base.clone(),
            base.clone().without_dram(),
            base.clone().policy(BestEffortPolicy::AtIdle),
            base.clone().policy(BestEffortPolicy::Excluded),
        ] {
            let grid = workloads.iter().fold(grid, |g, w| g.workload(w.clone()));
            let grid = goals.iter().fold(grid, |g, &goal| g.goal(goal));
            let interner = KeyInterner::new(&grid).expect("distinct axis entries");
            for cell in grid.cells() {
                let key = grid.dedup_key(&cell);
                assert_eq!(interner.resolve(&cell), key);
                assert!(keys.insert(key.clone()), "two cells share `{key}`");
                assert!(!key.contains(['{', '}', ' ']), "not compact: {key}");
            }
        }
        // 4 settings × 5 workloads × 2 rates × 5 goals, all distinct.
        assert_eq!(keys.len(), 4 * 5 * 2 * 5);
    }

    #[test]
    fn the_key_grammar_is_pinned() {
        // A change to these bytes orphans every cache file: it must come
        // with a magic bump (docs/CACHE_FORMAT.md § "Evolution rule").
        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new("table1", MemsDevice::table1()))
            .workload(crate::spec::WorkloadProfile::paper())
            .with_rates([memstream_units::BitRate::from_kbps(32.0)])
            .goal(DesignGoal::fig3a());
        assert_eq!(
            grid.dedup_key(&grid.cell(0)),
            "mems:64,64,1024,100,960000000000,100000,0.002,0.001,0.002,\
             0.316,0.672,0.005,0.12,0.672,100,100000000\
             |0.4,8,365,0.05|32000|0.8,0.88,7|dram,rw"
        );
    }

    #[test]
    fn reference_grids_keep_their_unique_cell_counts() {
        // Every cell of the reference grids is a distinct scenario under a
        // distinct key; the CI smokes' hit counts rest on these numbers.
        for (grid, cells) in [
            (ScenarioGrid::paper_baseline(24), 720),
            (ScenarioGrid::paper_classic(24), 576),
            (ScenarioGrid::paper_baseline(20), 600),
        ] {
            let interner = KeyInterner::new(&grid).expect("distinct axis entries");
            let keys: std::collections::HashSet<String> =
                grid.cells().map(|cell| interner.resolve(&cell)).collect();
            assert_eq!(keys.len(), cells);
        }
    }

    #[test]
    fn resolve_into_reuses_the_buffer() {
        let grid = ScenarioGrid::paper_baseline(3);
        let interner = KeyInterner::new(&grid).expect("distinct axis entries");
        let mut buf = String::new();
        for cell in grid.cells() {
            interner.resolve_into(&cell, &mut buf);
            assert_eq!(buf, grid.dedup_key(&cell));
        }
    }
}
