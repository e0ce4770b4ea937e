//! Cell identity: the dedup-key grammar, and interned keys for the cell
//! hot path.
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
//! [`ScenarioGrid::dedup_key`] formats a `String` per cell. On every
//! `resolve_cells`/`explore` that cost multiplies by the full cell count,
//! so the [`KeyInterner`] computes each fragment **once per axis value**,
//! collapses content-identical axis entries into *classes* (two
//! registered devices with equal dedup tokens share a class, exactly as
//! they share a dedup key), and hands out [`CellKey`] identifiers — four
//! `u32` class indices — that are `Eq`/`Hash` in a few machine words.
//! Key strings are materialised only at cache boundaries via
//! [`KeyInterner::resolve`], byte-identical to
//! [`ScenarioGrid::dedup_key`] for every cell (the equivalence suite in
//! `crates/grid/tests/key_equivalence.rs` pins this).

use std::collections::HashMap;
use std::fmt::Write as _;

use memstream_core::{BestEffortPolicy, DesignGoal};
use memstream_units::BitRate;

use crate::spec::{DeviceEntry, GridCell, ScenarioGrid, WorkloadProfile};

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

/// A cell's dedup identity as four axis-**class** indices
/// (device, workload, rate, goal).
///
/// Two cells compare equal iff their dedup-key strings are byte-equal:
/// the class maps are built by string equality of the per-axis key
/// fragments, and the grid-wide settings fragment is shared by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(pub u32, pub u32, pub u32, pub u32);

/// Pre-computed key fragments and axis-class maps for one
/// [`ScenarioGrid`].
///
/// Build once per exploration; [`KeyInterner::key`] is then index
/// arithmetic and [`KeyInterner::resolve`] pure concatenation.
#[derive(Debug, Clone)]
pub struct KeyInterner {
    device_class: Vec<u32>,
    workload_class: Vec<u32>,
    rate_class: Vec<u32>,
    goal_class: Vec<u32>,
    device_fragments: Vec<String>,
    workload_fragments: Vec<String>,
    rate_fragments: Vec<String>,
    goal_fragments: Vec<String>,
    /// The grid-wide settings fragment shared by every key.
    settings: String,
}

/// Maps each axis entry to a class id by fragment string equality,
/// returning (entry → class, class → fragment) with classes numbered in
/// first-occurrence order.
fn classify(fragments: impl Iterator<Item = String>) -> (Vec<u32>, Vec<String>) {
    let mut by_fragment: HashMap<String, u32> = HashMap::new();
    let mut classes = Vec::new();
    let mut canonical = Vec::new();
    for fragment in fragments {
        let next = canonical.len() as u32;
        let class = *by_fragment.entry(fragment.clone()).or_insert_with(|| {
            canonical.push(fragment);
            next
        });
        classes.push(class);
    }
    (classes, canonical)
}

impl KeyInterner {
    /// Builds the interner for `grid`: formats every axis fragment once
    /// and assigns content classes.
    #[must_use]
    pub fn new(grid: &ScenarioGrid) -> Self {
        let (device_class, device_fragments) = classify(grid.devices().iter().map(device_fragment));
        let (workload_class, workload_fragments) =
            classify(grid.workloads().iter().map(workload_fragment));
        let (rate_class, rate_fragments) =
            classify(grid.rates().iter().map(|&rate| rate_fragment(rate)));
        let (goal_class, goal_fragments) = classify(grid.goals().iter().map(goal_fragment));
        KeyInterner {
            device_class,
            workload_class,
            rate_class,
            goal_class,
            device_fragments,
            workload_fragments,
            rate_fragments,
            goal_fragments,
            settings: settings_fragment(grid.dram_enabled(), grid.best_effort_policy()),
        }
    }

    /// The interned key of `cell` — pure index arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `cell`'s axis indices are out of range for the grid the
    /// interner was built from.
    #[must_use]
    pub fn key(&self, cell: &GridCell) -> CellKey {
        CellKey(
            self.device_class[cell.device],
            self.workload_class[cell.workload],
            self.rate_class[cell.rate],
            self.goal_class[cell.goal],
        )
    }

    /// The canonical key string for `key`, byte-identical to
    /// [`ScenarioGrid::dedup_key`] of any cell that interns to `key`.
    #[must_use]
    pub fn resolve(&self, key: CellKey) -> String {
        let mut out = String::new();
        self.resolve_into(key, &mut out);
        out
    }

    /// Writes the canonical key string into `out` (cleared first),
    /// reusing its allocation — the cache-lookup loop's zero-garbage
    /// variant.
    pub fn resolve_into(&self, key: CellKey, out: &mut String) {
        join_into(
            out,
            [
                &self.device_fragments[key.0 as usize],
                &self.workload_fragments[key.1 as usize],
                &self.rate_fragments[key.2 as usize],
                &self.goal_fragments[key.3 as usize],
                &self.settings,
            ],
        );
    }

    /// Number of distinct classes per axis, in
    /// (device, workload, rate, goal) order.
    #[must_use]
    pub fn class_counts(&self) -> [usize; 4] {
        [
            self.device_fragments.len(),
            self.workload_fragments.len(),
            self.rate_fragments.len(),
            self.goal_fragments.len(),
        ]
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

    /// The dense-table capacity: the product of the class counts. Every
    /// [`KeyInterner::class_index`] is below this.
    #[must_use]
    pub(crate) fn class_capacity(&self) -> usize {
        let [d, w, r, g] = self.class_counts();
        d * w * r * g
    }

    /// A dense linear index over classes (device outermost, goal
    /// innermost) — the dedup planner's replacement for hashing key
    /// strings.
    #[must_use]
    pub(crate) fn class_index(&self, cell: &GridCell) -> usize {
        let [_, w, r, g] = self.class_counts();
        ((self.device_class[cell.device] as usize * w
            + self.workload_class[cell.workload] as usize)
            * r
            + self.rate_class[cell.rate] as usize)
            * g
            + self.goal_class[cell.goal] as usize
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
            let interner = KeyInterner::new(&grid);
            for cell in grid.cells() {
                assert_eq!(interner.resolve(interner.key(&cell)), grid.dedup_key(&cell));
            }
        }
    }

    #[test]
    fn content_identical_devices_share_a_class() {
        let grid = ScenarioGrid::new()
            .device(DeviceEntry::new("a", MemsDevice::table1()))
            .device(DeviceEntry::new("b", MemsDevice::table1()))
            .device(DeviceEntry::new(
                "c",
                MemsDevice::table1().with_probe_write_cycles(200.0),
            ))
            .workload(crate::spec::WorkloadProfile::paper())
            .rate_span(32.0, 4096.0, 3)
            .goal(DesignGoal::fig3b());
        let interner = KeyInterner::new(&grid);
        assert_eq!(interner.class_counts(), [2, 1, 3, 1]);
        let (a, b, c) = (grid.cell(0), grid.cell(3), grid.cell(6));
        assert_eq!(interner.key(&a), interner.key(&b));
        assert_ne!(interner.key(&a), interner.key(&c));
    }

    #[test]
    fn key_equality_matches_string_equality() {
        let grid = ScenarioGrid::paper_baseline(5);
        let interner = KeyInterner::new(&grid);
        for a in grid.cells() {
            for b in grid.cells().take(40) {
                assert_eq!(
                    interner.key(&a) == interner.key(&b),
                    grid.dedup_key(&a) == grid.dedup_key(&b),
                );
            }
        }
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
            let interner = KeyInterner::new(&grid);
            for cell in grid.cells() {
                let key = grid.dedup_key(&cell);
                assert_eq!(interner.resolve(interner.key(&cell)), key);
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
        // Every cell of the reference grids is a distinct scenario; the
        // CI smokes' hit counts rest on these numbers.
        assert_eq!(ScenarioGrid::paper_baseline(24).unique_cells().len(), 720);
        assert_eq!(ScenarioGrid::paper_classic(24).unique_cells().len(), 576);
        assert_eq!(ScenarioGrid::paper_baseline(20).unique_cells().len(), 600);
    }

    #[test]
    fn resolve_into_reuses_the_buffer() {
        let grid = ScenarioGrid::paper_baseline(3);
        let interner = KeyInterner::new(&grid);
        let mut buf = String::new();
        for cell in grid.cells() {
            interner.resolve_into(interner.key(&cell), &mut buf);
            assert_eq!(buf, grid.dedup_key(&cell));
        }
    }
}
