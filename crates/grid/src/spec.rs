//! The [`ScenarioGrid`] specification: which axes span the design space.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use memstream_core::{log_spaced_rates, BestEffortPolicy, DesignGoal};
use memstream_device::{DiskDevice, EnergyOnly, FlashDevice, MemsDevice, StorageDevice};
use memstream_units::{BitRate, Ratio};
use memstream_workload::{PlaybackCalendar, StreamMix, Workload};

use crate::key;

/// Errors raised while building or exploring a grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// An axis of the grid has no entries; the cartesian product is empty.
    EmptyAxis {
        /// Which axis is empty (`"devices"`, `"workloads"`, `"rates"`,
        /// `"goals"`).
        axis: &'static str,
    },
    /// Two entries of one axis describe the same scenario: their key
    /// fragments are equal (two names for one device, two workload
    /// profiles that differ only in their own stream rate, a repeated
    /// rate or goal), so every cell through the second would repeat a
    /// cell through the first.
    DuplicateAxisEntry {
        /// Which axis repeats an entry (`"devices"`, `"workloads"`,
        /// `"rates"`, `"goals"`).
        axis: &'static str,
        /// Index of the earlier entry.
        first: usize,
        /// Index of the later entry that repeats it.
        second: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::EmptyAxis { axis } => {
                write!(f, "scenario grid has an empty `{axis}` axis")
            }
            GridError::DuplicateAxisEntry {
                axis,
                first,
                second,
            } => write!(
                f,
                "scenario grid's `{axis}` axis repeats entry {first} as entry {second}"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// Rejects the first of `entries` equal to an earlier one, naming the
/// pair as a repeat on `axis`.
fn first_repeat<T: Eq + Hash>(
    axis: &'static str,
    entries: impl ExactSizeIterator<Item = T>,
) -> Result<(), GridError> {
    let mut seen = HashMap::with_capacity(entries.len());
    for (second, entry) in entries.enumerate() {
        if let Some(first) = seen.insert(entry, second) {
            return Err(GridError::DuplicateAxisEntry {
                axis,
                first,
                second,
            });
        }
    }
    Ok(())
}

/// One entry of the device axis: a named [`StorageDevice`] in the
/// registry.
///
/// The grid no longer knows device families. Each entry is a boxed
/// capability object; evaluation dispatches on the capabilities the device
/// exposes (full pipeline when energy + wear + utilisation are present,
/// energy-only otherwise — the role the 1.8″ disk plays in §III-A.1's
/// break-even comparison). Adding a device to the grid is registering it
/// here, nothing else.
#[derive(Debug)]
pub struct DeviceEntry {
    name: String,
    device: Box<dyn StorageDevice>,
}

impl DeviceEntry {
    /// A named entry from any storage device.
    pub fn new(name: impl Into<String>, device: impl StorageDevice + 'static) -> Self {
        DeviceEntry {
            name: name.into(),
            device: Box::new(device),
        }
    }

    /// A named entry from an already boxed device.
    pub fn from_boxed(name: impl Into<String>, device: Box<dyn StorageDevice>) -> Self {
        DeviceEntry {
            name: name.into(),
            device,
        }
    }

    /// The display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registered device.
    #[must_use]
    pub fn device(&self) -> &dyn StorageDevice {
        &*self.device
    }
}

impl Clone for DeviceEntry {
    fn clone(&self) -> Self {
        DeviceEntry {
            name: self.name.clone(),
            device: self.device.clone_box(),
        }
    }
}

impl PartialEq for DeviceEntry {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.device.dedup_token() == other.device.dedup_token()
    }
}

/// One entry of the workload axis: a named workload shape (write mix,
/// playback calendar, best-effort reservation). The *rate* axis of the
/// grid overrides the profile's stream rate cell by cell.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    name: String,
    workload: Workload,
}

impl WorkloadProfile {
    /// A named profile from an explicit workload.
    pub fn new(name: impl Into<String>, workload: Workload) -> Self {
        WorkloadProfile {
            name: name.into(),
            workload,
        }
    }

    /// The paper's §IV-A workload: 40 % writes, 8 h/day, 5 % best-effort.
    #[must_use]
    pub fn paper() -> Self {
        WorkloadProfile::new("paper", Workload::paper_default(BitRate::from_kbps(1024.0)))
    }

    /// A profile aggregated from a [`StreamMix`]: the mix contributes the
    /// blended write fraction; the grid's rate axis sets the rate.
    ///
    /// # Errors
    ///
    /// Propagates [`memstream_workload::WorkloadError`] from
    /// [`Workload::new`] (e.g. a ≥ 100 % best-effort fraction).
    pub fn from_mix(
        name: impl Into<String>,
        mix: &StreamMix,
        calendar: PlaybackCalendar,
        best_effort: Ratio,
    ) -> Result<Self, memstream_workload::WorkloadError> {
        Ok(WorkloadProfile::new(
            name,
            Workload::new(mix.aggregate(), calendar, best_effort)?,
        ))
    }

    /// The display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload shape (its rate is a placeholder; see the type docs).
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }
}

/// One coordinate of the grid: indices into the four axes plus the
/// canonical linear index (device outermost, goal innermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// Canonical linear index of this cell.
    pub index: usize,
    /// Index into [`ScenarioGrid::devices`].
    pub device: usize,
    /// Index into [`ScenarioGrid::workloads`].
    pub workload: usize,
    /// Index into [`ScenarioGrid::rates`].
    pub rate: usize,
    /// Index into [`ScenarioGrid::goals`].
    pub goal: usize,
}

/// The cartesian-product specification of a design-space exploration.
///
/// Axes are ordered; the linear cell order (device, workload, rate, goal)
/// is part of the crate's determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    devices: Vec<DeviceEntry>,
    workloads: Vec<WorkloadProfile>,
    rates: Vec<BitRate>,
    goals: Vec<DesignGoal>,
    with_dram: bool,
    policy: BestEffortPolicy,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid::new()
    }
}

impl ScenarioGrid {
    /// An empty grid; chain the axis builders.
    #[must_use]
    pub fn new() -> Self {
        ScenarioGrid {
            devices: Vec::new(),
            workloads: Vec::new(),
            rates: Vec::new(),
            goals: Vec::new(),
            with_dram: true,
            policy: BestEffortPolicy::AtReadWrite,
        }
    }

    /// The workspace's reference exploration: five registered devices
    /// (Table I, the wear-hardened Fig. 3c part, an early prototype with
    /// weak wear ratings, the fully wear-modelled 1.8″ disk, and the
    /// mobile MLC flash part), three workload shapes (paper, read-mostly
    /// A/V mix, write-heavy recorder), `n_rates` log-spaced rates over the
    /// paper's 32–4096 kbps span, and the Fig. 3a/3b goals.
    ///
    /// # Panics
    ///
    /// Panics if `n_rates < 2`.
    #[must_use]
    pub fn paper_baseline(n_rates: usize) -> Self {
        ScenarioGrid::paper_mems_entries()
            .device(DeviceEntry::new(
                "disk-1.8in",
                DiskDevice::calibrated_1p8_inch(),
            ))
            .device(DeviceEntry::new("flash-mlc", FlashDevice::mobile_mlc()))
            .paper_shape(n_rates)
    }

    /// The pre-flash reference exploration: the four classic devices of
    /// the paper era (three MEMS variants and the 1.8″ disk in its
    /// historical energy-only role, frozen behind [`EnergyOnly`]). Kept
    /// distinct so the registry refactor's byte-identity golden test has a
    /// stable target, and useful whenever only the paper's devices are
    /// wanted.
    ///
    /// # Panics
    ///
    /// Panics if `n_rates < 2`.
    #[must_use]
    pub fn paper_classic(n_rates: usize) -> Self {
        ScenarioGrid::paper_mems_entries()
            .device(DeviceEntry::new(
                "disk-1.8in",
                EnergyOnly::new(DiskDevice::calibrated_1p8_inch()),
            ))
            .paper_shape(n_rates)
    }

    /// The three MEMS registry entries shared by the reference grids.
    fn paper_mems_entries() -> Self {
        ScenarioGrid::new()
            .device(DeviceEntry::new("table1", MemsDevice::table1()))
            .device(DeviceEntry::new(
                "wear-hardened",
                MemsDevice::table1()
                    .with_probe_write_cycles(200.0)
                    .with_spring_duty_cycles(1e12),
            ))
            .device(DeviceEntry::new(
                "prototype",
                MemsDevice::table1()
                    .with_probe_write_cycles(50.0)
                    .with_spring_duty_cycles(1e7),
            ))
    }

    /// The workload, rate and goal axes shared by the reference grids.
    ///
    /// # Panics
    ///
    /// Panics if `n_rates < 2`.
    fn paper_shape(self, n_rates: usize) -> Self {
        use memstream_workload::StreamSpec;

        let mix = StreamMix::new(vec![
            StreamSpec::new(BitRate::from_kbps(2048.0), Ratio::from_percent(10.0))
                .expect("positive rate"),
            StreamSpec::new(BitRate::from_kbps(128.0), Ratio::from_percent(50.0))
                .expect("positive rate"),
        ])
        .expect("non-empty mix");

        self.workload(WorkloadProfile::paper())
            .workload(
                WorkloadProfile::from_mix(
                    "av-mix",
                    &mix,
                    PlaybackCalendar::paper_default(),
                    Ratio::from_percent(5.0),
                )
                .expect("valid mix profile"),
            )
            .workload(WorkloadProfile::new(
                "recorder",
                Workload::new(
                    StreamSpec::new(BitRate::from_kbps(1024.0), Ratio::from_percent(75.0))
                        .expect("positive rate"),
                    PlaybackCalendar::paper_default(),
                    Ratio::from_percent(5.0),
                )
                .expect("valid recorder workload"),
            ))
            .rate_span(32.0, 4096.0, n_rates)
            .goal(DesignGoal::fig3a())
            .goal(DesignGoal::fig3b())
    }

    /// Registers a device entry.
    #[must_use]
    pub fn device(mut self, device: DeviceEntry) -> Self {
        self.devices.push(device);
        self
    }

    /// Appends a workload profile.
    #[must_use]
    pub fn workload(mut self, profile: WorkloadProfile) -> Self {
        self.workloads.push(profile);
        self
    }

    /// Appends explicit stream rates.
    #[must_use]
    pub fn with_rates(mut self, rates: impl IntoIterator<Item = BitRate>) -> Self {
        self.rates.extend(rates);
        self
    }

    /// Appends `n` log-spaced rates between `min_kbps` and `max_kbps`.
    ///
    /// # Panics
    ///
    /// See [`log_spaced_rates`].
    #[must_use]
    pub fn rate_span(self, min_kbps: f64, max_kbps: f64, n: usize) -> Self {
        self.with_rates(log_spaced_rates(min_kbps, max_kbps, n))
    }

    /// Appends a design goal.
    #[must_use]
    pub fn goal(mut self, goal: DesignGoal) -> Self {
        self.goals.push(goal);
        self
    }

    /// The same grid with a replaced rate axis — the cheap "same scenario
    /// space, different rate samples" extension refinement loops live on.
    ///
    /// Every other axis and setting is kept, so a cell at a rate present
    /// in both grids has an identical [`ScenarioGrid::dedup_key`]: a
    /// cached exploration of one grid warms the other at the shared rates.
    #[must_use]
    pub fn with_rate_axis(&self, rates: impl IntoIterator<Item = BitRate>) -> Self {
        let mut copy = self.clone();
        copy.rates = rates.into_iter().collect();
        copy
    }

    /// Removes the DRAM term from the energy model (device-only energy,
    /// the configuration the simulator cross-check uses).
    #[must_use]
    pub fn without_dram(mut self) -> Self {
        self.with_dram = false;
        self
    }

    /// Sets the best-effort accounting policy (default: at read/write
    /// power, the paper's).
    #[must_use]
    pub fn policy(mut self, policy: BestEffortPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The device axis (the registry).
    #[must_use]
    pub fn devices(&self) -> &[DeviceEntry] {
        &self.devices
    }

    /// The workload axis.
    #[must_use]
    pub fn workloads(&self) -> &[WorkloadProfile] {
        &self.workloads
    }

    /// The rate axis.
    #[must_use]
    pub fn rates(&self) -> &[BitRate] {
        &self.rates
    }

    /// The goal axis.
    #[must_use]
    pub fn goals(&self) -> &[DesignGoal] {
        &self.goals
    }

    /// Whether the DRAM term is included.
    #[must_use]
    pub fn dram_enabled(&self) -> bool {
        self.with_dram
    }

    /// The best-effort accounting policy.
    #[must_use]
    pub fn best_effort_policy(&self) -> BestEffortPolicy {
        self.policy
    }

    /// Total number of cells (the product of the axis lengths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len() * self.workloads.len() * self.rates.len() * self.goals.len()
    }

    /// Whether the product is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The check every exploration makes first: the first empty axis
    /// ([`GridError::EmptyAxis`]), then the first repeated entry
    /// ([`ScenarioGrid::check_distinct`]), each in axis order.
    pub(crate) fn check_axes(&self) -> Result<(), GridError> {
        for (axis, empty) in [
            ("devices", self.devices.is_empty()),
            ("workloads", self.workloads.is_empty()),
            ("rates", self.rates.is_empty()),
            ("goals", self.goals.is_empty()),
        ] {
            if empty {
                return Err(GridError::EmptyAxis { axis });
            }
        }
        self.check_distinct()
    }

    /// Rejects an entry whose key fragment an earlier entry of its axis
    /// already has: every cell through it would repeat a cell through the
    /// earlier one. Names the first such pair in axis order (devices,
    /// workloads, rates, goals) with [`GridError::DuplicateAxisEntry`].
    ///
    /// Rates compare by `f64` bit pattern and are never formatted: a rate
    /// fragment is the shortest round-trip decimal, so for the finite,
    /// non-negative values a [`BitRate`] admits two rates share one
    /// exactly when their bits are equal (`-0` and `0` differ in both).
    pub(crate) fn check_distinct(&self) -> Result<(), GridError> {
        first_repeat("devices", self.devices.iter().map(key::device_fragment))?;
        first_repeat(
            "workloads",
            self.workloads.iter().map(key::workload_fragment),
        )?;
        first_repeat(
            "rates",
            self.rates
                .iter()
                .map(|rate| rate.bits_per_second().to_bits()),
        )?;
        first_repeat("goals", self.goals.iter().map(key::goal_fragment))
    }

    /// The cell at canonical linear index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn cell(&self, index: usize) -> GridCell {
        assert!(index < self.len(), "cell index {index} out of bounds");
        let goals = self.goals.len();
        let rates = self.rates.len();
        let workloads = self.workloads.len();
        GridCell {
            index,
            goal: index % goals,
            rate: (index / goals) % rates,
            workload: (index / (goals * rates)) % workloads,
            device: index / (goals * rates * workloads),
        }
    }

    /// Iterates every cell in canonical order.
    pub fn cells(&self) -> impl Iterator<Item = GridCell> + '_ {
        (0..self.len()).map(|i| self.cell(i))
    }

    /// The canonical **cell range**: every cell, in canonical order. This
    /// is the domain distributed exploration partitions — a contiguous
    /// slice of this list is a shard, and the concatenation of all shards
    /// covers every evaluation the grid needs exactly once. Exploration
    /// rejects a grid whose axis repeats an entry
    /// ([`GridError::DuplicateAxisEntry`]), so no two cells of an
    /// explorable grid share a [`ScenarioGrid::dedup_key`].
    #[must_use]
    pub fn unique_cells(&self) -> Vec<GridCell> {
        self.cells().collect()
    }

    /// The content key a cell evaluates under: the cache key, equal for
    /// two cells exactly when they are the same scenario. The grammar is
    /// defined once, in the crate's `key` module
    /// (`docs/CACHE_FORMAT.md` § "Key grammar").
    #[must_use]
    pub fn dedup_key(&self, cell: &GridCell) -> String {
        let mut out = String::new();
        key::join_into(
            &mut out,
            [
                &key::device_fragment(&self.devices[cell.device]),
                &key::workload_fragment(&self.workloads[cell.workload]),
                &key::rate_fragment(self.rates[cell.rate]),
                &key::goal_fragment(&self.goals[cell.goal]),
                &key::settings_fragment(self.with_dram, self.policy),
            ],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrips_linear_index() {
        let grid = ScenarioGrid::paper_baseline(5);
        for (i, cell) in grid.cells().enumerate() {
            assert_eq!(cell.index, i);
            let goals = grid.goals().len();
            let rates = grid.rates().len();
            let workloads = grid.workloads().len();
            let reconstructed =
                ((cell.device * workloads + cell.workload) * rates + cell.rate) * goals + cell.goal;
            assert_eq!(reconstructed, i);
        }
    }

    #[test]
    fn baseline_grid_shape() {
        let grid = ScenarioGrid::paper_baseline(24);
        assert_eq!(grid.devices().len(), 5);
        assert_eq!(grid.workloads().len(), 3);
        assert_eq!(grid.rates().len(), 24);
        assert_eq!(grid.goals().len(), 2);
        assert_eq!(grid.len(), 5 * 3 * 24 * 2);
        // The classic grid shares the baseline's MEMS prefix and device
        // names, but freezes the disk in its paper-era energy-only role.
        let classic = ScenarioGrid::paper_classic(24);
        assert_eq!(classic.devices().len(), 4);
        for (a, b) in classic.devices().iter().zip(grid.devices()).take(3) {
            assert_eq!(a, b);
        }
        assert_eq!(classic.devices()[3].name(), grid.devices()[3].name());
        assert!(classic.devices()[3].device().wear().is_none());
        assert!(grid.devices()[3].device().wear().is_some());
        assert_eq!(grid.devices()[4].device().kind(), "flash");
    }

    #[test]
    fn rate_axis_replacement_preserves_shared_dedup_keys() {
        let base = ScenarioGrid::paper_baseline(6);
        let mut rates: Vec<BitRate> = base.rates().to_vec();
        rates.push(BitRate::from_kbps(555.0));
        let extended = base.with_rate_axis(rates);
        assert_eq!(extended.rates().len(), 7);
        // Cells at the shared rates keep byte-identical keys; only the
        // rate coordinate moved.
        let mut shared = 0;
        for cell in base.cells() {
            let key = base.dedup_key(&cell);
            let ext_cell = extended.cell(
                ((cell.device * extended.workloads().len() + cell.workload)
                    * extended.rates().len()
                    + cell.rate)
                    * extended.goals().len()
                    + cell.goal,
            );
            assert_eq!(key, extended.dedup_key(&ext_cell));
            shared += 1;
        }
        assert_eq!(shared, base.len());
    }

    #[test]
    fn empty_axis_is_detected() {
        let grid = ScenarioGrid::new().goal(DesignGoal::fig3a());
        assert_eq!(
            grid.check_axes(),
            Err(GridError::EmptyAxis { axis: "devices" })
        );
        assert!(grid.is_empty());
    }

    /// The check that rate bit patterns replace: the first rate whose
    /// fragment an earlier rate already has.
    fn first_repeated_fragment(rates: &[BitRate]) -> Result<(), GridError> {
        let mut seen = HashMap::new();
        for (second, &rate) in rates.iter().enumerate() {
            if let Some(first) = seen.insert(key::rate_fragment(rate), second) {
                return Err(GridError::DuplicateAxisEntry {
                    axis: "rates",
                    first,
                    second,
                });
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn rates_repeat_by_bits_exactly_when_their_fragments_repeat(
            raw in proptest::collection::vec((0usize..6, 0u64..u64::MAX), 1..40)
        ) {
            // Signed zeros, subnormals, ordinary rates and their one-ulp
            // neighbours, and repeats of an earlier entry.
            let anchors = [0.0, -0.0, f64::MIN_POSITIVE, 1.0, 32_000.0, 4_096_000.0];
            let mut rates: Vec<f64> = Vec::new();
            for &(kind, bits) in &raw {
                let anchor: f64 = anchors[(bits % anchors.len() as u64) as usize];
                let magnitude = anchor.abs().to_bits();
                let rate = match kind {
                    0 => anchor,
                    1 => f64::from_bits(magnitude + 1),
                    2 => f64::from_bits(magnitude.saturating_sub(1)),
                    3 => f64::from_bits(bits % (1 << 52)),
                    4 => rates.get((bits % 64) as usize).copied().unwrap_or(anchor),
                    _ => f64::from_bits(bits % f64::INFINITY.to_bits()),
                };
                rates.push(rate);
            }
            let rates: Vec<BitRate> = rates
                .into_iter()
                .map(|bps| BitRate::try_from_bits_per_second(bps).expect("admitted"))
                .collect();
            let grid = ScenarioGrid::new()
                .device(DeviceEntry::new("table1", MemsDevice::table1()))
                .workload(WorkloadProfile::paper())
                .with_rates(rates.iter().copied())
                .goal(DesignGoal::fig3a());
            let expected = first_repeated_fragment(&rates);
            proptest::prop_assert_eq!(grid.check_axes(), expected.clone());
            proptest::prop_assert_eq!(
                key::KeyInterner::new(&grid).map(|_| ()),
                expected
            );
        }
    }

    #[test]
    fn duplicate_devices_share_dedup_keys() {
        let a = DeviceEntry::new("one", MemsDevice::table1());
        let b = DeviceEntry::new("two", MemsDevice::table1());
        assert_eq!(key::device_fragment(&a), key::device_fragment(&b));
        let c = DeviceEntry::new("three", MemsDevice::table1().with_probe_write_cycles(200.0));
        assert_ne!(key::device_fragment(&a), key::device_fragment(&c));
        // Device fragments are kind-prefixed.
        assert!(key::device_fragment(&a).starts_with("mems:"));
        let d = DeviceEntry::new("disk", DiskDevice::calibrated_1p8_inch());
        assert!(key::device_fragment(&d).starts_with("disk:"));
    }

    #[test]
    fn workload_profile_rate_is_excluded_from_key() {
        let a = WorkloadProfile::new("a", Workload::paper_default(BitRate::from_kbps(64.0)));
        let b = WorkloadProfile::new("b", Workload::paper_default(BitRate::from_kbps(4096.0)));
        assert_eq!(key::workload_fragment(&a), key::workload_fragment(&b));
    }
}
